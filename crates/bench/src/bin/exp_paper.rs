//! PAPER: every section of the paper this reproduction regenerates, in
//! one run. Each search runs once and every section that reads it shares
//! it.
//!
//! 1. **§5.0.3 compile rates** (`cc_compile.json`): 100 generated kernel
//!    candidates through the verifier, first try and after one stderr
//!    repair, against 100 cache candidates.
//! 2. **§5.0.3 behaviour range** (`cc_range.json`): every verified
//!    kernel candidate of 100 runs 30 s (5 s with `--fast`) on the paper's
//!    12 Mbps / 20 ms link.
//! 3. **The eight §4.2.1 searches**, heuristics A–D on CloudPhysics and
//!    W–Z on MSR, read by three sections:
//!    - Fig. 2 + Table 2 (`fig2_<dataset>.json`): every baseline and
//!      heuristic swept over every trace of its dataset, the oracles, and
//!      the fraction of traces where each heuristic beats all fourteen
//!      baselines; per trace, the compulsory floor and the ceiling it puts
//!      on every improvement (see [`Headroom`]);
//!    - Listing 1 (`listing1.json`): heuristic A, the w89 search, beside
//!      the paper's literal Listing 1 on that trace;
//!    - §4.2.6 cost (`cost.json`): CPU time, tokens and dollars per
//!      search, read back from the `search_done` trace events and checked
//!      against each search's own `CostLedger`.
//! 4. **Ablations** (`ablation.json`, not in the paper; §6 poses them as
//!    open questions): exemplar feedback off, stderr repair off, and a
//!    round-count sweep, all on w89.
//!
//! The compile-rate and range sections run first: they start no search,
//! so their artifacts' `obs` stamp reads `trace_events: 0`.
//!
//! Exit status doubles as the CI guard. The §5.0.3 sections check the
//! paper's story (see [`cc_compile`] and [`cc_range`]); the cost section
//! checks the trace against the ledgers; Fig. 2 checks that no policy
//! improves on FIFO by more than its trace's cap, which would prove a
//! simulator bug. Every artifact is written first, then any violation
//! exits 1. A usage error exits 2.
//!
//! Usage: `exp_paper [--fast|--quick] [--requests N] [--seed N]`

use policysmith_bench::{
    exit_on_violations, summarize, synthesize, write_json, ExpOpts, ImprovementMatrix,
};
use policysmith_cachesim::{paper_heuristic_a, policies, PriorityPolicy, LISTING1_SOURCE};
use policysmith_cc::{baselines, check_candidate, evaluate, repair_stderr, KbpfCc};
use policysmith_core::search::{run_search, SearchConfig, SearchOutcome, Study};
use policysmith_core::studies::cache::CacheStudy;
use policysmith_dsl::Mode;
use policysmith_gen::{GenConfig, Generator, MockLlm, Prompt};
use policysmith_obs::TraceKind;
use policysmith_traces::{cloudphysics, msr, DatasetSpec, IdMap, IdSet, Trace};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Mutex;

fn main() {
    let opts = ExpOpts::from_args();
    let mut violations = cc_compile(&opts);
    violations.extend(cc_range(&opts));

    // Contexts per the paper: w89 + three more CloudPhysics traces → A–D;
    // four MSR traces → W–Z; with each label's Table-2 percentage.
    let trace = policysmith_obs::trace::global();
    let mark = trace.seq();
    let mut searches = Vec::new();
    for (ds, contexts, labels, paper_pct) in [
        (cloudphysics(), [89, 10, 40, 70], ["A", "B", "C", "D"], [48.0, 42.0, 14.0, 31.0]),
        (msr(), [3, 0, 7, 11], ["W", "X", "Y", "Z"], [57.0, 64.0, 57.0, 21.0]),
    ] {
        let done = search_dataset(&ds, &contexts, &labels, &opts);
        violations.extend(fig2(&ds, &done, &paper_pct, &opts));
        searches.extend(done);
    }
    let w89 = &searches[0];
    listing1(w89);
    violations.extend(cost(&searches, &trace.events_since(mark)));
    ablation(&w89.study, &opts);

    exit_on_violations(&violations);
}

/// One of the eight §4.2.1 searches and the context it ran on.
struct Search {
    heuristic: Heuristic,
    outcome: SearchOutcome,
    study: CacheStudy,
}

/// A synthesized heuristic with provenance, as `fig2_<dataset>.json`
/// records it.
#[derive(Clone, Serialize)]
struct Heuristic {
    /// Label in the paper's convention (A–D for CloudPhysics, W–Z for MSR).
    label: String,
    /// Context trace name (e.g. `cloudphysics/w89`).
    context: String,
    source: String,
    /// Score (improvement over FIFO) in the home context.
    home_score: f64,
}

/// Run the §4.2.1 search on `contexts` of a dataset, labelled A–D / W–Z.
fn search_dataset(
    ds: &DatasetSpec,
    contexts: &[usize],
    labels: &[&str],
    opts: &ExpOpts,
) -> Vec<Search> {
    println!(
        "=== Figure 2: {} ({} traces, {} requests each) ===",
        ds.name, ds.count, opts.requests
    );
    println!("-- synthesizing heuristics {labels:?} on contexts {contexts:?} --");
    let studies: Vec<CacheStudy> =
        contexts.iter().map(|&i| CacheStudy::new(&ds.trace(i, opts.requests))).collect();
    let outcomes = synthesize(
        contexts.iter().copied().zip(&studies),
        GenConfig::cache_defaults,
        &opts.search_cfg(),
        opts.seed,
    );
    let mut searches = Vec::new();
    for (((&idx, label), study), outcome) in contexts.iter().zip(labels).zip(studies).zip(outcomes)
    {
        let heuristic = Heuristic {
            label: label.to_string(),
            context: format!("{}/{}", ds.name, ds.trace_name(idx)),
            source: outcome.best.source.clone(),
            home_score: outcome.best.score,
        };
        println!(
            "  {} ({}): home improvement {:+.4}  [{} candidates, {:.0}s eval]",
            heuristic.label,
            heuristic.context,
            heuristic.home_score,
            outcome.cost.candidates_evaluated,
            outcome.cost.eval_seconds,
        );
        println!("     {}", heuristic.source);
        searches.push(Search { heuristic, outcome, study });
    }
    searches
}

#[derive(Serialize)]
struct Fig2Output {
    dataset: String,
    requests_per_trace: usize,
    heuristics: Vec<Heuristic>,
    policies: Vec<String>,
    means: Vec<f64>,
    table2_beats_all: Vec<(String, f64)>,
    b_oracle_mean: f64,
    ps_oracle_mean: f64,
    /// One entry per trace, in sweep order.
    headroom: Vec<Headroom>,
    /// `captured[p]` = policy `p`'s median of `improvement / cap` over the
    /// traces whose cap is above zero: the share of the reachable
    /// improvement it took on a typical trace (a mean would be ruled by
    /// the traces whose cap is nearly zero).
    captured: Vec<f64>,
}

/// How far below FIFO any policy can go on one trace. Whatever it
/// evicts, a cache misses each distinct object that fits at least once,
/// and every request to an object larger than the cache: the compulsory
/// floor. So `cap = (fifo − floor) / fifo` bounds every policy's
/// improvement there, the searched ones included, without simulation.
#[derive(Clone, Serialize)]
struct Headroom {
    trace: String,
    /// FIFO's miss ratio: the reference every improvement is taken over.
    fifo: f64,
    /// The compulsory floor's miss ratio.
    floor: f64,
    cap: f64,
    /// Share of the trace's distinct objects that are requested once.
    one_hit_wonders: f64,
}

impl Headroom {
    fn of(trace: &Trace, study: &CacheStudy) -> Headroom {
        let mut requests: IdMap<u64, u32> = IdMap::default();
        let mut fits: IdSet<u64> = IdSet::default();
        let mut too_large = 0u64;
        for r in &trace.requests {
            *requests.entry(r.obj).or_default() += 1;
            if r.size as u64 > study.capacity() {
                too_large += 1;
            } else {
                fits.insert(r.obj);
            }
        }
        let n = trace.requests.len().max(1) as f64;
        let floor = (fits.len() as u64 + too_large) as f64 / n;
        let fifo = study.fifo_miss_ratio();
        let once = requests.values().filter(|&&c| c == 1).count();
        Headroom {
            trace: trace.name.clone(),
            fifo,
            floor,
            // the denominator `CacheStudy::improvement` divides by
            cap: (fifo - floor) / fifo.max(1e-9),
            one_hit_wonders: once as f64 / requests.len().max(1) as f64,
        }
    }
}

/// FIG2 + TAB2: miss-ratio improvement over FIFO of the fourteen
/// baselines and the dataset's four heuristics on every trace, the
/// B-/PS-Oracles, and the fraction of traces where each heuristic beats
/// every baseline. Returns an improvement above its trace's cap as a
/// violation.
fn fig2(ds: &DatasetSpec, searches: &[Search], paper_pct: &[f64], opts: &ExpOpts) -> Vec<String> {
    let heuristics: Vec<Heuristic> = searches.iter().map(|s| s.heuristic.clone()).collect();
    let exprs: Vec<_> = heuristics
        .iter()
        .map(|h| policysmith_dsl::parse(&h.source).expect("stored source parses"))
        .collect();
    let baseline_names = policies::paper_baseline_names();
    let names = baseline_names
        .iter()
        .map(|s| s.to_string())
        .chain(heuristics.iter().map(|h| h.label.clone()));

    println!("-- sweeping all {} traces --", ds.count);
    let headroom = Mutex::new(vec![None; ds.count]);
    let m = ImprovementMatrix::sweep(ds.name, names.collect(), ds.count, opts.threads, |t| {
        let trace = ds.trace(t, opts.requests);
        let study = CacheStudy::new(&trace);
        headroom.lock().expect("no worker panics holding the lock")[t] =
            Some(Headroom::of(&trace, &study));
        let baselines = baseline_names
            .iter()
            .map(|name| study.improvement(policies::by_name(name).expect("known baseline")));
        let synthesized = heuristics
            .iter()
            .zip(&exprs)
            .map(|(h, e)| study.improvement(PriorityPolicy::from_expr(&h.label, e)));
        (trace.name, baselines.chain(synthesized).collect())
    });

    let n_base = baseline_names.len();
    let base_ixs: Vec<usize> = (0..n_base).collect();
    let all_ixs: Vec<usize> = (0..m.policies.len()).collect();

    // Figure 2 rendering: per-policy distribution, sorted by mean.
    let mut order: Vec<usize> = all_ixs.clone();
    order.sort_by(|&a, &b| m.mean(a).partial_cmp(&m.mean(b)).unwrap());
    println!("\npolicy        min      q1      mean    q3      max   (improvement over FIFO)");
    for &p in &order {
        let (min, q1, mean, q3, max) = summarize(&m.rows[p]);
        println!(
            "{:10} {:+.4} {:+.4}  {:+.4} {:+.4} {:+.4}",
            m.policies[p], min, q1, mean, q3, max
        );
    }
    let (_, _, b_mean, _, _) = summarize(&m.oracle(&base_ixs));
    let (_, _, ps_mean, _, _) = summarize(&m.oracle(&all_ixs));
    println!("{:10}                 {:+.4}        (best baseline per trace)", "B-Oracle", b_mean);
    println!("{:10}                 {:+.4}        (baselines + PolicySmith)", "PS-Oracle", ps_mean);
    println!(
        "PS-Oracle gain over B-Oracle: {:+.4} (paper: ≈ +0.02 over FIFO-relative improvement)",
        ps_mean - b_mean
    );

    println!("\n=== Table 2: % of {} traces where heuristic beats ALL 14 baselines ===", ds.name);
    let mut table2 = Vec::new();
    for (i, h) in heuristics.iter().enumerate() {
        let frac = m.beats_all_fraction(n_base + i, &base_ixs);
        println!("  {}: measured {:.0}%   paper {:.0}%", h.label, frac * 100.0, paper_pct[i]);
        table2.push((h.label.clone(), frac));
    }

    let headroom: Vec<Headroom> = headroom
        .into_inner()
        .expect("no worker panics holding the lock")
        .into_iter()
        .map(|h| h.expect("every trace swept"))
        .collect();
    let mut violations = Vec::new();
    for (p, row) in m.rows.iter().enumerate() {
        for (h, &improvement) in headroom.iter().zip(row) {
            if improvement > h.cap + 1e-12 {
                violations.push(format!(
                    "{} on {}: improvement {improvement} above the compulsory cap {}",
                    m.policies[p], h.trace, h.cap
                ));
            }
        }
    }
    let reachable: Vec<usize> = (0..headroom.len()).filter(|&t| headroom[t].cap > 0.0).collect();
    let captured: Vec<f64> = m
        .rows
        .iter()
        .map(|row| {
            let mut shares: Vec<f64> =
                reachable.iter().map(|&t| row[t] / headroom[t].cap).collect();
            shares.sort_by(f64::total_cmp);
            shares.get(shares.len() / 2).copied().unwrap_or(0.0)
        })
        .collect();
    let caps: Vec<f64> = headroom.iter().map(|h| h.cap).collect();
    let (_, _, cap_mean, _, _) = summarize(&caps);
    println!(
        "\ncompulsory cap on improvement: mean {cap_mean:+.4}, {} of {} traces below +0.05",
        caps.iter().filter(|&&c| c < 0.05).count(),
        caps.len()
    );
    for (i, h) in heuristics.iter().enumerate() {
        println!("  {}: captured {:.3} of the cap (median trace)", h.label, captured[n_base + i]);
    }

    write_json(
        &format!("fig2_{}", ds.name),
        &Fig2Output {
            dataset: ds.name.to_string(),
            requests_per_trace: opts.requests,
            heuristics,
            means: all_ixs.iter().map(|&p| m.mean(p)).collect(),
            policies: m.policies,
            table2_beats_all: table2,
            b_oracle_mean: b_mean,
            ps_oracle_mean: ps_mean,
            headroom,
            captured,
        },
    );
    println!();
    violations
}

/// LST1: heuristic A — the w89 search — beside the paper's literal
/// Listing 1 (embedded as `PS-A(paper)`), both scored on w89.
fn listing1(a: &Search) {
    let (h, study) = (&a.heuristic, &a.study);
    println!("=== Listing 1 reproduction: context {} ===", h.context);
    println!("\n-- our evolved Heuristic A (best of {} candidates) --", a.outcome.all.len());
    println!("priority() = {}", h.source);
    println!("improvement over FIFO on {}: {:+.4}", h.context, h.home_score);

    println!("\n-- the paper's literal Listing 1 (typed translation) --");
    println!("priority() = {LISTING1_SOURCE}");
    let paper_score = study.improvement(paper_heuristic_a());
    println!("improvement over FIFO on {}: {:+.4}", h.context, paper_score);

    println!("\n-- seeds for reference --");
    for (name, src) in [("LRU seed", "obj.last_access"), ("LFU seed", "obj.count")] {
        let s = study.evaluate(&study.check(src).expect("seed compiles"));
        println!("{name}: {s:+.4}");
    }

    write_json(
        "listing1",
        &serde_json::json!({
            "context": h.context,
            "evolved_source": h.source,
            "evolved_improvement": h.home_score,
            "paper_listing1_improvement": paper_score,
            "candidates": a.outcome.all.len(),
        }),
    );
    println!();
}

/// COST: the §4.2.6 accounting — CPU time, input/output tokens and dollar
/// cost of the eight searches. Each search's `CostLedger` must equal its
/// `search_done` trace event, so this section doubles as an end-to-end
/// check that the observability layer agrees with the search.
///
/// Paper reference points: heuristic A's search took 5.5 CPU-hours of
/// candidate evaluation; the eight runs together used ~800k input / ~300k
/// output tokens ≈ USD $7 on GPT-4o-mini. Our absolute CPU time is not
/// comparable (different simulator, different hardware, shorter traces);
/// the *token* accounting uses the same prompt/completion structure and
/// the same price sheet.
fn cost(searches: &[Search], events: &[policysmith_obs::TraceEvent]) -> Vec<String> {
    let traced: Vec<&TraceKind> = events
        .iter()
        .map(|e| &e.kind)
        .filter(|k| matches!(k, TraceKind::SearchDone { .. }))
        .collect();
    let mut violations = Vec::new();
    if traced.len() != searches.len() {
        violations.push(format!(
            "cost: {} search_done trace events for {} searches",
            traced.len(),
            searches.len()
        ));
    }

    println!("=== §4.2.6 cost of the {} searches ===", searches.len());
    let (mut total_in, mut total_out, mut total_cpu, mut total_cost) = (0u64, 0u64, 0.0, 0.0);
    let mut rows = Vec::new();
    for (s, traced) in searches.iter().zip(traced) {
        let (h, o, c) = (&s.heuristic, &s.outcome, &s.outcome.cost);
        let (tokens_in, tokens_out) = (c.tokens.input_tokens, c.tokens.output_tokens);
        let ledger = TraceKind::SearchDone {
            rounds: o.rounds.len(),
            candidates_evaluated: c.candidates_evaluated as usize,
            memo_hits: c.memo_hits as usize,
            tokens_in,
            tokens_out,
            gen_seconds: c.gen_seconds,
            eval_seconds: c.eval_seconds,
            eval_cpu_seconds: c.eval_cpu_seconds,
            best_score: o.best.score,
        };
        if *traced != ledger {
            violations.push(format!(
                "cost {}: search_done reports {traced:?}, the ledger {ledger:?}",
                h.label
            ));
        }
        println!(
            "search {} ({}): {} rounds, {} candidates (+{} memo), {:.1} cpu-s, \
             {}k in / {}k out tokens, ${:.4}",
            h.label,
            h.context,
            o.rounds.len(),
            c.candidates_evaluated,
            c.memo_hits,
            c.cpu_seconds(),
            tokens_in / 1_000,
            tokens_out / 1_000,
            c.cost_usd()
        );
        total_in += tokens_in;
        total_out += tokens_out;
        total_cpu += c.cpu_seconds();
        total_cost += c.cost_usd();
        rows.push(serde_json::json!({
            "label": h.label,
            "context": h.context,
            "rounds": o.rounds.len(),
            "candidates": c.candidates_evaluated,
            "memo_hits": c.memo_hits,
            "cpu_seconds": c.cpu_seconds(),
            "input_tokens": tokens_in,
            "output_tokens": tokens_out,
            "cost_usd": c.cost_usd(),
        }));
    }

    println!("\n-- totals (paper: 800k in / 300k out, ≈$7; 5.5 CPU-h for A alone) --");
    println!(
        "tokens: {}k input / {}k output   cost ${total_cost:.4}   cpu {total_cpu:.1} s",
        total_in / 1_000,
        total_out / 1_000,
    );
    write_json(
        "cost",
        &serde_json::json!({
            "searches": rows,
            "total_input_tokens": total_in,
            "total_output_tokens": total_out,
            "total_cost_usd": total_cost,
            "total_cpu_seconds": total_cpu,
        }),
    );
    println!();
    violations
}

/// ABL: ablations of the search-design choices §6 of the paper leaves
/// open, on the w89 context: exemplar feedback on/off (is the evolutionary
/// loop earning its keep?), stderr repair on/off (how much does the
/// +19%-style recovery matter?), and a round-count sweep (search-budget
/// scaling).
fn ablation(study: &CacheStudy, opts: &ExpOpts) {
    let base = if opts.fast {
        SearchConfig { rounds: 6, candidates_per_round: 10, ..SearchConfig::paper_cache() }
    } else {
        SearchConfig { rounds: 12, candidates_per_round: 20, ..SearchConfig::paper_cache() }
    };

    let mut results = Vec::new();
    let mut run = |name: &str, cfg: SearchConfig| {
        let mut llm = MockLlm::new(GenConfig::cache_defaults(opts.seed));
        let o = run_search(study, &mut llm, &cfg);
        let repaired: usize = o.rounds.iter().map(|r| r.passed_after_repair).sum();
        println!(
            "{name:28} best {:+.4}  ({} rounds × {} cand, {} repaired)",
            o.best.score, cfg.rounds, cfg.candidates_per_round, repaired
        );
        results.push(serde_json::json!({
            "variant": name,
            "best": o.best.score,
            "rounds": cfg.rounds,
            "candidates_per_round": cfg.candidates_per_round,
            "repaired": repaired,
        }));
        o.best.score
    };

    println!("=== ablations on cloudphysics/w89 ===");
    let full = run("full (exemplars + repair)", base);
    let no_exemplars = run("no exemplar feedback", SearchConfig { exemplars: 0, ..base });
    let no_repair = run("no stderr repair", SearchConfig { repair: false, ..base });
    for rounds in [2, 4, 8] {
        run(&format!("budget sweep: {rounds} rounds"), SearchConfig { rounds, ..base });
    }

    println!("\nexemplar feedback contribution: {:+.4}", full - no_exemplars);
    println!("repair contribution:            {:+.4}", full - no_repair);
    write_json("ablation", &results);
}

/// CC-COMPILE: the §5.0.3 verifier pass rates.
///
/// "We generated 100 candidate congestion control heuristics and attempted
/// to compile them into eBPF programs. Only 63% of the candidates passed
/// the eBPF verifier on the first try, and an additional 19% successfully
/// compiled after the Generator was provided with the stderr. … This
/// compilation rate for kernel code is substantially lower than what we
/// observed for caching: where 92% of candidates compiled in the first
/// pass itself."
///
/// 100 kernel and 100 cache candidates; a pure function of the seed. The
/// guard: the kernel first-pass rate is within 10 points of the paper's
/// 63 %, stderr repair recovers at least 10 more points, the cache
/// template's first-pass rate is at least 20 points above the kernel's
/// ("substantially lower than … caching"), and both of the paper's named
/// failure causes occur — `check` (floating point) and `verify`
/// (unguarded division). One documented deviation: the mock's repair
/// rules recover 27 points where GPT-4o-mini recovered 19, so the total
/// lands at 89 % where the paper's is 82 %.
fn cc_compile(opts: &ExpOpts) -> Vec<String> {
    let n = 100;

    // ---- kernel side ----
    let mut llm = MockLlm::new(GenConfig::kernel_defaults(opts.seed));
    let prompt = Prompt::new(Mode::Kernel);
    let batch = llm.generate(&prompt, n);
    let mut first_pass = 0;
    let mut after_repair = 0;
    let mut failures_by_stage: BTreeMap<&'static str, usize> = BTreeMap::new();
    for src in &batch {
        match check_candidate(src) {
            Ok(_) => first_pass += 1,
            Err(e) => {
                *failures_by_stage.entry(e.stage()).or_default() += 1;
                if let Some(fixed) = llm.repair(&prompt, src, &repair_stderr(&e)) {
                    if check_candidate(&fixed).is_ok() {
                        after_repair += 1;
                    }
                }
            }
        }
    }
    println!("=== §5.0.3 kernel pipeline, {n} candidates ===");
    println!("first-try verifier pass : {first_pass}%   (paper: 63%)");
    println!("recovered via stderr    : +{after_repair}%   (paper: +19%)");
    println!("total compiled          : {}%   (paper: 82%)", first_pass + after_repair);
    println!("failure stages          : {failures_by_stage:?}");
    println!(
        "  (paper: \"most common causes were floating-point arithmetic and \
              missing checks for division by zero\" — here `check` = float/type \
              errors, `verify` = division-by-zero interval rejections)"
    );

    // ---- cache side for the 92% contrast ----
    let mut cache_llm = MockLlm::new(GenConfig::cache_defaults(opts.seed));
    let cache_prompt = Prompt::new(Mode::Cache);
    let cache_batch = cache_llm.generate(&cache_prompt, n);
    let cache_first = cache_batch
        .iter()
        .filter(|s| {
            policysmith_dsl::parse(s)
                .map(|e| policysmith_dsl::check(&e, Mode::Cache).is_ok())
                .unwrap_or(false)
        })
        .count();
    println!("\ncache-template first-pass compile rate: {cache_first}%   (paper: 92%)\n");

    let mut violations: Vec<String> = Vec::new();
    if !(53..=73).contains(&first_pass) {
        violations.push(format!("kernel first-pass {first_pass} %; need 63 ± 10"));
    }
    if after_repair < 10 {
        violations.push(format!("stderr repair recovered {after_repair} points; need ≥ 10"));
    }
    if cache_first < first_pass + 20 {
        violations.push(format!(
            "cache first-pass {cache_first} % vs kernel {first_pass} %; need ≥ 20 points above"
        ));
    }
    for stage in ["check", "verify"] {
        if !failures_by_stage.contains_key(stage) {
            violations.push(format!("no candidate failed at `{stage}`: {failures_by_stage:?}"));
        }
    }

    write_json(
        "cc_compile",
        &serde_json::json!({
            "n": n,
            "kernel_first_pass_pct": first_pass,
            "kernel_after_repair_pct": after_repair,
            "kernel_total_pct": first_pass + after_repair,
            "kernel_failure_stages": failures_by_stage,
            "cache_first_pass_pct": cache_first,
            "paper": { "kernel_first": 63, "kernel_repair": 19, "cache_first": 92 },
            "deviation": format!(
                "MockLlm's repair rules recover {after_repair} points where GPT-4o-mini \
                 recovered 19, so the total is {} % where the paper's is 82 %",
                first_pass + after_repair
            ),
            "violations": violations,
        }),
    );
    violations
}

/// CC-RANGE: the §5.0.3 behaviour range.
///
/// "We evaluated the heuristics that compiled successfully on a 12 Mbps,
/// 20 ms delay emulated link. The resulting behaviors varied widely:
/// bandwidth utilizations ranged from 23% to 98%, and average queuing
/// delays spanned from 2 ms to 40 ms."
///
/// The guard: at least 50 candidates verify and their behaviours spread
/// as widely as the paper's — utilization from ≤ 30 % to ≥ 95 %, and a
/// largest mean queuing delay of 30–41 ms (the 1-BDP buffer drains in
/// 40 ms, plus one serialization). Two documented deviations at the low
/// ends: MockLlm's slowest candidates are rate-based ones stuck on their
/// own 4-packet floor, which is 10 % of this link where the paper's
/// slowest reached 23 %, and such a window queues for one serialization
/// time, 1.0 ms, where the paper's emptiest queue held 2 ms.
fn cc_range(opts: &ExpOpts) -> Vec<String> {
    let duration_us: u64 = if opts.fast { 5_000_000 } else { 30_000_000 };
    let n = 100;

    let mut llm = MockLlm::new(GenConfig::kernel_defaults(opts.seed));
    let prompt = Prompt::new(Mode::Kernel);
    let verified: Vec<_> =
        llm.generate(&prompt, n).iter().filter_map(|src| check_candidate(src).ok()).collect();
    println!(
        "=== §5.0.3 behaviour range: {} verified candidates, {}s runs ===",
        verified.len(),
        duration_us / 1_000_000
    );

    let mut rows = Vec::new();
    let mut utils = Vec::new();
    let mut qdelays = Vec::new();
    for c in &verified {
        let m = evaluate(Box::new(KbpfCc::new(c.clone())), duration_us);
        utils.push(m.utilization);
        qdelays.push(m.mean_qdelay_us / 1_000.0);
        rows.push(serde_json::json!({
            "source": c.source,
            "utilization": m.utilization,
            "mean_qdelay_ms": m.mean_qdelay_us / 1_000.0,
            "loss_events": m.loss_events,
        }));
    }
    let fmin = |v: &[f64]| v.iter().cloned().fold(f64::MAX, f64::min);
    let fmax = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);
    let (util_min, util_max) = (fmin(&utils), fmax(&utils));
    let (qdelay_ms_min, qdelay_ms_max) = (fmin(&qdelays), fmax(&qdelays));
    println!(
        "bandwidth utilization : {:.0}% .. {:.0}%   (paper: 23% .. 98%)",
        util_min * 100.0,
        util_max * 100.0
    );
    println!(
        "avg queuing delay     : {qdelay_ms_min:.1} ms .. {qdelay_ms_max:.1} ms   (paper: 2 ms .. 40 ms)"
    );

    println!("\n-- classical baselines on the same link --");
    for cc in baselines::all_baselines() {
        let name = cc.name().to_string();
        let m = evaluate(cc, duration_us);
        println!(
            "{name:10} util {:5.1}%  qdelay {:5.1} ms  losses {}",
            m.utilization * 100.0,
            m.mean_qdelay_us / 1_000.0,
            m.loss_events
        );
    }
    println!();

    let mut violations: Vec<String> = Vec::new();
    if verified.len() < 50 {
        violations.push(format!("only {} of {n} candidates verified (need 50)", verified.len()));
    }
    if util_max < 0.95 || util_min > 0.30 {
        violations.push(format!(
            "utilization spans {util_min:.2} .. {util_max:.2}; need ≤ 0.30 .. ≥ 0.95"
        ));
    }
    if !(30.0..=41.0).contains(&qdelay_ms_max) {
        violations.push(format!("largest mean queuing delay {qdelay_ms_max:.1} ms; need 30 .. 41"));
    }

    write_json(
        "cc_range",
        &serde_json::json!({
            "verified": verified.len(),
            "duration_us": duration_us,
            "utilization_min": util_min,
            "utilization_max": util_max,
            "qdelay_ms_min": qdelay_ms_min,
            "qdelay_ms_max": qdelay_ms_max,
            "candidates": rows,
            "paper": { "util": [0.23, 0.98], "qdelay_ms": [2.0, 40.0] },
            "violations": violations,
        }),
    );
    violations
}
