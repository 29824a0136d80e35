//! The seven workloads. Each module exposes `run(cfg) -> Outcome` and
//! follows the protocol in [`crate::harness`]; what differs is the op, the
//! inputs, and which layers a traced run can see from outside.

use crate::adaptors::{GenStats, StudyStats, TimedGen};
use crate::harness::{cycles_for, Laps, Outcome, Region, RunCfg, UnitLatency, UnitTime};
use crate::spans::{self, LayerTime, SpanCost, Tracer};
use policysmith::core::search::{run_search, SearchConfig, SearchOutcome, Study};
use policysmith::gen::MockLlm;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

pub mod compile_storm;
pub mod decide_cache;
pub mod decide_lb;
pub mod search_cache;
pub mod search_net;
pub mod serve_drift;
pub mod serve_steady;

pub const NAMES: [&str; 7] = [
    "search-cache",
    "search-net",
    "compile-storm",
    "decide-cache",
    "decide-lb",
    "serve-steady",
    "serve-drift",
];

/// Run one workload by name.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    Ok(match cfg.workload.as_str() {
        "search-cache" => search_cache::run(cfg),
        "search-net" => search_net::run(cfg),
        "compile-storm" => compile_storm::run(cfg),
        "decide-cache" => decide_cache::run(cfg),
        "decide-lb" => decide_lb::run(cfg),
        "serve-steady" => serve_steady::run(cfg),
        "serve-drift" => serve_drift::run(cfg),
        other => return Err(format!("unknown workload `{other}` (one of: {})", NAMES.join(", "))),
    })
}

/// How many cycles each region of a run runs. Every run measures the
/// end-to-end metrics untraced; a traced run gives that half of `--seconds`
/// and spends the other half under the tracer, so that the overhead of
/// tracing is the ratio of two throughputs from one process. `cycle_s` is
/// the workload's `CYCLE_S`: what one cycle of its untraced regions took at
/// the baseline, so that the number of cycles follows `--seconds` and never
/// the speed of the code.
pub fn untraced_cycles(cfg: &RunCfg, cycle_s: f64) -> u64 {
    cycles_for(if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds }, cycle_s)
}

pub fn traced_cycles(cfg: &RunCfg, cycle_s: f64) -> u64 {
    cycles_for(cfg.seconds / 2.0, cycle_s)
}

/// The tracer and generator counters a traced search runs under.
pub type TracedSearch<'a> = Option<(&'a Arc<Tracer>, &'a Arc<GenStats>)>;

/// `run_search`; when traced, under a root span named `root` (which adopts
/// the spans of the search's other threads) with the generator wrapped.
pub fn run_search_traced<S: Study>(
    study: &S,
    mut llm: MockLlm,
    cfg: &SearchConfig,
    root: &'static str,
    unit: u64,
    traced: TracedSearch,
) -> SearchOutcome {
    match traced {
        None => run_search(study, &mut llm, cfg),
        Some((tracer, gen_stats)) => {
            let _root = tracer.begin_root(root, unit);
            let mut timed = TimedGen::new(llm, gen_stats.clone(), Some(tracer.clone()));
            run_search(study, &mut timed, cfg)
        }
    }
}

/// Unit kinds a search pass may use: the pass's own, then one per
/// Evaluator call.
const KINDS_PER_SEARCH: u32 = 128;

/// Lap a finished search pass of kind `pass_kind` into units: one per
/// Evaluator call (in call order, which a pass of one kind repeats exactly)
/// carrying no ops, and one for everything else — generation, checks, the
/// search's own bookkeeping — carrying the pass's `ops`. ~99 % of a search
/// is its evaluations, a millisecond or so each: the run can then put the
/// pass together from the fastest repeat of each.
pub fn lap_search(laps: &mut Laps, pass_kind: u32, ops: u64, evals: &[(u64, u64)]) {
    assert!(evals.len() < KINDS_PER_SEARCH as usize, "more evaluations than unit kinds");
    let (wall, cpu) = laps.running();
    let (eval_wall, eval_cpu) = evals.iter().fold((0, 0), |(w, c), e| (w + e.0, c + e.1));
    let base = pass_kind * KINDS_PER_SEARCH;
    laps.push(UnitTime {
        kind: base,
        ops,
        wall_ns: wall.saturating_sub(eval_wall),
        cpu_ns: cpu.saturating_sub(eval_cpu),
    });
    for (i, &(wall_ns, cpu_ns)) in evals.iter().enumerate() {
        laps.push(UnitTime { kind: base + 1 + i as u32, ops: 0, wall_ns, cpu_ns });
    }
}

/// The op latency of a search workload — one candidate's trip through the
/// Evaluator, where ~99 % of a candidate's time goes — over the fastest
/// repeat of every evaluation of the region.
pub fn eval_latency(region: &Region) -> UnitLatency {
    let mut hist = crate::stats::FineHist::new();
    for (_, wall_ns) in region.fastest(|u| u.ops == 0, |u| u.wall_ns).values() {
        hist.record(*wall_ns);
    }
    let mut latency = UnitLatency::new();
    latency.push_hist(0, &hist);
    latency
}

pub type Layers = BTreeMap<&'static str, LayerTime>;

/// Σ self time over the named layers, ns.
pub fn self_ns(layers: &Layers, names: &[&str]) -> f64 {
    names.iter().filter_map(|n| layers.get(n)).map(|l| l.self_ns).sum()
}

/// `core.search_*_share`: where a search's wall time went, from the spans
/// of its root, its generator calls, and its Checker/Evaluator calls.
pub fn search_shares(
    out: &mut Outcome,
    layers: &Layers,
    roots: &[&str],
    check: &[&str],
    eval: &[&str],
) {
    let gen = self_ns(layers, &["gen.generate", "gen.repair"]);
    let (check, eval, own) =
        (self_ns(layers, check), self_ns(layers, eval), self_ns(layers, roots));
    let total = gen + check + eval + own;
    out.set_ratio("core.search_gen_share", gen, total);
    out.set_ratio("core.search_check_share", check, total);
    out.set_ratio("core.search_eval_share", eval, total);
    out.set_ratio("core.search_self_share", own, total);
}

/// `gen.*` timings from a generator wrapper.
pub fn gen_times(out: &mut Outcome, stats: &GenStats) {
    let ns = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed) as f64;
    out.set_ratio(
        "gen.generate_us_per_candidate",
        ns(&stats.generate_ns) / 1e3,
        ns(&stats.candidates),
    );
    out.set_ratio("gen.repair_us", ns(&stats.repair_ns) / 1e3, ns(&stats.repair_calls));
}

/// Counts a finished search reports about itself. Taken over a fixed set
/// of searches (the first cycle), so they repeat exactly for a seed.
pub fn search_counts(out: &mut Outcome, outcomes: &[&SearchOutcome]) {
    let rounds = || outcomes.iter().flat_map(|o| &o.rounds);
    let rejected: usize = rounds().map(|r| r.generated - r.passed_first).sum();
    let repaired: usize = rounds().map(|r| r.passed_after_repair).sum();
    out.set_ratio("gen.repair_fix_share", repaired as f64, rejected as f64);
    let tokens: u64 = outcomes.iter().map(|o| o.cost.tokens.input_tokens).sum();
    out.set_ratio("gen.prompt_tokens_per_round", tokens as f64, rounds().count() as f64);
    let hits: u64 = outcomes.iter().map(|o| o.cost.memo_hits).sum();
    let evaluated: u64 = outcomes.iter().map(|o| o.cost.candidates_evaluated).sum();
    out.set_ratio("core.memo_hit_share", hits as f64, (hits + evaluated) as f64);
}

/// What the Checkers had been shown when the snapshot was taken. Taken
/// after the first traced unit, so that the counts derived from it repeat
/// exactly for a seed however many cycles `--seconds` asks for.
#[derive(Debug, Clone, Default)]
pub struct CheckerSnapshot {
    pub checks: u64,
    pub checks_ok: u64,
    pub sources: Vec<(policysmith::dsl::Mode, String)>,
}

impl CheckerSnapshot {
    pub fn take(studies: &[(policysmith::dsl::Mode, &StudyStats)]) -> CheckerSnapshot {
        let mut snap = CheckerSnapshot::default();
        for (mode, stats) in studies {
            snap.checks += stats.checks.load(Relaxed);
            snap.checks_ok += stats.checks_ok.load(Relaxed);
            snap.sources.extend(stats.seen_sources().into_iter().map(|s| (*mode, s)));
        }
        snap
    }

    /// `core.check_pass_share`, and the compile-once stages timed one by
    /// one over exactly these sources.
    pub fn report(&self, out: &mut Outcome, clock_ns: f64) {
        out.set_ratio("core.check_pass_share", self.checks_ok as f64, self.checks as f64);
        crate::probes::compile_split(out, &self.sources, clock_ns);
    }
}

/// `core.eval_ms_*`: the evaluation-latency percentiles.
pub fn eval_percentiles(out: &mut Outcome, stats: &[&StudyStats]) {
    let mut hist = crate::stats::FineHist::new();
    for s in stats {
        hist.merge(&s.eval_latency());
    }
    if hist.count() > 0 {
        out.set("core.eval_ms_p50", hist.quantile(0.50) / 1e6);
        out.set("core.eval_ms_p99", hist.quantile(0.99) / 1e6);
    }
}

/// The reconciliation row: Σ layer self times per op against the untraced
/// region's ns per op (both means over their whole region — spans are not
/// summarized per unit), and the tracing overhead from the two typical
/// throughputs.
pub fn reconcile(out: &mut Outcome, layer_sum_ns_per_op: f64, untraced: &Region, traced: &Region) {
    reconcile_ns(out, layer_sum_ns_per_op, untraced.mean_ns_per_op());
    out.set("trace.overhead_share", 1.0 - traced.ops_per_s() / untraced.ops_per_s());
}

pub fn reconcile_ns(out: &mut Outcome, layer_sum_ns_per_op: f64, untraced_ns_per_op: f64) {
    out.set("reconcile.layer_sum_ns", layer_sum_ns_per_op);
    out.set("reconcile.untraced_ns", untraced_ns_per_op);
    out.set("reconcile.residual_share", (1.0 - layer_sum_ns_per_op / untraced_ns_per_op).abs());
}

/// Aggregate the tracer's spans and, when the run has an output directory,
/// write `trace-<workload>.json` there. Cost probes recorded among the
/// spans take precedence over the tight-loop `cost`.
pub fn finish_trace(cfg: &RunCfg, tracer: &Tracer, cost: SpanCost) -> Layers {
    let recorded = tracer.snapshot();
    let cost = spans::cost_in_place(&recorded).unwrap_or(cost);
    if let Some(dir) = &cfg.out_dir {
        let doc = spans::to_json(&cfg.workload, cfg.seed, cost, &recorded, tracer.dropped());
        let path = dir.join(format!("trace-{}.json", cfg.workload));
        let written = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc));
        if let Err(e) = written {
            eprintln!("warn: could not write {}: {e}", path.display());
        }
    }
    spans::by_layer(&recorded, cost)
}
