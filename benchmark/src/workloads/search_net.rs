//! `search-net` — op = candidate generated. The paper's §5 flow: a
//! Kernel-mode cc search (the strict verifier is the Checker, so
//! rejections and repairs are real traffic), an `AqmStudy` search on the
//! `bursty` preset, then the cc winner goes down the deployment leg —
//! `ebpf::emit_policy` → `model_check` → `EbpfCc` replayed against
//! `KbpfCc`, decision for decision. The only workload on the netsim hosts
//! and the eBPF backend.
//!
//! The cc study is the repo's own `CcStudy`, and what it costs today is
//! one thing above all: netsim's sender does O(packets in flight) work per
//! ack and lets a controller open the window to 2^20 packets, so the few
//! candidates per search that explode the window (`cwnd * 2` is one) each
//! cost 10^4 ordinary evaluations — see [`CC_SIM_US`].

use super::search_cache::verify;
use super::{
    eval_latency, eval_percentiles, finish_trace, gen_times, lap_search, reconcile,
    run_search_traced, search_counts, search_shares, self_ns, traced_cycles, untraced_cycles,
    CheckerSnapshot, TracedSearch,
};
use crate::adaptors::{
    DiffCc, DiffStats, GenStats, HookStats, StudyStats, TimedAqm, TimedCc, TimedStudy,
};
use crate::harness::{measure_setup, run_cycles, Laps, Outcome, RunCfg};
use crate::probes;
use crate::spans::Tracer;
use crate::stats::{self, Rng};
use policysmith::aqmsim::{self, scenario, ExprAqm};
use policysmith::cc::{self, check_candidate, EbpfCc, KbpfCc, VerifiedCandidate};
use policysmith::core::search::{run_search, Scored, SearchConfig, SearchOutcome, Study};
use policysmith::core::studies::aqm::AqmStudy;
use policysmith::core::studies::cc::CcStudy;
use policysmith::dsl::Mode;
use policysmith::gen::{GenConfig, MockLlm};
use policysmith::kbpf::CompiledPolicy;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Emulated time per cc evaluation: two and a half round trips of the
/// paper link. ISSUE 11 asked for 2 s, at which one window-exploding
/// candidate takes 16–21 s of wall time and a single search outlasts the
/// run; at this length it takes 0.14 s, against 0.02 ms for an ordinary
/// one. Those 0.14 s stream through 70 MiB of in-flight packets, which makes
/// them the units a noisy neighbour slows most (they were timed 1.2–1.5×
/// apart within one quiet run), so they are kept short and, by the size of
/// the aqm search, to a third of a cycle.
const CC_SIM_US: u64 = 100_000;
/// The cc generator streams are the same for every `--seed`: a search of
/// 24 candidates meets between none and three exploders, which is all of
/// what it costs, and no run can average over enough searches to make that
/// a property of the code instead of the draw. The seed draws the aqm
/// scenarios and the aqm generator streams.
const CC_STREAMS: u64 = 0x5ea2_c4cc;
/// An evaluation this long opened the window all the way: ordinary cc
/// evaluations take 0.02 ms and aqm ones 3 ms.
const EXPLODER_NS: u64 = 100_000_000;
/// Units cycle through this many (cc stream, aqm draw + stream) kinds; a
/// kind's units repeat the same work, so box noise can be told from the
/// draw.
const KINDS: usize = 6;
/// What one cycle of the untraced region took on the 2-vCPU box (calm) at the
/// commit of `baseline/BENCH_0.json`: it turns `--seconds` into a number of
/// cycles ([`crate::harness::cycles_for`]), the same at every commit.
pub const CYCLE_S: f64 = 1.35;

fn cc_search() -> SearchConfig {
    SearchConfig { rounds: 3, candidates_per_round: 8, threads: 1, ..SearchConfig::paper_cache() }
}

/// Twice as many aqm as cc candidates per unit: the aqm evaluations (3 ms
/// each, all alike) are then most of a unit that meets no exploder, the
/// op-latency median sits inside their mode, and the exploders are a third
/// of a cycle, not all of it.
fn aqm_search() -> SearchConfig {
    SearchConfig { rounds: 6, candidates_per_round: 8, threads: 1, ..SearchConfig::paper_cache() }
}

fn cc_llm(stream: u64) -> MockLlm {
    MockLlm::new(GenConfig::kernel_defaults(stats::mix(CC_STREAMS, stream)))
}

pub struct Inputs {
    pub cc: TimedStudy<CcStudy>,
    /// One seeded draw of the `bursty` scenario per kind.
    pub aqm: Vec<TimedStudy<AqmStudy>>,
}

impl Inputs {
    fn study_stats(&self) -> Vec<&StudyStats> {
        std::iter::once(&*self.cc.stats).chain(self.aqm.iter().map(|a| &*a.stats)).collect()
    }

    fn failures(&self) -> u64 {
        self.study_stats().iter().map(|s| s.failures()).sum()
    }
}

pub fn inputs(seed: u64) -> Inputs {
    Inputs {
        cc: TimedStudy::named(CcStudy::with_duration(CC_SIM_US), "cc.check", "cc.evaluate"),
        aqm: (0..KINDS as u64)
            .map(|i| {
                let draw = scenario::bursty().with_seed(stats::mix(seed, i));
                TimedStudy::named(AqmStudy::new(&draw), "aqmsim.check", "aqmsim.evaluate")
            })
            .collect(),
    }
}

fn setup(seed: u64) -> Inputs {
    let mut inp = inputs(seed);
    let warm = SearchConfig { rounds: 1, candidates_per_round: 8, ..cc_search() };
    run_search(&inp.cc, &mut cc_llm(500), &warm);
    inp.cc.stats = Arc::default();
    for (i, aqm) in inp.aqm.iter_mut().enumerate() {
        let mut llm = MockLlm::new(GenConfig::aqm_defaults(stats::mix(seed, 501 + i as u64)));
        run_search(aqm, &mut llm, &warm);
        aqm.stats = Arc::default();
    }
    inp
}

/// What offloading one cc winner found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Offload {
    pub refused: bool,
    pub decisions: u64,
    pub divergences: u64,
}

/// The deployment leg: emit + model-check (`EbpfCc::new`), then both hosts
/// on one simulated sender.
fn offload(
    candidate: &VerifiedCandidate,
    study: &CcStudy,
    tracer: Option<&Tracer>,
    corrupt: bool,
) -> Offload {
    let _span = tracer.map(|t| t.begin("ebpf.offload"));
    let Ok(ebpf) = EbpfCc::new(candidate.clone()) else {
        return Offload { refused: true, ..Offload::default() };
    };
    let stats = Rc::new(DiffStats::default());
    let diff = DiffCc::new(
        Box::new(KbpfCc::new(candidate.clone())),
        Box::new(ebpf),
        stats.clone(),
        corrupt,
    );
    let _replay = tracer.map(|t| t.begin("cc.offload_replay"));
    cc::evaluate_with(*study.scenario(), Box::new(diff));
    Offload {
        refused: false,
        decisions: stats.decisions.get(),
        divergences: stats.divergences.get(),
    }
}

#[derive(Default)]
pub struct Done {
    pub cc: Vec<SearchOutcome>,
    /// With the aqm draw (the kind) each search ran on.
    pub aqm: Vec<(usize, SearchOutcome)>,
    pub offloads: Vec<Offload>,
    /// Per kind, the fastest repeat of its cc search's slowest evaluation,
    /// wall ns.
    pub cc_slowest_eval: BTreeMap<u64, u64>,
}

/// One pass: the cc search, the aqm search and the offload of kind
/// `unit % KINDS`, on that kind's generator streams, lapped into its
/// evaluations and the rest.
fn unit(
    inp: &Inputs,
    seed: u64,
    unit: u64,
    traced: TracedSearch,
    corrupt: bool,
    laps: &mut Laps,
    done: &mut Done,
) {
    let kind = unit % KINDS as u64;
    let draw = kind as usize;
    let cc_out =
        run_search_traced(&inp.cc, cc_llm(kind), &cc_search(), "core.run_search.cc", unit, traced);
    let aqm_llm = MockLlm::new(GenConfig::aqm_defaults(stats::mix(seed, 1_000 + kind)));
    let aqm_out = run_search_traced(
        &inp.aqm[draw],
        aqm_llm,
        &aqm_search(),
        "core.run_search.aqm",
        unit,
        traced,
    );
    let winner =
        inp.cc.inner.check(&cc_out.best.source).expect("the search's winner passed this Checker");
    let tracer = traced.map(|(t, _)| &**t);
    done.offloads.push(offload(&winner, &inp.cc.inner, tracer, corrupt && unit == 0));
    let generated = |o: &SearchOutcome| o.rounds.iter().map(|r| r.generated as u64).sum::<u64>();
    let ops = generated(&cc_out) + generated(&aqm_out);
    let mut evals = inp.cc.stats.take_eval_times();
    let slowest = evals.iter().map(|e| e.0).max().unwrap_or(0);
    done.cc_slowest_eval.entry(kind).and_modify(|ns| *ns = slowest.min(*ns)).or_insert(slowest);
    evals.extend(inp.aqm[draw].stats.take_eval_times());
    lap_search(laps, kind as u32, ops, &evals);
    done.cc.push(cc_out);
    done.aqm.push((draw, aqm_out));
}

/// `netsim.*`, `cc.*`, `aqmsim.*`: the winners replayed with their hooks
/// wrapped, so the hosts' share of a simulated second is visible.
fn host_probes(
    out: &mut Outcome,
    inp: &Inputs,
    cc_best: &Scored,
    aqm_best: &CompiledPolicy,
    tracer: &Arc<Tracer>,
    clock_ns: f64,
) {
    let t0 = Instant::now();
    let candidate = check_candidate(&cc_best.source).expect("winners re-check");
    out.set("cc.check_candidate_us", t0.elapsed().as_nanos() as f64 / 1e3);
    let study = &inp.cc.inner;

    let hooks = Rc::new(HookStats::default());
    let host = TimedCc::new(
        Box::new(KbpfCc::new(candidate.clone())),
        hooks.clone(),
        Some(tracer.clone()),
        "cc.on_ack",
    );
    let t0 = Instant::now();
    cc::evaluate_with(*study.scenario(), Box::new(host));
    let wall_ns = t0.elapsed().as_nanos() as f64;
    out.set("cc.on_ack_ns", hooks.ns_per_call(clock_ns));
    out.set("netsim.cc_hook_share", hooks.total_ns(clock_ns) / wall_ns);
    out.set("netsim.host_ms_per_sim_s", wall_ns / 1e6 / (study.duration_us() as f64 / 1e6));

    if let Ok(ebpf) = EbpfCc::new(candidate) {
        let hooks = Rc::new(HookStats::default());
        let host =
            TimedCc::new(Box::new(ebpf), hooks.clone(), Some(tracer.clone()), "cc.ebpf_on_ack");
        cc::evaluate_with(*study.scenario(), Box::new(host));
        out.set("cc.ebpf_on_ack_ns", hooks.ns_per_call(clock_ns));
    }

    let hooks = Rc::new(HookStats::default());
    let host = TimedAqm::new(
        Box::new(ExprAqm::new("probe", aqm_best.clone())),
        hooks.clone(),
        Some(tracer.clone()),
    );
    let t0 = Instant::now();
    aqmsim::run(inp.aqm[0].inner.scenario(), Box::new(host));
    let wall_ns = t0.elapsed().as_nanos() as f64;
    out.set("aqmsim.verdict_ns", hooks.ns_per_call(clock_ns));
    out.set("netsim.aqm_hook_share", hooks.total_ns(clock_ns) / wall_ns);
    out.set("aqmsim.eval_ms", wall_ns / 1e6);
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = measure_setup(!cfg.trace, || setup(cfg.seed));
    let mut done = Done::default();

    let untraced = {
        let inp = &setup.inputs;
        let region = run_cycles(untraced_cycles(cfg, CYCLE_S), KINDS as u64, |laps, u| {
            unit(inp, cfg.seed, u, None, cfg.corrupt, laps, &mut done)
        });
        out.attempted = region.ops();
        out.end_to_end(setup.seconds, &region, &eval_latency(&region));
        // how many window-exploding candidates the cycle met: most of what
        // it costs, and a property of the generator's draws, not of speed
        let exploders = region
            .fastest(|u| u.ops == 0, |u| u.wall_ns)
            .values()
            .filter(|(_, wall_ns)| *wall_ns >= EXPLODER_NS)
            .count();
        out.note("ops_per_s", format!("cycles={} evals_over_100ms={exploders}", region.cycles));
        // and what one costs: the slowest cc evaluation of the cycle
        let slowest = done.cc_slowest_eval.values().max().copied().unwrap_or(0);
        out.set("cc.eval_ms_max", slowest as f64 / 1e6);
        region
    };

    if cfg.trace {
        let tracer = Arc::new(Tracer::default());
        let cost = Tracer::calibrate();
        let gen_stats = Arc::new(GenStats::default());
        let inp = &mut setup.inputs;
        out.failed += inp.failures();
        (inp.cc.stats, inp.cc.tracer) = (Arc::default(), Some(tracer.clone()));
        for aqm in &mut inp.aqm {
            (aqm.stats, aqm.tracer) = (Arc::default(), Some(tracer.clone()));
        }
        let inp = &setup.inputs;
        let mut traced_done = Done::default();
        let mut first_unit = CheckerSnapshot::default();
        let traced = run_cycles(traced_cycles(cfg, CYCLE_S), KINDS as u64, |laps, u| {
            let wrap = Some((&tracer, &gen_stats));
            unit(inp, cfg.seed, u, wrap, false, laps, &mut traced_done);
            if u == 0 {
                first_unit = CheckerSnapshot::take(&[
                    (Mode::Kernel, &inp.cc.stats),
                    (Mode::Aqm, &inp.aqm[0].stats),
                ]);
            }
        });
        out.attempted += traced.ops();

        let clock_ns = stats::clock_cost_ns();
        let aqm_best =
            inp.aqm[0].inner.check(&traced_done.aqm[0].1.best.source).expect("winners re-check");
        host_probes(&mut out, inp, &traced_done.cc[0].best, &aqm_best, &tracer, clock_ns);

        let layers = finish_trace(cfg, &tracer, cost);
        let roots = ["core.run_search.cc", "core.run_search.aqm"];
        let (check, eval) = (["cc.check", "aqmsim.check"], ["cc.evaluate", "aqmsim.evaluate"]);
        let mut unit_spans =
            vec!["gen.generate", "gen.repair", "ebpf.offload", "cc.offload_replay"];
        unit_spans.extend(roots.iter().chain(&check).chain(&eval));
        reconcile(
            &mut out,
            self_ns(&layers, &unit_spans) / traced.ops() as f64,
            &untraced,
            &traced,
        );
        search_shares(&mut out, &layers, &roots, &check, &eval);
        gen_times(&mut out, &gen_stats);
        eval_percentiles(&mut out, &inp.study_stats());
        search_counts(&mut out, &[&traced_done.cc[0], &traced_done.aqm[0].1]);
        first_unit.report(&mut out, clock_ns);
        // every distinct policy the first cc search scored is a deployment
        // candidate: emit, model-check and interpret them all
        let mut seen = std::collections::BTreeSet::new();
        let library: Vec<CompiledPolicy> = traced_done.cc[0]
            .all
            .iter()
            .filter(|s| seen.insert(s.source.clone()))
            .filter_map(|s| check_candidate(&s.source).ok())
            .map(|c| c.policy)
            .collect();
        let mut rng = Rng::new(cfg.seed).fork(0xebf);
        let found = probes::ebpf_split(Some(&mut out), &library, &mut rng, clock_ns);
        out.failed += found.check_failures + found.divergences;
        if let Some(first) = library.first() {
            probes::kbpf_run(&mut out, first, &mut rng);
            probes::dsl_eval(&mut out, first.expr(), &mut rng);
        }
        done.cc.extend(traced_done.cc);
        done.aqm.extend(traced_done.aqm);
        done.offloads.extend(traced_done.offloads);
    }

    let inp = &setup.inputs;
    out.failed += inp.failures();
    let cc_winners: Vec<_> = done.cc.iter().map(|o| (0, o.best.clone())).collect();
    let aqm_winners: Vec<_> = done.aqm.iter().map(|(draw, o)| (*draw, o.best.clone())).collect();
    let aqm_studies: Vec<&AqmStudy> = inp.aqm.iter().map(|a| &a.inner).collect();
    let problem = verify(&[&inp.cc.inner], &cc_winners, false)
        .or_else(|| verify(&aqm_studies, &aqm_winners, false));
    if let Some(problem) = problem {
        out.problem(problem);
    }
    let diverged: u64 = done.offloads.iter().map(|o| o.divergences).sum();
    if diverged > 0 {
        out.problem(format!("EbpfCc diverged from KbpfCc on {diverged} decisions"));
    }
    out.set("quality_score", (done.cc[0].best.score + done.aqm[0].1.best.score) / 2.0);
    out
}
