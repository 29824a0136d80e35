//! `serve-drift` — op = served decision. The §3.1 loop end to end, in the
//! background of live traffic: one worker serves `lb_drift_phases()`
//! (healthy fleet, then slow-node onset) with the speed-blind JSQ
//! expression deployed; the monitor notices, `try_reuse` misses on a cold
//! library, a pipelined search runs on one evaluation thread, the default
//! `PolicyGuard` screens the winner, it is published, the worker adopts
//! it. The search and the worker share the box's two cores.

use super::decide_lb::compiled;
use super::serve_steady::{bare_replay, no_resynth, served_badly};
use super::{
    eval_percentiles, finish_trace, gen_times, reconcile_ns, search_shares, traced_cycles,
    untraced_cycles, CheckerSnapshot,
};
use crate::adaptors::{GenStats, SharedStudy, StudyStats, TimedGen, TimedStudy};
use crate::harness::{measure_setup, run_cycles, Laps, Outcome, RunCfg, UnitLatency};
use crate::probes;
use crate::spans::Tracer;
use crate::stats::{self, Rng};
use policysmith::core::library::{AdaptiveController, ContextMonitor, HeuristicLibrary};
use policysmith::core::search::SearchConfig;
use policysmith::core::studies::lb::LbStudy;
use policysmith::dsl::Mode;
use policysmith::gen::{GenConfig, MockLlm};
use policysmith::kbpf::CompiledPolicy;
use policysmith::lbsim::workload::WorkloadCfg;
use policysmith::lbsim::Scenario;
use policysmith::obs::LatencyHistogram;
use policysmith::serve::{loadgen, serve_lb, PolicyGuard, Resynth, ServeConfig, ServeReport};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Join-shortest-queue by queue length alone: fine on the healthy fleet,
/// stale once a node slows down.
pub const DEPLOYED: &str = "server.queue_len";
/// Onset-regime repetitions after the healthy phase: 170 k decisions, a
/// stream three times as long as the re-synthesis it has to outlast, so
/// that most decisions (and the median latency) belong to the answer.
const ONSET_REPS: usize = 8;
/// Arrivals of the drifted context the re-synthesis scores candidates on:
/// an eighth of the preset's, which shortens the search and with it the
/// stream a cycle needs — a cycle is the timed unit, and a short one finds
/// a quiet moment on a busy box far more often than a long one.
const STUDY_REQUESTS: usize = 2_500;
/// Drift cycles rotate through this many re-synthesis generator streams.
/// What a cycle costs follows the winner its search finds (a winner's cost
/// per pick varies 2×), a run's sum over the kinds far less. A kind's
/// cycles repeat the same inputs, though not the same race: a worker, the
/// polling controller and the pipelined search's threads share two vCPUs,
/// and repeats differ 2–3× by how the scheduler interleaved them, which is
/// why this workload's figures are the least steady of the seven.
const KINDS: usize = 32;
/// What one cycle of the untraced regions took on the 2-vCPU box (calm) at the
/// commit of `baseline/BENCH_0.json`: it turns `--seconds` into a number of
/// cycles ([`crate::harness::cycles_for`]), the same at every commit.
pub const CYCLE_S: f64 = 1.75;

fn search_cfg() -> SearchConfig {
    SearchConfig { rounds: 2, candidates_per_round: 8, threads: 1, ..SearchConfig::paper_cache() }
        .pipelined()
}

pub struct Inputs {
    pub policy: CompiledPolicy,
    pub shards: Vec<Vec<Scenario>>,
    pub onset: Scenario,
    pub study: Arc<LbStudy>,
    pub cfg: ServeConfig,
}

pub fn inputs(seed: u64, onset_reps: usize) -> Inputs {
    let drift = loadgen::lb_drift_phases();
    let (healthy, onset) = (&drift[0], &drift[1]);
    let mut spec = vec![healthy.clone().with_seed(stats::mix(seed, 0))];
    spec.extend((1..=onset_reps).map(|i| onset.clone().with_seed(stats::mix(seed, i as u64))));
    Inputs {
        policy: compiled(DEPLOYED).1,
        shards: loadgen::lb_shards(&spec, 1),
        onset: onset.clone(),
        study: Arc::new(LbStudy::new(&Scenario {
            workload: WorkloadCfg { n: STUDY_REQUESTS, ..onset.workload },
            ..onset.clone()
        })),
        cfg: ServeConfig { workers: 1, ..ServeConfig::default() },
    }
}

/// The warm-up is one whole cycle with nobody answering the drift: a
/// tenth of one would be mostly thread start-up.
fn setup(seed: u64) -> Inputs {
    let inp = inputs(seed, ONSET_REPS);
    serve_lb(&inp.shards, inp.policy.clone(), &inp.cfg, no_resynth());
    inp
}

/// Wrappers a traced unit puts around the re-synthesis generator and study.
pub struct Wrap<'a> {
    pub tracer: &'a Arc<Tracer>,
    pub gen: &'a Arc<GenStats>,
    pub study: &'a Arc<StudyStats>,
}

fn serve_unit(inp: &Inputs, seed: u64, unit: u64, wrap: Option<&Wrap>) -> ServeReport {
    let kind = unit % KINDS as u64;
    let llm = MockLlm::new(GenConfig::lb_defaults(stats::mix(seed, 1_000 + kind)));
    let context = inp.onset.name.clone();
    let (search, library) = (search_cfg(), HeuristicLibrary::new());
    let shared = SharedStudy(inp.study.clone());
    match wrap {
        None => {
            let resynth =
                Resynth { context, study: shared, generator: Box::new(llm), search, library };
            serve_lb(&inp.shards, inp.policy.clone(), &inp.cfg, Some(resynth))
        }
        Some(w) => {
            let _root = w.tracer.begin_root("serve.serve_lb", unit);
            let mut study = TimedStudy::new(shared);
            (study.stats, study.tracer) = (w.study.clone(), Some(w.tracer.clone()));
            let generator = Box::new(TimedGen::new(llm, w.gen.clone(), Some(w.tracer.clone())));
            let resynth = Resynth { context, study, generator, search, library };
            serve_lb(&inp.shards, inp.policy.clone(), &inp.cfg, Some(resynth))
        }
    }
}

/// What one drift cycle looked like from worker 0's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cycle {
    /// First window of the drifted phase → first window served by the
    /// answering generation.
    pub recover_ms: f64,
    /// Drift onset → background search start.
    pub detect_ms: f64,
    pub resynth_ms: f64,
    /// Mean quality signal over the windows after adoption (lower = better).
    pub tail_signal: f64,
    pub pause_ns_max: f64,
}

/// Read a cycle out of a report; `None` when the drift went unanswered
/// before the stream ended.
pub fn cycle_of(report: &ServeReport) -> Option<Cycle> {
    let answer = report.adaptations.first()?;
    let onset = report.windows.iter().find(|w| w.worker == 0 && w.phase >= 1)?.at_micros;
    let after: Vec<_> = report
        .windows
        .iter()
        .filter(|w| w.worker == 0 && w.generation >= answer.generation && w.decisions > 0)
        .collect();
    let adopted = after.first()?.at_micros;
    let published = report.swaps.iter().find(|s| s.generation == answer.generation)?.at_micros;
    let served: u64 = after.iter().map(|w| w.decisions).sum();
    Some(Cycle {
        recover_ms: adopted.saturating_sub(onset) as f64 / 1e3,
        detect_ms: published.saturating_sub(answer.resynthesis_micros).saturating_sub(onset) as f64
            / 1e3,
        resynth_ms: answer.resynthesis_micros as f64 / 1e3,
        tail_signal: after.iter().map(|w| w.signal * w.decisions as f64).sum::<f64>()
            / served as f64,
        pause_ns_max: report.swap_pauses_ns().last().copied().unwrap_or(0) as f64,
    })
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let setup = measure_setup(!cfg.trace, || setup(cfg.seed));
    let inp = &setup.inputs;
    // the latency histogram of each kind's fastest cycle, to be merged
    // into one: a cycle's own median flips between the deployed policy's
    // latency and its winner's (75 ns or 500), according to which of the
    // two served the larger half
    let latency: RefCell<BTreeMap<u32, (u64, LatencyHistogram)>> = RefCell::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut winner: Option<String> = None;
    let mut unit = |out: &mut Outcome, laps: &mut Laps, unit: u64, wrap: Option<&Wrap>| {
        let report = serve_unit(inp, cfg.seed, unit, wrap);
        let timed = laps.lap((unit % KINDS as u64) as u32, report.total_decisions());
        let bad = served_badly(out, &report);
        out.failed += bad;
        let mut fastest = latency.borrow_mut();
        if fastest.get(&timed.kind).is_none_or(|(wall_ns, _)| timed.wall_ns < *wall_ns) {
            fastest.insert(timed.kind, (timed.wall_ns, report.latency()));
        }
        drop(fastest);
        match cycle_of(&report) {
            Some(c) => cycles.push(c),
            // not a failed op under the serving rule, but worth a line: the
            // cycle contributes no recovery sample
            None => {
                eprintln!(
                    "serve-drift: unit {unit}: drift unanswered ({} adaptations, {} rejections, {} swaps, {} windows)",
                    report.adaptations.len(),
                    report.rejections.len(),
                    report.swaps.len(),
                    report.windows.len()
                );
            }
        }
        if winner.is_none() {
            winner = report.adaptations.first().map(|a| a.source.clone());
        }
    };

    let untraced = run_cycles(untraced_cycles(cfg, CYCLE_S), KINDS as u64, |laps, u| {
        unit(&mut out, laps, u, None)
    });
    out.attempted = untraced.ops();
    // the runtime samples every `latency_sample_every`-th decision into a
    // ~6 % bucket histogram; read the percentiles inside their buckets
    let mut pooled = UnitLatency::new();
    let mut h = LatencyHistogram::new();
    latency.borrow().values().for_each(|(_, of_kind)| h.merge(of_kind));
    pooled.push(0, stats::interp_quantile(&h, 0.50), stats::interp_quantile(&h, 0.99), h.count());
    out.end_to_end(setup.seconds, &untraced, &pooled);

    if cfg.trace {
        let tracer = Arc::new(Tracer::default());
        let cost = Tracer::calibrate();
        let (gen_stats, study_stats) =
            (Arc::new(GenStats::default()), Arc::new(StudyStats::default()));
        let wrap = Wrap { tracer: &tracer, gen: &gen_stats, study: &study_stats };
        let traced = run_cycles(traced_cycles(cfg, CYCLE_S), KINDS as u64, |laps, u| {
            unit(&mut out, laps, u, Some(&wrap))
        });
        out.attempted += traced.ops();
        out.set("trace.overhead_share", 1.0 - traced.ops_per_s() / untraced.ops_per_s());

        // the same stream with nobody answering the drift: what the worker
        // does per second when the second core is idle
        let t0 = Instant::now();
        let steady = serve_lb(&inp.shards, inp.policy.clone(), &inp.cfg, no_resynth());
        let steady_ops_per_s = steady.total_decisions() as f64 / t0.elapsed().as_secs_f64();
        out.set("serve.drift_throughput_share", untraced.ops_per_s() / steady_ops_per_s);
        out.set("serve.decision_ns", untraced.ns_per_op());
        // explained from outside: the stream replayed through a bare engine
        // under the deployed policy; the serve loop, the hot-swap and the
        // contention with the search are the residual
        let (generate_ns, replay_ns) = bare_replay(&inp.shards[0], &inp.policy);
        out.set("lbsim.offer_ns", replay_ns);
        out.set("serve.loop_self_ns", (untraced.ns_per_op() - replay_ns).max(0.0));
        reconcile_ns(&mut out, replay_ns + generate_ns, untraced.ns_per_op());

        let layers = finish_trace(cfg, &tracer, cost);
        search_shares(&mut out, &layers, &[], &["study.check"], &["study.evaluate"]);
        gen_times(&mut out, &gen_stats);
        out.set_ratio(
            "gen.prompt_tokens_per_round",
            gen_stats.input_tokens.load(std::sync::atomic::Ordering::Relaxed) as f64,
            search_cfg().rounds as f64,
        );
        eval_percentiles(&mut out, &[&study_stats]);
        CheckerSnapshot::take(&[(Mode::Lb, &study_stats)]).report(&mut out, stats::clock_cost_ns());

        // the control-plane calls the runtime makes, timed directly
        let t0 = Instant::now();
        let mut controller = AdaptiveController::new(ContextMonitor::new(6, 1.35), 0.0);
        let miss = controller.try_reuse(&*inp.study).is_err();
        out.set("core.try_reuse_ms", t0.elapsed().as_nanos() as f64 / 1e6);
        if !miss {
            out.problem("a cold library answered try_reuse");
        }
        if let Some(src) = &winner {
            let t0 = Instant::now();
            let verdict = PolicyGuard::default().screen(&*inp.study, src, DEPLOYED);
            out.set("serve.guard_screen_ms", t0.elapsed().as_nanos() as f64 / 1e6);
            if !verdict.admitted() {
                out.problem(format!("the guard no longer admits the published winner `{src}`"));
            }
            let policy = compiled(src).1;
            let mut rng = Rng::new(cfg.seed).fork(0xd7);
            probes::kbpf_run(&mut out, &policy, &mut rng);
            probes::serve_cell(&mut out, &policy);
        }
        probes::obs_costs(&mut out);
    }
    if !cycles.is_empty() {
        let med = |f: fn(&Cycle) -> f64| stats::median(&cycles.iter().map(f).collect::<Vec<_>>());
        out.set("recover_ms", med(|c| c.recover_ms));
        out.note("recover_ms", format!("cycles={}", cycles.len()));
        out.set("serve.detect_ms", med(|c| c.detect_ms));
        out.set("serve.resynth_ms", med(|c| c.resynth_ms));
        out.set(
            "serve.adopt_pause_ns_max",
            cycles.iter().map(|c| c.pause_ns_max).fold(0.0, f64::max),
        );
        // improvement over round-robin on the drifted context, over the
        // windows the answering generation served
        let rr = inp.study.rr_slowdown();
        out.set("quality_score", (rr - med(|c| c.tail_signal)) / rr.max(1e-9));
    }
    out
}
