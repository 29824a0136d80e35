//! `serve-steady` — op = served decision. `serve_lb` on the 8-server
//! `uniform_fleet` preset with `min(nproc, 2)` workers and no
//! re-synthesis. The only steady workload with the serve loop — generation
//! check, window telemetry, obs shard writes — in the op: about a quarter
//! of a served decision, a bare `LbEngine::offer` being the rest (its 8-row
//! batch VM call another quarter).
//!
//! Closed loop in virtual time: each worker issues its next decision when
//! the previous one returns, so this reports work per second and
//! service-time percentiles, not latency under an arrival rate.

use super::decide_lb::{compiled, traced_replay, POLICY};
use super::{finish_trace, reconcile_ns, traced_cycles, untraced_cycles};
use crate::harness::{measure_setup, run_cycles, Laps, Outcome, RunCfg, UnitLatency};
use crate::probes;
use crate::spans::Tracer;
use crate::stats::{self, Rng};
use policysmith::core::studies::lb::LbStudy;
use policysmith::dsl::Expr;
use policysmith::kbpf::CompiledPolicy;
use policysmith::lbsim::dispatch::RoundRobin;
use policysmith::lbsim::workload::WorkloadCfg;
use policysmith::lbsim::{run_phased, scenario, ExprDispatcher, LbEngine, LbMetrics, Scenario};
use policysmith::serve::{loadgen, serve_lb, Resynth, ServeConfig, ServeReport};
use std::cell::RefCell;
use std::time::Instant;

/// Same-scenario phases per worker, reseeded per phase, so a worker never
/// holds more than one phase's requests. Short: one `serve_lb` call is the
/// timed unit, and at two workers this is ≈ 14 ms of it.
const PHASES: usize = 2;
const PHASE_REQUESTS: usize = 25_000;
/// What one cycle of the untraced regions took on the 2-vCPU box (calm) at the
/// commit of `baseline/BENCH_0.json`: it turns `--seconds` into a number of
/// cycles ([`crate::harness::cycles_for`]), the same at every commit.
pub const CYCLE_S: f64 = 0.0167;

pub fn workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(2)
}

pub fn no_resynth() -> Option<Resynth<LbStudy>> {
    None
}

pub struct Inputs {
    pub expr: Expr,
    pub policy: CompiledPolicy,
    pub shards: Vec<Vec<Scenario>>,
    pub cfg: ServeConfig,
    /// Round-robin's mean slowdown on worker 0's phases (the man-made
    /// baseline the quality score is relative to).
    pub rr_slowdown: f64,
}

/// `phases` copies of the preset with `requests` arrivals each.
pub fn phases(seed: u64, phases: usize, requests: usize) -> Vec<Scenario> {
    let base = scenario::uniform_fleet();
    (0..phases)
        .map(|i| Scenario {
            workload: WorkloadCfg { n: requests, ..base.workload },
            seed: stats::mix(seed, i as u64),
            ..base.clone()
        })
        .collect()
}

pub fn inputs(seed: u64, n_phases: usize, requests: usize) -> Inputs {
    let (expr, policy) = compiled(POLICY);
    let cfg = ServeConfig { workers: workers(), ..ServeConfig::default() };
    let shards = loadgen::lb_shards(&phases(seed, n_phases, requests), cfg.workers);
    let rr_slowdown = run_phased(&shards[0], &mut RoundRobin::new()).combined.mean_slowdown();
    Inputs { expr, policy, shards, cfg, rr_slowdown }
}

/// The warm-up is one whole unit: a tenth of one would be mostly thread
/// start-up.
fn setup(seed: u64) -> Inputs {
    let inp = inputs(seed, PHASES, PHASE_REQUESTS);
    serve_lb(&inp.shards, inp.policy.clone(), &inp.cfg, no_resynth());
    inp
}

/// Ops of one report that violate the serving rule: offered but not
/// decided, or served after a fault-latch quarantine. A thread that died
/// is a hard failure.
pub fn served_badly(out: &mut Outcome, report: &ServeReport) -> u64 {
    for f in &report.failures {
        out.problem(format!("serve_lb reported a failure: {f}"));
    }
    report
        .workers
        .iter()
        .map(|w| {
            let offered = w.lb_metrics.as_ref().map(|m| m.offered).unwrap_or(0);
            offered.saturating_sub(w.decisions) + w.quarantines
        })
        .sum()
}

/// What of one worker's decisions can be explained from outside: ns per
/// request to generate its streams, and ns per request to replay them
/// through a bare `LbEngine` under `policy` — the fastest of five replays,
/// as the served decision it is subtracted from is a fastest repeat too.
pub fn bare_replay(shard: &[Scenario], policy: &CompiledPolicy) -> (f64, f64) {
    let t0 = Instant::now();
    let streams: Vec<_> = shard.iter().map(Scenario::requests).collect();
    let n = streams.iter().map(Vec::len).sum::<usize>() as f64;
    let generate_ns = t0.elapsed().as_nanos() as f64 / n;
    let replay = || {
        let t0 = Instant::now();
        for (phase, stream) in shard.iter().zip(&streams) {
            let mut engine = LbEngine::new(&phase.servers);
            let mut d = ExprDispatcher::new("replay", policy.clone());
            for req in stream {
                engine.offer(req, &mut d);
            }
            engine.drain();
        }
        t0.elapsed().as_nanos() as f64 / n
    };
    (generate_ns, (0..5).map(|_| replay()).fold(f64::INFINITY, f64::min))
}

/// No publishes happened, so worker 0 must equal the batch simulator on
/// the same phases.
pub fn serve_equals_batch(inp: &Inputs, worker0: &LbMetrics, corrupt: bool) -> bool {
    let mut batch =
        run_phased(&inp.shards[0], &mut ExprDispatcher::new("batch", inp.policy.clone())).combined;
    if corrupt {
        batch.completed += 1;
    }
    *worker0 == batch
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let setup = measure_setup(!cfg.trace, || setup(cfg.seed));
    let inp = &setup.inputs;
    let latency = RefCell::new(UnitLatency::new());
    let mut first: Option<ServeReport> = None;
    let mut unit = |out: &mut Outcome, laps: &mut Laps| {
        let report = serve_lb(&inp.shards, inp.policy.clone(), &inp.cfg, no_resynth());
        laps.lap(0, report.total_decisions());
        let bad = served_badly(out, &report);
        out.failed += bad;
        // the runtime samples every `latency_sample_every`-th decision into
        // a ~6 % bucket histogram; read the percentiles inside their buckets
        let h = report.latency();
        latency.borrow_mut().push(
            0,
            stats::interp_quantile(&h, 0.50),
            stats::interp_quantile(&h, 0.99),
            h.count(),
        );
        first.get_or_insert(report);
    };

    let untraced = run_cycles(untraced_cycles(cfg, CYCLE_S), 1, |laps, _| unit(&mut out, laps));
    out.attempted = untraced.ops();
    out.end_to_end(setup.seconds, &untraced, &latency.borrow());

    if cfg.trace {
        // the runtime's inside is not visible from outside: a traced unit
        // is the same call under one root span
        let tracer = Tracer::default();
        let cost = Tracer::calibrate();
        let traced = run_cycles(traced_cycles(cfg, CYCLE_S), 1, |laps, u| {
            let _root = tracer.begin_root("serve.serve_lb", u);
            unit(&mut out, laps);
        });
        out.attempted += traced.ops();
        out.set("trace.overhead_share", 1.0 - traced.ops_per_s() / untraced.ops_per_s());

        // what *can* be explained from outside: generating worker 0's
        // requests and replaying them through a bare LbEngine
        let shard = &inp.shards[0];
        let (generate_ns, replay_ns) = bare_replay(shard, &inp.policy);
        let calls_per_pick =
            traced_replay(&tracer, &shard[0].servers, &shard[0].requests(), &inp.policy);
        let layers = finish_trace(cfg, &tracer, cost);
        let (offer, pick) = (layers["lbsim.offer"], layers["lbsim.pick"]);
        let ops = offer.count as f64;
        out.set("lbsim.offer_ns", replay_ns);
        out.set("lbsim.pick_ns", pick.self_ns / ops);
        out.set("lbsim.engine_self_ns", offer.self_ns / ops);
        out.set("lbsim.score_calls_per_pick", calls_per_pick);

        let decision_ns = inp.cfg.workers as f64 * untraced.ns_per_op();
        out.set("serve.decision_ns", decision_ns);
        out.set("serve.loop_self_ns", (decision_ns - replay_ns).max(0.0));
        reconcile_ns(&mut out, replay_ns + generate_ns, decision_ns);
        let report = first.as_ref().expect("at least one unit ran");
        out.set(
            "serve.windows_backlogged",
            report.metrics.counter("serve.windows_backlogged") as f64,
        );

        let mut rng = Rng::new(cfg.seed).fork(0x5e);
        probes::kbpf_run(&mut out, &inp.policy, &mut rng);
        probes::obs_costs(&mut out);
        probes::serve_cell(&mut out, &inp.policy);
    }

    let report = first.expect("at least one unit ran");
    let worker0 = report.workers[0].lb_metrics.as_ref().expect("lb workers report lb metrics");
    if !serve_equals_batch(inp, worker0, cfg.corrupt) {
        out.problem(
            "serve ≠ batch: worker 0's metrics differ from lbsim::run_phased on the same phases",
        );
    }
    let rr = inp.rr_slowdown;
    out.set("quality_score", (rr - worker0.mean_slowdown()) / rr.max(1e-9));
    out
}
