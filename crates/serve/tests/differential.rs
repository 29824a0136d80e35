//! The serving runtime's no-drift contract, proven differentially: a
//! single-worker serve run with no publishes is **decision-for-decision
//! identical** to the equivalent batch simulator run — same pick sequence
//! (lb) / same hit-miss sequence (cache), same final metrics. Plus the
//! end-to-end drift story: a mid-run fleet degradation is detected from
//! streamed telemetry, answered by a background re-synthesis, and swapped
//! in with zero dropped decisions.

use policysmith_core::search::SearchConfig;
use policysmith_core::studies::lb::LbStudy;
use policysmith_dsl::{parse, Mode};
use policysmith_gen::{GenConfig, MockLlm};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{scenario, sim, DispatchView, Dispatcher, ExprDispatcher, Scenario};
use policysmith_serve::runtime::Resynth;
use policysmith_serve::{loadgen, serve_cache, serve_lb, ServeConfig, ServeReport};
use proptest::prelude::*;

const POLICIES: &[&str] = &[
    "server.queue_len",
    "server.inflight * 1000 / server.speed + server.queue_len * 50",
    "server.work_left + req.size * 1000 / server.speed",
];

fn compiled(src: &str, mode: Mode) -> CompiledPolicy {
    CompiledPolicy::compile(&parse(src).unwrap(), mode).unwrap()
}

/// Pick-recording wrapper for the batch reference runs.
struct Rec {
    inner: ExprDispatcher,
    picks: Vec<u32>,
}

impl Rec {
    fn new(src: &str) -> Rec {
        Rec { inner: ExprDispatcher::new("batch", compiled(src, Mode::Lb)), picks: Vec::new() }
    }
}

impl Dispatcher for Rec {
    fn name(&self) -> &str {
        "rec"
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        let p = self.inner.pick(view);
        self.picks.push(p as u32);
        p
    }
}

/// Batch reference: run the scenario through `sim::run`, recording picks.
fn batch_lb(sc: &Scenario, src: &str) -> (Vec<u32>, policysmith_lbsim::LbMetrics) {
    let mut rec = Rec::new(src);
    let m = sim::run(&sc.servers, &sc.requests(), &mut rec);
    (rec.picks, m)
}

fn no_resynth() -> Option<Resynth<LbStudy>> {
    None
}

#[test]
fn lb_serve_is_decision_identical_to_the_batch_simulator() {
    let cfg = ServeConfig { workers: 1, record_decisions: true, ..ServeConfig::default() };
    for sc in [scenario::uniform_fleet(), scenario::two_tier_fleet(), scenario::flash_crowd()] {
        for src in POLICIES {
            let shards = loadgen::lb_shards(std::slice::from_ref(&sc), 1);
            let report = serve_lb(&shards, compiled(src, Mode::Lb), &cfg, no_resynth());
            let (picks, batch) = batch_lb(&sc, src);
            let w = &report.workers[0];
            assert_eq!(
                w.decisions_log.as_ref().unwrap(),
                &picks,
                "pick sequences diverged on {} for `{src}`",
                sc.name
            );
            assert_eq!(
                w.lb_metrics.as_ref().unwrap(),
                &batch,
                "metrics diverged on {} for `{src}`",
                sc.name
            );
            assert_eq!(w.decisions, batch.offered, "every offered request was decided");
            assert!(report.swaps.is_empty() && report.adaptations.is_empty());
        }
    }
}

/// Multi-phase streams (the drift-injection shape) must also be
/// decision-identical: the serve worker literally drives
/// `run_phased_windowed`, so this pins the wrapper (adoption check,
/// latency sampling, recording) against the raw phased driver.
#[test]
fn multi_phase_serve_matches_run_phased() {
    use policysmith_lbsim::run_phased;
    let phases = loadgen::lb_drift_phases();
    let cfg = ServeConfig { workers: 1, record_decisions: true, ..ServeConfig::default() };
    for src in POLICIES {
        let shards = loadgen::lb_shards(&phases, 1);
        let report = serve_lb(&shards, compiled(src, Mode::Lb), &cfg, no_resynth());

        let mut rec = Rec::new(src);
        let batch = run_phased(&phases, &mut rec);

        let w = &report.workers[0];
        assert_eq!(w.decisions_log.as_ref().unwrap(), &rec.picks, "picks diverged for `{src}`");
        assert_eq!(w.lb_metrics.as_ref().unwrap(), &batch.combined, "metrics diverged");
        // window telemetry attributes every arrival to the phase it
        // belongs to, matching the phased driver's per-phase counts
        for (i, phase) in batch.per_phase.iter().enumerate() {
            let windowed: u64 =
                report.windows.iter().filter(|s| s.phase == i).map(|s| s.decisions).sum();
            assert_eq!(windowed, phase.offered, "phase {i} attribution for `{src}`");
        }
    }
}

#[test]
fn multi_worker_shards_each_match_their_own_batch_run() {
    let cfg = ServeConfig { workers: 3, record_decisions: true, ..ServeConfig::default() };
    let sc = scenario::two_tier_fleet();
    let shards = loadgen::lb_shards(std::slice::from_ref(&sc), 3);
    let src = POLICIES[1];
    let report = serve_lb(&shards, compiled(src, Mode::Lb), &cfg, no_resynth());
    assert_eq!(report.workers.len(), 3);
    for w in &report.workers {
        let (picks, batch) = batch_lb(&shards[w.worker][0], src);
        assert_eq!(w.decisions_log.as_ref().unwrap(), &picks, "worker {}", w.worker);
        assert_eq!(w.lb_metrics.as_ref().unwrap(), &batch, "worker {}", w.worker);
    }
    // telemetry covered every window of every worker
    let telemetry_decisions: u64 = report.windows.iter().map(|s| s.decisions).sum();
    assert_eq!(telemetry_decisions, report.total_decisions());
}

/// The sharded metrics registry is an *accounting view* over the same
/// run: its merged counters must agree with the report's ground truth, on
/// both drivers (they share one per-decision shell).
#[test]
fn sharded_metrics_account_for_every_decision_and_window() {
    fn check(driver: &str, run: impl Fn(&ServeConfig) -> ServeReport) {
        // merged registry counters agree with the report's ground truth
        let lit = run(&ServeConfig { workers: 3, ..ServeConfig::default() });
        let m = &lit.metrics;
        assert_eq!(m.counter("serve.decisions"), lit.total_decisions(), "{driver}");
        assert_eq!(m.counter("serve.windows"), lit.windows.len() as u64, "{driver}");
        assert_eq!(m.counter("serve.quarantines"), 0, "{driver}");
        let hist = m.histogram("serve.decision_latency_ns").expect("latency histogram registered");
        assert_eq!(hist.count(), lit.latency().count(), "{driver}");
        assert!(hist.count() > 0, "{driver}: latency sampling recorded through the registry");

        // instrument = false empties the hot-path metrics but not the windows
        let dark = run(&ServeConfig { workers: 2, instrument: false, ..ServeConfig::default() });
        assert_eq!(dark.metrics.counter("serve.decisions"), 0, "{driver}");
        assert_eq!(dark.latency().count(), 0, "{driver}");
        let telemetry: u64 = dark.windows.iter().map(|s| s.decisions).sum();
        assert_eq!(telemetry, dark.total_decisions(), "{driver}: windows flow despite the gate");
    }

    let sc = scenario::two_tier_fleet();
    check("lb", |cfg| {
        let shards = loadgen::lb_shards(std::slice::from_ref(&sc), cfg.workers);
        serve_lb(&shards, compiled(POLICIES[1], Mode::Lb), cfg, no_resynth())
    });
    let replay = loadgen::CacheReplay::new("cloudphysics", 10, 12_000).unwrap();
    let capacity = (policysmith_traces::footprint_bytes(&replay.trace()) / 10).max(1);
    check("cache", |cfg| {
        let policy = compiled("obj.last_access", Mode::Cache);
        serve_cache(&replay.shards(cfg.workers), capacity, policy, cfg, no_resynth())
    });
}

#[test]
fn cache_serve_is_decision_identical_to_the_batch_simulator() {
    use policysmith_cachesim::{Cache, PriorityPolicy};
    let replay = loadgen::CacheReplay::new("cloudphysics", 10, 20_000).unwrap();
    let trace = replay.trace();
    let capacity = (policysmith_traces::footprint_bytes(&trace) / 10).max(1);
    for src in ["obj.last_access", "obj.count * 20 - obj.age / 300 - obj.size / 500"] {
        let cfg = ServeConfig { workers: 1, record_decisions: true, ..ServeConfig::default() };
        let report = serve_cache(
            &replay.shards(1),
            capacity,
            compiled(src, Mode::Cache),
            &cfg,
            no_resynth(),
        );

        // batch reference: same trace, same host, recording hit/miss
        let host = PriorityPolicy::new("batch", compiled(src, Mode::Cache)).track_everything();
        let mut cache = Cache::new(capacity, host);
        let hits: Vec<u32> = trace.requests.iter().map(|r| cache.request(r) as u32).collect();

        let w = &report.workers[0];
        assert_eq!(w.decisions_log.as_ref().unwrap(), &hits, "hit/miss diverged for `{src}`");
        assert_eq!(w.cache_result.as_ref().unwrap(), &cache.result(), "counters diverged");
        assert_eq!(w.decisions, trace.requests.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized no-drift equivalence: any preset × policy × telemetry
    /// window cadence × instrumentation gate serves exactly the batch
    /// decisions — how telemetry is cut and counted must never influence
    /// decisions.
    #[test]
    fn serve_equals_batch_for_any_preset_policy_and_window(
        preset_ix in 0usize..7,
        policy_ix in 0usize..3,
        window in proptest::sample::select(vec![64usize, 500, 4096]),
        instrument in any::<bool>(),
    ) {
        let sc = scenario::all_presets().swap_remove(preset_ix);
        let src = POLICIES[policy_ix];
        let cfg = ServeConfig {
            workers: 1,
            window,
            record_decisions: true,
            instrument,
            ..ServeConfig::default()
        };
        let shards = loadgen::lb_shards(std::slice::from_ref(&sc), 1);
        let report = serve_lb(&shards, compiled(src, Mode::Lb), &cfg, no_resynth());
        let (picks, batch) = batch_lb(&sc, src);
        prop_assert_eq!(report.workers[0].decisions_log.as_ref().unwrap(), &picks);
        prop_assert_eq!(report.workers[0].lb_metrics.as_ref().unwrap(), &batch);
    }
}

/// The end-to-end drift story: phase 0 healthy, then the fleet degrades
/// under a speed-blind policy; the background controller must detect the
/// drift from streamed windows, re-synthesize, and publish — all while
/// every decision request keeps being served.
#[test]
fn drift_is_answered_in_the_background_with_zero_dropped_decisions() {
    let phases = loadgen::lb_drift_phases();
    // extend the degraded regime so serving continues while the
    // background search runs (same scenario, fresh seeds)
    let mut spec = phases.clone();
    for (i, extra) in std::iter::repeat_n(&phases[1], 6).enumerate() {
        spec.push(extra.clone().with_seed(extra.seed ^ (0xD00D + i as u64)));
    }
    let shards = loadgen::lb_shards(&spec, 2);
    let cfg = ServeConfig {
        workers: 2,
        window: 500,
        monitor_window: 6,
        monitor_tolerance: 1.35,
        ..ServeConfig::default()
    };
    let onset = scenario::slow_node_onset();
    let resynth = Resynth {
        context: onset.name.clone(),
        study: LbStudy::new(&onset),
        generator: Box::new(MockLlm::new(GenConfig::lb_defaults(77))),
        search: SearchConfig { rounds: 2, candidates_per_round: 6, ..SearchConfig::quick() }
            .pipelined(),
        library: policysmith_core::library::HeuristicLibrary::new(),
    };
    // "server.queue_len" is JSQ-by-queue: healthy-fleet-fine, speed-blind
    // after the onset — the stale policy the §3.1 story catches limping
    let report = serve_lb(&shards, compiled("server.queue_len", Mode::Lb), &cfg, Some(resynth));

    // zero dropped/blocked decision requests: every offered arrival of
    // every shard was decided
    let offered: u64 = shards.iter().flatten().map(|p| p.workload.n as u64).sum();
    assert_eq!(report.total_decisions(), offered);
    for w in &report.workers {
        let m = w.lb_metrics.as_ref().unwrap();
        assert_eq!(m.offered, w.decisions);
        assert_eq!(m.completed + m.dropped, m.offered, "conservation");
    }

    // the background loop fired: drift detected, answered, published
    assert!(
        !report.adaptations.is_empty() && report.adaptations.len() <= 4,
        "expected a small number of adaptations, got {:?}",
        report.adaptations.len()
    );
    assert_eq!(report.swaps.len(), report.adaptations.len());
    let first = &report.adaptations[0];
    assert_eq!(first.context, onset.name);
    assert_eq!(first.generation, 1);
    assert!(first.score.is_finite());
    let ctrl = &report.controller;
    assert!(!ctrl.library().is_empty());
    // no drift was detected before the injection: every pre-injection
    // window (phase 0) was served at generation 0 and the first swap's
    // provenance names the onset context
    assert!(report.swaps[0].provenance.contains("slow-node-onset"));
    assert!(
        report.windows.iter().filter(|s| s.phase == 0).all(|s| s.generation == 0),
        "phase 0 must be served entirely by the initial policy"
    );
}
