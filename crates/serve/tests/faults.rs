//! Fault-tolerance integration tests: the guard, the safe-fallback chain,
//! the retry/watchdog around background re-synthesis, and the chaos
//! layer's transparency contract — all end-to-end through `serve_lb` /
//! `serve_cache`, not unit mocks.

use policysmith_core::library::{
    Adaptation, AdaptiveController, ContextMonitor, HeuristicLibrary, LibraryEntry, RetryPolicy,
};
use policysmith_core::search::{SearchConfig, Study};
use policysmith_core::studies::lb::LbStudy;
use policysmith_dsl::Mode;
use policysmith_gen::{FlakyConfig, FlakyGen, GenConfig, Generator, MockLlm, Prompt, TokenLedger};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{scenario, Scenario};
use policysmith_serve::chaos::{baseline_source, faulting_source};
use policysmith_serve::runtime::Resynth;
use policysmith_serve::{
    loadgen, serve_cache, serve_lb, ChaosSpec, ExternalPublish, ServeConfig, ServeReport,
    TelemetryChaos, WorkerStall,
};
use proptest::prelude::*;

fn compiled(src: &str, mode: Mode) -> CompiledPolicy {
    CompiledPolicy::compile(&policysmith_dsl::parse(src).unwrap(), mode).unwrap()
}

fn no_resynth() -> Option<Resynth<LbStudy>> {
    None
}

/// Drift phases with the degraded regime extended, so serving is still in
/// flight while background work (searches, retries, recoveries) runs.
fn long_drift_phases() -> Vec<Scenario> {
    let phases = loadgen::lb_drift_phases();
    let mut spec = phases.clone();
    for (i, extra) in std::iter::repeat_n(&phases[1], 6).enumerate() {
        spec.push(extra.clone().with_seed(extra.seed ^ (0xFA57 + i as u64)));
    }
    spec
}

fn offered(shards: &[Vec<Scenario>]) -> u64 {
    shards.iter().flatten().map(|p| p.workload.n as u64).sum()
}

/// Fault-tolerance invariant shared by every run in this file: no worker
/// ever drops or skips a decision, whatever the injected misbehavior.
fn assert_zero_dropped(report: &ServeReport, offered: u64) {
    assert_eq!(report.total_decisions(), offered, "dropped decisions");
    assert!(report.failures.is_empty(), "thread failures: {:?}", report.failures);
}

/// A generator that only ever proposes one (legal, mediocre) policy —
/// what a confidently-wrong LLM looks like to the serving runtime.
struct FixedGen {
    source: &'static str,
    ledger: TokenLedger,
}

impl Generator for FixedGen {
    fn generate(&mut self, _prompt: &Prompt, n: usize) -> Vec<String> {
        vec![self.source.to_string(); n]
    }
    fn repair(&mut self, _prompt: &Prompt, _source: &str, _stderr: &str) -> Option<String> {
        None
    }
    fn ledger(&self) -> &TokenLedger {
        &self.ledger
    }
}

#[test]
fn guard_rejects_regressing_candidates_and_logs_the_reason() {
    let spec = long_drift_phases();
    let shards = loadgen::lb_shards(&spec, 2);
    let cfg = ServeConfig { workers: 2, window: 500, ..ServeConfig::default() };
    let onset = scenario::slow_node_onset();
    // "req.size" scores every server identically → always picks server 0:
    // legal, compiles, and strictly worse than the JSQ incumbent. The
    // guard must keep it off the serving path — and say why.
    let resynth = Resynth {
        context: onset.name.clone(),
        study: LbStudy::new(&onset),
        generator: Box::new(FixedGen { source: "req.size", ledger: TokenLedger::default() }),
        search: SearchConfig { rounds: 1, candidates_per_round: 4, ..SearchConfig::quick() },
        library: HeuristicLibrary::new(),
    };
    let report = serve_lb(&shards, compiled("server.queue_len", Mode::Lb), &cfg, Some(resynth));

    assert_zero_dropped(&report, offered(&shards));
    assert!(report.adaptations.is_empty(), "a regression went live: {:?}", report.adaptations);
    assert!(report.swaps.is_empty(), "nothing should have been published");
    assert!(!report.rejections.is_empty(), "the drift trigger must surface as a rejection");
    let r = &report.rejections[0];
    assert_eq!(r.source, "req.size");
    assert!(r.reason.contains("regression"), "reason: {}", r.reason);
    assert!(r.candidate_score < r.incumbent_score);
}

#[test]
fn externally_published_faulting_policy_is_quarantined_and_recovered_lb() {
    let spec = long_drift_phases();
    let shards = loadgen::lb_shards(&spec, 2);
    let bad = faulting_source(Mode::Lb);
    let cfg = ServeConfig {
        workers: 2,
        window: 200,
        chaos: ChaosSpec {
            seed: 7,
            external_publish: Some(ExternalPublish { after_windows: 2, source: bad.into() }),
            ..ChaosSpec::default()
        },
        ..ServeConfig::default()
    };
    let report = serve_lb(&shards, compiled("server.queue_len", Mode::Lb), &cfg, no_resynth());

    assert_zero_dropped(&report, offered(&shards));
    assert_eq!(report.chaos.external_publishes, 1);
    assert!(!report.quarantines.is_empty(), "the faulting policy must be caught mid-serve");
    let q = &report.quarantines[0];
    assert_eq!(q.source, bad);
    assert!(q.fault.contains("div"), "latched fault: {}", q.fault);
    // workers demoted locally (the zero-drop leg of the chain)
    assert!(report.workers.iter().any(|w| w.quarantines > 0));
    // the offender is poisoned; the recovery publish is the baseline
    // (empty library), with provenance naming the quarantine
    assert!(report.controller.library().is_poisoned(bad));
    let recovery = report
        .swaps
        .iter()
        .find(|s| s.provenance.contains("quarantine recovery"))
        .expect("a recovery publish must land");
    assert!(recovery.provenance.contains("baseline"));
    // no poisoned policy is ever re-deployed: after the quarantine, the
    // faulting source never appears in the publish log again
    assert!(
        !report.swaps.iter().any(|s| s.source == bad && s.generation > q.generation),
        "poisoned policy re-deployed: {:?}",
        report.swaps
    );
}

#[test]
fn quarantine_is_answered_from_the_library_before_the_baseline() {
    let spec = long_drift_phases();
    let shards = loadgen::lb_shards(&spec, 2);
    let bad = faulting_source(Mode::Lb);
    let stored = "server.inflight * 1000 / server.speed + server.queue_len * 50";
    let mut library = HeuristicLibrary::new();
    library.add(LibraryEntry { context: "lb/two-tier".into(), source: stored.into(), score: 0.0 });
    let cfg = ServeConfig {
        workers: 2,
        window: 200,
        // no drift trigger: the quarantine is the only thing that walks the
        // ladder, so the controller's trail ends at the recovery
        monitor_tolerance: 1e9,
        chaos: ChaosSpec {
            seed: 7,
            external_publish: Some(ExternalPublish { after_windows: 2, source: bad.into() }),
            ..ChaosSpec::default()
        },
        ..ServeConfig::default()
    };
    let onset = scenario::slow_node_onset();
    let resynth = Resynth {
        context: onset.name.clone(),
        study: LbStudy::new(&onset),
        generator: Box::new(FixedGen { source: "req.size", ledger: TokenLedger::default() }),
        search: SearchConfig::quick(),
        library,
    };
    let report = serve_lb(&shards, compiled("server.queue_len", Mode::Lb), &cfg, Some(resynth));

    assert_zero_dropped(&report, offered(&shards));
    assert!(!report.quarantines.is_empty(), "the faulting policy must be caught mid-serve");
    assert!(report.controller.library().is_poisoned(bad));
    let recovery = report
        .swaps
        .iter()
        .find(|s| s.provenance.contains("quarantine recovery"))
        .expect("a recovery publish must land");
    assert!(recovery.provenance.contains("library entry"), "{}", recovery.provenance);
    assert_eq!(recovery.source, stored);
    // the controller's trail names what is live, never the poisoned source
    assert_eq!(report.controller.deployed().map(|e| e.source.as_str()), Some(stored));
    assert_eq!(report.controller.adaptations().len(), 1);
}

#[test]
fn externally_published_faulting_policy_is_quarantined_and_recovered_cache() {
    let replay = loadgen::CacheReplay::new("cloudphysics", 10, 20_000)
        .expect("the cloudphysics dataset has 105 traces");
    let trace = replay.trace();
    let capacity = (policysmith_traces::footprint_bytes(&trace) / 10).max(1);
    let bad = faulting_source(Mode::Cache);
    let cfg = ServeConfig {
        workers: 2,
        window: 256,
        chaos: ChaosSpec {
            seed: 11,
            external_publish: Some(ExternalPublish { after_windows: 2, source: bad.into() }),
            worker_stall: Some(WorkerStall { every_decisions: 4_000, stall_micros: 100 }),
            ..ChaosSpec::default()
        },
        ..ServeConfig::default()
    };
    let shards = replay.shards(2);
    let offered: u64 = shards.iter().map(|t| t.requests.len() as u64).sum();
    let report = serve_cache(
        &shards,
        capacity,
        compiled("obj.last_access", Mode::Cache),
        &cfg,
        no_resynth(),
    );

    assert_zero_dropped(&report, offered);
    assert!(!report.quarantines.is_empty());
    assert!(report.controller.library().is_poisoned(bad));
    assert!(report.workers.iter().any(|w| w.quarantines > 0));
    assert!(report.swaps.iter().any(|s| s.provenance.contains("quarantine recovery")));
}

#[test]
fn telemetry_chaos_never_drops_decisions_and_generations_stay_monotonic() {
    let spec = long_drift_phases();
    let shards = loadgen::lb_shards(&spec, 2);
    let cfg = ServeConfig {
        workers: 2,
        window: 200,
        chaos: ChaosSpec {
            seed: 3,
            telemetry: TelemetryChaos { p_drop: 0.25, p_duplicate: 0.25, p_reorder: 0.25 },
            ..ChaosSpec::default()
        },
        ..ServeConfig::default()
    };
    let onset = scenario::slow_node_onset();
    let resynth = Resynth {
        context: onset.name.clone(),
        study: LbStudy::new(&onset),
        generator: Box::new(MockLlm::new(GenConfig::lb_defaults(77))),
        search: SearchConfig { rounds: 2, candidates_per_round: 6, ..SearchConfig::quick() }
            .pipelined(),
        library: HeuristicLibrary::new(),
    };
    let report = serve_lb(&shards, compiled("server.queue_len", Mode::Lb), &cfg, Some(resynth));

    assert_zero_dropped(&report, offered(&shards));
    let st = report.chaos;
    assert!(
        st.windows_dropped + st.windows_duplicated + st.windows_reordered > 0,
        "the chaos layer must actually have injected something: {st:?}"
    );
    // a worker only ever moves forward through generations, however its
    // telemetry was mangled in transit
    for w in 0..2 {
        let mut windows: Vec<_> = report.windows.iter().filter(|s| s.worker == w).collect();
        windows.sort_by_key(|s| s.seq);
        assert!(
            windows.windows(2).all(|p| p[0].generation <= p[1].generation),
            "worker {w} went backwards in generations"
        );
    }
}

#[test]
fn no_fault_chaos_spec_is_decision_identical_to_plain_serve() {
    let sc = scenario::two_tier_fleet();
    let shards = loadgen::lb_shards(std::slice::from_ref(&sc), 1);
    let src = "server.inflight * 1000 / server.speed + server.queue_len * 50";
    let run = |chaos: ChaosSpec| {
        let cfg =
            ServeConfig { workers: 1, record_decisions: true, chaos, ..ServeConfig::default() };
        serve_lb(&shards, compiled(src, Mode::Lb), &cfg, no_resynth())
    };
    let plain = run(ChaosSpec::default());
    let chaotic = run(ChaosSpec { seed: 42, ..ChaosSpec::default() });
    assert_eq!(
        plain.workers[0].decisions_log, chaotic.workers[0].decisions_log,
        "an all-zero chaos spec must be exactly the plain serve path"
    );
    assert_eq!(plain.workers[0].lb_metrics, chaotic.workers[0].lb_metrics);
    assert_eq!(chaotic.chaos, policysmith_serve::ChaosStats::default());
}

#[test]
fn generator_outage_falls_back_to_the_best_stored_entry() {
    let spec = long_drift_phases();
    let shards = loadgen::lb_shards(&spec, 2);
    let stored = "server.inflight * 1000 / server.speed + server.queue_len * 50";
    let mut library = HeuristicLibrary::new();
    library.add(LibraryEntry { context: "lb/two-tier".into(), source: stored.into(), score: 0.0 });
    let cfg = ServeConfig {
        workers: 2,
        window: 500,
        // the reuse bar is unreachable, so every trigger runs the (dead)
        // generator; only the watchdog's abandon path can answer drift
        min_reuse_score: f64::INFINITY,
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 2,
            deadline_ms: 60_000,
        },
        ..ServeConfig::default()
    };
    let onset = scenario::slow_node_onset();
    let resynth = Resynth {
        context: onset.name.clone(),
        study: LbStudy::new(&onset),
        generator: Box::new(FlakyGen::new(
            MockLlm::new(GenConfig::lb_defaults(77)),
            FlakyConfig::outage(9),
        )),
        search: SearchConfig { rounds: 1, candidates_per_round: 4, ..SearchConfig::quick() },
        library,
    };
    let report = serve_lb(&shards, compiled("server.queue_len", Mode::Lb), &cfg, Some(resynth));

    assert_zero_dropped(&report, offered(&shards));
    // the give-up is logged with its reason...
    let gave_up = report.rejections.iter().find(|r| r.reason.contains("gave up"));
    assert!(gave_up.is_some(), "rejections: {:?}", report.rejections);
    assert!(gave_up.unwrap().reason.contains("unavailable"), "{}", gave_up.unwrap().reason);
    // ...and the stored entry went live instead of the search winner
    assert!(!report.adaptations.is_empty(), "the fallback must still answer the drift");
    let a = &report.adaptations[0];
    assert!(!a.resynthesized);
    assert_eq!(a.source, stored);
    assert!(a.retries >= 3, "all attempts must have been burned, got {}", a.retries);
}

#[test]
fn flaky_generator_retries_through_transient_errors_and_still_adapts() {
    let spec = long_drift_phases();
    let shards = loadgen::lb_shards(&spec, 2);
    let cfg = ServeConfig {
        workers: 2,
        window: 500,
        retry: RetryPolicy {
            max_attempts: 8,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            deadline_ms: 60_000,
        },
        ..ServeConfig::default()
    };
    let onset = scenario::slow_node_onset();
    let resynth = Resynth {
        context: onset.name.clone(),
        study: LbStudy::new(&onset),
        generator: Box::new(FlakyGen::new(
            MockLlm::new(GenConfig::lb_defaults(77)),
            FlakyConfig { p_error: 0.6, p_garbage: 0.0, p_stall: 0.0, ..FlakyConfig::flaky(5) },
        )),
        search: SearchConfig { rounds: 2, candidates_per_round: 6, ..SearchConfig::quick() }
            .pipelined(),
        library: HeuristicLibrary::new(),
    };
    let report = serve_lb(&shards, compiled("server.queue_len", Mode::Lb), &cfg, Some(resynth));

    assert_zero_dropped(&report, offered(&shards));
    assert!(
        !report.adaptations.is_empty(),
        "retries must carry the search through a 60%-error generator (rejections: {:?})",
        report.rejections
    );
}

const CHAIN_SOURCES: &[&str] = &[
    "server.queue_len",
    "server.work_left + req.size * 1000 / server.speed",
    "server.inflight * 1000 / server.speed + server.queue_len * 50",
    "1000 / server.queue_len", // faults at runtime → scores -∞
    "not a ( policy",          // fails the Checker
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The safe-fallback chain always terminates at a deployable policy:
    /// whatever mix of good, faulting, unparseable, and poisoned entries
    /// the library holds, the quarantine rung (`recover`) yields either a
    /// clean finite-scoring non-poisoned entry or the man-made baseline —
    /// never a poisoned or faulting policy, and never nothing.
    #[test]
    fn fallback_chain_always_terminates_at_a_safe_policy(
        entries in proptest::collection::vec((0usize..CHAIN_SOURCES.len(), any::<bool>()), 0..10),
    ) {
        let study = LbStudy::new(&scenario::slow_node_onset());
        let mut lib = HeuristicLibrary::new();
        for (ix, poisoned) in &entries {
            let source = CHAIN_SOURCES[*ix];
            lib.add(LibraryEntry { context: "p".into(), source: source.into(), score: 1.0 });
            if *poisoned {
                lib.poison(source);
            }
        }
        let mut controller =
            AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.0).with_library(lib.clone());
        match controller.recover(&study) {
            Some(Adaptation::FromLibrary { entry, score }) => {
                prop_assert!(score.is_finite());
                prop_assert!(!lib.is_poisoned(&entry.source));
                prop_assert!(study.check(&entry.source).is_ok());
                prop_assert!(entry.source != CHAIN_SOURCES[3] && entry.source != CHAIN_SOURCES[4]);
            }
            Some(other) => prop_assert!(false, "recovery never searches: {other:?}"),
            None => {
                // the terminal link itself must always be deployable
                let b = baseline_source(Mode::Lb);
                prop_assert!(study.check(b).is_ok());
            }
        }
    }
}
