//! OBS: the observability layer's two proof obligations.
//!
//! 1. **Overhead** — the sharded telemetry must be cheap enough to leave
//!    on. The serve hot path is run with instrumentation enabled and
//!    disabled (`ServeConfig::instrument`), interleaved best-of-N so both
//!    arms see the same machine state, and the binary **fails by exit
//!    code** if the enabled arm's decision throughput falls below a bound
//!    relative to the disabled arm. Lands in `results/obs_overhead.json`.
//!
//! 2. **Lifecycle timeline** — a drift-injection serve run with a
//!    background re-synthesis is traced end to end: search round spans
//!    with their `CostLedger` deltas, the guard verdict, the publish, all
//!    sliced from the global trace log and dumped as a structured
//!    `policysmith.obs.timeline.v1` artifact (`results/obs_timeline.json`).
//!
//! Usage: `exp_obs [--quick] [--seed N]`

use policysmith_bench::{write_json, ExpOpts};
use policysmith_core::library::HeuristicLibrary;
use policysmith_core::search::SearchConfig;
use policysmith_core::studies::lb::LbStudy;
use policysmith_dsl::Mode;
use policysmith_gen::{GenConfig, MockLlm};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::scenario;
use policysmith_obs::export::timeline_value;
use policysmith_obs::TraceKind;
use policysmith_serve::runtime::Resynth;
use policysmith_serve::{loadgen, serve_lb, ServeConfig};

const SERVE_POLICY: &str = "server.work_left + req.size * 1000 / server.speed";

fn compiled(src: &str) -> CompiledPolicy {
    CompiledPolicy::from_source(src, Mode::Lb).unwrap()
}

fn main() {
    let opts = ExpOpts::from_args();
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let workers = hw.clamp(2, 4);

    // ---- part 1: instrumentation overhead on the serve hot path ---------
    let reps = if opts.fast { 4 } else { 20 };
    let rounds = if opts.fast { 3 } else { 7 };
    // quick mode runs on noisy shared CI runners; the full-run bound is
    // the honest one the acceptance gate uses
    let bound = if opts.fast { 0.75 } else { 0.90 };
    let base = scenario::uniform_fleet();
    let policy = compiled(SERVE_POLICY);

    println!("== obs overhead: {workers} workers, best of {rounds} interleaved rounds ==");
    let run = |instrument: bool, salt: u64| {
        let phases: Vec<_> = (0..reps)
            .map(|i| {
                if i == 0 {
                    base.clone()
                } else {
                    base.clone().with_seed(loadgen::mix(base.seed, salt.wrapping_add(i as u64)))
                }
            })
            .collect();
        let shards = loadgen::lb_shards(&phases, workers);
        let cfg = ServeConfig {
            workers,
            window: 1_000,
            latency_sample_every: 8,
            instrument,
            ..ServeConfig::default()
        };
        serve_lb(&shards, policy.clone(), &cfg, None::<Resynth<LbStudy>>)
    };

    let mut enabled_best = 0.0f64;
    let mut disabled_best = 0.0f64;
    let mut enabled_metrics = None;
    for round in 0..rounds {
        let on = run(true, opts.seed ^ round);
        let off = run(false, opts.seed ^ round);
        let (on_dps, off_dps) = (on.decisions_per_sec(), off.decisions_per_sec());
        println!("  round {round}: enabled {on_dps:>10.0} decisions/s, disabled {off_dps:>10.0}");
        if on_dps > enabled_best {
            enabled_best = on_dps;
            enabled_metrics = Some(on.metrics);
        }
        disabled_best = disabled_best.max(off_dps);
    }
    let ratio = enabled_best / disabled_best;
    let enabled_metrics = enabled_metrics.unwrap();
    println!(
        "  best: enabled {enabled_best:.0} vs disabled {disabled_best:.0} \
         → ratio {ratio:.4} (bound {bound})"
    );
    assert!(
        enabled_metrics.counter("serve.decisions") > 0,
        "the enabled arm must actually account decisions through the registry"
    );
    let lat = enabled_metrics.histogram("serve.decision_latency_ns").expect("latency hist");
    assert!(lat.count() > 0, "the enabled arm must sample latencies");

    // ---- part 2: policy-lifecycle timeline -------------------------------
    println!("\n== obs timeline: traced drift run (search spans → guard → publish) ==");
    let trace = policysmith_obs::trace::global();
    let mark = trace.seq();

    let drift_phases = loadgen::lb_drift_phases();
    let (healthy, onset) = (&drift_phases[0], &drift_phases[1]);
    let onset_reps = if opts.fast { 120 } else { 200 };
    let mut spec = vec![healthy.clone()];
    spec.extend((0..onset_reps).map(|i| {
        onset.clone().with_seed(loadgen::mix(onset.seed, 0xB0B0u64.wrapping_add(i as u64)))
    }));
    let drift_workers = workers.min(2);
    let shards = loadgen::lb_shards(&spec, drift_workers);
    let cfg = ServeConfig {
        workers: drift_workers,
        window: 500,
        latency_sample_every: 8,
        monitor_window: 12,
        monitor_tolerance: 2.0,
        ..ServeConfig::default()
    };
    let resynth = Resynth {
        context: onset.name.clone(),
        study: LbStudy::new(onset),
        generator: Box::new(MockLlm::new(GenConfig::lb_defaults(opts.seed ^ 0xF00D))),
        search: SearchConfig { rounds: 4, candidates_per_round: 10, ..SearchConfig::quick() }
            .pipelined(),
        library: HeuristicLibrary::new(),
    };
    let report = serve_lb(&shards, compiled("server.queue_len"), &cfg, Some(resynth));
    assert!(!report.adaptations.is_empty(), "the drift run must adapt so the timeline has a story");

    let events = trace.events_since(mark);
    let count = |pred: fn(&TraceKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    let round_starts = count(|k| matches!(k, TraceKind::SearchRoundStart { .. }));
    let round_ends = count(|k| matches!(k, TraceKind::SearchRoundEnd { .. }));
    let dones = count(|k| matches!(k, TraceKind::SearchDone { .. }));
    let admits = count(|k| matches!(k, TraceKind::GuardAdmit { .. }));
    let publishes = count(|k| matches!(k, TraceKind::Publish { .. }));
    println!(
        "  {} events: {round_starts} round starts, {round_ends} round ends, {dones} searches, \
         {admits} guard admits, {publishes} publishes",
        events.len()
    );
    assert!(round_starts >= 1 && round_ends >= 1, "search rounds must be traced");
    assert_eq!(round_starts, round_ends, "every traced round start has an end");
    assert!(dones >= 1, "the finished search must be traced");
    assert!(admits >= 1, "the adapting guard verdict must be traced");
    assert_eq!(publishes, report.swaps.len(), "one publish event per swap record");

    write_json("obs_timeline", &timeline_value(&events));
    write_json(
        "obs_overhead",
        &serde_json::json!({
            "quick": opts.fast,
            "workers": workers,
            "reps_per_round": reps,
            "rounds": rounds,
            "enabled_decisions_per_sec": enabled_best,
            "disabled_decisions_per_sec": disabled_best,
            "overhead_ratio": ratio,
            "bound": bound,
            "metrics": enabled_metrics,
        }),
    );

    // the exit-code guard: instrumentation must stay within the bound
    assert!(
        ratio >= bound,
        "acceptance: instrumented serve throughput regressed beyond the bound \
         (enabled/disabled = {ratio:.4} < {bound})"
    );
    println!("\nobs overhead within bound; timeline artifact written.");
}
