//! Serve: the one serving experiment — the paper's §3.1 loop (drift →
//! re-synthesis → guarded deploy) as `serve::runtime` runs it, against a
//! mid-run slow-node onset under a stale, speed-blind deployed policy
//! (JSQ). Every invocation runs every section:
//!
//! 1. **Drift.** An offline yardstick search for the drifted context, then
//!    the drift serve: telemetry → monitor → library → `run_search` →
//!    guard → publish in the background, **without stopping serving**.
//!    `results/serve.json` records the run's window timeline, swap log,
//!    guard rejections, adoption pauses and post-swap quality vs the
//!    offline policy serving the same streams. `results/obs_timeline.json`
//!    is the same run's slice of the global trace log (search round spans
//!    with their `CostLedger` deltas, the guard verdict, the publish), so
//!    its events explain `serve.json`'s swaps. Guards: no decision
//!    dropped, the drift answered, every traced round closed, a
//!    `search_done` and a `guard_admit` traced, one `publish` per swap,
//!    and (full run) the post-swap tail within 5 % of the offline
//!    policy's.
//! 2. **Overhead.** The serve hot path with `ServeConfig::instrument` on
//!    and off, interleaved best-of-N so both arms see the same machine
//!    state; the instrumented arm's decision throughput must stay within
//!    the bound of the bare arm's (`results/obs_overhead.json`).
//! 3. **Fault plans.** lb and cache serving under a battery of
//!    deterministic fault plans — flaky/dead generators, poisoned library
//!    entries, externally-published faulting policies, telemetry
//!    drops/duplicates/reordering, worker stalls, and all of it at once
//!    (`results/chaos.json`). Every plan must keep: zero dropped decisions
//!    and no dead thread; monotonic generations; no poisoned policy
//!    (re-)deployed; an external faulting publish quarantined and replaced
//!    within the recovery budget; a settled tail within 15 % of the
//!    man-made baseline (JSQ / LRU) serving the same streams.
//!
//! Every artifact is written before the binary exits: 1 if any guard
//! failed, 2 on a usage error. Decision throughput and latency are the
//! benchmark's `serve-steady` / `serve-drift` workloads; serve ≡ batch is
//! `crates/serve/tests/differential.rs`, and that an all-zero chaos spec
//! is the plain serve path, decision for decision, is
//! `crates/serve/tests/faults.rs`.
//!
//! Usage: `exp_serve [--quick] [--seed N]`

use policysmith_bench::{exit_on_violations, write_json, ExpOpts};
use policysmith_core::library::{HeuristicLibrary, LibraryEntry, RetryPolicy};
use policysmith_core::search::{run_search, SearchConfig};
use policysmith_core::studies::lb::LbStudy;
use policysmith_dsl::{parse, Mode};
use policysmith_gen::{FlakyConfig, FlakyGen, GenConfig, Generator, MockLlm};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{scenario, sim, ExprDispatcher, Scenario};
use policysmith_obs::export::timeline_value;
use policysmith_obs::{TraceEvent, TraceKind};
use policysmith_serve::chaos::{baseline_source, faulting_source};
use policysmith_serve::runtime::Resynth;
use policysmith_serve::{
    loadgen, serve_cache, serve_lb, ChaosSpec, ExternalPublish, ServeConfig, ServeReport,
    TelemetryChaos, WindowSample, WorkerStall,
};

/// Serving threads of the drift and fault-plan runs: the CI box's two
/// hardware threads, shared with the background search.
const WORKERS: usize = 2;

fn main() {
    let opts = ExpOpts::from_args();
    let mut violations = drift(&opts);
    violations.extend(overhead(&opts));
    violations.extend(fault_plans(&opts));
    exit_on_violations(&violations);
}

fn compiled(src: &str, mode: Mode) -> CompiledPolicy {
    CompiledPolicy::from_source(src, mode).expect("the experiment's fixed sources compile")
}

fn no_resynth() -> Option<Resynth<LbStudy>> {
    None
}

/// The drift stream: the slow-node onset's healthy phase, then `reps`
/// onset phases, the `i`-th reseeded with `mix(onset.seed, salt + i)`,
/// sharded across [`WORKERS`]. Also returns the onset (the drifted
/// context).
fn drift_shards(reps: u64, salt: u64) -> (Scenario, Vec<Vec<Scenario>>) {
    let [healthy, onset]: [Scenario; 2] =
        loadgen::lb_drift_phases().try_into().expect("a healthy and an onset phase");
    let mut phases = vec![healthy];
    phases.extend(
        (0..reps).map(|i| onset.clone().with_seed(loadgen::mix(onset.seed, salt.wrapping_add(i)))),
    );
    (onset, loadgen::lb_shards(&phases, WORKERS))
}

/// Requests the shards offer: the decisions a run must serve.
fn offered(shards: &[Vec<Scenario>]) -> u64 {
    shards.iter().flatten().map(|p| p.workload.n as u64).sum()
}

/// The background half of an lb drift serve: re-synthesize for `onset`
/// with `lb_defaults(seed ^ 0xF00D)`, behind `FlakyGen` when a fault plan
/// asks for one.
fn resynth(
    onset: &Scenario,
    seed: u64,
    flaky: Option<FlakyConfig>,
    search: SearchConfig,
    library: HeuristicLibrary,
) -> Resynth<LbStudy> {
    let llm = MockLlm::new(GenConfig::lb_defaults(seed ^ 0xF00D));
    let generator: Box<dyn Generator + Send> = match flaky {
        Some(fc) => Box::new(FlakyGen::new(llm, fc)),
        None => Box::new(llm),
    };
    Resynth { context: onset.name.clone(), study: LbStudy::new(onset), generator, search, library }
}

/// Settled-tail quality: the decision-weighted mean signal (lb: mean
/// slowdown, cache: miss ratio; lower is better) over, per worker, the
/// last half by `seq` of its non-empty windows that `keep` admits. The
/// first half drains the backlog of whatever served before, and halving
/// per worker keeps each worker's early windows out of the tail. NaN when
/// no window is kept.
fn settled_tail(windows: &[WindowSample], keep: impl Fn(&WindowSample) -> bool) -> f64 {
    let mut kept: Vec<&WindowSample> =
        windows.iter().filter(|w| w.decisions > 0 && keep(w)).collect();
    kept.sort_by_key(|w| (w.worker, w.seq));
    let (mut sum, mut weight) = (0.0, 0u64);
    for worker in kept.chunk_by(|a, b| a.worker == b.worker) {
        for w in &worker[worker.len() / 2..] {
            sum += w.signal * w.decisions as f64;
            weight += w.decisions;
        }
    }
    if weight == 0 {
        f64::NAN
    } else {
        sum / weight as f64
    }
}

// ---- 1. drift ---------------------------------------------------------

/// The deployed policy: JSQ dispatches by queue length alone, so a slowed
/// node keeps receiving its full share — the §3.1 story of a deployed
/// heuristic limping when the context shifts. (A policy synthesized for
/// the healthy fleet transfers too well here: the guard would — correctly
/// — refuse to replace it.)
const DEPLOYED: &str = "server.queue_len";

fn drift(opts: &ExpOpts) -> Vec<String> {
    println!("== drift: slow-node onset under a deployed, speed-blind JSQ (`{DEPLOYED}`) ==");
    let search_cfg = if opts.fast {
        SearchConfig { rounds: 4, candidates_per_round: 10, ..SearchConfig::paper_cache() }
    } else {
        SearchConfig { rounds: 6, candidates_per_round: 12, ..SearchConfig::paper_cache() }
    }
    .pipelined();
    // the stream must OUTLAST the background search: open-loop serving
    // runs at millions of decisions/s, the search needs O(seconds)
    let (onset, shards) = drift_shards(if opts.fast { 120 } else { 250 }, opts.seed ^ 0xD41F7);

    // the offline yardstick: a fresh search for the drifted context with
    // the same budget the background controller gets, but a DIFFERENT
    // generator seed — recovery is compared against an independent
    // offline deployment, not against the controller's own answer
    let mut offline_llm = MockLlm::new(GenConfig::lb_defaults(opts.seed ^ 0x0FF1));
    let offline = run_search(&LbStudy::new(&onset), &mut offline_llm, &search_cfg).best;
    let offline_expr = parse(&offline.source).expect("a searched source parses");
    let offline_batch_slowdown = sim::run(
        &onset.servers,
        &onset.requests(),
        &mut ExprDispatcher::from_expr("offline", &offline_expr),
    )
    .mean_slowdown();
    println!(
        "  offline fresh search for {}: {:+.2}% over RR (batch mean slowdown {:.4})",
        onset.name,
        offline.score * 100.0,
        offline_batch_slowdown
    );

    let cfg = ServeConfig {
        workers: WORKERS,
        window: 500,
        latency_sample_every: 8,
        // wider + calmer than the detection minimum: the post-swap signal
        // of a hot scenario is noisy (occasional drop-penalty spikes), and
        // the stale policy's degradation is an order of magnitude anyway
        monitor_window: 12,
        monitor_tolerance: 2.0,
        ..ServeConfig::default()
    };
    let trace = policysmith_obs::trace::global();
    let mark = trace.seq();
    let report = serve_lb(
        &shards,
        compiled(DEPLOYED, Mode::Lb),
        &cfg,
        Some(resynth(&onset, opts.seed, None, search_cfg, HeuristicLibrary::new())),
    );
    let events = trace.events_since(mark);

    // the like-for-like yardstick: the offline policy serving the SAME
    // sharded streams from the start, scored with the same statistic
    let offline_report = serve_lb(&shards, compiled(&offline.source, Mode::Lb), &cfg, no_resynth());
    let offline_tail = settled_tail(&offline_report.windows, |w| w.phase > 0);
    let last_gen = report.swaps.last().map_or(0, |s| s.generation);
    let tail = settled_tail(&report.windows, |w| w.phase > 0 && w.generation >= last_gen);

    println!(
        "  served {} decisions across {} workers; {} swaps, {} adaptations, {} rejections, {} suppressed re-triggers",
        report.total_decisions(),
        report.workers.len(),
        report.swaps.len(),
        report.adaptations.len(),
        report.rejections.len(),
        report.suppressed_triggers
    );
    for r in &report.rejections {
        println!(
            "    rejected for {}: {} [candidate {:+.4} vs incumbent {:+.4}] (`{}`)",
            r.context, r.reason, r.candidate_score, r.incumbent_score, r.source
        );
    }
    for a in &report.adaptations {
        println!(
            "    gen {}: {} for {} ({:+.2}% over RR) after {:.2}s of background work",
            a.generation,
            if a.resynthesized { "re-synthesized" } else { "library reuse" },
            a.context,
            a.score * 100.0,
            a.resynthesis_micros as f64 / 1e6
        );
    }
    let pauses = report.swap_pauses_ns();
    if let Some(max) = pauses.last() {
        println!(
            "  adoption pauses: {} events, median {} ns, max {max} ns",
            pauses.len(),
            pauses[pauses.len() / 2]
        );
    }
    println!(
        "  post-swap tail slowdown {tail:.4} vs offline policy on the same streams \
         {offline_tail:.4} ({:+.1}%)",
        (tail / offline_tail - 1.0) * 100.0
    );

    let mut violations = Vec::new();
    let (served, offered) = (report.total_decisions(), offered(&shards));
    if served != offered {
        violations.push(format!("drift: served {served} of {offered} offered decisions"));
    }
    if report.adaptations.is_empty() {
        violations.push("drift: the background controller never answered the drift".into());
    }
    let within_offline = tail <= offline_tail * 1.05;
    if !opts.fast && !within_offline {
        violations.push(format!(
            "drift: post-swap tail {tail:.4} is not within 5 % of the offline policy's \
             {offline_tail:.4}"
        ));
    }
    violations.extend(timeline_violations(&events, report.swaps.len()));

    write_json(
        "serve",
        &serde_json::json!({
            "quick": opts.fast,
            "drift": drift_json(&report, tail, offline_tail, offline_batch_slowdown, offline.score),
        }),
    );
    write_json("obs_timeline", &timeline_value(&events));
    violations
}

/// The drift run's trace must tell its story: search rounds that open and
/// close, the finished search, the admitting guard verdict, and one
/// `publish` per swap record.
fn timeline_violations(events: &[TraceEvent], swaps: usize) -> Vec<String> {
    let count = |pred: fn(&TraceKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
    let round_starts = count(|k| matches!(k, TraceKind::SearchRoundStart { .. }));
    let round_ends = count(|k| matches!(k, TraceKind::SearchRoundEnd { .. }));
    let dones = count(|k| matches!(k, TraceKind::SearchDone { .. }));
    let admits = count(|k| matches!(k, TraceKind::GuardAdmit { .. }));
    let publishes = count(|k| matches!(k, TraceKind::Publish { .. }));
    println!(
        "  traced {} events: {round_starts} round starts, {round_ends} round ends, \
         {dones} searches, {admits} guard admits, {publishes} publishes",
        events.len()
    );
    let mut violations = Vec::new();
    if round_starts == 0 || round_starts != round_ends {
        violations.push(format!(
            "timeline: {round_starts} round starts vs {round_ends} round ends (need equal, ≥ 1)"
        ));
    }
    if dones == 0 {
        violations.push("timeline: no search_done traced".into());
    }
    if admits == 0 {
        violations.push("timeline: no guard_admit traced".into());
    }
    if publishes != swaps {
        violations.push(format!("timeline: {publishes} publish events for {swaps} swaps"));
    }
    violations
}

fn drift_json(
    report: &ServeReport,
    tail: f64,
    offline_tail: f64,
    offline_batch_slowdown: f64,
    offline_score: f64,
) -> serde_json::Value {
    let pauses = report.swap_pauses_ns();
    // thin the timeline to a committable size, but always keep the
    // windows where a worker's serving generation changes (the swap
    // moments) and the early drift-detection region
    let stride = (report.windows.len() / 1200).max(1);
    let mut last_gen_by_worker: Vec<u64> = vec![u64::MAX; report.workers.len()];
    let timeline: Vec<serde_json::Value> = report
        .windows
        .iter()
        .enumerate()
        .filter(|(i, w)| {
            let swap_moment = last_gen_by_worker[w.worker] != w.generation;
            last_gen_by_worker[w.worker] = w.generation;
            swap_moment || i % stride == 0 || w.seq < 40
        })
        .map(|(_, w)| {
            // row-packed per `timeline_fields` to keep the artifact small
            serde_json::Value::Array(vec![
                serde_json::to_value(&w.worker),
                serde_json::to_value(&w.seq),
                serde_json::to_value(&w.phase),
                serde_json::to_value(&w.decisions),
                serde_json::to_value(&((w.signal * 1e4).round() / 1e4)),
                serde_json::to_value(&w.generation),
                serde_json::to_value(&w.at_micros),
            ])
        })
        .collect();
    serde_json::json!({
        "workers": report.workers.len(),
        "decisions": report.total_decisions(),
        "swaps": report.swaps.iter().map(|s| serde_json::json!({
            "generation": s.generation,
            "provenance": s.provenance,
            "at_micros": s.at_micros,
            "source": s.source,
        })).collect::<Vec<_>>(),
        "adaptations": report.adaptations.iter().map(|a| serde_json::json!({
            "generation": a.generation,
            "context": a.context,
            "resynthesized": a.resynthesized,
            "score": a.score,
            "source": a.source,
            "resynthesis_micros": a.resynthesis_micros,
            "retries": a.retries,
        })).collect::<Vec<_>>(),
        "rejections": report.rejections.iter().map(|r| serde_json::json!({
            "context": r.context,
            "source": r.source,
            "reason": r.reason,
            "candidate_score": r.candidate_score,
            "incumbent_score": r.incumbent_score,
            "rejection_micros": r.rejection_micros,
        })).collect::<Vec<_>>(),
        "quarantines": report.quarantines.iter().map(|q| serde_json::json!({
            "worker": q.worker,
            "generation": q.generation,
            "source": q.source,
            "fault": q.fault,
            "at_micros": q.at_micros,
        })).collect::<Vec<_>>(),
        "adoption_pauses_ns": {
            "count": pauses.len(),
            "median": pauses.get(pauses.len() / 2).copied().unwrap_or(0),
            "max": pauses.last().copied().unwrap_or(0),
        },
        "suppressed_triggers": report.suppressed_triggers,
        "post_swap_tail_slowdown": tail,
        "offline_tail_slowdown": offline_tail,
        "offline_fresh_batch_slowdown": offline_batch_slowdown,
        "offline_fresh_score": offline_score,
        "timeline_fields": ["worker", "seq", "phase", "decisions", "signal", "generation", "at_micros"],
        "timeline": timeline,
    })
}

// ---- 2. instrumentation overhead --------------------------------------

/// The policy the overhead arms serve.
const OVERHEAD_POLICY: &str = "server.work_left + req.size * 1000 / server.speed";

fn overhead(opts: &ExpOpts) -> Vec<String> {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let workers = hw.clamp(2, 4);
    let reps = if opts.fast { 4 } else { 20 };
    let rounds = if opts.fast { 3 } else { 7 };
    // quick mode runs on noisy shared CI runners; the full-run bound is
    // the honest one the acceptance gate uses
    let bound = if opts.fast { 0.75 } else { 0.90 };
    let base = scenario::uniform_fleet();
    let policy = compiled(OVERHEAD_POLICY, Mode::Lb);

    println!("\n== overhead: {workers} workers, best of {rounds} interleaved rounds ==");
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
        serve_lb(&shards, policy.clone(), &cfg, no_resynth())
    };

    let mut enabled_best = 0.0f64;
    let mut disabled_best = 0.0f64;
    let mut enabled_metrics = None;
    for round in 0..rounds {
        let on = run(true, opts.seed ^ round);
        let off = run(false, opts.seed ^ round);
        let (on_dps, off_dps) = (on.decisions_per_sec(), off.decisions_per_sec());
        println!("  round {round}: enabled {on_dps:>10.0} decisions/s, disabled {off_dps:>10.0}");
        if enabled_metrics.is_none() || on_dps > enabled_best {
            enabled_best = on_dps;
            enabled_metrics = Some(on.metrics);
        }
        disabled_best = disabled_best.max(off_dps);
    }
    let ratio = enabled_best / disabled_best;
    let enabled_metrics = enabled_metrics.expect("at least one round ran");
    println!(
        "  best: enabled {enabled_best:.0} vs disabled {disabled_best:.0} \
         → ratio {ratio:.4} (bound {bound})"
    );

    let mut violations = Vec::new();
    if enabled_metrics.counter("serve.decisions") == 0 {
        violations.push("overhead: the enabled arm's metrics accounted no decisions".into());
    }
    let latency = enabled_metrics.histogram("serve.decision_latency_ns");
    if latency.is_none_or(|h| h.count() == 0) {
        violations.push("overhead: the enabled arm sampled no decision latency".into());
    }
    let within_bound = ratio >= bound;
    if !within_bound {
        violations.push(format!(
            "overhead: instrumented/bare decision throughput {ratio:.4} < bound {bound}"
        ));
    }
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
    violations
}

// ---- 3. fault plans ---------------------------------------------------

/// Recovery budget: external faulting publish → quarantine → fallback
/// publish, measured on the run's clock.
const RECOVERY_BUDGET_MICROS: u64 = 2_000_000;
/// Quality floor: a plan's settled tail may be at most this factor worse
/// than the all-baseline reference run.
const QUALITY_FLOOR: f64 = 1.15;

/// A speed-aware stored heuristic (known-good in the onset context) the
/// outage plans fall back to.
const STORED_GOOD: &str = "server.inflight * 1000 / server.speed + server.queue_len * 50";

/// A fault plan's retry budget unless it says otherwise.
const RETRY: RetryPolicy =
    RetryPolicy { max_attempts: 6, backoff_base_ms: 1, backoff_cap_ms: 4, deadline_ms: 60_000 };

/// One fault plan: the runtime-side injections, the background
/// re-synthesis's inputs, and the serving knobs that make the mix bite.
struct Plan {
    /// Keys the plan's `chaos.json` row.
    name: &'static str,
    /// Telemetry perturbation, worker stalls, external publishes.
    spec: ChaosSpec,
    /// Wrap the re-synthesis generator in `FlakyGen` with this config.
    flaky_gen: Option<FlakyConfig>,
    /// Library entries present before serving starts, with a poisoned
    /// flag (a quarantine verdict carried over from an earlier run).
    seed_library: Vec<(LibraryEntry, bool)>,
    min_reuse_score: f64,
    retry: RetryPolicy,
}

impl Plan {
    /// `spec` alone: a healthy generator, an empty library, no reuse bar,
    /// [`RETRY`].
    fn new(name: &'static str, spec: ChaosSpec) -> Plan {
        Plan {
            name,
            spec,
            flaky_gen: None,
            seed_library: Vec::new(),
            min_reuse_score: 0.0,
            retry: RETRY,
        }
    }

    fn library(&self) -> HeuristicLibrary {
        let mut lib = HeuristicLibrary::new();
        for (e, poisoned) in &self.seed_library {
            lib.add(e.clone());
            if *poisoned {
                lib.poison(&e.source);
            }
        }
        lib
    }
}

fn entry(context: &str, source: &str) -> LibraryEntry {
    LibraryEntry { context: context.into(), source: source.into(), score: 0.5 }
}

/// The lb plan battery: every fault class alone, then all at once.
fn lb_plans(seed: u64) -> Vec<Plan> {
    let bad = faulting_source(Mode::Lb);
    let quiet = ChaosSpec { seed, ..ChaosSpec::default() };
    let external = |after_windows| Some(ExternalPublish { after_windows, source: bad.into() });
    let stall = Some(WorkerStall { every_decisions: 50_000, stall_micros: 200 });
    let stored = || vec![(entry("lb/earlier", STORED_GOOD), false)];
    // a quarantine verdict carried over from an earlier run: the poisoned
    // entry must stay invisible however good its score looks
    let poisoned =
        || vec![(entry("lb/poisoned", bad), true), (entry("lb/earlier", STORED_GOOD), false)];
    let flaky = |p_error, seed| FlakyConfig {
        p_error,
        p_garbage: 0.2,
        p_stall: 0.0,
        ..FlakyConfig::flaky(seed)
    };
    vec![
        Plan::new("no-fault", quiet.clone()),
        Plan {
            flaky_gen: Some(flaky(0.5, seed ^ 0xF1A)),
            retry: RetryPolicy { max_attempts: 8, ..RETRY },
            ..Plan::new("flaky-generator", quiet.clone())
        },
        // the dead generator must not be bailed out by cheap reuse: force
        // the search (and therefore the watchdog + abandon fallback) to run
        Plan {
            flaky_gen: Some(FlakyConfig::outage(seed ^ 0xDEAD)),
            seed_library: stored(),
            min_reuse_score: f64::INFINITY,
            retry: RetryPolicy { max_attempts: 2, backoff_cap_ms: 2, ..RETRY },
            ..Plan::new("generator-outage", quiet.clone())
        },
        Plan { seed_library: poisoned(), ..Plan::new("poisoned-library", quiet.clone()) },
        Plan::new("external-fault", ChaosSpec { external_publish: external(2), ..quiet.clone() }),
        Plan::new(
            "telemetry-chaos",
            ChaosSpec {
                telemetry: TelemetryChaos { p_drop: 0.25, p_duplicate: 0.25, p_reorder: 0.25 },
                ..quiet.clone()
            },
        ),
        Plan::new("worker-stall", ChaosSpec { worker_stall: stall, ..quiet }),
        Plan {
            flaky_gen: Some(flaky(0.4, seed ^ 0xA11)),
            seed_library: poisoned(),
            retry: RetryPolicy { max_attempts: 8, ..RETRY },
            ..Plan::new(
                "everything",
                ChaosSpec {
                    seed,
                    telemetry: TelemetryChaos { p_drop: 0.2, p_duplicate: 0.2, p_reorder: 0.2 },
                    worker_stall: stall,
                    external_publish: external(3),
                },
            )
        },
    ]
}

fn fault_plans(opts: &ExpOpts) -> Vec<String> {
    let mut violations = Vec::new();
    let mut rows = Vec::new();

    println!("\n== fault plans: lb serving ==");
    let (onset, shards) = drift_shards(if opts.fast { 10 } else { 30 }, opts.seed ^ 0xCA05);
    let lb_offered = offered(&shards);
    let search_cfg =
        SearchConfig { rounds: 2, candidates_per_round: 6, ..SearchConfig::quick() }.pipelined();
    // the reference: the man-made baseline serving the same streams with
    // no adaptation and no chaos (JSQ is also the initial policy, so every
    // plan starts from the reference and may only climb or recover)
    let base_cfg = ServeConfig { workers: WORKERS, window: 500, ..ServeConfig::default() };
    let jsq = compiled(baseline_source(Mode::Lb), Mode::Lb);
    let lb_baseline = serve_lb(&shards, jsq.clone(), &base_cfg, no_resynth());
    let lb_baseline_tail = settled_tail(&lb_baseline.windows, |w| w.phase > 0);
    println!("  baseline (JSQ, no faults): tail slowdown {lb_baseline_tail:.4}");
    for plan in lb_plans(opts.seed) {
        let cfg = ServeConfig {
            min_reuse_score: plan.min_reuse_score,
            retry: plan.retry,
            chaos: plan.spec.clone(),
            ..base_cfg.clone()
        };
        let resynth = resynth(&onset, opts.seed, plan.flaky_gen, search_cfg, plan.library());
        let report = serve_lb(&shards, jsq.clone(), &cfg, Some(resynth));
        let tails = (settled_tail(&report.windows, |w| w.phase > 0), lb_baseline_tail);
        rows.push(judge("lb", &plan, &report, lb_offered, tails, &mut violations));
    }

    println!("\n== fault plans: cache serving ==");
    let n = if opts.fast { 20_000 } else { 60_000 };
    let replay = loadgen::CacheReplay::new("cloudphysics", 10, n)
        .expect("the cloudphysics dataset has 105 traces");
    let capacity = (policysmith_traces::footprint_bytes(&replay.trace()) / 10).max(1);
    let cache_shards = replay.shards(WORKERS);
    let cache_offered: u64 = cache_shards.iter().map(|t| t.requests.len() as u64).sum();
    let good = compiled("obj.count * 20 - obj.age / 300 - obj.size / 500", Mode::Cache);
    let lru = compiled(baseline_source(Mode::Cache), Mode::Cache);
    let cache_baseline = serve_cache(&cache_shards, capacity, lru, &base_cfg, no_resynth());
    let cache_baseline_tail = settled_tail(&cache_baseline.windows, |_| true);
    println!("  baseline (LRU, no faults): tail miss ratio {cache_baseline_tail:.4}");
    let quiet = ChaosSpec { seed: opts.seed ^ 0xCC, ..ChaosSpec::default() };
    let external =
        ExternalPublish { after_windows: 2, source: faulting_source(Mode::Cache).into() };
    let cache_plans = [
        Plan::new("no-fault", quiet.clone()),
        Plan::new("external-fault", ChaosSpec { external_publish: Some(external), ..quiet }),
    ];
    for plan in cache_plans {
        let cfg = ServeConfig {
            workers: WORKERS,
            window: 256,
            chaos: plan.spec.clone(),
            ..ServeConfig::default()
        };
        let report = serve_cache(&cache_shards, capacity, good.clone(), &cfg, no_resynth());
        let tails = (settled_tail(&report.windows, |_| true), cache_baseline_tail);
        rows.push(judge("cache", &plan, &report, cache_offered, tails, &mut violations));
    }

    write_json(
        "chaos",
        &serde_json::json!({
            "quick": opts.fast,
            "seed": opts.seed,
            "recovery_budget_micros": RECOVERY_BUDGET_MICROS,
            "quality_floor": QUALITY_FLOOR,
            "plans": rows,
        }),
    );
    violations
}

/// Swap log climbs strictly; no worker's window stream ever steps back a
/// generation.
fn generations_monotonic(report: &ServeReport) -> bool {
    if !report.swaps.windows(2).all(|p| p[0].generation < p[1].generation) {
        return false;
    }
    for w in 0..report.workers.len() {
        let mut windows: Vec<_> = report.windows.iter().filter(|s| s.worker == w).collect();
        windows.sort_by_key(|s| s.seq);
        if !windows.windows(2).all(|p| p[0].generation <= p[1].generation) {
            return false;
        }
    }
    true
}

/// The runtime never (re-)deploys a poisoned policy: pre-poisoned sources
/// never reach the cell, and quarantined sources never appear in the
/// publish log after their first quarantine. Chaos-injected external
/// publishes are excluded — they ARE the injected fault (an operator
/// bypassing the guard), not a runtime decision; what matters is that the
/// runtime only ever answers them, never repeats them.
fn no_poisoned_redeploy(report: &ServeReport, preseeded: &[&str]) -> bool {
    let runtime_pubs: Vec<_> =
        report.swaps.iter().filter(|s| !s.provenance.starts_with("external publish")).collect();
    if runtime_pubs.iter().any(|s| preseeded.contains(&s.source.as_str())) {
        return false;
    }
    for q in &report.quarantines {
        let first = report
            .quarantines
            .iter()
            .filter(|x| x.source == q.source)
            .map(|x| x.generation)
            .min()
            .unwrap_or(q.generation);
        if runtime_pubs.iter().any(|s| s.source == q.source && s.generation > first) {
            return false;
        }
    }
    true
}

/// Micros from the external faulting publish to the quarantine-recovery
/// publish, on the run's clock. `None` when the plan had no external
/// publish, or when a newer generation superseded the fault before the
/// quarantine was processed (nothing left to recover).
fn recovery_micros(report: &ServeReport) -> Option<u64> {
    let ext = report.swaps.iter().find(|s| s.provenance.starts_with("external publish"))?;
    let rec = report
        .swaps
        .iter()
        .find(|s| s.generation > ext.generation && s.provenance.contains("quarantine recovery"))?;
    Some(rec.at_micros.saturating_sub(ext.at_micros))
}

/// Check one plan's run against every invariant, push a violation per
/// broken one, and return its `chaos.json` row. `tails` = (the plan's
/// settled tail, the baseline's).
fn judge(
    workload: &str,
    plan: &Plan,
    report: &ServeReport,
    offered: u64,
    (tail, baseline_tail): (f64, f64),
    violations: &mut Vec<String>,
) -> serde_json::Value {
    let before = violations.len();
    let mut violate = |what: String| violations.push(format!("[{workload}/{}] {what}", plan.name));

    // 1. zero dropped decisions, no dead threads
    let served = report.total_decisions();
    if served != offered {
        violate(format!("dropped decisions: served {served} of {offered}"));
    }
    if !report.failures.is_empty() {
        violate(format!("thread failures: {:?}", report.failures));
    }

    // 2. monotonic generations
    let monotonic = generations_monotonic(report);
    if !monotonic {
        violate("generations went backwards".into());
    }

    // 3. no poisoned policy ever (re-)deployed
    let preseeded: Vec<&str> = plan
        .seed_library
        .iter()
        .filter(|(_, poisoned)| *poisoned)
        .map(|(e, _)| e.source.as_str())
        .collect();
    let clean_redeploys = no_poisoned_redeploy(report, &preseeded);
    if !clean_redeploys {
        violate(format!("a poisoned policy reached the cell: {:?}", report.swaps));
    }

    // 4. bounded recovery (only judged when the plan injects a live fault)
    let rec = recovery_micros(report);
    if plan.spec.external_publish.is_some() {
        if report.quarantines.is_empty() {
            violate("the faulting policy was never caught".into());
        }
        match rec {
            Some(us) if us > RECOVERY_BUDGET_MICROS => {
                violate(format!("recovery took {us} µs (budget {RECOVERY_BUDGET_MICROS})"))
            }
            Some(_) => {}
            None => {
                // acceptable only if some newer publish superseded the fault
                let ext_gen = report
                    .swaps
                    .iter()
                    .find(|s| s.provenance.starts_with("external publish"))
                    .map_or(0, |s| s.generation);
                if report.swaps.last().map_or(0, |s| s.generation) <= ext_gen {
                    violate("the faulting policy stayed live with no recovery".into());
                }
            }
        }
    }

    // 5. quality floor vs the all-baseline reference
    let above_floor = tail <= baseline_tail * QUALITY_FLOOR;
    if !above_floor {
        violate(format!(
            "quality floor broken: tail {tail:.4} vs baseline {baseline_tail:.4} × {QUALITY_FLOOR}"
        ));
    }

    println!(
        "  [{workload}/{}] {}: {served} decisions, {} swaps, {} adaptations, {} rejections, {} quarantines, tail {tail:.4} (baseline {baseline_tail:.4}){}",
        plan.name,
        if violations.len() == before { "ok" } else { "VIOLATED" },
        report.swaps.len(),
        report.adaptations.len(),
        report.rejections.len(),
        report.quarantines.len(),
        rec.map(|us| format!(", recovered in {us} µs")).unwrap_or_default()
    );

    let st = report.chaos;
    serde_json::json!({
        "name": plan.name,
        "workload": workload,
        "decisions": served,
        "offered": offered,
        "swaps": report.swaps.iter().map(|s| serde_json::json!({
            "generation": s.generation,
            "provenance": s.provenance,
            "at_micros": s.at_micros,
            "source": s.source,
        })).collect::<Vec<_>>(),
        "adaptations": report.adaptations.len(),
        "retries": report.adaptations.iter().map(|a| a.retries).sum::<u32>(),
        "rejections": report.rejections.iter().map(|r| serde_json::json!({
            "reason": r.reason,
            "source": r.source,
        })).collect::<Vec<_>>(),
        "quarantines": report.quarantines.iter().map(|q| serde_json::json!({
            "worker": q.worker,
            "generation": q.generation,
            "source": q.source,
            "fault": q.fault,
        })).collect::<Vec<_>>(),
        "suppressed_triggers": report.suppressed_triggers,
        "telemetry_dropped": report.workers.iter().map(|w| w.telemetry_dropped).sum::<u64>(),
        "worker_quarantines": report.workers.iter().map(|w| w.quarantines).sum::<u64>(),
        "chaos": {
            "windows_dropped": st.windows_dropped,
            "windows_duplicated": st.windows_duplicated,
            "windows_reordered": st.windows_reordered,
            "external_publishes": st.external_publishes,
        },
        "tail_signal": tail,
        "baseline_tail_signal": baseline_tail,
        "recovery_micros": rec,
        "invariants": {
            "zero_dropped_decisions": served == offered && report.failures.is_empty(),
            "monotonic_generations": monotonic,
            "no_poisoned_redeploy": clean_redeploys,
            "bounded_recovery": rec.map(|us| us <= RECOVERY_BUDGET_MICROS),
            "quality_floor": above_floor,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(worker: usize, seq: u64, decisions: u64, signal: f64) -> WindowSample {
        WindowSample { worker, seq, phase: 1, decisions, signal, generation: 0, at_micros: seq }
    }

    #[test]
    fn settled_tail_takes_each_workers_last_half_by_seq() {
        // arrival order interleaves the workers; worker 1's early (stale)
        // window arrives last
        let windows = [
            window(0, 0, 10, 100.0),
            window(1, 1, 10, 2.0),
            window(0, 1, 10, 100.0),
            window(1, 2, 10, 2.0),
            window(0, 2, 10, 1.0),
            window(1, 3, 10, 2.0),
            window(0, 3, 30, 3.0),
            window(1, 0, 10, 50.0),
        ];
        // worker 0 keeps seq 2..=3, worker 1 seq 2..=3: both workers mix
        // into the tail, and worker 1's stale seq 0 is out
        let expected = (10.0 * 1.0 + 30.0 * 3.0 + 10.0 * 2.0 + 10.0 * 2.0) / 60.0;
        assert_eq!(settled_tail(&windows, |_| true), expected);
        // `keep` filters before halving; an empty window never counts
        let mut with_empty = windows.to_vec();
        with_empty.push(window(1, 4, 0, 1e9));
        assert_eq!(settled_tail(&with_empty, |w| w.worker == 1), 2.0);
        assert!(settled_tail(&windows, |_| false).is_nan());
    }
}
