//! The serving runtime: N worker threads answering decision requests off
//! thread-confined simulator engines, one hot-swap [`PolicyCell`], and a
//! background adaptation thread running the §3.1 loop continuously.
//!
//! ## Decision path (per worker)
//!
//! A worker owns its backing engine (a [`policysmith_lbsim::LbEngine`] fleet or a
//! [`Cache`]) and a host built from the policy generation it last
//! adopted. Per decision it (1) checks [`PolicyCell::generation`] — one
//! relaxed atomic load; (2) on change, pins a guard, clones the new
//! policy out of the cell, rebuilds its host, and records the adoption
//! pause; (3) runs the decision through the host. Decisions are never
//! dropped, and only an adoption (a few per run) takes the cell's lock: a
//! publish lands *between* two decisions, never inside one.
//!
//! ## Adaptation path (background, never stops serving)
//!
//! Workers send one [`WindowSample`] per window (window quality signal,
//! decision counts, serving generation) down one unbounded `mpsc`
//! channel: a send never blocks and never drops a sample while the
//! adaptation thread lives. A second `mpsc` channel carries control-plane
//! events (quarantine reports). Each worker keeps its own counts and its
//! own sampled latency histogram in plain fields; nothing reads them until
//! the worker has joined, when they become its [`WorkerStats`] and one
//! shard of [`ServeReport::metrics`].
//!
//! The adaptation thread (one private `Adapter`) drains the window channel
//! into the `AdaptiveController`'s [`ContextMonitor`]; every trigger then
//! walks the controller's one ladder ([`policysmith_core::library`]) from
//! the rung its cause puts it on:
//!
//! * **drift** — best stored entry at or over the reuse bar (`try_reuse`)
//!   → a full retried search ([`run_search_with_retry`]) → best stored
//!   entry at all when the search gave up (`finish_search`) → the
//!   incumbent stays live;
//! * **quarantine** — best stored entry at all (`recover`) → the domain's
//!   man-made baseline.
//!
//! Whatever the ladder yields goes live in exactly one place,
//! `Adapter::go_live` — the only `publish` on this thread and the only
//! writer of the publish log, [`ServeReport::swaps`]. The thread keeps no
//! copy of "what is live": it reads the cell back through its own reader
//! handle. Every `at_micros` in a report (swaps, windows, quarantines)
//! counts from the run's one start instant. Serving
//! continues at full rate throughout; the only cost any worker ever pays
//! is its own adoption pause (microseconds, measured).
//!
//! ## Fault path (the part production cares about)
//!
//! Three failure classes are survived, not assumed away:
//!
//! * **Bad candidates.** A drift answer is compiled once and passes the
//!   [`PolicyGuard`] before `go_live`: re-scored in the drifted context,
//!   shadow-replayed against the incumbent. Regressions, check failures,
//!   and runtime-faulting candidates become [`RejectedAdaptation`]
//!   records instead of live policies.
//! * **Faulting live policies.** A worker whose host trips its fault
//!   latch mid-serve demotes *locally* to the domain's man-made baseline
//!   (JSQ / LRU) without dropping a decision, and reports a
//!   [`QuarantineReport`]; the adaptation thread poisons the source in the
//!   library and publishes what the quarantine rungs yield.
//! * **Broken generators.** Background re-synthesis runs under a
//!   [`RetryPolicy`] (bounded exponential backoff + watchdog deadline);
//!   past it the next rung answers instead of adaptation blocking forever.
//!
//! A dead telemetry receiver never panics a worker: the worker keeps
//! serving without telemetry and the drops are counted in
//! [`WorkerStats::telemetry_dropped`]. Worker/background panics are
//! reported in [`ServeReport::failures`] rather than propagated.

use crate::chaos::{ChaosSpec, ChaosStats, TelemetryInjector};
use crate::guard::{GuardVerdict, PolicyGuard, RejectReason};
use crate::swap::{PolicyCell, ReaderHandle};
use crate::telemetry::WindowSample;
use policysmith_cachesim::{Cache, PriorityPolicy, SimResult};
use policysmith_core::library::{
    run_search_with_retry, Adaptation, AdaptiveController, ContextMonitor, HeuristicLibrary,
    RetryPolicy,
};
use policysmith_core::search::{SearchConfig, Study};
use policysmith_dsl::{to_source, Mode};
use policysmith_gen::Generator;
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{
    run_phased_windowed, DispatchView, Dispatcher, ExprDispatcher, LbMetrics, Scenario,
};
use policysmith_obs::{LatencyHistogram, MetricsSnapshot, TraceKind};
use policysmith_traces::Trace;
use std::cell::RefCell;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Runtime knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker (serving) threads: one per shard. A serve run panics unless
    /// it equals the number of shards it is given.
    pub workers: usize,
    /// Decisions per telemetry window (≥ 1).
    pub window: usize,
    /// Sample every k-th decision's latency (1 = all; >1 keeps the
    /// clock off the hot path at high decision rates).
    pub latency_sample_every: u64,
    /// Drift monitor: rolling windows per mean.
    pub monitor_window: usize,
    /// Drift monitor: degradation tolerance (e.g. 1.35 = trigger at +35%).
    pub monitor_tolerance: f64,
    /// Reuse bar for stored heuristics on drift (study-score units).
    pub min_reuse_score: f64,
    /// Record every decision (the differential tests; costs memory).
    pub record_decisions: bool,
    /// Retry/backoff + watchdog for background re-synthesis.
    pub retry: RetryPolicy,
    /// Deterministic fault injection (tests and the chaos harness). The
    /// default all-zero spec is the plain serve path.
    pub chaos: ChaosSpec,
    /// Hot-path instrumentation: decision-latency sampling, and
    /// [`ServeReport::metrics`]. `false` turns latency sampling off and
    /// leaves the snapshot empty — the control arm of `exp_serve`'s
    /// overhead section. Workers count decisions, windows, quarantines and
    /// adoption pauses either way, and telemetry *windows* still flow: the
    /// adaptation loop needs them.
    pub instrument: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            window: 500,
            latency_sample_every: 4,
            monitor_window: 6,
            monitor_tolerance: 1.35,
            min_reuse_score: 0.0,
            record_decisions: false,
            retry: RetryPolicy::serving(),
            chaos: ChaosSpec::default(),
            instrument: true,
        }
    }
}

/// The background re-synthesis half of a serve run: the drifted-context
/// study the controller scores against, and the generator + search budget
/// it may spend. `None` disables adaptation (the cell still accepts
/// external publishes).
pub struct Resynth<S: Study> {
    /// Context name recorded in the library (e.g. `lb/slow-node-onset`).
    pub context: String,
    /// Study of the (drifted) context.
    pub study: S,
    /// Generator the background search drives.
    pub generator: Box<dyn Generator + Send>,
    /// Search budget. Use [`SearchConfig::pipelined`] — the search runs on
    /// the adaptation thread, and with lagged exemplars that thread
    /// generates the next round while the eval workers score this one.
    pub search: SearchConfig,
    /// Library entries available before the run starts (earlier
    /// deployments; possibly with poisoned sources carried over).
    pub library: HeuristicLibrary,
}

/// One publish, as the serve run's publish log records it.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapRecord {
    /// Generation installed by this publish (the initial value is
    /// generation 0; the first publish installs generation 1).
    pub generation: u64,
    /// Who/why: e.g. `"adaptation #1: resynthesized for lb/slow-node-onset"`.
    pub provenance: String,
    /// Microseconds from the run's start to the publish.
    pub at_micros: u64,
    /// Source of the published policy.
    pub source: String,
}

/// What one drift trigger did, for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationEvent {
    /// Generation the answer was published as.
    pub generation: u64,
    /// Context the controller adapted to.
    pub context: String,
    /// Did a fresh search run and win (vs a library reuse)?
    pub resynthesized: bool,
    /// Deployed policy's score in the drifted context.
    pub score: f64,
    /// Deployed policy source.
    pub source: String,
    /// Microseconds from drift trigger to publish (the background
    /// re-synthesis latency — serving continues throughout).
    pub resynthesis_micros: u64,
    /// Failed search attempts retried before this adaptation landed
    /// (0 = the first attempt won, or no search was needed).
    pub retries: u32,
}

/// [`AdaptationEvent`]'s counterpart for triggers that did **not** change
/// the live policy: guard rejections and abandoned searches, with the
/// reason, instead of vanishing silently.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedAdaptation {
    /// Context the rejected adaptation was answering.
    pub context: String,
    /// Candidate source (empty when the search never produced one).
    pub source: String,
    /// Why it was rejected, rendered for logs.
    pub reason: String,
    /// Candidate's score in the drifted context (`-∞` when unscorable).
    pub candidate_score: f64,
    /// Shadow-replayed incumbent's score (`-∞` when unscorable, NaN when
    /// the comparison never ran).
    pub incumbent_score: f64,
    /// Microseconds from drift trigger to rejection.
    pub rejection_micros: u64,
}

/// A worker tripped its host's fault latch mid-serve and demoted to the
/// safe baseline (the fallback chain's local, zero-drop leg).
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineReport {
    /// Worker that caught the fault.
    pub worker: usize,
    /// Generation of the policy that faulted.
    pub generation: u64,
    /// Source of the offending policy (poisoned in the library on
    /// arrival).
    pub source: String,
    /// The latched runtime fault, rendered.
    pub fault: String,
    /// Microseconds from the run's start to the latch tripping.
    pub at_micros: u64,
}

/// One worker's serving outcome.
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Decisions served (every offered request was decided — the runtime
    /// never drops or blocks a decision).
    pub decisions: u64,
    /// Wall-clock seconds from the run's start to this worker's finish.
    pub wall_seconds: f64,
    /// Sampled decision latencies, ns (empty when
    /// [`ServeConfig::instrument`] is off).
    pub latency: LatencyHistogram,
    /// Policy-adoption pauses, ns (one entry per generation adopted after
    /// the first).
    pub swap_pauses_ns: Vec<u64>,
    /// Final cumulative lb metrics (lb workers).
    pub lb_metrics: Option<LbMetrics>,
    /// Final cache counters (cache workers).
    pub cache_result: Option<SimResult>,
    /// Every decision in order (only when
    /// [`ServeConfig::record_decisions`]): lb = server index picked,
    /// cache = 1 hit / 0 miss.
    pub decisions_log: Option<Vec<u32>>,
    /// Telemetry messages that could not be delivered (receiver gone).
    /// The worker keeps serving without telemetry — degraded, recorded,
    /// never a panic.
    pub telemetry_dropped: u64,
    /// Fault-latch demotions this worker performed (one per quarantine).
    pub quarantines: u64,
    /// Telemetry windows this worker closed (one [`WindowSample`] each).
    pub windows: u64,
}

/// Everything a finished serve run reports.
pub struct ServeReport {
    /// Per-worker outcomes.
    pub workers: Vec<WorkerStats>,
    /// Every telemetry window, in controller-arrival order (after any
    /// chaos perturbation).
    pub windows: Vec<WindowSample>,
    /// The publish log: one entry per publish, in order — adaptations,
    /// quarantine recoveries, and chaos-injected external publishes alike.
    /// The audit trail for "no poisoned policy was ever re-deployed".
    pub swaps: Vec<SwapRecord>,
    /// Every background adaptation that changed the live policy, in order.
    pub adaptations: Vec<AdaptationEvent>,
    /// Guard rejections and abandoned searches, in order.
    pub rejections: Vec<RejectedAdaptation>,
    /// Every quarantine reported by a worker, in arrival order.
    pub quarantines: Vec<QuarantineReport>,
    /// Drift triggers whose adaptation re-selected the already-live
    /// source: answered by the controller, but not published (a no-op
    /// swap would only churn generations). A noisy quality signal under a
    /// tight tolerance shows up here instead of in the swap log.
    pub suppressed_triggers: u64,
    /// Worker or background threads that panicked (their results are
    /// missing from the report; everything else is intact).
    pub failures: Vec<String>,
    /// What the chaos layer injected (all zeros without a spec).
    pub chaos: ChaosStats,
    /// The controller after the run (library, monitor, adaptation trail).
    pub controller: AdaptiveController,
    /// Wall-clock seconds from the run's start to the last worker's finish.
    pub wall_seconds: f64,
    /// The workers' counts as a self-describing metric set, one shard per
    /// joined worker (embeds into results JSON via
    /// [`MetricsSnapshot::to_value`]): counters `serve.decisions`,
    /// `serve.windows`, `serve.quarantines`; histograms
    /// `serve.decision_latency_ns`, `serve.adoption_pause_ns`. Empty when
    /// [`ServeConfig::instrument`] is off.
    pub metrics: MetricsSnapshot,
}

impl ServeReport {
    /// Total decisions across workers.
    pub fn total_decisions(&self) -> u64 {
        self.workers.iter().map(|w| w.decisions).sum()
    }

    /// Aggregate decisions per second (total decisions over the run's
    /// wall time — the sustained-throughput figure).
    pub fn decisions_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.total_decisions() as f64 / self.wall_seconds
    }

    /// Fleet-wide latency histogram (merged worker samples).
    pub fn latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for w in &self.workers {
            h.merge(&w.latency);
        }
        h
    }

    /// All adoption pauses across workers, ns.
    pub fn swap_pauses_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.workers.iter().flat_map(|w| w.swap_pauses_ns.iter().copied()).collect();
        v.sort_unstable();
        v
    }
}

/// [`ServeReport::metrics`], assembled from the joined workers' own
/// counts: each worker is one shard, in worker order.
fn metrics_snapshot(stats: &[WorkerStats], instrument: bool) -> MetricsSnapshot {
    let mut snapshot =
        MetricsSnapshot { shards: stats.len(), counters: Vec::new(), histograms: Vec::new() };
    if !instrument {
        return snapshot;
    }
    let counter = |name: &str, count: fn(&WorkerStats) -> u64| {
        let per_shard: Vec<u64> = stats.iter().map(count).collect();
        (name.to_string(), per_shard.iter().sum(), per_shard)
    };
    snapshot.counters = vec![
        counter("serve.decisions", |w| w.decisions),
        counter("serve.windows", |w| w.windows),
        counter("serve.quarantines", |w| w.quarantines),
    ];
    let (mut latency, mut pause) = (LatencyHistogram::new(), LatencyHistogram::new());
    for w in stats {
        latency.merge(&w.latency);
        w.swap_pauses_ns.iter().for_each(|&ns| pause.record(ns));
    }
    snapshot.histograms = vec![
        ("serve.decision_latency_ns".to_string(), latency),
        ("serve.adoption_pause_ns".to_string(), pause),
    ];
    snapshot
}

/// What the adaptation thread hands back when the last worker hangs up.
#[derive(Default)]
struct BackgroundReport {
    windows: Vec<WindowSample>,
    adaptations: Vec<AdaptationEvent>,
    rejections: Vec<RejectedAdaptation>,
    quarantines: Vec<QuarantineReport>,
    suppressed: u64,
    swaps: Vec<SwapRecord>,
    chaos: ChaosStats,
}

/// Compile the domain's man-made baseline (see
/// [`crate::chaos::baseline_source`]) — static sources, so the expects
/// are unreachable by construction.
fn compile_baseline(mode: Mode) -> CompiledPolicy {
    CompiledPolicy::from_source(crate::chaos::baseline_source(mode), mode)
        .expect("man-made baselines compile")
}

/// Serve lb dispatch decisions: worker `w` plays `shards[w]` (a phase
/// sequence — phase boundaries are the drift injection) through its own
/// [`policysmith_lbsim::LbEngine`], dispatching every arrival with the currently-published
/// policy. See [`lb_shards`](crate::loadgen::lb_shards) for building the shards.
pub fn serve_lb<S: Study + Send>(
    shards: &[Vec<Scenario>],
    initial: CompiledPolicy,
    cfg: &ServeConfig,
    resynth: Option<Resynth<S>>,
) -> ServeReport {
    assert!(!shards.is_empty() && shards.iter().all(|s| !s.is_empty()), "need phases per worker");
    debug_assert_eq!(initial.mode(), Mode::Lb);
    let baseline = compile_baseline(Mode::Lb);
    serve(cfg, initial, baseline, resynth, shards, |shard, shell, initial| {
        run_lb_worker(shard, shell, initial, cfg.window)
    })
}

/// Serve cache decisions: worker `w` replays `shards[w]` through its own
/// [`Cache`] sized at `capacity` bytes, every request priced by the
/// currently-published priority policy. See [`CacheReplay`](crate::loadgen::CacheReplay).
pub fn serve_cache<S: Study + Send>(
    shards: &[Trace],
    capacity: u64,
    initial: CompiledPolicy,
    cfg: &ServeConfig,
    resynth: Option<Resynth<S>>,
) -> ServeReport {
    assert!(!shards.is_empty(), "need a trace per worker");
    debug_assert_eq!(initial.mode(), Mode::Cache);
    let baseline = compile_baseline(Mode::Cache);
    serve(cfg, initial, baseline, resynth, shards, |trace, shell, initial| {
        run_cache_worker(trace, capacity, shell, initial, cfg.window)
    })
}

/// Render a thread's panic payload for [`ServeReport::failures`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// The shared scaffold: spawn one worker per shard plus the adaptation
/// thread, join everything (a panicking thread degrades the report, it
/// does not take the run down), assemble the report. Panics unless
/// `cfg.workers` equals the number of shards and `cfg.window` is at least 1.
fn serve<S: Study + Send, ShardInput: Sync>(
    cfg: &ServeConfig,
    initial: CompiledPolicy,
    baseline: CompiledPolicy,
    resynth: Option<Resynth<S>>,
    shards: &[ShardInput],
    worker_fn: impl Fn(&ShardInput, ServeWorker<'_>, CompiledPolicy) -> WorkerStats + Sync,
) -> ServeReport {
    assert_eq!(cfg.workers, shards.len(), "ServeConfig::workers must equal the number of shards");
    assert!(cfg.window >= 1, "ServeConfig::window must be at least one decision");
    debug_assert_eq!(baseline.mode(), initial.mode());
    // one reader per worker, one for the adaptation thread
    let cell = PolicyCell::new(initial, shards.len() + 1);
    let (ctl_tx, ctl_rx) = mpsc::channel::<QuarantineReport>();
    let (window_tx, window_rx) = mpsc::channel::<WindowSample>();
    let monitor = ContextMonitor::new(cfg.monitor_window, cfg.monitor_tolerance);
    let seed_library = resynth.as_ref().map(|r| r.library.clone()).unwrap_or_default();
    let mut controller =
        AdaptiveController::new(monitor, cfg.min_reuse_score).with_library(seed_library);

    // the run's one clock: every `at_micros` in the report counts from here
    let start = Instant::now();
    let mut failures = Vec::new();
    let (stats, background) = std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(shards.len());
        for (w, shard) in shards.iter().enumerate() {
            let mut handle = cell.register();
            let (windows, control) = (window_tx.clone(), ctl_tx.clone());
            let (worker_fn, baseline) = (&worker_fn, &baseline);
            joins.push(scope.spawn(move || {
                let generation = handle.cell().generation();
                // initial adoption is deployment, not a swap: not a recorded pause
                let initial = handle.pin().clone();
                let shell = ServeWorker {
                    worker: w,
                    start,
                    handle,
                    generation,
                    pauses_ns: Vec::new(),
                    latency: LatencyHistogram::new(),
                    sample_every: cfg.latency_sample_every.max(1),
                    next_sample: if cfg.instrument { 0 } else { u64::MAX },
                    decisions: 0,
                    log: cfg.record_decisions.then(Vec::new),
                    windows,
                    seq: 0,
                    control,
                    baseline: baseline.clone(),
                    current_source: to_source(initial.expr()),
                    in_fallback: false,
                    quarantines: 0,
                    dropped: 0,
                    stall: cfg.chaos.worker_stall,
                };
                worker_fn(shard, shell, initial)
            }));
        }
        // the adaptation loop ends when the last worker hangs up
        drop((window_tx, ctl_tx));
        let adapter = Adapter {
            controller: &mut controller,
            resynth,
            live: cell.register(),
            baseline: &baseline,
            cfg,
            start,
            report: BackgroundReport::default(),
        };
        let background = scope.spawn(move || adapter.run(ctl_rx, window_rx));
        // graceful joins: a panicked worker loses its stats, not the run
        let mut stats = Vec::new();
        for (w, join) in joins.into_iter().enumerate() {
            match join.join() {
                Ok(s) => stats.push(s),
                Err(p) => failures.push(format!("worker {w} panicked: {}", panic_message(&*p))),
            }
        }
        let background = match background.join() {
            Ok(b) => b,
            Err(p) => {
                failures.push(format!("adaptation thread panicked: {}", panic_message(&*p)));
                BackgroundReport::default()
            }
        };
        (stats, background)
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    ServeReport {
        metrics: metrics_snapshot(&stats, cfg.instrument),
        workers: stats,
        windows: background.windows,
        swaps: background.swaps,
        adaptations: background.adaptations,
        rejections: background.rejections,
        quarantines: background.quarantines,
        suppressed_triggers: background.suppressed,
        failures,
        chaos: background.chaos,
        controller,
        wall_seconds,
    }
}

/// The adaptation thread's state: the background §3.1 loop — drain
/// telemetry, detect drift, answer it without ever pausing the workers —
/// with guarded publication, quarantine handling, and a retried,
/// watchdogged search.
struct Adapter<'a, S: Study> {
    controller: &'a mut AdaptiveController,
    resynth: Option<Resynth<S>>,
    /// This thread's reader handle. The cell is the only record of what is
    /// live; the incumbent is read back from it, never remembered.
    live: ReaderHandle<'a, CompiledPolicy>,
    baseline: &'a CompiledPolicy,
    cfg: &'a ServeConfig,
    /// The run's start: the clock of [`SwapRecord::at_micros`].
    start: Instant,
    report: BackgroundReport,
}

impl<S: Study> Adapter<'_, S> {
    /// Two channels feed the loop: window samples (polled) and quarantine
    /// reports (blocked on with a short timeout when no window is queued,
    /// so quarantines are answered promptly without busy-spinning). It
    /// exits once both channels have disconnected — every worker returned
    /// — and are drained, so no window a worker sent is ever lost.
    fn run(
        mut self,
        control: mpsc::Receiver<QuarantineReport>,
        windows: mpsc::Receiver<WindowSample>,
    ) -> BackgroundReport {
        let chaos = &self.cfg.chaos;
        let mut injector = TelemetryInjector::new(chaos.telemetry, chaos.seed);
        let mut pending_external = chaos.external_publish.as_ref();
        let mut arrivals = 0u64;
        let mut deliveries: Vec<WindowSample> = Vec::new();
        let (mut control_done, mut windows_done) = (false, false);

        loop {
            // window channel: drain everything queued right now
            let mut drained_any = false;
            loop {
                let sample = match windows.try_recv() {
                    Ok(sample) => sample,
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        windows_done = true;
                        break;
                    }
                };
                drained_any = true;
                arrivals += 1;

                // chaos: an operator pushes a policy straight past the guard
                if let Some(ext) = pending_external.filter(|e| arrivals >= e.after_windows) {
                    pending_external = None;
                    if let Ok(policy) =
                        CompiledPolicy::from_source(&ext.source, self.baseline.mode())
                    {
                        self.go_live(policy, format!("external publish (chaos): {}", ext.source));
                        self.report.chaos.external_publishes += 1;
                    }
                }

                injector.apply(sample, &mut deliveries);
                for sample in deliveries.drain(..) {
                    self.window(sample);
                }
            }

            // control channel: quarantines (and worker-completion tracking)
            loop {
                match control.try_recv() {
                    Ok(q) => self.quarantine(q),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        control_done = true;
                        break;
                    }
                }
            }

            if control_done && windows_done {
                break;
            }
            if !drained_any {
                if control_done {
                    // the last worker hung up between the two polls above;
                    // wait briefly and re-drain the window channel
                    std::thread::sleep(Duration::from_micros(50));
                } else {
                    match control.recv_timeout(Duration::from_micros(200)) {
                        Ok(q) => self.quarantine(q),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => control_done = true,
                    }
                }
            }
        }
        injector.flush(&mut deliveries);
        for sample in deliveries.drain(..) {
            self.window(sample);
        }
        self.report.chaos = ChaosStats {
            external_publishes: self.report.chaos.external_publishes,
            ..injector.stats()
        };
        self.report
    }

    /// The one way a policy becomes live on this thread: publish it and
    /// append it to the publish log. Returns the generation it was
    /// installed as.
    fn go_live(&mut self, policy: CompiledPolicy, why: String) -> u64 {
        let source = to_source(policy.expr());
        // stamped before the publish, so no worker can serve (and stamp a
        // window with) the new generation before its swap's `at_micros`
        let at_micros = self.start.elapsed().as_micros() as u64;
        let generation = self.live.cell().publish(policy, why.clone());
        self.report.swaps.push(SwapRecord { generation, provenance: why, at_micros, source });
        generation
    }

    /// One quarantine: poison the offender, and if it is still live, walk
    /// the ladder's quarantine rungs — best stored entry at all, else the
    /// man-made baseline.
    fn quarantine(&mut self, q: QuarantineReport) {
        self.controller.poison(&q.source);
        let still_live = self.live.cell().generation() == q.generation;
        let after = format!("after worker {} faulted gen {}: {}", q.worker, q.generation, q.fault);
        self.report.quarantines.push(q);
        if !still_live {
            // a newer publish already superseded the faulting policy (another
            // worker's quarantine was answered, or an adaptation landed);
            // poisoning it is all that is left to do
            return;
        }
        let stored = self.resynth.as_ref().and_then(|r| self.controller.recover(&r.study));
        // a stored entry the serving mode cannot compile is no recovery
        let (policy, rung) = match stored
            .and_then(|a| CompiledPolicy::from_source(&a.entry().source, self.baseline.mode()).ok())
        {
            Some(policy) => (policy, "library entry"),
            None => (self.baseline.clone(), "baseline"),
        };
        self.go_live(policy, format!("quarantine recovery ({rung}) {after}"));
    }

    /// One (possibly chaos-perturbed) telemetry window through the drift →
    /// ladder → compile → guard → `go_live` pipeline.
    fn window(&mut self, sample: WindowSample) {
        // Only observe windows served by the live generation: samples that
        // were in flight while a search ran describe the deposed policy,
        // and re-triggering on them would answer drift that is already
        // answered.
        let stale = sample.generation < self.live.cell().generation();
        let signal = sample.signal;
        self.report.windows.push(sample);
        if stale || !self.controller.observe(signal) {
            return;
        }
        let Some(r) = self.resynth.as_mut() else { return };
        let t0 = Instant::now();
        let context = &r.context;
        // the one record of a trigger that did not change the live policy
        let reject = |source, reason, candidate_score, incumbent_score| RejectedAdaptation {
            context: context.clone(),
            source,
            reason,
            candidate_score,
            incumbent_score,
            rejection_micros: t0.elapsed().as_micros() as u64,
        };
        let mut retries = 0u32;
        let adaptation = match self.controller.try_reuse(&r.study) {
            Ok(adaptation) => adaptation,
            Err(ticket) => {
                // The blocking part runs HERE, on the adaptation thread —
                // workers keep serving decisions against the old policy
                // until `go_live` below. The search itself runs under the
                // retry policy: transient generator failures back off and
                // retry; a persistent outage trips the watchdog.
                let retried = run_search_with_retry(
                    &r.study,
                    r.generator.as_mut(),
                    &r.search,
                    &self.cfg.retry,
                );
                retries = retried.failures.len() as u32;
                let gave_up = retried.result.as_ref().err().copied();
                let winner = retried.result.ok().map(|outcome| outcome.best);
                let answer = self.controller.finish_search(context, ticket, winner);
                if let Some(why) = gave_up {
                    // the next rung down answers (or nothing does); either
                    // way the give-up is on the record
                    let last_err = retried.failures.last().map_or("", String::as_str);
                    let note = if answer.is_some() {
                        "falling back to the best stored entry"
                    } else {
                        "nothing stored is deployable; the incumbent stays live"
                    };
                    let reason = format!(
                        "re-synthesis gave up after {retries} failed attempts ({why}; last: {last_err}); {note}"
                    );
                    self.report.rejections.push(reject(
                        String::new(),
                        reason,
                        f64::NEG_INFINITY,
                        f64::NEG_INFINITY,
                    ));
                }
                let Some(adaptation) = answer else { return };
                adaptation
            }
        };
        let source = adaptation.entry().source.clone();
        let policy = match CompiledPolicy::from_source(&source, self.baseline.mode()) {
            Ok(policy) => policy,
            // a library source the serving mode cannot compile cannot go
            // live — reject with reason rather than panicking the thread
            Err(e) => {
                let reason = format!("check failed: {e}");
                self.report.rejections.push(reject(source, reason, f64::NEG_INFINITY, f64::NAN));
                return;
            }
        };
        let incumbent = self.live.pin().expr().clone();
        if *policy.expr() == incumbent {
            // the controller re-selected what is already serving — the
            // initially-deployed policy included (the comparison is
            // structural, so formatting differences don't defeat it): a
            // noisy signal re-fired the monitor, and publishing again
            // would only churn generations for a policy nobody replaces
            self.report.suppressed += 1;
            return;
        }
        // guarded publication: re-score the candidate and shadow-replay the
        // incumbent in the drifted context before anything goes live
        match PolicyGuard.screen(&r.study, &source, &to_source(&incumbent)) {
            GuardVerdict::Admit { candidate_score, incumbent_score } => {
                policysmith_obs::emit(TraceKind::GuardAdmit {
                    context: context.clone(),
                    candidate_score,
                    incumbent_score,
                });
            }
            GuardVerdict::Reject { reason, candidate_score, incumbent_score } => {
                if matches!(reason, RejectReason::RuntimeFault) {
                    // a candidate that faults in shadow evaluation would
                    // fault in production: quarantine it preemptively
                    self.controller.poison(&source);
                }
                let reason = reason.describe();
                policysmith_obs::emit(TraceKind::GuardReject {
                    context: context.clone(),
                    reason: reason.clone(),
                    candidate_score,
                    incumbent_score,
                });
                self.report.rejections.push(reject(
                    source,
                    reason,
                    candidate_score,
                    incumbent_score,
                ));
                return;
            }
        }
        let (verb, score) = match &adaptation {
            Adaptation::FromLibrary { score, .. } => ("reused", *score),
            Adaptation::Resynthesized { entry } => ("resynthesized", entry.score),
        };
        let context = context.clone();
        let generation = self.go_live(
            policy,
            format!(
                "adaptation #{}: {verb} for {context} ({score:+.4})",
                self.report.adaptations.len() + 1
            ),
        );
        self.report.adaptations.push(AdaptationEvent {
            generation,
            context,
            resynthesized: adaptation.resynthesized(),
            score,
            source,
            resynthesis_micros: t0.elapsed().as_micros() as u64,
            retries,
        });
    }
}

/// The two things that differ per domain inside the per-decision shell:
/// how a host takes on a policy, and where its fault latch is read.
trait ServeHost {
    /// Host `policy` from the next decision on (a fresh fault latch).
    fn adopt(&mut self, policy: CompiledPolicy);
    /// The host's latched runtime fault, rendered.
    fn fault(&self) -> Option<String>;
}

/// Scoring goes through `ExprDispatcher::new`'s default engine: the
/// batched scan over the fleet columns the engine lends it, one fused
/// `run_columns_argmin` call per pick.
impl ServeHost for ExprDispatcher {
    fn adopt(&mut self, policy: CompiledPolicy) {
        *self = ExprDispatcher::new("serve", policy);
    }

    fn fault(&self) -> Option<String> {
        self.first_error().map(|f| f.to_string())
    }
}

impl ServeHost for Cache<PriorityPolicy> {
    fn adopt(&mut self, policy: CompiledPolicy) {
        // swap_policy resets the fault latch along with the policy
        self.policy.swap_policy(policy);
    }

    fn fault(&self) -> Option<String> {
        self.policy.first_error().map(|f| f.to_string())
    }
}

/// One worker's per-decision serve shell, the same for every domain.
/// Per decision it (1) adopts any newly published generation (pin →
/// clone → [`ServeHost::adopt`], timed as the adoption pause), (2) runs
/// the decision through the host, sampling its latency and optionally
/// recording it, (3) checks the host's fault latch — a tripped latch
/// demotes this worker to the man-made baseline on the spot (the host
/// already degraded that decision internally; none is dropped) and
/// reports the quarantine. It also owns the worker's window sender and
/// its counts, which become its [`WorkerStats`].
struct ServeWorker<'c> {
    worker: usize,
    /// The run's start: the clock of every `at_micros` this worker stamps.
    start: Instant,
    handle: ReaderHandle<'c, CompiledPolicy>,
    /// Generation of the policy currently hosted; window samples report it.
    generation: u64,
    pauses_ns: Vec<u64>,
    /// Sampled decision latencies, ns.
    latency: LatencyHistogram,
    /// Time every `sample_every`-th decision: the next one timed is
    /// decision `next_sample` (`u64::MAX`, never reached, with
    /// instrumentation off). A compare per decision, not a division.
    sample_every: u64,
    next_sample: u64,
    decisions: u64,
    log: Option<Vec<u32>>,
    windows: mpsc::Sender<WindowSample>,
    seq: u64,
    // -- fault path --
    control: mpsc::Sender<QuarantineReport>,
    baseline: CompiledPolicy,
    /// Source of the policy currently hosted (what a quarantine names).
    current_source: String,
    /// Serving the baseline after a fault latch; cleared on the next
    /// adoption (the recovery publish).
    in_fallback: bool,
    quarantines: u64,
    /// Telemetry and control messages that found their receiver gone.
    dropped: u64,
    stall: Option<crate::chaos::WorkerStall>,
}

impl ServeWorker<'_> {
    #[inline]
    fn decide<H: ServeHost>(&mut self, host: &mut H, f: impl FnOnce(&mut H) -> u32) -> u32 {
        let now = self.handle.cell().generation();
        if now != self.generation {
            let t0 = Instant::now();
            let policy = self.handle.pin().clone();
            self.current_source = to_source(policy.expr());
            host.adopt(policy);
            self.in_fallback = false;
            self.generation = now;
            self.pauses_ns.push(t0.elapsed().as_nanos() as u64);
        }
        // chaos: a periodic decision-path stall (deterministic in decision
        // count, so it needs no rng)
        if let Some(st) = self.stall {
            if st.every_decisions > 0
                && self.decisions > 0
                && self.decisions.is_multiple_of(st.every_decisions)
            {
                std::thread::sleep(Duration::from_micros(st.stall_micros));
            }
        }
        let t0 = (self.decisions == self.next_sample).then(|| {
            self.next_sample += self.sample_every;
            Instant::now()
        });
        let decision = f(host);
        if let Some(t0) = t0 {
            self.latency.record(t0.elapsed().as_nanos() as u64);
        }
        // safe-fallback chain, local leg: the host latched a runtime fault
        // (it already degraded this decision internally — nothing was
        // dropped); demote to the baseline and report the quarantine
        if !self.in_fallback {
            if let Some(fault) = host.fault() {
                policysmith_obs::emit(TraceKind::Demotion {
                    worker: self.worker,
                    generation: self.generation,
                    fault: fault.clone(),
                });
                let q = QuarantineReport {
                    worker: self.worker,
                    generation: self.generation,
                    source: self.current_source.clone(),
                    fault,
                    at_micros: self.start.elapsed().as_micros() as u64,
                };
                if self.control.send(q).is_err() {
                    self.dropped += 1;
                }
                host.adopt(self.baseline.clone());
                self.in_fallback = true;
                self.quarantines += 1;
            }
        }
        if let Some(log) = self.log.as_mut() {
            log.push(decision);
        }
        self.decisions += 1;
        decision
    }

    fn send_window(&mut self, phase: usize, decisions: u64, signal: f64) {
        let sample = WindowSample {
            worker: self.worker,
            seq: self.seq,
            phase,
            decisions,
            signal,
            generation: self.generation,
            at_micros: self.start.elapsed().as_micros() as u64,
        };
        // a dead receiver must not panic a serving worker: keep serving
        // without telemetry, count the degradation
        if self.windows.send(sample).is_err() {
            self.dropped += 1;
        }
        self.seq += 1;
    }

    fn into_stats(
        self,
        lb_metrics: Option<LbMetrics>,
        cache_result: Option<SimResult>,
    ) -> WorkerStats {
        WorkerStats {
            worker: self.worker,
            decisions: self.decisions,
            wall_seconds: self.start.elapsed().as_secs_f64(),
            latency: self.latency,
            swap_pauses_ns: self.pauses_ns,
            lb_metrics,
            cache_result,
            decisions_log: self.log,
            telemetry_dropped: self.dropped,
            quarantines: self.quarantines,
            windows: self.seq,
        }
    }
}

/// The lb worker's dispatcher: the shell around an [`ExprDispatcher`].
/// Because the worker drives [`run_phased_windowed`] with this host, the
/// serve path *is* the batch path plus the shell — the decision-identity
/// guarantee is structural, not mirrored code. The shell sits in a
/// `RefCell` because the driver holds the dispatcher and the window
/// callback at once (worker-local, single-threaded).
struct ServeLbHost<'s, 'c> {
    shell: &'s RefCell<ServeWorker<'c>>,
    inner: ExprDispatcher,
}

impl Dispatcher for ServeLbHost<'_, '_> {
    fn name(&self) -> &str {
        "serve"
    }

    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        self.shell.borrow_mut().decide(&mut self.inner, |d| d.pick(view) as u32) as usize
    }
}

fn run_lb_worker(
    phases: &[Scenario],
    shell: ServeWorker<'_>,
    initial: CompiledPolicy,
    window: usize,
) -> WorkerStats {
    let shell = RefCell::new(shell);
    let mut host = ServeLbHost { shell: &shell, inner: ExprDispatcher::new("serve", initial) };
    let phased = run_phased_windowed(phases, &mut host, window, &mut |phase, interval| {
        shell.borrow_mut().send_window(phase, interval.offered, interval.resolved_slowdown());
    });
    shell.into_inner().into_stats(Some(phased.combined), None)
}

fn run_cache_worker(
    trace: &Trace,
    capacity: u64,
    mut shell: ServeWorker<'_>,
    initial: CompiledPolicy,
    window: usize,
) -> WorkerStats {
    // swap-capable hosts keep every tracker warm (see `track_everything`)
    let mut cache = Cache::new(capacity, PriorityPolicy::new("serve", initial).track_everything());
    for chunk in trace.requests.chunks(window) {
        let before = cache.result();
        for req in chunk {
            shell.decide(&mut cache, |c| c.request(req) as u32);
        }
        let after = cache.result();
        let window_requests = after.requests - before.requests;
        let window_mr = if window_requests == 0 {
            0.0
        } else {
            (after.misses - before.misses) as f64 / window_requests as f64
        };
        shell.send_window(0, window_requests, window_mr);
    }
    let result = cache.result();
    shell.into_stats(None, Some(result))
}
