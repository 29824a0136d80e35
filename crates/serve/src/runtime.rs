//! The serving runtime: N worker threads answering decision requests off
//! thread-confined simulator engines, one hot-swap [`PolicyCell`], and a
//! background adaptation thread running the §3.1 loop continuously.
//!
//! ## Decision path (per worker, lock-free)
//!
//! A worker owns its backing engine (a [`policysmith_lbsim::LbEngine`] fleet or a
//! [`Cache`]) and a host built from the policy generation it last
//! adopted. Per decision it (1) checks [`PolicyCell::generation`] — one
//! relaxed atomic load; (2) on change, pins an epoch guard, clones the
//! new policy out of the cell, rebuilds its host, and records the
//! adoption pause; (3) runs the decision through the host. Decisions are
//! never dropped and never block on a lock: a publish lands *between*
//! two decisions, never inside one.
//!
//! ## Adaptation path (background, never stops serving)
//!
//! Workers stream per-window [`WindowSample`]s (window quality signal,
//! decision counts, serving generation) over **per-worker lock-free SPSC
//! rings** ([`policysmith_obs::ring`]): a push is two atomic loads and a
//! store into the worker's own lane, never a shared mutex. A momentarily
//! full ring overflows into an unbounded worker-local backlog (flushed on
//! the next window) rather than ever stalling the decision path. The one
//! shared `mpsc` channel that remains carries only control-plane events
//! (quarantine reports). Decision latency, adoption pauses, decision and
//! quarantine counts flow through a sharded
//! [`MetricsRegistry`] — per-worker
//! shards written with plain stores, merged lock-free into
//! [`ServeReport::metrics`].
//!
//! The adaptation thread (one private `Adapter`) drains the rings into the
//! `AdaptiveController`'s [`ContextMonitor`]; every trigger then walks the
//! controller's one ladder ([`policysmith_core::library`]) from the rung
//! its cause puts it on:
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
//! writer of [`ServeReport::published`]. The thread keeps no copy of "what
//! is live": it reads the cell back through its own reader slot. Serving
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
use crate::swap::{PolicyCell, ReaderHandle, SwapRecord};
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
use policysmith_obs::ring::{spsc, SpscReceiver, SpscSender};
use policysmith_obs::{
    CounterId, HistId, LatencyHistogram, MetricsRegistry, MetricsSnapshot, TraceKind,
};
use policysmith_traces::Trace;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Per-worker window-sample ring capacity. Windows arrive at
/// decisions/window rate (thousands per second, not millions); 8192 slots
/// absorb multi-second adaptation stalls before the worker-local backlog
/// kicks in.
const WINDOW_RING_CAPACITY: usize = 8192;

/// Runtime knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker (serving) threads.
    pub workers: usize,
    /// Decisions per telemetry window.
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
    /// Hot-path instrumentation: decision/latency/pause metrics into the
    /// sharded registry. `false` turns every hot-path metric write (and
    /// latency sampling) off — the control arm of `exp_serve`'s overhead
    /// section. Telemetry *windows* still flow either way: the
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
    /// Microseconds since the worker started when the latch tripped.
    pub at_micros: u64,
}

/// One worker's serving outcome.
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Decisions served (every offered request was decided — the runtime
    /// never drops or blocks a decision).
    pub decisions: u64,
    /// Wall-clock seconds spent serving.
    pub wall_seconds: f64,
    /// Sampled decision latencies, ns.
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
}

/// Everything a finished serve run reports.
pub struct ServeReport {
    /// Per-worker outcomes.
    pub workers: Vec<WorkerStats>,
    /// Every telemetry window, in controller-arrival order (after any
    /// chaos perturbation).
    pub windows: Vec<WindowSample>,
    /// The serve log (one entry per publish).
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
    /// `(generation, source)` of every policy published during the run —
    /// adaptations, quarantine recoveries, and chaos-injected external
    /// publishes alike. The audit trail for "no poisoned policy was ever
    /// re-deployed".
    pub published: Vec<(u64, String)>,
    /// What the chaos layer injected (all zeros without a spec).
    pub chaos: ChaosStats,
    /// The controller after the run (library, monitor, adaptation trail).
    pub controller: AdaptiveController,
    /// Wall-clock seconds from first worker start to last worker finish.
    pub wall_seconds: f64,
    /// The sharded metric set, merged lock-free at the end of the run
    /// (self-describing; embeds into results JSON via
    /// [`MetricsSnapshot::to_value`]). Hot-path counters/histograms are
    /// empty when [`ServeConfig::instrument`] is off.
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

/// The serve runtime's sharded metric set: one registry, one shard per
/// worker, fixed ids registered before any worker spawns.
struct ServeMetrics {
    registry: MetricsRegistry,
    decisions: CounterId,
    windows: CounterId,
    window_backlogged: CounterId,
    quarantines: CounterId,
    latency: HistId,
    pause: HistId,
}

impl ServeMetrics {
    fn new(shards: usize) -> ServeMetrics {
        let mut registry = MetricsRegistry::new(shards);
        ServeMetrics {
            decisions: registry.counter("serve.decisions"),
            windows: registry.counter("serve.windows"),
            window_backlogged: registry.counter("serve.windows_backlogged"),
            quarantines: registry.counter("serve.quarantines"),
            latency: registry.histogram("serve.decision_latency_ns"),
            pause: registry.histogram("serve.adoption_pause_ns"),
            registry,
        }
    }

    fn shard(&self, worker: usize, instrument: bool) -> ShardMetrics<'_> {
        ShardMetrics { m: self, worker, enabled: instrument }
    }
}

/// One worker's writer half of [`ServeMetrics`]: plain unsynchronized
/// stores into the worker's own shard. `enabled = false` (the control arm
/// of `exp_serve`'s overhead section) turns every write into a
/// predictable no-op branch.
#[derive(Clone, Copy)]
struct ShardMetrics<'a> {
    m: &'a ServeMetrics,
    worker: usize,
    enabled: bool,
}

impl ShardMetrics<'_> {
    #[inline]
    fn on_decision(&self) {
        if self.enabled {
            self.m.registry.shard(self.worker).add(self.m.decisions, 1);
        }
    }

    #[inline]
    fn record_latency(&self, ns: u64) {
        if self.enabled {
            self.m.registry.shard(self.worker).record(self.m.latency, ns);
        }
    }

    fn on_window(&self) {
        if self.enabled {
            self.m.registry.shard(self.worker).add(self.m.windows, 1);
        }
    }

    fn on_pause(&self, ns: u64) {
        if self.enabled {
            self.m.registry.shard(self.worker).record(self.m.pause, ns);
        }
    }

    fn on_quarantine(&self) {
        if self.enabled {
            self.m.registry.shard(self.worker).add(self.m.quarantines, 1);
        }
    }

    fn on_backlogged(&self, n: u64) {
        if self.enabled && n > 0 {
            self.m.registry.shard(self.worker).add(self.m.window_backlogged, n);
        }
    }

    /// This worker's decision-latency histogram, snapshotted out of its
    /// shard (empty when instrumentation is off).
    fn latency_hist(&self) -> LatencyHistogram {
        self.m.registry.hist_shard(self.m.latency, self.worker)
    }
}

/// A worker's window-sample lane to the adaptation thread: a bounded
/// lock-free SPSC ring plus an unbounded worker-local overflow backlog —
/// `send` never blocks and never loses a sample while the consumer is
/// alive.
struct WindowTx {
    tx: SpscSender<WindowSample>,
    backlog: VecDeque<WindowSample>,
    /// Samples that transited the backlog (ring momentarily full).
    backlogged: u64,
}

impl WindowTx {
    /// Deliver a sample without ever blocking the decision path. Returns
    /// `false` when the receiver is gone (the worker keeps serving
    /// without telemetry; the caller counts the degradation).
    fn send(&mut self, sample: WindowSample) -> bool {
        if self.tx.receiver_closed() {
            return false;
        }
        // FIFO: older backlogged samples go first
        while let Some(front) = self.backlog.pop_front() {
            if let Err(back) = self.tx.push(front) {
                self.backlog.push_front(back);
                break;
            }
        }
        if self.backlog.is_empty() {
            if let Err(full) = self.tx.push(sample) {
                self.backlog.push_back(full);
                self.backlogged += 1;
            }
        } else {
            self.backlog.push_back(sample);
            self.backlogged += 1;
        }
        true
    }

    /// End of stream: flush any backlog into the ring (yield-looping while
    /// the consumer drains — the worker is done serving, so this costs no
    /// decisions). Returns `(undelivered, backlogged)`.
    fn finish(mut self) -> (u64, u64) {
        while let Some(front) = self.backlog.pop_front() {
            if self.tx.receiver_closed() {
                // consumer died: these samples are undeliverable
                return (self.backlog.len() as u64 + 1, self.backlogged);
            }
            if let Err(back) = self.tx.push(front) {
                self.backlog.push_front(back);
                std::thread::yield_now();
            }
        }
        (0, self.backlogged)
    }
}

/// The adaptation thread's consuming half of the window lanes.
struct WindowRx {
    rings: Vec<SpscReceiver<WindowSample>>,
    /// Rotating scan start, so no worker's lane is structurally favored.
    next: usize,
}

impl WindowRx {
    fn pop(&mut self) -> Option<WindowSample> {
        let n = self.rings.len();
        for i in 0..n {
            let at = (self.next + i) % n;
            if let Some(s) = self.rings[at].pop() {
                self.next = (at + 1) % n;
                return Some(s);
            }
        }
        None
    }

    /// Nothing queued and nothing can ever arrive again.
    fn finished(&self) -> bool {
        self.rings.iter().all(|r| r.finished())
    }
}

/// What the adaptation thread hands back when the last worker hangs up.
#[derive(Default)]
struct BackgroundReport {
    windows: Vec<WindowSample>,
    adaptations: Vec<AdaptationEvent>,
    rejections: Vec<RejectedAdaptation>,
    quarantines: Vec<QuarantineReport>,
    suppressed: u64,
    published: Vec<(u64, String)>,
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
/// does not take the run down), assemble the report.
fn serve<S: Study + Send, ShardInput: Sync>(
    cfg: &ServeConfig,
    initial: CompiledPolicy,
    baseline: CompiledPolicy,
    resynth: Option<Resynth<S>>,
    shards: &[ShardInput],
    worker_fn: impl Fn(&ShardInput, ServeWorker<'_, '_>, CompiledPolicy) -> WorkerStats + Sync,
) -> ServeReport {
    debug_assert_eq!(baseline.mode(), initial.mode());
    // one reader slot per worker, one for the adaptation thread
    let cell = PolicyCell::new(initial, shards.len() + 1);
    let metrics = ServeMetrics::new(shards.len());
    // control plane: quarantine reports keep the one shared mpsc
    let (ctl_tx, ctl_rx) = mpsc::channel::<QuarantineReport>();
    // data plane: window samples ride per-worker SPSC rings
    let (window_txs, rings): (Vec<_>, Vec<_>) =
        (0..shards.len()).map(|_| spsc::<WindowSample>(WINDOW_RING_CAPACITY)).unzip();
    let window_rx = WindowRx { rings, next: 0 };
    let monitor = ContextMonitor::new(cfg.monitor_window, cfg.monitor_tolerance);
    let seed_library = resynth.as_ref().map(|r| r.library.clone()).unwrap_or_default();
    let mut controller =
        AdaptiveController::new(monitor, cfg.min_reuse_score).with_library(seed_library);

    let t0 = Instant::now();
    let mut failures = Vec::new();
    let (stats, background) = std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(shards.len());
        for (w, (shard, tx)) in shards.iter().zip(window_txs).enumerate() {
            let mut handle = cell.register();
            let control = ctl_tx.clone();
            let (metrics, worker_fn, baseline) = (&metrics, &worker_fn, &baseline);
            joins.push(scope.spawn(move || {
                let generation = handle.cell().generation();
                // initial adoption is deployment, not a swap: not a recorded pause
                let initial = handle.pin().clone();
                let shell = ServeWorker {
                    worker: w,
                    started: Instant::now(),
                    handle,
                    generation,
                    pauses_ns: Vec::new(),
                    metrics: metrics.shard(w, cfg.instrument),
                    sample_every: cfg.latency_sample_every,
                    decisions: 0,
                    log: cfg.record_decisions.then(Vec::new),
                    windows: WindowTx { tx, backlog: VecDeque::new(), backlogged: 0 },
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
        drop(ctl_tx); // the adaptation loop ends when the last worker hangs up
        let adapter = Adapter {
            controller: &mut controller,
            resynth,
            live: cell.register(),
            baseline: &baseline,
            cfg,
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
    let wall_seconds = t0.elapsed().as_secs_f64();

    ServeReport {
        workers: stats,
        windows: background.windows,
        swaps: cell.swap_log(),
        adaptations: background.adaptations,
        rejections: background.rejections,
        quarantines: background.quarantines,
        suppressed_triggers: background.suppressed,
        failures,
        published: background.published,
        chaos: background.chaos,
        controller,
        wall_seconds,
        metrics: metrics.registry.snapshot(),
    }
}

/// The adaptation thread's state: the background §3.1 loop — drain
/// telemetry, detect drift, answer it without ever pausing the workers —
/// with guarded publication, quarantine handling, and a retried,
/// watchdogged search.
struct Adapter<'a, S: Study> {
    controller: &'a mut AdaptiveController,
    resynth: Option<Resynth<S>>,
    /// This thread's reader slot. The cell is the only record of what is
    /// live; the incumbent is read back from it, never remembered.
    live: ReaderHandle<'a, CompiledPolicy>,
    baseline: &'a CompiledPolicy,
    cfg: &'a ServeConfig,
    report: BackgroundReport,
}

impl<S: Study> Adapter<'_, S> {
    /// Two lanes feed the loop: the per-worker window rings (polled,
    /// lock-free) and the control-plane quarantine mpsc (blocked on with a
    /// short timeout when the rings are idle, so quarantines are answered
    /// promptly without busy-spinning). It exits once the control channel
    /// has disconnected — every worker returned — and the window lanes are
    /// fully drained, so no window a worker delivered is ever lost.
    fn run(
        mut self,
        control: mpsc::Receiver<QuarantineReport>,
        mut windows: WindowRx,
    ) -> BackgroundReport {
        let chaos = &self.cfg.chaos;
        let mut injector = TelemetryInjector::new(chaos.telemetry, chaos.seed);
        let mut pending_external = chaos.external_publish.as_ref();
        let mut arrivals = 0u64;
        let mut deliveries: Vec<WindowSample> = Vec::new();
        let mut control_done = false;

        loop {
            // window lane: drain everything queued right now
            let mut drained_any = false;
            while let Some(sample) = windows.pop() {
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

            // control lane: quarantines (and worker-completion tracking)
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

            if control_done && windows.finished() {
                break;
            }
            if !drained_any {
                if control_done {
                    // workers are gone but a final backlog flush may still be
                    // in flight on a ring; yield briefly and re-drain
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
    /// log it in the audit trail. Returns the generation it was installed
    /// as.
    fn go_live(&mut self, policy: CompiledPolicy, why: String) -> u64 {
        let source = to_source(policy.expr());
        let generation = self.live.cell().publish(policy, why);
        self.report.published.push((generation, source));
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
/// reports the quarantine. It also owns the worker's window lane and
/// assembles its [`WorkerStats`].
struct ServeWorker<'c, 'm> {
    worker: usize,
    started: Instant,
    handle: ReaderHandle<'c, CompiledPolicy>,
    /// Generation of the policy currently hosted; window samples report it.
    generation: u64,
    pauses_ns: Vec<u64>,
    /// Writer half of this worker's metric shard (latency histogram,
    /// decision/pause/quarantine counters — plain stores, merged
    /// lock-free by the reader).
    metrics: ShardMetrics<'m>,
    sample_every: u64,
    decisions: u64,
    log: Option<Vec<u32>>,
    windows: WindowTx,
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

impl ServeWorker<'_, '_> {
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
            let pause = t0.elapsed().as_nanos() as u64;
            self.pauses_ns.push(pause);
            self.metrics.on_pause(pause);
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
        let sampled = self.metrics.enabled
            && (self.sample_every <= 1 || self.decisions.is_multiple_of(self.sample_every));
        let t0 = sampled.then(Instant::now);
        let decision = f(host);
        if let Some(t0) = t0 {
            self.metrics.record_latency(t0.elapsed().as_nanos() as u64);
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
                    at_micros: self.started.elapsed().as_micros() as u64,
                };
                if self.control.send(q).is_err() {
                    self.dropped += 1;
                }
                host.adopt(self.baseline.clone());
                self.in_fallback = true;
                self.quarantines += 1;
                self.metrics.on_quarantine();
            }
        }
        if let Some(log) = self.log.as_mut() {
            log.push(decision);
        }
        self.decisions += 1;
        self.metrics.on_decision();
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
            at_micros: self.started.elapsed().as_micros() as u64,
        };
        // a dead receiver must not panic a serving worker: keep serving
        // without telemetry, count the degradation
        if self.windows.send(sample) {
            self.metrics.on_window();
        } else {
            self.dropped += 1;
        }
        self.seq += 1;
    }

    fn into_stats(
        self,
        lb_metrics: Option<LbMetrics>,
        cache_result: Option<SimResult>,
    ) -> WorkerStats {
        let (undelivered, backlogged) = self.windows.finish();
        self.metrics.on_backlogged(backlogged);
        WorkerStats {
            worker: self.worker,
            decisions: self.decisions,
            wall_seconds: self.started.elapsed().as_secs_f64(),
            latency: self.metrics.latency_hist(),
            swap_pauses_ns: self.pauses_ns,
            lb_metrics,
            cache_result,
            decisions_log: self.log,
            telemetry_dropped: self.dropped + undelivered,
            quarantines: self.quarantines,
        }
    }
}

/// The lb worker's dispatcher: the shell around an [`ExprDispatcher`].
/// Because the worker drives [`run_phased_windowed`] with this host, the
/// serve path *is* the batch path plus the shell — the decision-identity
/// guarantee is structural, not mirrored code. The shell sits in a
/// `RefCell` because the driver holds the dispatcher and the window
/// callback at once (worker-local, single-threaded).
struct ServeLbHost<'s, 'c, 'm> {
    shell: &'s RefCell<ServeWorker<'c, 'm>>,
    inner: ExprDispatcher,
}

impl Dispatcher for ServeLbHost<'_, '_, '_> {
    fn name(&self) -> &str {
        "serve"
    }

    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        self.shell.borrow_mut().decide(&mut self.inner, |d| d.pick(view) as u32) as usize
    }
}

fn run_lb_worker(
    phases: &[Scenario],
    shell: ServeWorker<'_, '_>,
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
    mut shell: ServeWorker<'_, '_>,
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
