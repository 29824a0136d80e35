//! Timing adaptors around the repo's public traits — how the benchmark
//! sees each layer from outside. Each one forwards to the wrapped
//! implementation and records, on the benchmark's side only, how long the
//! call took and how often it happened.
//!
//! Millisecond-scale calls (`Generator`, `Study`) are always timed: two
//! clock reads on a call that long are not measurable. Nanosecond-scale
//! hooks (`Policy`, `Dispatcher`, `CongestionControl`, `AqmPolicy`) are
//! only ever wrapped in traced runs, and there time one call in
//! [`SAMPLE_EVERY`].

use crate::spans::Tracer;
use crate::stats::{process_cpu_ns, FineHist};
use policysmith::cachesim::{CacheView, ObjId, Policy};
use policysmith::core::search::Study;
use policysmith::dsl::Mode;
use policysmith::gen::{GenError, Generator, Prompt, TokenLedger};
use policysmith::lbsim::{DispatchView, Dispatcher};
use policysmith::netsim::{AqmDecision, AqmPolicy, AqmView, CcView, CongestionControl};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// On nanosecond-scale ops and hooks, one in this many is timed. A prime:
/// the cache host refreshes its percentile snapshot every 512 accesses,
/// and a stride of 64 would land every one of those refreshes on a sampled
/// op.
pub const SAMPLE_EVERY: u64 = 61;
/// Sampled ops come in runs of this many consecutive ops, so that the
/// tracer's own code and buffers are warm for all but the first of a run —
/// a lone sampled op pays cache misses the span-cost calibration cannot
/// see, which on a 300 ns op is most of what it measures.
pub const SAMPLE_RUN: u64 = 32;

/// Is op (or hook call) number `i` one of the sampled ones?
#[inline]
pub fn sampled(i: u64) -> bool {
    (i / SAMPLE_RUN).is_multiple_of(SAMPLE_EVERY)
}

/// What a [`TimedGen`] saw. Shared, because the generator itself is moved
/// into the search (or into the serve runtime's adaptation thread).
#[derive(Debug, Default)]
pub struct GenStats {
    pub generate_ns: AtomicU64,
    pub generate_calls: AtomicU64,
    pub candidates: AtomicU64,
    pub repair_ns: AtomicU64,
    pub repair_calls: AtomicU64,
    pub input_tokens: AtomicU64,
    pub requests: AtomicU64,
}

pub struct TimedGen<G> {
    inner: G,
    stats: Arc<GenStats>,
    tracer: Option<Arc<Tracer>>,
}

impl<G: Generator> TimedGen<G> {
    pub fn new(inner: G, stats: Arc<GenStats>, tracer: Option<Arc<Tracer>>) -> Self {
        TimedGen { inner, stats, tracer }
    }

    fn publish_ledger(&self) {
        let l = self.inner.ledger();
        self.stats.input_tokens.store(l.input_tokens, Relaxed);
        self.stats.requests.store(l.requests, Relaxed);
    }
}

impl<G: Generator> Generator for TimedGen<G> {
    fn generate(&mut self, prompt: &Prompt, n: usize) -> Vec<String> {
        self.try_generate(prompt, n).unwrap_or_default()
    }

    fn try_generate(&mut self, prompt: &Prompt, n: usize) -> Result<Vec<String>, GenError> {
        let _span = self.tracer.as_ref().map(|t| t.begin("gen.generate"));
        let t0 = Instant::now();
        let out = self.inner.try_generate(prompt, n);
        self.stats.generate_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.stats.generate_calls.fetch_add(1, Relaxed);
        if let Ok(batch) = &out {
            self.stats.candidates.fetch_add(batch.len() as u64, Relaxed);
        }
        self.publish_ledger();
        out
    }

    fn repair(&mut self, prompt: &Prompt, source: &str, stderr: &str) -> Option<String> {
        let _span = self.tracer.as_ref().map(|t| t.begin("gen.repair"));
        let t0 = Instant::now();
        let out = self.inner.repair(prompt, source, stderr);
        self.stats.repair_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.stats.repair_calls.fetch_add(1, Relaxed);
        self.publish_ledger();
        out
    }

    fn ledger(&self) -> &TokenLedger {
        self.inner.ledger()
    }
}

/// What a [`TimedStudy`] saw.
#[derive(Default)]
pub struct StudyStats {
    pub check_ns: AtomicU64,
    pub checks: AtomicU64,
    pub checks_ok: AtomicU64,
    pub eval_ns: AtomicU64,
    pub evals: AtomicU64,
    /// Evaluations that scored NaN — a correctness failure (`-∞` crash
    /// scores are a normal outcome and are not counted).
    pub nan_scores: AtomicU64,
    /// Evaluations that panicked — caught, scored `-∞`, counted.
    pub panics: AtomicU64,
    pub eval_hist: Mutex<FineHist>,
    /// `(wall_ns, process cpu_ns)` of every evaluation since the last
    /// [`StudyStats::take_eval_times`], in call order.
    pub eval_times: Mutex<Vec<(u64, u64)>>,
    /// The first [`SOURCE_CAP`] sources the Checker was shown, for the
    /// compile-split probe.
    pub sources: Mutex<Vec<String>>,
}

pub const SOURCE_CAP: usize = 2_048;

impl StudyStats {
    pub fn eval_latency(&self) -> FineHist {
        self.eval_hist.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub fn take_eval_times(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.eval_times.lock().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn seen_sources(&self) -> Vec<String> {
        self.sources.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub fn failures(&self) -> u64 {
        self.nan_scores.load(Relaxed) + self.panics.load(Relaxed)
    }
}

/// A `Study` that times its Checker and Evaluator.
pub struct TimedStudy<S> {
    pub inner: S,
    pub stats: Arc<StudyStats>,
    pub tracer: Option<Arc<Tracer>>,
    /// Span names, so cc and aqm evaluations stay apart in one trace.
    names: (&'static str, &'static str),
}

impl<S: Study> TimedStudy<S> {
    pub fn new(inner: S) -> Self {
        Self::named(inner, "study.check", "study.evaluate")
    }

    pub fn named(inner: S, check: &'static str, evaluate: &'static str) -> Self {
        TimedStudy { inner, stats: Arc::default(), tracer: None, names: (check, evaluate) }
    }
}

impl<S: Study> Study for TimedStudy<S> {
    type Artifact = S::Artifact;

    fn mode(&self) -> Mode {
        self.inner.mode()
    }

    fn check(&self, source: &str) -> Result<S::Artifact, String> {
        let _span = self.tracer.as_ref().map(|t| t.begin(self.names.0));
        let t0 = Instant::now();
        let out = self.inner.check(source);
        self.stats.check_ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.stats.checks.fetch_add(1, Relaxed);
        self.stats.checks_ok.fetch_add(out.is_ok() as u64, Relaxed);
        let mut sources = self.stats.sources.lock().unwrap_or_else(|e| e.into_inner());
        if sources.len() < SOURCE_CAP {
            sources.push(source.to_string());
        }
        out
    }

    fn evaluate(&self, artifact: &S::Artifact) -> f64 {
        let _span = self.tracer.as_ref().map(|t| t.begin(self.names.1));
        let (cpu0, t0) = (process_cpu_ns(), Instant::now());
        let score = catch_unwind(AssertUnwindSafe(|| self.inner.evaluate(artifact)));
        let (ns, cpu_ns) = (t0.elapsed().as_nanos() as u64, process_cpu_ns() - cpu0);
        self.stats.eval_ns.fetch_add(ns, Relaxed);
        self.stats.evals.fetch_add(1, Relaxed);
        self.stats.eval_hist.lock().unwrap_or_else(|e| e.into_inner()).record(ns);
        self.stats.eval_times.lock().unwrap_or_else(|e| e.into_inner()).push((ns, cpu_ns));
        match score {
            Ok(s) => {
                self.stats.nan_scores.fetch_add(s.is_nan() as u64, Relaxed);
                s
            }
            Err(_) => {
                self.stats.panics.fetch_add(1, Relaxed);
                f64::NEG_INFINITY
            }
        }
    }
}

/// One study shared by many searches: the serve runtime takes its study
/// by value, once per run, and building a study replays a baseline.
pub struct SharedStudy<S>(pub Arc<S>);

impl<S: Study + Send> Study for SharedStudy<S> {
    type Artifact = S::Artifact;

    fn mode(&self) -> Mode {
        self.0.mode()
    }
    fn check(&self, source: &str) -> Result<S::Artifact, String> {
        self.0.check(source)
    }
    fn evaluate(&self, artifact: &S::Artifact) -> f64 {
        self.0.evaluate(artifact)
    }
}

/// A cache `Policy` whose callbacks are timed while `on` is set — the
/// driver loop sets it for the requests it samples. A callback is tens of
/// nanoseconds, so the wrapper only reads the clock twice and buffers the
/// pair; the driver turns the pairs into spans with [`TimedPolicy::flush`]
/// once the request is over.
pub struct TimedPolicy<'t, P> {
    pub inner: P,
    pub on: bool,
    /// Callbacks seen, timed or not.
    pub calls: u64,
    /// Callbacks timed, and the time between their clock reads.
    pub timed_calls: u64,
    pub timed_ns: u64,
    pending: Vec<(Instant, Instant)>,
    tracer: &'t Tracer,
}

impl<'t, P: Policy> TimedPolicy<'t, P> {
    pub fn new(inner: P, tracer: &'t Tracer) -> Self {
        let pending = Vec::with_capacity(16);
        TimedPolicy { inner, on: false, calls: 0, timed_calls: 0, timed_ns: 0, pending, tracer }
    }

    /// Hand the buffered callbacks to the tracer as `cachesim.policy` spans.
    pub fn flush(&mut self) {
        for (t0, t1) in self.pending.drain(..) {
            self.tracer.record("cachesim.policy", t0, t1);
        }
    }

    /// Mean time in callbacks per timed request, clock cost removed.
    pub fn ns_per_request(&self, requests: u64, clock_ns: f64) -> f64 {
        (self.timed_ns as f64 - self.timed_calls as f64 * clock_ns).max(0.0)
            / requests.max(1) as f64
    }
}

macro_rules! traced_callback {
    ($self:ident, $call:expr) => {{
        $self.calls += 1;
        if $self.on {
            let t0 = Instant::now();
            let out = $call;
            let t1 = Instant::now();
            $self.timed_calls += 1;
            $self.timed_ns += (t1 - t0).as_nanos() as u64;
            $self.pending.push((t0, t1));
            out
        } else {
            $call
        }
    }};
}

impl<P: Policy> Policy for TimedPolicy<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        traced_callback!(self, self.inner.on_hit(id, view))
    }
    fn on_miss(&mut self, id: ObjId, view: &CacheView<'_>) {
        traced_callback!(self, self.inner.on_miss(id, view))
    }
    fn victim(&mut self, view: &CacheView<'_>) -> ObjId {
        traced_callback!(self, self.inner.victim(view))
    }
    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        traced_callback!(self, self.inner.on_evict(id, view))
    }
    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        traced_callback!(self, self.inner.on_insert(id, view))
    }
}

/// A `Dispatcher` whose `pick` becomes a span while `on` is set.
pub struct TimedDispatcher<'t, D> {
    pub inner: D,
    pub on: bool,
    tracer: &'t Tracer,
}

impl<'t, D: Dispatcher> TimedDispatcher<'t, D> {
    pub fn new(inner: D, tracer: &'t Tracer) -> Self {
        TimedDispatcher { inner, on: false, tracer }
    }
}

impl<D: Dispatcher> Dispatcher for TimedDispatcher<'_, D> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        if self.on {
            let _span = self.tracer.begin("lbsim.pick");
            self.inner.pick(view)
        } else {
            self.inner.pick(view)
        }
    }
}

/// A `Dispatcher` that logs its decisions (the verification prefix).
pub struct Recording<D> {
    pub inner: D,
    pub picks: Vec<u32>,
}

impl<D: Dispatcher> Recording<D> {
    pub fn new(inner: D) -> Self {
        Recording { inner, picks: Vec::new() }
    }
}

impl<D: Dispatcher> Dispatcher for Recording<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        let p = self.inner.pick(view);
        self.picks.push(p as u32);
        p
    }
}

/// Calls seen and, for the sampled ones, time spent in a netsim hook. The
/// simulation consumes its hooks, so the counters are shared.
#[derive(Debug, Default)]
pub struct HookStats {
    pub calls: Cell<u64>,
    pub sampled: Cell<u64>,
    pub sampled_ns: Cell<u64>,
}

impl HookStats {
    /// Mean ns per call over the sampled calls, clock cost removed.
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        match self.sampled.get() {
            0 => 0.0,
            n => (self.sampled_ns.get() as f64 / n as f64 - clock_ns).max(0.0),
        }
    }

    /// Estimated total time in the hook, ns.
    pub fn total_ns(&self, clock_ns: f64) -> f64 {
        self.ns_per_call(clock_ns) * self.calls.get() as f64
    }

    fn time<R>(&self, tracer: Option<&Tracer>, span: &'static str, call: impl FnOnce() -> R) -> R {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !sampled(n) {
            return call();
        }
        let _span = tracer.map(|t| t.begin(span));
        let t0 = Instant::now();
        let out = call();
        self.sampled_ns.set(self.sampled_ns.get() + t0.elapsed().as_nanos() as u64);
        self.sampled.set(self.sampled.get() + 1);
        out
    }
}

/// A congestion controller with its `on_ack`/`on_loss` hook sampled.
pub struct TimedCc {
    inner: Box<dyn CongestionControl>,
    stats: Rc<HookStats>,
    tracer: Option<Arc<Tracer>>,
    span: &'static str,
}

impl TimedCc {
    pub fn new(
        inner: Box<dyn CongestionControl>,
        stats: Rc<HookStats>,
        tracer: Option<Arc<Tracer>>,
        span: &'static str,
    ) -> Self {
        TimedCc { inner, stats, tracer, span }
    }
}

impl CongestionControl for TimedCc {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_ack(&mut self, view: &CcView<'_>) -> u64 {
        let inner = &mut self.inner;
        self.stats.time(self.tracer.as_deref(), self.span, || inner.on_ack(view))
    }
    fn on_loss(&mut self, view: &CcView<'_>) -> u64 {
        let inner = &mut self.inner;
        self.stats.time(self.tracer.as_deref(), self.span, || inner.on_loss(view))
    }
}

/// An AQM policy with its enqueue/dequeue verdict hook sampled.
pub struct TimedAqm {
    inner: Box<dyn AqmPolicy>,
    stats: Rc<HookStats>,
    tracer: Option<Arc<Tracer>>,
}

impl TimedAqm {
    pub fn new(
        inner: Box<dyn AqmPolicy>,
        stats: Rc<HookStats>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        TimedAqm { inner, stats, tracer }
    }
}

impl AqmPolicy for TimedAqm {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_enqueue(&mut self, view: &AqmView) -> AqmDecision {
        let inner = &mut self.inner;
        self.stats.time(self.tracer.as_deref(), "aqmsim.verdict", || inner.on_enqueue(view))
    }
    fn on_dequeue(&mut self, view: &AqmView) -> AqmDecision {
        let inner = &mut self.inner;
        self.stats.time(self.tracer.as_deref(), "aqmsim.verdict", || inner.on_dequeue(view))
    }
}

/// Decisions compared and divergences found by a [`DiffCc`].
#[derive(Debug, Default)]
pub struct DiffStats {
    pub decisions: Cell<u64>,
    pub divergences: Cell<u64>,
}

/// Two congestion controllers on one simulated sender: `primary`'s
/// decision drives the link, `shadow` is asked the same question, and
/// every disagreement is counted — the kbpf VM host against its eBPF
/// offload, decision for decision.
pub struct DiffCc {
    primary: Box<dyn CongestionControl>,
    shadow: Box<dyn CongestionControl>,
    stats: Rc<DiffStats>,
    /// Self-test: report one decision of the shadow as different.
    corrupt: bool,
}

impl DiffCc {
    pub fn new(
        primary: Box<dyn CongestionControl>,
        shadow: Box<dyn CongestionControl>,
        stats: Rc<DiffStats>,
        corrupt: bool,
    ) -> Self {
        DiffCc { primary, shadow, stats, corrupt }
    }

    fn compare(&mut self, a: u64, b: u64) -> u64 {
        let b = if std::mem::take(&mut self.corrupt) { b.wrapping_add(1) } else { b };
        self.stats.decisions.set(self.stats.decisions.get() + 1);
        self.stats.divergences.set(self.stats.divergences.get() + u64::from(a != b));
        a
    }
}

impl CongestionControl for DiffCc {
    fn name(&self) -> &str {
        "diff:kbpf-vs-ebpf"
    }
    fn on_ack(&mut self, view: &CcView<'_>) -> u64 {
        let (a, b) = (self.primary.on_ack(view), self.shadow.on_ack(view));
        self.compare(a, b)
    }
    fn on_loss(&mut self, view: &CcView<'_>) -> u64 {
        let (a, b) = (self.primary.on_loss(view), self.shadow.on_loss(view));
        self.compare(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith::core::studies::lb::LbStudy;
    use policysmith::gen::{GenConfig, MockLlm};
    use policysmith::lbsim::scenario;

    #[test]
    fn timed_generator_is_transparent_and_counts() {
        let stats = Arc::new(GenStats::default());
        let mut plain = MockLlm::new(GenConfig::lb_defaults(9));
        let mut timed = TimedGen::new(MockLlm::new(GenConfig::lb_defaults(9)), stats.clone(), None);
        let prompt = Prompt::new(Mode::Lb);
        assert_eq!(plain.generate(&prompt, 6), timed.try_generate(&prompt, 6).unwrap());
        assert_eq!(stats.candidates.load(Relaxed), 6);
        assert_eq!(stats.generate_calls.load(Relaxed), 1);
        assert_eq!(stats.requests.load(Relaxed), timed.ledger().requests);
        assert!(stats.input_tokens.load(Relaxed) > 0);
    }

    #[test]
    fn timed_study_forwards_scores_and_counts_checks() {
        let mut sc = scenario::uniform_fleet();
        sc.workload.n = 2_000;
        let plain = LbStudy::new(&sc);
        let timed = TimedStudy::new(LbStudy::new(&sc));
        let src = "server.queue_len";
        assert!(timed.check("server.queue_len * 1.5").is_err());
        let a = timed.check(src).unwrap();
        assert_eq!(
            timed.evaluate(&a).to_bits(),
            plain.evaluate(&plain.check(src).unwrap()).to_bits()
        );
        assert_eq!((timed.stats.checks.load(Relaxed), timed.stats.checks_ok.load(Relaxed)), (2, 1));
        assert_eq!(timed.stats.eval_latency().count(), 1);
        assert_eq!(timed.stats.seen_sources().len(), 2);
        assert_eq!(timed.stats.failures(), 0);
    }

    struct PanickyStudy;
    impl Study for PanickyStudy {
        type Artifact = f64;
        fn mode(&self) -> Mode {
            Mode::Lb
        }
        fn check(&self, source: &str) -> Result<f64, String> {
            source.parse().map_err(|_| "nan".to_string())
        }
        fn evaluate(&self, a: &f64) -> f64 {
            assert!(*a >= 0.0, "negative artifact");
            if *a == 0.0 {
                f64::NAN
            } else {
                *a
            }
        }
    }

    #[test]
    fn panics_and_nan_scores_are_failures_not_crashes() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let timed = TimedStudy::new(PanickyStudy);
        assert_eq!(timed.evaluate(&2.0), 2.0);
        assert!(timed.evaluate(&0.0).is_nan());
        assert_eq!(timed.evaluate(&-1.0), f64::NEG_INFINITY);
        std::panic::set_hook(prev);
        assert_eq!(timed.stats.nan_scores.load(Relaxed), 1);
        assert_eq!(timed.stats.panics.load(Relaxed), 1);
        assert_eq!(timed.stats.failures(), 2);
    }

    struct Fixed(u64);
    impl CongestionControl for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn on_ack(&mut self, _: &CcView<'_>) -> u64 {
            self.0
        }
        fn on_loss(&mut self, _: &CcView<'_>) -> u64 {
            self.0
        }
    }

    fn run_diff(primary: u64, shadow: u64, corrupt: bool) -> Rc<DiffStats> {
        let stats = Rc::new(DiffStats::default());
        let diff =
            DiffCc::new(Box::new(Fixed(primary)), Box::new(Fixed(shadow)), stats.clone(), corrupt);
        policysmith::cc::evaluate(Box::new(diff), 300_000);
        stats
    }

    #[test]
    fn diff_cc_counts_every_disagreement() {
        let same = run_diff(20, 20, false);
        assert!(same.decisions.get() > 0 && same.divergences.get() == 0);
        let differ = run_diff(20, 21, false);
        assert_eq!(differ.divergences.get(), differ.decisions.get());
        assert_eq!(
            run_diff(20, 20, true).divergences.get(),
            1,
            "one corrupted reference bites once"
        );
    }

    #[test]
    fn hook_sampling_times_one_call_per_stride() {
        let stats = Rc::new(HookStats::default());
        let cc = TimedCc::new(Box::new(Fixed(20)), stats.clone(), None, "cc.on_ack");
        policysmith::cc::evaluate(Box::new(cc), 500_000);
        let calls = stats.calls.get();
        assert!(calls > SAMPLE_RUN);
        assert_eq!(stats.sampled.get(), (0..calls).filter(|&i| sampled(i)).count() as u64);
        let share = (0..1_000_000).filter(|&i| sampled(i)).count() as f64 / 1e6;
        assert!((share - 1.0 / SAMPLE_EVERY as f64).abs() < 1e-3, "{share}");
        assert!(stats.total_ns(0.0) >= stats.ns_per_call(0.0));
    }
}
