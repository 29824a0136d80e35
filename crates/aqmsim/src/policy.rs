//! The PolicySmith template host for active queue management.
//!
//! A synthesized candidate arrives as a verified [`CompiledPolicy`] in
//! [`Mode::Aqm`]; the host executes its kbpf program once per head-of-line
//! packet at the bottleneck's dequeue hook — filling a flat, reusable
//! context slab from the [`AqmView`] snapshot, no allocation, no
//! tree-walking — and maps the returned **verdict** onto the decision:
//! `<= 0` forwards the packet, `== 1` ECN-marks it, `>= 2` drops it.
//!
//! The DSL interpreter is *not* on this hot path. It survives behind
//! [`ExprAqm::interpreted`] as the differential oracle: the integration
//! suite replays whole scenarios through both engines and demands
//! decision-for-decision equality.
//!
//! Runtime faults (division by zero despite the checker's warning; the
//! compile pipeline marks such candidates `may_fault`) follow the
//! userspace-template contract: the first error is **latched**, every
//! later decision is `Pass` — the bottleneck degrades to plain drop-tail
//! so the simulation still completes with exact accounting — and the
//! study scores the candidate as a hard failure.
//!
//! Because [`Simulation::with_aqm`](policysmith_netsim::Simulation)
//! consumes the policy box, post-run observables (the latched fault, the
//! optional decision log) are read through a shared [`AqmProbe`] handle
//! cloned off the host before it is boxed.

use policysmith_dsl::{eval, Expr, Feature, FeatureEnv, Mode};
use policysmith_kbpf::{CompiledPolicy, RuntimeFault, SPILL_SLOTS};
use policysmith_netsim::{AqmDecision, AqmPolicy, AqmView};
use std::cell::RefCell;
use std::rc::Rc;

/// One logged dequeue decision: `(now_us, pkt_size, decision)` — enough
/// to compare two engines packet-for-packet.
pub type LoggedDecision = (u64, u32, AqmDecision);

#[derive(Default)]
struct ProbeState {
    first_error: Option<RuntimeFault>,
    record: bool,
    decisions: Vec<LoggedDecision>,
}

/// Shared observation handle onto a (possibly consumed) [`ExprAqm`].
#[derive(Clone, Default)]
pub struct AqmProbe {
    state: Rc<RefCell<ProbeState>>,
}

impl AqmProbe {
    /// Did a runtime fault latch? The study's hard-failure signal.
    pub fn faulted(&self) -> bool {
        self.state.borrow().first_error.is_some()
    }

    /// The latched fault, rendered (faults carry VM/interp error detail).
    pub fn first_error(&self) -> Option<String> {
        self.state.borrow().first_error.as_ref().map(|e| e.to_string())
    }

    /// The recorded dequeue decisions (empty unless recording was enabled
    /// via [`ExprAqm::record_decisions`]).
    pub fn decisions(&self) -> Vec<LoggedDecision> {
        self.state.borrow().decisions.clone()
    }
}

/// AQM policy backed by a `Mode::Aqm` verdict expression.
pub struct ExprAqm {
    name: String,
    engine: Engine,
    probe: AqmProbe,
}

enum Engine {
    /// The production path: compiled bytecode + reusable ctx slab/map.
    Compiled { policy: CompiledPolicy, ctx: Vec<i64>, map: Vec<i64> },
    /// The reference oracle: `dsl::eval` over the same feature
    /// environment, kept for differential testing only.
    Interpreted { expr: Expr },
}

/// Map a template verdict onto the bottleneck decision.
fn verdict_to_decision(v: i64) -> AqmDecision {
    match v {
        i64::MIN..=0 => AqmDecision::Pass,
        1 => AqmDecision::Mark,
        _ => AqmDecision::Drop,
    }
}

impl ExprAqm {
    /// Host a compiled (checked, lowered, verified) verdict policy.
    pub fn new(name: &str, policy: CompiledPolicy) -> Self {
        debug_assert_eq!(policy.mode(), Mode::Aqm, "aqm host needs a Mode::Aqm policy");
        ExprAqm {
            name: name.to_string(),
            engine: Engine::Compiled {
                ctx: Vec::with_capacity(policy.layout().len()),
                map: vec![0; SPILL_SLOTS],
                policy,
            },
            probe: AqmProbe::default(),
        }
    }

    /// Compile `expr` for `Mode::Aqm` and host it on the VM.
    ///
    /// # Panics
    /// If the compile pipeline refuses `expr` (a float literal, a
    /// cross-mode feature, a size or depth budget): the host never swaps
    /// in the interpreter behind a caller that asked for the VM.
    pub fn from_expr(name: &str, expr: &Expr) -> Self {
        match CompiledPolicy::compile(expr, Mode::Aqm) {
            Ok(policy) => Self::new(name, policy),
            Err(e) => panic!("aqm host `{name}`: the compile pipeline refused the policy: {e}"),
        }
    }

    /// Host via the reference interpreter — the differential oracle.
    pub fn interpreted(name: &str, expr: Expr) -> Self {
        ExprAqm {
            name: name.to_string(),
            engine: Engine::Interpreted { expr },
            probe: AqmProbe::default(),
        }
    }

    /// A shared handle onto this host's fault latch and decision log —
    /// clone it before boxing the host into the simulation.
    pub fn probe(&self) -> AqmProbe {
        self.probe.clone()
    }

    /// Record every dequeue decision into the probe (differential tests).
    pub fn record_decisions(self) -> Self {
        self.probe.state.borrow_mut().record = true;
        self
    }

    /// The first runtime fault, if any occurred.
    pub fn first_error(&self) -> Option<String> {
        self.probe.first_error()
    }

    fn decide(&mut self, view: &AqmView) -> AqmDecision {
        if self.probe.faulted() {
            // latched failure: degrade to drop-tail, keep the run exact
            return AqmDecision::Pass;
        }
        let env = AqmEnv { view };
        let verdict = match &mut self.engine {
            Engine::Compiled { policy, ctx, map } => {
                policy.run_with_env(&env, ctx, map).map_err(RuntimeFault::Vm)
            }
            Engine::Interpreted { expr } => eval(expr, &env).map_err(RuntimeFault::Interp),
        };
        match verdict {
            Ok(v) => verdict_to_decision(v),
            Err(e) => {
                self.probe.state.borrow_mut().first_error = Some(e);
                AqmDecision::Pass
            }
        }
    }
}

impl AqmPolicy for ExprAqm {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_enqueue(&mut self, _view: &AqmView) -> AqmDecision {
        // the template acts at the dequeue hook (the prompt's contract);
        // admission control stays with the queue's byte bound
        AqmDecision::Pass
    }

    fn on_dequeue(&mut self, view: &AqmView) -> AqmDecision {
        let d = self.decide(view);
        let mut st = self.probe.state.borrow_mut();
        if st.record {
            st.decisions.push((view.now_us, view.pkt_size, d));
        }
        d
    }
}

/// The per-decision feature environment, shared by both engines: plain
/// field reads off the borrowed view.
struct AqmEnv<'a> {
    view: &'a AqmView,
}

impl FeatureEnv for AqmEnv<'_> {
    fn feature(&self, f: Feature) -> i64 {
        match f {
            Feature::Now => self.view.now_us as i64,
            Feature::PktSojournUs => self.view.sojourn_us as i64,
            Feature::PktSize => self.view.pkt_size as i64,
            Feature::QueueBytes => self.view.backlog_bytes as i64,
            Feature::QueuePkts => self.view.backlog_pkts as i64,
            Feature::QueueCapacityBytes => self.view.capacity_bytes as i64,
            Feature::DrainRateBps => self.view.drain_rate_bps as i64,
            Feature::SojournEwmaUs => self.view.ewma_sojourn_us as i64,
            Feature::SinceLastDropUs => self.view.since_drop_us as i64,
            Feature::AqmDrops => self.view.drops as i64,
            // non-aqm features cannot survive the Mode::Aqm check; be total
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_dsl::parse;

    fn view(sojourn_us: u64, backlog_pkts: u64) -> AqmView {
        AqmView {
            now_us: 1_000_000,
            pkt_size: 1500,
            sojourn_us,
            backlog_bytes: backlog_pkts * 1500,
            backlog_pkts,
            capacity_bytes: 240_000,
            drain_rate_bps: 12_000_000,
            ewma_sojourn_us: sojourn_us,
            since_drop_us: 1_000_000,
            drops: 0,
        }
    }

    fn host(src: &str) -> ExprAqm {
        ExprAqm::new("test", CompiledPolicy::from_source(src, Mode::Aqm).unwrap())
    }

    #[test]
    #[should_panic(expected = "refused the policy")]
    fn from_expr_refuses_rather_than_interprets() {
        // a float literal fails the check; the host must not quietly run
        // the oracle in its place
        ExprAqm::from_expr("float", &parse("pkt.sojourn * 0.5").unwrap());
    }

    #[test]
    fn verdict_bands_map_to_decisions() {
        // a sojourn gate: 2 (drop) above 10 ms, 1 (mark) above 5 ms, else 0
        let mut h = host("if(pkt.sojourn > 10000, 2, if(pkt.sojourn > 5000, 1, 0))");
        assert_eq!(h.on_dequeue(&view(1_000, 4)), AqmDecision::Pass);
        assert_eq!(h.on_dequeue(&view(7_000, 4)), AqmDecision::Mark);
        assert_eq!(h.on_dequeue(&view(20_000, 4)), AqmDecision::Drop);
    }

    #[test]
    fn negative_verdicts_pass() {
        let mut h = host("0 - aqm.drops");
        assert_eq!(h.on_dequeue(&view(9_000, 4)), AqmDecision::Pass);
    }

    #[test]
    fn large_verdicts_drop() {
        let mut h = host("q.pkts * 100");
        assert_eq!(h.on_dequeue(&view(0, 3)), AqmDecision::Drop);
    }

    #[test]
    fn enqueue_hook_is_inert() {
        let mut h = host("2");
        assert_eq!(h.on_enqueue(&view(0, 0)), AqmDecision::Pass);
        assert_eq!(h.on_dequeue(&view(0, 0)), AqmDecision::Drop);
    }

    #[test]
    fn runtime_fault_latches_and_degrades_to_droptail() {
        // aqm.drops is 0 before any drop → division by zero at runtime
        let mut h = host("1000 / aqm.drops");
        let probe = h.probe();
        assert!(!probe.faulted());
        assert_eq!(h.on_dequeue(&view(50_000, 40)), AqmDecision::Pass);
        assert!(probe.faulted(), "fault must latch");
        assert!(probe.first_error().is_some());
        // every later decision passes, whatever the queue looks like
        assert_eq!(h.on_dequeue(&view(500_000, 100)), AqmDecision::Pass);
    }

    #[test]
    fn probe_survives_the_host_being_boxed() {
        let h = host("1000 / aqm.drops");
        let probe = h.probe();
        let mut boxed: Box<dyn AqmPolicy> = Box::new(h);
        boxed.on_dequeue(&view(10_000, 8));
        assert!(probe.faulted(), "probe must observe the consumed host");
    }

    #[test]
    fn decision_log_records_the_dequeue_stream() {
        let h = host("if(pkt.sojourn > 5000, 2, 0)").record_decisions();
        let probe = h.probe();
        let mut boxed: Box<dyn AqmPolicy> = Box::new(h);
        boxed.on_dequeue(&view(1_000, 2));
        boxed.on_dequeue(&view(9_000, 2));
        let log = probe.decisions();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].2, AqmDecision::Pass);
        assert_eq!(log[1].2, AqmDecision::Drop);
    }

    #[test]
    fn compiled_and_interpreted_agree_per_decision() {
        let srcs = [
            "if(pkt.sojourn > 5000, 2, 0)",
            "if(q.bytes * 100 > q.capacity * 60, 1, 0)",
            "if(q.bytes * 8000000 / q.drain_rate > 15000, 2, 0 - 1)",
        ];
        for src in srcs {
            let e = parse(src).unwrap();
            let mut vm = ExprAqm::from_expr("vm", &e);
            let mut oracle = ExprAqm::interpreted("interp", e.clone());
            for (s, b) in [(0u64, 0u64), (3_000, 2), (8_000, 10), (40_000, 60), (200_000, 150)] {
                let v = view(s, b);
                assert_eq!(vm.on_dequeue(&v), oracle.on_dequeue(&v), "diverged on `{src}`");
            }
        }
    }
}
