//! Whole-simulation differential test for the lb template host's two
//! engines: the batched full scan (itself pinned against per-row `run` in
//! `kbpf/tests/batch_differential.rs`) and the interpreter oracle must
//! replay **all seven scenario presets** pick for pick. `policy.rs`'s unit
//! tests hold the same pair to equal metrics and equal fault latching;
//! `dispatch_golden.rs` pins both against parent-captured outcomes.

use policysmith_dsl::{parse, Mode};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{scenario, simulate, DispatchView, Dispatcher, ExprDispatcher};

/// Wraps any dispatcher and records its pick sequence.
struct Recording<D> {
    inner: D,
    picks: Vec<usize>,
}

impl<D> Recording<D> {
    fn new(inner: D) -> Self {
        Recording { inner, picks: Vec::new() }
    }
}

impl<D: Dispatcher> Dispatcher for Recording<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        let p = self.inner.pick(view);
        self.picks.push(p);
        p
    }
}

fn lb_policy(src: &str) -> CompiledPolicy {
    CompiledPolicy::compile(&parse(src).unwrap(), Mode::Lb).unwrap()
}

/// Event-driven scoring rules: the JSQ argmin, a speed-normalized inflight
/// mix, and a latency/queue blend.
const EXPRS: &[&str] = &[
    "server.queue_len",
    "server.inflight * 1000 / server.speed + server.queue_len * 50",
    "server.ewma_latency / 100 + server.queue_len * 10",
];

/// The interpreter oracle (a scalar, server-by-server scan) and the
/// batched engine agree over whole simulations, not just single picks.
#[test]
fn scalar_and_batched_agree_over_whole_simulations() {
    for sc in scenario::all_presets() {
        for src in EXPRS {
            let mut batched = Recording::new(ExprDispatcher::new("ps", lb_policy(src)));
            let mut scalar = Recording::new(ExprDispatcher::interpreted("ps", parse(src).unwrap()));
            simulate(&sc, &mut batched);
            simulate(&sc, &mut scalar);
            assert_eq!(batched.picks, scalar.picks, "engines diverged on {}", sc.name);
        }
    }
}
