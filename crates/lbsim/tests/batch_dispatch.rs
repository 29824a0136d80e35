//! Whole-simulation differential tests for the sublinear dispatch engines.
//!
//! The batched full scan is the reference (itself pinned against the
//! interpreter oracle here and in `policy.rs` unit tests, and against
//! per-row `run` in `kbpf/tests/batch_differential.rs`). The two sublinear
//! engines are held to their contracts across **all seven scenario
//! presets**:
//!
//! * the **argmin tree** is an exact engine — it must replay every preset
//!   (and a 300-server fleet, wider than any preset and not a power of
//!   two) decision-for-decision against the batched full scan, because
//!   dirty provenance from [`LbEngine`] plus tree eligibility
//!   (event-driven features only) make incremental rescoring lossless;
//! * **power-of-d** is an approximate engine — it must be bit-for-bit
//!   seed-deterministic, collapse to the full scan when `d >= n`, and land
//!   within a bounded slowdown band of native JSQ when sampling d=4.

use policysmith_dsl::{parse, Mode};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::dispatch::Jsq;
use policysmith_lbsim::workload::{ArrivalProcess, BoundedPareto, WorkloadCfg};
use policysmith_lbsim::{
    scenario, simulate, DispatchView, Dispatcher, ExprDispatcher, Scenario, ServerCfg,
};

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

/// Tree-eligible scoring rules (event-driven features only): the JSQ
/// argmin, a speed-normalized inflight mix, and a latency/queue blend.
const TREE_EXPRS: &[&str] = &[
    "server.queue_len",
    "server.inflight * 1000 / server.speed + server.queue_len * 50",
    "server.ewma_latency / 100 + server.queue_len * 10",
];

/// The tree's pick log and metrics equal the batched full scan's on `sc`,
/// for every tree-eligible rule.
fn assert_tree_replays_full_scan(sc: &Scenario) {
    for src in TREE_EXPRS {
        let mut full = Recording::new(ExprDispatcher::new("ps-full", lb_policy(src)));
        let mut tree = Recording::new(ExprDispatcher::argmin_tree("ps-tree", lb_policy(src)));
        assert_eq!(tree.inner.scan_kind(), "argmin-tree", "{src} must be tree-eligible");
        let mf = simulate(sc, &mut full);
        let mt = simulate(sc, &mut tree);
        assert_eq!(
            full.picks, tree.picks,
            "argmin tree diverged from the full scan on {} with `{}`",
            sc.name, src
        );
        assert_eq!(mf, mt, "metrics diverged on {} with `{}`", sc.name, src);
        assert!(tree.inner.first_error().is_none(), "no runtime faults expected");
    }
}

#[test]
fn argmin_tree_replays_every_preset_decision_for_decision() {
    for sc in scenario::all_presets() {
        assert_tree_replays_full_scan(&sc);
    }
}

/// 300 leaves pad to 512: whole subtrees of the tournament are padding,
/// which no preset (6–10 servers) reaches.
#[test]
fn argmin_tree_replays_a_300_server_fleet_decision_for_decision() {
    let n = 300;
    assert_tree_replays_full_scan(&Scenario {
        name: format!("lb/uniform-{n}"),
        servers: vec![ServerCfg::new(4, 32); n],
        workload: WorkloadCfg {
            // ~72% offered load on speed-4 servers
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 488.0 * n as f64 },
            sizes: BoundedPareto::web_default(),
            n: 8_000,
        },
        seed: 0xF1EE7,
    });
}

#[test]
fn argmin_tree_with_jsq_expr_matches_native_jsq() {
    // native JSQ scores `inflight` (queued + in service), ties to low index
    for sc in scenario::all_presets() {
        let mut tree =
            Recording::new(ExprDispatcher::argmin_tree("ps-tree", lb_policy("server.inflight")));
        let mut jsq = Recording::new(Jsq::new());
        simulate(&sc, &mut tree);
        simulate(&sc, &mut jsq);
        assert_eq!(tree.picks, jsq.picks, "JSQ-expr tree diverged from native JSQ on {}", sc.name);
    }
}

#[test]
fn power_of_d_is_seed_deterministic() {
    let sc = scenario::two_tier_fleet();
    let src = TREE_EXPRS[1];
    let mut a = Recording::new(ExprDispatcher::power_of_d("ps-d4", lb_policy(src), 4, 7));
    let mut b = Recording::new(ExprDispatcher::power_of_d("ps-d4", lb_policy(src), 4, 7));
    let ma = simulate(&sc, &mut a);
    let mb = simulate(&sc, &mut b);
    assert_eq!(a.picks, b.picks, "same seed must replay bit-for-bit");
    assert_eq!(ma.mean_slowdown().to_bits(), mb.mean_slowdown().to_bits());

    let mut c = Recording::new(ExprDispatcher::power_of_d("ps-d4", lb_policy(src), 4, 8));
    simulate(&sc, &mut c);
    assert_ne!(a.picks, c.picks, "a different seed samples different subsets");
}

#[test]
fn power_of_d_covering_the_fleet_equals_the_full_scan() {
    for sc in scenario::all_presets() {
        let n = sc.servers.len();
        let src = TREE_EXPRS[1];
        let mut full = Recording::new(ExprDispatcher::new("ps-full", lb_policy(src)));
        let mut wide =
            Recording::new(ExprDispatcher::power_of_d("ps-dn", lb_policy(src), n + 3, 7));
        simulate(&sc, &mut full);
        simulate(&sc, &mut wide);
        assert_eq!(
            full.picks, wide.picks,
            "d >= n must degenerate to the full scan on {}",
            sc.name
        );
    }
}

/// d=4 sampling of the JSQ rule stays within a bounded slowdown band of
/// native JSQ on every preset. The band is generous: power-of-d trades
/// decision quality for O(d) scoring, and the high-load presets
/// (correlated failures runs near 93% offered load) amplify the gap.
#[test]
fn power_of_d_stays_within_a_slowdown_band_of_jsq() {
    for sc in scenario::all_presets() {
        let mut pd = ExprDispatcher::power_of_d("ps-d4", lb_policy("server.inflight"), 4, 7);
        let mpd = simulate(&sc, &mut pd);
        let mjsq = simulate(&sc, &mut Jsq::new());
        let (a, b) = (mpd.mean_slowdown(), mjsq.mean_slowdown());
        assert!(a >= 1.0, "slowdown is bounded below by 1");
        assert!(
            a <= b * 3.0 + 0.5,
            "power-of-4 slowdown {a:.3} too far above JSQ {b:.3} on {}",
            sc.name
        );
    }
}

/// The interpreter oracle (a scalar, server-by-server scan) and the
/// batched default agree over whole simulations, not just single picks.
#[test]
fn scalar_and_batched_agree_over_whole_simulations() {
    for sc in scenario::all_presets() {
        for src in TREE_EXPRS {
            let mut batched = Recording::new(ExprDispatcher::new("ps", lb_policy(src)));
            let mut scalar = Recording::new(ExprDispatcher::interpreted("ps", parse(src).unwrap()));
            simulate(&sc, &mut batched);
            simulate(&sc, &mut scalar);
            assert_eq!(batched.picks, scalar.picks, "engines diverged on {}", sc.name);
        }
    }
}
