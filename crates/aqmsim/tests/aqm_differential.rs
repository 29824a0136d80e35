//! Differential test: the compiled kbpf verdict host vs the DSL
//! interpreter oracle, decision for decision, on live netsim scenarios.
//!
//! Both engines host the *same* `Mode::Aqm` expression; both manage a
//! bottleneck through whole scenario replays with decision recording on.
//! Any divergence would steer the two simulations apart, so the suite
//! checks the strongest observable first — the packet-for-packet decision
//! log — and then the downstream metrics, across the full preset matrix
//! for a library of searched-style policies (including one that exercises
//! the fault-latch path), then property-tests the same claim over random
//! verified expressions.

use policysmith_aqmsim::{metrics, scenario, AqmMetrics, AqmScenario, ExprAqm, LoggedDecision};
use policysmith_dsl::parse;

/// Searched-style verdict policies: sojourn gates (CoDel-flavoured),
/// occupancy gates (RED-flavoured), delay-estimate gates (PIE-flavoured),
/// ECN markers, spacing guards — the shapes the synthesis loop produces.
const POLICY_LIBRARY: &[&str] = &[
    "0",
    "if(pkt.sojourn > 8000, 2, 0)",
    "if(q.ewma_sojourn > 6000, 1, 0)",
    "if(q.bytes * 100 > q.capacity * 60, 2, 0)",
    "if(q.bytes * 8000000 / q.drain_rate > 15000, 1, 0)",
    "if(pkt.sojourn > 5000, if(aqm.since_drop < 20000, 0, 2), 0 - 1)",
    "if(q.pkts > 40, 2, if(q.ewma_sojourn > 10000, 1, 0))",
];

/// This one divides by `aqm.drops`, which is 0 until the first drop — it
/// must latch identically in both engines and degrade to drop-tail.
const FAULTING_POLICY: &str = "if(pkt.sojourn > 2000, 1000 / aqm.drops, 0)";

fn run_engine(
    sc: &AqmScenario,
    src: &str,
    compiled: bool,
) -> (AqmMetrics, Vec<LoggedDecision>, bool) {
    run_engine_expr(sc, &parse(src).unwrap(), compiled)
}

fn run_engine_expr(
    sc: &AqmScenario,
    e: &policysmith_dsl::Expr,
    compiled: bool,
) -> (AqmMetrics, Vec<LoggedDecision>, bool) {
    let host = if compiled {
        ExprAqm::from_expr("vm", e)
    } else {
        ExprAqm::interpreted("interp", e.clone())
    };
    let host = host.record_decisions();
    let probe = host.probe();
    let m = metrics::run(sc, Box::new(host));
    (m, probe.decisions(), probe.faulted())
}

/// Preset matrix shortened so the full library × preset product stays
/// fast; the decision streams are still thousands of packets long.
fn short_presets() -> Vec<AqmScenario> {
    scenario::all_presets()
        .into_iter()
        .map(|mut sc| {
            sc.sim.duration_us = 3_000_000;
            sc
        })
        .collect()
}

#[test]
fn library_policies_agree_on_every_decision_across_presets() {
    for src in POLICY_LIBRARY {
        for sc in short_presets() {
            let (vm_m, vm_log, vm_fault) = run_engine(&sc, src, true);
            let (or_m, or_log, or_fault) = run_engine(&sc, src, false);
            assert!(
                vm_log.len() > 100,
                "{}/{src}: only {} decisions — scenario too short to mean anything",
                sc.name,
                vm_log.len()
            );
            assert_eq!(vm_log, or_log, "{}/{src}: decision streams diverged", sc.name);
            assert_eq!(vm_m, or_m, "{}/{src}: metrics diverged", sc.name);
            assert!(!vm_fault && !or_fault, "{}/{src}: verified policy faulted", sc.name);
        }
    }
}

#[test]
fn faulting_policy_latches_identically_in_both_engines() {
    for sc in short_presets() {
        let (vm_m, vm_log, vm_fault) = run_engine(&sc, FAULTING_POLICY, true);
        let (or_m, or_log, or_fault) = run_engine(&sc, FAULTING_POLICY, false);
        assert!(vm_fault, "{}: the zero divisor must be hit", sc.name);
        assert!(or_fault, "{}: the oracle must fault too", sc.name);
        assert_eq!(vm_log, or_log, "{}: latched fallback must be engine-independent", sc.name);
        assert_eq!(vm_m, or_m, "{}: post-latch metrics diverged", sc.name);
        // after the latch the host is drop-tail: same outcome as inert "0"
        let (dt_m, _, _) = run_engine(&sc, "0", true);
        assert_eq!(vm_m, dt_m, "{}: latched host must equal drop-tail", sc.name);
    }
}

mod proptest_differential {
    use super::*;
    use policysmith_dsl::{BinOp, CmpOp, Expr, Feature, Mode};
    use policysmith_kbpf::CompiledPolicy;
    use proptest::prelude::*;

    fn aqm_features() -> Vec<Feature> {
        vec![
            Feature::Now,
            Feature::PktSojournUs,
            Feature::PktSize,
            Feature::QueueBytes,
            Feature::QueuePkts,
            Feature::QueueCapacityBytes,
            Feature::DrainRateBps,
            Feature::SojournEwmaUs,
            Feature::SinceLastDropUs,
            Feature::AqmDrops,
        ]
    }

    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (-4i64..8).prop_map(Expr::int),
            (0i64..40_000).prop_map(Expr::int),
            proptest::sample::select(aqm_features()).prop_map(Expr::feat),
        ];
        leaf.prop_recursive(4, 24, 3, |inner| {
            prop_oneof![
                (
                    prop_oneof![
                        Just(BinOp::Add),
                        Just(BinOp::Sub),
                        Just(BinOp::Mul),
                        Just(BinOp::Div),
                        Just(BinOp::Rem),
                        Just(BinOp::Min),
                        Just(BinOp::Max),
                        Just(BinOp::Shr),
                    ],
                    inner.clone(),
                    inner.clone()
                )
                    .prop_map(|(op, a, b)| Expr::bin(op, a, b)),
                (
                    prop_oneof![
                        Just(CmpOp::Lt),
                        Just(CmpOp::Le),
                        Just(CmpOp::Gt),
                        Just(CmpOp::Ge),
                        Just(CmpOp::Eq),
                        Just(CmpOp::Ne),
                    ],
                    inner.clone(),
                    inner.clone()
                )
                    .prop_map(|(op, a, b)| Expr::cmp(op, a, b)),
                (inner.clone(), inner.clone(), inner.clone())
                    .prop_map(|(a, b, c)| Expr::ite(a, b, c)),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random verified verdict policies replayed through both engines
        /// on the steady preset — identical decision streams, identical
        /// metrics, identical fault latching (random expressions *do* hit
        /// the runtime-fault path via unguarded divisions, so this also
        /// exercises the latch differentially).
        #[test]
        fn random_verified_policies_agree_on_whole_scenarios(e in arb_expr()) {
            if CompiledPolicy::compile(&e, Mode::Aqm).is_err() {
                // the pipeline rejects it (e.g. budget) — nothing to host
                return Ok(());
            }
            let mut sc = scenario::steady();
            sc.sim.duration_us = 1_000_000;
            let src = policysmith_dsl::to_source(&e);
            let (vm_m, vm_log, vm_fault) = run_engine_expr(&sc, &e, true);
            let (or_m, or_log, or_fault) = run_engine_expr(&sc, &e, false);
            prop_assert!(!vm_log.is_empty(), "no decisions for `{}`", src);
            prop_assert_eq!(vm_fault, or_fault, "fault latch diverged for `{}`", src);
            prop_assert_eq!(vm_log, or_log, "decision streams diverged for `{}`", src);
            prop_assert_eq!(vm_m, or_m, "metrics diverged for `{}`", src);
        }
    }
}
