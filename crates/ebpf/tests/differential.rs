//! Property tests for the kbpf → eBPF pipeline: random kernel-mode
//! expressions are compiled, emitted, model-checked, and executed on both
//! engines — any divergence anywhere in the chain fails the property.
//!
//! 1. **Gate honesty.** Emission either succeeds or fails with a
//!    *semantics* error (`SaturationUnprovable` / `SdivOverflowPossible`)
//!    — never an internal error. Rejection is a legitimate outcome: the
//!    DSL's shift/arith saturate by spec, so a verified policy can
//!    genuinely saturate (e.g. `x << 63`), and such a policy has no
//!    faithful wrapping-eBPF translation. Realistic cc policies (bounded
//!    features, small constants) pass; the library-wide emit guarantee is
//!    asserted over real policies in `crates/cc`'s differential suite.
//! 2. **Model-verifier totality.** Every emitted program passes
//!    [`model_check`] — the independent re-proof never disagrees with the
//!    emitter about its own output.
//! 3. **Decision identity.** On random in-range contexts the emulated
//!    eBPF returns bit-for-bit the kbpf VM's result, and the model
//!    verifier's `r0` bounds contain it. Saturating vs wrapping, 11 vs 10
//!    registers, persistent map vs fresh stack — all proven away.

use policysmith_dsl::env::MapEnv;
use policysmith_dsl::{BinOp, CmpOp, Expr, Feature, Mode};
use policysmith_ebpf::{emit_policy, model_check, run};
use policysmith_kbpf::{CompiledPolicy, SPILL_SLOTS};
use proptest::prelude::*;

fn kernel_features() -> Vec<Feature> {
    vec![
        Feature::Cwnd,
        Feature::PrevCwnd,
        Feature::MinRttUs,
        Feature::SrttUs,
        Feature::LastRttUs,
        Feature::InflightPkts,
        Feature::Mss,
        Feature::LossEvent,
        Feature::AckedBytes,
        Feature::Ssthresh,
        Feature::HistRtt(0),
        Feature::HistDelivered(2),
        Feature::HistLoss(1),
        Feature::HistQdelay(0),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    proptest::sample::select(BinOp::ALL.to_vec())
}

fn arb_cmpop() -> impl Strategy<Value = CmpOp> {
    proptest::sample::select(CmpOp::ALL.to_vec())
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1_000i64..1_000).prop_map(Expr::int),
        proptest::sample::select(kernel_features()).prop_map(Expr::feat),
    ];
    leaf.prop_recursive(5, 48, 3, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            (arb_cmpop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::cmp(op, a, b)),
            inner.clone().prop_map(|a| -a),
            inner.clone().prop_map(|a| !a),
            inner.clone().prop_map(Expr::abs),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| Expr::ite(a, b, c)),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::clamp(a, b, c)),
        ]
    })
}

fn arb_env() -> impl Strategy<Value = MapEnv> {
    let features = kernel_features();
    let ranges: Vec<_> = features
        .iter()
        .map(|f| {
            let (lo, hi) = f.range();
            lo.max(0)..=hi.min(1_000_000)
        })
        .collect();
    ranges.prop_map(move |vs| {
        let mut env = MapEnv::new();
        for (f, v) in features.iter().zip(vs) {
            env.set(*f, v);
        }
        env
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn emitted_ebpf_matches_the_kbpf_vm_decision_for_decision(
        e in arb_expr(),
        env in arb_env(),
    ) {
        // Only fully verified kernel policies reach deployment; anything
        // the pipeline rejects is discarded upstream.
        let Ok(policy) = CompiledPolicy::compile(&e, Mode::Kernel) else {
            return Ok(());
        };

        // (1) emission fails only through the semantics gate
        let prog = match emit_policy(&policy) {
            Ok(p) => p,
            Err(
                policysmith_ebpf::EmitError::SaturationUnprovable { .. }
                | policysmith_ebpf::EmitError::SdivOverflowPossible { .. },
            ) => return Ok(()), // genuinely saturating policy: no faithful translation
            Err(err) => {
                return Err(TestCaseError::fail(format!(
                    "verified policy failed to emit with a non-gate error: {err}\n{}",
                    policy.program()
                )))
            }
        };

        // (2) the emitted artifact passes the independent model verifier
        let stats = match model_check(&prog) {
            Ok(s) => s,
            Err(err) => {
                return Err(TestCaseError::fail(format!(
                    "emitted program failed model check: {err}\n{prog}"
                )))
            }
        };

        // (3) decision identity on an in-range context
        let mut ctx = Vec::new();
        policy.layout().fill(&env, &mut ctx);
        // hosts clamp into declared ranges before invoking the kernel ABI
        for (v, &(lo, hi)) in ctx.iter_mut().zip(&policy.layout().verify_env().ctx_ranges) {
            *v = (*v).clamp(lo, hi);
        }
        let mut map = vec![0i64; SPILL_SLOTS];
        let vm = policy.run(&ctx, &mut map);
        let eb = run(&prog, &ctx);
        match (vm, eb) {
            (Ok(v), Ok(b)) => {
                prop_assert_eq!(v, b, "engines disagree\nkbpf:\n{}\nebpf:\n{}", policy.program(), prog);
                prop_assert!(
                    stats.r0.0 <= v && v <= stats.r0.1,
                    "r0 = {} outside model-checked bounds [{}, {}]\n{}",
                    v, stats.r0.0, stats.r0.1, prog
                );
            }
            (vm, eb) => {
                // kernel-mode compiles are fully verified: neither engine
                // may fault on in-range contexts
                return Err(TestCaseError::fail(format!(
                    "unexpected fault: kbpf={vm:?} ebpf={eb:?}\n{prog}"
                )));
            }
        }
    }

    #[test]
    fn struct_ops_c_renders_for_every_verified_policy(e in arb_expr()) {
        let Ok(policy) = CompiledPolicy::compile(&e, Mode::Kernel) else {
            return Ok(());
        };
        let c = policysmith_ebpf::render_struct_ops(
            policy.program(),
            policy.layout().features(),
            "prop_policy",
        );
        prop_assert!(c.contains("static s64 prop_policy_policy"));
        prop_assert!(c.contains("return r0;"));
        // labels and gotos must be consistent (no dangling targets)
        for line in c.lines() {
            let t = line.trim();
            if let Some(rest) = t.strip_prefix("goto L") {
                let label = rest.trim_end_matches(';');
                prop_assert!(
                    c.lines().any(|l| l.trim_end() == format!("L{label}:")),
                    "dangling goto L{label}"
                );
            }
        }
    }
}
