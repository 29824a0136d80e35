//! Property tests tying the whole compile-once pipeline together, for all
//! three template modes:
//!
//! 1. **Verifier soundness.** If the pipeline reports a candidate fully
//!    verified, executing it on *any* context whose values respect the
//!    declared feature ranges never faults (no division by zero), and the
//!    reference stepper (`stepper/mod.rs`), which panics on a backward
//!    jump instead of spinning, ends every accepted program. `run` and the
//!    stepper agree on the result, fault included, and on the scratch map.
//! 2. **Compiler correctness.** The VM and the DSL interpreter agree
//!    bit-for-bit — `dsl::eval` is the specification, the compiled program
//!    the implementation. This includes the fault cases: a division by
//!    zero at runtime surfaces as `VmError::DivByZero` exactly when the
//!    interpreter reports `EvalError::DivByZero`, so the hosts' latched
//!    fallback fires identically for both engines.
//! 3. **Interval soundness.** The `r0` interval the verifier reports
//!    contains every observed runtime result.

mod stepper;

use policysmith_dsl::env::MapEnv;
use policysmith_dsl::{eval, BinOp, CmpOp, Expr, Feature, Mode};
use policysmith_kbpf::{CompiledPolicy, VmError, SPILL_SLOTS};
use proptest::prelude::*;

fn kernel_features() -> Vec<Feature> {
    // A representative mix: possibly-zero features (loss, inflight,
    // hist_*), never-zero features (mss, min_rtt, cwnd), wide ranges.
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
        Feature::HistRtt(4),
        Feature::HistDelivered(2),
        Feature::HistLoss(1),
        Feature::HistQdelay(0),
    ]
}

fn cache_features() -> Vec<Feature> {
    // Table-1 surface, including parameterized percentiles outside the
    // catalog's representative set (p60) — the generic layout must slot
    // them all.
    vec![
        Feature::Now,
        Feature::ObjCount,
        Feature::ObjLastAccess,
        Feature::ObjSize,
        Feature::ObjAge,
        Feature::ObjTimeInCache,
        Feature::CountsPct(50),
        Feature::AgesPct(60),
        Feature::SizesPct(90),
        Feature::HistContains,
        Feature::HistCount,
        Feature::HistTimeSinceEvict,
        Feature::CacheObjects,
        Feature::CacheUsedBytes,
        Feature::CacheCapacity,
    ]
}

fn lb_features() -> Vec<Feature> {
    vec![
        Feature::Now,
        Feature::ServerQueueLen,
        Feature::ServerEwmaLatency,
        Feature::ServerSpeed,
        Feature::ServerInflight,
        Feature::ServerWorkLeft,
        Feature::ReqSize,
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    proptest::sample::select(BinOp::ALL.to_vec())
}

fn arb_cmpop() -> impl Strategy<Value = CmpOp> {
    proptest::sample::select(CmpOp::ALL.to_vec())
}

/// Literal operands: ordinary constants plus the values where immediate
/// forms could part ways with register forms if anything could (zero and
/// `-1` divisors, shift amounts at and past the clamp, the rails).
fn arb_literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        -1_000i64..1_000,
        proptest::sample::select(vec![0, 1, -1, 2, 63, 64, -64, i64::MAX, i64::MIN]),
    ]
    .prop_map(Expr::int)
}

fn arb_expr(features: Vec<Feature>) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1_000i64..1_000).prop_map(Expr::int),
        proptest::sample::select(features).prop_map(Expr::feat),
    ];
    leaf.prop_recursive(5, 48, 3, |inner| {
        // what the lowerer selects instructions for: `x op Int` (and the
        // commuted `Int op x`), `x cmp Int`, `clamp` with literal bounds,
        // and `if` over a `&&` chain of comparisons
        let cmp = |inner: BoxedStrategy<Expr>| {
            (arb_cmpop(), inner.clone(), prop_oneof![inner, arb_literal()])
                .prop_map(|(op, a, b)| Expr::cmp(op, a, b))
        };
        prop_oneof![
            (arb_binop(), inner.clone(), arb_literal()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            (arb_binop(), arb_literal(), inner.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            cmp(inner.clone().boxed()),
            (inner.clone(), arb_literal(), arb_literal())
                .prop_map(|(x, lo, hi)| Expr::clamp(x, lo, hi)),
            (cmp(inner.clone().boxed()), cmp(inner.clone().boxed()), inner.clone(), inner.clone())
                .prop_map(|(c1, c2, t, f)| Expr::ite(Expr::bin(BinOp::And, c1, c2), t, f)),
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

/// A random environment whose values respect each feature's declared range
/// (clipped to keep arithmetic interesting but finite).
fn arb_env(features: Vec<Feature>) -> impl Strategy<Value = MapEnv> {
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

/// The shared oracle check: compile in `mode`, execute against `env`, and
/// demand bit-for-bit agreement with `dsl::eval` — result *and* fault.
fn assert_compiled_matches_interpreter(e: &Expr, env: &MapEnv, mode: Mode) -> TestCaseResult {
    let policy = match CompiledPolicy::compile(e, mode) {
        Ok(p) => p,
        // Userspace compiles reject only on budgets (possible for deeply
        // nested random trees); kernel ones additionally on verification.
        // Either way the pipeline discards the candidate; nothing to check.
        Err(_) => return Ok(()),
    };
    // In kernel mode a successful compile IS full verification.
    prop_assert!(mode != Mode::Kernel || !policy.may_fault(), "kernel mode must not defer faults");
    let mut ctx = Vec::new();
    let mut map = vec![0i64; SPILL_SLOTS];
    let got = policy.run_with_env(env, &mut ctx, &mut map);
    let want = eval(e, env);
    // `run` is the VM; the stepper is the ISA written once more, one
    // instruction at a time, and the two must never diverge
    let mut map2 = vec![0i64; SPILL_SLOTS];
    let stepped = stepper::step(policy.program(), &ctx, &mut map2, |_, _, _| {});
    prop_assert_eq!(&got, &stepped, "the VM and the stepper disagree:\n{}", policy.program());
    prop_assert_eq!(&map, &map2, "scratch maps diverged:\n{}", policy.program());
    match (got, want) {
        (Ok(g), Ok(w)) => {
            prop_assert_eq!(g, w, "program:\n{}", policy.program());
            if let Some(r0) = policy.r0_bounds() {
                prop_assert!(
                    r0.lo <= g && g <= r0.hi,
                    "r0 = {} outside verified bounds [{}, {}]\n{}",
                    g,
                    r0.lo,
                    r0.hi,
                    policy.program()
                );
            }
        }
        (Err(VmError::DivByZero { .. }), Err(policysmith_dsl::EvalError::DivByZero)) => {
            // identical fault: both engines trip the same host fallback —
            // which the static pipeline must have predicted as possible
            prop_assert!(
                policy.may_fault(),
                "a fully verified program faulted: {}",
                policy.program()
            );
        }
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "engines disagree: vm={got:?} interp={want:?}\n{}",
                policy.program()
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_verified_programs_never_fault_and_match_interpreter(
        e in arb_expr(kernel_features()),
        env in arb_env(kernel_features()),
    ) {
        // (the helper additionally asserts kernel mode never defers faults,
        // so its fault arm is unreachable here)
        assert_compiled_matches_interpreter(&e, &env, Mode::Kernel)?;
    }

    #[test]
    fn cache_compiled_execution_matches_interpreter_including_faults(
        e in arb_expr(cache_features()),
        env in arb_env(cache_features()),
    ) {
        assert_compiled_matches_interpreter(&e, &env, Mode::Cache)?;
    }

    #[test]
    fn lb_compiled_execution_matches_interpreter_including_faults(
        e in arb_expr(lb_features()),
        env in arb_env(lb_features()),
    ) {
        assert_compiled_matches_interpreter(&e, &env, Mode::Lb)?;
    }

    #[test]
    fn checker_warnings_predict_verifier_on_divisions(e in arb_expr(kernel_features())) {
        // If the DSL checker reports no division warnings, the verifier
        // must not reject for division-by-zero (its interval analysis is
        // strictly stronger than the syntactic guard analysis).
        let report = policysmith_dsl::check_with_warnings(&e, Mode::Kernel, usize::MAX, usize::MAX);
        prop_assume!(report.ok());
        if report.warnings.is_empty() {
            if let Err(err) = CompiledPolicy::compile(&e, Mode::Kernel) {
                prop_assert!(
                    !err.to_string().contains("divisor"),
                    "checker said guarded, verifier disagreed: {}", err
                );
            }
        }
    }
}
