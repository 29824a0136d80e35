//! Differential property tests for the batched evaluation engine, across
//! all four template modes.
//!
//! The trust chain: `dsl::eval` specifies the scalar VM (pinned in
//! `equivalence.rs`), and the scalar VM specifies the batched engine —
//! pinned here. For random verified expressions and random
//! structure-of-arrays contexts:
//!
//! 1. **Row-for-row equality.** `run_batch` over N rows must be
//!    result-for-result identical to one scalar `run` per row in ascending
//!    row order sharing the map — fault rows included (same
//!    `VmError::DivByZero` at the same `pc`), and the shared scratch maps
//!    must end bit-identical.
//! 2. **Fused argmin/argmax.** `run_batch_argmin` must match a naive
//!    scalar scan, including the two pinned edge contracts: **ties break
//!    to the lowest row index** (strict `<`/`>` against the running best),
//!    and a faulting row aborts the reduction with the **lowest** faulting
//!    row — exactly the first fault a scalar scan would hit.

use policysmith_dsl::env::MapEnv;
use policysmith_dsl::{Expr, Feature, Mode};
use policysmith_kbpf::{BatchCtx, BatchScratch, CompiledPolicy, VmError, SPILL_SLOTS};
use proptest::prelude::*;

fn kernel_features() -> Vec<Feature> {
    vec![
        Feature::Cwnd,
        Feature::MinRttUs,
        Feature::SrttUs,
        Feature::InflightPkts,
        Feature::Mss,
        Feature::LossEvent,
        Feature::AckedBytes,
        Feature::HistRtt(0),
        Feature::HistLoss(1),
    ]
}

fn cache_features() -> Vec<Feature> {
    vec![
        Feature::Now,
        Feature::ObjCount,
        Feature::ObjLastAccess,
        Feature::ObjSize,
        Feature::ObjAge,
        Feature::CountsPct(50),
        Feature::SizesPct(90),
        Feature::HistContains,
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

fn arb_binop() -> impl Strategy<Value = policysmith_dsl::BinOp> {
    use policysmith_dsl::BinOp;
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::Min),
        Just(BinOp::Max),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
    ]
}

fn arb_expr(features: Vec<Feature>) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1_000i64..1_000).prop_map(Expr::Int),
        proptest::sample::select(features).prop_map(Expr::Feat),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        // literal right operands (immediate forms keep a program
        // straight-line, so these are the ones the column engine runs) and
        // `if` over a `&&` chain of comparisons (the row fallback)
        let literal = || {
            prop_oneof![
                -1_000i64..1_000,
                proptest::sample::select(vec![0, 1, -1, 63, 64, i64::MAX, i64::MIN]),
            ]
            .prop_map(Expr::Int)
        };
        let cmp = |inner: BoxedStrategy<Expr>| {
            (0usize..6, inner, literal()).prop_map(|(op, a, b)| {
                use policysmith_dsl::CmpOp::*;
                Expr::cmp([Lt, Le, Gt, Ge, Eq, Ne][op], a, b)
            })
        };
        prop_oneof![
            (arb_binop(), inner.clone(), literal()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            (arb_binop(), literal(), inner.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            (cmp(inner.clone().boxed()), cmp(inner.clone().boxed()), inner.clone(), inner.clone())
                .prop_map(|(c1, c2, t, f)| {
                    Expr::ite(Expr::bin(policysmith_dsl::BinOp::And, c1, c2), t, f)
                }),
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            inner.clone().prop_map(|a| Expr::Neg(Box::new(a))),
            inner.clone().prop_map(|a| Expr::Abs(Box::new(a))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::ite(a, b, c)),
        ]
    })
}

/// A random environment respecting each feature's declared range, clipped.
/// Possibly-zero features (inflight, queue lengths, loss counters, …) DO
/// sample zero, so random divisions produce genuine fault rows.
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

/// 1–8 row environments per case.
fn arb_rows(features: Vec<Feature>) -> impl Strategy<Value = Vec<MapEnv>> {
    proptest::collection::vec(arb_env(features), 1..8)
}

/// The naive reference reduction the fused one is pinned against: scalar
/// `run` per row in ascending order, strict comparison against the running
/// best (→ lowest index on ties), abort at the first faulting row.
fn naive_reduce(
    policy: &CompiledPolicy,
    ctxs: &[Vec<i64>],
    better: impl Fn(i64, i64) -> bool,
) -> Result<usize, (usize, VmError)> {
    let mut map = vec![0i64; SPILL_SLOTS];
    let mut best = 0usize;
    let mut best_score = policy.run(&ctxs[0], &mut map).map_err(|e| (0, e))?;
    for (r, ctx) in ctxs.iter().enumerate().skip(1) {
        let v = policy.run(ctx, &mut map).map_err(|e| (r, e))?;
        if better(best_score, v) {
            best_score = v;
            best = r;
        }
    }
    Ok(best)
}

/// The shared differential check for one `(expr, rows, mode)` case.
fn assert_batch_matches_scalar(e: &Expr, envs: &[MapEnv], mode: Mode) -> TestCaseResult {
    let policy = match CompiledPolicy::compile(e, mode) {
        Ok(p) => p,
        // budget/verification rejections discard the candidate upstream
        Err(_) => return Ok(()),
    };
    let layout = policy.layout();
    let mut ctxs: Vec<Vec<i64>> = Vec::with_capacity(envs.len());
    for env in envs {
        let mut ctx = Vec::new();
        layout.fill(env, &mut ctx);
        ctxs.push(ctx);
    }
    let refs: Vec<&[i64]> = ctxs.iter().map(|c| c.as_slice()).collect();
    let batch = BatchCtx::from_rows(layout.len(), &refs);
    let mut scratch = BatchScratch::new();

    // 1. run_batch ≡ scalar run per row (shared map, ascending order)
    let mut bmap = vec![0i64; SPILL_SLOTS];
    let mut out = Vec::new();
    policy.run_batch(&batch, &mut scratch, &mut bmap, &mut out);
    prop_assert_eq!(out.len(), envs.len(), "one result per row");
    let mut smap = vec![0i64; SPILL_SLOTS];
    for (r, ctx) in ctxs.iter().enumerate() {
        let want = policy.run(ctx, &mut smap);
        prop_assert_eq!(
            &out[r],
            &want,
            "row {} diverged (plan {:?}):\n{}",
            r,
            policy.batch_plan(),
            policy.program()
        );
    }
    prop_assert_eq!(&bmap, &smap, "shared scratch maps diverged:\n{}", policy.program());

    // 2. fused argmin/argmax ≡ the naive scalar scan (fresh maps per side)
    let mut map = vec![0i64; SPILL_SLOTS];
    let fused_min =
        policy.run_batch_argmin(&batch, &mut scratch, &mut map).map_err(|f| (f.row, f.fault));
    prop_assert_eq!(
        &fused_min,
        &naive_reduce(&policy, &ctxs, |best, v| v < best),
        "argmin diverged from the naive scan:\n{}",
        policy.program()
    );
    let mut map = vec![0i64; SPILL_SLOTS];
    let fused_max =
        policy.run_batch_argmax(&batch, &mut scratch, &mut map).map_err(|f| (f.row, f.fault));
    prop_assert_eq!(
        &fused_max,
        &naive_reduce(&policy, &ctxs, |best, v| v > best),
        "argmax diverged from the naive scan:\n{}",
        policy.program()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn kernel_batch_matches_scalar_per_row(
        e in arb_expr(kernel_features()),
        envs in arb_rows(kernel_features()),
    ) {
        assert_batch_matches_scalar(&e, &envs, Mode::Kernel)?;
    }

    #[test]
    fn cache_batch_matches_scalar_per_row(
        e in arb_expr(cache_features()),
        envs in arb_rows(cache_features()),
    ) {
        assert_batch_matches_scalar(&e, &envs, Mode::Cache)?;
    }

    #[test]
    fn lb_batch_matches_scalar_per_row(
        e in arb_expr(lb_features()),
        envs in arb_rows(lb_features()),
    ) {
        assert_batch_matches_scalar(&e, &envs, Mode::Lb)?;
    }

    #[test]
    fn aqm_batch_matches_scalar_per_row(
        e in arb_expr(aqm_features()),
        envs in arb_rows(aqm_features()),
    ) {
        assert_batch_matches_scalar(&e, &envs, Mode::Aqm)?;
    }
}

/// Deterministic pin of the tie-break contract on a real compiled policy
/// (beyond the random-case coverage above): equal minima pick the lowest
/// row index.
#[test]
fn argmin_tie_break_is_lowest_row_index() {
    let e = policysmith_dsl::parse("server.queue_len * 10").unwrap();
    let policy = CompiledPolicy::compile(&e, Mode::Lb).unwrap();
    // rows 1, 2 and 4 tie at the minimum score 10
    let mut batch = BatchCtx::with_rows(policy.layout().len(), 5);
    for (row, q) in [7i64, 1, 1, 3, 1].into_iter().enumerate() {
        batch.set(row, 0, q);
    }
    let mut scratch = BatchScratch::new();
    let mut map = vec![0i64; SPILL_SLOTS];
    assert_eq!(policy.run_batch_argmin(&batch, &mut scratch, &mut map), Ok(1));
    assert_eq!(policy.run_batch_argmax(&batch, &mut scratch, &mut map), Ok(0));
}

/// Deterministic pin of the fault-order contract: the fused reduction
/// reports the lowest faulting row even when the fault is not the first
/// row overall.
#[test]
fn argmin_fault_abort_reports_the_lowest_faulting_row() {
    let e = policysmith_dsl::parse("1000 / server.queue_len").unwrap();
    let policy = CompiledPolicy::compile(&e, Mode::Lb).unwrap();
    assert!(policy.may_fault(), "unprovable division must defer to the runtime guard");
    let mut batch = BatchCtx::with_rows(policy.layout().len(), 4);
    for (row, q) in [5i64, 0, 2, 0].into_iter().enumerate() {
        batch.set(row, 0, q);
    }
    let mut scratch = BatchScratch::new();
    let mut map = vec![0i64; SPILL_SLOTS];
    let err = policy.run_batch_argmin(&batch, &mut scratch, &mut map).unwrap_err();
    assert_eq!(err.row, 1, "row 1 is the lowest faulting row");
    assert!(matches!(err.fault, VmError::DivByZero { .. }));
}
