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
//! 2. **Fused argmin.** `run_batch_argmin` must match a naive scalar
//!    scan, including the two pinned edge contracts: **ties break to the
//!    lowest row index** (strict `<` against the running best),
//!    and a faulting row aborts the reduction with the **lowest** faulting
//!    row — exactly the first fault a scalar scan would hit.
//! 3. **Lent columns.** The same two properties for `run_columns*` under a
//!    random `Uniform`/`Rows` assignment per ctx slot, against the scalar
//!    VM on the *materialised* row (a `Uniform(v)` slot reads `v` on every
//!    row), for compiled expressions of every mode. Every case first
//!    poisons its scratch with a call that faults on every row: nothing of
//!    it may show.
//! 4. **Random programs and columns that hold one value.** Straight-line
//!    programs built instruction by instruction reach what the lowerer
//!    never emits: `dst == src` operands, a register reloaded or
//!    overwritten mid-program, a row-invariant zero divisor, a
//!    row-invariant `r0`. Each runs through all four entry points
//!    (`run_columns*` lent, `run_batch*` owned) over slots that are, at
//!    random, `Uniform`, `Rows` of random values, `Rows` of one value, or
//!    `Rows` of one value but one row: a column whose rows all agree must
//!    score exactly like the `Uniform` it equals. Named pins cover an
//!    all-zero divisor column and a zero-row batch.

use policysmith_dsl::env::MapEnv;
use policysmith_dsl::{Expr, Feature, Mode};
use policysmith_kbpf::batch::{self, BatchPlan};
use policysmith_kbpf::{
    execute_verified, BatchCtx, BatchScratch, Column, CompiledPolicy, Insn, Op, Program, VmError,
    SPILL_SLOTS,
};
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
        (-1_000i64..1_000).prop_map(Expr::int),
        proptest::sample::select(features).prop_map(Expr::feat),
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
            .prop_map(Expr::int)
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
            inner.clone().prop_map(|a| -a),
            inner.clone().prop_map(Expr::abs),
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
/// `run` per row in ascending order, strict `<` against the running best
/// (→ lowest index on ties), abort at the first faulting row.
fn naive_argmin(prog: &Program, ctxs: &[Vec<i64>]) -> Result<usize, (usize, VmError)> {
    let mut map = vec![0i64; SPILL_SLOTS];
    let mut best = 0usize;
    let mut best_score = execute_verified(prog, &ctxs[0], &mut map).map_err(|e| (0, e))?;
    for (r, ctx) in ctxs.iter().enumerate().skip(1) {
        let v = execute_verified(prog, ctx, &mut map).map_err(|e| (r, e))?;
        if v < best_score {
            best_score = v;
            best = r;
        }
    }
    Ok(best)
}

/// The shared differential check for one `(expr, rows, mode)` case;
/// `uniform` says which ctx slots the lent-columns half passes as
/// `Column::Uniform`.
fn assert_batch_matches_scalar(
    e: &Expr,
    envs: &[MapEnv],
    mode: Mode,
    uniform: &[bool],
) -> TestCaseResult {
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

    // 2. fused argmin ≡ the naive scalar scan (fresh maps per side)
    let mut map = vec![0i64; SPILL_SLOTS];
    let fused =
        policy.run_batch_argmin(&batch, &mut scratch, &mut map).map_err(|f| (f.row, f.fault));
    prop_assert_eq!(
        &fused,
        &naive_argmin(policy.program(), &ctxs),
        "argmin diverged from the naive scan:\n{}",
        policy.program()
    );

    // 3. the same, lending the columns: slots flagged in `uniform` (cycled
    //    over the layout) hold row 0's value on every row
    let flags: Vec<bool> = (0..layout.len()).map(|c| uniform[c % uniform.len()]).collect();
    assert_lent_matches_scalar(policy.program(), policy.batch_plan(), &ctxs, &flags)
}

/// A scratch whose previous call faulted on every one of 8 rows, at two
/// different `pc`s — what every lent-columns case starts from.
fn poisoned_scratch() -> BatchScratch {
    let every_row_faults = Program {
        insns: vec![
            Insn::new(Op::LdCtx, 0, 0, 0),
            Insn::new(Op::DivReg, 0, 0, 0),
            Insn::new(Op::RemImm, 0, 0, 0),
            Insn::new(Op::Exit, 0, 0, 0),
        ],
    };
    let plan = BatchPlan::for_program(&every_row_faults);
    let mut scratch = BatchScratch::new();
    let zeros = [0i64, 0, 0, 0, 1, 0, 0, 0];
    let err = batch::run_columns_argmin(
        &every_row_faults,
        plan,
        &[Column::Rows(&zeros)],
        zeros.len(),
        &mut scratch,
        &mut [],
    )
    .unwrap_err();
    assert_eq!((err.row, err.fault), (0, VmError::DivByZero { pc: 1 }));
    scratch
}

/// Lend `rows` to the engine — slot `c` as `Uniform(rows[0][c])` where
/// `uniform[c]`, as a `Rows` column otherwise — and hold every entry point
/// to the scalar VM on the materialised rows.
fn assert_lent_matches_scalar(
    prog: &Program,
    plan: BatchPlan,
    rows: &[Vec<i64>],
    uniform: &[bool],
) -> TestCaseResult {
    let materialised: Vec<Vec<i64>> = rows
        .iter()
        .map(|row| {
            row.iter().enumerate().map(|(c, &v)| if uniform[c] { rows[0][c] } else { v }).collect()
        })
        .collect();
    let columns: Vec<Vec<i64>> =
        (0..uniform.len()).map(|c| rows.iter().map(|row| row[c]).collect()).collect();
    let lent: Vec<Column<'_>> = columns
        .iter()
        .zip(uniform)
        .map(|(col, &u)| if u { Column::Uniform(col[0]) } else { Column::Rows(col) })
        .collect();
    let mut scratch = poisoned_scratch();

    let mut bmap = vec![0i64; SPILL_SLOTS];
    let mut out = Vec::new();
    batch::run_columns(prog, plan, &lent, rows.len(), &mut scratch, &mut bmap, &mut out);
    prop_assert_eq!(out.len(), rows.len(), "one result per row");
    let mut smap = vec![0i64; SPILL_SLOTS];
    for (r, ctx) in materialised.iter().enumerate() {
        prop_assert_eq!(
            &out[r],
            &execute_verified(prog, ctx, &mut smap),
            "row {} diverged lending {:?}:\n{}",
            r,
            &lent,
            prog
        );
    }
    prop_assert_eq!(&bmap, &smap, "shared scratch maps diverged:\n{}", prog);

    // twice on one scratch: the first call's faults (if any) must be gone
    for _ in 0..2 {
        let mut map = vec![0i64; SPILL_SLOTS];
        let fused =
            batch::run_columns_argmin(prog, plan, &lent, rows.len(), &mut scratch, &mut map)
                .map_err(|f| (f.row, f.fault));
        prop_assert_eq!(
            &fused,
            &naive_argmin(prog, &materialised),
            "argmin diverged lending {:?}:\n{}",
            &lent,
            prog
        );
    }
    Ok(())
}

/// How many ctx slots and live registers a random program works with.
const RAW_SLOTS: usize = 3;
const RAW_REGS: u8 = 4;

/// A random straight-line, map-free program, valid by construction: a
/// prologue writes every register it will ever name (three ctx loads and an
/// immediate), then any ALU op may hit any pair of them — `dst == src`
/// included — and `LdCtx`/`MovImm`/`MovReg` may replace what a register
/// holds at any point.
fn arb_program() -> impl Strategy<Value = Program> {
    use Op::*;
    let ops = vec![
        MovImm, MovReg, LdCtx, Neg, AddImm, AddReg, SubImm, SubReg, MulImm, MulReg, DivImm, DivReg,
        RemImm, RemReg, LshImm, LshReg, RshImm, RshReg,
    ];
    let imm =
        prop_oneof![-4i64..5, proptest::sample::select(vec![63, 64, 1_000, i64::MAX, i64::MIN]),];
    let insn = (proptest::sample::select(ops), 0..RAW_REGS, 0..RAW_REGS, imm).prop_map(
        |(op, dst, src, imm)| {
            let imm = if op == LdCtx { imm.rem_euclid(RAW_SLOTS as i64) } else { imm };
            Insn::new(op, dst, src, imm)
        },
    );
    proptest::collection::vec(insn, 0..12).prop_map(|body| {
        let mut insns = vec![
            Insn::new(LdCtx, 0, 0, 0),
            Insn::new(LdCtx, 1, 0, 1),
            Insn::new(LdCtx, 2, 0, 2),
            Insn::new(MovImm, 3, 0, 6),
        ];
        insns.extend(body);
        insns.push(Insn::new(Exit, 0, 0, 0));
        Program { insns }
    })
}

fn arb_uniform_flags() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), RAW_SLOTS..RAW_SLOTS + 1)
}

/// One lent ctx slot as the engine receives it.
#[derive(Debug, Clone)]
enum Slot {
    Uniform(i64),
    Rows(Vec<i64>),
}

impl Slot {
    fn column(&self) -> Column<'_> {
        match self {
            Slot::Uniform(v) => Column::Uniform(*v),
            Slot::Rows(col) => Column::Rows(col),
        }
    }

    fn at(&self, row: usize) -> i64 {
        match self {
            Slot::Uniform(v) => *v,
            Slot::Rows(col) => col[row],
        }
    }
}

/// `RAW_SLOTS` lent slots over 1–19 rows (the engine scans columns in
/// blocks of eight rows: none, one or two whole blocks, with or without a
/// tail), each at random one of: a `Uniform`; a `Rows` column of random
/// values; a `Rows` column holding one value on every row (0, ±1, a rail
/// or a random value); or such a column with one random row changed, so a
/// column that agrees everywhere but in one block is common.
fn arb_slots() -> impl Strategy<Value = (usize, Vec<Slot>)> {
    let cell = || {
        prop_oneof![
            -3i64..4,
            -3i64..4,
            proptest::sample::select(vec![100, -100, i64::MAX, i64::MIN]),
        ]
    };
    let repeated = || {
        prop_oneof![
            proptest::sample::select(vec![0, 1, -1, i64::MIN, i64::MAX]),
            any::<i64>(),
            cell(),
        ]
    };
    // every draw is made for 19 rows and cut to the batch's
    let slot = prop_oneof![
        cell().prop_map(|v| (0u8, vec![v], 0usize)),
        proptest::collection::vec(cell(), 19..20).prop_map(|col| (1, col, 0)),
        repeated().prop_map(|v| (2, vec![v], 0)),
        (repeated(), cell(), 0usize..19).prop_map(|(v, w, at)| (3, vec![v, w], at)),
    ];
    (1usize..20, proptest::collection::vec(slot, RAW_SLOTS..RAW_SLOTS + 1)).prop_map(
        |(rows, draws)| {
            let slots = draws
                .into_iter()
                .map(|(kind, vals, at)| match kind {
                    0 => Slot::Uniform(vals[0]),
                    1 => Slot::Rows(vals[..rows].to_vec()),
                    2 => Slot::Rows(vec![vals[0]; rows]),
                    _ => {
                        let mut col = vec![vals[0]; rows];
                        col[at % rows] = vals[1];
                        Slot::Rows(col)
                    }
                })
                .collect();
            (rows, slots)
        },
    )
}

/// Hold all four entry points to the scalar VM on the materialised rows:
/// `run_columns`/`run_columns_argmin` on `slots` as lent, and
/// `run_batch`/`run_batch_argmin` on the same rows owned by a `BatchCtx`.
/// Each pair of calls starts from a poisoned scratch that has also run
/// `prog` over columns of ones: what that call found in each slot must not
/// carry over.
fn assert_entry_points_match_scalar(
    prog: &Program,
    plan: BatchPlan,
    rows: usize,
    slots: &[Slot],
) -> TestCaseResult {
    let materialised: Vec<Vec<i64>> =
        (0..rows).map(|r| slots.iter().map(|s| s.at(r)).collect()).collect();
    let lent: Vec<Column<'_>> = slots.iter().map(Slot::column).collect();
    let refs: Vec<&[i64]> = materialised.iter().map(|row| row.as_slice()).collect();
    let owned = BatchCtx::from_rows(slots.len(), &refs);

    let mut smap = vec![0i64; SPILL_SLOTS];
    let want: Vec<_> =
        materialised.iter().map(|ctx| execute_verified(prog, ctx, &mut smap)).collect();
    let want_argmin = naive_argmin(prog, &materialised);

    for entry in ["run_columns", "run_batch"] {
        let mut scratch = poisoned_scratch();
        let ones = vec![1i64; rows];
        let constant = vec![Column::Rows(&ones); slots.len()];
        let mut map = vec![0i64; SPILL_SLOTS];
        let _ = batch::run_columns_argmin(prog, plan, &constant, rows, &mut scratch, &mut map);
        let mut map = vec![0i64; SPILL_SLOTS];
        let mut out = Vec::new();
        if entry == "run_columns" {
            batch::run_columns(prog, plan, &lent, rows, &mut scratch, &mut map, &mut out);
        } else {
            batch::run_batch(prog, plan, &owned, &mut scratch, &mut map, &mut out);
        }
        prop_assert_eq!(&out, &want, "{} diverged on {:?}:\n{}", entry, slots, prog);
        prop_assert_eq!(&map, &smap, "{} left another map:\n{}", entry, prog);

        // twice on one scratch: the first call's faults (if any) must be gone
        for _ in 0..2 {
            let mut map = vec![0i64; SPILL_SLOTS];
            let fused = if entry == "run_columns" {
                batch::run_columns_argmin(prog, plan, &lent, rows, &mut scratch, &mut map)
            } else {
                batch::run_batch_argmin(prog, plan, &owned, &mut scratch, &mut map)
            };
            prop_assert_eq!(
                &fused.map_err(|f| (f.row, f.fault)),
                &want_argmin,
                "{}_argmin diverged on {:?}:\n{}",
                entry,
                slots,
                prog
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn kernel_batch_matches_scalar_per_row(
        e in arb_expr(kernel_features()),
        envs in arb_rows(kernel_features()),
        uniform in arb_uniform_flags(),
    ) {
        assert_batch_matches_scalar(&e, &envs, Mode::Kernel, &uniform)?;
    }

    #[test]
    fn cache_batch_matches_scalar_per_row(
        e in arb_expr(cache_features()),
        envs in arb_rows(cache_features()),
        uniform in arb_uniform_flags(),
    ) {
        assert_batch_matches_scalar(&e, &envs, Mode::Cache, &uniform)?;
    }

    #[test]
    fn lb_batch_matches_scalar_per_row(
        e in arb_expr(lb_features()),
        envs in arb_rows(lb_features()),
        uniform in arb_uniform_flags(),
    ) {
        assert_batch_matches_scalar(&e, &envs, Mode::Lb, &uniform)?;
    }

    #[test]
    fn aqm_batch_matches_scalar_per_row(
        e in arb_expr(aqm_features()),
        envs in arb_rows(aqm_features()),
        uniform in arb_uniform_flags(),
    ) {
        assert_batch_matches_scalar(&e, &envs, Mode::Aqm, &uniform)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn lent_columns_match_scalar_on_random_programs(
        prog in arb_program(),
        slots in arb_slots(),
    ) {
        let plan = BatchPlan::for_program(&prog);
        prop_assert!(plan.vectorizable, "random programs are straight-line and map-free");
        assert_entry_points_match_scalar(&prog, plan, slots.0, &slots.1)?;
    }
}

/// A divisor column that holds zero on every row is no different from a
/// `Uniform(0)` one: every row faults at the division's `pc`, and the
/// reduction reports row 0 — lent or owned.
#[test]
fn constant_zero_divisor_column_faults_every_row_like_uniform_zero() {
    let policy =
        CompiledPolicy::from_source("server.queue_len + 1000 / req.size", Mode::Lb).unwrap();
    let slot = |f| policy.layout().slot(f).unwrap() as usize;
    let div_pc = policy.program().insns.iter().position(|i| i.op == Op::DivReg).unwrap();
    let queue_len = [3i64, 1, 2];
    let zeros = [0i64; 3];
    let run = |size: Column<'_>| {
        let mut cols = [Column::Uniform(0); 2];
        cols[slot(Feature::ServerQueueLen)] = Column::Rows(&queue_len);
        cols[slot(Feature::ReqSize)] = size;
        let mut scratch = BatchScratch::new();
        let mut map = vec![0i64; SPILL_SLOTS];
        let mut out = Vec::new();
        policy.run_columns(&cols, 3, &mut scratch, &mut map, &mut out);
        let fused = policy.run_columns_argmin(&cols, 3, &mut scratch, &mut map);
        (out, fused)
    };
    let (out, fused) = run(Column::Rows(&zeros));
    assert_eq!(out, vec![Err(VmError::DivByZero { pc: div_pc }); 3]);
    assert_eq!(fused, Err(batch::BatchFault { row: 0, fault: VmError::DivByZero { pc: div_pc } }));
    assert_eq!((out, fused), run(Column::Uniform(0)));

    let mut owned = BatchCtx::with_rows(2, 3);
    owned.column_mut(slot(Feature::ServerQueueLen)).copy_from_slice(&queue_len);
    let mut scratch = BatchScratch::new();
    let mut map = vec![0i64; SPILL_SLOTS];
    let mut out = Vec::new();
    policy.run_batch(&owned, &mut scratch, &mut map, &mut out);
    assert_eq!(out, vec![Err(VmError::DivByZero { pc: div_pc }); 3]);
    let err = policy.run_batch_argmin(&owned, &mut scratch, &mut map).unwrap_err();
    assert_eq!((err.row, err.fault), (0, VmError::DivByZero { pc: div_pc }));
}

/// A batch of zero rows scores nothing: `run_columns` and `run_batch`
/// append nothing to `out` and touch no column, even one lent empty.
#[test]
fn zero_row_batches_append_nothing() {
    let policy =
        CompiledPolicy::from_source("server.queue_len + 1000 / server.speed", Mode::Lb).unwrap();
    let width = policy.layout().len();
    let empty: [i64; 0] = [];
    let cols = vec![Column::Rows(&empty); width];
    let sentinel = vec![Ok(-7), Err(VmError::DivByZero { pc: 9 })];
    let mut scratch = BatchScratch::new();
    let mut map = vec![0i64; SPILL_SLOTS];

    let mut out = sentinel.clone();
    policy.run_columns(&cols, 0, &mut scratch, &mut map, &mut out);
    assert_eq!(out, sentinel);

    let mut out = sentinel.clone();
    policy.run_batch(&BatchCtx::new(width), &mut scratch, &mut map, &mut out);
    assert_eq!(out, sentinel);
    assert_eq!(map, vec![0i64; SPILL_SLOTS]);
}

/// A row-invariant zero divisor faults **every** row at that `pc` — the
/// per-row guard is not skipped because the divisor never had a column.
#[test]
fn uniform_zero_divisor_faults_every_row_at_that_pc() {
    let policy =
        CompiledPolicy::from_source("server.queue_len + 1000 / req.size", Mode::Lb).unwrap();
    let slot = |f| policy.layout().slot(f).unwrap() as usize;
    let queue_len = [3i64, 1, 2];
    let mut cols = [Column::Uniform(0); 2];
    cols[slot(Feature::ServerQueueLen)] = Column::Rows(&queue_len);
    cols[slot(Feature::ReqSize)] = Column::Uniform(0);
    let div_pc = policy.program().insns.iter().position(|i| i.op == Op::DivReg).unwrap();

    let mut scratch = BatchScratch::new();
    let mut map = vec![0i64; SPILL_SLOTS];
    let mut out = Vec::new();
    policy.run_columns(&cols, 3, &mut scratch, &mut map, &mut out);
    assert_eq!(out, vec![Err(VmError::DivByZero { pc: div_pc }); 3]);
    let err = policy.run_columns_argmin(&cols, 3, &mut scratch, &mut map).unwrap_err();
    assert_eq!((err.row, err.fault), (0, VmError::DivByZero { pc: div_pc }));

    // the same scratch, a clean call: nothing of the faults is left
    cols[slot(Feature::ReqSize)] = Column::Uniform(500);
    assert_eq!(policy.run_columns_argmin(&cols, 3, &mut scratch, &mut map), Ok(1));
}

/// A score that no row can move (`req.size`, a constant) ties everywhere:
/// the reduction returns row 0 and no score column is ever built.
#[test]
fn uniform_r0_reduces_to_row_zero() {
    for src in ["req.size * 3 + 1", "7"] {
        let policy = CompiledPolicy::from_source(src, Mode::Lb).unwrap();
        let cols = [Column::Uniform(11)];
        let cols = &cols[..policy.layout().len()];
        let mut scratch = BatchScratch::new();
        let mut map = vec![0i64; SPILL_SLOTS];
        assert_eq!(policy.run_columns_argmin(cols, 5, &mut scratch, &mut map), Ok(0), "{src}");
        let mut out = Vec::new();
        policy.run_columns(cols, 5, &mut scratch, &mut map, &mut out);
        let want = policy.run(&[11][..policy.layout().len()], &mut map);
        assert_eq!(out, vec![want; 5], "{src}");
    }
}

/// Deterministic pin of the tie-break contract on a real compiled policy
/// (beyond the random-case coverage above): equal minima pick the lowest
/// row index.
#[test]
fn argmin_tie_break_is_lowest_row_index() {
    let policy = CompiledPolicy::from_source("server.queue_len * 10", Mode::Lb).unwrap();
    // rows 1, 2 and 4 tie at the minimum score 10
    let mut batch = BatchCtx::with_rows(policy.layout().len(), 5);
    for (row, q) in [7i64, 1, 1, 3, 1].into_iter().enumerate() {
        batch.set(row, 0, q);
    }
    let mut scratch = BatchScratch::new();
    let mut map = vec![0i64; SPILL_SLOTS];
    assert_eq!(policy.run_batch_argmin(&batch, &mut scratch, &mut map), Ok(1));
}

/// Deterministic pin of the fault-order contract: the fused reduction
/// reports the lowest faulting row even when the fault is not the first
/// row overall.
#[test]
fn argmin_fault_abort_reports_the_lowest_faulting_row() {
    let policy = CompiledPolicy::from_source("1000 / server.queue_len", Mode::Lb).unwrap();
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
