//! Batched structure-of-arrays evaluation for verified programs.
//!
//! The scalar fast path ([`execute_verified`]) scores one context per call;
//! dispatch loops that score a whole fleet pay a call, a fill plan, and a
//! register-file setup per row. This module amortizes all three: N contexts
//! are laid out **column-major** (one contiguous column per feature slot,
//! one row per server/object) and the program executes
//! **instruction-major** — each instruction streams over whole columns in a
//! tight loop. The compiler vectorizes those loops at x86-64-v3, the
//! workspace's declared minimum (`.cargo/config.toml`), and not at baseline
//! x86-64: SSE2 has no 64-bit signed compare, which every saturating add
//! and the argmin need. On the 256-server `decide-lb` pick (`lbsim.pick_ns`,
//! three traced pairs) that is 956 ns at baseline and 495 ns at v3.
//!
//! Two ways in, one engine behind them:
//!
//! * [`BatchCtx`] owns its columns — the host fills them
//!   ([`BatchCtx::column_mut`]) and calls `CompiledPolicy::run_batch*`;
//! * a slice of [`Column`]s **lends** them — a host that already keeps a
//!   feature as a contiguous column passes [`Column::Rows`] and nothing is
//!   copied; a feature that is the same for every row of the batch
//!   (`req.size`, `now`) is passed as [`Column::Uniform`] and is never
//!   widened (`CompiledPolicy::run_columns*`). A `BatchCtx` is simply the
//!   all-`Rows` case.
//!
//! ## Semantics: spec'd by the scalar VM
//!
//! `run_batch(prog, batch, …, out)` is defined to be observably identical to
//!
//! ```text
//! for row in 0..batch.rows() {
//!     out.push(execute_verified(prog, &row_ctx(batch, row), map));
//! }
//! ```
//!
//! i.e. one scalar run per row, **in ascending row order, sharing the map**
//! (a `Uniform(v)` column reads `v` on every row). This makes the scalar VM
//! the executable spec of the batched engine, the same way `dsl::eval` is
//! the spec of the scalar VM — and the differential suite in
//! `tests/batch_differential.rs` pins it per row, fault rows included. Two
//! execution strategies implement that contract:
//!
//! * **Column engine** — programs that are straight-line (no jumps) and
//!   map-free, which is everything the expression lowerer emits for
//!   spill-free policies. Each instruction runs across all rows before the
//!   next instruction starts; since execution order equals `pc` order for a
//!   straight-line program, per-row results and first-fault `pc`s match the
//!   scalar VM exactly. A row that faults keeps streaming (its lanes hold
//!   garbage) but only its **first** fault is recorded and reported, which
//!   is precisely what the scalar run would have returned.
//!
//!   The engine tracks what each register holds *while executing* (the
//!   program is straight-line, so a 16-entry array is the whole analysis):
//!   a row-invariant value, a column lent by the caller, or a column of its
//!   own. Row-invariant are immediates, [`Column::Uniform`] slots, and
//!   **`Rows` columns whose rows all hold one value** in a program that
//!   divides — lent or from a [`BatchCtx`], found by `LdCtx` with a scan
//!   that compares the first and last rows, then stops at the first
//!   eight-row block holding a row that differs, at most once per slot and
//!   call (a fleet whose servers share one speed divides by it once per
//!   pick, not once per server) — and whatever is computed from them alone.
//!   An instruction whose operands are all row-invariant runs **once**, as
//!   a scalar; `LdCtx` copies nothing (a lent column is read in place by
//!   the first instruction that combines it); everything else is one loop.
//!   No check is dropped on the way: a division still tests every row's
//!   divisor (a row-invariant zero divisor faults every row at that `pc`),
//!   and every op is the saturating one the scalar VM runs. Taking a
//!   constant column for its value changes nothing a caller sees: each row
//!   scores what it would have, a zero divisor faults every row either way,
//!   and a row-invariant score reduces to row 0, the argmin of equal
//!   scores.
//! * **Row fallback** — anything with jumps or map traffic gathers one row
//!   at a time into a scratch buffer and calls [`execute_verified`], making
//!   the contract hold structurally.
//!
//! The fused reductions ([`run_batch_argmin`] / [`run_columns_argmin`]) never
//! materialize the score vector for the caller and pin two edge contracts:
//! **ties break to the lowest row index**, and a fault aborts the reduction
//! with the lowest faulting row (what a scalar scan would hit first).
//!
//! Like `execute_verified`, everything here requires a program that passed
//! the verifier: registers are provably written before read (so register
//! columns are *not* cleared between calls), ctx/map indices are provably
//! in bounds, and the only reachable fault is division by zero.
//!
//! [`execute_verified`]: crate::vm::execute_verified
//! [`run_batch`]: BatchCtx

use crate::isa::{Op, Program};
use crate::vm::{execute_verified, VmError};
use policysmith_dsl::eval::{div_sat, rem_sat, shl_sat, shr_arith};

/// One feature slot of a lent batch: a value per row, or one value that
/// every row shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column<'a> {
    /// Row `r` reads `.0[r]`. Must hold at least as many values as the
    /// batch has rows.
    Rows(&'a [i64]),
    /// Every row reads the same value (`req.size`, `now`, …).
    Uniform(i64),
}

/// N evaluation contexts in structure-of-arrays (column-major) layout.
///
/// Column `c` (one per [`CtxLayout`] feature slot) occupies the contiguous
/// range `data[c * rows .. (c + 1) * rows]`; row `r` of column `c` is the
/// value feature `c` takes for object `r`. Hosts fill whole columns at a
/// time ([`column_mut`]) — the per-row fill plan of the scalar path
/// disappears. A host that already keeps its features as columns lends
/// them as [`Column`]s instead and fills nothing.
///
/// [`CtxLayout`]: crate::compile::CtxLayout
/// [`column_mut`]: BatchCtx::column_mut
#[derive(Debug, Clone, Default)]
pub struct BatchCtx {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl BatchCtx {
    /// An empty batch with `cols` feature slots and zero rows.
    pub fn new(cols: usize) -> Self {
        BatchCtx { rows: 0, cols, data: Vec::new() }
    }

    /// A zero-filled batch with `cols` feature slots and `rows` rows.
    pub fn with_rows(cols: usize, rows: usize) -> Self {
        BatchCtx { rows, cols, data: vec![0; cols * rows] }
    }

    /// Number of rows (objects) in the batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (feature slots) in the batch.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read-only view of column `col`.
    pub fn column(&self, col: usize) -> &[i64] {
        &self.data[col * self.rows..(col + 1) * self.rows]
    }

    /// Mutable view of column `col` — the bulk fill entry point.
    pub fn column_mut(&mut self, col: usize) -> &mut [i64] {
        &mut self.data[col * self.rows..(col + 1) * self.rows]
    }

    /// Set a single cell.
    pub fn set(&mut self, row: usize, col: usize, v: i64) {
        self.data[col * self.rows + row] = v;
    }

    /// Read a single cell.
    pub fn get(&self, row: usize, col: usize) -> i64 {
        self.data[col * self.rows + row]
    }

    /// Build a batch from row-major context slices (test/verification
    /// convenience; hot paths fill columns directly).
    ///
    /// # Panics
    /// If any row's length differs from `cols`.
    pub fn from_rows(cols: usize, row_ctxs: &[&[i64]]) -> Self {
        let mut b = BatchCtx::with_rows(cols, row_ctxs.len());
        for (r, ctx) in row_ctxs.iter().enumerate() {
            assert_eq!(ctx.len(), cols, "row {r} has wrong width");
            for (c, &v) in ctx.iter().enumerate() {
                b.set(r, c, v);
            }
        }
        b
    }
}

/// Where the engine reads its columns from: the two ways in.
#[derive(Clone, Copy)]
enum Source<'a> {
    Owned(&'a BatchCtx),
    Lent { cols: &'a [Column<'a>], rows: usize },
}

impl<'a> Source<'a> {
    fn rows(self) -> usize {
        match self {
            Source::Owned(b) => b.rows,
            Source::Lent { rows, .. } => rows,
        }
    }

    fn cols(self) -> usize {
        match self {
            Source::Owned(b) => b.cols,
            Source::Lent { cols, .. } => cols.len(),
        }
    }

    fn column(self, c: usize) -> Column<'a> {
        match self {
            Source::Owned(b) => Column::Rows(b.column(c)),
            Source::Lent { cols, .. } => cols[c],
        }
    }

    /// Gather row `r` into `buf` as a scalar ctx slice (row fallback path).
    fn gather_row(self, r: usize, buf: &mut Vec<i64>) {
        buf.clear();
        buf.extend((0..self.cols()).map(|c| match self.column(c) {
            Column::Rows(col) => col[r],
            Column::Uniform(v) => v,
        }));
    }
}

/// Reusable scratch for batch execution: the column register file, the
/// per-row fault buffer, the per-slot scan memo and the row-gather buffer.
/// Allocated once per dispatcher and recycled across calls; buffers only
/// grow.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// 16 register columns × rows, masked-indexed like the scalar fast
    /// path. Stale values from previous calls are never observable: the
    /// verifier proved every register is written before read.
    regs: Vec<i64>,
    /// Per-row first fault, encoded as `pc + 1` (`0` = no fault). All zero
    /// between calls: only a division that actually meets a zero divisor
    /// writes here, and the call that saw it clears what it wrote after
    /// reporting — a clean call neither clears nor scans.
    fault: Vec<u32>,
    /// Per ctx slot: the column-engine call that last scanned it, and the
    /// one value its rows held then, if they held one. A slot loaded twice
    /// in a call is scanned once; an entry stamped by an earlier call is
    /// stale, so nothing is cleared between calls.
    scans: Vec<(u64, Option<i64>)>,
    /// Column-engine calls so far: the stamp of the current call (the
    /// first is 1, so a fresh entry's 0 is never current).
    calls: u64,
    /// Row-major gather buffer for the fallback path.
    row: Vec<i64>,
}

/// The one value every row of `col` holds, if there is one; `None` for an
/// empty column. A column whose rows differ nearly always differs between
/// its first and last row, so those two are compared first (scanning four
/// varying columns of an 8-server pick cost it more than any scan saves).
/// Otherwise rows are compared eight at a time without a branch (the
/// compiler vectorizes the block), and the scan stops at the first block
/// holding a row that differs; a row-by-row early exit pays a compare and
/// a branch per row.
fn single_value(col: &[i64]) -> Option<i64> {
    let (&first, &last) = (col.first()?, col.last()?);
    if last != first {
        return None;
    }
    let mut chunks = col.chunks_exact(8);
    let same = chunks.by_ref().all(|c| c.iter().fold(true, |all, &v| all & (v == first)))
        && chunks.remainder().iter().all(|&v| v == first);
    same.then_some(first)
}

impl BatchScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// How a program may be executed in batch, precomputed at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPlan {
    /// Straight-line and map-free: eligible for the column engine.
    pub vectorizable: bool,
    /// Contains a division or remainder — the only fault source the
    /// verifier leaves reachable, and the only reason to size the per-row
    /// fault buffer.
    pub may_divide: bool,
}

impl BatchPlan {
    /// Classify `prog` (one linear scan; cached in `CompiledPolicy`).
    pub fn for_program(prog: &Program) -> BatchPlan {
        use Op::*;
        let mut vectorizable = true;
        let mut may_divide = false;
        for insn in &prog.insns {
            if insn.op.is_jump() || matches!(insn.op, LdMap | StMap) {
                vectorizable = false;
            }
            if matches!(insn.op, DivImm | DivReg | RemImm | RemReg) {
                may_divide = true;
            }
        }
        BatchPlan { vectorizable, may_divide }
    }
}

/// A fused reduction aborted because row `row` faulted.
///
/// `row` is the **lowest** faulting row index — exactly the fault a scalar
/// scan in ascending row order would have surfaced first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFault {
    pub row: usize,
    pub fault: VmError,
}

impl std::fmt::Display for BatchFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch row {}: {}", self.row, self.fault)
    }
}

impl std::error::Error for BatchFault {}

/// What a register holds at the current `pc` of the column engine.
#[derive(Clone, Copy)]
enum Reg<'a> {
    /// The same value on every row; never widened into a column.
    Uniform(i64),
    /// A caller's column whose rows differ, loaded by `LdCtx` and not yet
    /// written: read in place, never copied.
    Lent(&'a [i64]),
    /// The register's own column in [`BatchScratch::regs`].
    Own,
}

/// One input of a streamed instruction.
#[derive(Clone, Copy)]
enum Arg<'a> {
    /// The destination column's current contents (an in-place update).
    Dst,
    Uniform(i64),
    Col(&'a [i64]),
}

/// The second operand of an instruction: its immediate or a register.
#[derive(Clone, Copy)]
enum Rhs {
    Imm(i64),
    Reg(usize),
}

/// Mutable column pair `(dst, src)` from the register file — the split
/// borrow behind every two-register ALU op.
#[inline]
fn col_pair(regs: &mut [i64], rows: usize, d: usize, s: usize) -> (&mut [i64], &[i64]) {
    debug_assert_ne!(d, s);
    if d < s {
        let (lo, hi) = regs.split_at_mut(s * rows);
        (&mut lo[d * rows..(d + 1) * rows], &hi[..rows])
    } else {
        let (lo, hi) = regs.split_at_mut(d * rows);
        (&mut hi[..rows], &lo[s * rows..(s + 1) * rows])
    }
}

#[inline]
fn col_mut(regs: &mut [i64], rows: usize, c: usize) -> &mut [i64] {
    &mut regs[c * rows..(c + 1) * rows]
}

/// `dst[r] = f(r, a[r], b[r])` across all rows — the one loop a
/// non-uniform instruction costs.
#[inline(always)]
fn stream(dst: &mut [i64], a: Arg<'_>, b: Arg<'_>, mut f: impl FnMut(usize, i64, i64) -> i64) {
    match (a, b) {
        (Arg::Dst, Arg::Dst) => {
            for (r, x) in dst.iter_mut().enumerate() {
                *x = f(r, *x, *x);
            }
        }
        (Arg::Dst, Arg::Uniform(v)) => {
            for (r, x) in dst.iter_mut().enumerate() {
                *x = f(r, *x, v);
            }
        }
        (Arg::Dst, Arg::Col(c)) => {
            for (r, (x, &y)) in dst.iter_mut().zip(c).enumerate() {
                *x = f(r, *x, y);
            }
        }
        (Arg::Uniform(u), Arg::Col(c)) => {
            for (r, (x, &y)) in dst.iter_mut().zip(c).enumerate() {
                *x = f(r, u, y);
            }
        }
        (Arg::Col(c), Arg::Uniform(v)) => {
            for (r, (x, &y)) in dst.iter_mut().zip(c).enumerate() {
                *x = f(r, y, v);
            }
        }
        (Arg::Col(p), Arg::Col(q)) => {
            for (r, ((x, &y), &z)) in dst.iter_mut().zip(p).zip(q).enumerate() {
                *x = f(r, y, z);
            }
        }
        (Arg::Uniform(_), Arg::Uniform(_)) => unreachable!("uniform instructions run as scalars"),
        (Arg::Uniform(_) | Arg::Col(_), Arg::Dst) => {
            unreachable!("the right operand is the destination only when the left one is")
        }
    }
}

/// The register file of one column-engine run: what each register holds,
/// plus the scratch columns the `Own` ones live in.
struct RegFile<'s, 'a> {
    kinds: [Reg<'a>; 16],
    regs: &'s mut [i64],
    rows: usize,
}

impl<'a> RegFile<'_, 'a> {
    fn rhs(&self, rhs: Rhs) -> Reg<'a> {
        match rhs {
            Rhs::Imm(v) => Reg::Uniform(v),
            Rhs::Reg(s) => self.kinds[s],
        }
    }

    /// `d = f(row, d, rhs)`: once as a scalar when both sides are uniform,
    /// otherwise one pass that leaves `d` holding its own column.
    #[inline(always)]
    fn alu_rows(&mut self, d: usize, rhs: Rhs, mut f: impl FnMut(usize, i64, i64) -> i64) {
        if let (Reg::Uniform(x), Reg::Uniform(y)) = (self.kinds[d], self.rhs(rhs)) {
            self.kinds[d] = Reg::Uniform(f(0, x, y));
            return;
        }
        let (dst, a, b) = operands(self.regs, self.rows, &mut self.kinds, d, rhs);
        stream(dst, a, b, f);
    }

    /// [`alu_rows`](Self::alu_rows) for an op that does not care which row.
    #[inline(always)]
    fn alu(&mut self, d: usize, rhs: Rhs, f: impl Fn(i64, i64) -> i64) {
        self.alu_rows(d, rhs, |_, x, y| f(x, y));
    }
}

/// The per-row first-fault record of one column-engine run.
struct Faults<'s> {
    /// `pc + 1` of row `r`'s first fault, `0` for none.
    first: &'s mut [u32],
    /// Set in the cold branch of a division: `first` holds something.
    any: bool,
}

impl Faults<'_> {
    #[cold]
    fn record(&mut self, r: usize, pc: usize) {
        self.any = true;
        if self.first[r] == 0 {
            self.first[r] = pc as u32 + 1;
        }
    }

    /// `d = f(d, rhs)` for the division family: every row's divisor is
    /// tested. A faulting row records `pc` (first fault only) and keeps
    /// streaming; its lane holds garbage that is never reported.
    #[inline(always)]
    fn div(
        &mut self,
        file: &mut RegFile<'_, '_>,
        d: usize,
        rhs: Rhs,
        pc: usize,
        f: impl Fn(i64, i64) -> i64,
    ) {
        // a row-invariant zero divisor: every row faults here
        if let Reg::Uniform(0) = file.rhs(rhs) {
            for r in 0..file.rows {
                self.record(r, pc);
            }
            return;
        }
        file.alu_rows(d, rhs, |r, x, y| {
            if y == 0 {
                self.record(r, pc);
                x
            } else {
                f(x, y)
            }
        });
    }
}

/// Resolve `d = f(d, rhs)` into the column it writes and where its two
/// inputs are read; `d` holds its own column afterwards.
#[inline(always)]
fn operands<'r, 'a: 'r>(
    regs: &'r mut [i64],
    rows: usize,
    kinds: &mut [Reg<'a>; 16],
    d: usize,
    rhs: Rhs,
) -> (&'r mut [i64], Arg<'r>, Arg<'r>) {
    let a = match std::mem::replace(&mut kinds[d], Reg::Own) {
        Reg::Own => Arg::Dst,
        Reg::Uniform(v) => Arg::Uniform(v),
        Reg::Lent(c) => Arg::Col(c),
    };
    match rhs {
        Rhs::Imm(v) => (col_mut(regs, rows, d), a, Arg::Uniform(v)),
        Rhs::Reg(s) if s == d => (col_mut(regs, rows, d), a, a),
        Rhs::Reg(s) => match kinds[s] {
            Reg::Uniform(v) => (col_mut(regs, rows, d), a, Arg::Uniform(v)),
            Reg::Lent(c) => (col_mut(regs, rows, d), a, Arg::Col(c)),
            Reg::Own => {
                let (dst, src) = col_pair(regs, rows, d, s);
                (dst, a, Arg::Col(src))
            }
        },
    }
}

/// The scores of a column-engine run: what `r0` held at `Exit`, and
/// whether any row faulted (`scratch.fault[r]` then holds `pc + 1` of row
/// `r`'s first fault, and the caller must [`take_faults`] after reading).
struct Scored<'a> {
    r0: Reg<'a>,
    faulted: bool,
}

/// The column engine: one pass over the instruction stream. Requires
/// `plan.vectorizable`.
fn execute_columns<'a>(
    prog: &Program,
    plan: BatchPlan,
    src: Source<'a>,
    scratch: &mut BatchScratch,
) -> Scored<'a> {
    debug_assert!(plan.vectorizable);
    let rows = src.rows();
    // Growth-only resizes: new lanes are zeroed once, stale register lanes
    // are fine — verified programs never read a register before writing it.
    if scratch.regs.len() < 16 * rows {
        scratch.regs.resize(16 * rows, 0);
    }
    if plan.may_divide && scratch.fault.len() < rows {
        scratch.fault.resize(rows, 0);
    }
    if scratch.scans.len() < src.cols() {
        scratch.scans.resize(src.cols(), (0, None));
    }
    scratch.calls += 1;
    let call = scratch.calls;
    let scans = &mut scratch.scans;
    let mut file = RegFile { kinds: [Reg::Uniform(0); 16], regs: &mut scratch.regs, rows };
    let mut faults = Faults { first: &mut scratch.fault, any: false };
    for (pc, insn) in prog.insns.iter().enumerate() {
        let d = (insn.dst & 15) as usize;
        let s = (insn.src & 15) as usize;
        let rhs = if insn.op.reads_src() { Rhs::Reg(s) } else { Rhs::Imm(insn.imm) };
        use Op::*;
        match insn.op {
            MovImm => file.kinds[d] = Reg::Uniform(insn.imm),
            MovReg => match file.kinds[s] {
                Reg::Own if d != s => {
                    file.regs.copy_within(s * rows..(s + 1) * rows, d * rows);
                    file.kinds[d] = Reg::Own;
                }
                held => file.kinds[d] = held,
            },
            LdCtx => {
                let slot = insn.imm as usize;
                file.kinds[d] = match src.column(slot) {
                    Column::Uniform(v) => Reg::Uniform(v),
                    // a constant column pays for its scan only by taking a
                    // division off every row; a program that cannot divide
                    // would pay the scan, and on a small batch a branch it
                    // cannot predict, for the odd add or argmin it saves
                    Column::Rows(col) if !plan.may_divide => Reg::Lent(&col[..rows]),
                    Column::Rows(col) => {
                        let col = &col[..rows];
                        let (stamp, held) = &mut scans[slot];
                        if *stamp != call {
                            (*stamp, *held) = (call, single_value(col));
                        }
                        match *held {
                            Some(v) => Reg::Uniform(v),
                            None => Reg::Lent(col),
                        }
                    }
                }
            }
            AddImm | AddReg => file.alu(d, rhs, i64::saturating_add),
            SubImm | SubReg => file.alu(d, rhs, i64::saturating_sub),
            MulImm | MulReg => file.alu(d, rhs, i64::saturating_mul),
            DivImm | DivReg => faults.div(&mut file, d, rhs, pc, div_sat),
            RemImm | RemReg => faults.div(&mut file, d, rhs, pc, rem_sat),
            Neg => file.alu(d, rhs, |x, _| x.saturating_neg()),
            LshImm | LshReg => file.alu(d, rhs, shl_sat),
            RshImm | RshReg => file.alu(d, rhs, shr_arith),
            Exit => return Scored { r0: file.kinds[0], faulted: faults.any },
            Ja | JeqImm | JeqReg | JneImm | JneReg | JltImm | JltReg | JleImm | JleReg | JgtImm
            | JgtReg | JgeImm | JgeReg | LdMap | StMap => {
                unreachable!("the column engine requires a straight-line, map-free program")
            }
        }
    }
    unreachable!("verified program ended without an Exit");
}

/// Hand the recorded faults of rows `..rows` to `read`, then restore the
/// scratch's all-zero fault buffer. Cold: only a faulting call gets here.
#[cold]
fn take_faults<R>(scratch: &mut BatchScratch, rows: usize, read: impl FnOnce(&[u32]) -> R) -> R {
    let recorded = &mut scratch.fault[..rows];
    let out = read(recorded);
    recorded.fill(0);
    out
}

fn div_by_zero(recorded: u32) -> VmError {
    VmError::DivByZero { pc: recorded as usize - 1 }
}

fn score_rows(
    prog: &Program,
    plan: BatchPlan,
    src: Source<'_>,
    scratch: &mut BatchScratch,
    map: &mut [i64],
    out: &mut Vec<Result<i64, VmError>>,
) {
    let rows = src.rows();
    out.reserve(rows);
    if !plan.vectorizable {
        for r in 0..rows {
            src.gather_row(r, &mut scratch.row);
            out.push(execute_verified(prog, &scratch.row, map));
        }
        return;
    }
    let Scored { r0, faulted } = execute_columns(prog, plan, src, scratch);
    let first = out.len();
    match r0 {
        Reg::Uniform(v) => out.extend(std::iter::repeat_n(Ok(v), rows)),
        Reg::Lent(col) => out.extend(col.iter().map(|&v| Ok(v))),
        Reg::Own => out.extend(scratch.regs[..rows].iter().map(|&v| Ok(v))),
    }
    if faulted {
        take_faults(scratch, rows, |recorded| {
            for (slot, &f) in out[first..].iter_mut().zip(recorded) {
                if f != 0 {
                    *slot = Err(div_by_zero(f));
                }
            }
        });
    }
}

/// Index of the lowest score, ties to the lowest row. The running best is
/// carried in registers and replaced by select, not by branch: which row
/// wins is data the branch predictor cannot learn.
#[inline]
fn arg_min(scores: &[i64]) -> usize {
    let mut best = 0usize;
    let mut best_v = scores[0];
    for (r, &v) in scores.iter().enumerate().skip(1) {
        let take = v < best_v;
        best = if take { r } else { best };
        best_v = if take { v } else { best_v };
    }
    best
}

fn fused_reduce(
    prog: &Program,
    plan: BatchPlan,
    src: Source<'_>,
    scratch: &mut BatchScratch,
    map: &mut [i64],
) -> Result<usize, BatchFault> {
    let rows = src.rows();
    assert!(rows > 0, "fused reduction over an empty batch");
    if !plan.vectorizable {
        let mut best = 0usize;
        let mut best_score = 0;
        for r in 0..rows {
            src.gather_row(r, &mut scratch.row);
            let v = execute_verified(prog, &scratch.row, map)
                .map_err(|fault| BatchFault { row: r, fault })?;
            if r == 0 || v < best_score {
                best = r;
                best_score = v;
            }
        }
        return Ok(best);
    }
    let Scored { r0, faulted } = execute_columns(prog, plan, src, scratch);
    if faulted {
        return Err(take_faults(scratch, rows, |recorded| {
            let row = recorded.iter().position(|&f| f != 0).expect("a fault was recorded");
            BatchFault { row, fault: div_by_zero(recorded[row]) }
        }));
    }
    Ok(match r0 {
        // every row ties: the lowest one wins
        Reg::Uniform(_) => 0,
        Reg::Lent(col) => arg_min(col),
        Reg::Own => arg_min(&scratch.regs[..rows]),
    })
}

/// Score every row of `batch`, appending one result per row to `out`.
///
/// Observably identical to one [`execute_verified`] call per row in
/// ascending row order sharing `map` (see the module docs). All rows are
/// scored even when some fault — fault handling is the caller's policy.
///
/// # Panics
/// Under the same contract violations as `execute_verified`: an unverified
/// program, or a batch/map narrower than the program was verified against.
pub fn run_batch(
    prog: &Program,
    plan: BatchPlan,
    batch: &BatchCtx,
    scratch: &mut BatchScratch,
    map: &mut [i64],
    out: &mut Vec<Result<i64, VmError>>,
) {
    score_rows(prog, plan, Source::Owned(batch), scratch, map, out)
}

/// [`run_batch`] over lent columns: `cols[k]` is ctx slot `k` for all
/// `rows` rows.
///
/// # Panics
/// As [`run_batch`], and when a [`Column::Rows`] the program loads holds
/// fewer than `rows` values.
pub fn run_columns(
    prog: &Program,
    plan: BatchPlan,
    cols: &[Column<'_>],
    rows: usize,
    scratch: &mut BatchScratch,
    map: &mut [i64],
    out: &mut Vec<Result<i64, VmError>>,
) {
    score_rows(prog, plan, Source::Lent { cols, rows }, scratch, map, out)
}

/// Score every row and return the index of the **minimum** score without
/// materializing the score vector. Ties break to the lowest row index; a
/// fault aborts with the lowest faulting row (both pinned by
/// `tests/batch_differential.rs`).
///
/// # Panics
/// On an empty batch, and under the contract violations of [`run_batch`].
pub fn run_batch_argmin(
    prog: &Program,
    plan: BatchPlan,
    batch: &BatchCtx,
    scratch: &mut BatchScratch,
    map: &mut [i64],
) -> Result<usize, BatchFault> {
    fused_reduce(prog, plan, Source::Owned(batch), scratch, map)
}

/// [`run_batch_argmin`] over lent columns.
///
/// # Panics
/// On `rows == 0`, and under the contract violations of
/// [`run_columns`].
pub fn run_columns_argmin(
    prog: &Program,
    plan: BatchPlan,
    cols: &[Column<'_>],
    rows: usize,
    scratch: &mut BatchScratch,
    map: &mut [i64],
) -> Result<usize, BatchFault> {
    fused_reduce(prog, plan, Source::Lent { cols, rows }, scratch, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Insn;

    fn prog(insns: Vec<Insn>) -> Program {
        Program { insns }
    }

    fn i(op: Op, dst: u8, src: u8, imm: i64) -> Insn {
        Insn::new(op, dst, src, imm)
    }

    /// r0 = ctx[0] * 3 - ctx[1]  (straight-line, no division)
    fn affine_prog() -> Program {
        prog(vec![
            i(Op::LdCtx, 0, 0, 0),
            i(Op::MulImm, 0, 0, 3),
            i(Op::LdCtx, 1, 0, 1),
            i(Op::SubReg, 0, 1, 0),
            i(Op::Exit, 0, 0, 0),
        ])
    }

    /// r0 = ctx[0] / ctx[1]  (faults on rows where ctx[1] == 0)
    fn div_prog() -> Program {
        prog(vec![
            i(Op::LdCtx, 0, 0, 0),
            i(Op::LdCtx, 1, 0, 1),
            i(Op::DivReg, 0, 1, 0),
            i(Op::Exit, 0, 0, 0),
        ])
    }

    fn batch_of(rows: &[[i64; 2]]) -> BatchCtx {
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        BatchCtx::from_rows(2, &refs)
    }

    fn run_all(p: &Program, b: &BatchCtx) -> Vec<Result<i64, VmError>> {
        let plan = BatchPlan::for_program(p);
        let mut scratch = BatchScratch::new();
        let mut map = [0i64; 4];
        let mut out = Vec::new();
        run_batch(p, plan, b, &mut scratch, &mut map, &mut out);
        out
    }

    #[test]
    fn plan_classifies_programs() {
        let plan = BatchPlan::for_program(&affine_prog());
        assert!(plan.vectorizable && !plan.may_divide);
        let plan = BatchPlan::for_program(&div_prog());
        assert!(plan.vectorizable && plan.may_divide);
        let spill = prog(vec![
            i(Op::MovImm, 0, 0, 7),
            i(Op::StMap, 0, 0, 0),
            i(Op::LdMap, 0, 0, 0),
            i(Op::Exit, 0, 0, 0),
        ]);
        let plan = BatchPlan::for_program(&spill);
        assert!(!plan.vectorizable && !plan.may_divide);
    }

    #[test]
    fn vector_path_matches_scalar_per_row() {
        let p = affine_prog();
        let b = batch_of(&[[10, 4], [0, 0], [-5, 100], [i64::MAX, 1]]);
        let got = run_all(&p, &b);
        let mut map = [0i64; 4];
        for (r, got_row) in got.iter().enumerate() {
            let ctx = [b.get(r, 0), b.get(r, 1)];
            assert_eq!(*got_row, execute_verified(&p, &ctx, &mut map), "row {r}");
        }
    }

    #[test]
    fn fault_rows_match_scalar_and_keep_position() {
        let p = div_prog();
        let b = batch_of(&[[10, 2], [7, 0], [9, 3], [1, 0]]);
        let got = run_all(&p, &b);
        assert_eq!(got[0], Ok(5));
        assert_eq!(got[1], Err(VmError::DivByZero { pc: 2 }));
        assert_eq!(got[2], Ok(3));
        assert_eq!(got[3], Err(VmError::DivByZero { pc: 2 }));
    }

    #[test]
    fn argmin_ties_break_to_lowest_row() {
        let p = affine_prog();
        // scores: 3*x - y → rows 1 and 2 tie at 2.
        let b = batch_of(&[[10, 5], [1, 1], [2, 4], [1, 1]]);
        let plan = BatchPlan::for_program(&p);
        let mut scratch = BatchScratch::new();
        let mut map = [0i64; 4];
        let got = run_batch_argmin(&p, plan, &b, &mut scratch, &mut map).unwrap();
        assert_eq!(got, 1, "equal minima must pick the lowest row");
    }

    #[test]
    fn argmin_aborts_at_lowest_faulting_row() {
        let p = div_prog();
        let b = batch_of(&[[10, 2], [7, 0], [9, 0]]);
        let plan = BatchPlan::for_program(&p);
        let mut scratch = BatchScratch::new();
        let mut map = [0i64; 4];
        let err = run_batch_argmin(&p, plan, &b, &mut scratch, &mut map).unwrap_err();
        assert_eq!(err, BatchFault { row: 1, fault: VmError::DivByZero { pc: 2 } });
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn argmin_panics_on_empty_batch() {
        let p = affine_prog();
        let b = BatchCtx::new(2);
        let plan = BatchPlan::for_program(&p);
        let mut scratch = BatchScratch::new();
        let mut map = [0i64; 4];
        let _ = run_batch_argmin(&p, plan, &b, &mut scratch, &mut map);
    }

    #[test]
    fn scratch_reuse_across_shrinking_batches_is_clean() {
        // A faulting wide batch followed by a clean narrow one: stale fault
        // lanes from the first call must not leak into the second.
        let p = div_prog();
        let plan = BatchPlan::for_program(&p);
        let mut scratch = BatchScratch::new();
        let mut map = [0i64; 4];
        let wide = batch_of(&[[1, 0], [2, 0], [3, 0], [4, 0]]);
        let mut out = Vec::new();
        run_batch(&p, plan, &wide, &mut scratch, &mut map, &mut out);
        assert!(out.iter().all(|r| r.is_err()));
        let narrow = batch_of(&[[8, 2], [6, 3]]);
        assert_eq!(run_batch_argmin(&p, plan, &narrow, &mut scratch, &mut map), Ok(1));
    }

    #[test]
    fn row_fallback_handles_map_traffic() {
        // r0 = ctx[0]; map[0] += r0 per row — order-dependent across rows,
        // so the fallback path must share the map in ascending row order.
        let p = prog(vec![
            i(Op::LdCtx, 0, 0, 0),
            i(Op::LdMap, 1, 0, 0),
            i(Op::AddReg, 1, 0, 0),
            i(Op::StMap, 0, 1, 0),
            i(Op::MovReg, 0, 1, 0),
            i(Op::Exit, 0, 0, 0),
        ]);
        let plan = BatchPlan::for_program(&p);
        assert!(!plan.vectorizable);
        let refs: Vec<&[i64]> = vec![&[5], &[7], &[11]];
        let b = BatchCtx::from_rows(1, &refs);
        let mut scratch = BatchScratch::new();
        let mut map = [0i64; 1];
        let mut out = Vec::new();
        run_batch(&p, plan, &b, &mut scratch, &mut map, &mut out);
        assert_eq!(out, vec![Ok(5), Ok(12), Ok(23)]);
        assert_eq!(map[0], 23);
    }

    /// The column loops vectorize only at x86-64-v3 (see the module doc):
    /// a build below it is correct but runs the lb pick about twice as
    /// slow, so it fails here rather than passing unnoticed.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn built_for_x86_64_v3() {
        let features = [
            ("avx2", cfg!(target_feature = "avx2")),
            ("bmi2", cfg!(target_feature = "bmi2")),
            ("fma", cfg!(target_feature = "fma")),
            ("lzcnt", cfg!(target_feature = "lzcnt")),
            ("movbe", cfg!(target_feature = "movbe")),
        ];
        let missing: Vec<&str> = features.iter().filter(|f| !f.1).map(|f| f.0).collect();
        assert!(
            missing.is_empty(),
            "built without {missing:?}: .cargo/config.toml sets target-cpu=x86-64-v3, and a \
             RUSTFLAGS or CARGO_ENCODED_RUSTFLAGS in the environment replaces its flags"
        );
    }
}
