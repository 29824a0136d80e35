//! DSL → kbpf compilation.
//!
//! Lowers a checked expression to loop-free bytecode against a
//! [`CtxLayout`]: every feature read becomes a
//! `LdCtx` from the slot the layout assigned it, so one compiler serves the
//! cache, kernel, lb and aqm templates alike. The compiler is a stack
//! machine with a small instruction selector on top:
//!
//! * **Registers.** Expression-stack slot `k` lives in register `r{k}` for
//!   `k < 9` and spills to the scratch map above that; `r9`/`r10` are
//!   reload scratch. The root is slot 0, so the result is born in `r0` and
//!   `exit` follows with no move.
//! * **Immediates.** `x op Int` selects the `*Imm` form of `op` — ALU ops,
//!   `min`/`max`, and comparisons alike — instead of materialising the
//!   literal in a second slot. `Int + x` and `Int * x` commute into the
//!   same form; nothing else does.
//! * **Branches.** A condition in branch position (the test of an `if`,
//!   and `&&` chains inside one) becomes one *inverted* compare-and-branch
//!   straight to the else arm. A comparison or `&&` used as a value is the
//!   same branch around `1`/`0`.
//!
//! Every selection is bit-identical to the plain stack form under the
//! ISA's saturating arithmetic and evaluates the same subexpressions in
//! the same order (so it faults when, and only when, the interpreter
//! does); algebraic rewrites that merely look equivalent — `a + -b` as
//! `a - b` — are not made.
//!
//! Division is lowered **unguarded** (`DivReg`/`DivImm`), exactly as
//! written in the source — proving the divisor nonzero is the verifier's
//! job, not the compiler's. This split is what reproduces the paper's
//! §5.0.3 pipeline: the generator's unguarded `rate / inflight` compiles
//! fine and then *fails verification*, and the stderr fed back teaches it
//! the `x / max(y, 1)` idiom.

use crate::compile::CtxLayout;
use crate::isa::{Insn, Op, Program, MAX_INSNS};
use policysmith_dsl::{BinOp, CmpOp, Expr, ExprKind, ExprRef, Feature};
use std::fmt;

/// Number of expression-stack slots held directly in registers (`r0..r8`).
const STACK_REGS: usize = 9;
/// Scratch registers for reloading spilled operands.
const SCRATCH_A: u8 = 9;
const SCRATCH_B: u8 = 10;
/// Scratch-map slots reserved for spills (and the map size compiled
/// programs are verified against).
pub const SPILL_SLOTS: usize = 64;

/// Compilation failures. These are "compile errors" in the paper's pipeline
/// (as opposed to verifier rejections): float literals cannot be expressed
/// in bytecode at all, and a feature outside the layout has no slot to load
/// from (unreachable when the layout was built from the same expression).
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// Bytecode cannot contain floating point (§5: "floating-point ops
    /// disallowed").
    FloatLiteral { value: f64 },
    /// Feature has no slot in the supplied context layout.
    UnsupportedFeature { feature: Feature },
    /// Expression too deep for the spill area or emitted program too long.
    TooComplex,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::FloatLiteral { value } => write!(
                f,
                "error: SSE register return with SSE disabled: floating-point constant \
                 `{value}` cannot be lowered to kernel bytecode"
            ),
            LowerError::UnsupportedFeature { feature } => write!(
                f,
                "error: unknown symbol `{}` (feature absent from the context layout)",
                feature.name()
            ),
            LowerError::TooComplex => write!(f, "error: expression too complex to lower"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Compile `e` against `layout` to a kbpf program returning the expression
/// value in `r0`.
pub fn compile(e: &Expr, layout: &CtxLayout) -> Result<Program, LowerError> {
    let mut c = Compiler { insns: Vec::new(), else_jumps: Vec::new(), layout };
    // slot 0 is r0: the root's value is already where `exit` reads it
    c.expr(e.view(), 0)?;
    c.push(Insn::new(Op::Exit, 0, 0, 0));
    if c.insns.len() > MAX_INSNS {
        return Err(LowerError::TooComplex);
    }
    Ok(Program { insns: c.insns })
}

struct Compiler<'a> {
    insns: Vec<Insn>,
    /// Jumps emitted by [`Compiler::branch_unless`] and not yet pointed at
    /// their false label. A stack: whoever asks for a condition notes the
    /// length first and patches everything above it.
    else_jumps: Vec<usize>,
    layout: &'a CtxLayout,
}

/// The `(register, immediate)` opcodes of an ALU operator.
fn alu_ops(op: BinOp) -> (Op, Op) {
    match op {
        BinOp::Add => (Op::AddReg, Op::AddImm),
        BinOp::Sub => (Op::SubReg, Op::SubImm),
        BinOp::Mul => (Op::MulReg, Op::MulImm),
        BinOp::Div => (Op::DivReg, Op::DivImm),
        BinOp::Rem => (Op::RemReg, Op::RemImm),
        BinOp::Shl => (Op::LshReg, Op::LshImm),
        BinOp::Shr => (Op::RshReg, Op::RshImm),
        BinOp::And | BinOp::Or | BinOp::Min | BinOp::Max => {
            unreachable!("not an ALU operator")
        }
    }
}

/// The `(register, immediate)` jumps taken when `left op right` holds.
fn jump_ops(op: CmpOp) -> (Op, Op) {
    match op {
        CmpOp::Lt => (Op::JltReg, Op::JltImm),
        CmpOp::Le => (Op::JleReg, Op::JleImm),
        CmpOp::Gt => (Op::JgtReg, Op::JgtImm),
        CmpOp::Ge => (Op::JgeReg, Op::JgeImm),
        CmpOp::Eq => (Op::JeqReg, Op::JeqImm),
        CmpOp::Ne => (Op::JneReg, Op::JneImm),
    }
}

/// The comparison that holds exactly when `op` does not.
fn inverted(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
    }
}

impl Compiler<'_> {
    fn push(&mut self, i: Insn) {
        self.insns.push(i);
    }

    /// Emit a jump with a placeholder offset; returns its index for patching.
    fn jump(&mut self, op: Op, dst: u8, src: u8, imm: i64) -> usize {
        self.insns.push(Insn { op, dst, src, imm, off: 0 });
        self.insns.len() - 1
    }

    /// Point the jump at `jidx` to the *next* emitted instruction.
    fn patch(&mut self, jidx: usize) {
        let off = (self.insns.len() - jidx - 1) as i32;
        self.insns[jidx].off = off;
    }

    /// Point every pending [`else_jumps`](Self::else_jumps) entry above
    /// `mark` to the next emitted instruction.
    fn patch_else_jumps(&mut self, mark: usize) {
        while self.else_jumps.len() > mark {
            let jidx = self.else_jumps.pop().expect("length checked above");
            self.patch(jidx);
        }
    }

    fn slot_reg(k: usize) -> Option<u8> {
        (k < STACK_REGS).then_some(k as u8)
    }

    fn spill_slot(k: usize) -> i64 {
        (k - STACK_REGS) as i64
    }

    /// Ensure the value of stack slot `k` is in a register; returns it.
    fn load(&mut self, k: usize, scratch: u8) -> u8 {
        match Self::slot_reg(k) {
            Some(r) => r,
            None => {
                self.push(Insn::new(Op::LdMap, scratch, 0, Self::spill_slot(k)));
                scratch
            }
        }
    }

    /// Store register `r` into stack slot `k`.
    fn store(&mut self, k: usize, r: u8) {
        match Self::slot_reg(k) {
            Some(dst) => {
                if dst != r {
                    self.push(Insn::new(Op::MovReg, dst, r, 0));
                }
            }
            None => self.push(Insn::new(Op::StMap, 0, r, Self::spill_slot(k))),
        }
    }

    /// Set stack slot `k` with `op` (`MovImm` or `LdCtx`) and `imm`.
    fn set(&mut self, k: usize, op: Op, imm: i64) {
        match Self::slot_reg(k) {
            Some(r) => self.push(Insn::new(op, r, 0, imm)),
            None => {
                self.push(Insn::new(op, SCRATCH_A, 0, imm));
                self.push(Insn::new(Op::StMap, 0, SCRATCH_A, Self::spill_slot(k)));
            }
        }
    }

    /// Apply `op` (with `imm`, when it takes one) in place to stack slot `k`.
    fn in_place(&mut self, k: usize, op: Op, imm: i64) {
        let r = self.load(k, SCRATCH_A);
        self.push(Insn::new(op, r, 0, imm));
        self.store(k, r);
    }

    /// Compile `e`, leaving its value in stack slot `k`.
    fn expr(&mut self, e: ExprRef<'_>, k: usize) -> Result<(), LowerError> {
        if k >= STACK_REGS + SPILL_SLOTS {
            return Err(LowerError::TooComplex);
        }
        match e.kind() {
            ExprKind::Int(v) => self.set(k, Op::MovImm, v),
            ExprKind::Float(value) => return Err(LowerError::FloatLiteral { value }),
            ExprKind::Feat(feature) => {
                let slot =
                    self.layout.slot(feature).ok_or(LowerError::UnsupportedFeature { feature })?;
                self.set(k, Op::LdCtx, slot as i64);
            }
            ExprKind::Neg(a) => {
                self.expr(a, k)?;
                self.in_place(k, Op::Neg, 0);
            }
            ExprKind::Not(a) => {
                self.expr(a, k)?;
                let r = self.load(k, SCRATCH_A);
                // r = (r == 0)
                let jt = self.jump(Op::JeqImm, r, 0, 0);
                self.push(Insn::new(Op::MovImm, r, 0, 0));
                let jend = self.jump(Op::Ja, 0, 0, 0);
                self.patch(jt);
                self.push(Insn::new(Op::MovImm, r, 0, 1));
                self.patch(jend);
                self.store(k, r);
            }
            ExprKind::Abs(a) => {
                self.expr(a, k)?;
                let r = self.load(k, SCRATCH_A);
                let skip = self.jump(Op::JgeImm, r, 0, 0);
                self.push(Insn::new(Op::Neg, r, 0, 0));
                self.patch(skip);
                self.store(k, r);
            }
            // a condition used as a value: the branch, around 1 and 0
            ExprKind::Bin(BinOp::And, ..) | ExprKind::Cmp(..) => {
                let mark = self.else_jumps.len();
                self.branch_unless(e, k)?;
                self.set(k, Op::MovImm, 1);
                let jend = self.jump(Op::Ja, 0, 0, 0);
                self.patch_else_jumps(mark);
                self.set(k, Op::MovImm, 0);
                self.patch(jend);
            }
            ExprKind::Bin(BinOp::Or, a, b) => {
                self.expr(a, k)?;
                let ra = self.load(k, SCRATCH_A);
                let jt1 = self.jump(Op::JneImm, ra, 0, 0);
                self.expr(b, k)?;
                let rb = self.load(k, SCRATCH_A);
                let jt2 = self.jump(Op::JneImm, rb, 0, 0);
                self.set(k, Op::MovImm, 0);
                let jend = self.jump(Op::Ja, 0, 0, 0);
                self.patch(jt1);
                self.patch(jt2);
                self.set(k, Op::MovImm, 1);
                self.patch(jend);
            }
            ExprKind::Bin(BinOp::Min, a, b) => self.min_max(a, b, k, CmpOp::Le)?,
            ExprKind::Bin(BinOp::Max, a, b) => self.min_max(a, b, k, CmpOp::Ge)?,
            ExprKind::Bin(op, a, b) => {
                let (reg_op, imm_op) = alu_ops(op);
                match (a.kind(), b.kind()) {
                    (_, ExprKind::Int(v)) => {
                        self.expr(a, k)?;
                        self.in_place(k, imm_op, v);
                    }
                    // saturating + and * commute; nothing else here does
                    (ExprKind::Int(v), _) if matches!(op, BinOp::Add | BinOp::Mul) => {
                        self.expr(b, k)?;
                        self.in_place(k, imm_op, v);
                    }
                    _ => {
                        self.expr(a, k)?;
                        self.expr(b, k + 1)?;
                        let ra = self.load(k, SCRATCH_A);
                        let rb = self.load(k + 1, SCRATCH_B);
                        self.push(Insn::new(reg_op, ra, rb, 0));
                        self.store(k, ra);
                    }
                }
            }
            ExprKind::If(c, t, f) => {
                let mark = self.else_jumps.len();
                self.branch_unless(c, k)?;
                self.expr(t, k)?;
                let jend = self.jump(Op::Ja, 0, 0, 0);
                self.patch_else_jumps(mark);
                self.expr(f, k)?;
                self.patch(jend);
            }
            ExprKind::Clamp(x, lo, hi) => {
                // max(lo, min(x, hi)) — same fault class (division inside a
                // subexpression) regardless of evaluation order.
                self.expr(lo, k)?;
                self.min_max(x, hi, k + 1, CmpOp::Le)?;
                self.keep_or_take(k, CmpOp::Ge);
            }
        }
        Ok(())
    }

    /// Evaluate condition `c` using stack slots from `k` up; fall through
    /// when it holds, and leave on [`else_jumps`](Self::else_jumps) the
    /// jumps to take when it does not. `&&` chains and comparisons branch
    /// directly (one inverted compare per comparison); anything else is
    /// evaluated and tested against zero.
    fn branch_unless(&mut self, c: ExprRef<'_>, k: usize) -> Result<(), LowerError> {
        let jump = match c.kind() {
            ExprKind::Bin(BinOp::And, a, b) => {
                self.branch_unless(a, k)?;
                return self.branch_unless(b, k);
            }
            ExprKind::Cmp(op, a, b) => {
                let (reg_op, imm_op) = jump_ops(inverted(op));
                self.expr(a, k)?;
                if let ExprKind::Int(v) = b.kind() {
                    let ra = self.load(k, SCRATCH_A);
                    self.jump(imm_op, ra, 0, v)
                } else {
                    self.expr(b, k + 1)?;
                    let ra = self.load(k, SCRATCH_A);
                    let rb = self.load(k + 1, SCRATCH_B);
                    self.jump(reg_op, ra, rb, 0)
                }
            }
            _ => {
                self.expr(c, k)?;
                let r = self.load(k, SCRATCH_A);
                self.jump(Op::JeqImm, r, 0, 0)
            }
        };
        self.else_jumps.push(jump);
        Ok(())
    }

    /// `min`/`max` into slot `k`: keep `a` when `a keep b` holds, else `b`.
    fn min_max(
        &mut self,
        a: ExprRef<'_>,
        b: ExprRef<'_>,
        k: usize,
        keep: CmpOp,
    ) -> Result<(), LowerError> {
        self.expr(a, k)?;
        if let ExprKind::Int(v) = b.kind() {
            let ra = self.load(k, SCRATCH_A);
            let kept = self.jump(jump_ops(keep).1, ra, 0, v);
            self.push(Insn::new(Op::MovImm, ra, 0, v));
            self.patch(kept);
            self.store(k, ra);
        } else {
            self.expr(b, k + 1)?;
            self.keep_or_take(k, keep);
        }
        Ok(())
    }

    /// Slot `k` keeps its value when `slot k keep slot k+1` holds, and
    /// takes slot `k+1`'s otherwise.
    fn keep_or_take(&mut self, k: usize, keep: CmpOp) {
        let ra = self.load(k, SCRATCH_A);
        let rb = self.load(k + 1, SCRATCH_B);
        let kept = self.jump(jump_ops(keep).0, ra, rb, 0);
        self.push(Insn::new(Op::MovReg, ra, rb, 0));
        self.patch(kept);
        self.store(k, ra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::verify;
    use crate::vm::execute_verified;
    use policysmith_dsl::env::MapEnv;
    use policysmith_dsl::{eval, parse, Mode};

    /// Compile against the expression's own layout, verify, execute with a
    /// ctx filled from `env`, and compare with the interpreter.
    fn check_equiv(src: &str, env: &MapEnv) {
        let e = parse(src).unwrap();
        let layout = CtxLayout::for_expr(&e, Mode::Kernel);
        let prog = compile(&e, &layout).unwrap();
        verify(&prog, &layout.verify_env())
            .unwrap_or_else(|err| panic!("verify failed for `{src}`:\n{prog}\n{err}"));
        let mut ctx = Vec::new();
        layout.fill(env, &mut ctx);
        let mut map = vec![0i64; SPILL_SLOTS];
        let vm_result = execute_verified(&prog, &ctx, &mut map).unwrap();
        let interp = eval(&e, env).unwrap();
        assert_eq!(vm_result, interp, "src=`{src}`\n{prog}");
    }

    fn env() -> MapEnv {
        MapEnv::new()
            .with(Feature::Cwnd, 20)
            .with(Feature::PrevCwnd, 18)
            .with(Feature::MinRttUs, 40_000)
            .with(Feature::SrttUs, 55_000)
            .with(Feature::LastRttUs, 60_000)
            .with(Feature::InflightPkts, 15)
            .with(Feature::Mss, 1448)
            .with(Feature::LossEvent, 0)
            .with(Feature::Ssthresh, 64)
            .with(Feature::HistRtt(0), 52_000)
            .with(Feature::HistRtt(1), 48_000)
            .with(Feature::HistQdelay(0), 12_000)
    }

    #[test]
    fn constants_and_arith() {
        check_equiv("1 + 2 * 3 - 4", &env());
        check_equiv("100 / 7 % 5", &env());
        check_equiv("(1 << 10) >> 3", &env());
    }

    #[test]
    fn features_load_from_ctx() {
        check_equiv("cwnd + prev_cwnd", &env());
        check_equiv("srtt - min_rtt", &env());
        check_equiv("hist_rtt[0] - hist_rtt[1]", &env());
    }

    #[test]
    fn comparisons_logic_conditionals() {
        check_equiv("srtt > min_rtt", &env());
        check_equiv("loss && cwnd > 10", &env());
        check_equiv("loss || cwnd > 10", &env());
        check_equiv("!loss", &env());
        check_equiv("if(loss, cwnd >> 1, cwnd + 1)", &env());
        check_equiv("srtt > min_rtt * 2 ? cwnd - 4 : cwnd + 2", &env());
    }

    #[test]
    fn intrinsics() {
        check_equiv("min(cwnd, ssthresh)", &env());
        check_equiv("max(cwnd, 2)", &env());
        check_equiv("clamp(cwnd * 2, 2, 64)", &env());
        check_equiv("abs(cwnd - prev_cwnd)", &env());
        check_equiv("abs(prev_cwnd - cwnd)", &env());
    }

    #[test]
    fn guarded_division_verifies() {
        check_equiv("cwnd * min_rtt / max(srtt, 1)", &env());
        check_equiv("delivered / max(inflight, 1)", &env());
        check_equiv("cwnd / mss", &env()); // mss range excludes zero
    }

    #[test]
    fn unguarded_division_compiles_but_fails_verify() {
        let e = parse("cwnd / inflight").unwrap(); // inflight may be 0
        let layout = CtxLayout::for_expr(&e, Mode::Kernel);
        let prog = compile(&e, &layout).unwrap();
        let err = verify(&prog, &layout.verify_env()).unwrap_err();
        assert!(err.to_string().contains("not allowed as divisor"), "{err}");
    }

    #[test]
    fn float_fails_to_lower() {
        let e = parse("cwnd * 1.5").unwrap();
        let layout = CtxLayout::for_expr(&e, Mode::Kernel);
        assert!(matches!(compile(&e, &layout), Err(LowerError::FloatLiteral { .. })));
    }

    #[test]
    fn feature_outside_the_layout_fails_to_lower() {
        // a layout built for a *different* expression has no slot for cwnd
        let other = parse("srtt").unwrap();
        let layout = CtxLayout::for_expr(&other, Mode::Kernel);
        let e = parse("cwnd + 1").unwrap();
        assert!(matches!(compile(&e, &layout), Err(LowerError::UnsupportedFeature { .. })));
    }

    #[test]
    fn deep_expression_spills_and_still_matches() {
        // Right-leaning chain forces stack depth ≈ 12 > 9 registers (`-`
        // does not commute, so the literal cannot fold into an immediate).
        let mut src = String::from("cwnd");
        for _ in 0..12 {
            src = format!("(1 - {src})");
        }
        check_equiv(&src, &env());
        // Left-leaning uses constant stack depth.
        let mut src = String::from("cwnd");
        for _ in 0..20 {
            src = format!("({src} + 1)");
        }
        check_equiv(&src, &env());
    }

    #[test]
    fn deep_spill_in_both_operands() {
        // Right-nested mins force concurrent spilled operands.
        let mut src = String::from("min(cwnd, 30)");
        for i in 0..12 {
            src = format!("min({} + cwnd, {src})", 25 + i);
        }
        check_equiv(&src, &env());
    }

    #[test]
    fn paper_style_cc_heuristic() {
        // AIMD with history-informed backoff, in the shape §5 describes.
        check_equiv(
            "if(loss, max(cwnd >> 1, 2), \
               if(srtt - min_rtt > 20000, cwnd, \
                  cwnd + max(acked / max(mss, 1), 1)))",
            &env(),
        );
    }

    fn lowered(src: &str) -> Program {
        let e = parse(src).unwrap();
        compile(&e, &CtxLayout::for_expr(&e, Mode::Cache)).unwrap()
    }

    #[test]
    fn selected_instructions_are_pinned() {
        // the issue's running example, instruction for instruction: two
        // immediates, one inverted compare-and-branch, result born in r0
        let listing = "   0: r0 = ctx[0]\n   1: r0 *= 3\n   2: r1 = ctx[0]\n   \
                       3: if r1 >= 5 goto +2\n   4: r1 = -36\n   5: goto +1\n   \
                       6: r1 = 0\n   7: r0 += r1\n   8: exit\n";
        assert_eq!(lowered("obj.count * 3 + if(obj.count < 5, -36, 0)").to_string(), listing);

        // a chain deep enough to spill: slots 0..8 in r0..r8, three in the map
        let mut spilling = String::from("obj.size");
        for _ in 0..11 {
            spilling = format!("(obj.count - {spilling})");
        }
        // (source, instructions now, instructions in the plain stack form)
        let shapes: [(&str, usize, usize); 12] = [
            ("obj.count * 3", 3, 5),
            ("3 + obj.count", 3, 5), // + and * commute into the immediate …
            ("3 - obj.count", 4, 5), // … nothing else does
            ("obj.count * 3 + if(obj.count < 5, -36, 0)", 9, 16),
            ("obj.count < 5", 6, 8), // a comparison as a value still yields 0/1
            ("if(obj.size > sizes.p75, 0 - obj.age, obj.count * counts.p50)", 11, 16),
            ("if(hist.contains && hist.count > 2, 100, 0) + obj.last_access", 10, 20),
            ("obj.count / max(obj.size, 1)", 6, 8),
            ("clamp(obj.count * 2, 2, 64)", 8, 11),
            ("obj.count * 20 - obj.age / 300 - obj.size / 500", 9, 13),
            (&spilling, 34, 39),
            (
                "obj.count * 20 - obj.age / 300 - obj.size / 500 \
                 + if(hist.contains, hist.count * 15 + hist.age_at_evict / 150, -40) \
                 + if(obj.age > ages.p75, -30, 0) + if(obj.size > sizes.p75, -25, 10) \
                 + if(obj.count > counts.p70, 50, -5) + if(obj.age < 1000, 25, 0) \
                 + if(obj.count < 3, -15, 0)",
                52,
                80,
            ), // the paper's Listing 1
        ];
        for (src, now, plain) in shapes {
            let got = lowered(src).len();
            assert_eq!(got, now, "`{src}` (plain stack form: {plain})");
        }
    }

    #[test]
    fn clamp_is_two_min_max_steps() {
        // max(lo, min(x, hi)), operand order lo, x, hi — and identical
        // bytecode to writing the two steps out
        assert_eq!(lowered("clamp(obj.age, obj.size, obj.count)"), {
            let e = parse("max(obj.size, min(obj.age, obj.count))").unwrap();
            let clamp = parse("clamp(obj.age, obj.size, obj.count)").unwrap();
            compile(&e, &CtxLayout::for_expr(&clamp, Mode::Cache)).unwrap()
        });
    }

    #[test]
    fn r0_bounds_from_verifier_are_sound() {
        let e = parse("clamp(cwnd * 2, 2, 1024)").unwrap();
        let layout = CtxLayout::for_expr(&e, Mode::Kernel);
        let prog = compile(&e, &layout).unwrap();
        let r0 = verify(&prog, &layout.verify_env()).unwrap();
        assert!(r0.lo >= 2 && r0.hi <= 1024, "r0 bounds {:?}", r0);
    }
}
