//! The kbpf instruction set.
//!
//! A deliberately close cousin of (classic) eBPF: 11 general `i64`
//! registers, ALU ops with register/immediate variants, conditional forward
//! jumps, loads from a read-only **context** array (the kernel-module
//! scaffold's view of connection state, cf. §5.0.2's BPF-map hand-off), and
//! load/store on a small scratch **map**. Divergences from real eBPF are
//! intentional and documented:
//!
//! * arithmetic saturates instead of wrapping (matching the DSL spec so the
//!   interpreter and VM agree bit-for-bit);
//! * there is no packet access, no helpers, no call instruction — the
//!   `cong_control` template needs none;
//! * backward jumps are rejected by the verifier (real eBPF allows bounded
//!   loops; the paper's constraint "no unbounded loops" is enforced here by
//!   construction).

use std::fmt;

/// Number of general-purpose registers (`r0` holds the return value).
pub const REG_COUNT: u8 = 11;

/// Hard cap on program length, mirroring the kernel's instruction budget.
pub const MAX_INSNS: usize = 4096;

/// Operation codes. `*Imm` variants use the instruction's `imm` field as the
/// second operand; `*Reg` variants use register `src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `dst = imm`
    MovImm,
    /// `dst = src`
    MovReg,
    AddImm,
    AddReg,
    SubImm,
    SubReg,
    MulImm,
    MulReg,
    /// Signed division; the verifier must prove the divisor nonzero.
    DivImm,
    DivReg,
    /// Signed remainder; same nonzero obligation.
    RemImm,
    RemReg,
    /// `dst = -dst` (saturating).
    Neg,
    /// Left shift, amount clamped to `[0, 63]`, saturating result.
    LshImm,
    LshReg,
    /// Arithmetic right shift, amount clamped to `[0, 63]`.
    RshImm,
    RshReg,
    /// Unconditional forward jump by `off`.
    Ja,
    /// Conditional jumps: `if dst <cond> operand { pc += 1 + off }`.
    JeqImm,
    JeqReg,
    JneImm,
    JneReg,
    JltImm,
    JltReg,
    JleImm,
    JleReg,
    JgtImm,
    JgtReg,
    JgeImm,
    JgeReg,
    /// `dst = ctx[imm]` — read-only feature load.
    LdCtx,
    /// `dst = map[imm]` — scratch map load.
    LdMap,
    /// `map[imm] = src` — scratch map store.
    StMap,
    /// Return `r0`.
    Exit,
}

impl Op {
    /// Is this op any kind of jump?
    pub fn is_jump(self) -> bool {
        use Op::*;
        matches!(
            self,
            Ja | JeqImm
                | JeqReg
                | JneImm
                | JneReg
                | JltImm
                | JltReg
                | JleImm
                | JleReg
                | JgtImm
                | JgtReg
                | JgeImm
                | JgeReg
        )
    }

    /// Does this op use the `src` register as an input?
    pub fn reads_src(self) -> bool {
        use Op::*;
        matches!(
            self,
            MovReg
                | AddReg
                | SubReg
                | MulReg
                | DivReg
                | RemReg
                | LshReg
                | RshReg
                | JeqReg
                | JneReg
                | JltReg
                | JleReg
                | JgtReg
                | JgeReg
                | StMap
        )
    }

    /// Does this op read the `dst` register before (possibly) writing it?
    pub fn reads_dst(self) -> bool {
        use Op::*;
        matches!(
            self,
            AddImm
                | AddReg
                | SubImm
                | SubReg
                | MulImm
                | MulReg
                | DivImm
                | DivReg
                | RemImm
                | RemReg
                | Neg
                | LshImm
                | LshReg
                | RshImm
                | RshReg
                | JeqImm
                | JeqReg
                | JneImm
                | JneReg
                | JltImm
                | JltReg
                | JleImm
                | JleReg
                | JgtImm
                | JgtReg
                | JgeImm
                | JgeReg
        )
    }

    /// Does this op write the `dst` register?
    pub fn writes_dst(self) -> bool {
        use Op::*;
        matches!(
            self,
            MovImm
                | MovReg
                | AddImm
                | AddReg
                | SubImm
                | SubReg
                | MulImm
                | MulReg
                | DivImm
                | DivReg
                | RemImm
                | RemReg
                | Neg
                | LshImm
                | LshReg
                | RshImm
                | RshReg
                | LdCtx
                | LdMap
        )
    }
}

/// One instruction. `off` is a *forward* relative jump distance: the taken
/// target is `pc + 1 + off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Insn {
    pub op: Op,
    pub dst: u8,
    pub src: u8,
    pub imm: i64,
    pub off: i32,
}

impl Insn {
    /// Non-jump instruction constructor.
    pub fn new(op: Op, dst: u8, src: u8, imm: i64) -> Self {
        Insn { op, dst, src, imm, off: 0 }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Op::*;
        let (d, s, i, o) = (self.dst, self.src, self.imm, self.off);
        // the second operand, in whichever form the op takes it
        let b = if self.op.reads_src() { format!("r{s}") } else { i.to_string() };
        match self.op {
            MovImm | MovReg => write!(f, "r{d} = {b}"),
            AddImm | AddReg => write!(f, "r{d} += {b}"),
            SubImm | SubReg => write!(f, "r{d} -= {b}"),
            MulImm | MulReg => write!(f, "r{d} *= {b}"),
            DivImm | DivReg => write!(f, "r{d} /= {b}"),
            RemImm | RemReg => write!(f, "r{d} %= {b}"),
            Neg => write!(f, "r{d} = -r{d}"),
            LshImm | LshReg => write!(f, "r{d} <<= {b}"),
            RshImm | RshReg => write!(f, "r{d} >>= {b}"),
            Ja => write!(f, "goto +{o}"),
            JeqImm | JeqReg => write!(f, "if r{d} == {b} goto +{o}"),
            JneImm | JneReg => write!(f, "if r{d} != {b} goto +{o}"),
            JltImm | JltReg => write!(f, "if r{d} < {b} goto +{o}"),
            JleImm | JleReg => write!(f, "if r{d} <= {b} goto +{o}"),
            JgtImm | JgtReg => write!(f, "if r{d} > {b} goto +{o}"),
            JgeImm | JgeReg => write!(f, "if r{d} >= {b} goto +{o}"),
            LdCtx => write!(f, "r{d} = ctx[{i}]"),
            LdMap => write!(f, "r{d} = map[{i}]"),
            StMap => write!(f, "map[{i}] = r{s}"),
            Exit => write!(f, "exit"),
        }
    }
}

/// A complete kbpf program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    pub insns: Vec<Insn>,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

impl fmt::Display for Program {
    /// Kernel-style disassembly, one instruction per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, insn) in self.insns.iter().enumerate() {
            writeln!(f, "{pc:4}: {insn}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(Insn::new(Op::MovImm, 1, 0, 42).to_string(), "r1 = 42");
        assert_eq!(Insn::new(Op::AddReg, 2, 3, 0).to_string(), "r2 += r3");
        assert_eq!(Insn::new(Op::LdCtx, 1, 0, 8).to_string(), "r1 = ctx[8]");
        assert_eq!(
            Insn { op: Op::JeqImm, dst: 1, src: 0, imm: 0, off: 3 }.to_string(),
            "if r1 == 0 goto +3"
        );
        assert_eq!(
            Insn { op: Op::JgeReg, dst: 1, src: 2, imm: 9, off: 3 }.to_string(),
            "if r1 >= r2 goto +3"
        );
        assert_eq!(Insn::new(Op::DivImm, 4, 5, -7).to_string(), "r4 /= -7");
        assert_eq!(Insn::new(Op::Exit, 0, 0, 0).to_string(), "exit");
    }

    #[test]
    fn op_classification() {
        assert!(Op::Ja.is_jump());
        assert!(Op::JgeReg.is_jump());
        assert!(!Op::Exit.is_jump());
        assert!(Op::StMap.reads_src());
        assert!(!Op::StMap.writes_dst());
        assert!(Op::LdCtx.writes_dst());
        assert!(!Op::LdCtx.reads_dst());
        assert!(Op::AddReg.reads_dst() && Op::AddReg.reads_src() && Op::AddReg.writes_dst());
        assert!(Op::MovReg.reads_src() && !Op::MovReg.reads_dst());
    }

    #[test]
    fn program_disasm_multiline() {
        let p =
            Program { insns: vec![Insn::new(Op::MovImm, 0, 0, 7), Insn::new(Op::Exit, 0, 0, 0)] };
        let s = p.to_string();
        assert!(s.contains("   0: r0 = 7"));
        assert!(s.contains("   1: exit"));
    }
}
