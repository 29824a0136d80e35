//! kbpf → eBPF lowering.
//!
//! The kbpf ISA was designed as a close cousin of eBPF, but two gaps make
//! naïve transliteration unsound, and this module closes both:
//!
//! 1. **Semantics.** kbpf arithmetic *saturates* (matching the DSL spec);
//!    real eBPF *wraps*. The emitter therefore re-runs the shared interval
//!    analysis ([`policysmith_kbpf::analyze`]) and applies a **provability
//!    gate** at every instruction that can saturate: the result interval
//!    (computed with saturating transfer functions, so any reachable
//!    saturation necessarily pins an endpoint to `i64::MIN`/`MAX`) must
//!    stay strictly inside the rails. When it does, wrapping and
//!    saturating execution coincide on every reachable input, so the
//!    emitted program is *provably* decision-identical to the kbpf VM —
//!    not hopefully identical. When it does not, emission fails with
//!    [`EmitError::SaturationUnprovable`]; a kernel artifact whose
//!    semantics we cannot prove is an artifact we refuse to produce.
//!    Signed division gets the analogous exact check (`i64::MIN / -1` is
//!    the only saturating case), and shift amounts the analysis cannot
//!    bound to `[0, 63]` get an explicit clamp sequence so the eBPF shift
//!    matches kbpf's clamping semantics.
//! 2. **Registers.** kbpf has 11 general registers plus a context array
//!    and scratch map; eBPF has 10 usable registers (`r10` is the
//!    read-only frame pointer), a context *pointer*, and a 512-byte
//!    stack. The allocator pins `r6` as the saved context base and
//!    `r8`/`r9` as reload temporaries, maps kbpf `r0` to eBPF `r0`, hands
//!    the six remaining registers to the most-used kbpf registers, and
//!    spills the rest — together with the program's live scratch-map
//!    slots — to the frame.
//!
//! The scratch-map subtlety: kbpf's map persists across invocations while
//! an eBPF stack frame is fresh per call. Lowered programs only use the
//! map for expression spills (every load is preceded by a store on all
//! paths), so the translation is exact; the model verifier
//! ([`crate::check`]) independently rejects any emitted program that
//! could read an uninitialized frame slot, turning the assumption into a
//! checked obligation.

use crate::isa::{
    EbpfInsn, EbpfProgram, BPF_ADD, BPF_ARSH, BPF_DIV, BPF_JEQ, BPF_JNE, BPF_JSGE, BPF_JSGT,
    BPF_JSLE, BPF_JSLT, BPF_LSH, BPF_MOD, BPF_MUL, BPF_NEG, BPF_SUB, SIGNED_DIV_OFF,
};
use policysmith_kbpf::{analyze, AbsState, Insn, Interval, Op, Program, VerifyEnv, VerifyError};
use std::collections::BTreeMap;
use std::fmt;

/// eBPF stack frame budget (the kernel's hard limit).
pub const EBPF_STACK_BYTES: usize = 512;

/// Saved context-pointer register (`r1` on entry, preserved in `r6`).
const CTX_REG: u8 = 6;
/// Reload temporary for destination operands.
const TEMP0: u8 = 8;
/// Reload temporary for source operands / wide immediates / clamps.
const TEMP1: u8 = 9;
/// Allocatable registers for kbpf `r1..r10`, in assignment order.
const POOL: [u8; 6] = [1, 2, 3, 4, 5, 7];

/// Why emission failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EmitError {
    /// The program did not pass the kbpf verifier — nothing may be
    /// emitted for an unverified program.
    Verify(VerifyError),
    /// The interval analysis could not prove the instruction's saturating
    /// result stays inside `(i64::MIN, i64::MAX)`, so wrapping eBPF
    /// arithmetic might diverge from the kbpf VM.
    SaturationUnprovable { pc: usize, insn: String, lo: i64, hi: i64 },
    /// `i64::MIN / -1` (the one saturating division) could not be ruled
    /// out; eBPF `sdiv` wraps where kbpf saturates.
    SdivOverflowPossible { pc: usize, insn: String },
    /// Spilled registers + live map slots exceed the 512-byte eBPF frame.
    StackOverflow { bytes: usize },
    /// A branch span exceeded the 16-bit eBPF jump offset after expansion.
    JumpOffsetOverflow { pc: usize },
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::Verify(e) => write!(f, "emit: program not verified: {e}"),
            EmitError::SaturationUnprovable { pc, insn, lo, hi } => write!(
                f,
                "emit: insn {pc} `{insn}`: result range [{lo}, {hi}] may saturate; \
                 wrapping eBPF arithmetic would diverge from the saturating VM"
            ),
            EmitError::SdivOverflowPossible { pc, insn } => write!(
                f,
                "emit: insn {pc} `{insn}`: cannot rule out i64::MIN / -1 \
                 (sdiv wraps where the VM saturates)"
            ),
            EmitError::StackOverflow { bytes } => {
                write!(f, "emit: frame needs {bytes} bytes, eBPF stack is {EBPF_STACK_BYTES}")
            }
            EmitError::JumpOffsetOverflow { pc } => {
                write!(f, "emit: jump at slot {pc} exceeds the 16-bit offset range")
            }
        }
    }
}

impl std::error::Error for EmitError {}

/// Where a kbpf register lives in the target frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(u8),
    Stack(i16),
}

/// A materialized second operand.
enum Operand {
    Imm(i32),
    Reg(u8),
}

/// Lower a verified kbpf program to eBPF against its declared environment.
///
/// Runs the shared interval analysis first (emission of an unverifiable
/// program is refused), then performs register allocation and two-pass
/// encoding with jump fix-ups. On success the artifact is *provably*
/// semantics-identical to the kbpf VM for every context within the
/// declared ranges — the saturation gate is what licenses the wrapping
/// target arithmetic.
pub fn emit(prog: &Program, env: &VerifyEnv) -> Result<EbpfProgram, EmitError> {
    let analysis = analyze(prog, env).map_err(EmitError::Verify)?;

    // --- register allocation: rank kbpf r1..r10 by static use count ----
    let mut uses = [0usize; 11];
    let mut map_slots: BTreeMap<i64, i16> = BTreeMap::new();
    for insn in &prog.insns {
        if insn.op.reads_dst() || insn.op.writes_dst() {
            uses[insn.dst as usize] += 1;
        }
        if insn.op.reads_src() {
            uses[insn.src as usize] += 1;
        }
        if matches!(insn.op, Op::LdMap | Op::StMap) {
            map_slots.insert(insn.imm, 0);
        }
    }
    let mut ranked: Vec<u8> = (1u8..11).filter(|&k| uses[k as usize] > 0).collect();
    ranked.sort_by_key(|&k| (std::cmp::Reverse(uses[k as usize]), k));

    let mut loc = [Loc::Reg(0); 11]; // kbpf r0 is pinned to eBPF r0
    let mut next_off: i16 = 0;
    let take_slot = |next_off: &mut i16| {
        *next_off -= 8;
        *next_off
    };
    for (i, &k) in ranked.iter().enumerate() {
        loc[k as usize] = match POOL.get(i) {
            Some(&r) => Loc::Reg(r),
            None => Loc::Stack(take_slot(&mut next_off)),
        };
    }
    for off in map_slots.values_mut() {
        *off = take_slot(&mut next_off);
    }
    let stack_bytes = (-next_off) as usize;
    if stack_bytes > EBPF_STACK_BYTES {
        return Err(EmitError::StackOverflow { bytes: stack_bytes });
    }

    // --- pass 1: per-insn emission with the saturation gate -------------
    let mut e = Emitter {
        out: Vec::with_capacity(prog.insns.len() * 2 + 2),
        loc,
        map_off: map_slots,
        kpc2slot: vec![0; prog.insns.len()],
        fixups: Vec::new(),
    };
    e.push(EbpfInsn::mov_x(CTX_REG, 1)); // prologue: save ctx pointer

    for (pc, &insn) in prog.insns.iter().enumerate() {
        e.kpc2slot[pc] = e.out.len();
        let state = analysis.in_states[pc].as_ref();
        if let Some(st) = state {
            gate(pc, insn, st)?;
        }
        e.insn(insn, pc, state);
    }

    // --- pass 2: jump fix-ups -------------------------------------------
    for &(slot, target_kpc) in &e.fixups {
        let off = e.kpc2slot[target_kpc] as i64 - slot as i64 - 1;
        if off < 0 || off > i16::MAX as i64 {
            return Err(EmitError::JumpOffsetOverflow { pc: slot });
        }
        e.out[slot].off = off as i16;
    }

    Ok(EbpfProgram { insns: e.out, ctx_ranges: env.ctx_ranges.clone(), stack_bytes })
}

/// The per-instruction provability gate: saturating transfer functions pin
/// any reachable saturation to an interval endpoint at `i64::MIN`/`MAX`,
/// so a result interval strictly inside the rails proves wrapping and
/// saturating execution identical for this instruction.
fn gate(pc: usize, insn: Insn, st: &AbsState) -> Result<(), EmitError> {
    let reg = |r: u8| st.reg(r).expect("verified program reads initialized registers");
    let operand = if insn.op.reads_src() { reg(insn.src) } else { Interval::exact(insn.imm) };
    use Op::*;
    let result = match insn.op {
        AddImm | AddReg => reg(insn.dst).add(operand),
        SubImm | SubReg => reg(insn.dst).sub(operand),
        MulImm | MulReg => reg(insn.dst).mul(operand),
        Neg => reg(insn.dst).neg(),
        LshImm | LshReg => reg(insn.dst).shl(operand),
        DivImm | DivReg => {
            // div_sat saturates only for MIN / -1; check exactly that.
            if reg(insn.dst).contains(i64::MIN) && operand.contains(-1) {
                return Err(EmitError::SdivOverflowPossible { pc, insn: insn.to_string() });
            }
            return Ok(());
        }
        // Rem (defined at MIN % -1 = 0 in both semantics), Rsh (cannot
        // overflow), moves, loads, stores, jumps: never saturate.
        _ => return Ok(()),
    };
    if result.touches_rails() {
        return Err(EmitError::SaturationUnprovable {
            pc,
            insn: insn.to_string(),
            lo: result.lo,
            hi: result.hi,
        });
    }
    Ok(())
}

struct Emitter {
    out: Vec<EbpfInsn>,
    loc: [Loc; 11],
    map_off: BTreeMap<i64, i16>,
    kpc2slot: Vec<usize>,
    fixups: Vec<(usize, usize)>,
}

impl Emitter {
    fn push(&mut self, i: EbpfInsn) {
        self.out.push(i);
    }

    fn push2(&mut self, pair: [EbpfInsn; 2]) {
        self.out.extend_from_slice(&pair);
    }

    /// Bring kbpf register `k`'s value into an eBPF register (its home, or
    /// a reload into `temp` for stacked registers). Returns the register.
    fn read(&mut self, k: u8, temp: u8) -> u8 {
        match self.loc[k as usize] {
            Loc::Reg(r) => r,
            Loc::Stack(off) => {
                self.push(EbpfInsn::ldx_dw(temp, 10, off));
                temp
            }
        }
    }

    /// Commit register `r` as the new value of kbpf register `k`.
    fn write_back(&mut self, k: u8, r: u8) {
        match self.loc[k as usize] {
            Loc::Reg(home) => {
                if home != r {
                    self.push(EbpfInsn::mov_x(home, r));
                }
            }
            Loc::Stack(off) => self.push(EbpfInsn::stx_dw(10, off, r)),
        }
    }

    /// Materialize an instruction's second operand: its `src` register
    /// (reloaded into [`TEMP1`] if stacked) when the op reads one, else its
    /// 64-bit immediate — inline when it fits the 32-bit `imm` field, else
    /// a `LDDW` into [`TEMP1`].
    fn operand(&mut self, insn: Insn) -> Operand {
        if insn.op.reads_src() {
            return Operand::Reg(self.read(insn.src, TEMP1));
        }
        match i32::try_from(insn.imm) {
            Ok(v) => Operand::Imm(v),
            Err(_) => {
                self.push2(EbpfInsn::lddw(TEMP1, insn.imm));
                Operand::Reg(TEMP1)
            }
        }
    }

    /// Read-modify-write ALU: `kdst = kdst <op> operand`.
    fn alu(&mut self, kdst: u8, op: u8, operand: Operand, off: i16) {
        let d = self.read(kdst, TEMP0);
        let mut i = match operand {
            Operand::Imm(v) => EbpfInsn::alu_k(op, d, v),
            Operand::Reg(s) => EbpfInsn::alu_x(op, d, s),
        };
        i.off = off;
        self.push(i);
        self.write_back(kdst, d);
    }

    /// Register-form shift. When the analysis proved the amount within
    /// `[0, 63]` the hardware shift is already equivalent to kbpf's
    /// clamping semantics; otherwise an explicit clamp sequence is emitted
    /// on a scratch copy (the source register must not be clobbered).
    fn shift_reg(&mut self, op: u8, kdst: u8, ksrc: u8, amount_in_range: bool) {
        if amount_in_range {
            let s = self.read(ksrc, TEMP1);
            let d = self.read(kdst, TEMP0);
            self.push(EbpfInsn::alu_x(op, d, s));
            self.write_back(kdst, d);
            return;
        }
        let s = self.read(ksrc, TEMP1);
        if s != TEMP1 {
            self.push(EbpfInsn::mov_x(TEMP1, s));
        }
        // clamp TEMP1 to [0, 63], mirroring shl_sat/shr_arith
        self.push(EbpfInsn::jmp_k(BPF_JSGE, TEMP1, 0, 1));
        self.push(EbpfInsn::mov_k(TEMP1, 0));
        self.push(EbpfInsn::jmp_k(BPF_JSLE, TEMP1, 63, 1));
        self.push(EbpfInsn::mov_k(TEMP1, 63));
        let d = self.read(kdst, TEMP0);
        self.push(EbpfInsn::alu_x(op, d, TEMP1));
        self.write_back(kdst, d);
    }

    /// Conditional jump against a materialized operand; offset patched in
    /// pass 2.
    fn jump(&mut self, op: u8, kdst: u8, operand: Operand, target_kpc: usize) {
        let d = self.read(kdst, TEMP0);
        let i = match operand {
            Operand::Imm(v) => EbpfInsn::jmp_k(op, d, v, 0),
            Operand::Reg(s) => EbpfInsn::jmp_x(op, d, s, 0),
        };
        self.fixups.push((self.out.len(), target_kpc));
        self.push(i);
    }

    fn insn(&mut self, insn: Insn, pc: usize, state: Option<&AbsState>) {
        use Op::*;
        let target = || pc + 1 + insn.off as usize;
        match insn.op {
            MovImm => match (i32::try_from(insn.imm), self.loc[insn.dst as usize]) {
                (Ok(v), Loc::Reg(r)) => self.push(EbpfInsn::mov_k(r, v)),
                (Ok(v), Loc::Stack(_)) => {
                    self.push(EbpfInsn::mov_k(TEMP0, v));
                    self.write_back(insn.dst, TEMP0);
                }
                (Err(_), Loc::Reg(r)) => self.push2(EbpfInsn::lddw(r, insn.imm)),
                (Err(_), Loc::Stack(_)) => {
                    self.push2(EbpfInsn::lddw(TEMP0, insn.imm));
                    self.write_back(insn.dst, TEMP0);
                }
            },
            MovReg => {
                let s = self.read(insn.src, TEMP0);
                self.write_back(insn.dst, s);
            }
            AddImm | AddReg => {
                let o = self.operand(insn);
                self.alu(insn.dst, BPF_ADD, o, 0);
            }
            SubImm | SubReg => {
                let o = self.operand(insn);
                self.alu(insn.dst, BPF_SUB, o, 0);
            }
            MulImm | MulReg => {
                let o = self.operand(insn);
                self.alu(insn.dst, BPF_MUL, o, 0);
            }
            DivImm | DivReg => {
                let o = self.operand(insn);
                self.alu(insn.dst, BPF_DIV, o, SIGNED_DIV_OFF);
            }
            RemImm | RemReg => {
                let o = self.operand(insn);
                self.alu(insn.dst, BPF_MOD, o, SIGNED_DIV_OFF);
            }
            Neg => {
                let d = self.read(insn.dst, TEMP0);
                self.push(EbpfInsn::alu_k(BPF_NEG, d, 0));
                self.write_back(insn.dst, d);
            }
            // Immediate shift amounts clamp at compile time — exactly
            // shl_sat/shr_arith's treatment of out-of-range amounts.
            LshImm => self.alu(insn.dst, BPF_LSH, Operand::Imm(insn.imm.clamp(0, 63) as i32), 0),
            RshImm => self.alu(insn.dst, BPF_ARSH, Operand::Imm(insn.imm.clamp(0, 63) as i32), 0),
            LshReg | RshReg => {
                let op = if insn.op == LshReg { BPF_LSH } else { BPF_ARSH };
                let in_range =
                    state.and_then(|st| st.reg(insn.src)).is_some_and(|a| a.lo >= 0 && a.hi <= 63);
                self.shift_reg(op, insn.dst, insn.src, in_range);
            }
            Ja => {
                self.fixups.push((self.out.len(), target()));
                self.push(EbpfInsn::ja(0));
            }
            JeqImm | JeqReg | JneImm | JneReg | JltImm | JltReg | JleImm | JleReg | JgtImm
            | JgtReg | JgeImm | JgeReg => {
                let o = self.operand(insn);
                self.jump(cond_op(insn.op), insn.dst, o, target());
            }
            LdCtx => {
                let off = (insn.imm * 8) as i16;
                match self.loc[insn.dst as usize] {
                    Loc::Reg(r) => self.push(EbpfInsn::ldx_dw(r, CTX_REG, off)),
                    Loc::Stack(_) => {
                        self.push(EbpfInsn::ldx_dw(TEMP0, CTX_REG, off));
                        self.write_back(insn.dst, TEMP0);
                    }
                }
            }
            LdMap => {
                let off = self.map_off[&insn.imm];
                match self.loc[insn.dst as usize] {
                    Loc::Reg(r) => self.push(EbpfInsn::ldx_dw(r, 10, off)),
                    Loc::Stack(_) => {
                        self.push(EbpfInsn::ldx_dw(TEMP0, 10, off));
                        self.write_back(insn.dst, TEMP0);
                    }
                }
            }
            StMap => {
                let off = self.map_off[&insn.imm];
                let s = self.read(insn.src, TEMP1);
                self.push(EbpfInsn::stx_dw(10, off, s));
            }
            Exit => self.push(EbpfInsn::exit()),
        }
    }
}

/// kbpf conditional → signed eBPF jump opcode (kbpf comparisons are
/// signed `i64` throughout).
fn cond_op(op: Op) -> u8 {
    use Op::*;
    match op {
        JeqImm | JeqReg => BPF_JEQ,
        JneImm | JneReg => BPF_JNE,
        JltImm | JltReg => BPF_JSLT,
        JleImm | JleReg => BPF_JSLE,
        JgtImm | JgtReg => BPF_JSGT,
        JgeImm | JgeReg => BPF_JSGE,
        _ => unreachable!("not a conditional jump"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_dsl::Mode;
    use policysmith_kbpf::CompiledPolicy;

    fn emit_source(src: &str) -> Result<EbpfProgram, EmitError> {
        let p = CompiledPolicy::from_source(src, Mode::Kernel).unwrap();
        emit(p.program(), &p.layout().verify_env())
    }

    #[test]
    fn aimd_policy_emits() {
        let prog = emit_source("if(loss, max(cwnd >> 1, 2), cwnd + 1)").unwrap();
        // prologue saves the ctx pointer
        assert_eq!(prog.insns[0], EbpfInsn::mov_x(CTX_REG, 1));
        assert_eq!(prog.insns.last().unwrap(), &EbpfInsn::exit());
        assert!(prog.byte_len() >= prog.insns.len() * 8);
    }

    #[test]
    fn unverified_programs_are_refused() {
        // hand-built: exit without r0
        let prog = Program { insns: vec![Insn::new(Op::Exit, 0, 0, 0)] };
        let env = VerifyEnv::opaque(0, 0);
        assert!(matches!(emit(&prog, &env), Err(EmitError::Verify(_))));
    }

    #[test]
    fn saturation_gate_rejects_unbounded_arithmetic() {
        // ctx[0] is TOP: TOP + TOP may saturate.
        let prog = Program {
            insns: vec![
                Insn::new(Op::LdCtx, 0, 0, 0),
                Insn::new(Op::AddImm, 0, 0, 1),
                Insn::new(Op::Exit, 0, 0, 0),
            ],
        };
        let env = VerifyEnv::opaque(1, 0);
        let err = emit(&prog, &env).unwrap_err();
        assert!(matches!(err, EmitError::SaturationUnprovable { pc: 1, .. }), "{err}");
        assert!(err.to_string().contains("saturate"), "{err}");

        // Same program with a bounded slot emits fine.
        let env = VerifyEnv { ctx_ranges: vec![(0, 1 << 24)], map_slots: 0 };
        emit(&prog, &env).unwrap();
    }

    #[test]
    fn sdiv_overflow_gate_is_exact() {
        // ctx[0] ∈ [MIN, 0], divide by -1: exactly the MIN/-1 hazard.
        let prog = Program {
            insns: vec![
                Insn::new(Op::LdCtx, 0, 0, 0),
                Insn::new(Op::DivImm, 0, 0, -1),
                Insn::new(Op::Exit, 0, 0, 0),
            ],
        };
        let env = VerifyEnv { ctx_ranges: vec![(i64::MIN, 0)], map_slots: 0 };
        assert!(matches!(emit(&prog, &env), Err(EmitError::SdivOverflowPossible { pc: 1, .. })));
        // Excluding MIN from the dividend clears it.
        let env = VerifyEnv { ctx_ranges: vec![(i64::MIN + 1, 0)], map_slots: 0 };
        emit(&prog, &env).unwrap();
    }

    #[test]
    fn wide_immediates_use_lddw() {
        let prog = Program {
            insns: vec![Insn::new(Op::MovImm, 0, 0, 1 << 40), Insn::new(Op::Exit, 0, 0, 0)],
        };
        let out = emit(&prog, &VerifyEnv::opaque(0, 0)).unwrap();
        assert!(out.insns.iter().any(|i| i.code == 0x18), "{out}");
    }

    #[test]
    fn frame_stays_within_the_kernel_budget() {
        // A deep expression forces register spills and map-slot usage.
        let deep = "cwnd + (srtt + (min_rtt + (mss + (acked + (ssthresh + \
                    (inflight + (last_rtt + (prev_cwnd + (loss + 1)))))))))";
        let prog = emit_source(deep).unwrap();
        assert!(prog.stack_bytes <= EBPF_STACK_BYTES);
    }

    #[test]
    fn searched_style_policies_all_emit() {
        for src in [
            "if(loss, max(cwnd >> 1, 2), cwnd + max(acked / max(mss, 1), 1))",
            "clamp(cwnd * srtt / max(min_rtt, 1), 2, 1024)",
            "if(srtt - min_rtt > 15000, max(cwnd - 1, 4), cwnd + 1)",
            "min(cwnd + acked / max(mss, 1), 4096)",
        ] {
            let prog = emit_source(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert!(!prog.is_empty());
        }
    }
}
