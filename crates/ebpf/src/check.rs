//! Model verifier for emitted eBPF — a faithful miniature of the checks
//! the in-kernel verifier would run at `BPF_PROG_LOAD` time.
//!
//! [`model_check`] abstractly interprets the emitted instruction slots
//! with a small type-and-range domain ([`AbsVal`]): every register is
//! uninitialized, a scalar interval, the context pointer, or the frame
//! pointer. It proves, independently of the emitter that produced the
//! program:
//!
//! * **termination** — every jump is forward, so the CFG is a DAG and no
//!   loop bound is even needed;
//! * **memory safety** — loads go through the context pointer (aligned,
//!   in `ctx_ranges` bounds) or the frame pointer (aligned, within the
//!   reserved frame, and *never before a store on some path* — the check
//!   that licenses translating kbpf's persistent scratch map to a
//!   fresh-per-call stack frame);
//! * **arithmetic safety** — division/modulus only by provably non-zero
//!   divisors, no `i64::MIN s/ -1`, shift amounts provably in `[0, 63]`
//!   (the emitter's clamp sequences are re-proved here via branch
//!   refinement, not trusted);
//! * **a typed return** — `r0` holds a scalar at every reachable `exit`.
//!
//! Unlike the kbpf verifier the scalar transfer functions here model
//! *wrapping* arithmetic: the saturating interval transfer is computed,
//! and any result touching a rail is widened to ⊤ (if wrap-around is
//! possible, nothing tighter is sound). Programs produced by
//! [`crate::emit()`] pass with precise ranges because the emitter's
//! saturation gate already excluded the rails.

use crate::isa::{
    EbpfProgram, BPF_ADD, BPF_ALU64, BPF_ARSH, BPF_DIV, BPF_DW, BPF_EXIT, BPF_JA, BPF_JEQ, BPF_JMP,
    BPF_JNE, BPF_JSGE, BPF_JSGT, BPF_JSLE, BPF_JSLT, BPF_LD, BPF_LDX, BPF_LSH, BPF_MEM, BPF_MOD,
    BPF_MOV, BPF_MUL, BPF_NEG, BPF_STX, BPF_SUB, BPF_X, SIGNED_DIV_OFF,
};
use policysmith_kbpf::range::{refine_eq, refine_ge, refine_gt, refine_le, refine_lt, refine_ne};
use policysmith_kbpf::Interval;
use std::fmt;

/// Abstract value of one register or frame slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Never written on some path — reading is an error.
    Uninit,
    /// A scalar within the interval.
    Scalar(Interval),
    /// The context pointer (`r1` on entry).
    CtxPtr,
    /// The read-only frame pointer (`r10`).
    FramePtr,
}

impl AbsVal {
    fn join(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Scalar(a), AbsVal::Scalar(b)) => AbsVal::Scalar(a.join(b)),
            (a, b) if a == b => a,
            // pointer/scalar or init/uninit disagreement poisons the slot
            _ => AbsVal::Uninit,
        }
    }
}

/// Why the model verifier rejected the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Jump lands outside the program or into the middle of a `LDDW`.
    BadJumpTarget { pc: usize, target: i64 },
    /// Backward jump — would make termination non-obvious.
    BackwardJump { pc: usize },
    /// Read of a register not initialized on every path.
    UninitRead { pc: usize, reg: u8 },
    /// Load from a frame slot not stored on every path to this load.
    UninitStackRead { pc: usize, off: i16 },
    /// Misaligned / out-of-bounds / wrong-base memory access.
    BadMemAccess { pc: usize, detail: &'static str },
    /// A pointer where a scalar is required (ALU, store, compare, exit).
    NotScalar { pc: usize, reg: u8 },
    /// Write to the read-only frame pointer.
    WriteToFramePtr { pc: usize },
    /// Divisor interval contains zero.
    DivByZero { pc: usize },
    /// `i64::MIN s/ -1` not ruled out.
    SdivOverflow { pc: usize },
    /// Shift amount not provably within `[0, 63]`.
    ShiftOutOfRange { pc: usize, lo: i64, hi: i64 },
    /// `LDDW` without its second slot, or a stray second slot.
    MalformedLddw { pc: usize },
    /// Opcode outside the emitted subset.
    UnsupportedInsn { pc: usize, code: u8 },
    /// Control flow can fall off the end of the program.
    FallsOffEnd,
    /// No reachable `exit` — the program never returns.
    NoReachableExit,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::BadJumpTarget { pc, target } => {
                write!(f, "model-check: insn {pc}: jump to invalid slot {target}")
            }
            CheckError::BackwardJump { pc } => {
                write!(f, "model-check: insn {pc}: backward jump")
            }
            CheckError::UninitRead { pc, reg } => {
                write!(f, "model-check: insn {pc}: r{reg} read before initialized")
            }
            CheckError::UninitStackRead { pc, off } => {
                write!(f, "model-check: insn {pc}: frame slot [r10{off:+}] read before stored")
            }
            CheckError::BadMemAccess { pc, detail } => {
                write!(f, "model-check: insn {pc}: bad memory access ({detail})")
            }
            CheckError::NotScalar { pc, reg } => {
                write!(f, "model-check: insn {pc}: r{reg} is a pointer, scalar required")
            }
            CheckError::WriteToFramePtr { pc } => {
                write!(f, "model-check: insn {pc}: write to read-only r10")
            }
            CheckError::DivByZero { pc } => {
                write!(f, "model-check: insn {pc}: divisor may be zero")
            }
            CheckError::SdivOverflow { pc } => {
                write!(f, "model-check: insn {pc}: i64::MIN s/ -1 not ruled out")
            }
            CheckError::ShiftOutOfRange { pc, lo, hi } => {
                write!(f, "model-check: insn {pc}: shift amount in [{lo}, {hi}], need [0, 63]")
            }
            CheckError::MalformedLddw { pc } => {
                write!(f, "model-check: insn {pc}: malformed two-slot immediate load")
            }
            CheckError::UnsupportedInsn { pc, code } => {
                write!(f, "model-check: insn {pc}: unsupported opcode {code:#04x}")
            }
            CheckError::FallsOffEnd => write!(f, "model-check: control flow falls off the end"),
            CheckError::NoReachableExit => write!(f, "model-check: no reachable exit"),
        }
    }
}

impl std::error::Error for CheckError {}

/// What the model verifier proved, for `results/ebpf.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckStats {
    /// Total instruction slots.
    pub insns: usize,
    /// Slots reachable under the abstract semantics.
    pub reachable: usize,
    /// Conditional branches analyzed.
    pub branches: usize,
    /// 8-byte frame slots the program may touch.
    pub stack_slots: usize,
    /// Proven bounds on the return value.
    pub r0: (i64, i64),
}

#[derive(Clone, PartialEq, Eq)]
struct State {
    regs: [AbsVal; 11],
    stack: Vec<AbsVal>,
}

impl State {
    fn entry(stack_slots: usize) -> State {
        let mut regs = [AbsVal::Uninit; 11];
        regs[1] = AbsVal::CtxPtr;
        regs[10] = AbsVal::FramePtr;
        State { regs, stack: vec![AbsVal::Uninit; stack_slots] }
    }

    fn join_with(&mut self, other: &State) {
        for (a, b) in self.regs.iter_mut().zip(other.regs.iter()) {
            *a = a.join(*b);
        }
        for (a, b) in self.stack.iter_mut().zip(other.stack.iter()) {
            *a = a.join(*b);
        }
    }
}

/// Wrapping-aware scalar transfer: the saturating interval transfer is
/// sound for the exact result whenever it avoids the rails; if it touches
/// them, wrap-around is possible and only ⊤ is sound.
fn wrap_widen(iv: Interval) -> Interval {
    if iv.touches_rails() {
        Interval::TOP
    } else {
        iv
    }
}

/// Abstractly interpret an emitted program, returning the proof stats.
pub fn model_check(prog: &EbpfProgram) -> Result<CheckStats, CheckError> {
    let n = prog.insns.len();
    if n == 0 {
        return Err(CheckError::NoReachableExit);
    }
    let stack_slots = prog.stack_bytes / 8;

    // Mark LDDW second slots: jumps may not land on them and stray
    // `code == 0` slots are malformed.
    let mut is_cont = vec![false; n];
    let mut pc = 0;
    while pc < n {
        if prog.insns[pc].code == BPF_LD | BPF_DW {
            if pc + 1 >= n || prog.insns[pc + 1].code != 0 {
                return Err(CheckError::MalformedLddw { pc });
            }
            is_cont[pc + 1] = true;
            pc += 2;
        } else {
            if prog.insns[pc].code == 0 && !is_cont[pc] {
                return Err(CheckError::MalformedLddw { pc });
            }
            pc += 1;
        }
    }

    let mut in_states: Vec<Option<State>> = vec![None; n];
    in_states[0] = Some(State::entry(stack_slots));
    let mut branches = 0usize;
    let mut reachable = 0usize;
    let mut r0_out: Option<Interval> = None;

    for pc in 0..n {
        let Some(st) = in_states[pc].clone() else { continue };
        if is_cont[pc] {
            // only reachable by a jump into the middle of a LDDW, which
            // `target()` below rejects before propagating
            return Err(CheckError::MalformedLddw { pc });
        }
        reachable += 1;
        let insn = prog.insns[pc];
        if insn.dst > 10 || insn.src > 10 {
            return Err(CheckError::UnsupportedInsn { pc, code: insn.code });
        }

        let read_scalar = |st: &State, reg: u8| -> Result<Interval, CheckError> {
            match st.regs[reg as usize] {
                AbsVal::Scalar(iv) => Ok(iv),
                AbsVal::Uninit => Err(CheckError::UninitRead { pc, reg }),
                _ => Err(CheckError::NotScalar { pc, reg }),
            }
        };
        let target = |off: i16| -> Result<usize, CheckError> {
            if off < 0 {
                return Err(CheckError::BackwardJump { pc });
            }
            let t = pc as i64 + 1 + off as i64;
            if t as usize >= n || is_cont[t as usize] {
                return Err(CheckError::BadJumpTarget { pc, target: t });
            }
            Ok(t as usize)
        };

        // Next-states to propagate: (slot, state).
        let mut succs: Vec<(usize, State)> = Vec::with_capacity(2);
        let fallthrough = |st: State, succs: &mut Vec<(usize, State)>, skip: usize| {
            let next = pc + skip;
            if next >= n {
                // handled after the loop via the reachability of `exit`
                return Err(CheckError::FallsOffEnd);
            }
            succs.push((next, st));
            Ok(())
        };

        match insn.class() {
            BPF_ALU64 => {
                let op = insn.code & 0xf0;
                let x_form = insn.code & BPF_X != 0;
                if insn.dst >= 10 {
                    return Err(CheckError::WriteToFramePtr { pc });
                }
                let mut next = st.clone();
                if op == BPF_MOV {
                    let val = if x_form {
                        match st.regs[insn.src as usize] {
                            AbsVal::Uninit => {
                                return Err(CheckError::UninitRead { pc, reg: insn.src })
                            }
                            v => v,
                        }
                    } else {
                        AbsVal::Scalar(Interval::exact(insn.imm as i64))
                    };
                    next.regs[insn.dst as usize] = val;
                    fallthrough(next, &mut succs, 1)?;
                } else if op == BPF_NEG {
                    let d = read_scalar(&st, insn.dst)?;
                    next.regs[insn.dst as usize] = AbsVal::Scalar(wrap_widen(d.neg()));
                    fallthrough(next, &mut succs, 1)?;
                } else {
                    let d = read_scalar(&st, insn.dst)?;
                    let s = if x_form {
                        read_scalar(&st, insn.src)?
                    } else {
                        Interval::exact(insn.imm as i64)
                    };
                    let result = match op {
                        BPF_ADD => wrap_widen(d.add(s)),
                        BPF_SUB => wrap_widen(d.sub(s)),
                        BPF_MUL => wrap_widen(d.mul(s)),
                        BPF_DIV | BPF_MOD => {
                            if insn.off != SIGNED_DIV_OFF {
                                return Err(CheckError::UnsupportedInsn { pc, code: insn.code });
                            }
                            if s.contains(0) {
                                return Err(CheckError::DivByZero { pc });
                            }
                            if op == BPF_DIV {
                                if d.contains(i64::MIN) && s.contains(-1) {
                                    return Err(CheckError::SdivOverflow { pc });
                                }
                                // overflow excluded: sdiv is exact, no widening
                                d.div(s)
                            } else {
                                // smod never overflows (MIN % -1 == 0)
                                d.rem(s)
                            }
                        }
                        BPF_LSH | BPF_ARSH => {
                            if s.lo < 0 || s.hi > 63 {
                                return Err(CheckError::ShiftOutOfRange { pc, lo: s.lo, hi: s.hi });
                            }
                            if op == BPF_LSH {
                                wrap_widen(d.shl(s))
                            } else {
                                d.shr(s) // arithmetic shift right cannot overflow
                            }
                        }
                        _ => return Err(CheckError::UnsupportedInsn { pc, code: insn.code }),
                    };
                    next.regs[insn.dst as usize] = AbsVal::Scalar(result);
                    fallthrough(next, &mut succs, 1)?;
                }
            }
            BPF_JMP => {
                let op = insn.code & 0xf0;
                match op {
                    BPF_JA => {
                        let t = target(insn.off)?;
                        succs.push((t, st.clone()));
                    }
                    BPF_EXIT => {
                        let r0 = read_scalar(&st, 0)?;
                        r0_out = Some(match r0_out {
                            Some(prev) => prev.join(r0),
                            None => r0,
                        });
                    }
                    _ => {
                        branches += 1;
                        let d = read_scalar(&st, insn.dst)?;
                        let s = if insn.code & BPF_X != 0 {
                            read_scalar(&st, insn.src)?
                        } else {
                            Interval::exact(insn.imm as i64)
                        };
                        let (taken, fall) = match op {
                            BPF_JEQ => (refine_eq(d, s), refine_ne(d, s)),
                            BPF_JNE => (refine_ne(d, s), refine_eq(d, s)),
                            BPF_JSLT => (refine_lt(d, s), refine_ge(d, s)),
                            BPF_JSLE => (refine_le(d, s), refine_gt(d, s)),
                            BPF_JSGT => (refine_gt(d, s), refine_le(d, s)),
                            BPF_JSGE => (refine_ge(d, s), refine_lt(d, s)),
                            _ => return Err(CheckError::UnsupportedInsn { pc, code: insn.code }),
                        };
                        let t = target(insn.off)?;
                        if let Some((rd, rs)) = taken {
                            let mut next = st.clone();
                            next.regs[insn.dst as usize] = AbsVal::Scalar(rd);
                            if insn.code & BPF_X != 0 {
                                next.regs[insn.src as usize] = AbsVal::Scalar(rs);
                            }
                            succs.push((t, next));
                        }
                        if let Some((rd, rs)) = fall {
                            let mut next = st.clone();
                            next.regs[insn.dst as usize] = AbsVal::Scalar(rd);
                            if insn.code & BPF_X != 0 {
                                next.regs[insn.src as usize] = AbsVal::Scalar(rs);
                            }
                            fallthrough(next, &mut succs, 1)?;
                        }
                    }
                }
            }
            BPF_LDX => {
                if insn.code != BPF_LDX | BPF_MEM | BPF_DW {
                    return Err(CheckError::UnsupportedInsn { pc, code: insn.code });
                }
                if insn.dst >= 10 {
                    return Err(CheckError::WriteToFramePtr { pc });
                }
                let mut next = st.clone();
                let loaded = match st.regs[insn.src as usize] {
                    AbsVal::CtxPtr => {
                        let off = insn.off as i64;
                        if off < 0 || off % 8 != 0 {
                            return Err(CheckError::BadMemAccess { pc, detail: "ctx alignment" });
                        }
                        let slot = (off / 8) as usize;
                        match prog.ctx_ranges.get(slot) {
                            Some(&(lo, hi)) => AbsVal::Scalar(Interval::new(lo, hi)),
                            None => {
                                return Err(CheckError::BadMemAccess { pc, detail: "ctx bounds" })
                            }
                        }
                    }
                    AbsVal::FramePtr => {
                        let slot = frame_slot(insn.off, stack_slots)
                            .ok_or(CheckError::BadMemAccess { pc, detail: "frame bounds" })?;
                        match st.stack[slot] {
                            AbsVal::Scalar(iv) => AbsVal::Scalar(iv),
                            _ => return Err(CheckError::UninitStackRead { pc, off: insn.off }),
                        }
                    }
                    AbsVal::Uninit => return Err(CheckError::UninitRead { pc, reg: insn.src }),
                    AbsVal::Scalar(_) => {
                        return Err(CheckError::BadMemAccess { pc, detail: "load via scalar" })
                    }
                };
                next.regs[insn.dst as usize] = loaded;
                fallthrough(next, &mut succs, 1)?;
            }
            BPF_STX => {
                if insn.code != BPF_STX | BPF_MEM | BPF_DW {
                    return Err(CheckError::UnsupportedInsn { pc, code: insn.code });
                }
                match st.regs[insn.dst as usize] {
                    AbsVal::FramePtr => {}
                    AbsVal::CtxPtr => {
                        return Err(CheckError::BadMemAccess { pc, detail: "store to ctx" })
                    }
                    _ => return Err(CheckError::BadMemAccess { pc, detail: "store via scalar" }),
                }
                let val = read_scalar(&st, insn.src)?;
                let slot = frame_slot(insn.off, stack_slots)
                    .ok_or(CheckError::BadMemAccess { pc, detail: "frame bounds" })?;
                let mut next = st.clone();
                next.stack[slot] = AbsVal::Scalar(val);
                fallthrough(next, &mut succs, 1)?;
            }
            BPF_LD => {
                // two-slot LDDW (validated in the pre-scan)
                if insn.dst >= 10 {
                    return Err(CheckError::WriteToFramePtr { pc });
                }
                let hi = prog.insns[pc + 1].imm;
                let v = (insn.imm as u32 as u64 | ((hi as u32 as u64) << 32)) as i64;
                let mut next = st.clone();
                next.regs[insn.dst as usize] = AbsVal::Scalar(Interval::exact(v));
                fallthrough(next, &mut succs, 2)?;
            }
            _ => return Err(CheckError::UnsupportedInsn { pc, code: insn.code }),
        }

        for (t, s) in succs {
            match &mut in_states[t] {
                Some(existing) => existing.join_with(&s),
                slot => *slot = Some(s),
            }
        }
    }

    match r0_out {
        Some(r0) => {
            Ok(CheckStats { insns: n, reachable, branches, stack_slots, r0: (r0.lo, r0.hi) })
        }
        None => Err(CheckError::NoReachableExit),
    }
}

/// Frame offset → slot index: must be `-stack_bytes ≤ off ≤ -8`, 8-aligned.
/// Slot 0 is `[r10 - 8]`.
fn frame_slot(off: i16, stack_slots: usize) -> Option<usize> {
    let off = off as i64;
    if off >= -8 * stack_slots as i64 && off <= -8 && off % 8 == 0 {
        Some((-off / 8 - 1) as usize)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::emit;
    use crate::isa::EbpfInsn;
    use policysmith_dsl::Mode;
    use policysmith_kbpf::CompiledPolicy;

    fn checked(src: &str) -> CheckStats {
        let p = CompiledPolicy::from_source(src, Mode::Kernel).unwrap();
        let prog = emit(p.program(), &p.layout().verify_env()).unwrap();
        model_check(&prog).unwrap_or_else(|err| panic!("{src}: {err}\n{prog}"))
    }

    #[test]
    fn emitted_policies_pass_with_bounded_r0() {
        let stats = checked("if(loss, max(cwnd >> 1, 2), cwnd + max(acked / max(mss, 1), 1))");
        assert!(stats.reachable > 0 && stats.reachable <= stats.insns);
        assert!(stats.branches >= 2);
        assert!(stats.r0.0 > i64::MIN && stats.r0.1 < i64::MAX);
    }

    #[test]
    fn spilled_policies_pass_the_uninit_stack_check() {
        let stats = checked(
            "cwnd + (srtt + (min_rtt + (mss + (acked + (ssthresh + \
             (inflight + (last_rtt + (prev_cwnd + (loss + 1)))))))))",
        );
        assert!(stats.stack_slots > 0, "expected frame usage: {stats:?}");
    }

    #[test]
    fn uninit_frame_read_is_rejected() {
        let prog = EbpfProgram {
            insns: vec![
                EbpfInsn::ldx_dw(0, 10, -8), // load before any store
                EbpfInsn::exit(),
            ],
            ctx_ranges: vec![],
            stack_bytes: 8,
        };
        assert!(matches!(model_check(&prog), Err(CheckError::UninitStackRead { pc: 0, off: -8 })));
    }

    #[test]
    fn backward_jumps_are_rejected() {
        let prog = EbpfProgram {
            insns: vec![EbpfInsn::mov_k(0, 0), EbpfInsn::ja(-2), EbpfInsn::exit()],
            ctx_ranges: vec![],
            stack_bytes: 0,
        };
        assert!(matches!(model_check(&prog), Err(CheckError::BackwardJump { pc: 1 })));
    }

    #[test]
    fn unbounded_divisor_is_rejected() {
        let mut prog = EbpfProgram {
            insns: vec![
                EbpfInsn::mov_x(6, 1),
                EbpfInsn::ldx_dw(0, 6, 0),
                EbpfInsn::ldx_dw(2, 6, 8),
                EbpfInsn::alu_x(BPF_DIV, 0, 2),
                EbpfInsn::exit(),
            ],
            ctx_ranges: vec![(0, 100), (0, 10)], // divisor range includes 0
            stack_bytes: 0,
        };
        prog.insns[3].off = SIGNED_DIV_OFF;
        assert!(matches!(model_check(&prog), Err(CheckError::DivByZero { pc: 3 })));
        // tightening the declared range clears it
        prog.ctx_ranges[1] = (1, 10);
        model_check(&prog).unwrap();
    }

    #[test]
    fn clamp_sequence_proves_the_shift_amount() {
        // Mirrors the emitter's clamp: an unbounded amount in r2 is
        // clamped to [0, 63] purely via branch refinement.
        let prog = EbpfProgram {
            insns: vec![
                EbpfInsn::mov_x(6, 1),
                EbpfInsn::ldx_dw(0, 6, 0),
                EbpfInsn::ldx_dw(2, 6, 8),
                EbpfInsn::jmp_k(BPF_JSGE, 2, 0, 1),
                EbpfInsn::mov_k(2, 0),
                EbpfInsn::jmp_k(BPF_JSLE, 2, 63, 1),
                EbpfInsn::mov_k(2, 63),
                EbpfInsn::alu_x(BPF_ARSH, 0, 2),
                EbpfInsn::exit(),
            ],
            ctx_ranges: vec![(0, 100), (i64::MIN, i64::MAX)],
            stack_bytes: 0,
        };
        model_check(&prog).unwrap();

        // Without the clamp the same shift is rejected.
        let bare = EbpfProgram {
            insns: vec![
                EbpfInsn::mov_x(6, 1),
                EbpfInsn::ldx_dw(0, 6, 0),
                EbpfInsn::ldx_dw(2, 6, 8),
                EbpfInsn::alu_x(BPF_ARSH, 0, 2),
                EbpfInsn::exit(),
            ],
            ctx_ranges: vec![(0, 100), (i64::MIN, i64::MAX)],
            stack_bytes: 0,
        };
        assert!(matches!(model_check(&bare), Err(CheckError::ShiftOutOfRange { pc: 3, .. })));
    }

    #[test]
    fn pointer_arithmetic_is_rejected() {
        let prog = EbpfProgram {
            insns: vec![
                EbpfInsn::alu_k(BPF_ADD, 1, 8), // r1 is CtxPtr
                EbpfInsn::mov_k(0, 0),
                EbpfInsn::exit(),
            ],
            ctx_ranges: vec![],
            stack_bytes: 0,
        };
        assert!(matches!(model_check(&prog), Err(CheckError::NotScalar { pc: 0, reg: 1 })));
    }

    #[test]
    fn exit_requires_a_scalar_r0() {
        let prog =
            EbpfProgram { insns: vec![EbpfInsn::exit()], ctx_ranges: vec![], stack_bytes: 0 };
        assert!(matches!(model_check(&prog), Err(CheckError::UninitRead { pc: 0, reg: 0 })));
    }

    #[test]
    fn falling_off_the_end_is_rejected() {
        let prog =
            EbpfProgram { insns: vec![EbpfInsn::mov_k(0, 1)], ctx_ranges: vec![], stack_bytes: 0 };
        assert!(matches!(model_check(&prog), Err(CheckError::FallsOffEnd)));
    }

    #[test]
    fn errors_render_via_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(CheckError::DivByZero { pc: 7 });
        assert!(e.to_string().contains("insn 7"));
    }
}
