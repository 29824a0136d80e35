//! Emulated execution of emitted eBPF — the "kernel side" of the
//! struct_ops harness, minus the kernel.
//!
//! [`run`] interprets instruction slots exactly as a JIT-less kernel
//! would execute them: **wrapping** two's-complement ALU, hardware shift
//! masking (`amount & 63`), a fresh 512-byte-max stack frame per
//! invocation, and a read-only context pointer in `r1`. This is the
//! execution model the differential tests pit against the kbpf VM: the
//! emitter's saturation gate claims the two agree decision-for-decision,
//! and this interpreter is what makes that claim falsifiable.
//!
//! One deliberate divergence from silicon: division or modulus by zero
//! **faults** here instead of producing the kernel's defined `0`/`dst`
//! result. The fault is unreachable for model-checked programs (the
//! divisor interval excludes zero), and keeping it as an error preserves
//! fidelity with the host-side fault latching in `KbpfCc` — a divide
//! fault in either engine must trip the same fallback path.

use crate::isa::{
    EbpfProgram, BPF_ADD, BPF_ALU64, BPF_ARSH, BPF_DIV, BPF_DW, BPF_EXIT, BPF_JA, BPF_JEQ, BPF_JMP,
    BPF_JNE, BPF_JSGE, BPF_JSGT, BPF_JSLE, BPF_JSLT, BPF_LD, BPF_LDX, BPF_LSH, BPF_MEM, BPF_MOD,
    BPF_MOV, BPF_MUL, BPF_NEG, BPF_STX, BPF_SUB, BPF_X,
};
use std::fmt;

/// Runtime fault during emulated execution. Model-checked programs can
/// only hit [`EbpfVmError::DivByZero`], and only when the host feeds
/// context values outside the declared ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EbpfVmError {
    /// `sdiv`/`smod` with a zero divisor (see module docs).
    DivByZero { pc: usize },
    /// Read of a never-written register.
    UninitRead { pc: usize, reg: u8 },
    /// Load from a frame slot before any store.
    UninitStackRead { pc: usize, off: i16 },
    /// Out-of-bounds or wrong-base memory access.
    BadMemAccess { pc: usize },
    /// Context slot beyond the supplied context array.
    CtxOutOfBounds { pc: usize, slot: usize },
    /// Jump outside the program.
    BadJump { pc: usize },
    /// Opcode outside the emitted subset.
    UnsupportedInsn { pc: usize, code: u8 },
    /// Executed more slots than the program has — impossible for
    /// forward-jump programs, kept as a defensive backstop.
    OutOfFuel,
    /// Control flow ran off the end without `exit`.
    FellOffEnd,
}

impl fmt::Display for EbpfVmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EbpfVmError::DivByZero { pc } => write!(f, "ebpf-vm: insn {pc}: division by zero"),
            EbpfVmError::UninitRead { pc, reg } => {
                write!(f, "ebpf-vm: insn {pc}: r{reg} read uninitialized")
            }
            EbpfVmError::UninitStackRead { pc, off } => {
                write!(f, "ebpf-vm: insn {pc}: frame slot [r10{off:+}] read uninitialized")
            }
            EbpfVmError::BadMemAccess { pc } => write!(f, "ebpf-vm: insn {pc}: bad memory access"),
            EbpfVmError::CtxOutOfBounds { pc, slot } => {
                write!(f, "ebpf-vm: insn {pc}: context slot {slot} out of bounds")
            }
            EbpfVmError::BadJump { pc } => write!(f, "ebpf-vm: insn {pc}: jump out of range"),
            EbpfVmError::UnsupportedInsn { pc, code } => {
                write!(f, "ebpf-vm: insn {pc}: unsupported opcode {code:#04x}")
            }
            EbpfVmError::OutOfFuel => write!(f, "ebpf-vm: out of fuel"),
            EbpfVmError::FellOffEnd => write!(f, "ebpf-vm: fell off the end of the program"),
        }
    }
}

impl std::error::Error for EbpfVmError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    Uninit,
    Scalar(i64),
    CtxPtr,
    FramePtr,
}

/// Execute an emitted program against a context array (one `i64` per
/// 8-byte slot, matching the `CtxLayout` ABI). Returns `r0`.
pub fn run(prog: &EbpfProgram, ctx: &[i64]) -> Result<i64, EbpfVmError> {
    let n = prog.insns.len();
    let mut regs = [Val::Uninit; 11];
    regs[1] = Val::CtxPtr;
    regs[10] = Val::FramePtr;
    let stack_slots = prog.stack_bytes / 8;
    let mut stack: Vec<Option<i64>> = vec![None; stack_slots];

    let mut pc = 0usize;
    // Forward-only control flow executes each slot at most once.
    let mut fuel = n + 1;

    while pc < n {
        if fuel == 0 {
            return Err(EbpfVmError::OutOfFuel);
        }
        fuel -= 1;
        let insn = prog.insns[pc];
        if insn.dst > 10 || insn.src > 10 {
            return Err(EbpfVmError::UnsupportedInsn { pc, code: insn.code });
        }
        let scalar = |regs: &[Val; 11], reg: u8| -> Result<i64, EbpfVmError> {
            match regs[reg as usize] {
                Val::Scalar(v) => Ok(v),
                Val::Uninit => Err(EbpfVmError::UninitRead { pc, reg }),
                _ => Err(EbpfVmError::BadMemAccess { pc }),
            }
        };
        let jump_to = |pc: usize, off: i16| -> Result<usize, EbpfVmError> {
            let t = pc as i64 + 1 + off as i64;
            if t < 0 || t as usize > n {
                return Err(EbpfVmError::BadJump { pc });
            }
            Ok(t as usize)
        };

        match insn.class() {
            BPF_ALU64 => {
                let op = insn.code & 0xf0;
                if op == BPF_MOV {
                    regs[insn.dst as usize] = if insn.code & BPF_X != 0 {
                        match regs[insn.src as usize] {
                            Val::Uninit => {
                                return Err(EbpfVmError::UninitRead { pc, reg: insn.src })
                            }
                            v => v,
                        }
                    } else {
                        Val::Scalar(insn.imm as i64)
                    };
                } else if op == BPF_NEG {
                    let d = scalar(&regs, insn.dst)?;
                    regs[insn.dst as usize] = Val::Scalar(d.wrapping_neg());
                } else {
                    let d = scalar(&regs, insn.dst)?;
                    let s = if insn.code & BPF_X != 0 {
                        scalar(&regs, insn.src)?
                    } else {
                        insn.imm as i64
                    };
                    let v = match op {
                        BPF_ADD => d.wrapping_add(s),
                        BPF_SUB => d.wrapping_sub(s),
                        BPF_MUL => d.wrapping_mul(s),
                        BPF_DIV => {
                            if s == 0 {
                                return Err(EbpfVmError::DivByZero { pc });
                            }
                            d.wrapping_div(s)
                        }
                        BPF_MOD => {
                            if s == 0 {
                                return Err(EbpfVmError::DivByZero { pc });
                            }
                            d.wrapping_rem(s)
                        }
                        BPF_LSH => d.wrapping_shl((s & 63) as u32),
                        BPF_ARSH => d.wrapping_shr((s & 63) as u32),
                        _ => return Err(EbpfVmError::UnsupportedInsn { pc, code: insn.code }),
                    };
                    regs[insn.dst as usize] = Val::Scalar(v);
                }
                pc += 1;
            }
            BPF_JMP => {
                let op = insn.code & 0xf0;
                match op {
                    BPF_JA => pc = jump_to(pc, insn.off)?,
                    BPF_EXIT => return scalar(&regs, 0),
                    _ => {
                        let d = scalar(&regs, insn.dst)?;
                        let s = if insn.code & BPF_X != 0 {
                            scalar(&regs, insn.src)?
                        } else {
                            insn.imm as i64
                        };
                        let taken = match op {
                            BPF_JEQ => d == s,
                            BPF_JNE => d != s,
                            BPF_JSLT => d < s,
                            BPF_JSLE => d <= s,
                            BPF_JSGT => d > s,
                            BPF_JSGE => d >= s,
                            _ => return Err(EbpfVmError::UnsupportedInsn { pc, code: insn.code }),
                        };
                        pc = if taken { jump_to(pc, insn.off)? } else { pc + 1 };
                    }
                }
            }
            BPF_LDX => {
                if insn.code != BPF_LDX | BPF_MEM | BPF_DW {
                    return Err(EbpfVmError::UnsupportedInsn { pc, code: insn.code });
                }
                let v = match regs[insn.src as usize] {
                    Val::CtxPtr => {
                        let off = insn.off as i64;
                        if off < 0 || off % 8 != 0 {
                            return Err(EbpfVmError::BadMemAccess { pc });
                        }
                        let slot = (off / 8) as usize;
                        *ctx.get(slot).ok_or(EbpfVmError::CtxOutOfBounds { pc, slot })?
                    }
                    Val::FramePtr => {
                        let slot = frame_slot(insn.off, stack_slots)
                            .ok_or(EbpfVmError::BadMemAccess { pc })?;
                        stack[slot].ok_or(EbpfVmError::UninitStackRead { pc, off: insn.off })?
                    }
                    Val::Uninit => return Err(EbpfVmError::UninitRead { pc, reg: insn.src }),
                    Val::Scalar(_) => return Err(EbpfVmError::BadMemAccess { pc }),
                };
                regs[insn.dst as usize] = Val::Scalar(v);
                pc += 1;
            }
            BPF_STX => {
                if insn.code != BPF_STX | BPF_MEM | BPF_DW {
                    return Err(EbpfVmError::UnsupportedInsn { pc, code: insn.code });
                }
                if regs[insn.dst as usize] != Val::FramePtr {
                    return Err(EbpfVmError::BadMemAccess { pc });
                }
                let v = scalar(&regs, insn.src)?;
                let slot =
                    frame_slot(insn.off, stack_slots).ok_or(EbpfVmError::BadMemAccess { pc })?;
                stack[slot] = Some(v);
                pc += 1;
            }
            BPF_LD => {
                if insn.code != BPF_LD | crate::isa::BPF_IMM | BPF_DW
                    || pc + 1 >= n
                    || prog.insns[pc + 1].code != 0
                {
                    return Err(EbpfVmError::UnsupportedInsn { pc, code: insn.code });
                }
                let hi = prog.insns[pc + 1].imm;
                let v = (insn.imm as u32 as u64 | ((hi as u32 as u64) << 32)) as i64;
                regs[insn.dst as usize] = Val::Scalar(v);
                pc += 2;
            }
            _ => return Err(EbpfVmError::UnsupportedInsn { pc, code: insn.code }),
        }
    }
    Err(EbpfVmError::FellOffEnd)
}

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

    /// Emit a policy and check the eBPF interpreter agrees with the kbpf
    /// VM slot-for-slot over a grid of context values.
    fn assert_agrees(src: &str, grid: &[i64]) {
        let p = CompiledPolicy::from_source(src, Mode::Kernel).unwrap();
        let prog = emit(p.program(), &p.layout().verify_env()).unwrap();
        let n = p.layout().verify_env().ctx_ranges.len();
        let mut map = vec![0i64; policysmith_kbpf::SPILL_SLOTS];
        for &base in grid {
            let mut ctx: Vec<i64> = (0..n as i64).map(|k| base + k).collect();
            // clamp into declared ranges, as hosts do
            for (v, &(lo, hi)) in ctx.iter_mut().zip(&p.layout().verify_env().ctx_ranges) {
                *v = (*v).clamp(lo, hi);
            }
            let vm = p.run(&ctx, &mut map).unwrap();
            let eb = run(&prog, &ctx).unwrap();
            assert_eq!(vm, eb, "{src} diverged at base {base}: vm={vm} ebpf={eb}");
        }
    }

    #[test]
    fn emitted_policies_match_the_kbpf_vm() {
        let grid = [0, 1, 2, 7, 100, 1 << 14, (1 << 20) - 3];
        assert_agrees("if(loss, max(cwnd >> 1, 2), cwnd + 1)", &grid);
        assert_agrees("if(loss, max(cwnd >> 1, 2), cwnd + max(acked / max(mss, 1), 1))", &grid);
        assert_agrees("clamp(cwnd * srtt / max(min_rtt, 1), 2, 1024)", &grid);
        assert_agrees("min(cwnd + acked / max(mss, 1), 4096)", &grid);
    }

    #[test]
    fn spilled_registers_round_trip_through_the_frame() {
        assert_agrees(
            "cwnd + (srtt + (min_rtt + (mss + (acked + (ssthresh + \
             (inflight + (last_rtt + (prev_cwnd + (loss + 1)))))))))",
            &[0, 5, 999],
        );
    }

    #[test]
    fn division_by_zero_faults() {
        let mut prog = EbpfProgram {
            insns: vec![
                EbpfInsn::mov_k(0, 7),
                EbpfInsn::mov_k(2, 0),
                EbpfInsn::alu_x(BPF_DIV, 0, 2),
                EbpfInsn::exit(),
            ],
            ctx_ranges: vec![],
            stack_bytes: 0,
        };
        prog.insns[2].off = crate::isa::SIGNED_DIV_OFF;
        assert_eq!(run(&prog, &[]), Err(EbpfVmError::DivByZero { pc: 2 }));
    }

    #[test]
    fn uninit_register_read_faults() {
        let prog =
            EbpfProgram { insns: vec![EbpfInsn::exit()], ctx_ranges: vec![], stack_bytes: 0 };
        assert_eq!(run(&prog, &[]), Err(EbpfVmError::UninitRead { pc: 0, reg: 0 }));
    }

    #[test]
    fn wide_immediates_execute() {
        let v = (1i64 << 40) | 5;
        let mut insns = EbpfInsn::lddw(0, v).to_vec();
        insns.push(EbpfInsn::exit());
        let prog = EbpfProgram { insns, ctx_ranges: vec![], stack_bytes: 0 };
        assert_eq!(run(&prog, &[]), Ok(v));
    }
}
