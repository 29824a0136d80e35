//! The kbpf virtual machine.
//!
//! [`execute_verified`] runs a program the verifier accepted against a
//! read-only context array and a mutable scratch map, returning `r0`.
//! Semantics match the DSL interpreter ([`policysmith_dsl::eval()`])
//! exactly — saturating `+ - *`, clamped shifts, faulting division.
//!
//! It is the one interpreter of the ISA in the crate, and it trusts the
//! verifier: forward-only jumps end every run, and register numbers and
//! ctx/map slots were checked once, so the loop re-checks none of them.
//! The one fault left is a division by zero, which a
//! [`MayFault`](crate::Verification::MayFault) program can reach.
//! `tests/equivalence.rs` holds it to the DSL interpreter and to the
//! reference stepper in `tests/stepper/`, result and scratch map, and
//! `tests/containment.rs` to the stepper on the whole `MockLlm` corpus.

use crate::isa::{Op, Program};
use policysmith_dsl::eval::{div_sat, rem_sat, shl_sat, shr_arith};
use std::fmt;

/// A runtime fault. Verification leaves only one reachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Division or remainder by zero at `pc`.
    DivByZero { pc: usize },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::DivByZero { pc } => write!(f, "vm: division by zero at insn {pc}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Execute a program that passed the verifier and return `r0` at its
/// `exit` — the compile-once hot path.
///
/// * `ctx` — read-only feature array, laid out as the program was
///   verified against;
/// * `map` — persistent scratch storage; compiled expressions use it only
///   for spills.
///
/// There is no fuel counter and no per-instruction validation: the only
/// error is the runtime division guard, reachable solely for userspace
/// programs the pipeline marked `may_fault`.
///
/// # Panics
/// If the program never passed the verifier, or `ctx`/`map` are smaller
/// than the sizes it was verified against (a caller contract violation,
/// surfaced by the slice bounds checks).
pub fn execute_verified(prog: &Program, ctx: &[i64], map: &mut [i64]) -> Result<i64, VmError> {
    let insns = prog.insns.as_slice();
    // 16-slot register file with masked indexing: the verifier proved every
    // register number < REG_COUNT (= 11), so the mask is semantically a
    // no-op — it exists purely to let the compiler elide bounds checks.
    let mut regs = [0i64; 16];
    let mut pc: usize = 0;
    macro_rules! dst {
        ($insn:expr) => {
            regs[($insn.dst & 15) as usize]
        };
    }
    macro_rules! src {
        ($insn:expr) => {
            regs[($insn.src & 15) as usize]
        };
    }
    macro_rules! jump_if {
        ($insn:expr, $cond:expr) => {
            if $cond {
                pc = pc + 1 + $insn.off as usize;
                continue;
            }
        };
    }
    loop {
        let insn = &insns[pc];
        use Op::*;
        match insn.op {
            MovImm => dst!(insn) = insn.imm,
            MovReg => dst!(insn) = src!(insn),
            AddImm => dst!(insn) = dst!(insn).saturating_add(insn.imm),
            AddReg => dst!(insn) = dst!(insn).saturating_add(src!(insn)),
            SubImm => dst!(insn) = dst!(insn).saturating_sub(insn.imm),
            SubReg => dst!(insn) = dst!(insn).saturating_sub(src!(insn)),
            MulImm => dst!(insn) = dst!(insn).saturating_mul(insn.imm),
            MulReg => dst!(insn) = dst!(insn).saturating_mul(src!(insn)),
            DivImm => {
                if insn.imm == 0 {
                    return Err(VmError::DivByZero { pc });
                }
                dst!(insn) = div_sat(dst!(insn), insn.imm);
            }
            DivReg => {
                let b = src!(insn);
                if b == 0 {
                    return Err(VmError::DivByZero { pc });
                }
                dst!(insn) = div_sat(dst!(insn), b);
            }
            RemImm => {
                if insn.imm == 0 {
                    return Err(VmError::DivByZero { pc });
                }
                dst!(insn) = rem_sat(dst!(insn), insn.imm);
            }
            RemReg => {
                let b = src!(insn);
                if b == 0 {
                    return Err(VmError::DivByZero { pc });
                }
                dst!(insn) = rem_sat(dst!(insn), b);
            }
            Neg => dst!(insn) = dst!(insn).saturating_neg(),
            LshImm => dst!(insn) = shl_sat(dst!(insn), insn.imm),
            LshReg => dst!(insn) = shl_sat(dst!(insn), src!(insn)),
            RshImm => dst!(insn) = shr_arith(dst!(insn), insn.imm),
            RshReg => dst!(insn) = shr_arith(dst!(insn), src!(insn)),
            Ja => {
                pc = pc + 1 + insn.off as usize;
                continue;
            }
            JeqImm => jump_if!(insn, dst!(insn) == insn.imm),
            JeqReg => jump_if!(insn, dst!(insn) == src!(insn)),
            JneImm => jump_if!(insn, dst!(insn) != insn.imm),
            JneReg => jump_if!(insn, dst!(insn) != src!(insn)),
            JltImm => jump_if!(insn, dst!(insn) < insn.imm),
            JltReg => jump_if!(insn, dst!(insn) < src!(insn)),
            JleImm => jump_if!(insn, dst!(insn) <= insn.imm),
            JleReg => jump_if!(insn, dst!(insn) <= src!(insn)),
            JgtImm => jump_if!(insn, dst!(insn) > insn.imm),
            JgtReg => jump_if!(insn, dst!(insn) > src!(insn)),
            JgeImm => jump_if!(insn, dst!(insn) >= insn.imm),
            JgeReg => jump_if!(insn, dst!(insn) >= src!(insn)),
            LdCtx => dst!(insn) = ctx[insn.imm as usize],
            LdMap => dst!(insn) = map[insn.imm as usize],
            StMap => map[insn.imm as usize] = src!(insn),
            Exit => return Ok(regs[0]),
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Insn, Op, Program};
    use crate::verifier::{verify, VerifyEnv, VerifyError};

    fn i(op: Op, dst: u8, src: u8, imm: i64) -> Insn {
        Insn::new(op, dst, src, imm)
    }

    fn j(op: Op, dst: u8, src: u8, imm: i64, off: i32) -> Insn {
        Insn { op, dst, src, imm, off }
    }

    fn run(insns: Vec<Insn>, ctx: &[i64]) -> Result<i64, VmError> {
        let mut map = [0i64; 8];
        execute_verified(&Program { insns }, ctx, &mut map)
    }

    #[test]
    fn arithmetic_and_exit() {
        let r = run(
            vec![
                i(Op::MovImm, 0, 0, 10),
                i(Op::AddImm, 0, 0, 5),
                i(Op::MulImm, 0, 0, 2),
                i(Op::SubImm, 0, 0, 3),
                i(Op::Exit, 0, 0, 0),
            ],
            &[],
        );
        assert_eq!(r, Ok(27));
    }

    #[test]
    fn saturating_semantics() {
        let r = run(
            vec![i(Op::MovImm, 0, 0, i64::MAX), i(Op::AddImm, 0, 0, 1), i(Op::Exit, 0, 0, 0)],
            &[],
        );
        assert_eq!(r, Ok(i64::MAX));
        let r = run(
            vec![i(Op::MovImm, 0, 0, i64::MIN), i(Op::DivImm, 0, 0, -1), i(Op::Exit, 0, 0, 0)],
            &[],
        );
        assert_eq!(r, Ok(i64::MAX));
    }

    #[test]
    fn division_guard() {
        let r =
            run(vec![i(Op::MovImm, 0, 0, 5), i(Op::DivImm, 0, 0, 0), i(Op::Exit, 0, 0, 0)], &[]);
        assert_eq!(r, Err(VmError::DivByZero { pc: 1 }));
    }

    #[test]
    fn immediate_forms_never_read_the_src_field() {
        // the verifier lets a field its op ignores carry any byte
        let r = run(
            vec![i(Op::MovImm, 0, 200, 7), j(Op::JeqImm, 0, 255, 7, 0), i(Op::Exit, 0, 99, 0)],
            &[],
        );
        assert_eq!(r, Ok(7));
    }

    #[test]
    fn ctx_loads() {
        let r = run(vec![i(Op::LdCtx, 0, 0, 2), i(Op::Exit, 0, 0, 0)], &[10, 20, 30]);
        assert_eq!(r, Ok(30));
    }

    #[test]
    fn map_roundtrip() {
        let p = Program {
            insns: vec![
                i(Op::MovImm, 1, 0, 77),
                i(Op::StMap, 0, 1, 3),
                i(Op::LdMap, 0, 0, 3),
                i(Op::Exit, 0, 0, 0),
            ],
        };
        let mut map = [0i64; 8];
        assert_eq!(execute_verified(&p, &[], &mut map), Ok(77));
        assert_eq!(map[3], 77);
    }

    #[test]
    fn branches() {
        // r0 = (ctx[0] > 5) ? 100 : 200
        let mk = |c: i64| {
            run(
                vec![
                    i(Op::LdCtx, 1, 0, 0),
                    j(Op::JgtImm, 1, 0, 5, 2),
                    i(Op::MovImm, 0, 0, 200),
                    j(Op::Ja, 0, 0, 0, 1),
                    i(Op::MovImm, 0, 0, 100),
                    i(Op::Exit, 0, 0, 0),
                ],
                &[c],
            )
        };
        assert_eq!(mk(9), Ok(100));
        assert_eq!(mk(3), Ok(200));
        assert_eq!(mk(5), Ok(200));
    }

    #[test]
    fn fuel_exhaustion() {
        // nothing needs fuel: a loop never reaches the VM
        let p = Program { insns: vec![i(Op::MovImm, 0, 0, 1), j(Op::Ja, 0, 0, 0, -2)] };
        assert_eq!(
            verify(&p, &VerifyEnv::opaque(0, 0)),
            Err(VerifyError::BackEdge { pc: 1, target: 0 })
        );
    }

    #[test]
    fn default_fuel_suffices_for_loop_free() {
        // a straight-line program runs each of its instructions once
        let mut insns = vec![i(Op::MovImm, 0, 0, 0)];
        for k in 0..100 {
            insns.push(i(Op::AddImm, 0, 0, k));
        }
        insns.push(i(Op::Exit, 0, 0, 0));
        assert_eq!(run(insns, &[]), Ok((0..100).sum::<i64>()));
    }

    #[test]
    fn pc_escape_caught() {
        let p = Program { insns: vec![j(Op::Ja, 0, 0, 0, 50)] };
        assert_eq!(
            verify(&p, &VerifyEnv::opaque(0, 0)),
            Err(VerifyError::JumpOutOfBounds { pc: 0, target: 51 })
        );
    }

    #[test]
    fn verified_fast_path_keeps_the_division_guard() {
        let p = Program {
            insns: vec![
                i(Op::MovImm, 0, 0, 5),
                i(Op::LdCtx, 1, 0, 0),
                i(Op::DivReg, 0, 1, 0),
                i(Op::Exit, 0, 0, 0),
            ],
        };
        let mut map = [0i64; 1];
        assert_eq!(execute_verified(&p, &[0], &mut map), Err(VmError::DivByZero { pc: 2 }));
        assert_eq!(execute_verified(&p, &[2], &mut map), Ok(2));
    }

    #[test]
    fn shifts_match_dsl_semantics() {
        let r =
            run(vec![i(Op::MovImm, 0, 0, 1), i(Op::LshImm, 0, 0, 100), i(Op::Exit, 0, 0, 0)], &[]);
        assert_eq!(r, Ok(i64::MAX)); // clamped to 63, saturating
        let r =
            run(vec![i(Op::MovImm, 0, 0, -16), i(Op::RshImm, 0, 0, 2), i(Op::Exit, 0, 0, 0)], &[]);
        assert_eq!(r, Ok(-4));
    }
}
