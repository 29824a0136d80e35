//! The kbpf virtual machine.
//!
//! Executes a program against a read-only context array and a mutable
//! scratch map, returning `r0`. Semantics match the DSL interpreter
//! ([`policysmith_dsl::eval()`]) exactly — saturating `+ - *`, clamped
//! shifts, faulting division — which is property-tested in
//! `tests/equivalence.rs`.
//!
//! The VM defends itself even against unverified programs (fuel counter,
//! bounds checks, runtime division guard): in the framework only verified
//! programs are ever attached, but the evaluation harness runs candidate
//! code in-process, so the VM must be a safety net rather than trust the
//! caller — the same belt-and-suspenders posture as the kernel.

use crate::isa::{Op, Program, REG_COUNT};
use policysmith_dsl::eval::{div_sat, rem_sat, shl_sat, shr_arith};
use std::fmt;

/// Runtime faults. A verified program can only ever fault with
/// [`VmError::OutOfFuel`] if the caller passes less fuel than instructions
/// — the default budget makes all faults unreachable post-verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Division or remainder by zero at `pc`.
    DivByZero { pc: usize },
    /// Jump or fallthrough left the program text.
    PcOutOfBounds { pc: usize },
    /// Context read out of bounds.
    CtxOutOfBounds { pc: usize, slot: i64 },
    /// Map access out of bounds.
    MapOutOfBounds { pc: usize, slot: i64 },
    /// Instruction budget exhausted (cannot happen for verified, loop-free
    /// programs with the default budget).
    OutOfFuel,
    /// Register number out of range (unverified program).
    BadRegister { pc: usize, reg: u8 },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::DivByZero { pc } => write!(f, "vm: division by zero at insn {pc}"),
            VmError::PcOutOfBounds { pc } => write!(f, "vm: pc {pc} out of bounds"),
            VmError::CtxOutOfBounds { pc, slot } => {
                write!(f, "vm: ctx[{slot}] out of bounds at insn {pc}")
            }
            VmError::MapOutOfBounds { pc, slot } => {
                write!(f, "vm: map[{slot}] out of bounds at insn {pc}")
            }
            VmError::OutOfFuel => write!(f, "vm: instruction budget exhausted"),
            VmError::BadRegister { pc, reg } => write!(f, "vm: bad register r{reg} at insn {pc}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Execute `prog` and return `r0` at `exit`.
///
/// * `ctx` — read-only feature array (the harness builds it from the
///   connection state each `cong_control` invocation).
/// * `map` — persistent scratch storage; compiled expressions use it only
///   for spills, but hand-written programs may keep state across calls.
pub fn execute(prog: &Program, ctx: &[i64], map: &mut [i64]) -> Result<i64, VmError> {
    execute_with_fuel(prog, ctx, map, prog.len().max(1))
}

/// Execute with an explicit instruction budget.
pub fn execute_with_fuel(
    prog: &Program,
    ctx: &[i64],
    map: &mut [i64],
    mut fuel: usize,
) -> Result<i64, VmError> {
    let mut regs = [0i64; REG_COUNT as usize];
    let mut pc: usize = 0;
    loop {
        if fuel == 0 {
            return Err(VmError::OutOfFuel);
        }
        fuel -= 1;
        let insn = *prog.insns.get(pc).ok_or(VmError::PcOutOfBounds { pc })?;
        if insn.dst >= REG_COUNT {
            return Err(VmError::BadRegister { pc, reg: insn.dst });
        }
        if insn.op.reads_src() && insn.src >= REG_COUNT {
            return Err(VmError::BadRegister { pc, reg: insn.src });
        }
        let d = regs[insn.dst as usize];
        // the second operand, in whichever form the op takes it
        let b = if insn.op.reads_src() { regs[insn.src as usize] } else { insn.imm };
        use Op::*;
        match insn.op {
            MovImm | MovReg => regs[insn.dst as usize] = b,
            AddImm | AddReg => regs[insn.dst as usize] = d.saturating_add(b),
            SubImm | SubReg => regs[insn.dst as usize] = d.saturating_sub(b),
            MulImm | MulReg => regs[insn.dst as usize] = d.saturating_mul(b),
            DivImm | DivReg | RemImm | RemReg => {
                if b == 0 {
                    return Err(VmError::DivByZero { pc });
                }
                regs[insn.dst as usize] =
                    if matches!(insn.op, DivImm | DivReg) { div_sat(d, b) } else { rem_sat(d, b) };
            }
            Neg => regs[insn.dst as usize] = d.saturating_neg(),
            LshImm | LshReg => regs[insn.dst as usize] = shl_sat(d, b),
            RshImm | RshReg => regs[insn.dst as usize] = shr_arith(d, b),
            Ja => {
                pc = jump_target(pc, insn.off);
                continue;
            }
            JeqImm | JeqReg | JneImm | JneReg | JltImm | JltReg | JleImm | JleReg | JgtImm
            | JgtReg | JgeImm | JgeReg => {
                let cond = match insn.op {
                    JeqImm | JeqReg => d == b,
                    JneImm | JneReg => d != b,
                    JltImm | JltReg => d < b,
                    JleImm | JleReg => d <= b,
                    JgtImm | JgtReg => d > b,
                    JgeImm | JgeReg => d >= b,
                    _ => unreachable!(),
                };
                if cond {
                    pc = jump_target(pc, insn.off);
                    continue;
                }
            }
            LdCtx => {
                let slot = insn.imm;
                let v = usize::try_from(slot)
                    .ok()
                    .and_then(|idx| ctx.get(idx))
                    .ok_or(VmError::CtxOutOfBounds { pc, slot })?;
                regs[insn.dst as usize] = *v;
            }
            LdMap => {
                let slot = insn.imm;
                let v = usize::try_from(slot)
                    .ok()
                    .and_then(|idx| map.get(idx))
                    .ok_or(VmError::MapOutOfBounds { pc, slot })?;
                regs[insn.dst as usize] = *v;
            }
            StMap => {
                let slot = insn.imm;
                let cell = usize::try_from(slot)
                    .ok()
                    .and_then(|idx| map.get_mut(idx))
                    .ok_or(VmError::MapOutOfBounds { pc, slot })?;
                *cell = b;
            }
            Exit => return Ok(regs[0]),
        }
        pc += 1;
    }
}

/// Execute a program that already passed the structural verifier — the
/// compile-once hot path. Compared to [`execute`] this drops the fuel
/// counter (forward-only jumps terminate by construction), the per-insn
/// register validation, and the per-insn fault plumbing; the only
/// remaining error is the runtime division guard, reachable solely for
/// userspace programs the pipeline marked `may_fault`.
///
/// This is a second copy of the ISA semantics and MUST stay in step with
/// [`execute`]: any opcode or semantics change lands in both. The
/// equivalence property suite (`tests/equivalence.rs`) cross-checks the
/// two loops (result *and* scratch-map state) on hundreds of random
/// compiled programs per run, so a divergence fails CI immediately.
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

fn jump_target(pc: usize, off: i32) -> usize {
    // Saturate rather than wrap: a bogus target is caught by the pc bounds
    // check on the next iteration.
    (pc as i64 + 1 + off as i64).max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Insn, Op, Program};

    fn i(op: Op, dst: u8, src: u8, imm: i64) -> Insn {
        Insn::new(op, dst, src, imm)
    }

    fn j(op: Op, dst: u8, src: u8, imm: i64, off: i32) -> Insn {
        Insn { op, dst, src, imm, off }
    }

    fn run(insns: Vec<Insn>, ctx: &[i64]) -> Result<i64, VmError> {
        let mut map = [0i64; 8];
        execute(&Program { insns }, ctx, &mut map)
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
        // an unverified program may carry any byte in a field its op ignores
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
        let r = run(vec![i(Op::LdCtx, 0, 0, 9), i(Op::Exit, 0, 0, 0)], &[10]);
        assert_eq!(r, Err(VmError::CtxOutOfBounds { pc: 0, slot: 9 }));
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
        assert_eq!(execute(&p, &[], &mut map), Ok(77));
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
        let p = Program { insns: vec![i(Op::MovImm, 0, 0, 1), i(Op::Exit, 0, 0, 0)] };
        let mut map = [];
        assert_eq!(execute_with_fuel(&p, &[], &mut map, 1), Err(VmError::OutOfFuel));
        assert_eq!(execute_with_fuel(&p, &[], &mut map, 2), Ok(1));
    }

    #[test]
    fn default_fuel_suffices_for_loop_free() {
        // Straight-line program of length n executes at most n insns.
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
        let mut map = [];
        assert!(matches!(
            execute_with_fuel(&p, &[], &mut map, 10),
            Err(VmError::PcOutOfBounds { .. })
        ));
    }

    #[test]
    fn verified_fast_path_agrees_with_the_defensive_interpreter() {
        // a branchy program exercising ALU, jumps, ctx, and map
        let insns = vec![
            i(Op::LdCtx, 1, 0, 0),
            i(Op::MovImm, 2, 0, 10),
            j(Op::JgtReg, 1, 2, 0, 2),
            i(Op::MovImm, 0, 0, 7),
            j(Op::Ja, 0, 0, 0, 3),
            i(Op::MulImm, 1, 0, 3),
            i(Op::StMap, 0, 1, 2),
            i(Op::LdMap, 0, 0, 2),
            i(Op::Exit, 0, 0, 0),
        ];
        let p = Program { insns };
        for c in [0i64, 11, 100] {
            let mut m1 = [0i64; 8];
            let mut m2 = [0i64; 8];
            assert_eq!(execute(&p, &[c], &mut m1), execute_verified(&p, &[c], &mut m2));
            assert_eq!(m1, m2);
        }
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
