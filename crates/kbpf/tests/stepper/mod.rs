//! The kbpf reference interpreter the suites hold the VM to: one
//! instruction at a time, one arm per operation for both operand forms,
//! written from the ISA rather than from `execute_verified`'s loop.
//!
//! It runs verified programs only. A verified program jumps only forward,
//! so it runs each pc at most once; a run that takes more steps than the
//! program has instructions took a backward jump, and the stepper panics
//! rather than spin.

use policysmith_dsl::eval::{div_sat, rem_sat, shl_sat, shr_arith};
use policysmith_kbpf::{Op, Program, VmError, REG_COUNT};

pub type Regs = [i64; REG_COUNT as usize];

/// Run `prog` from a zeroed register file, showing `before` the pc,
/// registers and map ahead of each instruction. Returns `r0` at the exit,
/// or `DivByZero` at the pc of a division or remainder by zero.
///
/// # Panics
/// On a backward jump: more steps than the program has instructions.
pub fn step(
    prog: &Program,
    ctx: &[i64],
    map: &mut [i64],
    mut before: impl FnMut(usize, &Regs, &[i64]),
) -> Result<i64, VmError> {
    let mut regs: Regs = [0; REG_COUNT as usize];
    let mut pc = 0;
    for _ in 0..prog.len() {
        before(pc, &regs, map);
        let insn = prog.insns[pc];
        let d = regs[insn.dst as usize];
        let o = if insn.op.reads_src() { regs[insn.src as usize] } else { insn.imm };
        use Op::*;
        let jump = match insn.op {
            Ja => true,
            JeqImm | JeqReg => d == o,
            JneImm | JneReg => d != o,
            JltImm | JltReg => d < o,
            JleImm | JleReg => d <= o,
            JgtImm | JgtReg => d > o,
            JgeImm | JgeReg => d >= o,
            _ => false,
        };
        regs[insn.dst as usize] = match insn.op {
            MovImm | MovReg => o,
            AddImm | AddReg => d.saturating_add(o),
            SubImm | SubReg => d.saturating_sub(o),
            MulImm | MulReg => d.saturating_mul(o),
            DivImm | DivReg | RemImm | RemReg if o == 0 => return Err(VmError::DivByZero { pc }),
            DivImm | DivReg => div_sat(d, o),
            RemImm | RemReg => rem_sat(d, o),
            Neg => d.saturating_neg(),
            LshImm | LshReg => shl_sat(d, o),
            RshImm | RshReg => shr_arith(d, o),
            LdCtx => ctx[insn.imm as usize],
            LdMap => map[insn.imm as usize],
            Exit => return Ok(regs[0]),
            // these write no register: `dst` keeps its value
            StMap => {
                map[insn.imm as usize] = o;
                d
            }
            Ja | JeqImm | JeqReg | JneImm | JneReg | JltImm | JltReg | JleImm | JleReg | JgtImm
            | JgtReg | JgeImm | JgeReg => d,
        };
        pc = if jump { (pc + 1).wrapping_add_signed(insn.off as isize) } else { pc + 1 };
    }
    panic!("more than {} steps: a backward jump\n{prog}", prog.len());
}
