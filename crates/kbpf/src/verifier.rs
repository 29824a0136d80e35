//! The kbpf static verifier — the `Checker` of the congestion-control case
//! study (§5.0.2: "all candidate programs pass the eBPF verifier before
//! execution — which acts as the Checker in our framework").
//!
//! Soundness argument, in the same shape as the kernel's verifier:
//!
//! 1. **Structural pass.** Program non-empty, within [`MAX_INSNS`], register
//!    numbers valid, every jump strictly forward and in-bounds, control
//!    cannot fall off the end, context/map indices within the declared
//!    sizes. Forward-only jumps make the CFG a DAG, so termination is by
//!    construction (the paper's "no unbounded loops" constraint).
//! 2. **Abstract interpretation.** One forward dataflow pass (legal because
//!    the CFG is a DAG and instruction order is a topological order)
//!    tracking, per register, either ⊥ (uninitialized) or a signed interval
//!    `[lo, hi]` — the domain lives in [`crate::range`], shared with the
//!    eBPF emitter and model verifier. Conditional jumps *refine* intervals
//!    on both edges (e.g. after `if r1 >= r2` the taken edge knows
//!    `r1.lo ≥ r2.lo`), which is exactly what lets `x / max(y, 1)` verify
//!    while `x / y` is rejected — the error pattern the paper reports
//!    dominating kernel candidates. Scratch-map slots are tracked too (⊤
//!    until stored to, since the map persists across invocations; narrowed
//!    by `StMap`), so spill/reload sequences lose no precision. A state
//!    materializes its slots only from its first store on: see
//!    [`AbsState`]. Each operation's transfer is written once: an
//!    `*Imm`/`*Reg` pair shares one arm, whose second operand is `src`'s
//!    interval when [`Op::reads_src`] says so and the exact immediate
//!    otherwise — and only a register operand is refined on a branch.
//! 3. **Obligations.** No read of ⊥; every `div`/`rem` divisor interval
//!    must exclude 0; `r0` must be initialized at every `exit`.
//!
//! Diagnostics render in the kernel verifier's terse style ("R3 min value 0
//! is not allowed as divisor") because they are fed back verbatim to the
//! generator (§5.0.3's +19% repair pass).
//!
//! Two entry points share the one analysis: [`verify`] returns just the
//! provable `r0` interval; [`analyze`] additionally returns the
//! per-instruction abstract states the eBPF emitter consumes to prove
//! saturating and wrapping arithmetic agree.
//!
//! What a state costs: the pass carries one [`AbsState`] forward and
//! changes it in place, a register at a time; a state is copied only onto
//! a jump's edge (and, for `analyze`, into its result), and the states
//! waiting at jump targets live in a per-thread buffer reused from call to
//! call, so `verify` allocates nothing once warm.

use crate::isa::{Insn, Op, Program, MAX_INSNS, REG_COUNT};
pub use crate::range::Interval;
use crate::range::{refine_eq, refine_ge, refine_gt, refine_le, refine_lt, refine_ne};
use std::cell::Cell;
use std::fmt;

/// Declared execution environment of a program: value ranges for each
/// read-only context slot, and the scratch-map size. The context ranges are
/// how domain knowledge ("`mss` is never zero") reaches the verifier, just
/// as the kernel verifier knows the bounds of `__sk_buff` fields.
#[derive(Debug, Clone)]
pub struct VerifyEnv {
    /// `ctx[i]` is guaranteed to lie within `ctx_ranges[i]`.
    pub ctx_ranges: Vec<(i64, i64)>,
    /// Number of scratch map slots addressable by `LdMap`/`StMap`.
    pub map_slots: usize,
}

impl VerifyEnv {
    /// Environment with `n` unconstrained context slots.
    pub fn opaque(n: usize, map_slots: usize) -> Self {
        VerifyEnv { ctx_ranges: vec![(i64::MIN, i64::MAX); n], map_slots }
    }
}

/// Rejection reasons, in kernel-verifier style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    EmptyProgram,
    TooManyInsns {
        len: usize,
    },
    BadRegister {
        pc: usize,
        reg: u8,
    },
    BackEdge {
        pc: usize,
        target: i64,
    },
    JumpOutOfBounds {
        pc: usize,
        target: i64,
    },
    FallsOffEnd {
        pc: usize,
    },
    CtxOutOfBounds {
        pc: usize,
        slot: i64,
        size: usize,
    },
    MapOutOfBounds {
        pc: usize,
        slot: i64,
        size: usize,
    },
    UninitRead {
        pc: usize,
        reg: u8,
    },
    /// The divisor's interval includes zero.
    DivByZeroPossible {
        pc: usize,
        reg_desc: String,
        lo: i64,
        hi: i64,
    },
    /// `r0` may be uninitialized at an `exit`.
    R0NotSet {
        pc: usize,
    },
}

impl VerifyError {
    /// The instruction index the rejection is anchored to, when there is
    /// one. Program-level rejections (empty, oversized) have no pc.
    pub fn pc(&self) -> Option<usize> {
        match self {
            VerifyError::EmptyProgram | VerifyError::TooManyInsns { .. } => None,
            VerifyError::BadRegister { pc, .. }
            | VerifyError::BackEdge { pc, .. }
            | VerifyError::JumpOutOfBounds { pc, .. }
            | VerifyError::FallsOffEnd { pc }
            | VerifyError::CtxOutOfBounds { pc, .. }
            | VerifyError::MapOutOfBounds { pc, .. }
            | VerifyError::UninitRead { pc, .. }
            | VerifyError::DivByZeroPossible { pc, .. }
            | VerifyError::R0NotSet { pc } => Some(*pc),
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyProgram => write!(f, "verifier: empty program"),
            VerifyError::TooManyInsns { len } => {
                write!(f, "verifier: program too large ({len} insns, max {MAX_INSNS})")
            }
            VerifyError::BadRegister { pc, reg } => {
                write!(f, "verifier: insn {pc}: R{reg} is invalid")
            }
            VerifyError::BackEdge { pc, target } => {
                write!(f, "verifier: back-edge from insn {pc} to {target}")
            }
            VerifyError::JumpOutOfBounds { pc, target } => {
                write!(f, "verifier: insn {pc}: jump out of range, target {target}")
            }
            VerifyError::FallsOffEnd { pc } => {
                write!(f, "verifier: insn {pc}: control flow falls off program end")
            }
            VerifyError::CtxOutOfBounds { pc, slot, size } => {
                write!(f, "verifier: insn {pc}: ctx access slot {slot} outside [0, {size})")
            }
            VerifyError::MapOutOfBounds { pc, slot, size } => {
                write!(f, "verifier: insn {pc}: map access slot {slot} outside [0, {size})")
            }
            VerifyError::UninitRead { pc, reg } => {
                write!(f, "verifier: insn {pc}: R{reg} !read_ok (uninitialized)")
            }
            VerifyError::DivByZeroPossible { pc, reg_desc, lo, hi } => write!(
                f,
                "verifier: insn {pc}: {reg_desc} range [{lo}, {hi}] includes 0, \
                 not allowed as divisor"
            ),
            VerifyError::R0NotSet { pc } => {
                write!(f, "verifier: insn {pc}: R0 !read_ok at exit")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Abstract machine state at one program point: one interval per register,
/// with ⊥ (uninitialized) stored in the interval itself as an empty one,
/// plus the scratch-map slots.
///
/// The map persists across invocations, so a slot is ⊤ until the program
/// stores to it. Most programs never touch the map, and copying ⊤ for every
/// slot is most of what a copied state would cost, so `maps` is either
/// empty — every slot ⊤ — or holds one interval per slot. It is empty
/// until the first `StMap` on a path, and after a join with a state that
/// has not stored: that side's ⊤ absorbs whatever the other stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    regs: [Interval; REG_COUNT as usize],
    maps: Vec<Interval>,
}

/// ⊥ in a register slot: the empty interval, which no value lies in. It
/// never leaves [`AbsState`]: [`AbsState::reg`] reads it as `None`.
const UNINIT: Interval = Interval { lo: i64::MAX, hi: i64::MIN };

impl AbsState {
    fn entry() -> AbsState {
        AbsState { regs: [UNINIT; REG_COUNT as usize], maps: Vec::new() }
    }

    /// Register `r`'s interval; `None` while it is uninitialized (⊥).
    #[inline]
    pub fn reg(&self, r: u8) -> Option<Interval> {
        let v = self.regs[r as usize];
        (v.lo <= v.hi).then_some(v)
    }

    /// Map slot `slot`'s interval: ⊤ until a store on every path to here.
    #[inline]
    pub fn map(&self, slot: usize) -> Interval {
        self.maps.get(slot).copied().unwrap_or(Interval::TOP)
    }

    fn store(&mut self, slot: usize, v: Interval, map_slots: usize) {
        if self.maps.is_empty() {
            self.maps = vec![Interval::TOP; map_slots];
        }
        self.maps[slot] = v;
    }

    fn join_with(&mut self, other: &AbsState) {
        for (a, &b) in self.regs.iter_mut().zip(&other.regs) {
            // A register initialized on only one path is ⊥ after the
            // join: reading it later must be rejected.
            let init = a.lo <= a.hi && b.lo <= b.hi;
            *a = if init { a.join(b) } else { UNINIT };
        }
        if other.maps.is_empty() {
            self.maps = Vec::new();
        }
        for (a, b) in self.maps.iter_mut().zip(other.maps.iter()) {
            *a = a.join(*b);
        }
    }
}

/// Full result of the abstract interpretation: the in-state at every
/// reachable instruction (`None` = statically unreachable) and the `r0`
/// interval joined over all `exit` sites. The eBPF emitter walks
/// `in_states` to re-derive each operand's interval and prove saturation
/// cannot occur before it commits to wrapping target arithmetic.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub in_states: Vec<Option<AbsState>>,
    pub r0: Interval,
}

/// Verify `prog` against `env`. On success returns the interval of `r0`
/// joined over all `exit` sites (useful diagnostics: the harness logs the
/// provable cwnd bounds of each accepted candidate).
pub fn verify(prog: &Program, env: &VerifyEnv) -> Result<Interval, VerifyError> {
    interpret(prog, env, |_, _| {})
}

/// Verify `prog` and return the per-instruction abstract states alongside
/// the `r0` interval.
pub fn analyze(prog: &Program, env: &VerifyEnv) -> Result<Analysis, VerifyError> {
    let mut in_states = vec![None; prog.insns.len()];
    let r0 = interpret(prog, env, |pc, st| in_states[pc] = Some(st.clone()))?;
    Ok(Analysis { in_states, r0 })
}

thread_local! {
    /// The states waiting at each pc, for [`interpret`] to reuse from call
    /// to call: a verification allocates nothing once its thread has
    /// verified a program as long.
    static PENDING: Cell<Vec<Option<AbsState>>> = const { Cell::new(Vec::new()) };
}

/// The one analysis: the structural pass, then the forward dataflow pass,
/// which hands `seen` the in-state of every reachable instruction, in
/// program order, before it applies the instruction.
fn interpret(
    prog: &Program,
    env: &VerifyEnv,
    seen: impl FnMut(usize, &AbsState),
) -> Result<Interval, VerifyError> {
    structural_check(prog, env)?;
    let mut pending = PENDING.take();
    pending.clear();
    pending.resize(prog.insns.len(), None);
    let r0 = dataflow(prog, env, &mut pending, seen);
    PENDING.set(pending);
    r0
}

/// The forward pass. `state` is the state falling through into `pc` while
/// `live`, and `pending[pc]` the join of the jumps into it; an instruction
/// with neither is unreachable. `state` stays where it is, and each
/// instruction changes it in place: only a jump's edge copies it.
fn dataflow(
    prog: &Program,
    env: &VerifyEnv,
    pending: &mut [Option<AbsState>],
    mut seen: impl FnMut(usize, &AbsState),
) -> Result<Interval, VerifyError> {
    let n = prog.insns.len();
    let mut state = AbsState::entry();
    let mut live = true;
    let mut r0_at_exit: Option<Interval> = None;

    for pc in 0..n {
        if let Some(jumped) = pending[pc].take() {
            if live {
                state.join_with(&jumped);
            } else {
                state = jumped;
                live = true;
            }
        }
        if !live {
            continue; // unreachable
        }
        seen(pc, &state);
        let insn = prog.insns[pc];

        // Obligation: register reads.
        let read_reg = |st: &AbsState, r: u8| -> Result<Interval, VerifyError> {
            st.reg(r).ok_or(VerifyError::UninitRead { pc, reg: r })
        };
        // The second operand, in whichever form the op takes it.
        let operand = |st: &AbsState| -> Result<Interval, VerifyError> {
            if insn.op.reads_src() {
                read_reg(st, insn.src)
            } else {
                Ok(Interval::exact(insn.imm))
            }
        };

        use Op::*;
        let result = match insn.op {
            Exit => {
                let r0 = read_reg(&state, 0).map_err(|_| VerifyError::R0NotSet { pc })?;
                r0_at_exit = Some(match r0_at_exit {
                    Some(acc) => acc.join(r0),
                    None => r0,
                });
                live = false; // no successors
                continue;
            }
            Ja => {
                propagate(pending, pc + 1 + insn.off as usize, &state);
                live = false;
                continue;
            }
            JeqImm | JeqReg | JneImm | JneReg | JltImm | JltReg | JleImm | JleReg | JgtImm
            | JgtReg | JgeImm | JgeReg => {
                let d = read_reg(&state, insn.dst)?;
                let o = operand(&state)?;
                live = branch(pc, insn, d, o, &mut state, pending);
                continue;
            }
            MovImm | MovReg => operand(&state)?,
            AddImm | AddReg => read_reg(&state, insn.dst)?.add(operand(&state)?),
            SubImm | SubReg => read_reg(&state, insn.dst)?.sub(operand(&state)?),
            MulImm | MulReg => read_reg(&state, insn.dst)?.mul(operand(&state)?),
            DivImm | DivReg | RemImm | RemReg => {
                let d = read_reg(&state, insn.dst)?;
                let o = operand(&state)?;
                if o.contains(0) {
                    return Err(VerifyError::DivByZeroPossible {
                        pc,
                        reg_desc: if insn.op.reads_src() {
                            format!("R{}", insn.src)
                        } else {
                            format!("imm {}", insn.imm)
                        },
                        lo: o.lo,
                        hi: o.hi,
                    });
                }
                if matches!(insn.op, DivImm | DivReg) {
                    d.div(o)
                } else {
                    d.rem(o)
                }
            }
            Neg => read_reg(&state, insn.dst)?.neg(),
            LshImm | LshReg => read_reg(&state, insn.dst)?.shl(operand(&state)?),
            RshImm | RshReg => read_reg(&state, insn.dst)?.shr(operand(&state)?),
            LdCtx => {
                let (lo, hi) = env.ctx_ranges[insn.imm as usize];
                Interval::new(lo.min(hi), hi.max(lo))
            }
            LdMap => state.map(insn.imm as usize),
            StMap => {
                let v = read_reg(&state, insn.src)?;
                state.store(insn.imm as usize, v, env.map_slots);
                continue;
            }
        };
        state.regs[insn.dst as usize] = result;
    }

    r0_at_exit.ok_or(VerifyError::R0NotSet { pc: n - 1 })
}

/// Merge a copy of `state` into the pending in-state of `target`; the
/// first edge to reach it moves in.
fn propagate(pending: &mut [Option<AbsState>], target: usize, state: &AbsState) {
    match &mut pending[target] {
        Some(existing) => existing.join_with(state),
        slot @ None => *slot = Some(state.clone()),
    }
}

/// Handle a conditional jump: refine intervals on the taken and fallthrough
/// edges and prune statically-dead edges. The taken edge's state goes to
/// `pending`; the fall-through's is `state`, refined in place, and the
/// return value says whether that edge is live. An immediate operand has
/// no register to refine.
fn branch(
    pc: usize,
    insn: Insn,
    d: Interval,
    o: Interval,
    state: &mut AbsState,
    pending: &mut [Option<AbsState>],
) -> bool {
    use Op::*;
    // (refined dst, refined operand) on the taken edge and fallthrough edge.
    let (taken, fall) = match insn.op {
        JeqImm | JeqReg => (refine_eq(d, o), refine_ne(d, o)),
        JneImm | JneReg => (refine_ne(d, o), refine_eq(d, o)),
        JltImm | JltReg => (refine_lt(d, o), refine_ge(d, o)),
        JleImm | JleReg => (refine_le(d, o), refine_gt(d, o)),
        JgtImm | JgtReg => (refine_gt(d, o), refine_le(d, o)),
        JgeImm | JgeReg => (refine_ge(d, o), refine_lt(d, o)),
        _ => unreachable!(),
    };
    // The registers a refinement narrows: `dst`, and `src` when the op
    // reads it (an immediate form's `src` byte is not a register).
    let (dst, src) = (insn.dst as usize, insn.op.reads_src().then_some(insn.src as usize));
    let refine = |st: &mut AbsState, (rd, ro): (Interval, Interval)| {
        st.regs[dst] = rd;
        if let Some(src) = src {
            st.regs[src] = ro;
        }
    };
    if let Some(t) = taken {
        // the edge's state is `state` with the taken refinement: refine,
        // copy it out, and put the narrowed registers back
        let saved = (state.regs[dst], src.map(|s| (s, state.regs[s])));
        refine(state, t);
        propagate(pending, pc + 1 + insn.off as usize, state);
        if let Some((s, v)) = saved.1 {
            state.regs[s] = v;
        }
        state.regs[dst] = saved.0;
    }
    match fall {
        Some(f) => {
            refine(state, f);
            true
        }
        None => false,
    }
}

/// Pass 1: structure, bounds, registers, forward-only control flow.
fn structural_check(prog: &Program, env: &VerifyEnv) -> Result<(), VerifyError> {
    let n = prog.insns.len();
    if n == 0 {
        return Err(VerifyError::EmptyProgram);
    }
    if n > MAX_INSNS {
        return Err(VerifyError::TooManyInsns { len: n });
    }
    for (pc, insn) in prog.insns.iter().enumerate() {
        if insn.dst >= REG_COUNT {
            return Err(VerifyError::BadRegister { pc, reg: insn.dst });
        }
        if insn.op.reads_src() && insn.src >= REG_COUNT {
            return Err(VerifyError::BadRegister { pc, reg: insn.src });
        }
        if insn.op.is_jump() {
            let target = pc as i64 + 1 + insn.off as i64;
            if insn.off < 0 {
                return Err(VerifyError::BackEdge { pc, target });
            }
            if target as usize > n {
                return Err(VerifyError::JumpOutOfBounds { pc, target });
            }
            if target as usize == n {
                return Err(VerifyError::FallsOffEnd { pc });
            }
        }
        match insn.op {
            Op::LdCtx if (insn.imm < 0 || insn.imm as usize >= env.ctx_ranges.len()) => {
                return Err(VerifyError::CtxOutOfBounds {
                    pc,
                    slot: insn.imm,
                    size: env.ctx_ranges.len(),
                });
            }
            Op::LdMap | Op::StMap if (insn.imm < 0 || insn.imm as usize >= env.map_slots) => {
                return Err(VerifyError::MapOutOfBounds {
                    pc,
                    slot: insn.imm,
                    size: env.map_slots,
                });
            }
            _ => {}
        }
        // Fallthrough off the end: last insn must not continue to pc+1.
        let falls_through = !matches!(insn.op, Op::Exit | Op::Ja);
        if pc + 1 == n && falls_through {
            return Err(VerifyError::FallsOffEnd { pc });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Insn, Op, Program};

    fn env2() -> VerifyEnv {
        VerifyEnv { ctx_ranges: vec![(0, 100), (1, 65535)], map_slots: 4 }
    }

    fn prog(insns: Vec<Insn>) -> Program {
        Program { insns }
    }

    fn i(op: Op, dst: u8, src: u8, imm: i64) -> Insn {
        Insn::new(op, dst, src, imm)
    }

    fn j(op: Op, dst: u8, src: u8, imm: i64, off: i32) -> Insn {
        Insn { op, dst, src, imm, off }
    }

    #[test]
    fn trivial_return() {
        let p = prog(vec![i(Op::MovImm, 0, 0, 42), i(Op::Exit, 0, 0, 0)]);
        let r0 = verify(&p, &env2()).unwrap();
        assert_eq!(r0, Interval::exact(42));
    }

    #[test]
    fn empty_and_oversized_rejected() {
        assert_eq!(verify(&prog(vec![]), &env2()), Err(VerifyError::EmptyProgram));
        let big = prog(vec![i(Op::MovImm, 0, 0, 1); MAX_INSNS + 1]);
        assert!(matches!(verify(&big, &env2()), Err(VerifyError::TooManyInsns { .. })));
    }

    #[test]
    fn uninit_read_rejected() {
        let p = prog(vec![i(Op::MovReg, 0, 3, 0), i(Op::Exit, 0, 0, 0)]);
        assert_eq!(verify(&p, &env2()), Err(VerifyError::UninitRead { pc: 0, reg: 3 }));
    }

    #[test]
    fn r0_unset_at_exit_rejected() {
        let p = prog(vec![i(Op::MovImm, 1, 0, 5), i(Op::Exit, 0, 0, 0)]);
        assert_eq!(verify(&p, &env2()), Err(VerifyError::R0NotSet { pc: 1 }));
    }

    #[test]
    fn back_edge_rejected() {
        let p = prog(vec![i(Op::MovImm, 0, 0, 1), j(Op::Ja, 0, 0, 0, -2), i(Op::Exit, 0, 0, 0)]);
        assert!(matches!(verify(&p, &env2()), Err(VerifyError::BackEdge { pc: 1, .. })));
    }

    #[test]
    fn falls_off_end_rejected() {
        let p = prog(vec![i(Op::MovImm, 0, 0, 1)]);
        assert!(matches!(verify(&p, &env2()), Err(VerifyError::FallsOffEnd { .. })));
        let p = prog(vec![i(Op::MovImm, 0, 0, 1), j(Op::Ja, 0, 0, 0, 1), i(Op::Exit, 0, 0, 0)]);
        assert!(matches!(verify(&p, &env2()), Err(VerifyError::FallsOffEnd { .. })));
    }

    #[test]
    fn ctx_and_map_bounds() {
        let p = prog(vec![i(Op::LdCtx, 0, 0, 7), i(Op::Exit, 0, 0, 0)]);
        assert!(matches!(verify(&p, &env2()), Err(VerifyError::CtxOutOfBounds { .. })));
        let p = prog(vec![i(Op::MovImm, 1, 0, 0), i(Op::StMap, 0, 1, 9), i(Op::Exit, 0, 0, 0)]);
        assert!(matches!(verify(&p, &env2()), Err(VerifyError::MapOutOfBounds { .. })));
    }

    #[test]
    fn unguarded_div_by_ctx_rejected() {
        // ctx[0] ∈ [0,100]: may be zero.
        let p = prog(vec![
            i(Op::MovImm, 0, 0, 1000),
            i(Op::LdCtx, 1, 0, 0),
            i(Op::DivReg, 0, 1, 0),
            i(Op::Exit, 0, 0, 0),
        ]);
        match verify(&p, &env2()) {
            Err(VerifyError::DivByZeroPossible { pc: 2, lo: 0, hi: 100, .. }) => {}
            other => panic!("expected div-by-zero rejection, got {other:?}"),
        }
    }

    #[test]
    fn div_by_nonzero_ctx_accepted() {
        // ctx[1] ∈ [1,65535]: provably nonzero, like `mss`.
        let p = prog(vec![
            i(Op::MovImm, 0, 0, 1000),
            i(Op::LdCtx, 1, 0, 1),
            i(Op::DivReg, 0, 1, 0),
            i(Op::Exit, 0, 0, 0),
        ]);
        let r0 = verify(&p, &env2()).unwrap();
        assert!(r0.contains(1000) && r0.contains(0));
    }

    #[test]
    fn max_guard_pattern_verifies() {
        // r1 = ctx[0] (may be 0); r2 = 1; if r1 >= r2 skip; r1 = r2  — i.e.
        // r1 = max(ctx[0], 1); then r0 = 1000 / r1. The refinement on the
        // taken edge is what makes this verify.
        let p = prog(vec![
            i(Op::LdCtx, 1, 0, 0),
            i(Op::MovImm, 2, 0, 1),
            j(Op::JgeReg, 1, 2, 0, 1),
            i(Op::MovReg, 1, 2, 0),
            i(Op::MovImm, 0, 0, 1000),
            i(Op::DivReg, 0, 1, 0),
            i(Op::Exit, 0, 0, 0),
        ]);
        let r0 = verify(&p, &env2()).unwrap();
        assert_eq!(r0, Interval::new(10, 1000));
    }

    #[test]
    fn imm_guard_pattern_verifies() {
        // if r1 != 0 skip; r1 = 1 — then divide.
        let p = prog(vec![
            i(Op::LdCtx, 1, 0, 0),
            j(Op::JneImm, 1, 0, 0, 1),
            i(Op::MovImm, 1, 0, 1),
            i(Op::MovImm, 0, 0, 500),
            i(Op::DivReg, 0, 1, 0),
            i(Op::Exit, 0, 0, 0),
        ]);
        verify(&p, &env2()).unwrap();
    }

    #[test]
    fn div_imm_zero_rejected() {
        let p = prog(vec![i(Op::MovImm, 0, 0, 1), i(Op::DivImm, 0, 0, 0), i(Op::Exit, 0, 0, 0)]);
        assert!(matches!(verify(&p, &env2()), Err(VerifyError::DivByZeroPossible { .. })));
    }

    #[test]
    fn join_loses_one_sided_init() {
        // r2 initialized only on one branch; read after the join → reject.
        let p = prog(vec![
            i(Op::LdCtx, 1, 0, 0),
            j(Op::JeqImm, 1, 0, 0, 1), // if r1 == 0 skip the init
            i(Op::MovImm, 2, 0, 7),
            i(Op::MovReg, 0, 2, 0), // join point: r2 maybe-⊥
            i(Op::Exit, 0, 0, 0),
        ]);
        assert_eq!(verify(&p, &env2()), Err(VerifyError::UninitRead { pc: 3, reg: 2 }));
    }

    #[test]
    fn dead_branch_pruned() {
        // r1 = 5; if r1 == 5 goto skip-the-bad-div; bad div unreachable.
        let p = prog(vec![
            i(Op::MovImm, 1, 0, 5),
            j(Op::JeqImm, 1, 0, 5, 1),
            i(Op::DivImm, 1, 0, 0), // statically unreachable
            i(Op::MovImm, 0, 0, 1),
            i(Op::Exit, 0, 0, 0),
        ]);
        verify(&p, &env2()).unwrap();
    }

    #[test]
    fn r0_interval_reported() {
        // r0 = ctx[0] + 5 → [5, 105]
        let p = prog(vec![i(Op::LdCtx, 0, 0, 0), i(Op::AddImm, 0, 0, 5), i(Op::Exit, 0, 0, 0)]);
        assert_eq!(verify(&p, &env2()).unwrap(), Interval::new(5, 105));
    }

    #[test]
    fn map_roundtrip_keeps_precision() {
        // Store an exact value, reload it: the reloaded interval must be
        // exact, not ⊤ — the precision that makes spill-heavy lowered
        // programs provably non-saturating for the eBPF emitter.
        let p = prog(vec![
            i(Op::MovImm, 1, 0, 7),
            i(Op::StMap, 0, 1, 2),
            i(Op::LdMap, 0, 0, 2),
            i(Op::Exit, 0, 0, 0),
        ]);
        assert_eq!(verify(&p, &env2()).unwrap(), Interval::exact(7));
    }

    #[test]
    fn map_load_before_store_is_top() {
        // The scratch map persists across invocations: a load the program
        // never stored to could be anything.
        let p = prog(vec![i(Op::LdMap, 0, 0, 0), i(Op::Exit, 0, 0, 0)]);
        assert_eq!(verify(&p, &env2()).unwrap(), Interval::TOP);
    }

    #[test]
    fn map_slots_join_across_branches() {
        // slot 0 = 1 on one path, 9 on the other → reload sees [1, 9].
        let p = prog(vec![
            i(Op::LdCtx, 1, 0, 0),
            i(Op::MovImm, 2, 0, 1),
            j(Op::JeqImm, 1, 0, 0, 1), // if ctx==0 keep r2=1
            i(Op::MovImm, 2, 0, 9),
            i(Op::StMap, 0, 2, 0),
            i(Op::LdMap, 0, 0, 0),
            i(Op::Exit, 0, 0, 0),
        ]);
        assert_eq!(verify(&p, &env2()).unwrap(), Interval::new(1, 9));
    }

    // The next three store *before* the merge, where a path that never
    // stored meets one that did. Each side of the join gets a turn as the
    // state already at the merge point: a join that kept the stored side's
    // slots, either way round, reloads `exact(5)` and fails here.

    #[test]
    fn map_store_on_the_later_branch_only_is_top_after_the_merge() {
        // the taken edge reaches the merge first, with nothing stored
        let p = prog(vec![
            i(Op::LdCtx, 1, 0, 0),
            j(Op::JeqImm, 1, 0, 0, 2), // if ctx==0 skip the store
            i(Op::MovImm, 2, 0, 5),
            i(Op::StMap, 0, 2, 0),
            i(Op::LdMap, 0, 0, 0), // merge
            i(Op::Exit, 0, 0, 0),
        ]);
        assert_eq!(verify(&p, &env2()).unwrap(), Interval::TOP);
    }

    #[test]
    fn map_store_on_the_earlier_branch_only_is_top_after_the_merge() {
        // the storing path reaches the merge first, the other joins it
        let p = prog(vec![
            i(Op::LdCtx, 1, 0, 0),
            i(Op::MovImm, 2, 0, 5),
            j(Op::JeqImm, 1, 0, 0, 2), // if ctx==0 skip the store
            i(Op::StMap, 0, 2, 0),
            j(Op::Ja, 0, 0, 0, 1),
            i(Op::MovImm, 3, 0, 1),
            i(Op::LdMap, 0, 0, 0), // merge
            i(Op::Exit, 0, 0, 0),
        ]);
        assert_eq!(verify(&p, &env2()).unwrap(), Interval::TOP);
    }

    #[test]
    fn map_stores_on_both_branches_join() {
        let p = prog(vec![
            i(Op::LdCtx, 1, 0, 0),
            j(Op::JeqImm, 1, 0, 0, 3), // if ctx==0 store 9
            i(Op::MovImm, 2, 0, 1),
            i(Op::StMap, 0, 2, 0),
            j(Op::Ja, 0, 0, 0, 2),
            i(Op::MovImm, 2, 0, 9),
            i(Op::StMap, 0, 2, 0),
            i(Op::LdMap, 0, 0, 0), // merge
            i(Op::Exit, 0, 0, 0),
        ]);
        assert_eq!(verify(&p, &env2()).unwrap(), Interval::new(1, 9));
    }

    #[test]
    fn map_store_that_is_unreachable_leaves_the_slot_top() {
        let p = prog(vec![
            i(Op::MovImm, 1, 0, 5),
            j(Op::JeqImm, 1, 0, 5, 2), // always taken
            i(Op::MovImm, 2, 0, 7),
            i(Op::StMap, 0, 2, 0), // dead
            i(Op::LdMap, 0, 0, 0),
            i(Op::Exit, 0, 0, 0),
        ]);
        let a = analyze(&p, &env2()).unwrap();
        assert!(a.in_states[3].is_none());
        assert_eq!(a.r0, Interval::TOP);
    }

    #[test]
    fn analyze_exposes_in_states() {
        let p = prog(vec![
            i(Op::LdCtx, 1, 0, 0),
            i(Op::AddImm, 1, 0, 5),
            i(Op::MovReg, 0, 1, 0),
            i(Op::Exit, 0, 0, 0),
        ]);
        let a = analyze(&p, &env2()).unwrap();
        assert_eq!(a.in_states.len(), 4);
        // before insn 1, r1 holds ctx[0] ∈ [0,100]
        let st = a.in_states[1].as_ref().unwrap();
        assert_eq!(st.reg(1), Some(Interval::new(0, 100)));
        // before insn 2, r1 ∈ [5,105]
        let st = a.in_states[2].as_ref().unwrap();
        assert_eq!(st.reg(1), Some(Interval::new(5, 105)));
        assert_eq!(a.r0, Interval::new(5, 105));
    }

    #[test]
    fn analyze_marks_unreachable_states() {
        let p = prog(vec![
            i(Op::MovImm, 0, 0, 1),
            j(Op::Ja, 0, 0, 0, 1),
            i(Op::MovImm, 0, 0, 2), // skipped
            i(Op::Exit, 0, 0, 0),
        ]);
        let a = analyze(&p, &env2()).unwrap();
        assert!(a.in_states[2].is_none());
        assert_eq!(a.r0, Interval::exact(1));
    }

    #[test]
    fn interval_ops_sound_spots() {
        let a = Interval::new(-3, 7);
        let b = Interval::new(2, 4);
        let m = a.mul(b);
        assert!(m.contains(-12) && m.contains(28) && m.contains(0));
        let d = a.div(b);
        assert!(d.contains(-1) && d.contains(3) && d.contains(0));
        let r = a.rem(b);
        assert!(r.contains(-3) && r.contains(3) && r.contains(0));
        let s = Interval::new(1, 2).shl(Interval::new(1, 3));
        assert_eq!(s, Interval::new(2, 16));
    }

    #[test]
    fn diagnostics_kernel_style() {
        let e = VerifyError::DivByZeroPossible { pc: 4, reg_desc: "R3".into(), lo: 0, hi: 9 };
        assert!(e.to_string().contains("not allowed as divisor"));
        let e = VerifyError::BackEdge { pc: 9, target: 2 };
        assert!(e.to_string().contains("back-edge"));
    }

    #[test]
    fn every_variant_displays_and_reports_pc() {
        let cases: Vec<(VerifyError, Option<usize>, &str)> = vec![
            (VerifyError::EmptyProgram, None, "empty program"),
            (VerifyError::TooManyInsns { len: 9999 }, None, "9999"),
            (VerifyError::BadRegister { pc: 1, reg: 14 }, Some(1), "R14 is invalid"),
            (VerifyError::BackEdge { pc: 3, target: 1 }, Some(3), "back-edge"),
            (VerifyError::JumpOutOfBounds { pc: 2, target: 99 }, Some(2), "out of range"),
            (VerifyError::FallsOffEnd { pc: 5 }, Some(5), "falls off"),
            (VerifyError::CtxOutOfBounds { pc: 0, slot: 8, size: 4 }, Some(0), "ctx access"),
            (VerifyError::MapOutOfBounds { pc: 0, slot: 8, size: 4 }, Some(0), "map access"),
            (VerifyError::UninitRead { pc: 7, reg: 3 }, Some(7), "!read_ok"),
            (
                VerifyError::DivByZeroPossible { pc: 4, reg_desc: "R2".into(), lo: -1, hi: 1 },
                Some(4),
                "not allowed as divisor",
            ),
            (VerifyError::R0NotSet { pc: 6 }, Some(6), "R0 !read_ok at exit"),
        ];
        for (e, pc, needle) in cases {
            assert_eq!(e.pc(), pc, "{e}");
            let msg = e.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
            assert!(msg.starts_with("verifier:"), "{msg:?}");
            // the error-trait object renders identically
            let dyn_err: &dyn std::error::Error = &e;
            assert_eq!(dyn_err.to_string(), msg);
        }
    }
}
