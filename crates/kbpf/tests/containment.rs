//! Containment: what [`analyze`] proves about a verified program holds on
//! every run of it, instruction by instruction — not just "it does not
//! fault". A transfer that is too narrow shows here even when the run it
//! mis-bounds ends without a fault and with the right result.
//!
//! Every fully verified program of the verdict golden's `MockLlm` corpus
//! (all four modes) is stepped by a single-step interpreter written here,
//! independent of the VM, on contexts made of each slot's range edges,
//! 0 and ±1 (where in range), plus seeded draws. Before each executed
//! instruction, every register the analysis calls initialized and every
//! map slot must lie inside that pc's in-state interval; at the exit, the
//! result must equal `execute_verified`'s and lie inside the proved `r0`.

mod mock_corpus;

use policysmith_dsl::eval::{div_sat, rem_sat, shl_sat, shr_arith};
use policysmith_dsl::Mode;
use policysmith_kbpf::{
    analyze, execute_verified, AbsState, CompiledPolicy, Op, Program, REG_COUNT, SPILL_SLOTS,
};

type Regs = [i64; REG_COUNT as usize];

/// Run `prog` one instruction at a time from a zeroed register file,
/// showing `before` the pc, registers and map ahead of each instruction.
/// Returns `r0` at the exit. `prog` is verified: it ends, reads no
/// uninitialized register and divides by no zero.
fn step(
    prog: &Program,
    ctx: &[i64],
    map: &mut [i64],
    mut before: impl FnMut(usize, &Regs, &[i64]),
) -> i64 {
    let mut regs: Regs = [0; REG_COUNT as usize];
    let mut pc = 0;
    loop {
        before(pc, &regs, map);
        let insn = prog.insns[pc];
        let d = regs[insn.dst as usize];
        let o = if insn.op.reads_src() { regs[insn.src as usize] } else { insn.imm };
        let mut next = pc + 1;
        let mut jump_if = |cond: bool| {
            if cond {
                next = pc + 1 + insn.off as usize;
            }
        };
        use Op::*;
        let result = match insn.op {
            MovImm | MovReg => Some(o),
            AddImm | AddReg => Some(d.saturating_add(o)),
            SubImm | SubReg => Some(d.saturating_sub(o)),
            MulImm | MulReg => Some(d.saturating_mul(o)),
            DivImm | DivReg => Some(div_sat(d, o)),
            RemImm | RemReg => Some(rem_sat(d, o)),
            Neg => Some(d.saturating_neg()),
            LshImm | LshReg => Some(shl_sat(d, o)),
            RshImm | RshReg => Some(shr_arith(d, o)),
            LdCtx => Some(ctx[insn.imm as usize]),
            LdMap => Some(map[insn.imm as usize]),
            StMap => {
                map[insn.imm as usize] = o;
                None
            }
            Exit => return regs[0],
            Ja => {
                jump_if(true);
                None
            }
            JeqImm | JeqReg => {
                jump_if(d == o);
                None
            }
            JneImm | JneReg => {
                jump_if(d != o);
                None
            }
            JltImm | JltReg => {
                jump_if(d < o);
                None
            }
            JleImm | JleReg => {
                jump_if(d <= o);
                None
            }
            JgtImm | JgtReg => {
                jump_if(d > o);
                None
            }
            JgeImm | JgeReg => {
                jump_if(d >= o);
                None
            }
        };
        if let Some(v) = result {
            regs[insn.dst as usize] = v;
        }
        pc = next;
    }
}

/// xorshift64: the seeded draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[lo, hi]`.
    fn within(&mut self, (lo, hi): (i64, i64)) -> i64 {
        let width = (hi as i128 - lo as i128 + 1) as u128;
        (lo as i128 + (self.next() as u128 % width) as i128) as i64
    }
}

/// A slot's edge values: its range's ends, one step in from each, and
/// 0 and ±1, where they are in range.
fn edges((lo, hi): (i64, i64)) -> Vec<i64> {
    let mut v: Vec<i64> = [lo, hi, lo.saturating_add(1), hi.saturating_sub(1), 0, 1, -1]
        .into_iter()
        .filter(|x| (lo..=hi).contains(x))
        .collect();
    v.dedup();
    v
}

/// The contexts one program runs on: every slot at its `j`-th edge value
/// for each `j`, then `draws` seeded contexts mixing edge values and
/// uniform draws slot by slot.
fn contexts(ranges: &[(i64, i64)], draws: usize, rng: &mut Rng) -> Vec<Vec<i64>> {
    let edges: Vec<Vec<i64>> = ranges.iter().map(|&r| edges(r)).collect();
    let most = edges.iter().map(Vec::len).max().unwrap_or(1);
    let mut out: Vec<Vec<i64>> =
        (0..most).map(|j| edges.iter().map(|e| e[j % e.len()]).collect()).collect();
    for _ in 0..draws {
        let ctx = ranges
            .iter()
            .zip(&edges)
            .map(|(&r, e)| match rng.next() % 2 {
                0 => e[(rng.next() % e.len() as u64) as usize],
                _ => rng.within(r),
            })
            .collect();
        out.push(ctx);
    }
    out
}

/// Where a concrete state at `pc` escapes the analysis's in-state there.
fn escape(pc: usize, st: &AbsState, regs: &Regs, map: &[i64]) -> Option<String> {
    for r in 0..REG_COUNT {
        if let Some(iv) = st.reg(r) {
            let v = regs[r as usize];
            if !iv.contains(v) {
                return Some(format!("pc {pc}: R{r} = {v} outside [{}, {}]", iv.lo, iv.hi));
            }
        }
    }
    (0..map.len()).find(|&s| !st.map(s).contains(map[s])).map(|s| {
        let iv = st.map(s);
        format!("pc {pc}: map[{s}] = {} outside [{}, {}]", map[s], iv.lo, iv.hi)
    })
}

#[test]
fn every_executed_state_lies_inside_the_analysis() {
    let mut rng = Rng(0xc0_77a1_4e47);
    let (mut programs, mut runs, mut steps) = (0, 0, 0u64);
    for mode in Mode::ALL {
        for src in mock_corpus::sources(mode) {
            let Ok(policy) = CompiledPolicy::from_source(&src, mode) else { continue };
            if policy.r0_bounds().is_none() {
                continue; // may fault: not fully verified
            }
            let prog = policy.program();
            let env = policy.layout().verify_env();
            let analysis = analyze(prog, &env).expect("compile verified it");
            programs += 1;
            for ctx in contexts(&env.ctx_ranges, 8, &mut rng) {
                // the map persists across runs: it may hold anything
                let start: Vec<i64> = (0..SPILL_SLOTS).map(|_| rng.next() as i64).collect();
                let mut map = start.clone();
                let r0 = step(prog, &ctx, &mut map, |pc, regs, map| {
                    steps += 1;
                    let st = analysis.in_states[pc].as_ref().unwrap_or_else(|| {
                        panic!("{mode:?} `{src}`: pc {pc} ran but was proved unreachable")
                    });
                    if let Some(why) = escape(pc, st, regs, map) {
                        panic!("{mode:?} `{src}` on ctx {ctx:?}: {why}\n{prog}");
                    }
                });
                let vm = execute_verified(prog, &ctx, &mut start.clone());
                assert_eq!(vm, Ok(r0), "{mode:?} `{src}` on ctx {ctx:?}: the VM disagrees");
                assert!(analysis.r0.contains(r0), "{mode:?} `{src}`: r0 {r0} outside the proof");
                runs += 1;
            }
        }
    }
    // the suite is not vacuous
    assert!(programs > 2_000, "only {programs} verified programs");
    assert!(steps > 10 * runs, "{steps} steps over {runs} runs");
}
