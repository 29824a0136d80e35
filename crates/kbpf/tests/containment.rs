//! Containment: what [`analyze`] proves about a verified program holds on
//! every run of it, instruction by instruction — not just "it does not
//! fault". A transfer that is too narrow shows here even when the run it
//! mis-bounds ends without a fault and with the right result.
//!
//! Every program the verdict golden's `MockLlm` corpus compiles to (all
//! four modes) is run by the reference stepper (`stepper/mod.rs`),
//! independent of the VM, on contexts made of each slot's range edges,
//! 0 and ±1 (where in range), plus seeded draws. Each run must end as
//! `execute_verified`'s does, with the same result or the same
//! `DivByZero { pc }`, and leave the same map.
//!
//! For a fully verified program, also: before each executed instruction,
//! every register the analysis calls initialized and every map slot must
//! lie inside that pc's in-state interval, and the result inside the
//! proved `r0`. A [`Verification::MayFault`] program has no in-states to
//! hold it to, since the analysis stops at the first division it cannot
//! prove.
//!
//! The corpus's contexts drive no immediate-form operation to an `i64`
//! rail, so a handful of hand-written sources do: `SubImm`, `AddImm`,
//! `MulImm` and `Neg` each saturate at an in-range context, under the
//! same checks. A VM that wraps any of them fails here.
//!
//! [`Verification::MayFault`]: policysmith_kbpf::Verification::MayFault

mod mock_corpus;
mod stepper;

use policysmith_dsl::Mode;
use policysmith_kbpf::{
    analyze, execute_verified, AbsState, CompiledPolicy, Insn, Op, Program, VmError, REG_COUNT,
    SPILL_SLOTS,
};
use stepper::{step, Regs};

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

/// Run `src`'s program `prog` on `ctx` from the map `start` in both the
/// stepper and the VM, and demand the same ending and the same map.
fn same_as_the_vm(
    src: &str,
    prog: &Program,
    ctx: &[i64],
    start: &[i64],
    before: impl FnMut(usize, &Regs, &[i64]),
) -> Result<i64, VmError> {
    let mut map = start.to_vec();
    let got = step(prog, ctx, &mut map, before);
    let mut vm_map = start.to_vec();
    let vm = execute_verified(prog, ctx, &mut vm_map);
    assert_eq!(vm, got, "`{src}` on ctx {ctx:?}: the VM disagrees\n{prog}");
    assert_eq!(vm_map, map, "`{src}` on ctx {ctx:?}: the VM left another map\n{prog}");
    got
}

/// The map a run starts from: the map persists across runs, so it may
/// hold anything.
fn random_map(rng: &mut Rng) -> Vec<i64> {
    (0..SPILL_SLOTS).map(|_| rng.next() as i64).collect()
}

/// Run a fully verified `policy` (compiled from `src`) on its contexts in
/// the stepper and the VM, holding every executed state to the analysis's
/// in-state and the result to the proved `r0`. Returns the results and
/// adds the steps taken to `steps`.
fn contained_runs(
    mode: Mode,
    src: &str,
    policy: &CompiledPolicy,
    rng: &mut Rng,
    steps: &mut u64,
) -> Vec<i64> {
    let prog = policy.program();
    let env = policy.layout().verify_env();
    let analysis = analyze(prog, &env).expect("compile verified it");
    let mut results = Vec::new();
    for ctx in contexts(&env.ctx_ranges, 8, rng) {
        let start = random_map(rng);
        let got = same_as_the_vm(src, prog, &ctx, &start, |pc, regs, map| {
            *steps += 1;
            let st = analysis.in_states[pc].as_ref().unwrap_or_else(|| {
                panic!("{mode:?} `{src}`: pc {pc} ran but was proved unreachable")
            });
            if let Some(why) = escape(pc, st, regs, map) {
                panic!("{mode:?} `{src}` on ctx {ctx:?}: {why}\n{prog}");
            }
        });
        let r0 = got.unwrap_or_else(|e| panic!("{mode:?} `{src}` on ctx {ctx:?}: {e}"));
        assert!(analysis.r0.contains(r0), "{mode:?} `{src}`: r0 {r0} outside the proof");
        results.push(r0);
    }
    results
}

#[test]
fn every_executed_state_lies_inside_the_analysis() {
    let mut rng = Rng(0xc0_77a1_4e47);
    let (mut programs, mut runs, mut steps) = (0, 0, 0u64);
    for mode in Mode::ALL {
        for src in mock_corpus::sources(mode) {
            let Ok(policy) = CompiledPolicy::from_source(&src, mode) else { continue };
            if policy.may_fault() {
                continue; // no in-states past the first unproved division
            }
            programs += 1;
            runs += contained_runs(mode, &src, &policy, &mut rng, &mut steps).len();
        }
    }
    // the suite is not vacuous
    assert!(programs > 2_000, "only {programs} verified programs");
    assert!(steps > 10 * runs as u64, "{steps} steps over {runs} runs");
}

/// The corpus's contexts saturate no immediate-form operation, so these
/// hand-written sources do: at an in-range context (`obj.count` is 0, 1 or
/// larger), the last operation before `exit` saturates to the named rail.
/// A VM that wraps instead, or a transfer that forgets the rail, fails
/// here. `Neg` reaches only `i64::MAX` (from `i64::MIN`): `-i64::MAX` is
/// `i64::MIN + 1`.
#[test]
fn immediate_forms_saturate_to_both_rails() {
    const CASES: [(&str, Op, i64); 7] = [
        ("obj.count - 9223372036854775807 - 9", Op::SubImm, i64::MIN),
        ("obj.count + 9223372036854775807 - -9", Op::SubImm, i64::MAX),
        ("obj.count + 9223372036854775807", Op::AddImm, i64::MAX),
        ("obj.count + -9223372036854775807 + -9", Op::AddImm, i64::MIN),
        ("obj.count * 9223372036854775807", Op::MulImm, i64::MAX),
        ("obj.count * -9223372036854775807", Op::MulImm, i64::MIN),
        ("-(obj.count - 9223372036854775807 - 9)", Op::Neg, i64::MAX),
    ];
    let mut rng = Rng(0x5a7_2a11);
    let mut steps = 0;
    for (src, op, rail) in CASES {
        let policy = CompiledPolicy::from_source(src, Mode::Cache).unwrap();
        assert!(!policy.may_fault(), "`{src}` is fully verified");
        let insns = &policy.program().insns;
        assert_eq!(insns[insns.len() - 2].op, op, "`{src}`\n{}", policy.program());
        let results = contained_runs(Mode::Cache, src, &policy, &mut rng, &mut steps);
        assert!(results.contains(&rail), "`{src}` never reached {rail}: {results:?}");
    }
}

#[test]
fn may_fault_programs_end_as_the_vm_does() {
    let mut rng = Rng(0x3a7f_a017);
    let (mut programs, mut runs, mut faults) = (0, 0, 0);
    for mode in Mode::ALL {
        for src in mock_corpus::sources(mode) {
            let Ok(policy) = CompiledPolicy::from_source(&src, mode) else { continue };
            if !policy.may_fault() {
                continue;
            }
            let env = policy.layout().verify_env();
            programs += 1;
            for ctx in contexts(&env.ctx_ranges, 8, &mut rng) {
                let start = random_map(&mut rng);
                let got = same_as_the_vm(&src, policy.program(), &ctx, &start, |_, _, _| {});
                faults += usize::from(got.is_err());
                runs += 1;
            }
        }
    }
    // the suite is not vacuous: both endings occur
    assert!(programs > 300, "only {programs} may-fault programs");
    assert!(faults > 0 && faults < runs, "{faults} of {runs} runs faulted");
}

#[test]
#[should_panic(expected = "a backward jump")]
fn the_stepper_refuses_a_backward_jump() {
    let prog = Program {
        insns: vec![
            Insn::new(Op::MovImm, 0, 0, 1),
            Insn { op: Op::Ja, dst: 0, src: 0, imm: 0, off: -2 },
            Insn::new(Op::Exit, 0, 0, 0),
        ],
    };
    let _ = step(&prog, &[], &mut [], |_, _, _| {});
}
