//! Golden compile verdicts. The lowerer may pick different instructions for
//! the same source; it may not change what the pipeline *says* about it.
//! `tests/golden/verdicts.txt` records, for 2 000 seeded `MockLlm` sources
//! per template mode (the calibrated fault mix, with earlier sources fed
//! back as exemplars so mutation and crossover run), how far each got —
//!
//! * `p` parse error, `c` template check, `l` lowering, `r` verifier
//!   rejection (the stage a candidate died in),
//! * `F` accepted as may-fault, `V` fully verified,
//!
//! — and a hash over the proved `r0` interval of every verified one. It was
//! captured at the commit before the lowerer learnt instruction selection.
//!
//! To re-capture after an *intended* change of verdicts, run the test and
//! copy the file it names in the failure message over the golden.

mod mock_corpus;

use mock_corpus::{sources, PER_MODE};
use policysmith_dsl::Mode;
use policysmith_kbpf::{CompileError, CompiledPolicy};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/verdicts.txt");

/// The verdict letter, and the proved `r0` bounds when there are any.
fn verdict(mode: Mode, src: &str) -> (char, Option<(i64, i64)>) {
    match CompiledPolicy::from_source(src, mode) {
        Err(CompileError::Parse(_)) => ('p', None),
        Err(CompileError::Check(_)) => ('c', None),
        Err(CompileError::Lower(_)) => ('l', None),
        Err(CompileError::Verify(_)) => ('r', None),
        Ok(p) if p.may_fault() => ('F', None),
        Ok(p) => ('V', p.r0_bounds().map(|r| (r.lo, r.hi))),
    }
}

fn fnv(h: &mut u64, v: i64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

fn verdicts() -> String {
    let mut out = String::new();
    for mode in Mode::ALL {
        let mut letters = String::with_capacity(PER_MODE);
        let mut r0_hash = 0xcbf2_9ce4_8422_2325u64;
        for src in sources(mode) {
            let (letter, r0) = verdict(mode, &src);
            letters.push(letter);
            if let Some((lo, hi)) = r0 {
                fnv(&mut r0_hash, lo);
                fnv(&mut r0_hash, hi);
            }
        }
        writeln!(out, "{mode:?} r0_hash={r0_hash:016x} {letters}").unwrap();
    }
    out
}

#[test]
fn verdicts_match_the_golden() {
    let actual = verdicts();
    if actual == GOLDEN {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("verdicts.actual.txt");
    std::fs::write(&dump, &actual).expect("write the actual verdicts next to the test binary");
    for (a, g) in actual.lines().zip(GOLDEN.lines()) {
        if a == g {
            continue;
        }
        let mode_name = a.split(' ').next().unwrap_or_default();
        let mode = Mode::ALL.into_iter().find(|m| format!("{m:?}") == mode_name);
        let (la, lg) = (a.rsplit(' ').next().unwrap(), g.rsplit(' ').next().unwrap());
        if let Some(i) = la.bytes().zip(lg.bytes()).position(|(x, y)| x != y) {
            let src = mode.map(|m| sources(m).swap_remove(i)).unwrap_or_default();
            panic!(
                "{mode_name} source #{i} `{src}`: verdict `{}` was `{}` in the golden.\n\
                 full actual output: {}",
                la.as_bytes()[i] as char,
                lg.as_bytes()[i] as char,
                dump.display()
            );
        }
        panic!(
            "{mode_name}: same verdicts, but a proved r0 interval moved.\n  golden: {}\n  \
             actual: {}\nfull actual output: {}",
            &g[..g.len() - lg.len()],
            &a[..a.len() - la.len()],
            dump.display()
        );
    }
    panic!("verdict rows differ in number from the golden; see {}", dump.display());
}
