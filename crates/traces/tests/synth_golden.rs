//! Golden outcomes for the trace synthesizer. A trace is "a pure function
//! of `(params, seed, n)`"; this pins the function. Every row of
//! `golden/synth_outcomes.txt` was captured at the commit before
//! `generate` indexed its recency stack with a hash set and
//! `footprint_bytes` switched to the id hasher, so a change that moves any
//! emitted request — its time, object, size or op — the number of distinct
//! objects, or the footprint fails here with the first differing row.
//!
//! Rows: every dataset trace (105 CloudPhysics-like, 14 MSR-like) at
//! 3 000 and 60 000 requests (`exp_paper`'s default), then hand-picked
//! parameters that reach the generator's corners: a universe smaller than
//! the 512-entry recency stack, stack draws deep enough to reach its
//! bottom, churn every 1 000 requests, and long scans and loops.
//!
//! To re-capture after an *intended* behaviour change, run the test and copy
//! the file it names in the failure message over the golden.

use policysmith_traces::{
    cloudphysics, footprint_bytes, generate, msr, OpKind, Trace, WorkloadParams,
};
use std::collections::HashSet;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/synth_outcomes.txt");

const DATASET_REQUESTS: [usize; 2] = [3_000, 60_000];
const PICKED_REQUESTS: usize = 60_000;
const PICKED_SEEDS: [u64; 2] = [1, 0xfeed];

/// Parameters chosen to reach the corners the dataset draws rarely do.
fn picked() -> Vec<(&'static str, WorkloadParams)> {
    let base = WorkloadParams::default();
    vec![
        ("default", base.clone()),
        // every object fits on the recency stack
        ("tiny-universe", WorkloadParams { objects: 300, p_stack: 0.5, ..base.clone() }),
        ("one-object", WorkloadParams { objects: 1, churn_interval: 0, ..base.clone() }),
        // stack draws reach depth 511
        (
            "deep-stack",
            WorkloadParams { p_stack: 0.9, stack_geom_p: 0.002, objects: 2_000, ..base.clone() },
        ),
        ("churn-1000", WorkloadParams { churn_interval: 1_000, churn_frac: 0.3, ..base.clone() }),
        (
            "long-scans",
            WorkloadParams {
                p_scan_start: 0.01,
                scan_len: (1, 20_000),
                p_stack: 0.6,
                ..base.clone()
            },
        ),
        (
            "long-loops",
            WorkloadParams {
                p_loop_start: 0.005,
                loop_len: (1, 3_000),
                loop_laps: (1, 8),
                p_stack: 0.6,
                ..base.clone()
            },
        ),
        (
            "everything",
            WorkloadParams {
                objects: 400,
                p_stack: 0.8,
                stack_geom_p: 0.004,
                p_scan_start: 0.002,
                scan_len: (1, 700),
                p_loop_start: 0.002,
                loop_len: (1, 600),
                loop_laps: (1, 4),
                churn_interval: 1_000,
                churn_frac: 0.5,
                ..base
            },
        ),
    ]
}

/// `name n hash distinct footprint`, the hash an FNV-1a over each
/// request's `(time_us, obj, size, op)` in little-endian bytes.
fn row(out: &mut String, trace: &Trace) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut distinct = HashSet::new();
    for r in &trace.requests {
        eat(&r.time_us.to_le_bytes());
        eat(&r.obj.to_le_bytes());
        eat(&r.size.to_le_bytes());
        eat(&[matches!(r.op, OpKind::Write) as u8]);
        distinct.insert(r.obj);
    }
    writeln!(
        out,
        "{} n={} hash={hash:016x} distinct={} footprint={}",
        trace.name,
        trace.len(),
        distinct.len(),
        footprint_bytes(trace)
    )
    .unwrap();
}

fn outcomes() -> String {
    let mut out = String::new();
    for spec in [cloudphysics(), msr()] {
        for n in DATASET_REQUESTS {
            for idx in spec.indices() {
                row(&mut out, &spec.trace(idx, n));
            }
        }
    }
    for (name, params) in picked() {
        for seed in PICKED_SEEDS {
            row(&mut out, &generate(&format!("{name}/s{seed}"), &params, seed, PICKED_REQUESTS));
        }
    }
    out
}

#[test]
fn outcomes_match_the_golden_bit_for_bit() {
    let actual = outcomes();
    if actual == GOLDEN {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("synth_outcomes.actual.txt");
    std::fs::write(&dump, &actual).expect("write the actual outcomes next to the test binary");
    let (a, g) = actual
        .lines()
        .zip(GOLDEN.lines())
        .find(|(a, g)| a != g)
        .unwrap_or(("<row count differs>", "<row count differs>"));
    panic!(
        "synth outcomes moved.\n  golden: {g}\n  actual: {a}\nfull actual output: {}",
        dump.display()
    );
}
