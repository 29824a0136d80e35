//! Golden outcomes for the cache simulator. One `simulate` run is "a pure
//! function of `(trace, capacity, policy)`"; this pins the function. Every
//! row of `tests/golden/cachesim_outcomes.txt` was captured at the commit
//! before the engine, the rank index and the aggregate tracker were
//! re-addressed by slot and the lowerer learnt instruction selection, so a
//! change that moves any `SimResult` field, the evaluation count or the
//! fault latch — for plain, `hist.*`, percentile, faulting and all-ties
//! expressions, compiled and interpreted, at an eviction-heavy and an
//! ordinary cache size — fails here with the first differing row. The
//! baseline rows pin the engine for policies that address objects by id,
//! and each of the sixteen built-in baselines' own bookkeeping.
//!
//! A fault is recorded by kind, not by text: the VM's message carries the
//! faulting instruction's index, which belongs to the lowering.
//!
//! To re-capture after an *intended* behaviour change, run the test and copy
//! the file it names in the failure message over the golden.

use policysmith::cachesim::{policies, Cache, PriorityPolicy, LISTING1_SOURCE};
use policysmith::dsl::{self, EvalError, Mode};
use policysmith::kbpf::{CompiledPolicy, RuntimeFault, VmError};
use policysmith::traces::{cloudphysics, footprint_bytes, Trace};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/cachesim_outcomes.txt");

const EXPRESSIONS: [&str; 12] = [
    "obj.last_access",
    "obj.count",
    "1",
    "obj.count * 20 - obj.age / 300 - obj.size / 500",
    "obj.count * 3 + if(obj.count < 5, -36, 0)",
    "if(hist.contains, hist.count * 10 + 50, 0) + obj.last_access",
    "if(hist.contains && hist.time_since_evict < 5000, hist.age_at_evict, 0 - 40) + obj.count * 8",
    "if(obj.size > sizes.p75, 0 - obj.age, obj.count * counts.p50)",
    "if(obj.age > ages.p90, 0, obj.count) * 64 + obj.last_access / 64",
    "clamp(obj.count, 1, 8) * 1000 - min(obj.age, ages.p50) + (obj.size < sizes.p25)",
    "100 / (cache.objects - 3)",
    LISTING1_SOURCE,
];

const DRAWS: [usize; 3] = [7, 42, 89];
const REQUESTS: usize = 20_000;
/// Cache sizes as a share of the trace's footprint, in percent.
const SIZES_PCT: [u64; 2] = [1, 10];
/// Every built-in baseline; the first four were pinned first, and the rest
/// follow them so those rows keep their place.
const BASELINES: [&str; 16] = [
    "FIFO", "LRU", "S3-FIFO", "LIRS", "GDSF", "SIEVE", "LHD", "CACHEUS", "FIFO-Re", "LeCaR",
    "SR-LFU", "CR-LRU", "MRU", "LFU", "ARC", "TwoQ",
];

fn fault_kind(fault: Option<&RuntimeFault>) -> &'static str {
    match fault {
        None => "none",
        Some(RuntimeFault::Vm(VmError::DivByZero { .. }))
        | Some(RuntimeFault::Interp(EvalError::DivByZero)) => "div-by-zero",
    }
}

fn host_row(out: &mut String, label: &str, trace: &Trace, capacity: u64, host: PriorityPolicy) {
    let mut cache = Cache::new(capacity, host);
    let result = cache.run(trace);
    writeln!(
        out,
        "{label} {result:?} evaluations={} first_error={}",
        cache.policy.evaluations(),
        fault_kind(cache.policy.first_error()),
    )
    .unwrap();
}

fn outcomes() -> String {
    let mut out = String::new();
    for draw in DRAWS {
        let trace = cloudphysics().trace(draw, REQUESTS);
        let footprint = footprint_bytes(&trace);
        for pct in SIZES_PCT {
            let capacity = (footprint * pct / 100).max(1);
            let at = format!("w{draw:02}/{pct}%");
            for (i, src) in EXPRESSIONS.iter().enumerate() {
                let expr = dsl::parse(src).expect("golden expressions parse");
                let compiled = CompiledPolicy::compile(&expr, Mode::Cache)
                    .expect("golden expressions compile for the cache template");
                let vm = PriorityPolicy::new("vm", compiled);
                host_row(&mut out, &format!("{at}/e{i:02}/vm"), &trace, capacity, vm);
                let interp = PriorityPolicy::interpreted("interp", expr);
                host_row(&mut out, &format!("{at}/e{i:02}/interp"), &trace, capacity, interp);
            }
            for name in BASELINES {
                let policy = policies::by_name(name).expect("a built-in baseline");
                let result = Cache::new(capacity, policy).run(&trace);
                writeln!(out, "{at}/{name} {result:?}").unwrap();
            }
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
    let dump =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cachesim_outcomes.actual.txt");
    std::fs::write(&dump, &actual).expect("write the actual outcomes next to the test binary");
    let (a, g) = actual
        .lines()
        .zip(GOLDEN.lines())
        .find(|(a, g)| a != g)
        .unwrap_or(("<row count differs>", "<row count differs>"));
    panic!(
        "cachesim outcomes moved.\n  golden: {g}\n  actual: {a}\nfull actual output: {}",
        dump.display()
    );
}
