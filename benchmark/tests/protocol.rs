//! The protocol, checked end to end on real (short) runs: inputs are a
//! pure function of the seed, every name a run prints is declared in
//! `BENCHMARK.json`, a corrupted reference decision is caught, and the
//! command it is caught by exits non-zero.

use policysmith::lbsim::{LbRequest, Scenario};
use policysmith::traces::Trace;
use policysmith_benchmark::catalog::Catalog;
use policysmith_benchmark::harness::{cycles_for, report, RunCfg};
use policysmith_benchmark::stats::fnv1a;
use policysmith_benchmark::workloads::{
    self, compile_storm, decide_cache, decide_lb, search_cache, search_net, serve_drift,
    serve_steady,
};
use std::process::Command;

fn trace_bytes(t: &Trace) -> Vec<u8> {
    t.requests
        .iter()
        .flat_map(|r| [r.time_us, r.obj, r.size as u64])
        .flat_map(u64::to_le_bytes)
        .collect()
}

fn request_bytes(reqs: &[LbRequest]) -> Vec<u8> {
    reqs.iter().flat_map(|r| [r.arrival_us, r.size]).flat_map(u64::to_le_bytes).collect()
}

fn phase_bytes(phases: &[Scenario]) -> Vec<u8> {
    phases.iter().flat_map(|p| request_bytes(&p.requests()[..2_000])).collect()
}

/// Hash of the inputs each workload generates for `seed` (scaled down).
fn input_hashes(seed: u64) -> Vec<(&'static str, u64)> {
    vec![
        (
            "search-cache",
            fnv1a(
                search_cache::inputs(seed, 3_000)
                    .contexts
                    .iter()
                    .flat_map(|c| trace_bytes(&c.trace)),
            ),
        ),
        (
            "compile-storm",
            fnv1a(
                compile_storm::corpus(seed, 128)
                    .corpus
                    .iter()
                    .flat_map(|(_, s)| s.bytes().collect::<Vec<_>>()),
            ),
        ),
        ("decide-cache", fnv1a(trace_bytes(&decide_cache::inputs(seed, 20_000).trace))),
        ("decide-lb", fnv1a(request_bytes(&decide_lb::inputs(seed, 16, 5_000).requests))),
        ("serve-steady", fnv1a(phase_bytes(&serve_steady::inputs(seed, 2, 2_000).shards[0]))),
        ("serve-drift", fnv1a(phase_bytes(&serve_drift::inputs(seed, 2).shards[0]))),
    ]
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    let (a, again, b) = (input_hashes(42), input_hashes(42), input_hashes(43));
    assert_eq!(a, again, "same seed, byte-identical inputs");
    for ((w, x), (_, y)) in a.iter().zip(&b) {
        assert_ne!(x, y, "{w}: another seed must give other inputs");
    }
}

fn legal(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every workload, untraced and traced, for a fraction of a second: one
/// cycle of every region runs either way.
#[test]
fn every_printed_name_is_declared_and_every_run_is_correct() {
    let catalog = Catalog::load();
    assert_eq!(
        workloads::NAMES.to_vec(),
        catalog.workloads.iter().map(|(w, _)| w.as_str()).collect::<Vec<_>>(),
        "the binary and BENCHMARK.json list the same workloads"
    );
    for w in workloads::NAMES {
        for trace in [false, true] {
            let cfg = RunCfg::new(w, 7, 0.05, trace);
            let out = workloads::run(&cfg).unwrap();
            assert!(out.attempted > 0, "{w}: nothing attempted");
            assert_eq!((out.failed, &out.problems), (0, &vec![]), "{w} trace={trace}");
            assert_eq!(out.exit_code(), 0);
            for name in out.values.keys() {
                assert!(legal(name), "{w}: illegal metric name `{name}`");
                assert!(catalog.find(name).is_some(), "{w}: `{name}` is not in BENCHMARK.json");
            }
            // and the contract object can be built from it
            report(&cfg, &catalog, &out).unwrap_or_else(|e| panic!("{w} trace={trace}: {e}"));
            if trace {
                for must in ["reconcile.residual_share", "trace.overhead_share", "quality_score"] {
                    let defined = out.values.contains_key(must);
                    assert!(
                        defined || (must == "quality_score" && w == "compile-storm"),
                        "{w}: no {must}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_corrupted_reference_decision_fails_the_run() {
    for w in
        ["decide-lb", "decide-cache", "compile-storm", "serve-steady", "search-cache", "search-net"]
    {
        let mut cfg = RunCfg::new(w, 11, 0.05, false);
        cfg.corrupt = true;
        let out = workloads::run(&cfg).unwrap();
        assert!(out.failed_share() > 0.0, "{w}: the check did not bite");
        assert!(!out.correct());
        assert_ne!(out.exit_code(), 0, "{w}: a failed check must fail the command");
    }
    // the verification itself, on small inputs: exactly the corrupted decision
    assert_eq!(decide_lb::verify(&decide_lb::inputs(3, 16, 4_000), false), 0);
    assert_eq!(decide_lb::verify(&decide_lb::inputs(3, 16, 4_000), true), 1);
    assert_eq!(decide_cache::verify(&decide_cache::inputs(3, 40_000), false), 0);
    assert_eq!(decide_cache::verify(&decide_cache::inputs(3, 40_000), true), 1);
}

/// The command itself: the same run exits 0, and with one reference
/// decision corrupted (`--self-test-corrupt`) prints `"correct":false` as
/// its result and exits 1.
#[test]
fn the_command_exits_non_zero_when_a_check_fails() {
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_psbench"))
            .args(["--workload", "decide-cache", "--seed", "11", "--seconds", "0.05"])
            .args(extra)
            .output()
            .expect("psbench runs");
        let stdout = String::from_utf8(out.stdout).expect("psbench prints text");
        (out.status.code(), stdout.lines().last().unwrap_or_default().to_string())
    };
    let (code, result) = run(&[]);
    assert_eq!(code, Some(0), "{result}");
    assert!(result.contains("\"correct\":true") && result.contains("\"failed\":0"), "{result}");
    let (code, result) = run(&["--self-test-corrupt"]);
    assert_eq!(code, Some(1), "a failed check must fail the command: {result}");
    assert!(result.contains("\"correct\":false") && result.contains("\"failed\":1"), "{result}");
}

/// The fastest of more repeats is lower: at the driver's `--seconds` every
/// workload repeats every kind of unit at least three times, the same
/// number at every commit.
#[test]
fn the_drivers_run_repeats_every_unit_at_least_three_times() {
    let seconds = Catalog::load().run_seconds;
    let cycle_s = [
        search_cache::CYCLE_S,
        search_net::CYCLE_S,
        compile_storm::CYCLE_S,
        decide_cache::CYCLE_S,
        decide_lb::CYCLE_S,
        serve_steady::CYCLE_S,
        serve_drift::CYCLE_S,
    ];
    for (w, cycle_s) in workloads::NAMES.iter().zip(cycle_s) {
        assert!(cycles_for(seconds, cycle_s) >= 3, "{w}: {cycle_s} s per cycle");
    }
}
