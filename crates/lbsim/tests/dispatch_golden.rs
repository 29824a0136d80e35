//! Golden outcomes for the dispatch tier. A run is "a pure function of
//! `(scenario, dispatcher)`"; this pins the function per (preset × policy ×
//! scan engine). Every row of `tests/golden/dispatch.txt` was captured at
//! the commit *before* the engine started keeping the fleet as
//! event-maintained columns and the batch executor started borrowing them,
//! so a change that moves any `LbMetrics` field, a single pick anywhere in
//! a run (the pick log is hashed whole), or the latched `first_error` —
//! its faulting `pc` included — fails here with the first differing row.
//!
//! The policies cover each path through the host and the executor: the
//! `decide-lb` policy (a time-derived column, a uniform sub-expression and
//! a per-row division), plain event-driven columns, an event-driven mix, a
//! score that is the same on every row (`req.size`, a constant), two
//! policies whose division faults on an idle fleet, and an `if(...)` policy
//! that takes the executor's row fallback.
//!
//! `score_calls` is deliberately not recorded: the engines disagreed on it
//! for a faulting pick at the capture commit (see `policy.rs`'s
//! `score_calls_count_rows_actually_scored`). The capture had two more
//! engines; their 128 rows left the file with them, the rest is untouched.
//!
//! To re-capture after an *intended* behaviour change, run the test and copy
//! the file it names in the failure message over the golden.

use policysmith_dsl::{parse, Mode};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{
    run_phased, scenario, simulate, DispatchView, Dispatcher, ExprDispatcher, LbMetrics,
};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/dispatch.txt");

const POLICIES: [&str; 8] = [
    "server.work_left + req.size * 1000 / server.speed",
    "server.inflight",
    "server.inflight * 1000 / server.speed + server.queue_len * 50",
    "req.size",
    "7",
    "1000 / server.queue_len",
    "req.size / server.inflight",
    "if(server.queue_len > 8, 100000, server.ewma_latency / 100 + server.inflight * 10)",
];

const ENGINES: [&str; 2] = ["new", "interpreted"];

fn host(engine: &str, src: &str) -> ExprDispatcher {
    let expr = parse(src).expect("golden policies parse");
    match engine {
        "new" => ExprDispatcher::new(
            engine,
            CompiledPolicy::compile(&expr, Mode::Lb).expect("golden policies compile"),
        ),
        "interpreted" => ExprDispatcher::interpreted(engine, expr),
        _ => unreachable!("unknown engine {engine}"),
    }
}

/// Hashes the pick sequence (FNV-1a over each pick's little-endian bytes).
struct PickLog {
    inner: ExprDispatcher,
    hash: u64,
    picks: u64,
}

impl PickLog {
    fn new(inner: ExprDispatcher) -> Self {
        PickLog { inner, hash: 0xcbf2_9ce4_8422_2325, picks: 0 }
    }
}

impl Dispatcher for PickLog {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        let p = self.inner.pick(view);
        for b in (p as u32).to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.picks += 1;
        p
    }
}

fn row(out: &mut String, label: &str, d: &PickLog, metrics: &[&LbMetrics]) {
    write!(out, "{label} picks={} hash={:016x} first_error=", d.picks, d.hash).unwrap();
    match d.inner.first_error() {
        None => out.push_str("none"),
        Some(e) => write!(out, "{e:?}").unwrap(),
    }
    for m in metrics {
        write!(out, " {m:?}").unwrap();
    }
    out.push('\n');
}

fn outcomes() -> String {
    let mut out = String::new();
    let phases = scenario::slow_node_onset_phases();
    for (p, src) in POLICIES.iter().enumerate() {
        for engine in ENGINES {
            for sc in scenario::all_presets() {
                let mut d = PickLog::new(host(engine, src));
                let m = simulate(&sc, &mut d);
                row(&mut out, &format!("{}/p{p}/{engine}", sc.name), &d, &[&m]);
            }
            let mut d = PickLog::new(host(engine, src));
            let pm = run_phased(&phases, &mut d);
            let mut metrics = vec![&pm.combined];
            metrics.extend(&pm.per_phase);
            row(&mut out, &format!("phased/p{p}/{engine} at={:?}", pm.boundaries_us), &d, &metrics);
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
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("dispatch.actual.txt");
    std::fs::write(&dump, &actual).expect("write the actual outcomes next to the test binary");
    let (a, g) = actual
        .lines()
        .zip(GOLDEN.lines())
        .find(|(a, g)| a != g)
        .unwrap_or(("<row count differs>", "<row count differs>"));
    panic!(
        "dispatch outcomes moved.\n  golden: {g}\n  actual: {a}\nfull actual output: {}",
        dump.display()
    );
}
