//! CC-RANGE: reproduce the §5.0.3 behaviour-range measurement.
//!
//! "We evaluated the heuristics that compiled successfully on a 12 Mbps,
//! 20 ms delay emulated link. The resulting behaviors varied widely:
//! bandwidth utilizations ranged from 23% to 98%, and average queuing
//! delays spanned from 2 ms to 40 ms."
//!
//! Usage: `exp_cc_range [--fast] [--seed N]` — generates candidates,
//! verifies them, runs each verified program for 30 s (5 s with `--fast`)
//! on the paper link, and reports the utilization / queuing-delay spans
//! plus the classical baselines for reference.
//!
//! Exit status doubles as the CI guard: non-zero unless at least 50
//! candidates verify and their behaviours spread as widely as the paper's —
//! utilization from ≤ 30 % to ≥ 95 %, and a largest mean queuing delay of
//! 30–41 ms (the 1-BDP buffer drains in 40 ms, plus one serialization).
//! Two documented deviations at the low ends: MockLlm's slowest candidates
//! are rate-based ones stuck on their own 4-packet floor, which is 10 % of
//! this link where the paper's slowest reached 23 %, and such a window
//! queues for one serialization time, 1.0 ms, where the paper's emptiest
//! queue held 2 ms.

use policysmith_bench::{write_json, ExpOpts};
use policysmith_cc::{baselines, check_candidate, evaluate, KbpfCc};
use policysmith_dsl::Mode;
use policysmith_gen::{GenConfig, Generator, MockLlm, Prompt};

fn main() {
    let opts = ExpOpts::from_args();
    let duration_us: u64 = if opts.fast { 5_000_000 } else { 30_000_000 };
    let n = 100;

    let mut llm = MockLlm::new(GenConfig::kernel_defaults(opts.seed));
    let prompt = Prompt::new(Mode::Kernel);
    let verified: Vec<_> =
        llm.generate(&prompt, n).iter().filter_map(|src| check_candidate(src).ok()).collect();
    println!(
        "=== §5.0.3 behaviour range: {} verified candidates, {}s runs ===",
        verified.len(),
        duration_us / 1_000_000
    );

    let mut rows = Vec::new();
    let mut utils = Vec::new();
    let mut qdelays = Vec::new();
    for c in &verified {
        let m = evaluate(Box::new(KbpfCc::new(c.clone())), duration_us);
        utils.push(m.utilization);
        qdelays.push(m.mean_qdelay_us / 1_000.0);
        rows.push(serde_json::json!({
            "source": c.source,
            "utilization": m.utilization,
            "mean_qdelay_ms": m.mean_qdelay_us / 1_000.0,
            "loss_events": m.loss_events,
        }));
    }
    let fmin = |v: &[f64]| v.iter().cloned().fold(f64::MAX, f64::min);
    let fmax = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);
    let (util_min, util_max) = (fmin(&utils), fmax(&utils));
    let (qdelay_ms_min, qdelay_ms_max) = (fmin(&qdelays), fmax(&qdelays));
    println!(
        "bandwidth utilization : {:.0}% .. {:.0}%   (paper: 23% .. 98%)",
        util_min * 100.0,
        util_max * 100.0
    );
    println!(
        "avg queuing delay     : {qdelay_ms_min:.1} ms .. {qdelay_ms_max:.1} ms   (paper: 2 ms .. 40 ms)"
    );

    println!("\n-- classical baselines on the same link --");
    for cc in baselines::all_baselines() {
        let name = cc.name().to_string();
        let m = evaluate(cc, duration_us);
        println!(
            "{name:10} util {:5.1}%  qdelay {:5.1} ms  losses {}",
            m.utilization * 100.0,
            m.mean_qdelay_us / 1_000.0,
            m.loss_events
        );
    }

    let mut violations: Vec<String> = Vec::new();
    if verified.len() < 50 {
        violations.push(format!("only {} of {n} candidates verified (need 50)", verified.len()));
    }
    if util_max < 0.95 || util_min > 0.30 {
        violations.push(format!(
            "utilization spans {util_min:.2} .. {util_max:.2}; need ≤ 0.30 .. ≥ 0.95"
        ));
    }
    if !(30.0..=41.0).contains(&qdelay_ms_max) {
        violations.push(format!("largest mean queuing delay {qdelay_ms_max:.1} ms; need 30 .. 41"));
    }

    write_json(
        "cc_range",
        &serde_json::json!({
            "verified": verified.len(),
            "duration_us": duration_us,
            "utilization_min": util_min,
            "utilization_max": util_max,
            "qdelay_ms_min": qdelay_ms_min,
            "qdelay_ms_max": qdelay_ms_max,
            "candidates": rows,
            "paper": { "util": [0.23, 0.98], "qdelay_ms": [2.0, 40.0] },
            "violations": violations,
        }),
    );

    if !violations.is_empty() {
        eprintln!("\nREGRESSION GUARD FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("\nthe behaviour range is as wide as the paper's");
}
