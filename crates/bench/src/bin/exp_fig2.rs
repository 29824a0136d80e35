//! FIG2 + TAB2: regenerate Figure 2 (miss-ratio improvement over FIFO,
//! both datasets, baselines + synthesized heuristics + oracles) and
//! Table 2 (fraction of traces where each synthesized heuristic beats all
//! fourteen baselines).
//!
//! Usage: `exp_fig2 [--fast] [--requests N] [--seed N]`

use policysmith_bench::{
    improvement_matrix, summarize, synthesize_for_dataset, write_json, ExpOpts,
};
use policysmith_traces::{cloudphysics, msr};
use serde::Serialize;

#[derive(Serialize)]
struct Fig2Output {
    dataset: String,
    requests_per_trace: usize,
    heuristics: Vec<policysmith_bench::SynthesizedHeuristic>,
    policies: Vec<String>,
    means: Vec<f64>,
    table2_beats_all: Vec<(String, f64)>,
    b_oracle_mean: f64,
    ps_oracle_mean: f64,
}

fn main() {
    let opts = ExpOpts::from_args();
    // Contexts per the paper: w89 + three more CloudPhysics traces → A–D;
    // four MSR traces → W–Z; with each label's Table-2 percentage.
    let jobs = [
        (cloudphysics(), vec![89usize, 10, 40, 70], ["A", "B", "C", "D"], [48.0, 42.0, 14.0, 31.0]),
        (msr(), vec![3usize, 0, 7, 11], ["W", "X", "Y", "Z"], [57.0, 64.0, 57.0, 21.0]),
    ];

    for (ds, contexts, labels, paper_pct) in jobs {
        println!(
            "=== Figure 2: {} ({} traces, {} requests each) ===",
            ds.name, ds.count, opts.requests
        );
        println!("-- synthesizing heuristics {labels:?} on contexts {contexts:?} --");
        let synth = synthesize_for_dataset(&ds, &contexts, &labels, &opts);
        for (h, o) in &synth {
            println!(
                "  {} ({}): home improvement {:+.4}  [{} candidates, {:.0}s eval]",
                h.label, h.context, h.home_score, o.cost.candidates_evaluated, o.cost.eval_seconds,
            );
            println!("     {}", h.source);
        }
        let heuristics: Vec<_> = synth.iter().map(|(h, _)| h.clone()).collect();

        println!("-- sweeping all {} traces --", ds.count);
        let m = improvement_matrix(&ds, &heuristics, &opts);

        let n_base = policysmith_cachesim::policies::paper_baseline_names().len();
        let base_ixs: Vec<usize> = (0..n_base).collect();
        let all_ixs: Vec<usize> = (0..m.policies.len()).collect();

        // Figure 2 rendering: per-policy distribution, sorted by mean.
        let mut order: Vec<usize> = all_ixs.clone();
        order.sort_by(|&a, &b| m.mean(a).partial_cmp(&m.mean(b)).unwrap());
        println!("\npolicy        min      q1      mean    q3      max   (improvement over FIFO)");
        for &p in &order {
            let (min, q1, mean, q3, max) = summarize(&m.rows[p]);
            println!(
                "{:10} {:+.4} {:+.4}  {:+.4} {:+.4} {:+.4}",
                m.policies[p], min, q1, mean, q3, max
            );
        }
        let b_oracle = m.oracle(&base_ixs);
        let ps_oracle = m.oracle(&all_ixs);
        let (_, _, b_mean, _, _) = summarize(&b_oracle);
        let (_, _, ps_mean, _, _) = summarize(&ps_oracle);
        println!(
            "{:10}                 {:+.4}        (best baseline per trace)",
            "B-Oracle", b_mean
        );
        println!(
            "{:10}                 {:+.4}        (baselines + PolicySmith)",
            "PS-Oracle", ps_mean
        );
        println!(
            "PS-Oracle gain over B-Oracle: {:+.4} (paper: ≈ +0.02 over FIFO-relative improvement)",
            ps_mean - b_mean
        );

        // Table 2.
        println!(
            "\n=== Table 2: % of {} traces where heuristic beats ALL 14 baselines ===",
            ds.name
        );
        let mut table2 = Vec::new();
        for (i, h) in heuristics.iter().enumerate() {
            let frac = m.beats_all_fraction(n_base + i, &base_ixs);
            println!("  {}: measured {:.0}%   paper {:.0}%", h.label, frac * 100.0, paper_pct[i]);
            table2.push((h.label.clone(), frac));
        }

        write_json(
            &format!("fig2_{}", ds.name),
            &Fig2Output {
                dataset: ds.name.to_string(),
                requests_per_trace: opts.requests,
                heuristics,
                policies: m.policies.clone(),
                means: all_ixs.iter().map(|&p| m.mean(p)).collect(),
                table2_beats_all: table2,
                b_oracle_mean: b_mean,
                ps_oracle_mean: ps_mean,
            },
        );
        println!();
    }
}
