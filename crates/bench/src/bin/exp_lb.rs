//! LB: the third-workload experiment — the load-balancing analogue of
//! Figure 2 / Table 2. One dispatch policy is synthesized per scenario
//! preset (its *home* context), then every baseline and every synthesized
//! policy is evaluated on every preset: the cross-scenario improvement
//! matrix. Its Table-2 statistics answer the §3.1 question for this
//! domain: how far does a context-specialized heuristic travel, and how
//! much does the library of all of them (the PS-Oracle row) buy an
//! adaptation system? A second section sweeps fleet sizes into the
//! hundreds of servers and records quality and scoring work per pick
//! (per-pick time at 256 servers is the benchmark's `decide-lb` workload,
//! `lbsim.pick_ns`).
//!
//! Usage: `exp_lb [--fast|--quick] [--seed N]`
//!
//! Writes `results/lb.json` (schema in `results/README.md`).

use policysmith_bench::{synthesize, write_json, ExpOpts, ImprovementMatrix};
use policysmith_core::studies::lb::LbStudy;
use policysmith_gen::GenConfig;
use policysmith_lbsim::workload::{ArrivalProcess, BoundedPareto, WorkloadCfg};
use policysmith_lbsim::{
    lb_baseline_names, scenario, sim, Dispatcher, ExprDispatcher, LbMetrics, Scenario, ServerCfg,
};

fn main() {
    let opts = ExpOpts::from_args();
    let cfg = opts.preset_search_cfg();
    let studies: Vec<LbStudy> = scenario::all_presets().iter().map(LbStudy::new).collect();
    let n_base = lb_baseline_names().len();

    // -- synthesize one policy per home context --
    let outcomes = synthesize(studies.iter().enumerate(), GenConfig::lb_defaults, &cfg, opts.seed);
    let synthesized: Vec<(String, String, f64)> = outcomes // (label, source, home score)
        .iter()
        .enumerate()
        .map(|(i, o)| {
            (format!("LB-{}", (b'A' + i as u8) as char), o.best.source.clone(), o.best.score)
        })
        .collect();
    for ((label, source, home), study) in synthesized.iter().zip(&studies) {
        println!(
            "{label} (home {}): {home:+.4} over RR   score(server, req) = {source}",
            study.scenario().name
        );
    }

    // -- the scenario × scenario matrix: every policy on every context --
    let exprs: Vec<_> = synthesized
        .iter()
        .map(|(_, source, _)| policysmith_dsl::parse(source).expect("stored source parses"))
        .collect();
    let names = lb_baseline_names().iter().map(|s| s.to_string());
    let names = names.chain(synthesized.iter().map(|(l, _, _)| l.clone())).collect();
    let matrix = ImprovementMatrix::sweep("lbsim", names, studies.len(), opts.threads, |t| {
        let s = &studies[t];
        let baselines = lb_baseline_names().iter().map(|name| s.baseline_improvement(name));
        let synthesized = synthesized
            .iter()
            .zip(&exprs)
            .map(|((label, ..), e)| s.improvement(&mut ExprDispatcher::from_expr(label, e)));
        (s.scenario().name.clone(), baselines.chain(synthesized).collect())
    });
    matrix.print_table("improvement over round-robin");

    // -- Table-2 statistics --
    let base_ixs: Vec<usize> = (0..n_base).collect();
    let synth_ixs: Vec<usize> = (n_base..matrix.policies.len()).collect();
    println!("\n=== generalization (Table-2 statistic) ===");
    let mut beats_all: Vec<(String, f64)> = Vec::new();
    for (i, (label, _, home)) in synthesized.iter().enumerate() {
        let p = n_base + i;
        let frac = matrix.beats_all_fraction(p, &base_ixs);
        let away: f64 =
            matrix.rows[p].iter().enumerate().filter(|&(t, _)| t != i).map(|(_, v)| v).sum::<f64>()
                / (studies.len() - 1) as f64;
        println!(
            "{label}: home {:+.1}%  mean-away {:+.1}%  beats all {} baselines on {:.0}% of scenarios",
            home * 100.0,
            away * 100.0,
            n_base,
            frac * 100.0
        );
        beats_all.push((label.clone(), frac));
    }
    let oracle = matrix.oracle(&synth_ixs);
    let oracle_mean: f64 = oracle.iter().sum::<f64>() / oracle.len() as f64;
    println!(
        "PS-Oracle (best stored policy per scenario — the library's value): mean {:+.1}%",
        oracle_mean * 100.0
    );

    let fleet_sweep = fleet_size_sweep(&opts);

    write_json(
        "lb",
        &serde_json::json!({
            "scenarios": matrix.trace_names,
            "rr_mean_slowdown": studies.iter().map(|s| s.rr_slowdown()).collect::<Vec<_>>(),
            "policies": matrix.policies,
            "rows": matrix.rows,
            "synthesized": synthesized,
            "beats_all_fraction": beats_all,
            "oracle": oracle,
            "search": { "rounds": cfg.rounds, "candidates_per_round": cfg.candidates_per_round,
                        "seed": opts.seed, "fast": opts.fast },
            "fleet_sweep": fleet_sweep,
        }),
    );
}

/// Sweep uniform fleets of 16/64/256 servers at ~72% offered load and
/// record quality (mean slowdown vs round-robin) and score calls per pick
/// for every classical baseline plus the canonical compiled scoring
/// policy.
fn fleet_size_sweep(opts: &ExpOpts) -> Vec<serde_json::Value> {
    const WORK_LEFT: &str = "server.work_left + req.size * 1000 / server.speed";
    let n_requests = if opts.fast { 10_000 } else { 30_000 };
    let mut out = Vec::new();
    println!("\n=== fleet-size sweep: quality and scoring work at scale ===");
    for &n_servers in &[16usize, 64, 256] {
        // ~72% load: rate = 0.72 × (n × speed 4 × 1000 work-units/s) /
        // mean request size (≈ 5.9, bounded-Pareto web default)
        let sc = Scenario {
            name: format!("lb/uniform-{n_servers}"),
            servers: (0..n_servers).map(|_| ServerCfg::new(4, 32)).collect(),
            workload: WorkloadCfg {
                arrivals: ArrivalProcess::Poisson { rate_per_sec: 488.0 * n_servers as f64 },
                sizes: BoundedPareto::web_default(),
                n: n_requests,
            },
            seed: 0xF1EE7 ^ n_servers as u64,
        };
        let requests = sc.requests();
        let rr =
            sim::run(&sc.servers, &requests, &mut policysmith_lbsim::dispatch::RoundRobin::new());
        let rr_slowdown = rr.mean_slowdown();
        println!("  {n_servers} servers (rr mean slowdown {rr_slowdown:.3}):");

        let mut policies = Vec::new();
        let mut record = |name: &str, m: &LbMetrics, score_calls_per_pick: f64| {
            let slowdown = m.mean_slowdown();
            println!(
                "    {name:>14}: slowdown {slowdown:>8.3}  {score_calls_per_pick:>6.1} score-calls/pick"
            );
            policies.push(serde_json::json!({
                "name": name,
                "mean_slowdown": slowdown,
                "improvement_over_rr": (rr_slowdown - slowdown) / rr_slowdown.max(1e-9),
                "picks": m.offered,
                "score_calls_per_pick": score_calls_per_pick,
            }));
        };
        for name in lb_baseline_names() {
            // analytic scoring cost: state-blind policies score nothing,
            // power-of-two scores its two samples, full scans score n
            let scored = match *name {
                "round-robin" | "random" => 0.0,
                "power-of-two" => 2.0,
                _ => n_servers as f64,
            };
            let mut d = policysmith_lbsim::by_name(name).unwrap();
            let m = sim::run(&sc.servers, &requests, &mut d);
            record(name, &m, scored);
        }
        // the expression host counts its actual VM executions
        let expr = policysmith_dsl::parse(WORK_LEFT).unwrap();
        let mut compiled = ExprDispatcher::from_expr("PS-work-left", &expr);
        let m = sim::run(&sc.servers, &requests, &mut compiled);
        let measured = compiled.score_calls() as f64 / compiled.picks().max(1) as f64;
        record(compiled.name(), &m, measured);

        out.push(serde_json::json!({
            "servers": n_servers,
            "requests": n_requests,
            "offered_load": sc.offered_load(),
            "rr_mean_slowdown": rr_slowdown,
            "policies": policies,
        }));
    }
    out
}
