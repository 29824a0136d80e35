//! LB: the third-workload experiment — synthesize a dispatch policy per
//! scenario preset, sweep every preset with every baseline and every
//! synthesized policy, and report the cross-scenario improvement matrix
//! (the load-balancing analogue of Figure 2 / Table 2). A second section
//! sweeps fleet sizes into the hundreds of servers and records quality
//! and scoring work per pick (per-pick time at 256 servers is the
//! benchmark's `decide-lb` workload, `lbsim.pick_ns`).
//!
//! Usage: `exp_lb [--fast] [--seed N]`

use policysmith_bench::{write_json, ExpOpts};
use policysmith_core::search::{run_search, SearchConfig};
use policysmith_core::studies::lb::LbStudy;
use policysmith_gen::{GenConfig, MockLlm};
use policysmith_lbsim::workload::{ArrivalProcess, BoundedPareto, WorkloadCfg};
use policysmith_lbsim::{
    lb_baseline_names, scenario, sim, Dispatcher, ExprDispatcher, LbMetrics, Scenario, ServerCfg,
};

fn main() {
    let opts = ExpOpts::from_args();
    let cfg = if opts.fast {
        SearchConfig { rounds: 5, candidates_per_round: 10, ..SearchConfig::paper_cache() }
    } else {
        SearchConfig { rounds: 12, candidates_per_round: 20, ..SearchConfig::paper_cache() }
    };

    let presets = scenario::all_presets();
    let studies: Vec<LbStudy> = presets.iter().map(LbStudy::new).collect();

    // -- synthesize one policy per context --
    let mut synthesized: Vec<(String, String, f64)> = Vec::new(); // (label, source, home score)
    for (i, study) in studies.iter().enumerate() {
        let label = format!("LB-{}", (b'A' + i as u8) as char);
        let mut llm = MockLlm::new(GenConfig::lb_defaults(
            opts.seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15),
        ));
        let outcome = run_search(study, &mut llm, &cfg);
        println!(
            "{label} ({}): home improvement {:+.4}  [{} candidates]",
            study.scenario().name,
            outcome.best.score,
            outcome.all.len()
        );
        println!("     score(server, req) = {}", outcome.best.source);
        synthesized.push((label, outcome.best.source.clone(), outcome.best.score));
    }

    // -- improvement matrix: policies × scenarios --
    let mut policy_names: Vec<String> = lb_baseline_names().iter().map(|s| s.to_string()).collect();
    policy_names.extend(synthesized.iter().map(|(l, _, _)| l.clone()));

    let mut rows: Vec<Vec<f64>> = Vec::new();
    for name in lb_baseline_names() {
        rows.push(studies.iter().map(|s| s.baseline_improvement(name)).collect());
    }
    for (label, source, _) in &synthesized {
        let expr = policysmith_dsl::parse(source).expect("stored source parses");
        rows.push(
            studies
                .iter()
                .map(|s| {
                    let mut host = ExprDispatcher::from_expr(label, &expr);
                    s.improvement(&mut host)
                })
                .collect(),
        );
    }

    println!("\n=== improvement over round-robin, per scenario ===");
    print!("{:16}", "policy");
    for sc in &presets {
        print!("{:>18}", sc.name.trim_start_matches("lb/"));
    }
    println!();
    for (p, name) in policy_names.iter().enumerate() {
        print!("{name:16}");
        for v in &rows[p] {
            print!("{:>17.1}%", v * 100.0);
        }
        println!();
    }

    let fleet_sweep = fleet_size_sweep(&opts);

    write_json(
        "lb",
        &serde_json::json!({
            "scenarios": presets.iter().map(|s| s.name.clone()).collect::<Vec<_>>(),
            "rr_mean_slowdown": studies.iter().map(|s| s.rr_slowdown()).collect::<Vec<_>>(),
            "policies": policy_names,
            "rows": rows,
            "synthesized": synthesized,
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
