//! LB: the third-workload experiment — synthesize a dispatch policy per
//! scenario preset, sweep every preset with every baseline and every
//! synthesized policy, and report the cross-scenario improvement matrix
//! (the load-balancing analogue of Figure 2 / Table 2). A second section
//! sweeps fleet sizes into the hundreds of servers and records
//! per-dispatch decision latency alongside quality — the scaling axis the
//! serving runtime (`exp_serve`) builds on.
//!
//! Usage: `exp_lb [--fast] [--seed N]`

use policysmith_bench::{write_json, ExpOpts};
use policysmith_core::search::{run_search, SearchConfig};
use policysmith_core::studies::lb::LbStudy;
use policysmith_gen::{GenConfig, MockLlm};
use policysmith_lbsim::workload::{ArrivalProcess, BoundedPareto, WorkloadCfg};
use policysmith_lbsim::{
    lb_baseline_names, scenario, sim, DispatchView, Dispatcher, ExprDispatcher, Scenario, ServerCfg,
};
use policysmith_obs::LatencyHistogram;
use std::time::Instant;

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

/// Per-pick timing wrapper: the per-dispatch decision latency includes
/// everything a policy does per decision (for scoring policies, one VM
/// execution per server — O(fleet) by construction).
struct Timed<D> {
    inner: D,
    hist: LatencyHistogram,
}

impl<D: Dispatcher> Dispatcher for Timed<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        let t0 = Instant::now();
        let p = self.inner.pick(view);
        self.hist.record(t0.elapsed().as_nanos() as u64);
        p
    }
}

/// Sweep uniform fleets of 16/64/256 servers at ~72% offered load and
/// measure both quality (mean slowdown vs round-robin) and per-dispatch
/// decision latency for every classical baseline plus the canonical
/// compiled scoring policy. Closes the ROADMAP's "fleet sizes into the
/// hundreds of servers" bullet and gives `exp_serve` its baseline column.
fn fleet_size_sweep(opts: &ExpOpts) -> Vec<serde_json::Value> {
    const WORK_LEFT: &str = "server.work_left + req.size * 1000 / server.speed";
    let n_requests = if opts.fast { 10_000 } else { 30_000 };
    let mut out = Vec::new();
    println!("\n=== fleet-size sweep: per-dispatch latency at scale ===");
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
        let mut measure = |name: &str, d: &mut dyn Dispatcher, score_calls_per_pick: f64| {
            let mut timed = Timed { inner: d, hist: LatencyHistogram::new() };
            let m = sim::run(&sc.servers, &requests, &mut timed);
            let h = &timed.hist;
            println!(
                "    {name:>14}: slowdown {:>8.3}  mean {:>6.0} ns  p50 {:>6} ns  p99 {:>7} ns",
                m.mean_slowdown(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99)
            );
            policies.push(serde_json::json!({
                "name": name,
                "mean_slowdown": m.mean_slowdown(),
                "improvement_over_rr": (rr_slowdown - m.mean_slowdown()) / rr_slowdown.max(1e-9),
                "picks": h.count(),
                "mean_ns": h.mean(),
                "p50_ns": h.quantile(0.50),
                "p99_ns": h.quantile(0.99),
                "p999_ns": h.quantile(0.999),
                "picks_per_sec": if h.mean() > 0.0 { 1e9 / h.mean() } else { 0.0 },
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
            measure(name, &mut d, scored);
        }
        let expr = policysmith_dsl::parse(WORK_LEFT).unwrap();
        let mut compiled = ExprDispatcher::from_expr("PS-work-left", &expr);
        measure("PS-work-left", &mut compiled, 0.0);
        // the expression host counts its actual VM executions — overwrite
        // the placeholder with the measured ratio
        let measured = compiled.score_calls() as f64 / compiled.picks().max(1) as f64;
        if let Some(serde_json::Value::Object(row)) = policies.last_mut() {
            if let Some(slot) = row.iter_mut().find(|(k, _)| k == "score_calls_per_pick") {
                slot.1 = serde_json::json!(measured);
            }
        }

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
