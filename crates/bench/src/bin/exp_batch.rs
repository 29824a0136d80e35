//! Batch: head-to-head of the three `ExprDispatcher` scan engines — the
//! batched structure-of-arrays full scan and the two sublinear modes
//! (power-of-d sampling, incremental argmin tree) — across fleet sizes
//! from 16 to 4096 servers, on the same uniform-fleet workload shape as
//! `exp_lb`'s fleet sweep.
//!
//! Beyond the latency table, this binary is a **regression guard** and
//! exits non-zero when any engine contract breaks:
//! * no engine may latch a runtime fault;
//! * the argmin tree must replay all seven scenario presets
//!   decision-for-decision against the batched full scan;
//! * power-of-d must be bit-for-bit seed-deterministic.
//!
//! Usage: `exp_batch [--fast|--quick] [--requests N] [--seed N]`

use policysmith_bench::{write_json, ExpOpts};
use policysmith_dsl::{parse, Mode};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::workload::{ArrivalProcess, BoundedPareto, WorkloadCfg};
use policysmith_lbsim::{
    scenario, sim, simulate, DispatchView, Dispatcher, ExprDispatcher, Scenario, ServerCfg,
};
use policysmith_obs::LatencyHistogram;
use std::time::Instant;

/// The canonical tree-eligible scoring rule (same mix the VM benchmarks
/// use): speed-normalized inflight plus queue pressure — event-driven
/// features only, so every engine including the argmin tree can run it.
const MIX: &str = "server.inflight * 1000 / server.speed + server.queue_len * 50";

/// Per-pick timing + decision log wrapper.
struct Instrumented<D> {
    inner: D,
    hist: LatencyHistogram,
    picks: Vec<usize>,
}

impl<D> Instrumented<D> {
    fn new(inner: D) -> Self {
        Instrumented { inner, hist: LatencyHistogram::new(), picks: Vec::new() }
    }
}

impl<D: Dispatcher> Dispatcher for Instrumented<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        let t0 = Instant::now();
        let p = self.inner.pick(view);
        self.hist.record(t0.elapsed().as_nanos() as u64);
        self.picks.push(p);
        p
    }
}

fn mix_policy() -> CompiledPolicy {
    CompiledPolicy::compile(&parse(MIX).unwrap(), Mode::Lb).expect("MIX compiles")
}

/// Same workload shape as `exp_lb::fleet_size_sweep`: uniform speed-4
/// fleet at ~72% offered load, seeded per size.
fn sweep_scenario(n_servers: usize, n_requests: usize) -> Scenario {
    Scenario {
        name: format!("lb/uniform-{n_servers}"),
        servers: (0..n_servers).map(|_| ServerCfg::new(4, 32)).collect(),
        workload: WorkloadCfg {
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 488.0 * n_servers as f64 },
            sizes: BoundedPareto::web_default(),
            n: n_requests,
        },
        seed: 0xF1EE7 ^ n_servers as u64,
    }
}

fn main() {
    let opts = ExpOpts::from_args();
    let fleets: &[usize] = if opts.fast { &[16, 64, 256] } else { &[16, 64, 256, 1024, 4096] };
    let n_requests = if opts.fast { 10_000 } else { 30_000 };
    let mut violations: Vec<String> = Vec::new();

    // -- fleet-size sweep: three engines on the same workload --
    println!("=== scan engines across fleet sizes (expr: {MIX}) ===");
    let mut fleet_rows = Vec::new();
    for &n in fleets {
        let sc = sweep_scenario(n, n_requests);
        let requests = sc.requests();
        println!("  {n} servers:");

        let engines: Vec<(&str, ExprDispatcher)> = vec![
            ("batched", ExprDispatcher::new("ps-batched", mix_policy())),
            ("power-of-d", ExprDispatcher::power_of_d("ps-d4", mix_policy(), 4, opts.seed)),
            ("argmin-tree", ExprDispatcher::argmin_tree("ps-tree", mix_policy())),
        ];
        let mut rows = Vec::new();
        for (label, engine) in engines {
            let mut w = Instrumented::new(engine);
            let m = sim::run(&sc.servers, &requests, &mut w);
            let h = &w.hist;
            let scored = w.inner.score_calls() as f64 / w.inner.picks().max(1) as f64;
            println!(
                "    {label:>12}: mean {:>7.0} ns  p50 {:>6} ns  p99 {:>7} ns  \
                 {:>7.2} score-calls/pick  slowdown {:.3}",
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                scored,
                m.mean_slowdown(),
            );
            if w.inner.first_error().is_some() {
                violations.push(format!("{label} latched a runtime fault at fleet {n}"));
            }
            rows.push(serde_json::json!({
                "name": label,
                "scan_kind": w.inner.scan_kind(),
                "mean_slowdown": m.mean_slowdown(),
                "picks": h.count(),
                "mean_ns": h.mean(),
                "p50_ns": h.quantile(0.50),
                "p99_ns": h.quantile(0.99),
                "p999_ns": h.quantile(0.999),
                "picks_per_sec": if h.mean() > 0.0 { 1e9 / h.mean() } else { 0.0 },
                "score_calls_per_pick": scored,
            }));
        }

        fleet_rows.push(serde_json::json!({
            "servers": n,
            "requests": n_requests,
            "offered_load": sc.offered_load(),
            "engines": rows,
        }));
    }

    // -- guard: argmin tree replays every preset decision-for-decision --
    println!("\n=== argmin-tree decision identity across presets ===");
    let mut preset_rows = Vec::new();
    for sc in scenario::all_presets() {
        let mut full = Instrumented::new(ExprDispatcher::new("ps-batched", mix_policy()));
        let mut tree = Instrumented::new(ExprDispatcher::argmin_tree("ps-tree", mix_policy()));
        let mf = simulate(&sc, &mut full);
        let mt = simulate(&sc, &mut tree);
        let identical = full.picks == tree.picks
            && mf.mean_slowdown().to_bits() == mt.mean_slowdown().to_bits();
        println!("  {:28} {:>7} decisions  identical: {identical}", sc.name, full.picks.len());
        if !identical {
            violations.push(format!("argmin tree diverged from the full scan on {}", sc.name));
        }
        preset_rows.push(serde_json::json!({
            "preset": sc.name,
            "decisions": full.picks.len(),
            "identical": identical,
        }));
    }

    // -- guard: power-of-d sampling is seed-deterministic --
    let sc = sweep_scenario(64, n_requests.min(10_000));
    let mut a = Instrumented::new(ExprDispatcher::power_of_d("ps-d4", mix_policy(), 4, opts.seed));
    let mut b = Instrumented::new(ExprDispatcher::power_of_d("ps-d4", mix_policy(), 4, opts.seed));
    simulate(&sc, &mut a);
    simulate(&sc, &mut b);
    if a.picks != b.picks {
        violations.push("power-of-d is not seed-deterministic".to_string());
    }

    write_json(
        "batch",
        &serde_json::json!({
            "expr": MIX,
            "fleet_sweep": fleet_rows,
            "argmin_tree_preset_identity": preset_rows,
            "power_of_d_seed_deterministic": a.picks == b.picks,
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
    println!("\nall engine contracts hold");
}
