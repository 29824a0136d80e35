//! Serve: the online-serving experiment — sustained decision throughput
//! vs worker count, decision-latency percentiles, policy-adoption pause
//! distribution, and the drift-injection timeline showing a background
//! re-synthesis swapping a better policy in **without stopping serving**.
//!
//! Three sections land in `results/serve.json`:
//!
//! * `throughput` — open-loop lb dispatch decisions/sec at 1..=N workers
//!   (thread-confined fleets, one shared hot-swap cell), with p50/p99/p999
//!   decision latency from the HDR-style histogram;
//! * `drift` — a mid-run slow-node onset under a stale, speed-blind
//!   deployed policy (JSQ): the telemetry → monitor → library →
//!   `run_search` → guard → publish loop answers it in the background; the
//!   section records the full window timeline, the swap log, guard
//!   rejections, the adoption pauses, and the post-swap quality vs a
//!   freshly-searched offline policy;
//! * `no_drift_differential` — the serve-equals-batch check re-run in the
//!   bench harness (the proptest version lives in `crates/serve/tests`).
//!
//! Usage: `exp_serve [--quick] [--seed N]`

use policysmith_bench::{write_json, ExpOpts};
use policysmith_core::library::HeuristicLibrary;
use policysmith_core::search::{run_search, SearchConfig};
use policysmith_core::studies::lb::LbStudy;
use policysmith_dsl::{parse, Mode};
use policysmith_gen::{GenConfig, MockLlm};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{scenario, sim, ExprDispatcher, Scenario};
use policysmith_obs::LatencyHistogram;
use policysmith_serve::runtime::Resynth;
use policysmith_serve::{loadgen, serve_lb, ServeConfig, ServeReport};

/// The canonical compiled dispatch policy (exact least-work-left plus the
/// request's own demand) — a realistic hosted candidate for throughput
/// numbers.
const SERVE_POLICY: &str = "server.work_left + req.size * 1000 / server.speed";

fn compiled(src: &str) -> CompiledPolicy {
    CompiledPolicy::compile(&parse(src).unwrap(), Mode::Lb).unwrap()
}

fn no_resynth() -> Option<Resynth<LbStudy>> {
    None
}

/// Repeat a scenario `k` times with derived seeds: an arbitrarily long
/// open-loop stream of the same statistical context.
fn repeated(sc: &Scenario, k: usize, salt: u64) -> Vec<Scenario> {
    (0..k)
        .map(|i| {
            if i == 0 {
                sc.clone()
            } else {
                sc.clone().with_seed(loadgen::mix(sc.seed, salt.wrapping_add(i as u64)))
            }
        })
        .collect()
}

fn hist_json(h: &LatencyHistogram) -> serde_json::Value {
    let qs = h.quantiles(&[0.50, 0.99, 0.999]);
    serde_json::json!({
        "samples": h.count(),
        "mean_ns": h.mean(),
        "p50_ns": qs[0],
        "p99_ns": qs[1],
        "p999_ns": qs[2],
        "max_ns": h.max(),
    })
}

fn main() {
    let opts = ExpOpts::from_args();
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);

    // ---- section 1: throughput vs worker count --------------------------
    // sweep past the hardware threads a bit: oversubscription is part of
    // the scaling story (flat or declining there is the expected shape)
    let mut worker_counts: Vec<usize> =
        [1usize, 2, 4, 8, 16].into_iter().filter(|&w| w <= hw.max(4)).collect();
    if opts.fast {
        worker_counts = vec![1, worker_counts.into_iter().max().unwrap_or(1).min(4)];
        worker_counts.dedup();
    }
    // per-worker stream length: enough to dominate thread start/stop costs
    let reps = if opts.fast { 4 } else { 40 };
    let base = scenario::uniform_fleet();
    let policy = compiled(SERVE_POLICY);

    // best-of-N: these runs are short enough that scheduler noise swamps
    // a single sample
    let rounds = if opts.fast { 2 } else { 3 };
    println!("== serve throughput ({reps} × 30k decisions per worker, best of {rounds}) ==");
    let mut throughput = Vec::new();
    let mut best: Option<(usize, f64)> = None;
    let mut best_metrics: Option<serde_json::Value> = None;
    for &workers in &worker_counts {
        let run = || {
            let phases = repeated(&base, reps, opts.seed);
            let shards = loadgen::lb_shards(&phases, workers);
            let cfg = ServeConfig {
                workers,
                window: 1_000,
                latency_sample_every: 8,
                ..ServeConfig::default()
            };
            serve_lb(&shards, policy.clone(), &cfg, no_resynth())
        };
        let report = (0..rounds)
            .map(|_| run())
            .max_by(|a, b| a.decisions_per_sec().total_cmp(&b.decisions_per_sec()))
            .expect("at least one round");
        let dps = report.decisions_per_sec();
        let lat = report.latency();
        let lq = report.latency_quantiles(&[0.50, 0.99, 0.999]);
        println!(
            "  {workers:>2} workers: {dps:>10.0} decisions/s  \
             p50 {:>6} ns  p99 {:>6} ns  p999 {:>7} ns",
            lq[0], lq[1], lq[2]
        );
        if best.is_none_or(|(_, b)| dps > b) {
            best = Some((workers, dps));
            best_metrics = Some(serde_json::to_value(&report.metrics));
        }
        throughput.push(serde_json::json!({
            "workers": workers,
            "decisions": report.total_decisions(),
            "wall_seconds": report.wall_seconds,
            "decisions_per_sec": dps,
            "latency": hist_json(&lat),
        }));
    }
    let (best_workers, best_dps) = best.unwrap();
    println!("  best: {best_workers} workers at {best_dps:.0} decisions/s");

    // ---- section 2: drift injection + background re-synthesis ----------
    println!("\n== drift injection (slow-node onset under a healthy-fleet policy) ==");
    let drift_phases = loadgen::lb_drift_phases();
    let (healthy, onset) = (&drift_phases[0], &drift_phases[1]);
    let search_cfg = if opts.fast {
        SearchConfig { rounds: 4, candidates_per_round: 10, ..SearchConfig::paper_cache() }
    } else {
        SearchConfig { rounds: 6, candidates_per_round: 12, ..SearchConfig::paper_cache() }
    }
    .pipelined();

    // deploy a policy that is fine on the healthy fleet but genuinely
    // stale after the onset: JSQ dispatches by queue length alone, so a
    // slowed node keeps receiving its full share — the §3.1 story of a
    // deployed heuristic limping when the context shifts. (A policy
    // synthesized for the healthy fleet turns out to transfer too well
    // here: the guard would — correctly — refuse to replace it.)
    let deployed_src = "server.queue_len";
    println!("  deployed for {}: JSQ (`{deployed_src}`) — speed-blind", healthy.name);

    // the offline yardstick: a fresh search for the drifted context with
    // the same budget the background controller gets, but a DIFFERENT
    // generator seed — recovery is compared against an independent
    // offline deployment, not against the controller's own answer
    let onset_study = LbStudy::new(onset);
    let mut offline_llm = MockLlm::new(GenConfig::lb_defaults(opts.seed ^ 0x0FF1));
    let offline = run_search(&onset_study, &mut offline_llm, &search_cfg).best;
    let offline_expr = parse(&offline.source).unwrap();
    let offline_batch_slowdown = {
        let m = sim::run(
            &onset.servers,
            &onset.requests(),
            &mut ExprDispatcher::from_expr("offline", &offline_expr),
        );
        m.mean_slowdown()
    };
    println!(
        "  offline fresh search for {}: {:+.2}% over RR (batch mean slowdown {:.4})",
        onset.name,
        offline.score * 100.0,
        offline_batch_slowdown
    );

    // serve: healthy phase, then an extended degraded regime so the
    // background search has traffic to swap under — the stream must
    // OUTLAST the search (open-loop serving runs at millions of
    // decisions/sec; the search needs O(seconds) of background CPU)
    let onset_reps = if opts.fast { 120 } else { 250 };
    let mut spec = vec![healthy.clone()];
    spec.extend(repeated(onset, onset_reps, opts.seed ^ 0xD41F7));
    let drift_workers = if opts.fast { 2 } else { best_workers.clamp(2, 8) };
    let shards = loadgen::lb_shards(&spec, drift_workers);
    let cfg = ServeConfig {
        workers: drift_workers,
        window: 500,
        latency_sample_every: 8,
        // wider + calmer than the detection minimum: the post-swap signal
        // of a hot scenario is noisy (occasional drop-penalty spikes), and
        // the stale policy's degradation is an order of magnitude anyway
        monitor_window: 12,
        monitor_tolerance: 2.0,
        ..ServeConfig::default()
    };
    let resynth = Resynth {
        context: onset.name.clone(),
        study: LbStudy::new(onset),
        generator: Box::new(MockLlm::new(GenConfig::lb_defaults(opts.seed ^ 0xF00D))),
        search: search_cfg,
        library: HeuristicLibrary::new(),
    };
    let report = serve_lb(&shards, compiled(deployed_src), &cfg, Some(resynth));

    // the like-for-like yardstick: the offline policy serving the SAME
    // sharded streams from the start (no drift response needed), scored
    // with the same tail statistic
    let offline_report = serve_lb(&shards, compiled(&offline.source), &cfg, no_resynth());
    let offline_tail = tail_quality(&offline_report, 0);
    summarize_drift(&report, offline_tail, offline_batch_slowdown, offline.score, opts.fast);

    // ---- section 3: serve-equals-batch (bench-side re-check) -----------
    let diff_ok = no_drift_differential(&base);
    println!(
        "\n== no-drift differential: serve == batch → {} ==",
        if diff_ok { "ok" } else { "MISMATCH" }
    );
    assert!(diff_ok, "no-drift serve run must equal the batch simulator");

    let drift_json =
        drift_section_json(&report, offline_tail, offline_batch_slowdown, offline.score);
    write_json(
        "serve",
        &serde_json::json!({
            "policy": SERVE_POLICY,
            "scenario": base.name,
            "hardware_threads": hw,
            "quick": opts.fast,
            "throughput": throughput,
            "best": { "workers": best_workers, "decisions_per_sec": best_dps },
            "telemetry": {
                "transport": "sharded-spsc",
                "sharded_best_decisions_per_sec": best_dps,
                "metrics": best_metrics.unwrap(),
            },
            "drift": drift_json,
            "no_drift_differential": { "ok": diff_ok },
        }),
    );

    if !opts.fast {
        assert!(
            best_dps >= 1_000_000.0,
            "acceptance: sustained aggregate throughput must reach 1M decisions/s (got {best_dps:.0})"
        );
    }
}

fn summarize_drift(
    report: &ServeReport,
    offline_tail: f64,
    offline_batch_slowdown: f64,
    offline_score: f64,
    quick: bool,
) {
    let offered: u64 = report.workers.iter().map(|w| w.lb_metrics.as_ref().unwrap().offered).sum();
    assert_eq!(report.total_decisions(), offered, "zero dropped/blocked decision requests");
    println!(
        "  served {} decisions across {} workers; {} swaps, {} adaptations, {} rejections, {} suppressed re-triggers",
        report.total_decisions(),
        report.workers.len(),
        report.swaps.len(),
        report.adaptations.len(),
        report.rejections.len(),
        report.suppressed_triggers
    );
    for r in &report.rejections {
        println!(
            "    rejected for {}: {} [candidate {:+.4} vs incumbent {:+.4}] (`{}`)",
            r.context, r.reason, r.candidate_score, r.incumbent_score, r.source
        );
    }
    assert!(!report.adaptations.is_empty(), "the background controller must answer the drift");
    for a in &report.adaptations {
        println!(
            "    gen {}: {} for {} ({:+.2}% over RR) after {:.2}s of background work",
            a.generation,
            if a.resynthesized { "re-synthesized" } else { "library reuse" },
            a.context,
            a.score * 100.0,
            a.resynthesis_micros as f64 / 1e6
        );
    }
    let pauses = report.swap_pauses_ns();
    if !pauses.is_empty() {
        println!(
            "  adoption pauses: {} events, median {} ns, max {} ns",
            pauses.len(),
            pauses[pauses.len() / 2],
            pauses.last().unwrap()
        );
    }
    let last_gen = report.swaps.last().map(|s| s.generation).unwrap_or(0);
    let tail = tail_quality(report, last_gen);
    println!(
        "  post-swap tail slowdown {:.4} vs offline policy on the same streams {:.4} ({:+.1}%)",
        tail,
        offline_tail,
        (tail / offline_tail - 1.0) * 100.0
    );
    println!(
        "  (offline fresh search: {:+.2}% over RR, batch mean slowdown {:.4})",
        offline_score * 100.0,
        offline_batch_slowdown
    );
    if !quick {
        assert!(
            tail <= offline_tail * 1.05,
            "acceptance: post-swap quality within 5% of a freshly-searched offline policy \
             (serve tail {tail:.4} vs offline tail {offline_tail:.4})"
        );
    }
}

/// Mean quality signal over the settled tail: post-injection windows
/// served at generation `min_gen` or later, skipping the first half of
/// them (backlog from the stale-policy era drains through the early
/// post-swap windows).
fn tail_quality(report: &ServeReport, min_gen: u64) -> f64 {
    let post: Vec<&policysmith_serve::WindowSample> = report
        .windows
        .iter()
        .filter(|w| w.generation >= min_gen && w.phase > 0 && w.decisions > 0)
        .collect();
    if post.is_empty() {
        return f64::NAN; // the swap landed after serving ended
    }
    let tail = &post[post.len() / 2..];
    let weight: u64 = tail.iter().map(|w| w.decisions).sum();
    tail.iter().map(|w| w.signal * w.decisions as f64).sum::<f64>() / weight.max(1) as f64
}

fn drift_section_json(
    report: &ServeReport,
    offline_tail: f64,
    offline_batch_slowdown: f64,
    offline_score: f64,
) -> serde_json::Value {
    let pauses = report.swap_pauses_ns();
    // thin the timeline to a committable size, but always keep the
    // windows where a worker's serving generation changes (the swap
    // moments) and the early drift-detection region
    let stride = (report.windows.len() / 1200).max(1);
    let mut last_gen_by_worker: Vec<u64> = vec![u64::MAX; report.workers.len()];
    let timeline: Vec<serde_json::Value> = report
        .windows
        .iter()
        .enumerate()
        .filter(|(i, w)| {
            let swap_moment = last_gen_by_worker[w.worker] != w.generation;
            last_gen_by_worker[w.worker] = w.generation;
            swap_moment || i % stride == 0 || w.seq < 40
        })
        .map(|(_, w)| {
            // row-packed per `timeline_fields` to keep the artifact small
            serde_json::Value::Array(vec![
                serde_json::to_value(&w.worker),
                serde_json::to_value(&w.seq),
                serde_json::to_value(&w.phase),
                serde_json::to_value(&w.decisions),
                serde_json::to_value(&((w.signal * 1e4).round() / 1e4)),
                serde_json::to_value(&w.generation),
                serde_json::to_value(&w.at_micros),
            ])
        })
        .collect();
    serde_json::json!({
        "workers": report.workers.len(),
        "decisions": report.total_decisions(),
        "swaps": report.swaps.iter().map(|s| serde_json::json!({
            "generation": s.generation,
            "provenance": s.provenance,
            "at_micros": s.at_micros,
            "retire_backlog": s.retire_backlog,
        })).collect::<Vec<_>>(),
        "adaptations": report.adaptations.iter().map(|a| serde_json::json!({
            "generation": a.generation,
            "context": a.context,
            "resynthesized": a.resynthesized,
            "score": a.score,
            "source": a.source,
            "resynthesis_micros": a.resynthesis_micros,
            "retries": a.retries,
        })).collect::<Vec<_>>(),
        "rejections": report.rejections.iter().map(|r| serde_json::json!({
            "context": r.context,
            "source": r.source,
            "reason": r.reason,
            "candidate_score": r.candidate_score,
            "incumbent_score": r.incumbent_score,
            "rejection_micros": r.rejection_micros,
        })).collect::<Vec<_>>(),
        "quarantines": report.quarantines.iter().map(|q| serde_json::json!({
            "worker": q.worker,
            "generation": q.generation,
            "source": q.source,
            "fault": q.fault,
            "at_micros": q.at_micros,
        })).collect::<Vec<_>>(),
        "adoption_pauses_ns": {
            "count": pauses.len(),
            "median": pauses.get(pauses.len() / 2).copied().unwrap_or(0),
            "max": pauses.last().copied().unwrap_or(0),
        },
        "suppressed_triggers": report.suppressed_triggers,
        "post_swap_tail_slowdown": tail_quality(report, report.swaps.last().map(|s| s.generation).unwrap_or(0)),
        "offline_tail_slowdown": offline_tail,
        "offline_fresh_batch_slowdown": offline_batch_slowdown,
        "offline_fresh_score": offline_score,
        "timeline_fields": ["worker", "seq", "phase", "decisions", "signal", "generation", "at_micros"],
        "timeline": timeline,
    })
}

/// Single worker, no publishes: serve must equal the batch simulator.
fn no_drift_differential(sc: &Scenario) -> bool {
    let cfg = ServeConfig { workers: 1, record_decisions: true, ..ServeConfig::default() };
    let shards = loadgen::lb_shards(std::slice::from_ref(sc), 1);
    let report = serve_lb(&shards, compiled(SERVE_POLICY), &cfg, no_resynth());
    let batch = sim::run(
        &sc.servers,
        &sc.requests(),
        &mut ExprDispatcher::new("batch", compiled(SERVE_POLICY)),
    );
    report.workers[0].lb_metrics.as_ref().unwrap() == &batch
        && report.workers[0].decisions == batch.offered
}
