//! Serve: the drift-injection experiment — a mid-run slow-node onset
//! under a stale, speed-blind deployed policy (JSQ), answered by the
//! telemetry → monitor → library → `run_search` → guard → publish loop in
//! the background, **without stopping serving**.
//!
//! `results/serve.json` records the full window timeline, the swap log,
//! guard rejections, the adoption pauses, and the post-swap quality vs a
//! freshly-searched offline policy; the binary exits non-zero unless the
//! drift is answered with no decision dropped and (full run) the post-swap
//! tail lands within 5 % of the offline policy's. Decision throughput and
//! latency are the benchmark's `serve-steady` / `serve-drift` workloads;
//! serve ≡ batch is `crates/serve/tests/differential.rs`.
//!
//! Usage: `exp_serve [--quick] [--seed N]`

use policysmith_bench::{write_json, ExpOpts};
use policysmith_core::library::HeuristicLibrary;
use policysmith_core::search::{run_search, SearchConfig};
use policysmith_core::studies::lb::LbStudy;
use policysmith_dsl::{parse, Mode};
use policysmith_gen::{GenConfig, MockLlm};
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{sim, ExprDispatcher};
use policysmith_serve::runtime::Resynth;
use policysmith_serve::{loadgen, serve_lb, ServeConfig, ServeReport};

fn compiled(src: &str) -> CompiledPolicy {
    CompiledPolicy::from_source(src, Mode::Lb).unwrap()
}

/// Serving threads of the drift run: the CI box's two hardware threads,
/// shared with the background search.
const DRIFT_WORKERS: usize = 2;

fn main() {
    let opts = ExpOpts::from_args();
    println!("== drift injection (slow-node onset under a healthy-fleet policy) ==");
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
    let mut spec = vec![healthy.clone(), onset.clone()];
    spec.extend((1..onset_reps).map(|i| {
        let salt = (opts.seed ^ 0xD41F7).wrapping_add(i);
        onset.clone().with_seed(loadgen::mix(onset.seed, salt))
    }));
    let shards = loadgen::lb_shards(&spec, DRIFT_WORKERS);
    let cfg = ServeConfig {
        workers: DRIFT_WORKERS,
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
    let offline_report =
        serve_lb(&shards, compiled(&offline.source), &cfg, None::<Resynth<LbStudy>>);
    let offline_tail = tail_quality(&offline_report, 0);
    summarize_drift(&report, offline_tail, opts.fast);

    write_json(
        "serve",
        &serde_json::json!({
            "quick": opts.fast,
            "drift": drift_section_json(&report, offline_tail, offline_batch_slowdown, offline.score),
        }),
    );
}

fn summarize_drift(report: &ServeReport, offline_tail: f64, quick: bool) {
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
