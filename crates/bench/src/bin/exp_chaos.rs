//! Chaos: the fault-tolerance harness — lb and cache serving run under a
//! battery of deterministic fault plans (flaky/dead generators, poisoned
//! library entries, externally-published faulting policies, telemetry
//! drops/duplicates/reordering, worker stalls, and all of it at once),
//! with the fault-tolerance invariants enforced **by exit code**:
//!
//! * **zero dropped decisions** — every offered request is decided under
//!   every fault mix, and no serving/background thread dies;
//! * **monotonic generations** — the swap log climbs strictly, and no
//!   worker ever serves a window at an older generation than it already
//!   reported;
//! * **no poisoned policy is ever (re-)deployed** — pre-poisoned library
//!   entries never reach the cell, and a quarantined source never appears
//!   in the publish audit trail after its quarantine;
//! * **bounded time-to-recover** — an externally-published faulting
//!   policy is quarantined and replaced through the safe-fallback chain
//!   within the recovery budget;
//! * **quality floor** — the settled tail of every plan stays within 15%
//!   of a run serving nothing but the domain's man-made baseline
//!   (JSQ / LRU): misbehavior may cost polish, never safety.
//!
//! (No-fault transparency — an all-zero chaos spec is the plain serve
//! path, decision for decision — is tier-1's:
//! `serve/tests/faults.rs::no_fault_chaos_spec_is_decision_identical_to_plain_serve`.)
//!
//! Everything lands in `results/chaos.json`.
//!
//! Usage: `exp_chaos [--quick] [--seed N]`

use policysmith_bench::{write_json, ExpOpts};
use policysmith_core::library::{HeuristicLibrary, LibraryEntry, RetryPolicy};
use policysmith_core::search::SearchConfig;
use policysmith_core::studies::lb::LbStudy;
use policysmith_dsl::Mode;
use policysmith_gen::{FlakyConfig, FlakyGen, GenConfig, MockLlm};
use policysmith_kbpf::CompiledPolicy;
use policysmith_serve::chaos::{baseline_source, faulting_source};
use policysmith_serve::runtime::Resynth;
use policysmith_serve::{
    loadgen, serve_cache, serve_lb, ChaosSpec, ExternalPublish, FaultPlan, ServeConfig,
    ServeReport, TelemetryChaos, WorkerStall,
};

/// Recovery budget: external faulting publish → quarantine → fallback
/// publish, measured on the cell's clock.
const RECOVERY_BUDGET_MICROS: u64 = 2_000_000;
/// Quality floor: a plan's settled tail may be at most this factor worse
/// than the all-baseline reference run.
const QUALITY_FLOOR: f64 = 1.15;

/// A speed-aware stored heuristic (known-good in the onset context) the
/// outage plans fall back to.
const STORED_GOOD: &str = "server.inflight * 1000 / server.speed + server.queue_len * 50";

/// One plan = the chaos-layer fault mix plus the serving knobs that make
/// the mix bite (reuse bar, retry budget).
struct Plan {
    fault: FaultPlan,
    min_reuse_score: f64,
    retry: RetryPolicy,
}

impl Plan {
    fn new(fault: FaultPlan) -> Plan {
        Plan {
            fault,
            min_reuse_score: 0.0,
            retry: RetryPolicy {
                max_attempts: 6,
                backoff_base_ms: 1,
                backoff_cap_ms: 4,
                deadline_ms: 60_000,
            },
        }
    }
}

fn compiled(src: &str, mode: Mode) -> CompiledPolicy {
    CompiledPolicy::from_source(src, mode).unwrap()
}

fn no_resynth() -> Option<Resynth<LbStudy>> {
    None
}

fn entry(context: &str, source: &str) -> LibraryEntry {
    LibraryEntry { context: context.into(), source: source.into(), score: 0.5 }
}

/// The lb plan battery: every fault class alone, then all at once.
fn lb_plans(seed: u64) -> Vec<Plan> {
    let bad = faulting_source(Mode::Lb);
    let mut plans = vec![Plan::new(FaultPlan::none(seed))];

    let mut p = Plan::new(FaultPlan {
        name: "flaky-generator".into(),
        spec: ChaosSpec { seed, ..ChaosSpec::default() },
        flaky_gen: Some(FlakyConfig {
            p_error: 0.5,
            p_garbage: 0.2,
            p_stall: 0.0,
            ..FlakyConfig::flaky(seed ^ 0xF1A)
        }),
        seed_library: Vec::new(),
    });
    p.retry.max_attempts = 8;
    plans.push(p);

    let mut p = Plan::new(FaultPlan {
        name: "generator-outage".into(),
        spec: ChaosSpec { seed, ..ChaosSpec::default() },
        flaky_gen: Some(FlakyConfig::outage(seed ^ 0xDEAD)),
        seed_library: vec![(entry("lb/earlier", STORED_GOOD), false)],
    });
    // the dead generator must not be bailed out by cheap reuse: force the
    // search (and therefore the watchdog + abandon fallback) to run
    p.min_reuse_score = f64::INFINITY;
    p.retry =
        RetryPolicy { max_attempts: 2, backoff_base_ms: 1, backoff_cap_ms: 2, deadline_ms: 60_000 };
    plans.push(p);

    plans.push(Plan::new(FaultPlan {
        name: "poisoned-library".into(),
        spec: ChaosSpec { seed, ..ChaosSpec::default() },
        flaky_gen: None,
        // a quarantine verdict carried over from an earlier run: the
        // poisoned entry must stay invisible however good its score looks
        seed_library: vec![
            (entry("lb/poisoned", bad), true),
            (entry("lb/earlier", STORED_GOOD), false),
        ],
    }));

    plans.push(Plan::new(FaultPlan {
        name: "external-fault".into(),
        spec: ChaosSpec {
            seed,
            external_publish: Some(ExternalPublish { after_windows: 2, source: bad.into() }),
            ..ChaosSpec::default()
        },
        flaky_gen: None,
        seed_library: Vec::new(),
    }));

    plans.push(Plan::new(FaultPlan {
        name: "telemetry-chaos".into(),
        spec: ChaosSpec {
            seed,
            telemetry: TelemetryChaos { p_drop: 0.25, p_duplicate: 0.25, p_reorder: 0.25 },
            ..ChaosSpec::default()
        },
        flaky_gen: None,
        seed_library: Vec::new(),
    }));

    plans.push(Plan::new(FaultPlan {
        name: "worker-stall".into(),
        spec: ChaosSpec {
            seed,
            worker_stall: Some(WorkerStall { every_decisions: 50_000, stall_micros: 200 }),
            ..ChaosSpec::default()
        },
        flaky_gen: None,
        seed_library: Vec::new(),
    }));

    let mut p = Plan::new(FaultPlan {
        name: "everything".into(),
        spec: ChaosSpec {
            seed,
            telemetry: TelemetryChaos { p_drop: 0.2, p_duplicate: 0.2, p_reorder: 0.2 },
            worker_stall: Some(WorkerStall { every_decisions: 50_000, stall_micros: 200 }),
            external_publish: Some(ExternalPublish { after_windows: 3, source: bad.into() }),
        },
        flaky_gen: Some(FlakyConfig {
            p_error: 0.4,
            p_garbage: 0.2,
            p_stall: 0.0,
            ..FlakyConfig::flaky(seed ^ 0xA11)
        }),
        seed_library: vec![
            (entry("lb/poisoned", bad), true),
            (entry("lb/earlier", STORED_GOOD), false),
        ],
    });
    p.retry.max_attempts = 8;
    plans.push(p);

    plans
}

fn library_from(seeds: &[(LibraryEntry, bool)]) -> HeuristicLibrary {
    let mut lib = HeuristicLibrary::new();
    for (e, poisoned) in seeds {
        lib.add(e.clone());
        if *poisoned {
            lib.poison(&e.source);
        }
    }
    lib
}

/// Settled-tail quality: weighted mean signal over the last half of the
/// non-empty windows (lb: mean slowdown, cache: miss ratio; lower is
/// better for both). `phase_min` restricts to post-onset windows for lb.
fn tail_signal(report: &ServeReport, phase_min: usize) -> f64 {
    let mut post: Vec<_> =
        report.windows.iter().filter(|w| w.phase >= phase_min && w.decisions > 0).collect();
    post.sort_by_key(|w| (w.worker, w.seq));
    if post.is_empty() {
        return f64::NAN;
    }
    let tail = &post[post.len() / 2..];
    let weight: u64 = tail.iter().map(|w| w.decisions).sum();
    tail.iter().map(|w| w.signal * w.decisions as f64).sum::<f64>() / weight.max(1) as f64
}

/// Swap log climbs strictly; no worker's window stream ever steps back a
/// generation.
fn generations_monotonic(report: &ServeReport) -> bool {
    if !report.swaps.windows(2).all(|p| p[0].generation < p[1].generation) {
        return false;
    }
    for w in 0..report.workers.len() {
        let mut windows: Vec<_> = report.windows.iter().filter(|s| s.worker == w).collect();
        windows.sort_by_key(|s| s.seq);
        if !windows.windows(2).all(|p| p[0].generation <= p[1].generation) {
            return false;
        }
    }
    true
}

/// The runtime never (re-)deploys a poisoned policy: pre-poisoned sources
/// never reach the cell, and quarantined sources never appear in the
/// publish trail after their first quarantine. Chaos-injected external
/// publishes are excluded — they ARE the injected fault (an operator
/// bypassing the guard), not a runtime decision; what matters is that the
/// runtime only ever answers them, never repeats them.
fn no_poisoned_redeploy(report: &ServeReport, preseeded: &[String]) -> bool {
    let injected: std::collections::BTreeSet<u64> = report
        .swaps
        .iter()
        .filter(|s| s.provenance.starts_with("external publish"))
        .map(|s| s.generation)
        .collect();
    let runtime_pubs: Vec<&(u64, String)> =
        report.published.iter().filter(|(g, _)| !injected.contains(g)).collect();
    if runtime_pubs.iter().any(|(_, s)| preseeded.iter().any(|p| p == s)) {
        return false;
    }
    for q in &report.quarantines {
        let first = report
            .quarantines
            .iter()
            .filter(|x| x.source == q.source)
            .map(|x| x.generation)
            .min()
            .unwrap_or(q.generation);
        if runtime_pubs.iter().any(|(g, s)| *s == q.source && *g > first) {
            return false;
        }
    }
    true
}

/// Micros from the external faulting publish to the quarantine-recovery
/// publish, on the cell's clock. `None` when the plan had no external
/// publish, or when a newer generation superseded the fault before the
/// quarantine was processed (nothing left to recover).
fn recovery_micros(report: &ServeReport) -> Option<u64> {
    let ext = report.swaps.iter().find(|s| s.provenance.starts_with("external publish"))?;
    let rec = report
        .swaps
        .iter()
        .find(|s| s.generation > ext.generation && s.provenance.contains("quarantine recovery"))?;
    Some(rec.at_micros.saturating_sub(ext.at_micros))
}

struct PlanOutcome {
    json: serde_json::Value,
}

/// Run one plan and enforce every invariant; returns the results row.
#[allow(clippy::too_many_arguments)]
fn check_plan(
    workload: &str,
    plan: &Plan,
    report: &ServeReport,
    offered: u64,
    baseline_tail: f64,
    phase_min: usize,
    expect_external_catch: bool,
) -> PlanOutcome {
    let name = &plan.fault.name;
    let preseeded: Vec<String> = plan
        .fault
        .seed_library
        .iter()
        .filter(|(_, poisoned)| *poisoned)
        .map(|(e, _)| e.source.clone())
        .collect();

    // 1. zero dropped decisions, no dead threads
    assert_eq!(
        report.total_decisions(),
        offered,
        "[{workload}/{name}] dropped decisions: served {} of {offered}",
        report.total_decisions()
    );
    assert!(
        report.failures.is_empty(),
        "[{workload}/{name}] thread failures: {:?}",
        report.failures
    );

    // 2. monotonic generations
    assert!(generations_monotonic(report), "[{workload}/{name}] generations went backwards");

    // 3. no poisoned policy ever (re-)deployed
    assert!(
        no_poisoned_redeploy(report, &preseeded),
        "[{workload}/{name}] a poisoned policy reached the cell: {:?}",
        report.published
    );

    // 4. bounded recovery (only judged when the plan injects a live fault)
    let rec = recovery_micros(report);
    if expect_external_catch {
        assert!(
            !report.quarantines.is_empty(),
            "[{workload}/{name}] the faulting policy was never caught"
        );
        match rec {
            Some(us) => assert!(
                us <= RECOVERY_BUDGET_MICROS,
                "[{workload}/{name}] recovery took {us} µs (budget {RECOVERY_BUDGET_MICROS})"
            ),
            None => {
                // acceptable only if some newer publish superseded the fault
                let ext_gen = report
                    .swaps
                    .iter()
                    .find(|s| s.provenance.starts_with("external publish"))
                    .map(|s| s.generation)
                    .unwrap_or(0);
                assert!(
                    report.swaps.last().map(|s| s.generation).unwrap_or(0) > ext_gen,
                    "[{workload}/{name}] faulting policy stayed live with no recovery"
                );
            }
        }
    }

    // 5. quality floor vs the all-baseline reference
    let tail = tail_signal(report, phase_min);
    assert!(
        tail.is_finite() && baseline_tail.is_finite(),
        "[{workload}/{name}] no settled tail to judge"
    );
    assert!(
        tail <= baseline_tail * QUALITY_FLOOR,
        "[{workload}/{name}] quality floor broken: tail {tail:.4} vs baseline {baseline_tail:.4}"
    );

    println!(
        "  [{workload}/{name}] ok: {} decisions, {} swaps, {} adaptations, {} rejections, {} quarantines, tail {:.4} (baseline {:.4}){}",
        report.total_decisions(),
        report.swaps.len(),
        report.adaptations.len(),
        report.rejections.len(),
        report.quarantines.len(),
        tail,
        baseline_tail,
        rec.map(|us| format!(", recovered in {} µs", us)).unwrap_or_default()
    );

    let st = report.chaos;
    PlanOutcome {
        json: serde_json::json!({
            "name": name,
            "workload": workload,
            "decisions": report.total_decisions(),
            "offered": offered,
            "swaps": report.swaps.iter().map(|s| serde_json::json!({
                "generation": s.generation,
                "provenance": s.provenance,
                "at_micros": s.at_micros,
            })).collect::<Vec<_>>(),
            "adaptations": report.adaptations.len(),
            "retries": report.adaptations.iter().map(|a| a.retries).sum::<u32>(),
            "rejections": report.rejections.iter().map(|r| serde_json::json!({
                "reason": r.reason,
                "source": r.source,
            })).collect::<Vec<_>>(),
            "quarantines": report.quarantines.iter().map(|q| serde_json::json!({
                "worker": q.worker,
                "generation": q.generation,
                "source": q.source,
                "fault": q.fault,
            })).collect::<Vec<_>>(),
            "published": report.published,
            "suppressed_triggers": report.suppressed_triggers,
            "telemetry_dropped": report.workers.iter().map(|w| w.telemetry_dropped).sum::<u64>(),
            "worker_quarantines": report.workers.iter().map(|w| w.quarantines).sum::<u64>(),
            "chaos": {
                "windows_dropped": st.windows_dropped,
                "windows_duplicated": st.windows_duplicated,
                "windows_reordered": st.windows_reordered,
                "external_publishes": st.external_publishes,
            },
            "tail_signal": tail,
            "baseline_tail_signal": baseline_tail,
            "recovery_micros": rec,
            "invariants": {
                "zero_dropped_decisions": true,
                "monotonic_generations": true,
                "no_poisoned_redeploy": true,
                "bounded_recovery": rec.map(|us| us <= RECOVERY_BUDGET_MICROS),
                "quality_floor": true,
            },
        }),
    }
}

fn main() {
    let opts = ExpOpts::from_args();
    let workers = 2usize;

    // ---- lb battery --------------------------------------------------
    println!("== lb serving under fault plans ==");
    let drift = loadgen::lb_drift_phases();
    let (healthy, onset) = (&drift[0], &drift[1]);
    let onset_reps = if opts.fast { 10 } else { 30 };
    let mut spec = vec![healthy.clone()];
    for i in 0..onset_reps {
        spec.push(
            onset.clone().with_seed(loadgen::mix(onset.seed, opts.seed ^ (0xCA05 + i as u64))),
        );
    }
    let shards = loadgen::lb_shards(&spec, workers);
    let lb_offered: u64 = shards.iter().flatten().map(|p| p.workload.n as u64).sum();
    let search_cfg =
        SearchConfig { rounds: 2, candidates_per_round: 6, ..SearchConfig::quick() }.pipelined();

    // the reference: the man-made baseline serving the same streams with
    // no adaptation and no chaos (JSQ is also the initial policy, so every
    // plan starts from the reference and may only climb or recover)
    let base_cfg = ServeConfig { workers, window: 500, ..ServeConfig::default() };
    let lb_baseline =
        serve_lb(&shards, compiled(baseline_source(Mode::Lb), Mode::Lb), &base_cfg, no_resynth());
    let lb_baseline_tail = tail_signal(&lb_baseline, 1);
    println!("  baseline (JSQ, no faults): tail slowdown {lb_baseline_tail:.4}");

    let mut rows = Vec::new();
    for plan in lb_plans(opts.seed) {
        let cfg = ServeConfig {
            workers,
            window: 500,
            min_reuse_score: plan.min_reuse_score,
            retry: plan.retry,
            chaos: plan.fault.spec.clone(),
            ..ServeConfig::default()
        };
        let generator: Box<dyn policysmith_gen::Generator + Send> = match &plan.fault.flaky_gen {
            Some(fc) => Box::new(FlakyGen::new(
                MockLlm::new(GenConfig::lb_defaults(opts.seed ^ 0xF00D)),
                *fc,
            )),
            None => Box::new(MockLlm::new(GenConfig::lb_defaults(opts.seed ^ 0xF00D))),
        };
        let resynth = Resynth {
            context: onset.name.clone(),
            study: LbStudy::new(onset),
            generator,
            search: search_cfg,
            library: library_from(&plan.fault.seed_library),
        };
        let report =
            serve_lb(&shards, compiled(baseline_source(Mode::Lb), Mode::Lb), &cfg, Some(resynth));
        let expect_catch = plan.fault.spec.external_publish.is_some();
        rows.push(
            check_plan("lb", &plan, &report, lb_offered, lb_baseline_tail, 1, expect_catch).json,
        );
    }

    // ---- cache battery ----------------------------------------------
    println!("\n== cache serving under fault plans ==");
    let n = if opts.fast { 20_000 } else { 60_000 };
    if let Some(replay) = loadgen::CacheReplay::new("cloudphysics", 10, n) {
        let trace = replay.trace();
        let capacity = (policysmith_traces::footprint_bytes(&trace) / 10).max(1);
        let cache_shards = replay.shards(workers);
        let cache_offered: u64 = cache_shards.iter().map(|t| t.requests.len() as u64).sum();
        let good = "obj.count * 20 - obj.age / 300 - obj.size / 500";

        let cache_baseline = serve_cache(
            &cache_shards,
            capacity,
            compiled(baseline_source(Mode::Cache), Mode::Cache),
            &base_cfg,
            no_resynth(),
        );
        let cache_baseline_tail = tail_signal(&cache_baseline, 0);
        println!("  baseline (LRU, no faults): tail miss ratio {cache_baseline_tail:.4}");

        let cache_plans = vec![
            Plan::new(FaultPlan::none(opts.seed ^ 0xCC)),
            Plan::new(FaultPlan {
                name: "external-fault".into(),
                spec: ChaosSpec {
                    seed: opts.seed ^ 0xCC,
                    external_publish: Some(ExternalPublish {
                        after_windows: 2,
                        source: faulting_source(Mode::Cache).into(),
                    }),
                    ..ChaosSpec::default()
                },
                flaky_gen: None,
                seed_library: Vec::new(),
            }),
        ];
        for plan in cache_plans {
            let cfg = ServeConfig {
                workers,
                window: 256,
                chaos: plan.fault.spec.clone(),
                ..ServeConfig::default()
            };
            let report = serve_cache(
                &cache_shards,
                capacity,
                compiled(good, Mode::Cache),
                &cfg,
                no_resynth(),
            );
            let expect_catch = plan.fault.spec.external_publish.is_some();
            rows.push(
                check_plan(
                    "cache",
                    &plan,
                    &report,
                    cache_offered,
                    cache_baseline_tail,
                    0,
                    expect_catch,
                )
                .json,
            );
        }
    } else {
        println!("  cloudphysics trace unavailable; cache battery skipped");
    }

    write_json(
        "chaos",
        &serde_json::json!({
            "quick": opts.fast,
            "seed": opts.seed,
            "recovery_budget_micros": RECOVERY_BUDGET_MICROS,
            "quality_floor": QUALITY_FLOOR,
            "plans": rows,
        }),
    );
    println!("\nall fault plans passed every invariant");
}
