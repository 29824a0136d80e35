//! AQM: the fourth-workload experiment — synthesized queue management vs
//! the man-made classics.
//!
//! 1. **Baseline league table** — drop-tail, CoDel and PIE replay every
//!    scenario preset; utilization, mean sojourn and the power score per
//!    cell (the man-made state of the art this domain accumulated over
//!    three decades).
//! 2. **Per-preset search** — one policy synthesized per home context
//!    (`AqmStudy` + `MockLlm`), then every synthesized policy evaluated
//!    on every preset: the cross-scenario improvement matrix.
//! 3. **Generalization slice** — the synthesized policies become a
//!    [`HeuristicLibrary`]; per preset the library re-scores every entry
//!    and deploys the winner (the PS-Oracle row of the cache study's
//!    Table 2, §4.2.4).
//!
//! Exit status doubles as the CI guard: 1 unless the library's best
//! stored policy beats the best man-made baseline on at least 3 presets
//! (1 in `--fast`/`--quick` mode — the short search is weaker).
//!
//! Usage: `exp_aqm [--fast|--quick] [--seed N]`
//!
//! Writes `results/aqm.json` (schema in `results/README.md`).

use policysmith_aqmsim::{aqm_baseline_names, metrics, scenario, ExprAqm};
use policysmith_bench::{exit_on_violations, synthesize, write_json, ExpOpts, ImprovementMatrix};
use policysmith_core::library::{rescore, HeuristicLibrary, LibraryEntry};
use policysmith_core::studies::aqm::AqmStudy;
use policysmith_gen::GenConfig;

fn main() {
    let opts = ExpOpts::from_args();
    let cfg = opts.preset_search_cfg();

    let presets = scenario::all_presets();
    let studies: Vec<AqmStudy> = presets.iter().map(AqmStudy::new).collect();
    let n_base = aqm_baseline_names().len();

    // -- 1: the man-made league table --
    println!("=== man-made baselines: utilization / mean sojourn / power ===");
    let mut league = Vec::new();
    for sc in &presets {
        for name in aqm_baseline_names() {
            let m = metrics::run_baseline(sc, name);
            println!(
                "{:16} {:10}  util {:>5.1}%  sojourn {:>8.1} µs  power {:.4}",
                sc.name,
                name,
                m.agg_utilization * 100.0,
                m.mean_sojourn_us,
                m.power
            );
            league.push(serde_json::json!({
                "scenario": sc.name, "policy": name,
                "utilization": m.agg_utilization,
                "mean_sojourn_us": m.mean_sojourn_us,
                "max_sojourn_us": m.max_sojourn_us,
                "tail_drops": m.tail_drops,
                "aqm_drops": m.aqm_drops,
                "ecn_marks": m.ecn_marks,
                "power": m.power,
            }));
        }
    }

    // -- 2: synthesize one policy per home context --
    let outcomes = synthesize(studies.iter().enumerate(), GenConfig::aqm_defaults, &cfg, opts.seed);
    let synthesized: Vec<(String, String, f64)> = outcomes // (label, source, home score)
        .iter()
        .enumerate()
        .map(|(i, o)| {
            (format!("AQM-{}", (b'A' + i as u8) as char), o.best.source.clone(), o.best.score)
        })
        .collect();
    for ((label, source, home), study) in synthesized.iter().zip(&studies) {
        println!(
            "\n{label} (home {}): {home:+.4} over drop-tail   act(pkt, q) = {source}",
            study.scenario().name
        );
    }

    // -- the scenario × scenario matrix: every policy on every context --
    let exprs: Vec<_> = synthesized
        .iter()
        .map(|(_, source, _)| policysmith_dsl::parse(source).expect("stored source parses"))
        .collect();
    let names = aqm_baseline_names().iter().map(|s| s.to_string());
    let names = names.chain(synthesized.iter().map(|(l, _, _)| l.clone())).collect();
    let matrix = ImprovementMatrix::sweep("aqmsim", names, studies.len(), opts.threads, |t| {
        let s = &studies[t];
        let baselines = aqm_baseline_names().iter().map(|name| s.baseline_improvement(name));
        let synthesized = synthesized
            .iter()
            .zip(&exprs)
            .map(|((label, ..), e)| s.improvement(Box::new(ExprAqm::from_expr(label, e))));
        (s.scenario().name.clone(), baselines.chain(synthesized).collect())
    });
    matrix.print_table("power improvement over drop-tail");

    // -- 3: the library slice — re-score every stored policy per preset,
    //       deploy the winner (the §4.2.4 oracle-adaptation model) --
    let mut library = HeuristicLibrary::new();
    for ((_, source, home), sc) in synthesized.iter().zip(&presets) {
        library.add(LibraryEntry {
            context: sc.name.clone(),
            source: source.clone(),
            score: *home,
        });
    }
    let mut oracle: Vec<f64> = Vec::new();
    let mut deployed: Vec<String> = Vec::new();
    for study in &studies {
        let (best, score) =
            library.best_for(|e| rescore(study, &e.source)).expect("library is non-empty");
        oracle.push(score);
        deployed.push(best.context.clone());
    }

    // -- the CI guard: the library must beat the best man-made baseline --
    let need = if opts.fast { 1 } else { 3 };
    let mut beaten = 0usize;
    println!("\n=== library (PS-Oracle) vs best man-made baseline ===");
    for (t, sc) in presets.iter().enumerate() {
        let best_manmade = (0..n_base).map(|b| matrix.rows[b][t]).fold(f64::MIN, f64::max);
        let won = oracle[t] > best_manmade;
        beaten += won as usize;
        println!(
            "{:16} library {:+.1}% (from {})  best man-made {:+.1}%  {}",
            sc.name,
            oracle[t] * 100.0,
            deployed[t],
            best_manmade * 100.0,
            if won { "WIN" } else { "loss" }
        );
    }
    let oracle_mean: f64 = oracle.iter().sum::<f64>() / oracle.len() as f64;
    println!(
        "library wins on {beaten}/{} presets (need ≥ {need}); oracle mean {:+.1}%",
        presets.len(),
        oracle_mean * 100.0
    );

    write_json(
        "aqm",
        &serde_json::json!({
            "scenarios": matrix.trace_names,
            "droptail_power": studies.iter().map(|s| s.droptail_power()).collect::<Vec<_>>(),
            "baseline_league": league,
            "policies": matrix.policies,
            "rows": matrix.rows,
            "synthesized": synthesized,
            "oracle": oracle,
            "oracle_deployed_from": deployed,
            "library_wins": beaten,
            "search": { "rounds": cfg.rounds, "candidates_per_round": cfg.candidates_per_round,
                        "seed": opts.seed, "fast": opts.fast },
        }),
    );

    if beaten < need {
        exit_on_violations(&[format!(
            "library beat the best man-made baseline on only {beaten}/{} presets (need ≥ {need})",
            presets.len()
        )]);
    }
}
