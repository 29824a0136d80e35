//! The ledger side of `run.sh`: assemble per-run result files into one
//! stamped `BENCH_<commit>.json`, derive regression bounds from ten
//! repetitions (`--calibrate`), and check that two sets of runs of the
//! same code agree within those bounds (`--agree`).

use crate::catalog::{self, Catalog};
use crate::harness::{Outcome, RunCfg};
use crate::json;
use crate::stats;
use serde::Value;
use serde_json::json;
use std::collections::BTreeMap;
use std::path::Path;

/// Count metrics that must repeat exactly for a given seed, wherever they
/// are reported; `serve-drift` is exempt (which windows the answering
/// generation serves depends on when the background search finishes).
pub const EXACT: [&str; 18] = [
    "failed_share",
    "quality_score",
    "dsl.nodes_per_source",
    "dsl.parse_reject_share",
    "gen.repair_fix_share",
    "gen.prompt_tokens_per_round",
    "kbpf.insns_per_program",
    "kbpf.verify_reject_share",
    "kbpf.batch_columnar_share",
    "ebpf.insns_per_program",
    "ebpf.emit_refuse_share",
    "ebpf.divergences",
    "cachesim.evictions_per_request",
    "cachesim.hit_share",
    "cachesim.policy_calls_per_request",
    "lbsim.score_calls_per_pick",
    "core.check_pass_share",
    "core.memo_hit_share",
];
const TIMING_DEPENDENT: &str = "serve-drift";

/// The per-run result file `--result` writes: the contract object plus
/// every value measured, with the run's own parameters.
pub fn run_file(cfg: &RunCfg, outcome: &Outcome, contract: &Value) -> Value {
    let mut values: Vec<(String, Value)> =
        outcome.values.iter().map(|(k, v)| (k.to_string(), json!(*v))).collect();
    values.push(("failed_share".into(), json!(outcome.failed_share())));
    values.push(("peak_rss_mb".into(), json!(stats::peak_rss_mib())));
    json!({
        "workload": cfg.workload,
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "trace": cfg.trace,
        "result": contract,
        "values": Value::Object(values),
        "notes": Value::Object(outcome.notes.iter().map(|(k, v)| (k.to_string(), json!(v))).collect()),
        "unit_fields": ["kind", "ops", "wall_ns", "cpu_ns"],
        "units": outcome.units.iter().map(|u| json!([u64::from(u.kind), u.ops, u.wall_ns, u.cpu_ns])).collect::<Vec<_>>(),
    })
}

/// One run read back: `(workload, seed, traced, metric → value)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub values: BTreeMap<String, f64>,
}

pub fn read_run(path: &Path) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |k: &str| json::get(&doc, k).ok_or(format!("{}: missing `{k}`", path.display()));
    Ok(Run {
        workload: json::as_str(field("workload")?).unwrap_or_default().to_string(),
        seed: json::as_f64(field("seed")?).unwrap_or(0.0) as u64,
        traced: field("trace")? == &Value::Bool(true),
        values: json::as_object(field("values")?)
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), json::as_f64(v)?)))
            .collect(),
    })
}

pub fn read_runs(paths: &[String]) -> Result<Vec<Run>, String> {
    paths.iter().map(|p| read_run(Path::new(p))).collect()
}

/// Every `*.json` run file directly under `dir`.
pub fn read_dir(dir: &str) -> Result<Vec<Run>, String> {
    let mut paths: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    paths.sort();
    read_runs(&paths)
}

/// `BENCH_<commit>.json`: one entry per workload with its end-to-end and
/// per-layer values, stamped with what they were measured on.
pub fn assemble(runs: &[Run], stamp: &[(String, String)]) -> Value {
    let catalog = Catalog::load();
    let workloads: Vec<Value> = catalog
        .workloads
        .iter()
        .filter(|(w, _)| runs.iter().any(|r| &r.workload == w))
        .map(|(w, _)| {
            let section = |traced: bool| {
                let pairs: Vec<(String, Value)> = runs
                    .iter()
                    .filter(|r| &r.workload == w && r.traced == traced)
                    .flat_map(|r| &r.values)
                    .filter(|(name, _)| catalog.is_end_to_end(name) != traced)
                    .map(|(name, v)| {
                        let unit = catalog.find(name).map(|m| m.unit.clone()).unwrap_or_default();
                        (name.clone(), json!({ "value": *v, "unit": unit }))
                    })
                    .collect();
                Value::Object(pairs)
            };
            json!({ "name": w, "end_to_end": section(false), "per_layer": section(true) })
        })
        .collect();
    let mut doc = vec![("schema".to_string(), json!("policysmith.benchmark.ledger.v1"))];
    doc.extend(stamp.iter().map(|(k, v)| (k.clone(), json!(v))));
    doc.push(("workloads".into(), Value::Array(workloads)));
    Value::Object(doc)
}

/// Median, quartiles and spread of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub workload: String,
    pub metric: String,
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub spread: f64,
}

/// Summaries of every end-to-end metric over the untraced runs.
pub fn summarize(runs: &[Run], catalog: &Catalog) -> Vec<Summary> {
    let mut out = Vec::new();
    for (w, _) in &catalog.workloads {
        for m in &catalog.end_to_end {
            let vals: Vec<f64> = runs
                .iter()
                .filter(|r| &r.workload == w && !r.traced)
                .filter_map(|r| r.values.get(&m.name).copied())
                .collect();
            if vals.len() < 2 {
                continue;
            }
            let (q1, q3) = stats::quartiles(&vals);
            out.push(Summary {
                workload: w.clone(),
                metric: m.name.clone(),
                n: vals.len(),
                median: stats::median(&vals),
                q1,
                q3,
                spread: stats::spread(&vals),
            });
        }
    }
    out
}

pub const MIN_BOUND: f64 = 0.03;
pub const MAX_BOUND: f64 = 0.25;

/// The bound a metric needs so that its widest per-workload spread stays
/// below a third of it: `max(3 %, 3 × spread)`, rounded up to a whole
/// percent and capped at the contract's 25 %. `setup_s` is given the
/// largest bound of all.
pub fn derive_bounds(summaries: &[Summary], catalog: &Catalog) -> Vec<(String, f64)> {
    let mut bounds: Vec<(String, f64)> = catalog
        .end_to_end
        .iter()
        .map(|m| {
            let widest = summaries
                .iter()
                .filter(|s| s.metric == m.name)
                .map(|s| s.spread)
                .fold(0.0, f64::max);
            (
                m.name.clone(),
                (((3.0 * widest).max(MIN_BOUND) * 100.0).ceil() / 100.0).min(MAX_BOUND),
            )
        })
        .collect();
    let widest = bounds.iter().map(|(_, b)| *b).fold(0.0, f64::max);
    for (name, b) in &mut bounds {
        if name == "setup_s" {
            *b = widest;
        }
    }
    bounds
}

pub fn print_summaries(summaries: &[Summary]) {
    println!(
        "{:14} {:16} {:>3} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "n", "median", "q1", "q3", "spread"
    );
    for s in summaries {
        println!(
            "{:14} {:16} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>7.2}%",
            s.workload,
            s.metric,
            s.n,
            s.median,
            s.q1,
            s.q3,
            s.spread * 100.0
        );
    }
}

/// `--calibrate`: print the summaries and derived bounds; with a path,
/// write the bounds into that `BENCHMARK.json`. A spread over a third of
/// its (capped) bound is reported; a spread over the bound itself is an
/// error — the driver would refuse the benchmark.
pub fn calibrate(runs: &[Run], write_to: Option<&str>) -> Result<(), String> {
    let catalog = Catalog::load();
    let summaries = summarize(runs, &catalog);
    print_summaries(&summaries);
    let bounds = derive_bounds(&summaries, &catalog);
    for (name, b) in &bounds {
        println!("bound {name} {b}");
    }
    for s in summaries.iter().filter(|s| s.metric != "setup_s") {
        let bound =
            bounds.iter().find(|(n, _)| *n == s.metric).map(|(_, b)| *b).unwrap_or(MAX_BOUND);
        if s.spread > bound {
            return Err(format!(
                "{} {}: spread {:.1}% exceeds even the capped bound {:.0}%",
                s.workload,
                s.metric,
                s.spread * 100.0,
                bound * 100.0
            ));
        }
        if s.spread > bound / 3.0 {
            println!(
                "note {} {}: spread {:.1}% is over a third of its bound {:.0}%",
                s.workload,
                s.metric,
                s.spread * 100.0,
                bound * 100.0
            );
        }
    }
    if let Some(path) = write_to {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        std::fs::write(path, catalog::with_bounds(&text, &bounds)?)
            .map_err(|e| format!("{path}: {e}"))?;
        println!("bounds written to {path}");
    }
    Ok(())
}

/// `--agree`: the driver's acceptance rule, applied to two sets of runs of
/// one commit. Returns every disagreement found.
pub fn agree(a: &[Run], b: &[Run]) -> Vec<String> {
    let catalog = Catalog::load();
    let (sa, sb) = (summarize(a, &catalog), summarize(b, &catalog));
    let mut problems = Vec::new();
    for first in &sa {
        let def = catalog.find(&first.metric).expect("summaries are of catalog metrics");
        let bound = def.bound.unwrap_or(MAX_BOUND);
        let Some(second) =
            sb.iter().find(|s| s.workload == first.workload && s.metric == first.metric)
        else {
            problems
                .push(format!("{} {}: missing from the second set", first.workload, first.metric));
            continue;
        };
        let worse = if def.higher_is_better {
            (first.median - second.median) / first.median
        } else {
            (second.median - first.median) / first.median
        };
        if worse > bound {
            problems.push(format!(
                "{} {}: second median {} is {:.1}% worse than the first {} (bound {:.0}%)",
                first.workload,
                first.metric,
                second.median,
                worse * 100.0,
                first.median,
                bound * 100.0
            ));
        }
        for s in [first, second] {
            if s.metric != "setup_s" && s.spread > bound {
                problems.push(format!(
                    "{} {}: spread {:.1}% exceeds the bound {:.0}%",
                    s.workload,
                    s.metric,
                    s.spread * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    for ra in a.iter().filter(|r| r.workload != TIMING_DEPENDENT) {
        let twin = b
            .iter()
            .find(|rb| (&rb.workload, rb.seed, rb.traced) == (&ra.workload, ra.seed, ra.traced));
        for name in EXACT {
            if let (Some(x), Some(y)) = (ra.values.get(name), twin.and_then(|t| t.values.get(name)))
            {
                if x.to_bits() != y.to_bits() {
                    problems.push(format!(
                        "{} seed {} {name}: {x} then {y} — a count that must repeat exactly",
                        ra.workload, ra.seed
                    ));
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, pairs: &[(&str, f64)]) -> Run {
        Run {
            workload: workload.into(),
            seed,
            traced: false,
            values: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn set(ops: impl Fn(u64) -> f64) -> Vec<Run> {
        (1..=10)
            .map(|s| run("decide-lb", s, &[("ops_per_s", ops(s)), ("quality_score", 0.9)]))
            .collect()
    }

    #[test]
    fn bounds_follow_the_widest_spread_and_setup_gets_the_largest() {
        let catalog = Catalog::load();
        // values 100..109: IQR 5.5 over median 104.5 = 5.26 %
        let runs = set(|s| 99.0 + s as f64);
        let summaries = summarize(&runs, &catalog);
        assert_eq!(summaries.len(), 1);
        assert!((summaries[0].spread - 5.5 / 104.5).abs() < 1e-12);
        let bounds = derive_bounds(&summaries, &catalog);
        let of = |n: &str| bounds.iter().find(|(m, _)| m == n).unwrap().1;
        assert_eq!(of("ops_per_s"), 0.16, "3 × 5.26 % rounded up");
        assert_eq!(of("cpu_ms_per_kop"), MIN_BOUND, "unmeasured metrics sit at the floor");
        assert_eq!(of("setup_s"), 0.16, "setup_s takes the largest bound");
    }

    #[test]
    fn agreement_is_one_sided_and_checks_exact_counts() {
        let base = set(|s| 1_000.0 + s as f64);
        assert!(agree(&base, &base).is_empty());
        let faster = set(|s| 1_500.0 + s as f64);
        assert!(agree(&base, &faster).is_empty(), "getting better is not a disagreement");
        let slower = set(|s| 500.0 + s as f64);
        let found = agree(&base, &slower);
        assert!(found.iter().any(|p| p.contains("worse than the first")), "{found:?}");

        let mut drifted = base.clone();
        drifted[3].values.insert("quality_score".into(), 0.9000001);
        let found = agree(&base, &drifted);
        assert!(found.iter().any(|p| p.contains("repeat exactly")), "{found:?}");
        let mut exempt = base.clone();
        for r in &mut exempt {
            r.workload = TIMING_DEPENDENT.into();
        }
        let mut moved = exempt.clone();
        moved[3].values.insert("quality_score".into(), 0.7);
        assert!(agree(&exempt, &moved).iter().all(|p| !p.contains("repeat exactly")));
    }

    #[test]
    fn ledger_splits_sections_and_carries_the_stamp() {
        let mut traced = run("decide-lb", 42, &[("lbsim.pick_ns", 1_700.0), ("ops_per_s", 5e5)]);
        traced.traced = true;
        let plain = run("decide-lb", 42, &[("ops_per_s", 5.2e5), ("setup_s", 0.03)]);
        let doc = assemble(&[plain, traced], &[("commit".into(), "abc1234".into())]);
        assert_eq!(json::get(&doc, "commit").and_then(json::as_str), Some("abc1234"));
        let w = &json::as_array(json::get(&doc, "workloads").unwrap())[0];
        assert_eq!(
            json::path(w, &["end_to_end", "ops_per_s", "value"]).and_then(json::as_f64),
            Some(5.2e5),
            "end-to-end figures come from the untraced run"
        );
        assert_eq!(
            json::path(w, &["per_layer", "lbsim.pick_ns", "unit"]).and_then(json::as_str),
            Some("ns")
        );
        assert!(json::path(w, &["end_to_end", "lbsim.pick_ns"]).is_none());
    }
}
