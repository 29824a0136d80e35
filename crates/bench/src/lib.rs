//! Shared machinery for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md §3 for the index).

use policysmith_cachesim::policies;
use policysmith_core::search::{run_search, SearchConfig, SearchOutcome};
use policysmith_core::studies::cache::CacheStudy;
use policysmith_gen::{GenConfig, MockLlm};
use policysmith_traces::DatasetSpec;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default requests per trace in experiments (CLI-overridable).
pub const DEFAULT_REQUESTS: usize = 60_000;

/// A tiny slice-backed [`FeatureEnv`](policysmith_dsl::FeatureEnv) for the
/// interpreter-vs-VM benchmarks: feature reads cost one short linear scan,
/// matching how the real hosts resolve features (a `match`, not a
/// hash map), so neither engine is handicapped by the test harness.
pub struct SliceEnv<'a>(pub &'a [(policysmith_dsl::Feature, i64)]);

impl policysmith_dsl::FeatureEnv for SliceEnv<'_> {
    fn feature(&self, f: policysmith_dsl::Feature) -> i64 {
        self.0.iter().find(|(g, _)| *g == f).map(|(_, v)| *v).unwrap_or(0)
    }
}

/// One interpreter-vs-VM benchmark workload: `(name, mode, source,
/// feature values)`.
pub type VmWorkload =
    (&'static str, policysmith_dsl::Mode, &'static str, &'static [(policysmith_dsl::Feature, i64)]);

/// The per-mode workloads of the `dsl_vm` criterion bench.
pub fn vm_workloads() -> [VmWorkload; 3] {
    use policysmith_dsl::{Feature, Mode};
    [
        (
            "cc",
            Mode::Kernel,
            "if(loss, max(cwnd >> 1, 2), \
             if(srtt > min_rtt + 10000, max(cwnd - 1, 2), \
                cwnd + max(acked / max(mss, 1), 1)))",
            &[
                (Feature::Cwnd, 40),
                (Feature::SrttUs, 50_000),
                (Feature::MinRttUs, 40_000),
                (Feature::AckedBytes, 1_500),
                (Feature::Mss, 1_500),
                (Feature::LossEvent, 0),
            ],
        ),
        (
            "cache",
            Mode::Cache,
            "if(hist.contains, hist.count * 20 + 100, 0) \
             + obj.count * 30 - obj.age / 300 - obj.size / 500 \
             + if(obj.size > sizes.p75, 0 - 50, 10)",
            &[
                (Feature::HistContains, 1),
                (Feature::HistCount, 4),
                (Feature::ObjCount, 7),
                (Feature::ObjAge, 12_000),
                (Feature::ObjSize, 900),
                (Feature::SizesPct(75), 700),
            ],
        ),
        (
            "lb",
            Mode::Lb,
            "server.inflight * 1000 / server.speed + server.queue_len * 50 \
             + server.work_left / 100 + req.size * 1000 / server.speed",
            &[
                (Feature::ServerInflight, 5),
                (Feature::ServerSpeed, 4),
                (Feature::ServerQueueLen, 3),
                (Feature::ServerWorkLeft, 12_000),
                (Feature::ReqSize, 7),
            ],
        ),
    ]
}

/// Common CLI flags shared by the experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct ExpOpts {
    pub requests: usize,
    pub fast: bool,
    pub threads: usize,
    pub seed: u64,
}

impl ExpOpts {
    /// Parse `std::env::args`; on an unknown flag or a missing or
    /// malformed value, print usage to stderr and exit 2.
    pub fn from_args() -> ExpOpts {
        let args: Vec<String> = std::env::args().collect();
        ExpOpts::parse(&args[1..]).unwrap_or_else(|why| {
            eprintln!("{0}: {why}\nusage: {0} [--fast|--quick] [--requests N] [--seed N]", args[0]);
            std::process::exit(2)
        })
    }

    /// Parse the flags after the program name (`--fast` / its `--quick`
    /// alias, `--requests N`, `--seed N`).
    fn parse(args: &[String]) -> Result<ExpOpts, String> {
        let mut opts = ExpOpts {
            requests: DEFAULT_REQUESTS,
            fast: false,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            seed: 42,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--fast" | "--quick" => {
                    opts.fast = true;
                    opts.requests = opts.requests.min(20_000);
                }
                "--requests" => {
                    opts.requests = value()?.parse().map_err(|e| format!("--requests: {e}"))?;
                }
                "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(opts)
    }

    /// Search configuration scaled to the opts.
    pub fn search_cfg(&self) -> SearchConfig {
        if self.fast {
            SearchConfig { rounds: 6, candidates_per_round: 12, ..SearchConfig::paper_cache() }
        } else {
            SearchConfig::paper_cache()
        }
    }
}

/// A synthesized heuristic with provenance (one per search context).
#[derive(Debug, Clone, Serialize)]
pub struct SynthesizedHeuristic {
    /// Label in the paper's convention (A–D for CloudPhysics, W–Z for MSR).
    pub label: String,
    /// Context trace name (e.g. `cloudphysics/w89`).
    pub context: String,
    pub source: String,
    /// Score (improvement over FIFO) in the home context.
    pub home_score: f64,
}

/// Run the §4.2.1 search on `contexts` of a dataset, producing labelled
/// heuristics (A–D / W–Z).
pub fn synthesize_for_dataset(
    ds: &DatasetSpec,
    contexts: &[usize],
    labels: &[&str],
    opts: &ExpOpts,
) -> Vec<(SynthesizedHeuristic, SearchOutcome)> {
    assert_eq!(contexts.len(), labels.len());
    contexts
        .iter()
        .zip(labels)
        .map(|(&idx, &label)| {
            let trace = ds.trace(idx, opts.requests);
            let study = CacheStudy::new(&trace);
            let mut llm = MockLlm::new(GenConfig::cache_defaults(
                opts.seed ^ (idx as u64).wrapping_mul(0x9e3779b97f4a7c15),
            ));
            let outcome = run_search(&study, &mut llm, &opts.search_cfg());
            (
                SynthesizedHeuristic {
                    label: label.to_string(),
                    context: trace.name.clone(),
                    source: outcome.best.source.clone(),
                    home_score: outcome.best.score,
                },
                outcome,
            )
        })
        .collect()
}

/// Improvement matrix: for every trace of the dataset, the miss-ratio
/// improvement over FIFO of each named policy (baselines + synthesized).
#[derive(Debug, Clone, Serialize)]
pub struct ImprovementMatrix {
    pub dataset: String,
    pub trace_names: Vec<String>,
    pub policies: Vec<String>,
    /// `rows[p][t]` = improvement of policy `p` on trace `t`.
    pub rows: Vec<Vec<f64>>,
}

impl ImprovementMatrix {
    /// Mean improvement of policy `p`.
    pub fn mean(&self, p: usize) -> f64 {
        self.rows[p].iter().sum::<f64>() / self.rows[p].len() as f64
    }

    /// Fraction of traces where policy `p` beats every policy in
    /// `baseline_ixs` (the Table-2 statistic).
    pub fn beats_all_fraction(&self, p: usize, baseline_ixs: &[usize]) -> f64 {
        let n = self.trace_names.len();
        let wins = (0..n)
            .filter(|&t| baseline_ixs.iter().all(|&b| self.rows[p][t] >= self.rows[b][t]))
            .count();
        wins as f64 / n as f64
    }

    /// Per-trace oracle over the given policy indices (§4.2.4's B-Oracle /
    /// PS-Oracle construction); returns its improvement vector.
    pub fn oracle(&self, ixs: &[usize]) -> Vec<f64> {
        (0..self.trace_names.len())
            .map(|t| ixs.iter().map(|&p| self.rows[p][t]).fold(f64::MIN, f64::max))
            .collect()
    }
}

/// Compute the improvement matrix for a dataset: the paper's 14 baselines
/// plus every synthesized heuristic. Parallel over traces.
pub fn improvement_matrix(
    ds: &DatasetSpec,
    synthesized: &[SynthesizedHeuristic],
    opts: &ExpOpts,
) -> ImprovementMatrix {
    let baseline_names: Vec<String> =
        policies::paper_baseline_names().iter().map(|s| s.to_string()).collect();
    let mut policy_names = baseline_names.clone();
    for h in synthesized {
        policy_names.push(h.label.clone());
    }

    let trace_ixs: Vec<usize> = ds.indices().collect();
    let n_traces = trace_ixs.len();
    let results = Mutex::new(vec![vec![0.0f64; n_traces]; policy_names.len()]);
    let names = Mutex::new(vec![String::new(); n_traces]);
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..opts.threads.clamp(1, n_traces) {
            scope.spawn(|| loop {
                let t = cursor.fetch_add(1, Ordering::Relaxed);
                if t >= n_traces {
                    break;
                }
                let trace = ds.trace(trace_ixs[t], opts.requests);
                let study = CacheStudy::new(&trace);
                let mut col = Vec::with_capacity(policy_names.len());
                for name in &baseline_names {
                    let p = policies::by_name(name).expect("known baseline");
                    col.push(study.improvement(p));
                }
                for h in synthesized {
                    let expr = policysmith_dsl::parse(&h.source).expect("stored source parses");
                    col.push(study.improvement(policysmith_cachesim::PriorityPolicy::from_expr(
                        &h.label, &expr,
                    )));
                }
                let mut rows = results.lock().unwrap();
                for (p, v) in col.into_iter().enumerate() {
                    rows[p][t] = v;
                }
                names.lock().unwrap()[t] = trace.name;
            });
        }
    });

    ImprovementMatrix {
        dataset: ds.name.to_string(),
        trace_names: names.into_inner().unwrap(),
        policies: policy_names,
        rows: results.into_inner().unwrap(),
    }
}

/// Write a JSON result artifact under `results/`.
///
/// Object-shaped artifacts get a self-describing `"obs"` key appended:
/// the ambient observability state (`policysmith.obs.ambient.v1` — trace
/// log counts, never wall-clock), so every result records what
/// instrumentation was live when it was produced without perturbing the
/// artifact's reproducible fields.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.json");
    let mut tree = serde_json::to_value(value);
    if let serde::Value::Object(pairs) = &mut tree {
        if pairs.iter().all(|(k, _)| k != "obs") {
            pairs.push(("obs".to_string(), policysmith_obs::export::ambient_value()));
        }
    }
    let overwritten = policysmith_obs::trace::global().dropped();
    if overwritten > 0 {
        eprintln!(
            "warn: {path}: the trace ring overwrote {overwritten} events (obs.trace_overwritten)"
        );
    }
    match serde_json::to_string_pretty(&tree) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warn: could not write {path}: {e}");
            } else {
                println!("[results written to {path}]");
            }
        }
        Err(e) => eprintln!("warn: could not serialize {name}: {e}"),
    }
}

/// Five-number summary used by the Fig. 2 text rendering.
pub fn summarize(xs: &[f64]) -> (f64, f64, f64, f64, f64) {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| v[((v.len() - 1) as f64 * p) as usize];
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    (q(0.0), q(0.25), mean, q(0.75), q(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_statistics() {
        let m = ImprovementMatrix {
            dataset: "test".into(),
            trace_names: vec!["t0".into(), "t1".into()],
            policies: vec!["base".into(), "synth".into()],
            rows: vec![vec![0.1, 0.3], vec![0.2, 0.25]],
        };
        assert!((m.mean(0) - 0.2).abs() < 1e-12);
        // synth beats base on trace 0 only → 50%
        assert!((m.beats_all_fraction(1, &[0]) - 0.5).abs() < 1e-12);
        assert_eq!(m.oracle(&[0, 1]), vec![0.2, 0.3]);
    }

    fn parse(args: &[&str]) -> Result<ExpOpts, String> {
        ExpOpts::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn opts_parse_known_flags() {
        let opts = parse(&["--quick", "--seed", "7", "--requests", "500"]).unwrap();
        assert!(opts.fast);
        assert_eq!((opts.seed, opts.requests), (7, 500));
        assert!(!parse(&[]).unwrap().fast);
    }

    #[test]
    fn opts_reject_typos_and_missing_values() {
        assert_eq!(parse(&["--qiuck"]).unwrap_err(), "unknown flag --qiuck");
        assert_eq!(parse(&["--fast", "--requests"]).unwrap_err(), "--requests needs a value");
        assert!(parse(&["--seed", "x"]).unwrap_err().starts_with("--seed: "));
    }

    #[test]
    fn summary_is_ordered() {
        let (min, q1, mean, q3, max) = summarize(&[0.3, 0.1, 0.2, 0.5, 0.4]);
        assert!(min <= q1 && q1 <= q3 && q3 <= max);
        assert!((mean - 0.3).abs() < 1e-12);
    }
}
