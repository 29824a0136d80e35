//! Shared machinery for the experiment binaries that regenerate every
//! table and figure of the paper (`results/README.md` indexes what each
//! one writes).

use policysmith_core::search::{run_search, SearchConfig, SearchOutcome, Study};
use policysmith_gen::{GenConfig, MockLlm};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default requests per trace in experiments (CLI-overridable).
pub const DEFAULT_REQUESTS: usize = 60_000;

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

    /// The budget of one search per scenario preset (lb, aqm): 5 rounds
    /// of 10 candidates with `--fast`, else 12 of 20.
    pub fn preset_search_cfg(&self) -> SearchConfig {
        let (rounds, candidates_per_round) = if self.fast { (5, 10) } else { (12, 20) };
        SearchConfig { rounds, candidates_per_round, ..SearchConfig::paper_cache() }
    }
}

/// Print `violations` under `REGRESSION GUARD FAILED:` and exit 1; return
/// if there are none. Exit 1 is every experiment's failed guard; exit 2 is
/// a usage error ([`ExpOpts::from_args`]).
pub fn exit_on_violations(violations: &[String]) {
    if violations.is_empty() {
        return;
    }
    eprintln!("\nREGRESSION GUARD FAILED:");
    for v in violations {
        eprintln!("  - {v}");
    }
    std::process::exit(1);
}

/// Run one search per context with its own [`MockLlm`], seeded
/// `seed ^ key·0x9e3779b97f4a7c15`. `key` names the context: the dataset
/// trace index for cache, the preset position for lb and aqm.
pub fn synthesize<'a, S: Study + 'a>(
    contexts: impl IntoIterator<Item = (usize, &'a S)>,
    defaults: fn(u64) -> GenConfig,
    cfg: &SearchConfig,
    seed: u64,
) -> Vec<SearchOutcome> {
    contexts
        .into_iter()
        .map(|(key, study)| {
            let mut llm =
                MockLlm::new(defaults(seed ^ (key as u64).wrapping_mul(0x9e3779b97f4a7c15)));
            run_search(study, &mut llm, cfg)
        })
        .collect()
}

/// Improvement matrix: for every context, the improvement over the
/// study's reference baseline of each named policy (baselines +
/// synthesized).
#[derive(Debug, Clone, Serialize)]
pub struct ImprovementMatrix {
    pub dataset: String,
    pub trace_names: Vec<String>,
    pub policies: Vec<String>,
    /// `rows[p][t]` = improvement of policy `p` on context `t`.
    pub rows: Vec<Vec<f64>>,
}

impl ImprovementMatrix {
    /// Build the matrix one context at a time: `column(t)` names context
    /// `t` and scores every policy on it, in `policies` order. `threads`
    /// workers claim columns from one shared cursor, so a slow context
    /// idles no one, and the matrix does not depend on the thread count.
    pub fn sweep(
        dataset: &str,
        policies: Vec<String>,
        contexts: usize,
        threads: usize,
        column: impl Fn(usize) -> (String, Vec<f64>) + Sync,
    ) -> ImprovementMatrix {
        let done = Mutex::new(vec![None; contexts]);
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.clamp(1, contexts.max(1)) {
                scope.spawn(|| loop {
                    let t = cursor.fetch_add(1, Ordering::Relaxed);
                    if t >= contexts {
                        break;
                    }
                    let col = column(t);
                    done.lock().expect("no worker panics holding the lock")[t] = Some(col);
                });
            }
        });
        let done = done.into_inner().expect("no worker panics holding the lock");
        let (trace_names, cols): (Vec<String>, Vec<Vec<f64>>) =
            done.into_iter().map(|c| c.expect("every column swept")).unzip();
        let rows = (0..policies.len()).map(|p| cols.iter().map(|c| c[p]).collect()).collect();
        ImprovementMatrix { dataset: dataset.to_string(), trace_names, policies, rows }
    }

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

    /// Print the matrix as a policy × context table of percentages with a
    /// mean column; a context prints without its `dataset/` prefix.
    pub fn print_table(&self, title: &str) {
        let contexts: Vec<&str> = self
            .trace_names
            .iter()
            .map(|n| n.split_once('/').map_or(n.as_str(), |(_, c)| c))
            .collect();
        let name_w = self.policies.iter().map(String::len).max().unwrap_or(0).max(6) + 2;
        let col_w = contexts.iter().map(|c| c.len()).max().unwrap_or(0).max(6) + 2;
        println!("\n=== {title}, policy × scenario ===");
        print!("{:name_w$}", "policy");
        for c in &contexts {
            print!("{c:>col_w$}");
        }
        println!("{:>8}", "mean");
        for (p, name) in self.policies.iter().enumerate() {
            print!("{name:name_w$}");
            for v in &self.rows[p] {
                print!("{:>w$.1}%", v * 100.0, w = col_w - 1);
            }
            println!("{:>7.1}%", self.mean(p) * 100.0);
        }
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

    #[test]
    fn sweep_is_independent_of_thread_count() {
        let column = |t: usize| {
            (format!("toy/c{t}"), vec![t as f64 / 7.0, (t as f64).sqrt(), -(t as f64) * 0.1])
        };
        let policies = || vec!["p0".to_string(), "p1".into(), "p2".into()];
        let one = ImprovementMatrix::sweep("toy", policies(), 8, 1, column);
        let three = ImprovementMatrix::sweep("toy", policies(), 8, 3, column);
        let bits = |m: &ImprovementMatrix| -> Vec<Vec<u64>> {
            m.rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&one), bits(&three));
        assert_eq!(one.trace_names, (0..8).map(|t| format!("toy/c{t}")).collect::<Vec<_>>());
        assert_eq!(three.trace_names, one.trace_names);
        assert_eq!(one.rows[1][4], 2.0);
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
