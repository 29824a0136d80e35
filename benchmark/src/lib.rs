//! # policysmith-benchmark — the repo's one perf ledger
//!
//! Seven workloads, five driver-bounded end-to-end metrics, and per-layer
//! metrics taken **from outside**: every number comes from timing calls
//! into public functions of the `policysmith` facade or from wrapping its
//! public traits in the timing adaptors of [`adaptors`]. `README.md` in
//! this directory has the tables; `BENCHMARK.json` at the repo root is the
//! list of names.

pub mod adaptors;
pub mod catalog;
pub mod harness;
pub mod json;
pub mod ledger;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod workloads;

use harness::RunCfg;
use std::path::PathBuf;

const USAGE: &str = "\
usage: psbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--result FILE]
               [--self-test-corrupt]  (corrupt one reference decision: the run must exit 1)
       psbench ledger --out FILE [--stamp KEY=VALUE]... RUN.json...
       psbench calibrate [--write BENCHMARK.json] RUN.json...
       psbench agree DIR_A DIR_B
       psbench workloads";

/// Run the command line; returns the process exit code.
pub fn cli(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("workloads") => {
            workloads::NAMES.iter().for_each(|w| println!("{w}"));
            Ok(0)
        }
        Some("ledger") => {
            let (mut out, mut stamp, mut files) = (None, Vec::new(), Vec::new());
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => out = it.next().cloned(),
                    "--stamp" => {
                        let kv = it.next().ok_or("--stamp KEY=VALUE")?;
                        let (k, v) = kv.split_once('=').ok_or("--stamp KEY=VALUE")?;
                        stamp.push((k.to_string(), v.to_string()));
                    }
                    _ => files.push(a.clone()),
                }
            }
            let doc = ledger::assemble(&ledger::read_runs(&files)?, &stamp);
            let path = out.ok_or("ledger needs --out FILE")?;
            let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())? + "\n";
            std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
            println!("ledger written to {path}");
            Ok(0)
        }
        Some("calibrate") => {
            let (mut write, mut files) = (None, Vec::new());
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--write" => write = it.next().cloned(),
                    _ => files.push(a.clone()),
                }
            }
            ledger::calibrate(&ledger::read_runs(&files)?, write.as_deref())?;
            Ok(0)
        }
        Some("agree") => {
            let [a, b] = &args[1..] else { return Err(USAGE.into()) };
            let problems = ledger::agree(&ledger::read_dir(a)?, &ledger::read_dir(b)?);
            problems.iter().for_each(|p| eprintln!("DISAGREE: {p}"));
            println!("{} disagreements", problems.len());
            Ok(i32::from(!problems.is_empty()))
        }
        _ => run_workload(args),
    }
}

fn run_workload(args: &[String]) -> Result<i32, String> {
    let catalog = catalog::Catalog::load();
    let mut cfg = RunCfg::new("", 42, catalog.run_seconds, false);
    let mut result_file: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{a} needs {what}\n{USAGE}"));
        match a.as_str() {
            "--workload" => cfg.workload = value("a name")?,
            "--seed" => {
                cfg.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => cfg.out_dir = Some(value("a directory")?.into()),
            "--result" => result_file = Some(value("a file")?.into()),
            "--self-test-corrupt" => cfg.corrupt = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err(USAGE.into());
    }
    let outcome = workloads::run(&cfg)?;
    let contract = harness::report(&cfg, &catalog, &outcome)?;
    if let Some(path) = result_file {
        let doc = ledger::run_file(&cfg, &outcome, &contract);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // the result object is the last line of standard output
    println!("{}", serde_json::to_string(&contract).map_err(|e| e.to_string())?);
    Ok(outcome.exit_code())
}
