//! CC-COMPILE: reproduce the §5.0.3 verifier-pass-rate measurement.
//!
//! "We generated 100 candidate congestion control heuristics and attempted
//! to compile them into eBPF programs. Only 63% of the candidates passed
//! the eBPF verifier on the first try, and an additional 19% successfully
//! compiled after the Generator was provided with the stderr. … This
//! compilation rate for kernel code is substantially lower than what we
//! observed for caching: where 92% of candidates compiled in the first
//! pass itself."
//!
//! Usage: `exp_cc_compile [--seed N]` (generates 100 kernel candidates and
//! 100 cache candidates; a pure function of the seed).
//!
//! Exit status doubles as the CI guard: non-zero unless the kernel
//! first-pass rate is within 10 points of the paper's 63 %, stderr repair
//! recovers at least 10 more points, the cache template's first-pass rate
//! is at least 20 points above the kernel's ("substantially lower than …
//! caching"), and both of the paper's named failure causes occur — `check`
//! (floating point) and `verify` (unguarded division). One documented
//! deviation: the mock's repair rules recover 27 points where GPT-4o-mini
//! recovered 19, so the total lands at 89 % where the paper's is 82 %.

use policysmith_bench::{write_json, ExpOpts};
use policysmith_cc::check_candidate;
use policysmith_dsl::Mode;
use policysmith_gen::{GenConfig, Generator, MockLlm, Prompt};
use std::collections::BTreeMap;

fn main() {
    let opts = ExpOpts::from_args();
    let n = 100;

    // ---- kernel side ----
    let mut llm = MockLlm::new(GenConfig::kernel_defaults(opts.seed));
    let prompt = Prompt::new(Mode::Kernel);
    let batch = llm.generate(&prompt, n);
    let mut first_pass = 0;
    let mut after_repair = 0;
    let mut failures_by_stage: BTreeMap<&'static str, usize> = BTreeMap::new();
    for src in &batch {
        match check_candidate(src) {
            Ok(_) => first_pass += 1,
            Err(e) => {
                *failures_by_stage.entry(e.stage()).or_default() += 1;
                if let Some(fixed) = llm.repair(&prompt, src, &e.to_string()) {
                    if check_candidate(&fixed).is_ok() {
                        after_repair += 1;
                    }
                }
            }
        }
    }
    println!("=== §5.0.3 kernel pipeline, {n} candidates ===");
    println!("first-try verifier pass : {first_pass}%   (paper: 63%)");
    println!("recovered via stderr    : +{after_repair}%   (paper: +19%)");
    println!("total compiled          : {}%   (paper: 82%)", first_pass + after_repair);
    println!("failure stages          : {failures_by_stage:?}");
    println!(
        "  (paper: \"most common causes were floating-point arithmetic and \
              missing checks for division by zero\" — here `check` = float/type \
              errors, `verify` = division-by-zero interval rejections)"
    );

    // ---- cache side for the 92% contrast ----
    let mut cache_llm = MockLlm::new(GenConfig::cache_defaults(opts.seed));
    let cache_prompt = Prompt::new(Mode::Cache);
    let cache_batch = cache_llm.generate(&cache_prompt, n);
    let cache_first = cache_batch
        .iter()
        .filter(|s| {
            policysmith_dsl::parse(s)
                .map(|e| policysmith_dsl::check(&e, Mode::Cache).is_ok())
                .unwrap_or(false)
        })
        .count();
    println!("\ncache-template first-pass compile rate: {cache_first}%   (paper: 92%)");

    let mut violations: Vec<String> = Vec::new();
    if !(53..=73).contains(&first_pass) {
        violations.push(format!("kernel first-pass {first_pass} %; need 63 ± 10"));
    }
    if after_repair < 10 {
        violations.push(format!("stderr repair recovered {after_repair} points; need ≥ 10"));
    }
    if cache_first < first_pass + 20 {
        violations.push(format!(
            "cache first-pass {cache_first} % vs kernel {first_pass} %; need ≥ 20 points above"
        ));
    }
    for stage in ["check", "verify"] {
        if !failures_by_stage.contains_key(stage) {
            violations.push(format!("no candidate failed at `{stage}`: {failures_by_stage:?}"));
        }
    }

    write_json(
        "cc_compile",
        &serde_json::json!({
            "n": n,
            "kernel_first_pass_pct": first_pass,
            "kernel_after_repair_pct": after_repair,
            "kernel_total_pct": first_pass + after_repair,
            "kernel_failure_stages": failures_by_stage,
            "cache_first_pass_pct": cache_first,
            "paper": { "kernel_first": 63, "kernel_repair": 19, "cache_first": 92 },
            "deviation": format!(
                "MockLlm's repair rules recover {after_repair} points where GPT-4o-mini \
                 recovered 19, so the total is {} % where the paper's is 82 %",
                first_pass + after_repair
            ),
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
    println!("\nthe compile rates tell the paper's story");
}
