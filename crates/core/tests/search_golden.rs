//! Golden outcomes for the search loop. A search is a pure function of
//! `(study, generator seed, SearchConfig)`, and within a config neither the
//! thread count nor whether round N+1 is generated beside round N's
//! evaluation may move it. Every row of `tests/golden/search_outcomes.txt`
//! was captured at the commit *before* the sequential and pipelined
//! executors became one loop (where, at lag 1, both executors were run and
//! asserted to agree), so a change to how rounds are scheduled, planned
//! against the memo, scored or folded fails here with the first differing
//! row: every `Scored` (round, score bits, source), every `RoundStats`,
//! `candidates_evaluated` and `memo_hits`, per lag ∈ {0, 1} × threads ∈
//! {1, 3}, on a cache study and an lb study.
//!
//! To re-capture after an *intended* behaviour change (a different exemplar
//! schedule, memo key or generator stream — never an executor change), run
//! the test and copy the file it names in the failure message over the
//! golden.

use policysmith_core::search::{run_search, SearchConfig, SearchOutcome, Study};
use policysmith_core::studies::cache::CacheStudy;
use policysmith_core::studies::lb::LbStudy;
use policysmith_gen::{GenConfig, MockLlm};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/search_outcomes.txt");

fn dump(out: &mut String, label: &str, o: &SearchOutcome) {
    writeln!(
        out,
        "{label} evaluated={} memo_hits={} best=r{}/{:016x}",
        o.cost.candidates_evaluated,
        o.cost.memo_hits,
        o.best.round,
        o.best.score.to_bits()
    )
    .unwrap();
    for r in &o.rounds {
        writeln!(
            out,
            "  round {} generated={} passed_first={} passed_after_repair={} best_so_far={:016x} round_best={:016x}",
            r.round,
            r.generated,
            r.passed_first,
            r.passed_after_repair,
            r.best_score_so_far.to_bits(),
            r.round_best.to_bits()
        )
        .unwrap();
    }
    for s in &o.all {
        writeln!(out, "  scored r{} {:016x} {}", s.round, s.score.to_bits(), s.source).unwrap();
    }
}

fn cells<S: Study>(out: &mut String, name: &str, study: &S, gen: GenConfig) {
    for exemplar_lag in [0, 1] {
        for threads in [1, 3] {
            let cfg = SearchConfig {
                rounds: 6,
                candidates_per_round: 12,
                exemplar_lag,
                threads,
                ..SearchConfig::quick()
            };
            let outcome = run_search(study, &mut MockLlm::new(gen), &cfg);
            dump(out, &format!("{name}/lag{exemplar_lag}/t{threads}"), &outcome);
        }
    }
}

fn outcomes() -> String {
    let mut out = String::new();
    let trace = policysmith_traces::cloudphysics().trace(10, 15_000);
    cells(&mut out, "cache", &CacheStudy::new(&trace), GenConfig::cache_defaults(7));
    let flash_crowd = policysmith_lbsim::scenario::flash_crowd();
    cells(&mut out, "lb", &LbStudy::new(&flash_crowd), GenConfig::lb_defaults(7));
    out
}

#[test]
fn outcomes_match_the_golden_bit_for_bit() {
    let actual = outcomes();
    if actual == GOLDEN {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("search_outcomes.actual.txt");
    std::fs::write(&dump, &actual).expect("write the actual outcomes next to the test binary");
    let (a, g) = actual
        .lines()
        .zip(GOLDEN.lines())
        .find(|(a, g)| a != g)
        .unwrap_or(("<row count differs>", "<row count differs>"));
    panic!(
        "search outcomes moved.\n  golden: {g}\n  actual: {a}\nfull actual output: {}",
        dump.display()
    );
}
