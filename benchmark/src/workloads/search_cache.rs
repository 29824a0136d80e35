//! `search-cache` — op = candidate generated. The paper's §4 flow:
//! sequential `run_search` (one evaluation thread, score memo on, the
//! paper's two exemplars) of `CacheStudy::new` (cache at 10 % of the
//! footprint) over four CloudPhysics-style contexts. Almost all of it is
//! `Study::evaluate`, so this is where cachesim, VM and rank work shows
//! and where generator and compile work must not.

use super::decide_cache::{cachesim_metrics, traced_pass};
use super::{
    eval_latency, eval_percentiles, finish_trace, gen_times, lap_search, reconcile,
    run_search_traced, search_counts, search_shares, self_ns, traced_cycles, untraced_cycles,
    CheckerSnapshot, TracedSearch,
};
use crate::adaptors::{GenStats, TimedStudy};
use crate::harness::{measure_setup, run_cycles, Laps, Outcome, RunCfg};
use crate::probes;
use crate::spans::Tracer;
use crate::stats::{self, Rng};
use policysmith::cachesim::PriorityPolicy;
use policysmith::core::search::{run_search, Scored, SearchConfig, SearchOutcome, Study};
use policysmith::core::studies::cache::CacheStudy;
use policysmith::dsl::Mode;
use policysmith::gen::{GenConfig, MockLlm};
use policysmith::traces::{self, Trace};
use std::sync::Arc;
use std::time::Instant;

/// The CloudPhysics-style parameter draws used as contexts (w89 is the
/// paper's running example). The seed draws each context's requests.
const CONTEXTS: [usize; 4] = [89, 12, 47, 3];
/// Independent request draws per context. What a search costs depends on
/// the trace it evaluates on and on the candidates its generator stream
/// proposes (searches of one context were measured 30 % apart), and a
/// run's mean over four draws of each context depends on the seed far less
/// than one draw does.
const DRAWS: usize = 4;
/// Searches cycle through every (draw, context) pair; a pair has its own
/// generator stream, so its searches repeat the same work.
const KINDS: usize = DRAWS * CONTEXTS.len();
const REQUESTS: usize = 8_000;
/// What one cycle of the untraced regions took on the 2-vCPU box (calm) at the
/// commit of `baseline/BENCH_0.json`: it turns `--seconds` into a number of
/// cycles ([`crate::harness::cycles_for`]), the same at every commit.
pub const CYCLE_S: f64 = 1.9;

fn search_cfg(rounds: usize, candidates_per_round: usize) -> SearchConfig {
    SearchConfig { rounds, candidates_per_round, threads: 1, ..SearchConfig::paper_cache() }
}

pub struct Context {
    pub trace: Trace,
    pub study: TimedStudy<CacheStudy>,
}

pub struct Inputs {
    pub contexts: Vec<Context>,
    pub synth_ns_per_request: f64,
}

pub fn inputs(seed: u64, requests: usize) -> Inputs {
    let mut synth_ns = 0u128;
    let contexts = (0..KINDS)
        .map(|i| {
            let idx = CONTEXTS[i % CONTEXTS.len()];
            let params = traces::cloudphysics().params(idx);
            let t0 = Instant::now();
            let trace = traces::generate(
                &format!("search-cache/w{idx:02}"),
                &params,
                stats::mix(seed, i as u64),
                requests,
            );
            synth_ns += t0.elapsed().as_nanos();
            let study = TimedStudy::new(CacheStudy::new(&trace));
            Context { trace, study }
        })
        .collect();
    Inputs { contexts, synth_ns_per_request: synth_ns as f64 / (requests * KINDS) as f64 }
}

fn setup(seed: u64) -> Inputs {
    let mut inp = inputs(seed, REQUESTS);
    for (i, ctx) in inp.contexts.iter_mut().enumerate() {
        let mut llm = MockLlm::new(GenConfig::cache_defaults(stats::mix(seed, 500 + i as u64)));
        run_search(&ctx.study, &mut llm, &search_cfg(1, 8));
        ctx.study.stats = Arc::default(); // the warm-up is not part of any figure
    }
    inp
}

/// A finished search and the context it ran in.
pub struct Finished {
    pub context: usize,
    pub outcome: SearchOutcome,
}

/// One pass: the search of kind `pass % KINDS`, on that kind's generator
/// stream, lapped into its evaluations and the rest.
fn search(
    inp: &Inputs,
    seed: u64,
    unit: u64,
    cfg: &SearchConfig,
    traced: TracedSearch,
    laps: &mut Laps,
    done: &mut Vec<Finished>,
) {
    let context = unit as usize % KINDS;
    let study = &inp.contexts[context].study;
    let llm = MockLlm::new(GenConfig::cache_defaults(stats::mix(seed, 1_000 + context as u64)));
    let outcome = run_search_traced(study, llm, cfg, "core.run_search", unit, traced);
    let ops = outcome.rounds.iter().map(|r| r.generated as u64).sum();
    lap_search(laps, context as u32, ops, &study.stats.take_eval_times());
    done.push(Finished { context, outcome });
}

/// Every winner must pass the Checker again and re-evaluate to the
/// bit-identical score; returns a description of the first that does not.
pub fn verify<S: Study>(
    studies: &[&S],
    winners: &[(usize, Scored)],
    corrupt: bool,
) -> Option<String> {
    for (k, (context, best)) in winners.iter().enumerate() {
        let reference = if corrupt && k == 0 { best.score + 1e-9 } else { best.score };
        let study = studies[*context];
        let again = match study.check(&best.source) {
            Ok(artifact) => study.evaluate(&artifact),
            Err(why) => {
                return Some(format!(
                    "winner `{}` no longer passes the Checker: {why}",
                    best.source
                ))
            }
        };
        if again.to_bits() != reference.to_bits() {
            return Some(format!(
                "winner `{}` re-evaluates to {again}, the search reported {reference}",
                best.source
            ));
        }
    }
    None
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = measure_setup(!cfg.trace, || setup(cfg.seed));
    let cfg_search = search_cfg(5, 16);
    let kinds = KINDS as u64;
    let mut done = Vec::new();

    let untraced = {
        let inp = &setup.inputs;
        let region = run_cycles(untraced_cycles(cfg, CYCLE_S), kinds, |laps, u| {
            search(inp, cfg.seed, u, &cfg_search, None, laps, &mut done)
        });
        out.attempted = region.ops();
        out.end_to_end(setup.seconds, &region, &eval_latency(&region));
        region
    };

    if cfg.trace {
        let tracer = Arc::new(Tracer::default());
        let cost = Tracer::calibrate();
        let gen_stats = Arc::new(GenStats::default());
        for ctx in &mut setup.inputs.contexts {
            out.failed += ctx.study.stats.failures();
            ctx.study.stats = Arc::default();
            ctx.study.tracer = Some(tracer.clone());
        }
        let inp = &setup.inputs;
        let mut traced_done = Vec::new();
        let mut first_round = CheckerSnapshot::default();
        let traced = run_cycles(traced_cycles(cfg, CYCLE_S), kinds, |laps, u| {
            let wrap = Some((&tracer, &gen_stats));
            search(inp, cfg.seed, u, &cfg_search, wrap, laps, &mut traced_done);
            if u as usize == KINDS - 1 {
                let seen: Vec<_> =
                    inp.contexts.iter().map(|c| (Mode::Cache, &*c.study.stats)).collect();
                first_round = CheckerSnapshot::take(&seen);
            }
        });
        out.attempted += traced.ops();

        // the winner of the first traced search, replayed in the study's
        // own 10 % regime with the policy's callbacks as spans
        let probe = &traced_done[0];
        let ctx = &inp.contexts[probe.context];
        let winner = ctx.study.inner.check(&probe.outcome.best.source).expect("winners re-check");
        let host = PriorityPolicy::new("probe", winner.clone());
        let replayed = traced_pass(
            &tracer,
            &ctx.trace,
            ctx.study.inner.capacity(),
            host,
            stats::clock_cost_ns(),
        );

        let layers = finish_trace(cfg, &tracer, cost);
        let search_spans =
            ["core.run_search", "gen.generate", "gen.repair", "study.check", "study.evaluate"];
        reconcile(
            &mut out,
            self_ns(&layers, &search_spans) / traced.ops() as f64,
            &untraced,
            &traced,
        );
        search_shares(
            &mut out,
            &layers,
            &["core.run_search"],
            &["study.check"],
            &["study.evaluate"],
        );
        cachesim_metrics(&mut out, &layers, replayed, replayed.policy_ns);
        gen_times(&mut out, &gen_stats);
        let stats: Vec<_> = inp.contexts.iter().map(|c| &*c.study.stats).collect();
        eval_percentiles(&mut out, &stats);
        let first: Vec<_> = traced_done.iter().take(KINDS).map(|f| &f.outcome).collect();
        search_counts(&mut out, &first);
        first_round.report(&mut out, stats::clock_cost_ns());
        let mut rng = Rng::new(cfg.seed).fork(0x5c);
        probes::kbpf_run(&mut out, &winner, &mut rng);
        probes::dsl_eval(&mut out, winner.expr(), &mut rng);
        out.set("traces.synth_ns_per_request", inp.synth_ns_per_request);
        done.extend(traced_done);
    }

    let inp = &setup.inputs;
    out.failed += inp.contexts.iter().map(|c| c.study.stats.failures()).sum::<u64>();
    let studies: Vec<&CacheStudy> = inp.contexts.iter().map(|c| &c.study.inner).collect();
    let winners: Vec<_> = done.iter().map(|f| (f.context, f.outcome.best.clone())).collect();
    if let Some(problem) = verify(&studies, &winners, cfg.corrupt) {
        out.problem(problem);
    }
    // what the search is for, over a fixed set of searches so that it
    // repeats exactly: the first cycle's winners
    let first = &done[..KINDS];
    out.set(
        "quality_score",
        first.iter().map(|f| f.outcome.best.score).sum::<f64>() / first.len() as f64,
    );
    out
}
