//! `compile-storm` — op = candidate source. Sources across all four
//! template modes — the mock LLM's calibrated fault mix, garbage batches
//! from a flaky transport, and hostile mutations of both — go through
//! `dsl::parse` → `CompiledPolicy::compile` → (Kernel accepts)
//! `ebpf::emit_policy` → `ebpf::model_check`. No simulator runs: this is
//! the only workload where compile-time work is all there is.

use super::{finish_trace, reconcile, self_ns, traced_cycles, untraced_cycles};
use crate::harness::{measure_setup, run_cycles, Laps, Outcome, RunCfg, UnitLatency};
use crate::probes::{self, seeded_env};
use crate::spans::Tracer;
use crate::stats::{self, FineHist, Rng};
use policysmith::dsl::{self, Mode};
use policysmith::ebpf;
use policysmith::gen::{FlakyConfig, FlakyGen, GenConfig, Generator, MockLlm, Prompt};
use policysmith::kbpf::CompiledPolicy;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Sources per mode; the timed region cycles over the corpus, which is
/// sound because nothing in the pipeline remembers an earlier source.
const PER_MODE: usize = 4_096;
const BATCH: usize = 16;
/// Sources per timed unit (≈ 15 ms, and enough ops for a p99): a pass over
/// the corpus is 16 units.
const UNIT_SOURCES: usize = 1_024;
/// What one cycle of the untraced regions took on the 2-vCPU box (calm) at the
/// commit of `baseline/BENCH_0.json`: it turns `--seconds` into a number of
/// cycles ([`crate::harness::cycles_for`]), the same at every commit.
pub const CYCLE_S: f64 = 0.255;
/// Share of transport-level garbage batches.
const P_GARBAGE: f64 = 0.12;
/// One source in this many is replaced by a hostile mutation.
const HOSTILE_EVERY: u64 = 8;

pub struct Inputs {
    pub corpus: Vec<(Mode, String)>,
    pub gen_us_per_candidate: f64,
}

fn gen_config(mode: Mode, seed: u64) -> GenConfig {
    match mode {
        Mode::Cache => GenConfig::cache_defaults(seed),
        Mode::Kernel => GenConfig::kernel_defaults(seed),
        Mode::Lb => GenConfig::lb_defaults(seed),
        Mode::Aqm => GenConfig::aqm_defaults(seed),
    }
}

/// What a generator that is wrong in ways the fault mix does not cover
/// sends: cut-off text, nesting and size past the budgets, a division the
/// verifier cannot prove, bytes that are not a program at all.
fn hostile(src: &str, rng: &mut Rng) -> String {
    match rng.below(5) {
        0 => src[..rng.below(src.len() as u64 + 1) as usize].to_string(),
        1 => format!("{}{src}{}", "(".repeat(80), ")".repeat(80)),
        2 => vec![src; 40].join(" + "),
        3 => format!("({src}) / (({src}) - ({src}))"),
        _ => (0..rng.below(120) + 1).map(|_| (b' ' + rng.below(95) as u8) as char).collect(),
    }
}

/// The seeded corpus: per mode, batches from `MockLlm` (calibrated
/// `FaultMix`) behind a `FlakyGen` that sometimes answers with garbage,
/// prompted with earlier sources as exemplars so mutation and crossover
/// run too; then every [`HOSTILE_EVERY`]-th source is mutated.
pub fn corpus(seed: u64, per_mode: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut corpus = Vec::with_capacity(per_mode * Mode::ALL.len());
    let mut gen_ns = 0u128;
    for (m, mode) in Mode::ALL.into_iter().enumerate() {
        let flaky = FlakyConfig {
            p_garbage: P_GARBAGE,
            ..FlakyConfig::none(stats::mix(seed, 100 + m as u64))
        };
        let mut generator =
            FlakyGen::new(MockLlm::new(gen_config(mode, stats::mix(seed, m as u64))), flaky);
        let mut prompt = Prompt::new(mode);
        let mut made = 0;
        while made < per_mode {
            let t0 = Instant::now();
            let batch = generator.generate(&prompt, BATCH.min(per_mode - made));
            gen_ns += t0.elapsed().as_nanos();
            let exemplars = batch
                .iter()
                .filter(|s| dsl::parse(s).is_ok())
                .take(2)
                .enumerate()
                .map(|(i, s)| policysmith::gen::Exemplar {
                    source: s.clone(),
                    score: 0.5 - i as f64 * 0.1,
                })
                .collect::<Vec<_>>();
            if !exemplars.is_empty() {
                prompt = Prompt::new(mode).with_exemplars(exemplars);
            }
            made += batch.len();
            corpus.extend(batch.into_iter().map(|s| (mode, s)));
        }
    }
    for (_, src) in &mut corpus {
        if rng.below(HOSTILE_EVERY) == 0 {
            *src = hostile(src, &mut rng);
        }
    }
    // interleave the modes so every stretch of the cycle is the same mix
    let n = corpus.len() as u64;
    for i in (1..corpus.len()).rev() {
        corpus.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Inputs { corpus, gen_us_per_candidate: gen_ns as f64 / 1e3 / n as f64 }
}

/// How far one source got.
pub enum Compiled {
    Rejected,
    Accepted(CompiledPolicy),
    /// A Kernel policy with its emitted, model-checked eBPF artifact.
    Offloaded(CompiledPolicy, ebpf::EbpfProgram),
    /// Accepted and emitted, but the model verifier refused the artifact —
    /// a correctness failure.
    CheckFailed,
}

/// The op: parse → compile → (Kernel) emit → model-check.
pub fn pipeline(mode: Mode, src: &str, tracer: Option<&Tracer>) -> Compiled {
    let span = |name| tracer.map(|t| t.begin(name));
    let parsed = {
        let _s = span("dsl.parse");
        dsl::parse(src)
    };
    let Ok(expr) = parsed else { return Compiled::Rejected };
    let compiled = {
        let _s = span("kbpf.compile");
        CompiledPolicy::compile(&expr, mode)
    };
    let Ok(policy) = compiled else { return Compiled::Rejected };
    if mode != Mode::Kernel {
        return Compiled::Accepted(policy);
    }
    let emitted = {
        let _s = span("ebpf.emit");
        ebpf::emit_policy(&policy)
    };
    // a refusal is the saturation gate doing its job, not a failure
    let Ok(prog) = emitted else { return Compiled::Accepted(policy) };
    let _s = span("ebpf.model_check");
    match ebpf::model_check(&prog) {
        Ok(_) => Compiled::Offloaded(policy, prog),
        Err(_) => Compiled::CheckFailed,
    }
}

/// Ops that violate the correctness rule, over one pass of the corpus: an
/// accepted program whose VM result differs from the independent
/// interpreter (`dsl::eval`) on a seeded in-range context, an emitted
/// program that fails the model check or whose eBPF interpretation differs
/// from the VM, or a panic anywhere in the pipeline.
pub fn verify(inp: &Inputs, seed: u64, corrupt: bool) -> u64 {
    let mut rng = Rng::new(seed).fork(0xd1ff);
    let mut failures = 0u64;
    let mut corrupt = corrupt;
    for (mode, src) in &inp.corpus {
        let outcome = catch_unwind(AssertUnwindSafe(|| pipeline(*mode, src, None)));
        let (policy, prog) = match outcome {
            Err(_) | Ok(Compiled::CheckFailed) => {
                failures += 1;
                continue;
            }
            Ok(Compiled::Rejected) => continue,
            Ok(Compiled::Accepted(p)) => (p, None),
            Ok(Compiled::Offloaded(p, prog)) => (p, Some(prog)),
        };
        let env = seeded_env(policy.layout().features(), &mut rng);
        let vm = policy.eval_once(&env).ok();
        let mut reference = dsl::eval(policy.expr(), &env).ok();
        if std::mem::take(&mut corrupt) {
            reference = reference.map(|v| v.wrapping_add(1)).or(Some(0));
        }
        let mut wrong = vm != reference;
        if let Some(prog) = prog {
            let mut ctx = Vec::new();
            policy.layout().fill(&env, &mut ctx);
            wrong |= ebpf::interp::run(&prog, &ctx).ok() != vm;
        }
        failures += u64::from(wrong);
    }
    failures
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let setup = measure_setup(!cfg.trace, || {
        let inp = corpus(cfg.seed, PER_MODE);
        for (mode, src) in &inp.corpus[..inp.corpus.len() / 10] {
            std::hint::black_box(matches!(pipeline(*mode, src, None), Compiled::Rejected));
        }
        inp
    });
    let inp = &setup.inputs;
    let clock_ns = stats::clock_cost_ns();

    // each op is µs-scale: timed one by one in the single pass
    let latency = RefCell::new(UnitLatency::new());
    let mut panics = 0u64;
    let mut pass = |laps: &mut Laps, tracer: Option<&Tracer>| {
        for (kind, unit) in inp.corpus.chunks(UNIT_SOURCES).enumerate() {
            let mut hist = FineHist::new();
            for (i, (mode, src)) in unit.iter().enumerate() {
                let t0 = Instant::now();
                let op = tracer.map(|t| {
                    t.set_op((kind * UNIT_SOURCES + i) as u64);
                    t.begin("compile-storm.op")
                });
                let outcome = catch_unwind(AssertUnwindSafe(|| pipeline(*mode, src, tracer)));
                drop(op);
                panics += u64::from(outcome.is_err());
                hist.record((t0.elapsed().as_nanos() as u64).saturating_sub(clock_ns as u64));
            }
            latency.borrow_mut().push_hist(kind as u32, &hist);
            laps.lap(kind as u32, unit.len() as u64);
        }
    };

    let untraced = run_cycles(untraced_cycles(cfg, CYCLE_S), 1, |laps, _| pass(laps, None));
    out.attempted = untraced.ops();
    out.end_to_end(setup.seconds, &untraced, &latency.borrow());

    if cfg.trace {
        // one pass of spans is ~100k; later traced passes are counted, and
        // timed, but their spans are over the cap
        let tracer = Tracer::default();
        let cost = Tracer::calibrate();
        let traced =
            run_cycles(traced_cycles(cfg, CYCLE_S), 1, |laps, _| pass(laps, Some(&tracer)));
        out.attempted += traced.ops();
        let layers = finish_trace(cfg, &tracer, cost);
        let ops = layers["compile-storm.op"].count as f64;
        let stages =
            ["compile-storm.op", "dsl.parse", "kbpf.compile", "ebpf.emit", "ebpf.model_check"];
        reconcile(&mut out, self_ns(&layers, &stages) / ops, &untraced, &traced);

        probes::compile_split(&mut out, &inp.corpus, clock_ns);
        let accepted: Vec<CompiledPolicy> = inp
            .corpus
            .iter()
            .filter_map(|(mode, src)| CompiledPolicy::compile(&dsl::parse(src).ok()?, *mode).ok())
            .collect();
        let mut rng = Rng::new(cfg.seed).fork(0xeb);
        probes::ebpf_split(Some(&mut out), &accepted, &mut rng, clock_ns);
        let columnar = accepted.iter().filter(|p| p.batch_plan().vectorizable).count();
        if let Some(first) = accepted.first() {
            probes::kbpf_run(&mut out, first, &mut rng);
            probes::dsl_eval(&mut out, first.expr(), &mut rng);
        }
        out.set_ratio("kbpf.batch_columnar_share", columnar as f64, accepted.len() as f64);
        out.set("gen.generate_us_per_candidate", inp.gen_us_per_candidate);
    }

    out.failed = panics + verify(inp, cfg.seed, cfg.corrupt);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_seeded_and_about_a_third_hostile() {
        let hash =
            |seed| {
                stats::fnv1a(corpus(seed, 256).corpus.iter().flat_map(|(m, s)| {
                    std::iter::once(*m as u8).chain(s.bytes()).collect::<Vec<_>>()
                }))
            };
        assert_eq!(hash(5), hash(5), "same seed, byte-identical corpus");
        assert_ne!(hash(5), hash(6), "another seed, another corpus");

        let inp = corpus(11, 512);
        assert_eq!(inp.corpus.len(), 4 * 512);
        let rejected = inp
            .corpus
            .iter()
            .filter(|(m, s)| matches!(pipeline(*m, s, None), Compiled::Rejected))
            .count() as f64
            / inp.corpus.len() as f64;
        assert!((0.2..0.5).contains(&rejected), "rejected share {rejected}");
    }

    #[test]
    fn accepted_programs_agree_with_the_interpreter_and_corruption_bites() {
        let inp = corpus(3, 256);
        assert_eq!(verify(&inp, 3, false), 0);
        assert_eq!(verify(&inp, 3, true), 1, "one corrupted reference value, one failure");
    }
}
