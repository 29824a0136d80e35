//! The evolutionary search loop (Fig. 1 of the paper).
//!
//! Round structure per §4.2.1: the Generator is prompted with the template
//! plus the **top-k candidates across all previous rounds** as exemplars
//! and produces a batch; the Checker filters (with one stderr-feedback
//! repair attempt per rejected candidate, §4.1.3/§5.0.3); the Evaluator
//! scores survivors — in parallel, since candidate evaluations are
//! independent simulations. The loop is generic over both the study and
//! the generator, so a real LLM client slots in behind
//! [`policysmith_gen::Generator`] unchanged.
//!
//! ## Throughput
//!
//! There is one round loop ([`try_run_search`]). Each round is scored on
//! per-round scoped workers, and whenever the exemplar schedule allows it
//! — [`SearchConfig::exemplar_lag`] ≥ 1, so round N+1's prompt ranks only
//! rounds `< N` — the calling thread, which owns the generator, generates
//! and checks round N+1 beside round N's evaluation. Generation only
//! *reads* the scored candidates and nothing is folded until the workers
//! are joined, so the overlap changes when a round is generated and never
//! what from: thread count and overlap cannot move a [`SearchOutcome`]
//! (`tests/search_golden.rs` pins it per lag × threads). At lag 0 with
//! one thread there is nothing to run beside, and the evaluations stay a
//! plain loop on the caller. Because [`Study::evaluate`] is pure by
//! contract, a cross-candidate **score memo** skips re-simulating sources
//! the search has already scored (`CostLedger::memo_hits` counts the
//! skips).
//!
//! ## Tracing
//!
//! The loop emits lifecycle span events to the global [`policysmith_obs`]
//! trace log: `search_round_start` when a round begins generating,
//! `search_round_end` with that round's `CostLedger` deltas when it folds,
//! and `search_done` with the final totals. Emission is outcome-neutral —
//! it writes to a side log and never touches scores.

use policysmith_dsl::Mode;
use policysmith_gen::{Exemplar, GenError, Generator, Prompt, TokenLedger};
use policysmith_obs::{emit, TraceKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// One case-study instantiation: the Checker + Evaluator pair of §3.
///
/// `check` returns either a ready-to-run artifact or compiler/verifier
/// diagnostics (the "stderr" the repair loop feeds back). `evaluate`
/// returns a score where **higher is better**; it must be pure (same
/// artifact → same score) so searches are reproducible.
pub trait Study: Sync {
    /// Compiled/verified candidate representation. `Sync` because scoring
    /// threads read artifacts in place.
    type Artifact: Send + Sync;
    /// Which template this study searches.
    fn mode(&self) -> Mode;
    /// The Checker: source → artifact or diagnostics.
    fn check(&self, source: &str) -> Result<Self::Artifact, String>;
    /// The Evaluator: artifact → score (higher = better).
    fn evaluate(&self, artifact: &Self::Artifact) -> f64;
}

/// Search-loop parameters.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Generation rounds (paper: 20).
    pub rounds: usize,
    /// Candidates per round (paper: 25).
    pub candidates_per_round: usize,
    /// Exemplars fed back (paper: top 2 across all rounds).
    pub exemplars: usize,
    /// Attempt one stderr repair per rejected candidate?
    pub repair: bool,
    /// Evaluation threads (1 = serial).
    pub threads: usize,
    /// Exemplar staleness, in rounds: round N's prompt ranks candidates
    /// from rounds `< N - lag`. 0 is the paper's schedule (all previous
    /// rounds). At ≥ 1 every score round N+1's prompt needs exists when
    /// round N starts evaluating, so the loop generates N+1 beside it.
    pub exemplar_lag: usize,
}

impl SearchConfig {
    /// The paper's §4.2.1 cache-study configuration (500 candidates).
    pub fn paper_cache() -> SearchConfig {
        SearchConfig {
            rounds: 20,
            candidates_per_round: 25,
            exemplars: 2,
            repair: true,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            exemplar_lag: 0,
        }
    }

    /// A small configuration for tests and quick demos.
    pub fn quick() -> SearchConfig {
        SearchConfig {
            rounds: 4,
            candidates_per_round: 8,
            exemplars: 2,
            repair: true,
            threads: 2,
            exemplar_lag: 0,
        }
    }

    /// Lag the exemplars (at least) one round, so each round is generated
    /// beside the previous round's evaluation.
    pub fn pipelined(mut self) -> SearchConfig {
        self.exemplar_lag = self.exemplar_lag.max(1);
        self
    }
}

/// A scored candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Scored {
    pub source: String,
    pub score: f64,
    pub round: usize,
}

/// Per-round statistics (compile rates feed the §5.0.3 experiment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    pub round: usize,
    pub generated: usize,
    /// Passed the Checker first try.
    pub passed_first: usize,
    /// Passed only after one stderr repair.
    pub passed_after_repair: usize,
    pub best_score_so_far: f64,
    pub round_best: f64,
}

/// Cost accounting in the units of §4.2.6.
///
/// Generation-thread and evaluation-worker time are attributed
/// separately, so the ledger stays honest when the two overlap (at
/// `exemplar_lag ≥ 1`): evaluation CPU is *measured* per candidate, never
/// estimated from wall time × thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostLedger {
    pub tokens: TokenLedger,
    /// Wall-clock seconds on the generation thread: prompting, generation,
    /// checking, repair.
    pub gen_seconds: f64,
    /// Wall-clock seconds with candidate evaluations outstanding. When the
    /// next round is generated beside them this overlaps `gen_seconds`; it
    /// is how long the search waited on simulations, not how much work
    /// they did.
    pub eval_seconds: f64,
    /// CPU-seconds measured inside [`Study::evaluate`] across all workers.
    pub eval_cpu_seconds: f64,
    pub candidates_evaluated: u64,
    /// Evaluations skipped by the cross-candidate score memo.
    pub memo_hits: u64,
}

impl CostLedger {
    /// Estimated API cost in USD (GPT-4o-mini prices).
    pub fn cost_usd(&self) -> f64 {
        self.tokens.cost_usd()
    }

    /// Total CPU-seconds attributed to the search: generation thread plus
    /// measured evaluation work. No double counting under overlap —
    /// overlapped wall time appears in at most one term.
    pub fn cpu_seconds(&self) -> f64 {
        self.gen_seconds + self.eval_cpu_seconds
    }
}

/// Everything a finished search returns.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best candidate across all rounds.
    pub best: Scored,
    /// Per-round statistics.
    pub rounds: Vec<RoundStats>,
    /// Every scored candidate (for oracle/ablation analyses).
    pub all: Vec<Scored>,
    /// Cost ledger.
    pub cost: CostLedger,
}

/// Why a search attempt produced no outcome. A failed attempt is
/// abandoned whole — partial rounds are discarded so a retry re-runs the
/// search from scratch with the generator's next stream state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The generator's transport failed mid-search (see
    /// [`policysmith_gen::GenError`]).
    Generator(GenError),
    /// Every candidate in every round failed the Checker.
    NoValidCandidate,
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Generator(e) => write!(f, "{e}"),
            SearchError::NoValidCandidate => write!(f, "search produced no valid candidate"),
        }
    }
}

impl std::error::Error for SearchError {}

/// Run the search loop.
///
/// # Panics
/// If no candidate in the entire search passes the Checker (with the
/// default generators this requires a hostile configuration), or if the
/// generator's transport fails. Callers that must survive generator
/// failures — the serving runtime's background re-synthesis — use
/// [`try_run_search`] instead.
pub fn run_search<S: Study>(
    study: &S,
    generator: &mut dyn Generator,
    cfg: &SearchConfig,
) -> SearchOutcome {
    try_run_search(study, generator, cfg).unwrap_or_else(|e| match e {
        SearchError::NoValidCandidate => panic!("search produced no valid candidate"),
        SearchError::Generator(g) => panic!("generator failed mid-search: {g}"),
    })
}

/// Fallible [`run_search`]: generator transport errors and
/// zero-valid-candidate searches surface as [`SearchError`] instead of
/// panicking, so a retry/backoff layer can wrap the whole attempt.
///
/// This is the one round loop; with `exemplar_lag ≥ 1` it generates round
/// N+1 beside round N's evaluation (see the module docs).
pub fn try_run_search<S: Study>(
    study: &S,
    generator: &mut dyn Generator,
    cfg: &SearchConfig,
) -> Result<SearchOutcome, SearchError> {
    let mut progress = Progress::default();
    // The round generated beside the previous round's evaluation. An error
    // it hit surfaces here, after the round it ran beside has been folded.
    let mut ahead = None;
    for round in 0..cfg.rounds {
        let batch = ahead
            .take()
            .unwrap_or_else(|| generate_and_check(study, generator, cfg, &progress.all, round))
            .map_err(SearchError::Generator)?;
        let plan = plan_round(&batch.sources, &progress.memo);
        let to_eval: Vec<&S::Artifact> = plan.uniq.iter().map(|&i| &batch.artifacts[i]).collect();
        // At lag ≥ 1 the next prompt needs rounds ≤ N−1 only, all folded
        // already. The job reads `progress.all` and nothing folds until the
        // workers are joined, so overlap never changes what it generates from.
        let beside = (cfg.exemplar_lag >= 1 && round + 1 < cfg.rounds).then_some(|| {
            ahead = Some(generate_and_check(study, generator, cfg, &progress.all, round + 1))
        });
        let t0 = Instant::now();
        let (uniq_scores, cpu) = evaluate_round(study, &to_eval, cfg.threads, beside);
        progress.cost.eval_seconds += t0.elapsed().as_secs_f64();
        progress.cost.eval_cpu_seconds += cpu;
        progress.fold(round, &batch, &plan, &uniq_scores);
    }
    progress.seal(generator)
}

/// A generated-and-checked round, not yet evaluated. `sources[i]` is the
/// accepted source of `artifacts[i]`.
struct CheckedBatch<A> {
    sources: Vec<String>,
    artifacts: Vec<A>,
    generated: usize,
    passed_first: usize,
    passed_after_repair: usize,
    gen_seconds: f64,
}

/// Exemplars for `round`: top-k candidates from rounds `< round - lag`
/// (§4.2.1's all-previous-rounds feedback at lag 0).
fn exemplars_for(all: &[Scored], round: usize, cfg: &SearchConfig) -> Vec<Exemplar> {
    let mut ranked: Vec<&Scored> =
        all.iter().filter(|s| s.round + cfg.exemplar_lag < round).collect();
    ranked.sort_by(|a, b| nan_is_worst(b.score).total_cmp(&nan_is_worst(a.score)));
    ranked
        .iter()
        .take(cfg.exemplars)
        .map(|s| Exemplar { source: s.source.clone(), score: s.score })
        .collect()
}

/// One generation + checking (+ repair) pass — the generator-thread half
/// of a round.
fn generate_and_check<S: Study>(
    study: &S,
    generator: &mut dyn Generator,
    cfg: &SearchConfig,
    all: &[Scored],
    round: usize,
) -> Result<CheckedBatch<S::Artifact>, GenError> {
    emit(TraceKind::SearchRoundStart { round });
    let t0 = Instant::now();
    let prompt = Prompt::new(study.mode()).with_exemplars(exemplars_for(all, round, cfg));
    let mut batch = generator.try_generate(&prompt, cfg.candidates_per_round)?;
    // The backend was asked for `n`; whatever it sends beyond that is
    // outside the per-round check + evaluation budget (§4.2.6).
    batch.truncate(cfg.candidates_per_round);
    let generated = batch.len();
    let mut passed_first = 0;
    let mut passed_after_repair = 0;
    let mut sources = Vec::new();
    let mut artifacts = Vec::new();
    for source in batch {
        match study.check(&source) {
            Ok(art) => {
                passed_first += 1;
                sources.push(source);
                artifacts.push(art);
            }
            Err(stderr) if cfg.repair => {
                if let Some(fixed) = generator.repair(&prompt, &source, &stderr) {
                    if let Ok(art) = study.check(&fixed) {
                        passed_after_repair += 1;
                        sources.push(fixed);
                        artifacts.push(art);
                    }
                }
            }
            Err(_) => {}
        }
    }
    Ok(CheckedBatch {
        sources,
        artifacts,
        generated,
        passed_first,
        passed_after_repair,
        gen_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// How each accepted candidate of a round gets its score: from the memo,
/// or from evaluation slot `uniq[i]` (within-round duplicates share one
/// slot).
struct EvalPlan {
    /// Per candidate: `Err(score)` = memoized, `Ok(slot)` = uniq slot.
    slots: Vec<Result<usize, f64>>,
    /// Candidate index evaluated for each uniq slot.
    uniq: Vec<usize>,
}

fn plan_round(sources: &[String], memo: &HashMap<String, f64>) -> EvalPlan {
    let mut slots = Vec::with_capacity(sources.len());
    let mut uniq = Vec::new();
    let mut local: HashMap<&str, usize> = HashMap::new();
    for (i, src) in sources.iter().enumerate() {
        if let Some(&score) = memo.get(src) {
            slots.push(Err(score));
        } else if let Some(&slot) = local.get(src.as_str()) {
            slots.push(Ok(slot));
        } else {
            local.insert(src, uniq.len());
            slots.push(Ok(uniq.len()));
            uniq.push(i);
        }
    }
    EvalPlan { slots, uniq }
}

/// What the rounds folded so far have produced: the score memo and the
/// growing [`SearchOutcome`] fields.
#[derive(Default)]
struct Progress {
    memo: HashMap<String, f64>,
    all: Vec<Scored>,
    rounds: Vec<RoundStats>,
    cost: CostLedger,
}

impl Progress {
    /// Fold one evaluated round in. `uniq_scores` is index-aligned with
    /// `plan.uniq`.
    fn fold(
        &mut self,
        round: usize,
        batch: &CheckedBatch<impl Sized>,
        plan: &EvalPlan,
        uniq_scores: &[f64],
    ) {
        let memo_hits = batch.sources.len() - uniq_scores.len();
        self.cost.gen_seconds += batch.gen_seconds;
        self.cost.candidates_evaluated += uniq_scores.len() as u64;
        self.cost.memo_hits += memo_hits as u64;
        let mut round_best = f64::NEG_INFINITY;
        for (source, slot) in batch.sources.iter().zip(&plan.slots) {
            let score = match *slot {
                Ok(u) => uniq_scores[u],
                Err(memoized) => memoized,
            };
            if !self.memo.contains_key(source) {
                self.memo.insert(source.clone(), score);
            }
            round_best = round_best.max(score);
            self.all.push(Scored { source: source.clone(), score, round });
        }
        let best_so_far = self.all.iter().map(|s| s.score).fold(f64::NEG_INFINITY, f64::max);
        emit(TraceKind::SearchRoundEnd {
            round,
            generated: batch.generated,
            accepted: batch.sources.len(),
            evaluated: uniq_scores.len(),
            memo_hits,
            gen_seconds: batch.gen_seconds,
            round_best,
            best_so_far,
        });
        self.rounds.push(RoundStats {
            round,
            generated: batch.generated,
            passed_first: batch.passed_first,
            passed_after_repair: batch.passed_after_repair,
            best_score_so_far: best_so_far,
            round_best,
        });
    }

    fn seal(self, generator: &dyn Generator) -> Result<SearchOutcome, SearchError> {
        let Progress { all, rounds, mut cost, .. } = self;
        cost.tokens = *generator.ledger();
        let best = all
            .iter()
            .max_by(|a, b| nan_is_worst(a.score).total_cmp(&nan_is_worst(b.score)))
            .cloned()
            .ok_or(SearchError::NoValidCandidate)?;
        emit(TraceKind::SearchDone {
            rounds: rounds.len(),
            candidates_evaluated: cost.candidates_evaluated as usize,
            memo_hits: cost.memo_hits as usize,
            tokens_in: cost.tokens.input_tokens,
            tokens_out: cost.tokens.output_tokens,
            gen_seconds: cost.gen_seconds,
            eval_seconds: cost.eval_seconds,
            eval_cpu_seconds: cost.eval_cpu_seconds,
            best_score: best.score,
        });
        Ok(SearchOutcome { best, rounds, all, cost })
    }
}

/// Score key for ranking. Evaluators are supposed to return real numbers,
/// but a buggy or adversarial study returning NaN must neither panic the
/// search (the old `partial_cmp(..).unwrap()`) nor win it (`f64::total_cmp`
/// alone orders positive NaN above +inf): NaN ranks below every real score.
fn nan_is_worst(score: f64) -> f64 {
    if score.is_nan() {
        f64::NEG_INFINITY
    } else {
        score
    }
}

/// Score one round's artifacts on `threads` scoped workers (work-stealing
/// via an atomic cursor; results land by index as lock-free `f64`-bit
/// stores, in input order) while the calling thread runs `beside` — the
/// next round's generation, when there is one. Returns the scores and the
/// CPU-seconds measured inside [`Study::evaluate`]. Workers are joined by
/// handle, so an evaluator panic re-throws here with its own payload.
///
/// With one thread and nothing to run beside, the evaluations are a plain
/// loop on the caller: spawning, the shared cursor and the atomic stores
/// cost the one-thread searches 4–5 % when they were routed through them.
fn evaluate_round<S: Study>(
    study: &S,
    artifacts: &[&S::Artifact],
    threads: usize,
    beside: Option<impl FnOnce()>,
) -> (Vec<f64>, f64) {
    let n = artifacts.len();
    let workers = threads.max(1).min(n);
    if beside.is_none() && workers <= 1 {
        let t0 = Instant::now();
        let scores = artifacts.iter().map(|a| study.evaluate(a)).collect();
        return (scores, t0.elapsed().as_secs_f64());
    }
    let cursor = AtomicUsize::new(0);
    let results: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let nanos = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let t0 = Instant::now();
                    let score = study.evaluate(artifacts[i]);
                    nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    results[i].store(score.to_bits(), Ordering::Relaxed);
                })
            })
            .collect();
        if let Some(job) = beside {
            job();
        }
        // `join` synchronizes with everything the worker did, so the
        // Relaxed stores above are visible once every handle is joined.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    let scores = results.iter().map(|bits| f64::from_bits(bits.load(Ordering::Relaxed))).collect();
    (scores, nanos.load(Ordering::Relaxed) as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_dsl::{check, parse, Expr};
    use policysmith_gen::{GenConfig, MockLlm};
    use std::sync::{Condvar, Mutex};

    /// A toy study with a known optimum: score favors expressions that
    /// reference `obj.count` and are small.
    struct ToyStudy;

    impl Study for ToyStudy {
        type Artifact = Expr;
        fn mode(&self) -> Mode {
            Mode::Cache
        }
        fn check(&self, source: &str) -> Result<Expr, String> {
            let e = parse(source).map_err(|e| e.to_string())?;
            check(&e, Mode::Cache).map_err(|e| e.to_string())?;
            Ok(e)
        }
        fn evaluate(&self, e: &Expr) -> f64 {
            let uses_count =
                e.features().contains(&policysmith_dsl::Feature::ObjCount) as i32 as f64;
            uses_count - e.size() as f64 / 100.0
        }
    }

    /// [`MockLlm`] with `try_generate` (the surface the search calls)
    /// replaced by a closure over the inner generator — how these tests
    /// shape, fail or observe the candidate stream.
    struct HookGen<F> {
        inner: MockLlm,
        hook: F,
    }

    impl<F> Generator for HookGen<F>
    where
        F: FnMut(&mut MockLlm, &Prompt, usize) -> Result<Vec<String>, GenError>,
    {
        fn generate(&mut self, prompt: &Prompt, n: usize) -> Vec<String> {
            self.inner.generate(prompt, n)
        }
        fn try_generate(&mut self, prompt: &Prompt, n: usize) -> Result<Vec<String>, GenError> {
            (self.hook)(&mut self.inner, prompt, n)
        }
        fn repair(&mut self, prompt: &Prompt, source: &str, stderr: &str) -> Option<String> {
            self.inner.repair(prompt, source, stderr)
        }
        fn ledger(&self) -> &TokenLedger {
            self.inner.ledger()
        }
    }

    #[test]
    fn search_improves_over_rounds() {
        let mut llm = MockLlm::new(GenConfig::cache_defaults(11));
        let cfg = SearchConfig { rounds: 6, candidates_per_round: 10, ..SearchConfig::quick() };
        let outcome = run_search(&ToyStudy, &mut llm, &cfg);
        assert_eq!(outcome.rounds.len(), 6);
        // best-so-far is monotone
        for w in outcome.rounds.windows(2) {
            assert!(w[1].best_score_so_far >= w[0].best_score_so_far);
        }
        assert!(outcome.best.score > 0.0, "should find a count-using candidate");
        assert!(outcome.cost.candidates_evaluated > 0);
        assert!(outcome.cost.tokens.input_tokens > 0);
    }

    #[test]
    fn search_is_deterministic() {
        let cfg = SearchConfig { threads: 3, ..SearchConfig::quick() };
        let run = || {
            let mut llm = MockLlm::new(GenConfig::cache_defaults(5));
            run_search(&ToyStudy, &mut llm, &cfg)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best, b.best);
        assert_eq!(a.all.len(), b.all.len());
    }

    #[test]
    fn repair_contributes_candidates() {
        // crank the fault rate so repair visibly matters
        let mut cfg_gen = GenConfig::cache_defaults(13);
        cfg_gen.p_fault = 0.6;
        let mut llm = MockLlm::new(cfg_gen);
        let cfg = SearchConfig { rounds: 6, candidates_per_round: 20, ..SearchConfig::quick() };
        let outcome = run_search(&ToyStudy, &mut llm, &cfg);
        let repaired: usize = outcome.rounds.iter().map(|r| r.passed_after_repair).sum();
        assert!(repaired > 0, "repair path never used");
    }

    /// Evaluator that returns NaN for every candidate that doesn't read
    /// `obj.count` — a stand-in for a buggy metric (0/0, mean of empty).
    struct NanStudy;

    impl Study for NanStudy {
        type Artifact = Expr;
        fn mode(&self) -> Mode {
            Mode::Cache
        }
        fn check(&self, source: &str) -> Result<Expr, String> {
            ToyStudy.check(source)
        }
        fn evaluate(&self, e: &Expr) -> f64 {
            if e.features().contains(&policysmith_dsl::Feature::ObjCount) {
                1.0 - e.size() as f64 / 100.0
            } else {
                f64::NAN
            }
        }
    }

    #[test]
    fn nan_scores_neither_panic_nor_win() {
        // Regression: exemplar ranking and best-candidate selection used
        // `partial_cmp(..).unwrap()`, which panics on NaN.
        let mut llm = MockLlm::new(GenConfig::cache_defaults(17));
        let cfg = SearchConfig { rounds: 6, candidates_per_round: 12, ..SearchConfig::quick() };
        let outcome = run_search(&NanStudy, &mut llm, &cfg);
        assert!(!outcome.best.score.is_nan(), "NaN must never be selected as best");
        assert!(outcome.best.score > 0.0, "a real-scored candidate must win");
        assert!(
            outcome.all.iter().any(|s| s.score.is_nan()),
            "test should actually exercise NaN scores"
        );
    }

    #[test]
    fn parallel_and_serial_agree() {
        let artifacts: Vec<Expr> =
            ["obj.count", "obj.size + 1", "now"].iter().map(|s| parse(s).unwrap()).collect();
        let refs: Vec<&Expr> = artifacts.iter().collect();
        let (serial, _) = evaluate_round(&ToyStudy, &refs, 1, None::<fn()>);
        let (parallel, _) = evaluate_round(&ToyStudy, &refs, 3, None::<fn()>);
        let mut ran = false;
        let (beside, _) = evaluate_round(&ToyStudy, &refs, 1, Some(|| ran = true));
        assert_eq!(serial, parallel);
        assert_eq!(serial, beside);
        assert!(ran);
    }

    /// Same seed, same lag: neither the thread count nor generating round
    /// N+1 beside round N's evaluation moves the outcome — same best, same
    /// per-candidate scores in the same order, same round statistics, same
    /// token bill as a reference that does one thing at a time on this
    /// thread (generate, then evaluate candidate by candidate).
    #[test]
    fn thread_count_and_overlap_never_change_the_outcome() {
        let base = SearchConfig {
            rounds: 6,
            candidates_per_round: 10,
            exemplar_lag: 1,
            ..SearchConfig::quick()
        };
        let mut llm = MockLlm::new(GenConfig::cache_defaults(9));
        let mut progress = Progress::default();
        for round in 0..base.rounds {
            let batch =
                generate_and_check(&ToyStudy, &mut llm, &base, &progress.all, round).unwrap();
            let plan = plan_round(&batch.sources, &progress.memo);
            let scores: Vec<f64> =
                plan.uniq.iter().map(|&i| ToyStudy.evaluate(&batch.artifacts[i])).collect();
            progress.fold(round, &batch, &plan, &scores);
        }
        let reference = progress.seal(&llm).unwrap();
        for threads in [1, 3] {
            let mut llm = MockLlm::new(GenConfig::cache_defaults(9));
            let overlapped = run_search(&ToyStudy, &mut llm, &SearchConfig { threads, ..base });
            assert_eq!(reference.best, overlapped.best);
            assert_eq!(reference.all, overlapped.all);
            assert_eq!(reference.rounds, overlapped.rounds);
            assert_eq!(
                reference.cost.tokens.input_tokens, overlapped.cost.tokens.input_tokens,
                "prompt streams must match"
            );
        }
    }

    #[test]
    fn pipelined_search_is_deterministic() {
        let cfg = SearchConfig { threads: 3, ..SearchConfig::quick() }.pipelined();
        let run = || {
            let mut llm = MockLlm::new(GenConfig::cache_defaults(5));
            run_search(&ToyStudy, &mut llm, &cfg)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best, b.best);
        assert_eq!(a.all, b.all);
        assert_eq!(a.rounds, b.rounds);
    }

    /// [`ToyStudy`] that counts evaluations per source.
    struct CountingStudy {
        evaluations: Mutex<HashMap<String, usize>>,
    }

    impl Study for CountingStudy {
        type Artifact = (String, Expr);
        fn mode(&self) -> Mode {
            Mode::Cache
        }
        fn check(&self, source: &str) -> Result<(String, Expr), String> {
            Ok((source.to_string(), ToyStudy.check(source)?))
        }
        fn evaluate(&self, (source, e): &(String, Expr)) -> f64 {
            *self.evaluations.lock().unwrap().entry(source.clone()).or_default() += 1;
            ToyStudy.evaluate(e)
        }
    }

    /// The memo only skips redundant simulations: every distinct source is
    /// evaluated exactly once, and every reported score — memoized or not
    /// — is what a direct evaluation of that source returns.
    #[test]
    fn memo_evaluates_each_distinct_source_once() {
        let study = CountingStudy { evaluations: Mutex::new(HashMap::new()) };
        let mut llm = MockLlm::new(GenConfig::cache_defaults(11));
        let cfg = SearchConfig { rounds: 6, candidates_per_round: 12, ..SearchConfig::quick() };
        let outcome = run_search(&study, &mut llm, &cfg);
        let evaluations = study.evaluations.into_inner().unwrap();
        assert!(evaluations.values().all(|&n| n == 1), "a source was re-simulated");
        assert_eq!(evaluations.len() as u64, outcome.cost.candidates_evaluated);
        for s in &outcome.all {
            assert!(evaluations.contains_key(&s.source));
            assert_eq!(s.score, ToyStudy.evaluate(&ToyStudy.check(&s.source).unwrap()));
        }
        assert!(outcome.cost.memo_hits > 0, "exemplar-fed rounds should repeat sources");
        assert_eq!(
            outcome.cost.candidates_evaluated + outcome.cost.memo_hits,
            outcome.all.len() as u64
        );
    }

    /// How many `try_generate` calls have been entered, with a condvar so
    /// an evaluator can wait for the next one.
    #[derive(Default)]
    struct GenerationsEntered {
        count: Mutex<usize>,
        changed: Condvar,
    }

    /// Stamps each artifact with the round that checked it; evaluating a
    /// round-N artifact blocks until generation N+1 has been entered.
    struct OverlapStudy<'a> {
        rounds: usize,
        entered: &'a GenerationsEntered,
        waited: AtomicUsize,
    }

    impl Study for OverlapStudy<'_> {
        type Artifact = (usize, Expr);
        fn mode(&self) -> Mode {
            Mode::Cache
        }
        fn check(&self, source: &str) -> Result<(usize, Expr), String> {
            // runs on the generator thread, inside generation `count - 1`
            let round = *self.entered.count.lock().unwrap() - 1;
            Ok((round, ToyStudy.check(source)?))
        }
        fn evaluate(&self, (round, e): &(usize, Expr)) -> f64 {
            if round + 1 < self.rounds {
                let (count, timeout) = self
                    .entered
                    .changed
                    .wait_timeout_while(
                        self.entered.count.lock().unwrap(),
                        std::time::Duration::from_secs(10),
                        |count| *count < round + 2,
                    )
                    .unwrap();
                drop(count);
                assert!(
                    !timeout.timed_out(),
                    "round {round} was evaluated without generation {} running beside it",
                    round + 1
                );
                self.waited.fetch_add(1, Ordering::Relaxed);
            }
            ToyStudy.evaluate(e)
        }
    }

    /// The overlap a one-round exemplar lag buys, witnessed without a
    /// clock: round N's evaluation cannot finish until round N+1's
    /// generation has started, so the search completes only if the two
    /// really run side by side.
    #[test]
    fn pipelined_generates_next_round_during_evaluation() {
        let entered = GenerationsEntered::default();
        let study = OverlapStudy { rounds: 4, entered: &entered, waited: AtomicUsize::new(0) };
        let mut gen = HookGen {
            inner: MockLlm::new(GenConfig::cache_defaults(9)),
            hook: |llm: &mut MockLlm, prompt: &Prompt, n| {
                *entered.count.lock().unwrap() += 1;
                entered.changed.notify_all();
                Ok(llm.generate(prompt, n))
            },
        };
        let cfg = SearchConfig { rounds: study.rounds, ..SearchConfig::quick() }.pipelined();
        let outcome = run_search(&study, &mut gen, &cfg);
        assert_eq!(outcome.rounds.len(), study.rounds);
        assert!(study.waited.load(Ordering::Relaxed) > 0, "no evaluation witnessed an overlap");
    }

    /// A generator that returns fewer candidates than asked for — the
    /// batch length, not the configured `candidates_per_round`, must land
    /// in `RoundStats.generated` or compile rates are inflated.
    #[test]
    fn round_stats_report_actual_batch_length() {
        let mut gen = HookGen {
            inner: MockLlm::new(GenConfig::cache_defaults(3)),
            hook: |llm: &mut MockLlm, prompt: &Prompt, n: usize| Ok(llm.generate(prompt, n.min(5))),
        };
        let cfg = SearchConfig { rounds: 3, candidates_per_round: 20, ..SearchConfig::quick() };
        let outcome = run_search(&ToyStudy, &mut gen, &cfg);
        for r in &outcome.rounds {
            assert_eq!(r.generated, 5, "generated must be the real batch length");
            assert!(r.passed_first + r.passed_after_repair <= r.generated);
        }
    }

    /// A backend that answers `n` with `3n` candidates: the surplus is
    /// dropped before it is counted, checked or evaluated, so a round never
    /// exceeds the budget it was configured with.
    #[test]
    fn an_oversized_batch_is_cut_to_the_round_budget() {
        let mut gen = HookGen {
            inner: MockLlm::new(GenConfig::cache_defaults(3)),
            hook: |llm: &mut MockLlm, prompt: &Prompt, n: usize| Ok(llm.generate(prompt, 3 * n)),
        };
        let cfg = SearchConfig { rounds: 3, candidates_per_round: 6, ..SearchConfig::quick() };
        let outcome = run_search(&ToyStudy, &mut gen, &cfg);
        for r in &outcome.rounds {
            assert_eq!(r.generated, 6, "generated must stop at the configured batch size");
        }
        assert!(outcome.all.len() <= 3 * 6);
    }

    /// An evaluator that panics on a worker must fail the search the way it
    /// would on the caller — by propagating its own payload — never by
    /// hanging the round or surfacing as "a scoped thread panicked".
    struct PanickyStudy;

    impl Study for PanickyStudy {
        type Artifact = Expr;
        fn mode(&self) -> Mode {
            Mode::Cache
        }
        fn check(&self, source: &str) -> Result<Expr, String> {
            ToyStudy.check(source)
        }
        fn evaluate(&self, _e: &Expr) -> f64 {
            panic!("evaluator bug");
        }
    }

    #[test]
    fn pipelined_propagates_evaluator_panics() {
        let result = std::panic::catch_unwind(|| {
            let mut llm = MockLlm::new(GenConfig::cache_defaults(2));
            run_search(&PanickyStudy, &mut llm, &SearchConfig::quick().pipelined())
        });
        let payload = result.expect_err("panic must propagate, not hang");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "evaluator bug");
    }

    /// At lag 1 the failing call is a generate-ahead beside round 1's
    /// evaluation; at lag 0 it is round 2's own. Both abort the attempt.
    #[test]
    fn try_run_search_surfaces_generator_errors_at_lag_0_and_lag_1() {
        for exemplar_lag in [0, 1] {
            // the backend dies after two good batches
            let mut calls = 0;
            let mut gen = HookGen {
                inner: MockLlm::new(GenConfig::cache_defaults(6)),
                hook: |llm: &mut MockLlm, prompt: &Prompt, n| {
                    calls += 1;
                    if calls > 2 {
                        Err(GenError::Unavailable("backend died".into()))
                    } else {
                        Ok(llm.generate(prompt, n))
                    }
                },
            };
            let cfg = SearchConfig {
                rounds: 5,
                candidates_per_round: 8,
                exemplar_lag,
                ..SearchConfig::quick()
            };
            let err = try_run_search(&ToyStudy, &mut gen, &cfg)
                .expect_err("a mid-search transport failure must abort the attempt");
            assert_eq!(
                err,
                SearchError::Generator(GenError::Unavailable("backend died".into())),
                "exemplar_lag={exemplar_lag}"
            );
            assert_eq!(calls, 3, "no generation may follow the failed one");
        }
    }

    #[test]
    fn try_run_search_reports_no_valid_candidate_instead_of_panicking() {
        // zero rounds: nothing is ever generated, so nothing can win
        let mut llm = MockLlm::new(GenConfig::cache_defaults(2));
        let cfg = SearchConfig { rounds: 0, ..SearchConfig::quick() };
        assert_eq!(
            try_run_search(&ToyStudy, &mut llm, &cfg).unwrap_err(),
            SearchError::NoValidCandidate
        );
        // and the infallible wrapper preserves the historical panic message
        let payload = std::panic::catch_unwind(|| {
            let mut llm = MockLlm::new(GenConfig::cache_defaults(2));
            run_search(&ToyStudy, &mut llm, &cfg)
        })
        .expect_err("run_search must still panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert_eq!(msg, "search produced no valid candidate");
    }

    #[test]
    fn try_run_search_matches_run_search_on_a_healthy_generator() {
        let cfg = SearchConfig { rounds: 4, candidates_per_round: 8, ..SearchConfig::quick() };
        let mut a = MockLlm::new(GenConfig::cache_defaults(31));
        let mut b = MockLlm::new(GenConfig::cache_defaults(31));
        let infallible = run_search(&ToyStudy, &mut a, &cfg);
        let fallible = try_run_search(&ToyStudy, &mut b, &cfg).unwrap();
        assert_eq!(infallible.best, fallible.best);
        assert_eq!(infallible.all, fallible.all);
    }

    #[test]
    fn cost_ledger_attributes_threads_separately() {
        let mut llm = MockLlm::new(GenConfig::cache_defaults(23));
        let cfg = SearchConfig { rounds: 5, candidates_per_round: 10, ..SearchConfig::quick() }
            .pipelined();
        let outcome = run_search(&ToyStudy, &mut llm, &cfg);
        let c = outcome.cost;
        assert!(c.gen_seconds > 0.0, "generation time must be attributed");
        assert!(c.eval_cpu_seconds >= 0.0 && c.eval_cpu_seconds.is_finite());
        assert!((c.cpu_seconds() - (c.gen_seconds + c.eval_cpu_seconds)).abs() < 1e-12);
        assert!(c.candidates_evaluated > 0);
    }
}
