//! The §3.1 context layer: a library of synthesized heuristics, a
//! guardrail-style drift monitor, and the [`AdaptiveController`] that
//! closes the loop for *any* study.
//!
//! The paper explicitly scopes context *detection* out ("this paper does
//! not focus on designing context-detection or runtime-adaptation systems,
//! and rather assumes such triggers are available") — this module provides
//! the minimal such trigger so the end-to-end loop (§3.1: drift → offline
//! re-synthesis → grow the library → adaptation picks from it) can be
//! demonstrated and tested, not a research contribution.
//!
//! The three pieces compose bottom-up:
//!
//! * [`HeuristicLibrary`] — the growing store of synthesized policies with
//!   provenance ([`LibraryEntry`]);
//! * [`ContextMonitor`] — the drift trigger: a rolling mean over a
//!   streaming quality signal against a deployment-time baseline;
//! * [`AdaptiveController`] — monitor + library + re-synthesis fallback,
//!   generic over [`Study`]: the same controller hosts the cache, lb, and
//!   cc workloads, because "score a stored entry in the new context" is
//!   just [`rescore`] and "no stored policy fits" is just [`run_search`].
//!
//! ## One ladder
//!
//! "Which stored policy fits this context?" is answered in one place —
//! the best non-poisoned entry whose [`rescore`] is a real number — and
//! every trigger walks the same rungs, cheapest first, starting where its
//! cause puts it:
//!
//! | rung | drift ([`try_reuse`](AdaptiveController::try_reuse) → [`finish_search`](AdaptiveController::finish_search)) | quarantine ([`recover`](AdaptiveController::recover)) |
//! |---|---|---|
//! | best stored entry at or over the reuse bar | deploy it | — (the live policy just faulted: any clean entry beats it) |
//! | fresh search ([`run_search_with_retry`] in a serving host) | deploy the better of its winner and the best stored entry | — (a faulting policy is replaced now, not after a search) |
//! | best stored entry at all | deploy it when the search gave up | deploy it |
//! | floor | the incumbent stays live | the host's man-made baseline |

use crate::search::{run_search, try_run_search, Scored, SearchConfig, SearchOutcome, Study};
use policysmith_gen::Generator;
use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// One synthesized heuristic with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryEntry {
    /// Context identifier (e.g. `cloudphysics/w89`).
    pub context: String,
    /// Heuristic source.
    pub source: String,
    /// Score in its home context (improvement over FIFO).
    pub score: f64,
}

/// A growing library of PolicySmith-generated heuristics (§3.1: "over
/// time, this enables building a library … providing better options for an
/// adaptation system to choose from").
///
/// Entries can be **poisoned**: a policy that faulted at runtime (tripped
/// a serving host's fault latch, or was rejected by the publication guard
/// for runtime-faulting) is quarantined by *source text*, so the verdict
/// survives the entry being re-added under a different context or score.
/// Poisoned sources are invisible to [`best_for`](Self::best_for) — and
/// therefore to `try_reuse` — for good: nothing lifts a quarantine.
#[derive(Debug, Clone, Default)]
pub struct HeuristicLibrary {
    entries: Vec<LibraryEntry>,
    /// Quarantined sources, keyed by source text (not by entry index).
    poisoned: BTreeSet<String>,
}

impl HeuristicLibrary {
    /// Empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a synthesized heuristic.
    pub fn add(&mut self, entry: LibraryEntry) {
        self.entries.push(entry);
    }

    /// All entries.
    pub fn entries(&self) -> &[LibraryEntry] {
        &self.entries
    }

    /// Number of stored heuristics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the library empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Quarantine a source: every entry with this exact source text is
    /// skipped by [`best_for`](Self::best_for) from now on, even if
    /// re-added later. Returns `true` if the source was not already
    /// poisoned.
    pub fn poison(&mut self, source: &str) -> bool {
        self.poisoned.insert(source.to_string())
    }

    /// Is this source quarantined?
    pub fn is_poisoned(&self, source: &str) -> bool {
        self.poisoned.contains(source)
    }

    /// Every quarantined source, in sorted order.
    pub fn poisoned(&self) -> impl Iterator<Item = &str> {
        self.poisoned.iter().map(|s| s.as_str())
    }

    /// Pick the best heuristic for a context by *evaluating* every stored
    /// candidate with the supplied scorer (the oracle-adaptation model of
    /// §4.2.4) and returning the winner together with its score.
    ///
    /// Returns `None` on an empty library, or when every entry is
    /// [poisoned](Self::poison) — quarantined sources are never scored.
    /// Scorers returning `NaN` (a degenerate improvement ratio, say)
    /// neither panic nor win.
    ///
    /// ```
    /// use policysmith_core::library::{HeuristicLibrary, LibraryEntry};
    ///
    /// let mut lib = HeuristicLibrary::new();
    /// lib.add(LibraryEntry { context: "w10".into(), source: "obj.count".into(), score: 0.31 });
    /// lib.add(LibraryEntry { context: "w55".into(), source: "obj.last_access".into(), score: 0.24 });
    ///
    /// // the adaptation system re-scores every entry in the *current*
    /// // context — here, recency wins even though frequency scored
    /// // higher at home
    /// let (best, score) = lib
    ///     .best_for(|e| if e.source.contains("last_access") { 0.4 } else { 0.1 })
    ///     .unwrap();
    /// assert_eq!(best.context, "w55");
    /// assert_eq!(score, 0.4);
    /// ```
    pub fn best_for<F: FnMut(&LibraryEntry) -> f64>(
        &self,
        mut scorer: F,
    ) -> Option<(&LibraryEntry, f64)> {
        self.entries
            .iter()
            .filter(|e| !self.poisoned.contains(&e.source))
            .map(|e| {
                let s = scorer(e);
                (e, s)
            })
            .max_by(|a, b| {
                // NaN-safe: a scorer returning NaN (e.g. a degenerate
                // improvement ratio) must neither panic nor win.
                let key = |v: f64| if v.is_nan() { f64::NEG_INFINITY } else { v };
                key(a.1).total_cmp(&key(b.1))
            })
    }
}

/// Score `source` under `study`: `check`, then `evaluate`. Anything
/// unscorable — a source that no longer checks, a degenerate (NaN) metric —
/// is `-∞`, the score of a run that faulted: it ranks below every real
/// score and fails every `is_finite` gate. The one way the controller's
/// ladder and the serving guard's shadow replay re-score a stored policy in
/// a context it was not searched for.
pub fn rescore<S: Study>(study: &S, source: &str) -> f64 {
    let score = study.check(source).map_or(f64::NAN, |artifact| study.evaluate(&artifact));
    if score.is_nan() {
        f64::NEG_INFINITY
    } else {
        score
    }
}

/// A guardrail-style drift detector over a streaming quality signal (miss
/// ratio, loss rate, …): triggers when the rolling mean degrades past
/// `tolerance ×` the baseline established at deployment (§3.1.2's
/// "implicit context shifts").
#[derive(Debug, Clone)]
pub struct ContextMonitor {
    window: VecDeque<f64>,
    window_size: usize,
    baseline: Option<f64>,
    tolerance: f64,
}

impl ContextMonitor {
    /// Monitor with a rolling window and a degradation tolerance (e.g.
    /// `1.2` = trigger at 20% worse than baseline).
    pub fn new(window_size: usize, tolerance: f64) -> Self {
        assert!(window_size > 0 && tolerance > 1.0);
        ContextMonitor { window: VecDeque::new(), window_size, baseline: None, tolerance }
    }

    /// Feed one sample of the quality signal (lower = better, e.g. miss
    /// ratio). Returns `true` when drift is detected — the caller should
    /// trigger re-synthesis (and this monitor re-baselines: the next full
    /// window after a trigger defines the new regime's baseline).
    ///
    /// The first full window establishes the deployment baseline and never
    /// triggers; before the window fills, nothing triggers.
    ///
    /// Degenerate samples are handled, not propagated: a `NaN` sample (a
    /// 0/0 quality ratio over an empty window, say) carries no evidence
    /// either way and is **ignored** — it neither fills the window nor
    /// poisons the rolling mean. `+∞` samples (a stalled window scored as
    /// an outage) *do* participate: they trigger against any established
    /// baseline, but a window whose mean is non-finite can never *become*
    /// the baseline — the monitor waits for the signal to return to finite
    /// values before (re-)baselining.
    ///
    /// ```
    /// use policysmith_core::library::ContextMonitor;
    ///
    /// // 3-sample rolling window, trigger at 20% over baseline
    /// let mut monitor = ContextMonitor::new(3, 1.2);
    /// for _ in 0..3 {
    ///     assert!(!monitor.observe(0.30)); // establishes baseline 0.30
    /// }
    /// assert_eq!(monitor.baseline(), Some(0.30));
    ///
    /// // regime shift: the rolling mean climbs past 0.36 within a window
    /// let fired: Vec<bool> = (0..3).map(|_| monitor.observe(0.45)).collect();
    /// assert_eq!(fired.iter().filter(|&&f| f).count(), 1, "exactly one trigger");
    /// assert_eq!(monitor.baseline(), None, "re-baselining on the new regime");
    /// ```
    pub fn observe(&mut self, sample: f64) -> bool {
        if sample.is_nan() {
            return false;
        }
        self.window.push_back(sample);
        if self.window.len() > self.window_size {
            self.window.pop_front();
        }
        if self.window.len() < self.window_size {
            return false;
        }
        let mean = self.window.iter().sum::<f64>() / self.window.len() as f64;
        match self.baseline {
            None => {
                // first full window with a *finite* mean defines the
                // deployment baseline (an ∞ sample still in the window
                // cannot define a regime to degrade from)
                if mean.is_finite() {
                    self.baseline = Some(mean);
                }
                false
            }
            Some(base) => {
                if mean > base * self.tolerance {
                    // drop the baseline: the next full window (i.e. the new
                    // regime, not the mixed transition window) redefines it
                    self.baseline = None;
                    self.window.clear();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Current baseline, if established.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }
}

/// How the controller answered one drift trigger (§3.1: adaptation either
/// picks from the library or grows it).
#[derive(Debug, Clone, PartialEq)]
pub enum Adaptation {
    /// A stored heuristic was deployed: either it cleared the reuse
    /// threshold outright (no search ran), or a fresh search ran but
    /// failed to beat it in the drifted context (the search winner still
    /// joins the library; the controller never deploys a policy worse
    /// than the best one it already knows).
    FromLibrary {
        /// The reused entry (its `score` is still the home-context score).
        entry: LibraryEntry,
        /// The entry's score re-evaluated in the drifted context.
        score: f64,
    },
    /// No stored policy fit — a fresh [`run_search`] ran offline, its
    /// winner out-scored every stored policy in the drifted context, and
    /// it was deployed and added to the library.
    Resynthesized {
        /// The new entry: context = the drifted context's name, score =
        /// the search winner's score there.
        entry: LibraryEntry,
    },
}

impl Adaptation {
    /// The entry now deployed, whichever way it was obtained.
    pub fn entry(&self) -> &LibraryEntry {
        match self {
            Adaptation::FromLibrary { entry, .. } => entry,
            Adaptation::Resynthesized { entry } => entry,
        }
    }

    /// Did this adaptation run a fresh search?
    pub fn resynthesized(&self) -> bool {
        matches!(self, Adaptation::Resynthesized { .. })
    }
}

/// The ticket half of the controller's non-blocking API: returned by
/// [`AdaptiveController::try_reuse`] when no stored policy clears the
/// reuse threshold. It records the best stored entry re-scored in the
/// drifted context, so [`AdaptiveController::finish_search`] can later
/// decide between the externally-run search's result and what the library
/// already held — without re-scoring anything.
#[derive(Debug)]
pub struct SearchNeeded {
    /// Best stored entry and its score in the drifted context (`None` on
    /// an empty library, or when nothing scored a real number under the
    /// study).
    best_stored: Option<(LibraryEntry, f64)>,
}

/// The §3.1 loop as a reusable component: monitor a rolling quality
/// signal, detect drift, consult the [`HeuristicLibrary`], and fall back
/// to a fresh [`run_search`] when no stored policy fits the new context.
///
/// The controller is generic over [`Study`], so one implementation hosts
/// every workload — caching, load balancing, congestion control. Scoring
/// a stored entry in the drifted context is `study.check` +
/// `study.evaluate` (entries that do not even compile under the study's
/// template — e.g. a cache heuristic consulted for an lb context in a
/// shared library — score `-∞` and can never be picked); "no stored
/// policy fits" means the best such score is below the controller's reuse
/// threshold.
///
/// The host's side of the contract is a loop of:
///
/// 1. serve traffic with [`deployed`](Self::deployed), sampling the
///    quality signal (miss ratio, windowed mean slowdown, loss rate —
///    lower is better) into [`observe`](Self::observe);
/// 2. when `observe` returns `true`, build a [`Study`] for the *current*
///    context and call [`adapt`](Self::adapt);
/// 3. swap the returned entry in and keep serving.
///
/// Hosts that must not stop the world (an online serving runtime) use the
/// non-blocking split of step 2 instead: [`try_reuse`](Self::try_reuse)
/// answers immediately when a stored policy fits, and hands back a
/// [`SearchNeeded`] ticket otherwise; the host runs [`run_search`] on its
/// own background thread while decisions keep flowing, then folds the
/// result in with [`finish_search`](Self::finish_search) — `None` when the
/// search gave up. `adapt` is exactly `try_reuse` + `run_search` +
/// `finish_search` in one blocking call. A host whose live policy faulted
/// calls [`recover`](Self::recover) instead (see the [module docs](self)
/// for the rungs each trigger walks).
#[derive(Debug)]
pub struct AdaptiveController {
    monitor: ContextMonitor,
    library: HeuristicLibrary,
    min_reuse_score: f64,
    deployed: Option<LibraryEntry>,
    adaptations: Vec<Adaptation>,
}

impl AdaptiveController {
    /// A controller with the given drift trigger and reuse threshold: on
    /// drift, a stored policy is swapped in only if it scores at least
    /// `min_reuse_score` when re-evaluated in the drifted context
    /// (scores are study improvements, e.g. over FIFO or round-robin);
    /// anything less falls through to re-synthesis.
    pub fn new(monitor: ContextMonitor, min_reuse_score: f64) -> AdaptiveController {
        AdaptiveController {
            monitor,
            library: HeuristicLibrary::new(),
            min_reuse_score,
            deployed: None,
            adaptations: Vec::new(),
        }
    }

    /// Seed the controller with an existing library (e.g. entries carried
    /// over from earlier deployments).
    pub fn with_library(mut self, library: HeuristicLibrary) -> AdaptiveController {
        self.library = library;
        self
    }

    /// Deploy a policy: record it as live and add it to the library.
    pub fn deploy(&mut self, entry: LibraryEntry) {
        self.library.add(entry.clone());
        self.deployed = Some(entry);
    }

    /// The live policy, if one was deployed.
    pub fn deployed(&self) -> Option<&LibraryEntry> {
        self.deployed.as_ref()
    }

    /// The heuristic library grown so far.
    pub fn library(&self) -> &HeuristicLibrary {
        &self.library
    }

    /// Quarantine a source in the library (see
    /// [`HeuristicLibrary::poison`]): a runtime-faulting policy must never
    /// be picked by `try_reuse`/`best_for` again. Returns `true` if the
    /// source was not already poisoned.
    pub fn poison(&mut self, source: &str) -> bool {
        self.library.poison(source)
    }

    /// The drift monitor (for baseline inspection).
    pub fn monitor(&self) -> &ContextMonitor {
        &self.monitor
    }

    /// Every adaptation performed, in order.
    pub fn adaptations(&self) -> &[Adaptation] {
        &self.adaptations
    }

    /// Feed one sample of the deployed policy's quality signal (lower =
    /// better). Returns `true` on drift — the cue to call
    /// [`adapt`](Self::adapt) with a study of the current context.
    pub fn observe(&mut self, sample: f64) -> bool {
        self.monitor.observe(sample)
    }

    /// Answer a drift trigger for the context described by `study`.
    ///
    /// Every stored entry is re-scored in the new context (the §4.2.4
    /// oracle-adaptation model: `check`, then `evaluate`; compile failures
    /// score `-∞`). If the best stored score reaches the reuse threshold,
    /// that entry is re-deployed; otherwise [`run_search`] synthesizes a
    /// fresh policy offline — the §3.1 "disposable heuristics" move — and
    /// the library grows by its winner. The winner is deployed only if it
    /// out-scores the best stored policy in this context; a search that
    /// underperforms the library (small budgets can) still grows it, but
    /// the better stored policy is what goes live.
    pub fn adapt<S: Study>(
        &mut self,
        context: &str,
        study: &S,
        generator: &mut dyn Generator,
        cfg: &SearchConfig,
    ) -> Adaptation {
        match self.try_reuse(study) {
            Ok(adaptation) => adaptation,
            Err(needed) => {
                let outcome = run_search(study, generator, cfg);
                self.finish_search(context, needed, Some(outcome.best))
                    .expect("a search winner always deploys something")
            }
        }
    }

    /// The one place the library is consulted for a context: the best
    /// non-poisoned entry by [`rescore`] under `study`, if that score is a
    /// real number (`-∞` — does not check, faults, NaN — fits nothing).
    fn best_stored<S: Study>(&self, study: &S) -> Option<(LibraryEntry, f64)> {
        self.library
            .best_for(|e| rescore(study, &e.source))
            .filter(|(_, score)| score.is_finite())
            .map(|(entry, score)| (entry.clone(), score))
    }

    /// Make `adaptation` the controller's answer: the one place an entry
    /// becomes `deployed` and joins the adaptation trail.
    fn record(&mut self, adaptation: Adaptation) -> Adaptation {
        self.deployed = Some(adaptation.entry().clone());
        self.adaptations.push(adaptation.clone());
        adaptation
    }

    /// The poll half of the non-blocking API: re-score every stored entry
    /// in the context described by `study` and, if the best one clears the
    /// reuse threshold, deploy it and return the finished [`Adaptation`].
    /// Otherwise return a [`SearchNeeded`] ticket — the caller runs the
    /// search itself (on whatever thread, budget, or executor it likes;
    /// a serving host keeps answering decision requests meanwhile) and
    /// completes the adaptation with [`finish_search`](Self::finish_search).
    ///
    /// "Non-blocking" here means *no generation search runs inside the
    /// controller*; re-scoring the library still costs one `check` +
    /// `evaluate` per stored entry.
    pub fn try_reuse<S: Study>(&mut self, study: &S) -> Result<Adaptation, SearchNeeded> {
        match self.best_stored(study) {
            Some((entry, score)) if score >= self.min_reuse_score => {
                Ok(self.record(Adaptation::FromLibrary { entry, score }))
            }
            best_stored => Err(SearchNeeded { best_stored }),
        }
    }

    /// Complete an adaptation begun by [`try_reuse`](Self::try_reuse) with
    /// the result of the externally-run search. `Some(winner)` joins the
    /// library, and the better of it and the ticket's best stored entry is
    /// deployed (a small search budget can lose to a stored policy that
    /// merely missed the reuse bar — the controller never deploys a policy
    /// worse than the best one it already knows); `winner.score` must be
    /// its score in the drifted context, which is what [`run_search`] on
    /// the drifted study's `best` reports. `None` means the search gave up
    /// (generator outage past the retry budget): instead of blocking
    /// adaptation forever, the ticket's best stored entry is deployed.
    ///
    /// A stored entry poisoned after the ticket was issued (a quarantine
    /// raced the search) is never deployed. Returns `None` only when there
    /// is no winner and nothing stored is deployable: the incumbent stays.
    pub fn finish_search(
        &mut self,
        context: &str,
        needed: SearchNeeded,
        winner: Option<Scored>,
    ) -> Option<Adaptation> {
        let stored = needed.best_stored.filter(|(e, _)| !self.library.is_poisoned(&e.source));
        let fresh = winner.map(|w| LibraryEntry {
            context: context.to_string(),
            source: w.source,
            score: w.score,
        });
        if let Some(entry) = &fresh {
            self.library.add(entry.clone());
        }
        let adaptation = match (stored, fresh) {
            (Some((entry, score)), fresh) if fresh.as_ref().is_none_or(|f| score >= f.score) => {
                Adaptation::FromLibrary { entry, score }
            }
            (_, Some(entry)) => Adaptation::Resynthesized { entry },
            (_, None) => return None,
        };
        Some(self.record(adaptation))
    }

    /// The quarantine rung: the live policy faulted and was poisoned, so
    /// any clean entry beats it — deploy the best stored entry that scores
    /// a real number under `study`. `None` means the host must fall to its
    /// man-made baseline; `deployed` is cleared, so the controller never
    /// reports a poisoned source as live.
    pub fn recover<S: Study>(&mut self, study: &S) -> Option<Adaptation> {
        match self.best_stored(study) {
            Some((entry, score)) => Some(self.record(Adaptation::FromLibrary { entry, score })),
            None => {
                self.deployed = None;
                None
            }
        }
    }
}

/// Bounded exponential backoff + a wall-clock watchdog for background
/// re-synthesis: how many times a failed search attempt is retried, how
/// long to wait between attempts, and the deadline past which the
/// controller gives up and falls back to the library
/// ([`AdaptiveController::finish_search`] with no winner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before retry *k* is `base << k`, capped below.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap_ms: u64,
    /// Watchdog: once this much wall-clock has elapsed since the first
    /// attempt started, no further retries are scheduled.
    pub deadline_ms: u64,
}

impl RetryPolicy {
    /// The serving runtime's default: a handful of quick retries, give up
    /// well before the drift window loses its meaning.
    pub fn serving() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
            deadline_ms: 20_000,
        }
    }

    /// Backoff sleep before the retry following failed attempt `attempt`
    /// (0-based).
    fn backoff_ms(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.backoff_base_ms.saturating_mul(factor).min(self.backoff_cap_ms)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::serving()
    }
}

/// Why [`run_search_with_retry`] stopped without an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GiveUp {
    /// Every allowed attempt failed.
    AttemptsExhausted,
    /// The watchdog deadline fired before the attempts ran out.
    DeadlineExceeded,
}

impl std::fmt::Display for GiveUp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GiveUp::AttemptsExhausted => write!(f, "retry attempts exhausted"),
            GiveUp::DeadlineExceeded => write!(f, "watchdog deadline exceeded"),
        }
    }
}

/// The result of a retried search.
#[derive(Debug)]
pub struct RetriedSearch {
    /// The first successful attempt's outcome, or why the search gave up.
    pub result: Result<SearchOutcome, GiveUp>,
    /// The rendered [`crate::search::SearchError`] of every failed
    /// attempt, in order (`TraceKind::RetryAttempt` carries the backoffs).
    pub failures: Vec<String>,
}

/// Run [`try_run_search`] under a [`RetryPolicy`]: failed attempts are
/// retried with bounded exponential backoff until one succeeds, the
/// attempt budget runs out, or the watchdog deadline fires. A failed
/// attempt is abandoned whole — the generator's stream position advances,
/// so a flaky backend gets genuinely fresh randomness on retry.
pub fn run_search_with_retry<S: Study>(
    study: &S,
    generator: &mut dyn Generator,
    cfg: &SearchConfig,
    retry: &RetryPolicy,
) -> RetriedSearch {
    let started = Instant::now();
    let max_attempts = retry.max_attempts.max(1);
    let mut failures = Vec::new();
    let mut gave_up = GiveUp::AttemptsExhausted;
    for attempt in 0..max_attempts {
        let error = match try_run_search(study, generator, cfg) {
            Ok(outcome) => return RetriedSearch { result: Ok(outcome), failures },
            Err(e) => e.to_string(),
        };
        let last = attempt + 1 == max_attempts;
        let backoff_ms = if last { 0 } else { retry.backoff_ms(attempt) };
        policysmith_obs::emit(policysmith_obs::TraceKind::RetryAttempt {
            attempt: attempt + 1,
            error: error.clone(),
            backoff_ms,
        });
        failures.push(error);
        if last {
            break;
        }
        // the watchdog bounds total wall-clock: if the next sleep would
        // land past the deadline, give up now
        let elapsed_ms = started.elapsed().as_millis() as u64;
        if elapsed_ms.saturating_add(backoff_ms) >= retry.deadline_ms {
            gave_up = GiveUp::DeadlineExceeded;
            break;
        }
        if backoff_ms > 0 {
            std::thread::sleep(Duration::from_millis(backoff_ms));
        }
    }
    policysmith_obs::emit(policysmith_obs::TraceKind::RetryGaveUp {
        attempts: failures.len() as u32,
        why: gave_up.to_string(),
    });
    RetriedSearch { result: Err(gave_up), failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_best_for_picks_max() {
        let mut lib = HeuristicLibrary::new();
        lib.add(LibraryEntry { context: "a".into(), source: "obj.count".into(), score: 0.1 });
        lib.add(LibraryEntry { context: "b".into(), source: "obj.last_access".into(), score: 0.2 });
        let (best, score) = lib.best_for(|e| if e.context == "a" { 0.9 } else { 0.3 }).unwrap();
        assert_eq!(best.context, "a");
        assert!((score - 0.9).abs() < 1e-12);
        assert_eq!(lib.len(), 2);
    }

    #[test]
    fn monitor_triggers_on_sustained_degradation() {
        let mut m = ContextMonitor::new(10, 1.2);
        // stable regime at 0.30 establishes the baseline
        let mut triggered = false;
        for _ in 0..20 {
            triggered |= m.observe(0.30);
        }
        assert!(!triggered, "no drift in a stable regime");
        assert!(m.baseline().is_some());
        // regime shift to 0.45 (+50%) must trigger within a window or two
        let mut fired = 0;
        for _ in 0..20 {
            if m.observe(0.45) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "exactly one trigger, then re-baseline");
        // the new regime is now the baseline: no more triggers
        let mut more = 0;
        for _ in 0..20 {
            if m.observe(0.45) {
                more += 1;
            }
        }
        assert_eq!(more, 0);
    }

    #[test]
    fn monitor_tolerates_noise_within_tolerance() {
        let mut m = ContextMonitor::new(8, 1.3);
        let mut fired = false;
        for i in 0..100 {
            let noise = if i % 2 == 0 { 0.02 } else { -0.02 };
            fired |= m.observe(0.30 + noise);
        }
        assert!(!fired, "±7% noise must not trigger a 30% guardrail");
    }

    #[test]
    #[should_panic]
    fn monitor_rejects_bad_params() {
        ContextMonitor::new(0, 1.5);
    }

    #[test]
    fn empty_library_has_no_best() {
        let lib = HeuristicLibrary::new();
        assert!(lib.is_empty());
        assert_eq!(lib.len(), 0);
        assert!(lib.best_for(|_| 1.0).is_none());
    }

    #[test]
    fn single_entry_library_always_wins() {
        let mut lib = HeuristicLibrary::new();
        lib.add(LibraryEntry { context: "only".into(), source: "obj.count".into(), score: 0.2 });
        let (best, score) = lib.best_for(|e| e.score * 2.0).unwrap();
        assert_eq!(best.context, "only");
        assert!((score - 0.4).abs() < 1e-12);
        assert!(!lib.is_empty());
    }

    #[test]
    fn best_for_survives_nan_scores() {
        let mut lib = HeuristicLibrary::new();
        lib.add(LibraryEntry { context: "a".into(), source: "obj.count".into(), score: 0.1 });
        lib.add(LibraryEntry { context: "b".into(), source: "now".into(), score: 0.2 });
        // a NaN-scoring entry must neither panic the selection nor win it
        let (best, _) = lib.best_for(|e| if e.context == "a" { f64::NAN } else { 0.5 }).unwrap();
        assert_eq!(best.context, "b");
    }

    #[test]
    fn monitor_with_single_sample_window() {
        // window_size = 1: every sample is a full window. The first sample
        // sets the baseline; the next degrading sample triggers at once.
        let mut m = ContextMonitor::new(1, 1.2);
        assert!(!m.observe(0.30), "first sample only establishes the baseline");
        assert_eq!(m.baseline(), Some(0.30));
        assert!(!m.observe(0.35), "within tolerance");
        assert!(m.observe(0.45), "20% guardrail exceeded");
        // re-baselining: the next sample defines the new regime
        assert_eq!(m.baseline(), None);
        assert!(!m.observe(0.45));
        assert_eq!(m.baseline(), Some(0.45));
    }

    #[test]
    fn monitor_before_full_window_never_triggers() {
        let mut m = ContextMonitor::new(10, 1.2);
        for _ in 0..9 {
            assert!(!m.observe(10.0), "no baseline, no trigger");
        }
        assert_eq!(m.baseline(), None, "window not yet full");
        assert!(!m.observe(10.0));
        assert_eq!(m.baseline(), Some(10.0), "10th sample completes the window");
    }

    #[test]
    fn monitor_ignores_nan_samples() {
        let mut m = ContextMonitor::new(3, 1.5);
        for _ in 0..3 {
            assert!(!m.observe(0.30));
        }
        assert_eq!(m.baseline(), Some(0.30));
        // NaN carries no evidence: ignored entirely, window untouched
        for _ in 0..10 {
            assert!(!m.observe(f64::NAN));
        }
        assert_eq!(m.baseline(), Some(0.30), "NaN must not disturb the baseline");
        // the window still holds the three 0.30 samples; the second
        // degraded sample pushes the rolling mean past the 50% guardrail
        assert!(!m.observe(0.60), "mean 0.40 is inside the 0.45 guardrail");
        assert!(m.observe(0.60), "real degradation still fires after NaNs");
    }

    #[test]
    fn monitor_treats_infinite_samples_as_outage_but_never_as_baseline() {
        let mut m = ContextMonitor::new(2, 1.5);
        // an ∞ sample in the first window: no baseline can be established
        // until it rolls out
        assert!(!m.observe(f64::INFINITY));
        assert!(!m.observe(0.30));
        assert_eq!(m.baseline(), None, "a non-finite mean must not become the baseline");
        assert!(!m.observe(0.30), "finite window establishes the baseline");
        assert_eq!(m.baseline(), Some(0.30));
        // with a baseline in place, an ∞ sample (stalled window scored as
        // an outage) triggers immediately
        assert!(m.observe(f64::INFINITY));
        assert_eq!(m.baseline(), None, "trigger re-baselines");
        // and the re-established baseline again waits out the infinity
        assert!(!m.observe(f64::INFINITY));
        assert!(!m.observe(0.45));
        assert_eq!(m.baseline(), None);
        assert!(!m.observe(0.45));
        assert_eq!(m.baseline(), Some(0.45));
    }

    #[test]
    fn monitor_tolerance_exactly_at_the_boundary_does_not_trigger() {
        // the guardrail is strict: mean must EXCEED base × tolerance
        let mut m = ContextMonitor::new(1, 1.2);
        assert!(!m.observe(0.50)); // baseline 0.50, threshold 0.60
        assert!(!m.observe(0.60), "exactly at the boundary must not fire");
        assert_eq!(m.baseline(), Some(0.50), "boundary sample must not re-baseline");
        assert!(m.observe(0.60 + 1e-9), "just past the boundary fires");
    }

    #[test]
    fn monitor_reestablishes_baseline_from_the_new_regime_after_reset() {
        let mut m = ContextMonitor::new(4, 1.25);
        for _ in 0..4 {
            m.observe(0.20);
        }
        assert_eq!(m.baseline(), Some(0.20));
        // shift: trigger once, then the NEXT full window (pure new-regime
        // samples, not the mixed transition window) defines the baseline
        let mut fired = 0;
        for _ in 0..8 {
            if m.observe(0.40) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
        assert_eq!(m.baseline(), Some(0.40), "baseline must be the new regime's level");
        // stable at the new level: no further triggers
        for _ in 0..20 {
            assert!(!m.observe(0.40));
        }
    }

    #[test]
    fn monitor_improvement_never_triggers() {
        let mut m = ContextMonitor::new(4, 1.1);
        for _ in 0..4 {
            m.observe(0.5);
        }
        // quality improves (signal drops): a degradation guardrail must
        // stay silent no matter how far it improves
        for _ in 0..40 {
            assert!(!m.observe(0.05));
        }
    }

    // -- AdaptiveController over a toy study: domain logic without sims --

    use policysmith_dsl::Mode;
    use policysmith_gen::{Prompt, TokenLedger};

    /// Accepts anything not containing "bad"; scores by source length,
    /// except that a source containing "fault" faults when run (`-∞`).
    struct ToyStudy;
    impl Study for ToyStudy {
        type Artifact = String;
        fn mode(&self) -> Mode {
            Mode::Cache
        }
        fn check(&self, source: &str) -> Result<String, String> {
            if source.contains("bad") {
                Err("does not compile here".into())
            } else {
                Ok(source.to_string())
            }
        }
        fn evaluate(&self, artifact: &String) -> f64 {
            if artifact.contains("fault") {
                return f64::NEG_INFINITY;
            }
            artifact.len() as f64 / 100.0
        }
    }

    /// Emits a fixed batch once per round; an empty batch makes any
    /// accidental `run_search` panic, proving no search ran.
    struct FixedGen {
        batch: Vec<String>,
        ledger: TokenLedger,
    }
    impl Generator for FixedGen {
        fn generate(&mut self, _prompt: &Prompt, _n: usize) -> Vec<String> {
            self.batch.clone()
        }
        fn repair(&mut self, _p: &Prompt, _s: &str, _e: &str) -> Option<String> {
            None
        }
        fn ledger(&self) -> &TokenLedger {
            &self.ledger
        }
    }

    fn tiny_cfg() -> SearchConfig {
        SearchConfig { rounds: 1, candidates_per_round: 1, ..SearchConfig::quick() }
    }

    fn entry(source: &str, score: f64) -> LibraryEntry {
        LibraryEntry { context: "home".into(), source: source.into(), score }
    }

    #[test]
    fn adapt_reuses_a_fitting_library_entry_without_searching() {
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.05);
        ctrl.deploy(entry("aaaaaaaaaa", 0.3)); // re-scores to 0.10 ≥ 0.05
        let mut gen = FixedGen { batch: vec![], ledger: TokenLedger::default() };
        let a = ctrl.adapt("shifted", &ToyStudy, &mut gen, &tiny_cfg());
        match a {
            Adaptation::FromLibrary { entry, score } => {
                assert_eq!(entry.source, "aaaaaaaaaa");
                assert!((score - 0.10).abs() < 1e-12);
            }
            other => panic!("expected reuse, got {other:?}"),
        }
        assert!(!ctrl.adaptations()[0].resynthesized());
        assert_eq!(ctrl.library().len(), 1, "reuse must not grow the library");
        assert_eq!(ctrl.deployed().unwrap().source, "aaaaaaaaaa");
    }

    #[test]
    fn adapt_resynthesizes_when_no_stored_policy_fits() {
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.5);
        ctrl.deploy(entry("aaaaaaaaaa", 0.3)); // re-scores to 0.10 < 0.5
        let fresh = "f".repeat(64);
        let mut gen = FixedGen { batch: vec![fresh.clone()], ledger: TokenLedger::default() };
        let a = ctrl.adapt("shifted", &ToyStudy, &mut gen, &tiny_cfg());
        assert!(a.resynthesized());
        assert_eq!(a.entry().source, fresh);
        assert_eq!(a.entry().context, "shifted");
        assert_eq!(ctrl.library().len(), 2, "re-synthesis grows the library");
        assert_eq!(ctrl.deployed().unwrap().source, fresh);
        assert_eq!(ctrl.adaptations().len(), 1);
    }

    #[test]
    fn underperforming_search_falls_back_to_the_best_stored_policy() {
        // the stored policy misses the (high) reuse bar, so a search runs —
        // but its winner scores below the stored policy in this context;
        // the controller must deploy the stored one, not regress
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.9);
        let stored = "s".repeat(40); // re-scores to 0.40 < 0.9
        ctrl.deploy(entry(&stored, 0.6));
        let weak = "w".repeat(10); // search winner scores 0.10
        let mut gen = FixedGen { batch: vec![weak.clone()], ledger: TokenLedger::default() };
        let a = ctrl.adapt("shifted", &ToyStudy, &mut gen, &tiny_cfg());
        match a {
            Adaptation::FromLibrary { entry, score } => {
                assert_eq!(entry.source, stored);
                assert!((score - 0.40).abs() < 1e-12);
            }
            other => panic!("expected the stored policy to stay live, got {other:?}"),
        }
        assert_eq!(ctrl.library().len(), 2, "the search winner still joins the library");
        assert_eq!(ctrl.deployed().unwrap().source, stored);
    }

    #[test]
    fn entries_that_do_not_compile_for_the_study_never_win() {
        // a shared library may hold other templates' heuristics; they
        // score -∞ here and fall through to re-synthesis even with a
        // bottomless reuse threshold
        let mut ctrl =
            AdaptiveController::new(ContextMonitor::new(2, 1.2), -1_000.0).with_library({
                let mut lib = HeuristicLibrary::new();
                lib.add(entry("bad cross-template source", 0.9));
                lib
            });
        let mut gen = FixedGen { batch: vec!["ok".into()], ledger: TokenLedger::default() };
        let a = ctrl.adapt("shifted", &ToyStudy, &mut gen, &tiny_cfg());
        assert!(a.resynthesized());
        assert_eq!(a.entry().source, "ok");
    }

    #[test]
    fn try_reuse_answers_without_a_ticket_when_a_stored_policy_fits() {
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.05);
        ctrl.deploy(entry("aaaaaaaaaa", 0.3)); // re-scores to 0.10 ≥ 0.05
        let a = ctrl.try_reuse(&ToyStudy).expect("stored policy clears the bar");
        match a {
            Adaptation::FromLibrary { entry, score } => {
                assert_eq!(entry.source, "aaaaaaaaaa");
                assert!((score - 0.10).abs() < 1e-12);
            }
            other => panic!("expected reuse, got {other:?}"),
        }
        assert_eq!(ctrl.adaptations().len(), 1);
        assert_eq!(ctrl.deployed().unwrap().source, "aaaaaaaaaa");
    }

    #[test]
    fn split_api_reproduces_adapt_exactly() {
        // the non-blocking split (try_reuse → external search →
        // finish_search) must land at the same deployed policy, library,
        // and adaptation record as the blocking `adapt` — including the
        // never-regress case where the search winner loses to a stored
        // policy that merely missed the reuse bar
        for (stored_len, fresh_len) in [(40usize, 10usize), (10, 64)] {
            let build = || {
                let mut c = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.9);
                c.deploy(entry(&"s".repeat(stored_len), 0.6));
                c
            };
            let fresh = "f".repeat(fresh_len);

            let mut blocking = build();
            let mut gen = FixedGen { batch: vec![fresh.clone()], ledger: TokenLedger::default() };
            let a = blocking.adapt("shifted", &ToyStudy, &mut gen, &tiny_cfg());

            let mut split = build();
            let ticket = split.try_reuse(&ToyStudy).expect_err("0.9 bar is out of reach");
            assert!(
                ticket.best_stored.as_ref().is_some_and(|(e, s)| {
                    e.source == "s".repeat(stored_len)
                        && (s - stored_len as f64 / 100.0).abs() < 1e-12
                }),
                "ticket must carry the re-scored best stored entry"
            );
            // the "external search": same generator, same config, run by the caller
            let mut gen2 = FixedGen { batch: vec![fresh.clone()], ledger: TokenLedger::default() };
            let outcome = run_search(&ToyStudy, &mut gen2, &tiny_cfg());
            let b = split.finish_search("shifted", ticket, Some(outcome.best));

            assert_eq!(Some(a), b, "stored_len={stored_len}");
            assert_eq!(blocking.deployed(), split.deployed());
            assert_eq!(blocking.library().entries(), split.library().entries());
            assert_eq!(blocking.adaptations(), split.adaptations());
        }
    }

    #[test]
    fn finish_search_on_an_empty_library_deploys_the_winner() {
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.5);
        let ticket = ctrl.try_reuse(&ToyStudy).expect_err("empty library cannot reuse");
        assert!(ticket.best_stored.is_none());
        let winner = Scored { source: "w".repeat(30), score: 0.30, round: 0 };
        let a = ctrl.finish_search("ctx", ticket, Some(winner)).unwrap();
        assert!(a.resynthesized());
        assert_eq!(ctrl.library().len(), 1);
        assert_eq!(ctrl.deployed().unwrap().source, "w".repeat(30));
    }

    #[test]
    fn observe_delegates_to_the_monitor() {
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(1, 1.2), 0.0);
        assert!(!ctrl.observe(0.30), "first sample only baselines");
        assert_eq!(ctrl.monitor().baseline(), Some(0.30));
        assert!(ctrl.observe(0.45), "20% guardrail exceeded");
    }

    // -- poisoning --

    #[test]
    fn poisoned_entries_are_skipped_by_best_for() {
        let mut lib = HeuristicLibrary::new();
        lib.add(entry("winner-by-score", 0.9));
        lib.add(entry("runner-up", 0.5));
        assert!(lib.poison("winner-by-score"));
        assert!(!lib.poison("winner-by-score"), "second poison is a no-op");
        let (best, _) = lib.best_for(|e| e.score).unwrap();
        assert_eq!(best.source, "runner-up");
        assert!(lib.is_poisoned("winner-by-score"));
        assert_eq!(lib.poisoned().collect::<Vec<_>>(), vec!["winner-by-score"]);
    }

    #[test]
    fn fully_poisoned_library_has_no_best() {
        let mut lib = HeuristicLibrary::new();
        lib.add(entry("only", 0.9));
        lib.poison("only");
        assert!(lib.best_for(|e| e.score).is_none());
    }

    #[test]
    fn poisoning_survives_re_adds() {
        let mut lib = HeuristicLibrary::new();
        lib.add(entry("faulty", 0.9));
        lib.poison("faulty");
        // the same source re-enters under a different context and score —
        // the quarantine is keyed by source text, so it still applies
        lib.add(LibraryEntry { context: "elsewhere".into(), source: "faulty".into(), score: 2.0 });
        assert!(lib.best_for(|e| e.score).is_none());
        assert_eq!(lib.len(), 2, "poisoning hides entries, it does not delete them");
    }

    #[test]
    fn try_reuse_skips_poisoned_entries() {
        // the poisoned entry would easily clear the reuse bar; a clean but
        // worse entry must win instead
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.05);
        ctrl.deploy(entry(&"p".repeat(50), 0.5)); // re-scores to 0.50
        ctrl.deploy(entry(&"c".repeat(10), 0.1)); // re-scores to 0.10
        ctrl.poison(&"p".repeat(50));
        let a = ctrl.try_reuse(&ToyStudy).expect("the clean entry clears the bar");
        assert_eq!(a.entry().source, "c".repeat(10));
    }

    #[test]
    fn finish_search_never_deploys_a_stored_entry_poisoned_after_ticketing() {
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.9);
        let stored = "s".repeat(40); // re-scores to 0.40, beats the weak winner
        ctrl.deploy(entry(&stored, 0.6));
        let ticket = ctrl.try_reuse(&ToyStudy).expect_err("0.9 bar is out of reach");
        // a quarantine lands while the search is running
        ctrl.poison(&stored);
        let winner = Scored { source: "w".repeat(10), score: 0.10, round: 0 };
        let a = ctrl.finish_search("shifted", ticket, Some(winner)).unwrap();
        assert!(a.resynthesized(), "the poisoned stored entry must not win the comparison");
        assert_eq!(ctrl.deployed().unwrap().source, "w".repeat(10));
    }

    // -- retry/backoff + watchdog --

    /// Fails `fail_first` try_generate calls, then behaves like FixedGen.
    struct FlakyFixed {
        batch: Vec<String>,
        fail_first: usize,
        calls: usize,
        ledger: TokenLedger,
    }
    impl Generator for FlakyFixed {
        fn generate(&mut self, _p: &Prompt, _n: usize) -> Vec<String> {
            self.batch.clone()
        }
        fn try_generate(
            &mut self,
            p: &Prompt,
            n: usize,
        ) -> Result<Vec<String>, policysmith_gen::GenError> {
            self.calls += 1;
            if self.calls <= self.fail_first {
                Err(policysmith_gen::GenError::Unavailable("down".into()))
            } else {
                Ok(self.generate(p, n))
            }
        }
        fn repair(&mut self, _p: &Prompt, _s: &str, _e: &str) -> Option<String> {
            None
        }
        fn ledger(&self) -> &TokenLedger {
            &self.ledger
        }
    }

    #[test]
    fn retry_recovers_from_transient_generator_failures() {
        let mut gen = FlakyFixed {
            batch: vec!["okokok".into()],
            fail_first: 2,
            calls: 0,
            ledger: TokenLedger::default(),
        };
        let retry = RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            deadline_ms: u64::MAX,
        };
        let r = run_search_with_retry(&ToyStudy, &mut gen, &tiny_cfg(), &retry);
        assert_eq!(r.failures.len(), 2, "two failed attempts precede the success");
        assert_eq!(r.result.unwrap().best.source, "okokok");
    }

    #[test]
    fn retry_gives_up_after_the_attempt_budget() {
        let mut gen = FlakyFixed {
            batch: vec!["ok".into()],
            fail_first: usize::MAX,
            calls: 0,
            ledger: TokenLedger::default(),
        };
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            deadline_ms: u64::MAX,
        };
        let r = run_search_with_retry(&ToyStudy, &mut gen, &tiny_cfg(), &retry);
        assert_eq!(r.result.err(), Some(GiveUp::AttemptsExhausted));
        assert_eq!(r.failures.len(), 3);
        assert!(r.failures[0].contains("unavailable"), "{}", r.failures[0]);
    }

    #[test]
    fn retry_watchdog_fires_before_sleeping_past_the_deadline() {
        let mut gen = FlakyFixed {
            batch: vec!["ok".into()],
            fail_first: usize::MAX,
            calls: 0,
            ledger: TokenLedger::default(),
        };
        // huge attempt budget, but each backoff would sleep 10s: the 1ms
        // deadline must cut the loop off after the first failure
        let retry = RetryPolicy {
            max_attempts: 1000,
            backoff_base_ms: 10_000,
            backoff_cap_ms: 10_000,
            deadline_ms: 1,
        };
        let t0 = std::time::Instant::now();
        let r = run_search_with_retry(&ToyStudy, &mut gen, &tiny_cfg(), &retry);
        assert_eq!(r.result.err(), Some(GiveUp::DeadlineExceeded));
        assert_eq!(r.failures.len(), 1);
        assert!(t0.elapsed() < Duration::from_secs(5), "the watchdog must not sleep the backoff");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let retry = RetryPolicy {
            max_attempts: 8,
            backoff_base_ms: 10,
            backoff_cap_ms: 50,
            deadline_ms: 0,
        };
        assert_eq!(retry.backoff_ms(0), 10);
        assert_eq!(retry.backoff_ms(1), 20);
        assert_eq!(retry.backoff_ms(2), 40);
        assert_eq!(retry.backoff_ms(3), 50, "capped");
        assert_eq!(retry.backoff_ms(63), 50, "shift overflow saturates at the cap");
    }

    #[test]
    fn a_search_that_gave_up_falls_back_to_the_ticketed_best_stored_entry() {
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.9);
        let stored = "s".repeat(40);
        ctrl.deploy(entry(&stored, 0.6));
        let ticket = ctrl.try_reuse(&ToyStudy).expect_err("0.9 bar is out of reach");
        let a =
            ctrl.finish_search("shifted", ticket, None).expect("the stored entry is deployable");
        assert_eq!(a.entry().source, stored);
        assert!(!a.resynthesized());
        assert_eq!(ctrl.deployed().unwrap().source, stored);
        assert_eq!(ctrl.adaptations().len(), 1);
    }

    #[test]
    fn a_search_that_gave_up_refuses_poisoned_or_unusable_fallbacks() {
        // empty library: nothing to fall back to
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.9);
        let ticket = ctrl.try_reuse(&ToyStudy).expect_err("empty library");
        assert!(ctrl.finish_search("shifted", ticket, None).is_none());
        assert!(ctrl.adaptations().is_empty());

        // the only stored entry was poisoned while the search was failing
        let stored = "s".repeat(40);
        ctrl.deploy(entry(&stored, 0.6));
        let ticket = ctrl.try_reuse(&ToyStudy).expect_err("0.9 bar is out of reach");
        ctrl.poison(&stored);
        assert!(
            ctrl.finish_search("shifted", ticket, None).is_none(),
            "a poisoned fallback must stay dead"
        );
        assert_eq!(ctrl.deployed().unwrap().source, stored, "the incumbent simply stays live");

        // a -∞-scoring entry (does not compile here) is not a fallback
        let mut ctrl = AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.9);
        ctrl.deploy(entry("bad cross-template source", 0.9));
        let ticket = ctrl.try_reuse(&ToyStudy).expect_err("-inf misses any bar");
        assert!(ctrl.finish_search("shifted", ticket, None).is_none());
    }

    // -- the quarantine rung --

    fn controller_holding(sources: &[&str]) -> AdaptiveController {
        let mut lib = HeuristicLibrary::new();
        for source in sources {
            lib.add(entry(source, 0.0));
        }
        AdaptiveController::new(ContextMonitor::new(2, 1.2), 0.0).with_library(lib)
    }

    #[test]
    fn recovery_prefers_the_best_clean_library_entry() {
        let mut ctrl = controller_holding(&["aaa", "aaaaaa"]);
        match ctrl.recover(&ToyStudy) {
            Some(Adaptation::FromLibrary { entry, score }) => {
                assert_eq!(entry.source, "aaaaaa");
                assert!((score - 0.06).abs() < 1e-12);
            }
            other => panic!("clean entries exist, got {other:?}"),
        }
        // the recovery is on the controller's trail like any adaptation
        assert_eq!(ctrl.deployed().unwrap().source, "aaaaaa");
        assert_eq!(ctrl.adaptations().len(), 1);
    }

    #[test]
    fn recovery_skips_poisoned_and_faulting_entries() {
        let mut ctrl = controller_holding(&["fault-prone", "bad-here"]);
        // the live policy is the one that just faulted and was poisoned
        ctrl.deploy(entry("aaaaaaaaaa", 0.0));
        ctrl.poison("aaaaaaaaaa");
        // best clean entry faults (-∞), next fails check (-∞), the only
        // good one is poisoned: the chain must land on the baseline
        if let Some(a) = ctrl.recover(&ToyStudy) {
            panic!("must not deploy {} after quarantine", a.entry().source);
        }
        assert_eq!(ctrl.deployed(), None, "a poisoned source must not be reported as live");
        assert!(ctrl.adaptations().is_empty());
    }

    #[test]
    fn recovery_on_an_empty_library_is_the_baseline() {
        let mut ctrl = controller_holding(&[]);
        assert_eq!(ctrl.recover(&ToyStudy), None);
    }
}
