//! Guarded publication and the safe-fallback chain.
//!
//! The serving runtime's two safety gates live here:
//!
//! * [`PolicyGuard`] — the *admission* gate. Every adaptation candidate is
//!   re-scored in the drifted context and shadow-replayed against the
//!   incumbent **before** `PolicyCell::publish`: candidates that fail the
//!   study's Checker, fault at runtime during evaluation, or regress
//!   against the incumbent are rejected (and the rejection is logged with
//!   its reason instead of vanishing).
//! * [`resolve_recovery`] — the *demotion* chain. When a worker trips its
//!   host's fault latch mid-serve, the offending policy is poisoned and
//!   the runtime demotes through an explicit chain: deployed policy →
//!   best non-poisoned library entry (re-scored finite in the current
//!   context) → the domain's man-made baseline (JSQ for load balancing,
//!   LRU for caching, CoDel-style for AQM). The chain always terminates:
//!   the baseline needs no library and no score.

use policysmith_core::library::{rescore, HeuristicLibrary, LibraryEntry};
use policysmith_core::search::Study;

/// Why the guard refused to publish a candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The candidate failed the study's Checker in the drifted context.
    CheckFailed(String),
    /// The candidate compiled but faulted during shadow evaluation (the
    /// study scored it `-∞`/NaN — the fault-latch contract).
    RuntimeFault,
    /// The candidate scored below the shadow-replayed incumbent by more
    /// than the guard's margin.
    Regression,
}

impl RejectReason {
    /// One-line human rendering for logs and reports.
    pub fn describe(&self) -> String {
        match self {
            RejectReason::CheckFailed(why) => format!("check failed: {why}"),
            RejectReason::RuntimeFault => "runtime fault during shadow evaluation".to_string(),
            RejectReason::Regression => "regression vs shadow-replayed incumbent".to_string(),
        }
    }
}

/// The guard's verdict on one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardVerdict {
    /// Publish: the candidate is sound and at least as good as the
    /// incumbent (within the margin).
    Admit { candidate_score: f64, incumbent_score: f64 },
    /// Do not publish.
    Reject { reason: RejectReason, candidate_score: f64, incumbent_score: f64 },
}

impl GuardVerdict {
    /// Is this an admission?
    pub fn admitted(&self) -> bool {
        matches!(self, GuardVerdict::Admit { .. })
    }
}

/// Re-scores every adaptation candidate in the drifted context and
/// shadow-replays the incumbent before publication (see module docs).
///
/// `margin` is the slack granted to the candidate in the regression
/// comparison: a candidate is admitted iff
/// `candidate_score + margin ≥ incumbent_score`. A margin of `0.0` means
/// "never publish anything measurably worse than what is live"; a small
/// positive margin tolerates evaluation noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyGuard {
    pub margin: f64,
}

impl Default for PolicyGuard {
    fn default() -> Self {
        PolicyGuard { margin: 0.0 }
    }
}

impl PolicyGuard {
    pub fn new(margin: f64) -> Self {
        PolicyGuard { margin }
    }

    /// Screen `candidate` against `incumbent` under `study` (both are
    /// source text; the study's Checker compiles them). The incumbent is
    /// shadow-replayed in the same drifted context so the comparison is
    /// apples-to-apples; an incumbent that itself fails to score (it is
    /// the very policy that drifted, or it faults) never blocks an
    /// admissible candidate — its score collapses to `-∞`.
    pub fn screen<S: Study>(&self, study: &S, candidate: &str, incumbent: &str) -> GuardVerdict {
        let candidate_score = match study.check(candidate) {
            Ok(artifact) => study.evaluate(&artifact),
            Err(why) => {
                return GuardVerdict::Reject {
                    reason: RejectReason::CheckFailed(why),
                    candidate_score: f64::NEG_INFINITY,
                    incumbent_score: f64::NAN,
                }
            }
        };
        let incumbent_score = rescore(study, incumbent);
        // every serving study scores a fault-latched run -∞; NaN is a
        // degenerate metric — both mean "this must never go live"
        if candidate_score == f64::NEG_INFINITY || candidate_score.is_nan() {
            return GuardVerdict::Reject {
                reason: RejectReason::RuntimeFault,
                candidate_score,
                incumbent_score,
            };
        }
        if candidate_score + self.margin < incumbent_score {
            return GuardVerdict::Reject {
                reason: RejectReason::Regression,
                candidate_score,
                incumbent_score,
            };
        }
        GuardVerdict::Admit { candidate_score, incumbent_score }
    }
}

/// Where a quarantined worker's traffic goes next (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Recovery {
    /// The best non-poisoned library entry, re-scored finite in the
    /// current context.
    Library { entry: LibraryEntry, score: f64 },
    /// Nothing stored survives scrutiny: demote to the domain's man-made
    /// baseline. The chain's unconditional terminal link.
    Baseline,
}

/// Resolve the safe-fallback chain after the deployed policy was
/// quarantined: the best non-poisoned library entry that re-scores to a
/// real (finite, non-NaN) number in the current context, else the
/// man-made baseline. Poisoned sources are invisible (the library skips
/// them in `best_for`), non-finite scorers are refused here — so the
/// function can never select a policy known to fault, and it always
/// terminates with a deployable answer.
pub fn resolve_recovery<S: Study>(library: &HeuristicLibrary, study: &S) -> Recovery {
    match library.best_for(|e| rescore(study, &e.source)) {
        Some((entry, score)) if score.is_finite() => {
            Recovery::Library { entry: entry.clone(), score }
        }
        _ => Recovery::Baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_core::library::LibraryEntry;
    use policysmith_dsl::Mode;

    /// Scores by source length; "bad" fails check; "fault" scores -∞;
    /// "nan" scores NaN.
    struct ToyStudy;
    impl Study for ToyStudy {
        type Artifact = String;
        fn mode(&self) -> Mode {
            Mode::Cache
        }
        fn check(&self, source: &str) -> Result<String, String> {
            if source.contains("bad") {
                Err("does not compile".into())
            } else {
                Ok(source.to_string())
            }
        }
        fn evaluate(&self, artifact: &String) -> f64 {
            if artifact.contains("fault") {
                f64::NEG_INFINITY
            } else if artifact.contains("nan") {
                f64::NAN
            } else {
                artifact.len() as f64
            }
        }
    }

    fn entry(source: &str) -> LibraryEntry {
        LibraryEntry { context: "t".into(), source: source.into(), score: 0.0 }
    }

    #[test]
    fn guard_admits_an_improvement() {
        let v = PolicyGuard::default().screen(&ToyStudy, "longer-candidate", "short");
        assert!(v.admitted());
        match v {
            GuardVerdict::Admit { candidate_score, incumbent_score } => {
                assert_eq!(candidate_score, 16.0);
                assert_eq!(incumbent_score, 5.0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn guard_rejects_a_regression_with_reason() {
        let v = PolicyGuard::default().screen(&ToyStudy, "short", "longer-incumbent");
        match v {
            GuardVerdict::Reject { reason: RejectReason::Regression, .. } => {}
            other => panic!("expected a regression rejection, got {other:?}"),
        }
    }

    #[test]
    fn guard_margin_tolerates_small_losses() {
        let g = PolicyGuard::new(2.0);
        assert!(g.screen(&ToyStudy, "1234", "12345").admitted(), "1 below, margin 2");
        assert!(!g.screen(&ToyStudy, "1234", "1234567").admitted(), "3 below, margin 2");
    }

    #[test]
    fn guard_rejects_check_failures_and_faults() {
        match PolicyGuard::default().screen(&ToyStudy, "bad", "x") {
            GuardVerdict::Reject { reason: RejectReason::CheckFailed(why), .. } => {
                assert!(why.contains("compile"))
            }
            other => panic!("{other:?}"),
        }
        for cand in ["fault", "nan"] {
            match PolicyGuard::default().screen(&ToyStudy, cand, "x") {
                GuardVerdict::Reject { reason: RejectReason::RuntimeFault, .. } => {}
                other => panic!("{cand}: {other:?}"),
            }
        }
    }

    #[test]
    fn guard_ignores_an_unscorable_incumbent() {
        // the incumbent faults in the drifted context (that may be *why*
        // we are adapting) — any real-scoring candidate must pass
        let v = PolicyGuard::default().screen(&ToyStudy, "x", "fault");
        assert!(v.admitted());
    }

    #[test]
    fn recovery_prefers_the_best_clean_library_entry() {
        let mut lib = HeuristicLibrary::new();
        lib.add(entry("aaa"));
        lib.add(entry("aaaaaa"));
        match resolve_recovery(&lib, &ToyStudy) {
            Recovery::Library { entry, score } => {
                assert_eq!(entry.source, "aaaaaa");
                assert_eq!(score, 6.0);
            }
            Recovery::Baseline => panic!("clean entries exist"),
        }
    }

    #[test]
    fn recovery_skips_poisoned_and_faulting_entries() {
        let mut lib = HeuristicLibrary::new();
        lib.add(entry("aaaaaaaaaa"));
        lib.add(entry("fault-prone"));
        lib.add(entry("bad-here"));
        lib.poison("aaaaaaaaaa");
        // best clean entry faults (-∞), next fails check (-∞), the only
        // good one is poisoned: the chain must land on the baseline
        match resolve_recovery(&lib, &ToyStudy) {
            Recovery::Baseline => {}
            Recovery::Library { entry, .. } => {
                panic!("must not deploy {} after quarantine", entry.source)
            }
        }
    }

    #[test]
    fn recovery_on_an_empty_library_is_the_baseline() {
        assert_eq!(resolve_recovery(&HeuristicLibrary::new(), &ToyStudy), Recovery::Baseline);
    }
}
