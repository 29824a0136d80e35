//! Guarded publication: the admission gate in front of `PolicyCell::publish`.
//!
//! Every adaptation candidate — a library reuse, a fresh search winner, a
//! stored entry deployed because the search gave up — is re-scored in the
//! drifted context and shadow-replayed against the incumbent **before** it
//! goes live: candidates that fail the study's Checker, fault at runtime
//! during evaluation, or regress against the incumbent are rejected (and
//! the rejection is logged with its reason instead of vanishing).
//!
//! *Which* candidate reaches the gate is not decided here: that is the
//! controller's one ladder ([`policysmith_core::library`]), which drift,
//! a generator outage and a quarantine all walk. A quarantine recovery is
//! the one publish that skips the gate — its incumbent just faulted, and
//! its floor (the man-made baseline) needs no library and no score.

use policysmith_core::library::rescore;
use policysmith_core::search::Study;

/// Why the guard refused to publish a candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The candidate failed the study's Checker in the drifted context.
    CheckFailed(String),
    /// The candidate compiled but faulted during shadow evaluation (the
    /// study scored it `-∞`/NaN — the fault-latch contract).
    RuntimeFault,
    /// The candidate scored below the shadow-replayed incumbent.
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
    /// incumbent.
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
/// shadow-replays the incumbent before publication (see module docs): a
/// candidate is admitted iff `candidate_score ≥ incumbent_score` — never
/// publish anything measurably worse than what is live.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolicyGuard;

impl PolicyGuard {
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
        if candidate_score < incumbent_score {
            return GuardVerdict::Reject {
                reason: RejectReason::Regression,
                candidate_score,
                incumbent_score,
            };
        }
        GuardVerdict::Admit { candidate_score, incumbent_score }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn guard_admits_an_improvement() {
        let v = PolicyGuard.screen(&ToyStudy, "longer-candidate", "short");
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
        let v = PolicyGuard.screen(&ToyStudy, "short", "longer-incumbent");
        match v {
            GuardVerdict::Reject { reason: RejectReason::Regression, .. } => {}
            other => panic!("expected a regression rejection, got {other:?}"),
        }
    }

    #[test]
    fn guard_rejects_check_failures_and_faults() {
        match PolicyGuard.screen(&ToyStudy, "bad", "x") {
            GuardVerdict::Reject { reason: RejectReason::CheckFailed(why), .. } => {
                assert!(why.contains("compile"))
            }
            other => panic!("{other:?}"),
        }
        for cand in ["fault", "nan"] {
            match PolicyGuard.screen(&ToyStudy, cand, "x") {
                GuardVerdict::Reject { reason: RejectReason::RuntimeFault, .. } => {}
                other => panic!("{cand}: {other:?}"),
            }
        }
    }

    #[test]
    fn guard_ignores_an_unscorable_incumbent() {
        // the incumbent faults in the drifted context (that may be *why*
        // we are adapting) — any real-scoring candidate must pass
        let v = PolicyGuard.screen(&ToyStudy, "x", "fault");
        assert!(v.admitted());
    }
}
