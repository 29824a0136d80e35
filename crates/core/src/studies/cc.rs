//! The congestion-control instantiation (§5).
//!
//! The Checker is the full kernel pipeline — parse → kernel-mode check →
//! kbpf lowering → **verifier** (§5.0.2: "all candidate programs pass the
//! eBPF verifier before execution — which acts as the Checker"). The
//! Evaluator runs the verified program on the emulated 12 Mbps / 20 ms
//! link and scores a throughput/delay tradeoff. The paper's §5 does not
//! define a single objective (it reports the behaviour *range*); ours is
//! `utilization − λ · qdelay/qdelay_max`, documented here and swept in the
//! ablation bench.

use crate::search::Study;
use policysmith_cc::{
    check_candidate, evaluate_with, repair_stderr, KbpfCc, SimConfig, VerifiedCandidate,
};
use policysmith_dsl::Mode;

/// Weight of the queuing-delay penalty in the score.
pub const DELAY_WEIGHT: f64 = 0.5;
/// Normalizer: the buffer's worst-case queuing delay on the paper link.
pub const QDELAY_NORM_US: f64 = 40_000.0;

/// The kernel CC search context: an emulated link plus an evaluation
/// length. The paper evaluates on one fixed link; making the scenario a
/// study *parameter* is what lets the adaptation loop treat a link-property
/// shift (an RTT or bandwidth step mid-deployment) as just another drifted
/// context to re-synthesize for.
pub struct CcStudy {
    cfg: SimConfig,
}

impl CcStudy {
    /// Default: the paper link with 10-second emulated runs (a compromise
    /// between fidelity and search throughput; the experiment binaries use
    /// 30 s like the paper).
    pub fn new() -> Self {
        Self::with_duration(10_000_000)
    }

    /// The paper link with an explicit emulation length.
    pub fn with_duration(duration_us: u64) -> Self {
        let mut cfg = SimConfig::paper_scenario();
        cfg.duration_us = duration_us;
        CcStudy { cfg }
    }

    /// An explicit emulated scenario — a drifted link (longer RTT, less
    /// bandwidth, deeper buffer) is a different search context.
    pub fn with_scenario(cfg: SimConfig) -> Self {
        CcStudy { cfg }
    }

    /// Emulation length per evaluation, µs.
    pub fn duration_us(&self) -> u64 {
        self.cfg.duration_us
    }

    /// The emulated scenario candidates are scored on.
    pub fn scenario(&self) -> &SimConfig {
        &self.cfg
    }

    /// The §5.0.3 metrics for one verified candidate.
    pub fn metrics(&self, candidate: &VerifiedCandidate) -> policysmith_cc::CcMetrics {
        evaluate_with(self.cfg, Box::new(KbpfCc::new(candidate.clone())))
    }
}

impl Default for CcStudy {
    fn default() -> Self {
        Self::new()
    }
}

impl Study for CcStudy {
    type Artifact = VerifiedCandidate;

    fn mode(&self) -> Mode {
        Mode::Kernel
    }

    fn check(&self, source: &str) -> Result<VerifiedCandidate, String> {
        check_candidate(source).map_err(|e| repair_stderr(&e))
    }

    fn evaluate(&self, candidate: &VerifiedCandidate) -> f64 {
        let m = self.metrics(candidate);
        m.utilization - DELAY_WEIGHT * (m.mean_qdelay_us / QDELAY_NORM_US)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{run_search, SearchConfig};
    use policysmith_gen::{GenConfig, MockLlm};

    #[test]
    fn checker_is_the_verifier() {
        let s = CcStudy::new();
        assert!(s.check("if(loss, max(cwnd >> 1, 2), cwnd + 1)").is_ok());
        let err = s.check("cwnd / inflight").unwrap_err();
        assert!(err.contains("divisor"), "{err}");
        let err = s.check("cwnd * 0.5").unwrap_err();
        assert!(err.to_lowercase().contains("float"), "{err}");
    }

    #[test]
    fn score_orders_good_and_bad_controllers() {
        let s = CcStudy::with_duration(5_000_000);
        let aimd = s.check("if(loss, max(cwnd >> 1, 2), cwnd + 1)").unwrap();
        let frozen = s.check("2").unwrap(); // minimal window forever
        assert!(s.evaluate(&aimd) > s.evaluate(&frozen));
    }

    #[test]
    fn multibyte_comment_source_evaluates_without_panicking() {
        // byte 24 of this source falls inside an 'α': the host's display
        // name must not slice it there
        let s = CcStudy::with_duration(1_000_000);
        let c = s.check("// ααααααααααααα\ncwnd + 1").unwrap();
        assert!(s.evaluate(&c).is_finite());
    }

    #[test]
    fn tiny_cc_search_runs_end_to_end() {
        let s = CcStudy::with_duration(2_000_000);
        let mut llm = MockLlm::new(GenConfig::kernel_defaults(31));
        let cfg = SearchConfig { rounds: 3, candidates_per_round: 6, ..SearchConfig::quick() };
        let outcome = run_search(&s, &mut llm, &cfg);
        assert!(outcome.best.score > 0.0, "best {:?}", outcome.best);
        // compile statistics exist and are plausible (§5.0.3 band)
        let total: usize = outcome.rounds.iter().map(|r| r.generated).sum();
        let first: usize = outcome.rounds.iter().map(|r| r.passed_first).sum();
        assert!(first > total / 3, "first-pass rate collapsed: {first}/{total}");
    }
}
