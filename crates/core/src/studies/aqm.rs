//! The AQM instantiation — the fourth workload, beyond the paper's two
//! case studies.
//!
//! Context = one [`AqmScenario`] (bottleneck + flow population + seed).
//! The Checker is the full compile-once pipeline — parse → `Mode::Aqm`
//! check → kbpf lowering → verification — so the artifact is a verified
//! [`CompiledPolicy`] (userspace template: unprovable divisions are
//! deferred to the host's latched fallback rather than rejected). The
//! Evaluator replays the scenario with the verdict host managing the
//! bottleneck (pure VM execution per head-of-line packet) and scores the
//! **power improvement over drop-tail** — utilization discounted by RTT
//! inflation, the AQM analogue of the cache study's miss-ratio-over-FIFO
//! — with runtime faults (division by zero on an empty queue) scored as a
//! hard failure. Drop-tail is the natural denominator: it is what a
//! byte-bounded queue does before anyone writes an AQM at all.

use crate::search::Study;
use policysmith_aqmsim::{metrics, AqmScenario, ExprAqm};
use policysmith_dsl::Mode;
use policysmith_kbpf::CompiledPolicy;

/// One AQM context: scenario + drop-tail reference point.
pub struct AqmStudy {
    scenario: AqmScenario,
    droptail_power: f64,
}

impl AqmStudy {
    /// Build the study for a scenario, fixing drop-tail as the baseline.
    pub fn new(scenario: &AqmScenario) -> Self {
        let dt = metrics::run_baseline(scenario, "drop-tail");
        AqmStudy { scenario: scenario.clone(), droptail_power: dt.power }
    }

    /// The context scenario.
    pub fn scenario(&self) -> &AqmScenario {
        &self.scenario
    }

    /// Drop-tail's power on this context (the denominator).
    pub fn droptail_power(&self) -> f64 {
        self.droptail_power
    }

    /// Power improvement of an arbitrary policy over drop-tail on this
    /// context (0.0 = exactly drop-tail; 1.0 = doubled power).
    pub fn improvement(&self, aqm: Box<dyn policysmith_aqmsim::AqmPolicy>) -> f64 {
        let m = metrics::run(&self.scenario, aqm);
        (m.power - self.droptail_power) / self.droptail_power.max(1e-9)
    }

    /// Improvement of a named man-made baseline (panics on unknown name).
    pub fn baseline_improvement(&self, name: &str) -> f64 {
        let m = metrics::run_baseline(&self.scenario, name);
        (m.power - self.droptail_power) / self.droptail_power.max(1e-9)
    }
}

impl Study for AqmStudy {
    type Artifact = CompiledPolicy;

    fn mode(&self) -> Mode {
        Mode::Aqm
    }

    fn check(&self, source: &str) -> Result<CompiledPolicy, String> {
        CompiledPolicy::from_source(source, Mode::Aqm).map_err(|e| e.to_string())
    }

    fn evaluate(&self, policy: &CompiledPolicy) -> f64 {
        let host = ExprAqm::new("candidate", policy.clone());
        let probe = host.probe();
        let m = metrics::run(&self.scenario, Box::new(host));
        if probe.faulted() {
            // The candidate crashed in production: rank below everything.
            // A finite sentinel is NOT safe — power improvement is bounded
            // below by -1, but keeping the same contract as the other
            // studies (and surviving any future metric change) costs
            // nothing.
            return f64::NEG_INFINITY;
        }
        (m.power - self.droptail_power) / self.droptail_power.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{run_search, SearchConfig};
    use policysmith_aqmsim::scenario;
    use policysmith_gen::{GenConfig, MockLlm};

    fn study() -> AqmStudy {
        AqmStudy::new(&scenario::steady())
    }

    #[test]
    fn checker_accepts_aqm_and_rejects_faults() {
        let s = study();
        assert!(s.check("if(pkt.sojourn > 5000, 2, 0)").is_ok());
        assert!(s.check("if(q.bytes * 8000000 / q.drain_rate > 15000, 1, 0)").is_ok());
        assert!(s.check("pkt.sojourn * 1.5").is_err(), "float");
        assert!(s.check("obj.count").is_err(), "cache feature");
        assert!(s.check("cwnd + 1").is_err(), "kernel feature");
        assert!(s.check("server.queue_len").is_err(), "lb feature");
        assert!(s.check("q.delay").is_err(), "hallucinated feature");
    }

    #[test]
    fn seeds_score_sanely_and_deterministically() {
        let s = study();
        // the do-nothing verdict IS drop-tail: improvement exactly zero
        let inert = s.evaluate(&s.check("0").unwrap());
        assert!(inert.abs() < 1e-12, "{inert}");
        // a CoDel-flavoured sojourn gate must win power back
        let gate = s.evaluate(&s.check("if(pkt.sojourn > 8000, 2, 0)").unwrap());
        assert!(gate > 0.2, "sojourn gate should beat drop-tail clearly: {gate}");
        // an ECN-marking gate should do at least as well as a crude dropper
        let mark = s.evaluate(&s.check("if(q.ewma_sojourn > 6000, 1, 0)").unwrap());
        assert!(mark > 0.2, "marking gate should beat drop-tail clearly: {mark}");
        assert_eq!(gate, s.evaluate(&s.check("if(pkt.sojourn > 8000, 2, 0)").unwrap()));
    }

    #[test]
    fn baseline_improvements_are_ordered_sanely() {
        let s = study();
        assert!(s.baseline_improvement("drop-tail").abs() < 1e-12);
        let codel = s.baseline_improvement("codel");
        let pie = s.baseline_improvement("pie");
        assert!(codel > 0.0, "codel {codel}");
        assert!(pie > 0.0, "pie {pie}");
    }

    #[test]
    fn runtime_faults_rank_below_every_real_score() {
        let s = study();
        // aqm.drops is 0 until the first drop → division by zero
        let e = s.check("1000 / aqm.drops").unwrap();
        assert_eq!(s.evaluate(&e), f64::NEG_INFINITY);
        // ...including below a fault-free but catastrophic policy
        // (drop-everything starves the link and lands near -1)
        let worst = s.evaluate(&s.check("2").unwrap());
        assert!(worst.is_finite());
        assert!(f64::NEG_INFINITY < worst);
        assert!(worst < -0.5, "drop-everything must crater power: {worst}");
    }

    #[test]
    fn compiled_artifact_scores_match_the_interpreter_oracle() {
        // the study-level differential check: evaluating the verified
        // CompiledPolicy (pure VM execution per packet) must land at
        // exactly the interpreter host's improvement — identical
        // decisions, identical metrics
        let s = study();
        for src in [
            "if(pkt.sojourn > 8000, 2, 0)",
            "if(q.bytes * 100 > q.capacity * 60, 1, 0)",
            "if(q.bytes * 8000000 / q.drain_rate > 15000, 2, 0)",
        ] {
            let compiled = s.evaluate(&s.check(src).unwrap());
            let oracle = ExprAqm::interpreted("oracle", policysmith_dsl::parse(src).unwrap());
            assert_eq!(compiled, s.improvement(Box::new(oracle)), "engines diverged for `{src}`");
        }
    }

    #[test]
    fn quick_search_beats_droptail_on_the_steady_preset() {
        let s = study();
        let mut llm = MockLlm::new(GenConfig::aqm_defaults(29));
        let cfg = SearchConfig { rounds: 5, candidates_per_round: 10, ..SearchConfig::quick() };
        let outcome = run_search(&s, &mut llm, &cfg);
        assert!(
            outcome.best.score > 0.0,
            "search best {:.4} must beat the drop-tail denominator",
            outcome.best.score
        );
    }
}
