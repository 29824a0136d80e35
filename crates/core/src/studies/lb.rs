//! The load-balancing instantiation — the third workload, beyond the
//! paper's two case studies.
//!
//! Context = one [`Scenario`] (fleet + workload + seed). The Checker is
//! the full compile-once pipeline — parse → `Mode::Lb` check → kbpf
//! lowering → verification — so the artifact is a verified
//! [`CompiledPolicy`] (userspace template: unprovable divisions are
//! deferred to the host's latched fallback rather than rejected). The
//! Evaluator replays the scenario through the argmin scoring host (pure
//! VM execution per server per dispatch) and scores the **mean-slowdown
//! improvement over round-robin** — the load-balancing analogue of the
//! cache study's miss-ratio-over-FIFO, with runtime faults (division by
//! zero on an idle server) scored as a hard failure. Round-robin is the
//! natural denominator: it is what the dispatch tier does before anyone
//! writes a heuristic at all.

use crate::search::Study;
use policysmith_dsl::Mode;
use policysmith_kbpf::CompiledPolicy;
use policysmith_lbsim::{sim, Dispatcher, ExprDispatcher, LbRequest, Scenario};

/// One load-balancing context: scenario + round-robin reference point.
pub struct LbStudy {
    scenario: Scenario,
    requests: Vec<LbRequest>,
    rr_slowdown: f64,
}

impl LbStudy {
    /// Build the study for a scenario, fixing round-robin as the baseline.
    pub fn new(scenario: &Scenario) -> Self {
        let requests = scenario.requests();
        let rr = sim::run(
            &scenario.servers,
            &requests,
            &mut policysmith_lbsim::dispatch::RoundRobin::new(),
        );
        LbStudy { scenario: scenario.clone(), requests, rr_slowdown: rr.mean_slowdown() }
    }

    /// The context scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Round-robin's mean slowdown on this context (the denominator).
    pub fn rr_slowdown(&self) -> f64 {
        self.rr_slowdown
    }

    /// Mean-slowdown improvement of an arbitrary dispatcher over
    /// round-robin on this context (1.0 would mean slowdown reached zero).
    pub fn improvement<D: Dispatcher>(&self, dispatcher: &mut D) -> f64 {
        let m = sim::run(&self.scenario.servers, &self.requests, dispatcher);
        (self.rr_slowdown - m.mean_slowdown()) / self.rr_slowdown.max(1e-9)
    }

    /// Improvement of a named classical baseline (panics on unknown name).
    pub fn baseline_improvement(&self, name: &str) -> f64 {
        let mut d = policysmith_lbsim::by_name(name)
            .unwrap_or_else(|| panic!("unknown lb baseline `{name}`"));
        self.improvement(&mut d)
    }
}

impl Study for LbStudy {
    type Artifact = CompiledPolicy;

    fn mode(&self) -> Mode {
        Mode::Lb
    }

    fn check(&self, source: &str) -> Result<CompiledPolicy, String> {
        CompiledPolicy::from_source(source, Mode::Lb).map_err(|e| e.to_string())
    }

    fn evaluate(&self, policy: &CompiledPolicy) -> f64 {
        let mut host = ExprDispatcher::new("candidate", policy.clone());
        let m = sim::run(&self.scenario.servers, &self.requests, &mut host);
        if host.first_error().is_some() {
            // The candidate crashed in production: rank below everything.
            // A finite sentinel like -1.0 is NOT safe here — slowdown
            // improvement is unbounded below, so a fault-free but terrible
            // candidate (drop-storming every queue) can legitimately score
            // under any constant.
            return f64::NEG_INFINITY;
        }
        (self.rr_slowdown - m.mean_slowdown()) / self.rr_slowdown.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{run_search, SearchConfig};
    use policysmith_gen::{GenConfig, MockLlm};
    use policysmith_lbsim::scenario;

    fn study() -> LbStudy {
        LbStudy::new(&scenario::flash_crowd())
    }

    #[test]
    fn checker_accepts_lb_and_rejects_faults() {
        let s = study();
        assert!(s.check("server.queue_len").is_ok());
        assert!(s.check("server.inflight * 1000 / server.speed").is_ok());
        assert!(s.check("server.queue_len * 1.5").is_err(), "float");
        assert!(s.check("obj.count").is_err(), "cache feature");
        assert!(s.check("cwnd + 1").is_err(), "kernel feature");
        assert!(s.check("server.load").is_err(), "hallucinated feature");
    }

    #[test]
    fn seeds_score_sanely_and_deterministically() {
        let s = study();
        let jsq = s.evaluate(&s.check("server.inflight").unwrap());
        let norm = s.evaluate(&s.check("server.inflight * 1000 / server.speed").unwrap());
        for v in [jsq, norm] {
            assert!((-1.0..=1.0).contains(&v), "{v}");
        }
        assert!(norm > jsq, "speed-normalized ({norm}) must beat raw JSQ ({jsq}) here");
        assert_eq!(jsq, s.evaluate(&s.check("server.inflight").unwrap()));
    }

    #[test]
    fn runtime_faults_rank_below_every_real_score() {
        let s = study();
        // queue_len is 0 on the first dispatch → division by zero
        let e = s.check("1000 / server.queue_len").unwrap();
        assert_eq!(s.evaluate(&e), f64::NEG_INFINITY);
        // …including below a fault-free but catastrophic policy
        // (join-LONGEST-queue drop-storms one server at a time and scores
        // far under -1, which is why -1.0 was not a safe crash sentinel)
        let worst = s.evaluate(&s.check("0 - server.queue_len").unwrap());
        assert!(worst.is_finite());
        assert!(f64::NEG_INFINITY < worst);
    }

    #[test]
    fn compiled_artifact_scores_match_the_interpreter_oracle() {
        // the study-level differential check: evaluating the verified
        // CompiledPolicy (pure VM execution per server) must land at
        // exactly the interpreter host's improvement — identical picks,
        // identical slowdowns
        let s = study();
        for src in [
            "server.inflight",
            "server.inflight * 1000 / server.speed + server.queue_len * 50",
            "server.work_left + req.size * 1000 / server.speed",
        ] {
            let compiled = s.evaluate(&s.check(src).unwrap());
            let mut oracle =
                ExprDispatcher::interpreted("oracle", policysmith_dsl::parse(src).unwrap());
            assert_eq!(compiled, s.improvement(&mut oracle), "engines diverged for `{src}`");
        }
    }

    #[test]
    fn improvement_of_rr_is_zero() {
        let s = study();
        let mut rr = policysmith_lbsim::dispatch::RoundRobin::new();
        assert!(s.improvement(&mut rr).abs() < 1e-12);
    }

    #[test]
    fn quick_search_beats_jsq_on_the_flash_crowd() {
        let s = study();
        let jsq = s.baseline_improvement("jsq");
        let mut llm = MockLlm::new(GenConfig::lb_defaults(23));
        let cfg = SearchConfig { rounds: 5, candidates_per_round: 10, ..SearchConfig::quick() };
        let outcome = run_search(&s, &mut llm, &cfg);
        assert!(
            outcome.best.score > jsq.max(0.0),
            "search best {:.4} vs jsq {:.4}",
            outcome.best.score,
            jsq
        );
    }
}
