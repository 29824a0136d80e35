//! The web-caching instantiation (§4).
//!
//! Context = one trace + a cache sized at 10% of its footprint (§4.1.4).
//! The Checker is the full compile-once pipeline — parse → cache-mode
//! check → kbpf lowering → verification (§4.1.3: "most errors surface as
//! build failures") — so the artifact handed to the Evaluator is a
//! verified [`CompiledPolicy`], not an AST. The Evaluator replays the
//! trace through the priority-template host (pure VM execution on the hot
//! path) and scores the **miss-ratio improvement over FIFO** — the exact
//! metric Fig. 2 plots — with runtime faults (division by zero, deferred
//! by the userspace verification policy) scored as a hard failure.

use crate::search::Study;
use policysmith_cachesim::{Cache, PriorityPolicy};
use policysmith_dsl::Mode;
use policysmith_kbpf::CompiledPolicy;
use policysmith_traces::Trace;

/// One caching context: trace + capacity + FIFO reference point.
pub struct CacheStudy {
    trace: Trace,
    capacity: u64,
    fifo_miss_ratio: f64,
}

impl CacheStudy {
    /// Build the study for `trace` at the paper's 10%-of-footprint sizing.
    pub fn new(trace: &Trace) -> Self {
        let capacity = (policysmith_traces::footprint_bytes(trace) / 10).max(1);
        Self::with_capacity(trace, capacity)
    }

    /// Build with an explicit capacity (for capacity-sweep ablations).
    pub fn with_capacity(trace: &Trace, capacity: u64) -> Self {
        let fifo = policysmith_cachesim::simulate(
            trace,
            capacity,
            policysmith_cachesim::policies::Fifo::new(),
        );
        CacheStudy { trace: trace.clone(), capacity, fifo_miss_ratio: fifo.miss_ratio() }
    }

    /// The context's cache capacity, bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// FIFO's miss ratio on this context (the Fig. 2 denominator).
    pub fn fifo_miss_ratio(&self) -> f64 {
        self.fifo_miss_ratio
    }

    /// Miss-ratio improvement of an arbitrary policy over FIFO on this
    /// context — the quantity plotted in Fig. 2.
    pub fn improvement<P: policysmith_cachesim::Policy>(&self, policy: P) -> f64 {
        let r = policysmith_cachesim::simulate(&self.trace, self.capacity, policy);
        (self.fifo_miss_ratio - r.miss_ratio()) / self.fifo_miss_ratio.max(1e-9)
    }
}

impl Study for CacheStudy {
    type Artifact = CompiledPolicy;

    fn mode(&self) -> Mode {
        Mode::Cache
    }

    fn check(&self, source: &str) -> Result<CompiledPolicy, String> {
        CompiledPolicy::from_source(source, Mode::Cache).map_err(|e| e.to_string())
    }

    fn evaluate(&self, policy: &CompiledPolicy) -> f64 {
        let mut cache = Cache::new(self.capacity, PriorityPolicy::new("candidate", policy.clone()));
        let result = cache.run(&self.trace);
        if cache.policy.first_error().is_some() {
            // The candidate crashed in production: rank below everything.
            // Improvement over FIFO is bounded below by 1 − 1/fifo_mr,
            // which dips under any finite sentinel once FIFO's miss ratio
            // is small, so NEG_INFINITY is the only safe crash score.
            return f64::NEG_INFINITY;
        }
        (self.fifo_miss_ratio - result.miss_ratio()) / self.fifo_miss_ratio.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{run_search, SearchConfig};
    use policysmith_gen::{GenConfig, MockLlm};
    use policysmith_traces::cloudphysics;

    fn study() -> CacheStudy {
        CacheStudy::new(&cloudphysics().trace(89, 30_000))
    }

    #[test]
    fn checker_accepts_seeds_and_rejects_faults() {
        let s = study();
        assert!(s.check("obj.last_access").is_ok());
        assert!(s.check("obj.count").is_ok());
        assert!(s.check("obj.count * 1.5").is_err());
        assert!(s.check("cwnd + 1").is_err());
        assert!(s.check("obj.frequency").is_err());
    }

    #[test]
    fn an_oversized_generator_reply_is_a_rejection_not_an_abort() {
        // 80 KB of `+ 1`, checked on the 2 MiB stack spawned threads get
        // (serve's adaptation thread, the search's eval workers): it used
        // to parse, and compiling the 40 000-deep tree overflowed the
        // stack — an abort no `catch_unwind` contains
        let reply = format!("obj.count{}", " + 1".repeat(40_000));
        let verdict = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || study().check(&reply).map(|_| ()))
            .unwrap()
            .join()
            .unwrap();
        assert!(verdict.unwrap_err().contains("nested too deeply"));
    }

    #[test]
    fn seeds_score_sanely() {
        let s = study();
        let lru = s.evaluate(&s.check("obj.last_access").unwrap());
        let lfu = s.evaluate(&s.check("obj.count").unwrap());
        // improvements are relative to FIFO: both seeds must be within
        // sane bounds, and deterministic
        for v in [lru, lfu] {
            assert!((-1.0..=1.0).contains(&v), "{v}");
        }
        assert_eq!(lru, s.evaluate(&s.check("obj.last_access").unwrap()));
    }

    #[test]
    fn runtime_faults_rank_below_every_real_score() {
        let s = study();
        // cache.objects - 1 is zero while exactly one object is resident
        let e = s.check("100 / (cache.objects - 1)").unwrap();
        assert_eq!(s.evaluate(&e), f64::NEG_INFINITY);
    }

    #[test]
    fn compiled_artifact_scores_match_the_interpreter_oracle() {
        // the study-level differential check: `check()` hands back a
        // verified CompiledPolicy, and evaluating it (pure VM execution)
        // must land at exactly the interpreter host's improvement
        let s = study();
        for src in [
            "obj.last_access",
            "obj.count * 20 - obj.age / 300 - obj.size / 500",
            "if(hist.contains, hist.count * 10 + 50, 0) + obj.last_access",
        ] {
            let compiled = s.evaluate(&s.check(src).unwrap());
            let oracle = s.improvement(policysmith_cachesim::PriorityPolicy::interpreted(
                "oracle",
                policysmith_dsl::parse(src).unwrap(),
            ));
            assert_eq!(compiled, oracle, "engines diverged for `{src}`");
        }
    }

    #[test]
    fn quick_search_beats_the_seeds() {
        let s = study();
        let lru = s.evaluate(&s.check("obj.last_access").unwrap());
        let lfu = s.evaluate(&s.check("obj.count").unwrap());
        let mut llm = MockLlm::new(GenConfig::cache_defaults(21));
        let cfg = SearchConfig { rounds: 6, candidates_per_round: 12, ..SearchConfig::quick() };
        let outcome = run_search(&s, &mut llm, &cfg);
        assert!(
            outcome.best.score >= lru.max(lfu),
            "search best {:.4} vs seeds lru {:.4} lfu {:.4}",
            outcome.best.score,
            lru,
            lfu
        );
    }
}
