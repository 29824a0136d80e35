//! The paper's Listing 1 — "Heuristic A", the best CloudPhysics heuristic
//! PolicySmith discovered — embedded as a built-in policy.
//!
//! The listing is pseudo-C; the translation below is faithful with one
//! typed correction: the original line `if (obj_info.last_accessed <
//! ages.percentile(0.75)) score -= 30;` compares a *timestamp* to an *age*
//! (LLM-generated code…). The evident intent — penalize objects older than
//! the 75th-percentile age — is what we encode (`obj.age > ages.p75`).
//! Constants are unchanged.

use crate::psq::PriorityPolicy;

/// Listing 1 in this crate's DSL syntax.
pub const LISTING1_SOURCE: &str = "\
obj.count * 20 \
- obj.age / 300 \
- obj.size / 500 \
+ if(hist.contains, hist.count * 15 + hist.age_at_evict / 150, -40) \
+ if(obj.age > ages.p75, -30, 0) \
+ if(obj.size > sizes.p75, -25, 10) \
+ if(obj.count > counts.p70, 50, -5) \
+ if(obj.age < 1000, 25, 0) \
+ if(obj.count < 3, -15, 0)";

/// Build Heuristic A as a runnable policy.
pub fn paper_heuristic_a() -> PriorityPolicy {
    PriorityPolicy::from_source("PS-A(paper)", LISTING1_SOURCE)
        .expect("Listing 1 translation compiles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, Cache};
    use policysmith_dsl::{check, Mode};
    use policysmith_traces::cloudphysics;

    #[test]
    fn listing1_parses_and_checks() {
        let e = policysmith_dsl::parse(LISTING1_SOURCE).unwrap();
        check(&e, Mode::Cache).unwrap();
        // uses all three Table-1 feature families
        let feats = e.features();
        assert!(feats.iter().any(|f| matches!(f, policysmith_dsl::Feature::HistContains)));
        assert!(feats.iter().any(|f| matches!(f, policysmith_dsl::Feature::AgesPct(_))));
        assert!(feats.iter().any(|f| matches!(f, policysmith_dsl::Feature::ObjSize)));
    }

    #[test]
    fn heuristic_a_runs_clean_on_cloudphysics() {
        // Must simulate without runtime faults. NOTE: it is *not* asserted
        // to beat FIFO here — the listing's constants are tuned to the real
        // CloudPhysics w89 timescales and do not transfer to our synthetic
        // stand-in (EXPERIMENTS.md LST1 discusses this; it is itself a
        // demonstration of the paper's instance-optimality thesis).
        let trace = cloudphysics().trace(89, 30_000);
        let footprint = policysmith_traces::footprint_bytes(&trace);
        let cap = (footprint / 10).max(1);
        let mut cache = Cache::new(cap, paper_heuristic_a());
        let a = cache.run(&trace);
        assert!(cache.policy.first_error().is_none());
        assert_eq!(a.requests, trace.len() as u64);
        let fifo = simulate(&trace, cap, crate::policies::Fifo::new());
        assert!(a.miss_ratio() > 0.0 && fifo.miss_ratio() > 0.0);
    }
}
