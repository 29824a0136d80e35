//! The deterministic open-loop load generator.
//!
//! "Open-loop" in the classical sense: every request stream is generated
//! up front with its own arrival timestamps, independent of how fast the
//! runtime serves — a slow policy builds queues, it does not throttle the
//! offered load. Everything is a pure function of `(spec, seed, worker)`,
//! so a serve run is replayable decision for decision.
//!
//! Serving engines are thread-confined (each worker owns its fleet or its
//! cache), so the generator **shards by reseeding**, not by splitting:
//! worker 0 replays the spec's exact stream (which is what makes the
//! serve-vs-batch differential test possible), workers 1..n replay
//! statistically identical streams from seeds mixed with the worker index.
//!
//! Two built-in sources, matching the runtime's two decision kinds:
//!
//! * the seven lb scenario presets (plus any custom [`Scenario`] phase
//!   sequence — a multi-phase list is the drift-injection mechanism);
//! * cache trace replay via `crates/traces` (the synthetic CloudPhysics /
//!   MSR datasets).

use policysmith_lbsim::{scenario, Scenario};
use policysmith_traces::datasets::{CLOUDPHYSICS, MSR};
use policysmith_traces::{DatasetSpec, Trace};

/// splitmix64-style seed mixer: derive an independent stream seed from a
/// base seed and a salt (worker index, repetition index). Public so
/// experiment binaries deriving their own repetition seeds use the same
/// well-mixed generator instead of hand-rolling a weaker one.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The built-in drift injection: the slow-node-onset phase pair (healthy
/// fleet, then the same tier with server 5 degraded to speed 1).
pub fn lb_drift_phases() -> Vec<Scenario> {
    scenario::slow_node_onset_phases()
}

/// Shard a phase sequence across `workers` thread-confined engines:
/// worker 0 gets the phases verbatim, worker `w` gets the same scenarios
/// reseeded with `mix(seed, w)` — same fleets, same workload laws, fresh
/// arrival draws.
pub fn lb_shards(phases: &[Scenario], workers: usize) -> Vec<Vec<Scenario>> {
    assert!(!phases.is_empty(), "need at least one phase");
    (0..workers)
        .map(|w| {
            phases
                .iter()
                .map(
                    |p| {
                        if w == 0 {
                            p.clone()
                        } else {
                            p.clone().with_seed(mix(p.seed, w as u64))
                        }
                    },
                )
                .collect()
        })
        .collect()
}

/// A cache replay source: dataset + trace index + length.
#[derive(Debug, Clone, Copy)]
pub struct CacheReplay {
    ds: DatasetSpec,
    index: usize,
    n: usize,
}

impl CacheReplay {
    /// Replay trace `index` of a dataset by name (`"cloudphysics"` or
    /// `"msr"`), truncated/extended to `n` requests.
    pub fn new(dataset: &str, index: usize, n: usize) -> Option<CacheReplay> {
        let ds = match dataset {
            "cloudphysics" => CLOUDPHYSICS,
            "msr" => MSR,
            _ => return None,
        };
        (index < ds.count).then_some(CacheReplay { ds, index, n })
    }

    /// The trace worker 0 replays (the batch-equivalence reference).
    pub fn trace(&self) -> Trace {
        self.ds.trace(self.index, self.n)
    }

    /// Per-worker replica traces. All workers replay the *same* trace:
    /// a trace is a recorded context, and the runtime's unit of scale is
    /// "how many replicas of this cache tier do we serve" — so each worker
    /// is one thread-confined replica of the tier under the same workload.
    pub fn shards(&self, workers: usize) -> Vec<Trace> {
        let t = self.trace();
        (0..workers).map(|_| t.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_deterministic_and_worker0_is_verbatim() {
        let phases = lb_drift_phases();
        let a = lb_shards(&phases, 4);
        let b = lb_shards(&phases, 4);
        assert_eq!(a, b, "sharding must be deterministic");
        assert_eq!(a[0], phases, "worker 0 replays the spec exactly");
        // other workers: same fleet + workload, different seeds ⇒
        // different arrival streams
        for shard in &a[1..] {
            assert_eq!(shard[0].servers, phases[0].servers);
            assert_eq!(shard[0].workload, phases[0].workload);
            assert_ne!(shard[0].seed, phases[0].seed);
            assert_ne!(shard[0].requests(), phases[0].requests());
        }
        // distinct workers draw distinct seeds
        assert_ne!(a[1][0].seed, a[2][0].seed);
    }

    #[test]
    fn cache_replay_resolves_datasets() {
        let r = CacheReplay::new("cloudphysics", 10, 2_000).unwrap();
        let t = r.trace();
        assert_eq!(t.requests.len(), 2_000);
        assert!(t.name.contains("w10"));
        let shards = r.shards(3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[1], t, "replicas replay the same recorded context");
        assert!(CacheReplay::new("msr", 0, 100).is_some());
        assert!(CacheReplay::new("msr", 99, 100).is_none(), "index out of range");
        assert!(CacheReplay::new("unknown", 0, 100).is_none());
    }
}
