//! # policysmith-cachesim — the web-cache simulation substrate
//!
//! A from-scratch, libCacheSim-style cache simulator, substituted for the
//! libCacheSim the paper's §4 prototype uses: it evaluates candidate
//! heuristics by replaying block-I/O traces through an event-driven cache,
//! comparing against fourteen baseline eviction algorithms.
//!
//! * [`engine`] — residency + byte accounting + the [`Policy`] trait; one
//!   simulation is a pure function of `(trace, capacity, policy)`. Object
//!   metadata lives in a slab, and callbacks carry the slot of the object
//!   they are about.
//! * [`policies`] — sixteen from-scratch baselines (the paper's fourteen
//!   plus ARC and 2Q).
//! * [`psq`] — the PolicySmith priority-queue **template host**: runs a
//!   synthesized `priority()` expression over the Table-1 feature set.
//! * [`rank`] — the host's eviction-ranking index: a slot-indexed score
//!   table + lazy-deletion heap (the original `BTreeSet` index is the
//!   differential reference in `tests/rank_differential.rs`).
//! * [`features`] — percentile aggregates and eviction history backing the
//!   template.
//! * [`paper_a`] — the paper's Listing 1 embedded as a runnable policy.
//!
//! ```
//! use policysmith_cachesim::{simulate, policies::Lru};
//! use policysmith_traces::{generate, WorkloadParams};
//!
//! let trace = generate("demo", &WorkloadParams::default(), 7, 5_000);
//! let cap = policysmith_traces::footprint_bytes(&trace) / 10;
//! let result = simulate(&trace, cap.max(1), Lru::new());
//! assert!(result.miss_ratio() > 0.0 && result.miss_ratio() <= 1.0);
//! ```

pub mod engine;
pub mod features;
pub mod paper_a;
pub mod policies;
pub mod psq;
pub mod rank;
pub mod util;

pub use engine::{simulate, Cache, CacheView, ObjId, ObjMeta, Policy, SimResult};
pub use paper_a::{paper_heuristic_a, LISTING1_SOURCE};
pub use psq::{lfu_seed, lru_seed, PriorityPolicy};

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        (**self).on_hit(id, view)
    }
    fn on_miss(&mut self, id: ObjId, view: &CacheView<'_>) {
        (**self).on_miss(id, view)
    }
    fn victim(&mut self, view: &CacheView<'_>) -> ObjId {
        (**self).victim(view)
    }
    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        (**self).on_evict(id, view)
    }
    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        (**self).on_insert(id, view)
    }
}
