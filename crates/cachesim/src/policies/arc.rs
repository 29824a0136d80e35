//! ARC — Adaptive Replacement Cache (FAST '03 \[36\]).
//!
//! Two resident LRU lists — `T1` (seen once recently) and `T2` (seen at
//! least twice) — shadowed by ghost lists `B1`/`B2`. The adaptation target
//! `p` (bytes granted to `T1`) grows on `B1` ghost hits (recency helping)
//! and shrinks on `B2` ghost hits (frequency helping), so ARC continuously
//! self-tunes between LRU-like and LFU-like behaviour — the §2 example of
//! a heuristic that "balances new and old objects".
//!
//! Byte-capacity adaptation of the original unit-size algorithm: `p` and
//! all list budgets are in bytes, and ghost lists are bounded to capacity
//! worth of bytes each.

use crate::engine::{CacheView, ObjId, Policy};
use crate::features::SizedGhosts;
use crate::util::LinkedQueue;

/// ARC eviction policy.
#[derive(Debug, Default)]
pub struct Arc {
    t1: LinkedQueue, // front = MRU
    t2: LinkedQueue, // front = MRU
    t1_bytes: u64,
    b1: SizedGhosts,
    b2: SizedGhosts,
    /// Adaptation target for T1, in bytes.
    p: u64,
    /// Where the pending insertion should land (decided in `on_miss`).
    insert_to_t2: bool,
}

impl Arc {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for Arc {
    fn name(&self) -> &str {
        "ARC"
    }

    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        if self.t1.remove(id) {
            // Second recent access: promote to frequency list.
            let size = view.meta(id).map(|m| m.size as u64).unwrap_or(0);
            self.t1_bytes -= size;
            self.t2.push_front(id);
        } else {
            self.t2.move_to_front(id);
        }
    }

    fn on_miss(&mut self, id: ObjId, view: &CacheView<'_>) {
        let c = view.capacity_bytes;
        let size = 1.max(c / 100); // adaptation step ~1% of capacity
        if self.b1.take(id) {
            // Recency ghost hit: grow T1's share.
            self.p = (self.p + size).min(c);
            self.insert_to_t2 = true;
        } else if self.b2.take(id) {
            // Frequency ghost hit: shrink T1's share.
            self.p = self.p.saturating_sub(size);
            self.insert_to_t2 = true;
        } else {
            self.insert_to_t2 = false;
        }
    }

    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        // REPLACE: evict from T1 if it exceeds its target p, else from T2.
        let from_t1 = !self.t1.is_empty() && (self.t1_bytes > self.p || self.t2.is_empty());
        if from_t1 {
            self.t1.back().expect("T1 victim")
        } else if let Some(b) = self.t2.back() {
            b
        } else {
            self.t1.back().expect("ARC victim from empty cache")
        }
    }

    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        let size = view.meta(id).map(|m| m.size).unwrap_or(0);
        let limit = view.capacity_bytes;
        if self.t1.remove(id) {
            self.t1_bytes -= size as u64;
            self.b1.push(id, size, limit);
        } else if self.t2.remove(id) {
            self.b2.push(id, size, limit);
        }
    }

    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        let size = view.meta(id).map(|m| m.size as u64).unwrap_or(0);
        if self.insert_to_t2 {
            self.t2.push_front(id);
        } else {
            self.t1.push_front(id);
            self.t1_bytes += size;
        }
        self.insert_to_t2 = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cache;
    use crate::policies::basic::Lru;
    use policysmith_traces::{OpKind, Request};

    fn req(t: u64, obj: u64) -> Request {
        Request { time_us: t, obj, size: 100, op: OpKind::Read }
    }

    fn run<P: Policy>(policy: P, ids: &[u64], cap: u64) -> Cache<P> {
        let mut c = Cache::new(cap, policy);
        for (i, &id) in ids.iter().enumerate() {
            c.request(&req(i as u64, id));
        }
        c
    }

    #[test]
    fn second_access_promotes_to_t2() {
        let mut c = Cache::new(1_000, Arc::new());
        c.request(&req(1, 1));
        assert!(c.policy.t1.contains(1) && !c.policy.t2.contains(1));
        c.request(&req(2, 1));
        assert!(c.policy.t2.contains(1) && !c.policy.t1.contains(1));
    }

    #[test]
    fn ghost_hit_adapts_p() {
        let mut c = Cache::new(1_000, Arc::new());
        let mut t = 0;
        let mut go = |c: &mut Cache<Arc>, id: u64| {
            t += 1;
            c.request(&req(t, id));
        };
        // Evict some T1 objects into B1 via a scan.
        for id in 0..25 {
            go(&mut c, id);
        }
        let p_before = c.policy.p;
        // Ghost hit on an object still remembered by B1 raises p.
        let g = (0..25)
            .find(|&id| c.policy.b1.contains(id))
            .expect("B1 must remember a recent eviction");
        go(&mut c, g);
        assert!(c.policy.p > p_before, "B1 hit must grow p");
        assert!(c.policy.t2.contains(g) && !c.policy.t1.contains(g));
    }

    #[test]
    fn frequency_ghost_shrinks_p() {
        let mut c = Cache::new(1_000, Arc::new());
        let mut t = 0;
        let mut go = |c: &mut Cache<Arc>, id: u64| {
            t += 1;
            c.request(&req(t, id));
        };
        // Build T2 entries then evict them into B2.
        for id in 0..8 {
            go(&mut c, id);
            go(&mut c, id); // promote to T2
        }
        // grow p so T1 is preferred for eviction... first raise p via B1:
        for id in 100..130 {
            go(&mut c, id);
        }
        let g1 = (100..130)
            .find(|&id| c.policy.b1.contains(id))
            .expect("B1 must remember a recent T1 eviction");
        go(&mut c, g1); // b1 ghost hit, p grows
        let p_grown = c.policy.p;
        assert!(p_grown > 0);
        // Now force T2 evictions (p large → T1 kept) and revisit: B2 hit.
        for id in 200..240 {
            go(&mut c, id);
        }
        // find an early-T2 object that has been evicted
        let ghost = (0..8).find(|id| !c.contains(*id));
        if let Some(g) = ghost {
            let before = c.policy.p;
            go(&mut c, g);
            assert!(c.policy.p <= before, "B2 hit must not grow p");
        }
    }

    #[test]
    fn beats_lru_on_mixed_workload() {
        // Mixed hot-set + scan workload: ARC's adaptation should at least
        // match LRU.
        let mut ids = Vec::new();
        let mut scan = 10_000u64;
        for _ in 0..400 {
            for p in 0..5 {
                ids.push(p);
            }
            for _ in 0..4 {
                ids.push(scan);
                scan += 1;
            }
        }
        let cap = 800;
        let arc = run(Arc::new(), &ids, cap).result().hits;
        let lru = run(Lru::new(), &ids, cap).result().hits;
        assert!(arc >= lru, "ARC ({arc}) should be ≥ LRU ({lru})");
    }

    #[test]
    fn accounting_consistent() {
        let ids: Vec<u64> = (0..15_000u64).map(|i| (i * 37) % 250).collect();
        let c = run(Arc::new(), &ids, 2_000);
        assert_eq!(c.policy.t1.len() + c.policy.t2.len(), c.num_objects());
        let t1_bytes: u64 = c.policy.t1.iter().map(|_| 100u64).sum();
        assert_eq!(c.policy.t1_bytes, t1_bytes);
    }
}
