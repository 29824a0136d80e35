//! LIRS — Low Inter-reference Recency Set (SIGMETRICS '02 \[30\]).
//!
//! Partitions residents into **LIR** (low inter-reference recency, ~99% of
//! capacity) and **HIR** blocks. A recency stack `S` holds LIR blocks,
//! resident HIR blocks, and *non-resident* HIR ghosts; a small queue `Q`
//! holds resident HIR blocks, which are the eviction victims. A HIR block
//! re-referenced while still on the stack has proven low IRR and is
//! promoted to LIR, demoting the stack-bottom LIR block. Classic stack
//! pruning keeps the bottom of `S` LIR.
//!
//! Adaptations for a byte-capacity cache (LIRS is object-count based in the
//! original): the LIR target is 99% of capacity in *bytes*, promotion may
//! demote several LIR blocks to rebalance, and the non-resident ghost
//! population is bounded by `GHOST_FACTOR ×` the resident count.

use crate::engine::{CacheView, ObjId, Policy};
use crate::util::LinkedQueue;
use policysmith_traces::IdMap;
use std::collections::VecDeque;

/// Fraction of capacity reserved for the LIR set.
const LIR_FRAC: f64 = 0.99;
/// Ghost entries allowed per resident object.
const GHOST_FACTOR: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Lir,
    HirResident,
    HirGhost,
}

/// LIRS eviction policy.
pub struct Lirs {
    /// Recency stack; front = most recent. Holds LIR + HIR (incl. ghosts).
    stack: LinkedQueue,
    /// Resident-HIR queue; front = oldest (victim end).
    queue: LinkedQueue,
    status: IdMap<ObjId, Status>,
    lir_bytes: u64,
    /// Insertion-ordered ghost candidates for bounding (may be stale). It
    /// stays a plain FIFO rather than an `EvictionHistory`: a LIRS ghost
    /// lives on the recency stack and leaves it by pruning too, so this
    /// queue is bounded lazily — it is popped only while too many ghosts
    /// remain, and a popped id counts only if it is still a ghost.
    ghost_fifo: VecDeque<ObjId>,
    ghost_count: usize,
}

impl Lirs {
    pub fn new() -> Self {
        Lirs {
            stack: LinkedQueue::new(),
            queue: LinkedQueue::new(),
            status: IdMap::default(),
            lir_bytes: 0,
            ghost_fifo: VecDeque::new(),
            ghost_count: 0,
        }
    }

    fn lir_target(view: &CacheView<'_>) -> u64 {
        ((view.capacity_bytes as f64) * LIR_FRAC) as u64
    }

    /// Remove non-LIR entries from the stack bottom (classic pruning).
    fn prune(&mut self) {
        while let Some(bottom) = self.stack.back() {
            match self.status.get(&bottom) {
                Some(Status::Lir) => break,
                Some(Status::HirGhost) => {
                    self.stack.remove(bottom);
                    self.status.remove(&bottom);
                    self.ghost_count = self.ghost_count.saturating_sub(1);
                }
                Some(Status::HirResident) => {
                    // Resident HIR falls off the stack but stays in Q.
                    self.stack.remove(bottom);
                }
                None => {
                    self.stack.remove(bottom);
                }
            }
        }
    }

    /// Demote the stack-bottom LIR block to resident HIR. Prunes first so
    /// the bottom really is a LIR block (an eviction may have turned the
    /// previous bottom into a ghost since the last prune).
    fn demote_bottom_lir(&mut self, view: &CacheView<'_>) {
        self.prune();
        let Some(bottom) = self.stack.back() else { return };
        debug_assert_eq!(self.status.get(&bottom), Some(&Status::Lir));
        let size = view.meta(bottom).map(|m| m.size as u64).unwrap_or(0);
        self.status.insert(bottom, Status::HirResident);
        self.lir_bytes = self.lir_bytes.saturating_sub(size);
        self.stack.remove(bottom);
        self.queue.push_back(bottom);
        self.prune();
    }

    /// Rebalance after the LIR set grew past its target.
    fn rebalance(&mut self, view: &CacheView<'_>) {
        let target = Self::lir_target(view);
        // Keep at least one LIR block.
        while self.lir_bytes > target && self.count_is_multiple_lir() {
            self.demote_bottom_lir(view);
        }
    }

    fn count_is_multiple_lir(&self) -> bool {
        // Cheap check: stack bottom is LIR (post-prune invariant) and there
        // is at least one more LIR above it iff lir_bytes spans >1 block.
        // We approximate by requiring a non-empty stack.
        !self.stack.is_empty()
    }

    fn bound_ghosts(&mut self) {
        let limit = GHOST_FACTOR * (self.status.len() - self.ghost_count).max(16);
        while self.ghost_count > limit {
            let Some(candidate) = self.ghost_fifo.pop_front() else { break };
            if self.status.get(&candidate) == Some(&Status::HirGhost) {
                self.stack.remove(candidate);
                self.status.remove(&candidate);
                self.ghost_count -= 1;
            }
        }
    }

    /// Move (or insert) `id` to the stack top.
    fn stack_to_top(&mut self, id: ObjId) {
        if self.stack.contains(id) {
            self.stack.move_to_front(id);
        } else {
            self.stack.push_front(id);
        }
    }
}

impl Default for Lirs {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for Lirs {
    fn name(&self) -> &str {
        "LIRS"
    }

    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        match self.status.get(&id).copied() {
            Some(Status::Lir) => {
                let was_bottom = self.stack.back() == Some(id);
                self.stack_to_top(id);
                if was_bottom {
                    self.prune();
                }
            }
            Some(Status::HirResident) => {
                if self.stack.contains(id) {
                    // Proven low IRR: promote to LIR.
                    let size = view.meta(id).map(|m| m.size as u64).unwrap_or(0);
                    self.status.insert(id, Status::Lir);
                    self.lir_bytes += size;
                    self.queue.remove(id);
                    self.stack.move_to_front(id);
                    self.rebalance(view);
                } else {
                    // Recency too long to judge: stay HIR, refresh both
                    // structures.
                    self.stack_to_top(id);
                    self.queue.move_to_back(id);
                }
            }
            _ => {
                // Defensive: a hit must be on a resident block.
                debug_assert!(false, "LIRS hit on non-resident {id}");
            }
        }
    }

    fn on_miss(&mut self, _id: ObjId, _view: &CacheView<'_>) {}

    fn victim(&mut self, view: &CacheView<'_>) -> ObjId {
        // Scrub stale queue entries (belt-and-suspenders: the engine is
        // the residency oracle, and the victim contract is hard).
        while let Some(front) = self.queue.front() {
            if view.meta(front).is_some() {
                return front;
            }
            self.queue.remove(front);
            if !self.stack.contains(front) {
                self.status.remove(&front);
            }
        }
        // No resident HIR: demote the coldest LIR and evict it.
        self.demote_bottom_lir(view);
        let candidate = self.queue.front().expect("LIRS victim from empty cache");
        debug_assert!(view.meta(candidate).is_some());
        candidate
    }

    fn on_evict(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.remove(id);
        if self.stack.contains(id) {
            // Stays on the stack as a ghost: its next reference (if soon)
            // proves low IRR.
            self.status.insert(id, Status::HirGhost);
            self.ghost_count += 1;
            self.ghost_fifo.push_back(id);
            self.bound_ghosts();
        } else {
            self.status.remove(&id);
        }
    }

    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        let size = view.meta(id).map(|m| m.size as u64).unwrap_or(0);
        match self.status.get(&id).copied() {
            Some(Status::HirGhost) => {
                // Ghost hit: the block's reuse distance fits the stack →
                // promote straight to LIR.
                self.ghost_count = self.ghost_count.saturating_sub(1);
                self.status.insert(id, Status::Lir);
                self.lir_bytes += size;
                self.stack.move_to_front(id);
                self.rebalance(view);
            }
            _ => {
                if self.lir_bytes + size <= Self::lir_target(view) {
                    // Cold start: LIR set not yet full.
                    self.status.insert(id, Status::Lir);
                    self.lir_bytes += size;
                    self.stack_to_top(id);
                } else {
                    self.status.insert(id, Status::HirResident);
                    self.stack_to_top(id);
                    self.queue.push_back(id);
                }
            }
        }
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

    fn run_ids<P: Policy>(policy: P, ids: &[u64], cap: u64) -> Cache<P> {
        let mut c = Cache::new(cap, policy);
        for (i, &id) in ids.iter().enumerate() {
            c.request(&req(i as u64, id));
        }
        c
    }

    #[test]
    fn basic_fill_and_evict() {
        let c = run_ids(Lirs::new(), &[1, 2, 3, 4, 5, 6], 400);
        assert_eq!(c.num_objects(), 4);
        assert!(c.used_bytes() <= 400);
    }

    #[test]
    fn stack_invariant_bottom_is_lir() {
        let ids: Vec<u64> = (0..3_000u64).map(|i| (i * 13) % 60).collect();
        let c = run_ids(Lirs::new(), &ids, 1_000);
        if let Some(bottom) = c.policy.stack.back() {
            assert_eq!(c.policy.status.get(&bottom), Some(&Status::Lir));
        }
    }

    #[test]
    fn ghost_promotion_gives_loops_a_chance() {
        // A loop slightly larger than the cache devastates LRU (0% hits in
        // steady state) but LIRS keeps a LIR core resident.
        let mut ids = Vec::new();
        for _ in 0..60 {
            for x in 0..12u64 {
                ids.push(x);
            }
        }
        let cap = 1_000; // 10 of the 12 loop objects fit
        let lirs_hits = run_ids(Lirs::new(), &ids, cap).result().hits;
        let lru_hits = run_ids(Lru::new(), &ids, cap).result().hits;
        assert!(lirs_hits > lru_hits, "LIRS ({lirs_hits}) should beat LRU ({lru_hits}) on loops");
    }

    #[test]
    fn hot_objects_stay_lir() {
        let mut ids = Vec::new();
        for cold in 1_000u64..1_500 {
            ids.push(1);
            ids.push(2);
            ids.push(cold);
        }
        let c = run_ids(Lirs::new(), &ids, 800);
        assert!(c.contains(1) && c.contains(2));
        assert_eq!(c.policy.status.get(&1), Some(&Status::Lir));
        assert_eq!(c.policy.status.get(&2), Some(&Status::Lir));
    }

    #[test]
    fn ghost_population_bounded() {
        let ids: Vec<u64> = (0..50_000u64).collect(); // pure scan: all ghosts
        let c = run_ids(Lirs::new(), &ids, 2_000);
        let residents = c.num_objects();
        assert!(
            c.policy.ghost_count <= GHOST_FACTOR * residents.max(16) + 1,
            "ghosts {} vs residents {}",
            c.policy.ghost_count,
            residents
        );
    }

    #[test]
    fn bookkeeping_consistent_under_churn() {
        let ids: Vec<u64> = (0..20_000u64).map(|i| (i * 2654435761) % 400).collect();
        let c = run_ids(Lirs::new(), &ids, 3_000);
        // every queue entry is a resident HIR
        for id in c.policy.queue.iter() {
            assert_eq!(c.policy.status.get(&id), Some(&Status::HirResident));
            assert!(c.contains(id));
        }
        // every LIR is resident
        let lir_count = c.policy.status.iter().filter(|(_, s)| **s == Status::Lir).count();
        assert!(lir_count <= c.num_objects());
    }
}
