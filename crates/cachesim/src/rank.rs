//! Eviction-ranking structures for the priority-template host.
//!
//! The host needs one ordered index over `(score, id)` pairs: rescore the
//! accessed object on every access, pop the exact minimum on eviction.
//! [`HeapRank`] is that structure — a dense slab (object → small slot
//! index, freed slots reused) holding the *current* score, plus a binary
//! min-heap with lazy deletion: rescoring pushes a new heap entry instead
//! of deleting the old one, and [`EvictionRank::peek_min`] discards
//! entries whose `(score, id)` no longer matches the slab. One slab store
//! and one heap push per access, with the exact `(score, id)` eviction
//! order.
//!
//! The [`EvictionRank`] trait is public so that
//! `tests/rank_differential.rs` can drive `HeapRank` and its test-local
//! `BTreeSet` reference with identical op sequences and demand identical
//! minima.

use crate::engine::ObjId;
use crate::util::IdMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An ordered index over `(score, id)` pairs with exact min-order pops.
///
/// The contract all implementations share (and the property tests check):
/// the minimum is the smallest `(score, id)` tuple over *currently set*
/// objects — score first, object id as the tie-break.
pub trait EvictionRank {
    /// Insert `id` or update its score.
    fn set(&mut self, id: ObjId, score: i64);
    /// Current score of `id`, if set.
    fn get(&self, id: ObjId) -> Option<i64>;
    /// Remove `id`; returns whether it was present.
    fn remove(&mut self, id: ObjId) -> bool;
    /// The minimum `(score, id)` pair. `&mut` because lazy implementations
    /// compact stale entries while peeking.
    fn peek_min(&mut self) -> Option<(i64, ObjId)>;
    /// Number of objects currently set.
    fn len(&self) -> usize;
    /// Is the index empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One slab slot. `live` distinguishes freed slots during compaction scans.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: ObjId,
    score: i64,
    live: bool,
}

/// The production ranking: dense slab + lazy-deletion binary heap.
#[derive(Debug, Default)]
pub struct HeapRank {
    /// ObjId → slab slot.
    index: IdMap<ObjId, u32>,
    /// Current scores, contiguous; freed slots are recycled via `free`.
    slab: Vec<Slot>,
    free: Vec<u32>,
    /// Min-heap of every score ever assigned and not yet discarded. Each
    /// entry carries the slab slot it described; an entry is live iff that
    /// slot still holds its `(score, id)` — an array read, not a hash
    /// lookup, on the victim path. The slot is ordered *after* `(score,
    /// id)`, so duplicates of one logical key never reorder evictions.
    heap: BinaryHeap<Reverse<(i64, ObjId, u32)>>,
}

impl HeapRank {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop stale heap entries once they outnumber live ones 2:1 — bounds
    /// heap growth to O(live) amortized without a per-op index update.
    fn maybe_compact(&mut self) {
        if self.heap.len() > 2 * self.index.len() + 64 {
            self.heap = self
                .slab
                .iter()
                .enumerate()
                .filter(|(_, s)| s.live)
                .map(|(ix, s)| Reverse((s.score, s.id, ix as u32)))
                .collect();
        }
    }
}

impl EvictionRank for HeapRank {
    fn set(&mut self, id: ObjId, score: i64) {
        let ix = match self.index.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let ix = *e.get();
                let slot = &mut self.slab[ix as usize];
                if slot.score == score {
                    // the live heap entry for (score, id, ix) is still valid
                    return;
                }
                slot.score = score;
                ix
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let slot = Slot { id, score, live: true };
                let ix = match self.free.pop() {
                    Some(ix) => {
                        self.slab[ix as usize] = slot;
                        ix
                    }
                    None => {
                        self.slab.push(slot);
                        (self.slab.len() - 1) as u32
                    }
                };
                e.insert(ix);
                ix
            }
        };
        self.heap.push(Reverse((score, id, ix)));
        self.maybe_compact();
    }

    fn get(&self, id: ObjId) -> Option<i64> {
        self.index.get(&id).map(|&ix| self.slab[ix as usize].score)
    }

    fn remove(&mut self, id: ObjId) -> bool {
        match self.index.remove(&id) {
            Some(ix) => {
                self.slab[ix as usize].live = false;
                self.free.push(ix);
                true
            }
            None => false,
        }
    }

    fn peek_min(&mut self) -> Option<(i64, ObjId)> {
        while let Some(&Reverse((score, id, ix))) = self.heap.peek() {
            let slot = &self.slab[ix as usize];
            if slot.live && slot.id == id && slot.score == score {
                return Some((score, id));
            }
            self.heap.pop();
        }
        None
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<R: EvictionRank>(r: &mut R) -> Vec<(i64, ObjId)> {
        let mut out = Vec::new();
        while let Some((s, id)) = r.peek_min() {
            out.push((s, id));
            r.remove(id);
        }
        out
    }

    #[test]
    fn min_order_with_ties_matches_reference() {
        // the reference order is the sorted `(score, id)` list
        let mut h = HeapRank::new();
        let mut sorted = Vec::new();
        for (id, score) in [(3u64, 5i64), (1, 5), (2, 4), (9, 4), (7, 6)] {
            h.set(id, score);
            sorted.push((score, id));
            sorted.sort_unstable();
            assert_eq!(h.peek_min(), sorted.first().copied());
        }
        assert_eq!(drain(&mut h), sorted);
    }

    #[test]
    fn rescore_discards_stale_entries() {
        let mut h = HeapRank::new();
        h.set(1, 10);
        h.set(2, 20);
        h.set(1, 30); // stale (10, 1) must not surface
        assert_eq!(h.peek_min(), Some((20, 2)));
        h.set(1, 10); // back to the old value: old entry is valid again
        assert_eq!(h.peek_min(), Some((10, 1)));
        assert_eq!(h.get(1), Some(10));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn remove_then_reinsert_same_score() {
        let mut h = HeapRank::new();
        h.set(1, 7);
        h.set(2, 9);
        assert!(h.remove(1));
        assert_eq!(h.peek_min(), Some((9, 2)));
        h.set(1, 7); // slot recycled, old heap entry may or may not linger
        assert_eq!(h.peek_min(), Some((7, 1)));
        assert!(!h.remove(42));
    }

    #[test]
    fn compaction_bounds_heap_growth() {
        let mut h = HeapRank::new();
        for round in 0..1_000i64 {
            for id in 0..8u64 {
                h.set(id, round * 8 + id as i64);
            }
        }
        assert!(h.heap.len() <= 2 * h.len() + 64, "heap grew to {}", h.heap.len());
        assert_eq!(h.peek_min(), Some((999 * 8, 0)));
    }
}
