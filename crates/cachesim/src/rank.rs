//! Eviction-ranking structures for the priority-template host.
//!
//! The host needs one ordered index over `(score, id)` pairs: rescore the
//! accessed object on every access, pop the exact minimum on eviction.
//! [`HeapRank`] is that structure — a dense table of *current* scores
//! indexed by the engine's object slot ([`CacheView::subject`]), plus a
//! binary min-heap with lazy deletion: rescoring pushes a new heap entry
//! instead of deleting the old one, and [`EvictionRank::peek_min`]
//! discards entries whose `(score, id)` no longer matches the table. One
//! array store and one heap push per access — no hashing anywhere — with
//! the exact `(score, id)` eviction order.
//!
//! Slots are the engine's to hand out, and it reuses them: an entry pushed
//! for one tenant of a slot can still be in the heap when the next tenant
//! moves in. The liveness test therefore compares the entry's whole key
//! with the table, id included, so a stale entry never speaks for the new
//! tenant (and an entry that matches is correct no matter who pushed it).
//!
//! The [`EvictionRank`] trait is public so that
//! `tests/rank_differential.rs` can drive `HeapRank` and its test-local
//! `BTreeSet` reference with identical op sequences and demand identical
//! minima.
//!
//! [`CacheView::subject`]: crate::engine::CacheView::subject

use crate::engine::ObjId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An ordered index over `(score, id)` pairs with exact min-order pops,
/// addressed by the engine slot of each object.
///
/// The contract all implementations share (and the property tests check):
/// the minimum is the smallest `(score, id)` tuple over *currently set*
/// slots — score first, object id as the tie-break. Callers keep the
/// engine's discipline: one id per slot at a time, `remove` before the
/// slot is set for another id.
pub trait EvictionRank {
    /// Set `slot` (holding object `id`) or update its score.
    fn set(&mut self, slot: u32, id: ObjId, score: i64);
    /// Current score of `slot`, if set.
    fn get(&self, slot: u32) -> Option<i64>;
    /// Unset `slot`; returns whether it was set.
    fn remove(&mut self, slot: u32) -> bool;
    /// The minimum `(score, id)` pair. `&mut` because lazy implementations
    /// compact stale entries while peeking.
    fn peek_min(&mut self) -> Option<(i64, ObjId)>;
    /// Number of slots currently set.
    fn len(&self) -> usize;
    /// Is the index empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `(score, id)` packed so that one unsigned comparison orders by score,
/// then id: the score with its sign bit flipped in the high half.
fn pack(score: i64, id: ObjId) -> u128 {
    (((score as u64) ^ (1 << 63)) as u128) << 64 | id as u128
}

fn unpack(key: u128) -> (i64, ObjId) {
    ((((key >> 64) as u64) ^ (1 << 63)) as i64, key as u64)
}

/// One heap entry: the key a slot had when it was pushed. Ordered by key
/// alone and *reversed*, so `BinaryHeap`'s maximum is the smallest key;
/// entries with equal keys are duplicates of one logical pair and never
/// reorder evictions.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u128,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The production ranking: slot-indexed score table + lazy-deletion heap.
#[derive(Debug, Default)]
pub struct HeapRank {
    /// Current key by engine slot (`None` = unset); grows to the largest
    /// slot seen.
    keys: Vec<Option<u128>>,
    live: usize,
    /// Every key ever assigned and not yet discarded, smallest on top. An
    /// entry is live iff its slot still holds exactly its key — an array
    /// read, not a hash lookup, on the victim path.
    heap: BinaryHeap<Entry>,
}

impl HeapRank {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop stale heap entries once they outnumber live ones 2:1 — bounds
    /// heap growth to O(live) amortized without a per-op index update.
    fn maybe_compact(&mut self) {
        if self.heap.len() > 2 * self.live + 64 {
            self.heap = self
                .keys
                .iter()
                .enumerate()
                .filter_map(|(slot, key)| key.map(|key| Entry { key, slot: slot as u32 }))
                .collect();
        }
    }
}

impl EvictionRank for HeapRank {
    fn set(&mut self, slot: u32, id: ObjId, score: i64) {
        let key = pack(score, id);
        let ix = slot as usize;
        if ix >= self.keys.len() {
            self.keys.resize(ix + 1, None);
        }
        match self.keys[ix].replace(key) {
            // the live heap entry for this key is still valid
            Some(old) if old == key => return,
            Some(_) => {}
            None => self.live += 1,
        }
        self.heap.push(Entry { key, slot });
        self.maybe_compact();
    }

    fn get(&self, slot: u32) -> Option<i64> {
        let key = (*self.keys.get(slot as usize)?)?;
        Some(unpack(key).0)
    }

    fn remove(&mut self, slot: u32) -> bool {
        let was_set = self.keys.get_mut(slot as usize).and_then(Option::take).is_some();
        self.live -= was_set as usize;
        was_set
    }

    fn peek_min(&mut self) -> Option<(i64, ObjId)> {
        while let Some(&Entry { key, slot }) = self.heap.peek() {
            if self.keys[slot as usize] == Some(key) {
                return Some(unpack(key));
            }
            self.heap.pop();
        }
        None
    }

    fn len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pop everything; each object sits in the slot numbered like its id.
    fn drain(r: &mut HeapRank) -> Vec<(i64, ObjId)> {
        let mut out = Vec::new();
        while let Some((s, id)) = r.peek_min() {
            out.push((s, id));
            r.remove(id as u32);
        }
        out
    }

    #[test]
    fn packed_keys_order_like_the_tuple() {
        let pairs = [(i64::MIN, 0), (i64::MIN, u64::MAX), (-1, 7), (0, 0), (0, 1), (i64::MAX, 3)];
        for w in pairs.windows(2) {
            assert!(pack(w[0].0, w[0].1) < pack(w[1].0, w[1].1), "{w:?}");
        }
        for (score, id) in pairs {
            assert_eq!(unpack(pack(score, id)), (score, id));
        }
    }

    #[test]
    fn min_order_with_ties_matches_reference() {
        // the reference order is the sorted `(score, id)` list
        let mut h = HeapRank::new();
        let mut sorted = Vec::new();
        for (id, score) in [(3u64, 5i64), (1, 5), (2, 4), (9, 4), (7, 6)] {
            h.set(id as u32, id, score);
            sorted.push((score, id));
            sorted.sort_unstable();
            assert_eq!(h.peek_min(), sorted.first().copied());
        }
        assert_eq!(drain(&mut h), sorted);
    }

    #[test]
    fn rescore_discards_stale_entries() {
        let mut h = HeapRank::new();
        h.set(1, 1, 10);
        h.set(2, 2, 20);
        h.set(1, 1, 30); // stale (10, 1) must not surface
        assert_eq!(h.peek_min(), Some((20, 2)));
        h.set(1, 1, 10); // back to the old value: old entry is valid again
        assert_eq!(h.peek_min(), Some((10, 1)));
        assert_eq!(h.get(1), Some(10));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn remove_then_reinsert_same_score() {
        let mut h = HeapRank::new();
        h.set(1, 1, 7);
        h.set(2, 2, 9);
        assert!(h.remove(1));
        assert_eq!(h.get(1), None);
        assert_eq!(h.peek_min(), Some((9, 2)));
        h.set(1, 1, 7); // same slot, id and score: the old entry may linger
        assert_eq!(h.peek_min(), Some((7, 1)));
        assert!(!h.remove(42));
    }

    #[test]
    fn a_recycled_slot_never_speaks_for_its_last_tenant() {
        let mut h = HeapRank::new();
        h.set(0, 100, 1); // (1, 100) in slot 0
        h.set(1, 200, 5);
        assert!(h.remove(0));
        h.set(0, 300, 9); // slot 0 recycled by another id, at a worse score
        assert_eq!(h.peek_min(), Some((5, 200)), "stale (1, 100) resurfaced");
        h.remove(1);
        assert_eq!(h.peek_min(), Some((9, 300)));
        h.remove(0);
        assert_eq!(h.peek_min(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn compaction_bounds_heap_growth() {
        let mut h = HeapRank::new();
        for round in 0..1_000i64 {
            for id in 0..8u64 {
                h.set(id as u32, id, round * 8 + id as i64);
            }
        }
        assert!(h.heap.len() <= 2 * h.len() + 64, "heap grew to {}", h.heap.len());
        assert_eq!(h.peek_min(), Some((999 * 8, 0)));
    }
}
