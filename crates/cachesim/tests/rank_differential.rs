//! Differential property test for the eviction ranking: the slot-indexed
//! table + lazy-deletion heap must be observationally identical to the
//! original `BTreeSet` index — same minima (including `(score, id)`
//! tie-breaks), lengths and scores after every operation of a random op
//! sequence.
//!
//! Slots are handed out the way the engine does it (most recently freed
//! first), so the scripts keep recycling them: a slot freed by one id is
//! taken by another, or by the same id at the same score, while entries
//! pushed for its earlier tenants are still in the heap. None of them may
//! resurface.

use policysmith_cachesim::engine::ObjId;
use policysmith_cachesim::rank::{EvictionRank, HeapRank};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The original `BTreeSet` ranking — the differential reference. It
/// orders by `(score, id)` and needs the slot only to find an entry again.
#[derive(Debug, Default)]
struct BTreeRank {
    set: BTreeSet<(i64, ObjId)>,
    by_slot: HashMap<u32, (i64, ObjId)>,
}

impl EvictionRank for BTreeRank {
    fn set(&mut self, slot: u32, id: ObjId, score: i64) {
        if let Some(old) = self.by_slot.insert(slot, (score, id)) {
            self.set.remove(&old);
        }
        self.set.insert((score, id));
    }

    fn get(&self, slot: u32) -> Option<i64> {
        self.by_slot.get(&slot).map(|&(score, _)| score)
    }

    fn remove(&mut self, slot: u32) -> bool {
        match self.by_slot.remove(&slot) {
            Some(old) => {
                self.set.remove(&old);
                true
            }
            None => false,
        }
    }

    fn peek_min(&mut self) -> Option<(i64, ObjId)> {
        self.set.first().copied()
    }

    fn len(&self) -> usize {
        self.by_slot.len()
    }
}

/// The engine's side of the contract: one slot per resident id, freed
/// slots reused last-in first-out.
#[derive(Default)]
struct Slots {
    of: HashMap<ObjId, u32>,
    free: Vec<u32>,
    issued: u32,
}

impl Slots {
    fn get_or_assign(&mut self, id: ObjId) -> u32 {
        if let Some(&slot) = self.of.get(&id) {
            return slot;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.issued += 1;
            self.issued - 1
        });
        self.of.insert(id, slot);
        slot
    }

    fn release(&mut self, id: ObjId) -> Option<u32> {
        let slot = self.of.remove(&id)?;
        self.free.push(slot);
        Some(slot)
    }
}

/// Both indexes and the slot allocator, driven in lockstep.
#[derive(Default)]
struct Pair {
    heap: HeapRank,
    btree: BTreeRank,
    slots: Slots,
}

impl Pair {
    fn set(&mut self, id: ObjId, score: i64) {
        let slot = self.slots.get_or_assign(id);
        self.heap.set(slot, id, score);
        self.btree.set(slot, id, score);
    }

    fn remove(&mut self, id: ObjId) -> Result<(), TestCaseError> {
        if let Some(slot) = self.slots.release(id) {
            prop_assert!(self.heap.remove(slot));
            prop_assert!(self.btree.remove(slot));
        }
        Ok(())
    }

    fn agree(&mut self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.heap.peek_min(), self.btree.peek_min());
        prop_assert_eq!(self.heap.len(), self.btree.len());
        for slot in 0..self.slots.issued {
            prop_assert_eq!(self.heap.get(slot), self.btree.get(slot), "slot {}", slot);
        }
        Ok(())
    }

    /// Full drain: the complete eviction order must match.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        while let Some(min) = self.btree.peek_min() {
            prop_assert_eq!(self.heap.peek_min(), Some(min));
            self.remove(min.1)?;
        }
        prop_assert!(self.heap.is_empty());
        prop_assert_eq!(self.heap.peek_min(), None);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Drive both indexes with one op sequence and demand identical
    /// observable state after every step. Few ids and few scores, so slots
    /// change hands and `(score, id)` pairs repeat constantly.
    #[test]
    fn rank_ops_agree_with_reference(
        ops in proptest::collection::vec((0u8..4, 0u64..24, -6i64..6), 1..400),
    ) {
        let mut pair = Pair::default();
        for (op, id, score) in ops {
            match op {
                0 | 1 => pair.set(id, score),
                2 => pair.remove(id)?,
                _ => {
                    // evict-min and insert, the host's miss path: the new
                    // id moves into the slot the victim just left
                    if let Some((_, victim)) = pair.btree.peek_min() {
                        prop_assert_eq!(pair.heap.peek_min(), pair.btree.peek_min());
                        pair.remove(victim)?;
                        pair.set(id, score);
                    }
                }
            }
            pair.agree()?;
        }
        pair.drain()?;
    }

    /// The recycling hazards, scripted: whatever the surrounding
    /// population, a slot's earlier tenants stay silent.
    #[test]
    fn recycled_slots_never_resurface_stale_entries(
        others in proptest::collection::vec((100u64..120, -6i64..6), 0..20),
        low in -20i64..-10,
    ) {
        let mut pair = Pair::default();
        for &(id, score) in &others {
            pair.set(id, score);
        }
        // id 1 takes a slot at the lowest score around, then leaves
        pair.set(1, low);
        pair.agree()?;
        let slot = pair.slots.of[&1];
        pair.remove(1)?;
        pair.agree()?;
        // another id recycles the slot at a worse score: (low, 1) is stale
        pair.set(2, 50);
        prop_assert_eq!(pair.slots.of[&2], slot);
        pair.agree()?;
        pair.remove(2)?;
        // the same id comes back to the same slot at the same score: its
        // old entry is valid again, and once removed both copies are stale
        pair.set(1, low);
        prop_assert_eq!(pair.slots.of[&1], slot);
        pair.agree()?;
        pair.remove(1)?;
        pair.agree()?;
        // … and a third tenant at that very score is its own pair
        pair.set(3, low);
        prop_assert_eq!(pair.slots.of[&3], slot);
        pair.agree()?;
        pair.drain()?;
    }
}
