//! Differential property test for the eviction ranking: the slab +
//! lazy-deletion heap must be observationally identical to the original
//! `BTreeSet` index — same minima (including `(score, id)` tie-breaks),
//! lengths and scores after every operation of a random op sequence.

use policysmith_cachesim::engine::ObjId;
use policysmith_cachesim::rank::{EvictionRank, HeapRank};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The original `BTreeSet + HashMap` ranking — the differential reference.
#[derive(Debug, Default)]
struct BTreeRank {
    set: BTreeSet<(i64, ObjId)>,
    score: HashMap<ObjId, i64>,
}

impl EvictionRank for BTreeRank {
    fn set(&mut self, id: ObjId, score: i64) {
        if let Some(old) = self.score.insert(id, score) {
            self.set.remove(&(old, id));
        }
        self.set.insert((score, id));
    }

    fn get(&self, id: ObjId) -> Option<i64> {
        self.score.get(&id).copied()
    }

    fn remove(&mut self, id: ObjId) -> bool {
        match self.score.remove(&id) {
            Some(old) => {
                self.set.remove(&(old, id));
                true
            }
            None => false,
        }
    }

    fn peek_min(&mut self) -> Option<(i64, ObjId)> {
        self.set.first().copied()
    }

    fn len(&self) -> usize {
        self.score.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Drive both indexes with one op sequence and demand identical
    /// observable state after every step.
    #[test]
    fn rank_ops_agree_with_reference(
        ops in proptest::collection::vec((0u8..3, 0u64..24, -50i64..50), 1..300),
    ) {
        let mut heap = HeapRank::new();
        let mut btree = BTreeRank::default();
        for (op, id, score) in ops {
            match op {
                0 => {
                    heap.set(id, score);
                    btree.set(id, score);
                }
                1 => {
                    prop_assert_eq!(heap.remove(id), btree.remove(id));
                }
                _ => {
                    // evict-min, the host's victim step
                    if let Some((_, victim)) = btree.peek_min() {
                        prop_assert_eq!(heap.peek_min(), btree.peek_min());
                        heap.remove(victim);
                        btree.remove(victim);
                    }
                }
            }
            prop_assert_eq!(heap.peek_min(), btree.peek_min());
            prop_assert_eq!(heap.len(), btree.len());
            prop_assert_eq!(heap.get(id), btree.get(id));
        }
        // full drain: the complete eviction order must match
        while let Some(min) = btree.peek_min() {
            prop_assert_eq!(heap.peek_min(), Some(min));
            heap.remove(min.1);
            btree.remove(min.1);
        }
        prop_assert!(heap.is_empty());
    }
}
