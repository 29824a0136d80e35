//! GreedyDual-Size-Frequency (Cherkasova \[15\]).
//!
//! Priority `H(o) = L + freq(o) * cost / size(o)` with uniform cost; `L`
//! (the "inflation clock") is raised to the priority of each evicted
//! object, which ages everything else implicitly. GDSF is the strongest
//! classical baseline in the paper's Figure 2 — the synthesized heuristics
//! are explicitly compared against it — because it is the only classical
//! policy that combines frequency *and* size.

use crate::engine::{CacheView, ObjId, Policy};
use crate::util::{OrderedF64, Ranking};
use policysmith_traces::IdMap;

/// GDSF eviction policy.
#[derive(Debug, Default)]
pub struct Gdsf {
    /// Priorities; min = victim. Ties go to the lower id, so the id is
    /// part of the key.
    ranking: Ranking<(OrderedF64, ObjId)>,
    freq: IdMap<ObjId, u64>,
    /// Inflation clock L.
    clock: f64,
}

impl Gdsf {
    pub fn new() -> Self {
        Self::default()
    }

    fn reprioritize(&mut self, id: ObjId, size: u32) {
        let freq = *self.freq.get(&id).unwrap_or(&1);
        let h = self.clock + freq as f64 / size.max(1) as f64;
        self.ranking.set(id, (OrderedF64::new(h), id));
    }
}

impl Policy for Gdsf {
    fn name(&self) -> &str {
        "GDSF"
    }

    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        *self.freq.entry(id).or_insert(1) += 1;
        let size = view.meta(id).map(|m| m.size).unwrap_or(1);
        self.reprioritize(id, size);
    }

    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        self.ranking.first().expect("GDSF victim from empty cache")
    }

    fn on_evict(&mut self, id: ObjId, _view: &CacheView<'_>) {
        if let Some((h, _)) = self.ranking.remove(id) {
            // The clock only moves forward.
            self.clock = self.clock.max(h.get());
        }
        self.freq.remove(&id);
    }

    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.freq.insert(id, 1);
        let size = view.meta(id).map(|m| m.size).unwrap_or(1);
        self.reprioritize(id, size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cache;
    use policysmith_traces::{OpKind, Request};

    fn req(t: u64, obj: u64, size: u32) -> Request {
        Request { time_us: t, obj, size, op: OpKind::Read }
    }

    #[test]
    fn prefers_evicting_large_cold_objects() {
        let mut c = Cache::new(1_000, Gdsf::new());
        c.request(&req(1, 1, 400)); // large
        c.request(&req(2, 2, 100)); // small
        c.request(&req(3, 3, 100)); // small
        c.request(&req(4, 4, 500)); // forces eviction
                                    // equal freq → large object 1 has the lowest H
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3) && c.contains(4));
    }

    #[test]
    fn frequency_rescues_large_objects() {
        let mut c = Cache::new(1_000, Gdsf::new());
        c.request(&req(1, 1, 400));
        for t in 2..12 {
            c.request(&req(t, 1, 400)); // freq(1) = 11
        }
        c.request(&req(20, 2, 100));
        c.request(&req(21, 3, 100));
        c.request(&req(22, 4, 500)); // must free 100 bytes
                                     // 1 has H = 11/400 ≈ 0.0275 > 2,3's 1/100 = 0.01 → a cold small
                                     // object goes first (2 by id tie-break), the hot large one stays.
        assert!(c.contains(1), "hot large object survives");
        assert!(!c.contains(2));
        assert!(c.contains(3) && c.contains(4));
    }

    #[test]
    fn clock_inflation_ages_old_entries() {
        let mut c = Cache::new(300, Gdsf::new());
        // Object 1: very frequent early on.
        for t in 0..20 {
            c.request(&req(t, 1, 100));
        }
        // Long stream of fresh objects pushes the clock up; eventually the
        // aged object 1 must be evictable even though its freq was high.
        for (t, id) in (100..).zip(2..500u64) {
            c.request(&req(t, id, 100));
            if !c.contains(1) {
                break;
            }
        }
        assert!(!c.contains(1), "inflation must eventually age out stale-hot objects");
    }

    #[test]
    fn ranking_consistent_after_churn() {
        let ids: Vec<u64> = (0..10_000u64).map(|i| (i * 31) % 200).collect();
        let mut c = Cache::new(2_000, Gdsf::new());
        for (i, &id) in ids.iter().enumerate() {
            c.request(&req(i as u64, id, 50 + (id % 7) as u32 * 33));
        }
        assert_eq!(c.policy.ranking.len(), c.num_objects());
        assert_eq!(c.policy.freq.len(), c.num_objects());
    }
}
