//! The four classical baselines: FIFO, LRU, MRU, LFU.
//!
//! These are both paper baselines (§4.2.2) and the seeds/foils of the
//! search: the paper's Generator is seeded with one-line LRU and LFU
//! priority functions, and every Figure-2 number is reported as improvement
//! over FIFO.

use crate::engine::{CacheView, ObjId, Policy};
use crate::util::{LinkedQueue, Ranking};

/// First-in first-out. Queue orientation: front = oldest.
#[derive(Debug, Default)]
pub struct Fifo {
    queue: LinkedQueue,
}

impl Fifo {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for Fifo {
    fn name(&self) -> &str {
        "FIFO"
    }
    fn on_hit(&mut self, _id: ObjId, _view: &CacheView<'_>) {}
    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        self.queue.front().expect("FIFO victim from empty cache")
    }
    fn on_evict(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.remove(id);
    }
    fn on_insert(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.push_back(id);
    }
}

/// Least-recently-used. Orientation: front = most recent, back = LRU.
#[derive(Debug, Default)]
pub struct Lru {
    queue: LinkedQueue,
}

impl Lru {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for Lru {
    fn name(&self) -> &str {
        "LRU"
    }
    fn on_hit(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.move_to_front(id);
    }
    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        self.queue.back().expect("LRU victim from empty cache")
    }
    fn on_evict(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.remove(id);
    }
    fn on_insert(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.push_front(id);
    }
}

/// Most-recently-used — a niche baseline that wins on pure looping
/// workloads and loses almost everywhere else (the paper keeps it for
/// exactly that contrast).
#[derive(Debug, Default)]
pub struct Mru {
    queue: LinkedQueue,
}

impl Mru {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for Mru {
    fn name(&self) -> &str {
        "MRU"
    }
    fn on_hit(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.move_to_front(id);
    }
    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        self.queue.front().expect("MRU victim from empty cache")
    }
    fn on_evict(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.remove(id);
    }
    fn on_insert(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.push_front(id);
    }
}

/// Least-frequently-used with FIFO tie-breaking (in-cache frequency, i.e.
/// counts reset on eviction — "perfect LFU" would need unbounded history).
#[derive(Debug, Default)]
pub struct Lfu {
    /// Access counts; the minimum is the victim.
    counts: Ranking<u64>,
}

impl Lfu {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for Lfu {
    fn name(&self) -> &str {
        "LFU"
    }
    fn on_hit(&mut self, id: ObjId, _view: &CacheView<'_>) {
        let count = self.counts.get(id).expect("LFU hit on unknown id");
        self.counts.set(id, count + 1);
    }
    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        self.counts.first().expect("LFU victim from empty cache")
    }
    fn on_evict(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.counts.remove(id);
    }
    fn on_insert(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.counts.set(id, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cache;
    use policysmith_traces::{OpKind, Request};

    fn req(t: u64, obj: u64) -> Request {
        Request { time_us: t, obj, size: 100, op: OpKind::Read }
    }

    /// Run the id sequence through a 3-object cache, return final residents.
    fn residents<P: Policy>(policy: P, ids: &[u64]) -> Vec<u64> {
        let mut c = Cache::new(300, policy);
        for (i, &id) in ids.iter().enumerate() {
            c.request(&req(i as u64, id));
        }
        let mut v: Vec<u64> = (0..100).filter(|&x| c.contains(x)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn fifo_evicts_oldest_regardless_of_hits() {
        // 1,2,3 inserted; 1 re-accessed; 4 inserted → 1 still evicted.
        assert_eq!(residents(Fifo::new(), &[1, 2, 3, 1, 4]), vec![2, 3, 4]);
    }

    #[test]
    fn lru_spares_recently_used() {
        // re-access of 1 saves it; 2 is the LRU victim.
        assert_eq!(residents(Lru::new(), &[1, 2, 3, 1, 4]), vec![1, 3, 4]);
    }

    #[test]
    fn mru_evicts_most_recent() {
        // 1,2,3 resident; access 1 (now MRU); insert 4 → 1 evicted.
        assert_eq!(residents(Mru::new(), &[1, 2, 3, 1, 4]), vec![2, 3, 4]);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        // counts: 1→3, 2→2, 3→1; insert 4 → 3 evicted.
        assert_eq!(residents(Lfu::new(), &[1, 2, 3, 1, 2, 1, 4]), vec![1, 2, 4]);
    }

    #[test]
    fn lfu_tie_break_is_fifo() {
        // all counts 1 → evict the earliest inserted (1).
        assert_eq!(residents(Lfu::new(), &[1, 2, 3, 4]), vec![2, 3, 4]);
    }

    #[test]
    fn lru_sequence_classic() {
        // classic LRU stack behaviour over a longer run
        assert_eq!(residents(Lru::new(), &[1, 2, 3, 4, 2, 5]), vec![2, 4, 5]);
    }

    #[test]
    fn lfu_count_resets_after_eviction() {
        let mut c = Cache::new(300, Lfu::new());
        for (i, id) in [1, 1, 1, 2, 3, 4].iter().enumerate() {
            c.request(&req(i as u64, *id));
        }
        // 1 has count 3; 2,3 count 1 → inserting 4 evicts 2
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
        // bring 2 back: its count starts from 1 again → victim over 1
        c.request(&req(10, 2)); // evicts 3 (count 1, older than 4)
        c.request(&req(11, 5));
        assert!(!c.contains(2) || !c.contains(4)); // one of the count-1 objects went
        assert!(c.contains(1), "frequent object must survive");
    }
}
