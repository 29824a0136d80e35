//! S3-FIFO (SOSP '23 \[64\]): "FIFO queues are all you need for cache
//! eviction".
//!
//! Three FIFO queues: a **small** probationary queue (10% of capacity), a
//! **main** queue (90%), and a **ghost** queue of recently-evicted ids
//! sized to main's object count. One-hit wonders die quickly in small;
//! objects re-referenced while in small (or remembered by ghost) enter
//! main, where a lazy frequency counter (capped at 3) grants reinsertions.

use crate::engine::{CacheView, ObjId, Policy};
use crate::util::LinkedQueue;
use policysmith_traces::IdMap;
use std::collections::VecDeque;

/// Fraction of capacity given to the small queue (paper's default).
const SMALL_FRAC: f64 = 0.1;
/// Frequency counter cap.
const FREQ_MAX: u8 = 3;

/// S3-FIFO eviction policy.
#[derive(Debug)]
pub struct S3Fifo {
    small: LinkedQueue, // front = oldest
    main: LinkedQueue,  // front = oldest
    freq: IdMap<ObjId, u8>,
    small_bytes: u64,
    /// Ghost: ids evicted from small, bounded by main's object count. It
    /// stays a FIFO *multiset* rather than an `EvictionHistory`: an id
    /// evicted twice is queued twice and forgotten only when its last copy
    /// leaves, as in the S3-FIFO paper's ghost queue.
    ghost: VecDeque<ObjId>,
    ghost_set: IdMap<ObjId, u32>, // id -> generation count in ghost deque
    /// Set when the current miss hit the ghost queue: insert to main.
    insert_to_main: bool,
}

impl S3Fifo {
    pub fn new() -> Self {
        S3Fifo {
            small: LinkedQueue::new(),
            main: LinkedQueue::new(),
            freq: IdMap::default(),
            small_bytes: 0,
            ghost: VecDeque::new(),
            ghost_set: IdMap::default(),
            insert_to_main: false,
        }
    }

    fn ghost_push(&mut self, id: ObjId) {
        self.ghost.push_back(id);
        *self.ghost_set.entry(id).or_insert(0) += 1;
        // Bound ghost by main's length (≥ 1 to stay useful when main is
        // still warming up).
        let bound = self.main.len().max(16);
        while self.ghost.len() > bound {
            let old = self.ghost.pop_front().unwrap();
            if let Some(n) = self.ghost_set.get_mut(&old) {
                *n -= 1;
                if *n == 0 {
                    self.ghost_set.remove(&old);
                }
            }
        }
    }

    fn ghost_contains(&self, id: ObjId) -> bool {
        self.ghost_set.contains_key(&id)
    }

    /// Migrate the oldest small-queue object to main (promotion).
    fn promote_to_main(&mut self, id: ObjId, size: u64) {
        self.small.remove(id);
        self.small_bytes -= size;
        self.main.push_back(id);
        self.freq.insert(id, 0);
    }
}

impl Default for S3Fifo {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for S3Fifo {
    fn name(&self) -> &str {
        "S3-FIFO"
    }

    fn on_hit(&mut self, id: ObjId, _view: &CacheView<'_>) {
        let f = self.freq.entry(id).or_insert(0);
        *f = (*f + 1).min(FREQ_MAX);
    }

    fn on_miss(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.insert_to_main = self.ghost_contains(id);
    }

    fn victim(&mut self, view: &CacheView<'_>) -> ObjId {
        let small_target = (view.capacity_bytes as f64 * SMALL_FRAC) as u64;
        // Prefer evicting from small once it exceeds its share.
        if self.small_bytes > small_target || self.main.is_empty() {
            // Pop small: promote objects with freq > 1, evict the first
            // cold one. Terminates: each promotion shrinks small.
            while let Some(front) = self.small.front() {
                let size = view.meta(front).map(|m| m.size as u64).unwrap_or(0);
                if self.freq.get(&front).copied().unwrap_or(0) > 1 {
                    self.promote_to_main(front, size);
                } else {
                    return front;
                }
            }
        }
        // Evict from main: reinsert while freq > 0 (decrementing).
        loop {
            let front = match self.main.front() {
                Some(f) => f,
                // Small exhausted its promotions into main concurrently —
                // fall back to whatever small still holds.
                None => return self.small.front().expect("S3-FIFO victim from empty cache"),
            };
            let f = self.freq.get(&front).copied().unwrap_or(0);
            if f > 0 {
                self.freq.insert(front, f - 1);
                self.main.move_to_back(front);
            } else {
                return front;
            }
        }
    }

    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        if self.small.remove(id) {
            let size = view.meta(id).map(|m| m.size as u64).unwrap_or(0);
            self.small_bytes -= size;
            // Only small-queue evictions enter ghost (the paper's design:
            // ghost tracks "demoted too early" candidates).
            self.ghost_push(id);
        } else {
            self.main.remove(id);
        }
        self.freq.remove(&id);
    }

    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        let size = view.meta(id).map(|m| m.size as u64).unwrap_or(0);
        if self.insert_to_main {
            self.main.push_back(id);
        } else {
            self.small.push_back(id);
            self.small_bytes += size;
        }
        self.freq.insert(id, 0);
        self.insert_to_main = false;
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
    fn one_hit_wonders_die_in_small() {
        // Popular pair hit often; a stream of one-hit wonders must not
        // displace them.
        let mut ids = vec![1, 2, 1, 2, 1, 2, 1, 2];
        for w in 100..140 {
            ids.push(w);
            ids.push(1);
            ids.push(2);
        }
        let c = run(S3Fifo::new(), &ids, 1_000);
        assert!(c.contains(1) && c.contains(2), "popular objects must survive");
    }

    #[test]
    fn ghost_rescues_prematurely_evicted() {
        let mut c = Cache::new(1_000, S3Fifo::new());
        let mut t = 0u64;
        let mut go = |c: &mut Cache<S3Fifo>, id: u64| {
            t += 1;
            c.request(&req(t, id));
        };
        // Fill small past its share so 50 gets evicted to ghost.
        go(&mut c, 50);
        for w in 200..215 {
            go(&mut c, w);
        }
        assert!(!c.contains(50), "50 should have been pushed out of small");
        // Re-request 50: ghost hit → goes straight to main.
        go(&mut c, 50);
        assert!(c.contains(50));
        assert!(c.policy.main.contains(50) && !c.policy.small.contains(50));
    }

    #[test]
    fn main_reinsertion_respects_frequency() {
        // An object promoted to main with hits gets recirculated, not
        // evicted, while cold main objects go first.
        let mut ids = vec![];
        // make 1 hot (hits in small → freq > 1 → promoted)
        ids.extend([1, 1, 1]);
        // push small past its share so promotion happens
        for w in 300..340 {
            ids.push(w);
        }
        // hit 1 some more, then force main evictions
        ids.extend([1, 1]);
        for w in 400..440 {
            ids.push(w);
        }
        let c = run(S3Fifo::new(), &ids, 1_000);
        assert!(c.contains(1), "frequent main object should persist");
    }

    #[test]
    fn beats_lru_under_scan() {
        // Scan pollution: S3-FIFO should out-hit LRU.
        let mut ids = Vec::new();
        let mut scan = 10_000u64;
        for _ in 0..300 {
            for p in 0..6 {
                ids.push(p);
            }
            for _ in 0..4 {
                ids.push(scan);
                scan += 1;
            }
        }
        let cap = 800;
        let s3 = run(S3Fifo::new(), &ids, cap).result().hits;
        let lru = run(Lru::new(), &ids, cap).result().hits;
        assert!(s3 > lru, "S3-FIFO ({s3}) should beat LRU ({lru}) under scans");
    }

    #[test]
    fn accounting_stays_consistent() {
        let ids: Vec<u64> = (0..20_000u64).map(|i| (i * 2654435761) % 300).collect();
        let c = run(S3Fifo::new(), &ids, 2_500);
        // internal byte accounting must match queue membership
        let small_bytes_check: u64 = c.policy.small.iter().map(|_| 100u64).sum();
        assert_eq!(c.policy.small_bytes, small_bytes_check);
        assert_eq!(c.policy.small.len() + c.policy.main.len(), c.num_objects());
    }
}
