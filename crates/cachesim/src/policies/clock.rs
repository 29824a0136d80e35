//! Reference-bit policies: FIFO-Reinsertion (a.k.a. Clock / second chance)
//! and SIEVE (NSDI '24 \[69\]).
//!
//! Both keep FIFO's O(1) bookkeeping but give re-accessed objects another
//! round. The difference — and the reason SIEVE wins on skewed web
//! workloads — is *where survivors sit*: FIFO-Re moves them to the tail
//! (recirculates), while SIEVE leaves them in place and moves a hand, so
//! long-lived popular objects gravitate toward the head and stop being
//! examined at all ("lazy promotion, quick demotion").

use crate::engine::{CacheView, ObjId, Policy};
use crate::util::LinkedQueue;
use policysmith_traces::IdSet;

/// FIFO with reinsertion (Corbató's second-chance clock, §4.2.2's
/// "FIFO-Re"). Queue orientation: front = oldest.
#[derive(Debug, Default)]
pub struct FifoReinsertion {
    queue: LinkedQueue,
    visited: IdSet<ObjId>,
}

impl FifoReinsertion {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for FifoReinsertion {
    fn name(&self) -> &str {
        "FIFO-Re"
    }
    fn on_hit(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.visited.insert(id);
    }
    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        // Recirculate visited objects (clearing the bit) until an
        // unvisited one surfaces. Terminates: each pass clears one bit.
        loop {
            let front = self.queue.front().expect("clock victim from empty cache");
            if self.visited.remove(&front) {
                self.queue.move_to_back(front);
            } else {
                return front;
            }
        }
    }
    fn on_evict(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.remove(id);
        self.visited.remove(&id);
    }
    fn on_insert(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.push_back(id);
    }
}

/// SIEVE \[69\]. Queue orientation: front = newest (insertions), back =
/// oldest. The hand starts at the back and moves toward the front, evicting
/// the first unvisited object and clearing bits as it passes.
#[derive(Debug, Default)]
pub struct Sieve {
    queue: LinkedQueue,
    visited: IdSet<ObjId>,
    /// Current hand position (an object id), or `None` = start from back.
    hand: Option<ObjId>,
}

impl Sieve {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for Sieve {
    fn name(&self) -> &str {
        "SIEVE"
    }
    fn on_hit(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.visited.insert(id);
    }
    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        let mut hand = match self.hand {
            Some(h) if self.queue.contains(h) => h,
            _ => self.queue.back().expect("SIEVE victim from empty cache"),
        };
        // Sweep toward the head, clearing visited bits; wrap to the back
        // when the head is passed. Terminates: bits only get cleared.
        loop {
            if self.visited.remove(&hand) {
                hand = match self.queue.prev_of(hand) {
                    Some(prev) => prev,
                    None => self.queue.back().expect("queue cannot empty mid-sweep"),
                };
            } else {
                // Advance the hand past the victim before it disappears.
                self.hand = self.queue.prev_of(hand);
                return hand;
            }
        }
    }
    fn on_evict(&mut self, id: ObjId, _view: &CacheView<'_>) {
        if self.hand == Some(id) {
            self.hand = self.queue.prev_of(id);
        }
        self.queue.remove(id);
        self.visited.remove(&id);
    }
    fn on_insert(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.push_front(id);
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

    fn run<P: Policy>(policy: P, ids: &[u64], cap: u64) -> Cache<P> {
        let mut c = Cache::new(cap, policy);
        for (i, &id) in ids.iter().enumerate() {
            c.request(&req(i as u64, id));
        }
        c
    }

    #[test]
    fn fifo_re_gives_second_chance() {
        // 1,2,3 fill; hit 1; insert 4: clock passes visited 1 (reinserts),
        // evicts 2.
        let c = run(FifoReinsertion::new(), &[1, 2, 3, 1, 4], 300);
        assert!(c.contains(1), "visited object survives");
        assert!(!c.contains(2), "unvisited oldest is the victim");
        assert!(c.contains(3) && c.contains(4));
    }

    #[test]
    fn fifo_re_clears_bit_after_reinsertion() {
        let mut c = run(FifoReinsertion::new(), &[1, 2, 3, 1, 4], 300);
        // queue now (oldest→newest): 3, 1(bit cleared), 4
        c.request(&req(10, 5)); // evicts 3
        assert!(!c.contains(3));
        c.request(&req(11, 6)); // evicts 1: bit was cleared
        assert!(!c.contains(1));
    }

    #[test]
    fn sieve_keeps_visited_in_place() {
        // 1,2,3 fill (front→back: 3,2,1); hit 2; insert 4:
        // hand starts at back (1): unvisited → evict 1, hand stays before it.
        let mut c = run(Sieve::new(), &[1, 2, 3, 2, 4], 300);
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3) && c.contains(4));
        // Next eviction: hand at 2 (visited → cleared, move on), evicts 3.
        c.request(&req(10, 5));
        assert!(!c.contains(3));
        assert!(c.contains(2), "popular object survives without moving");
    }

    #[test]
    fn sieve_hand_wraps_after_head() {
        let mut c = run(Sieve::new(), &[1, 2, 3], 300);
        // visit everything: sweep must clear all bits then wrap and evict
        c.request(&req(4, 1));
        c.request(&req(5, 2));
        c.request(&req(6, 3));
        c.request(&req(7, 9)); // forces eviction with all bits set
        assert_eq!(c.result().evictions, 1);
        assert_eq!(c.num_objects(), 3);
    }

    #[test]
    fn sieve_scan_resistance_beats_lru() {
        // Popular set {0..5} hit repeatedly + one-touch scan ids: SIEVE
        // should retain more of the popular set than LRU.
        let mut ids = Vec::new();
        let mut scan = 1_000u64;
        for round in 0..200u64 {
            for p in 0..5 {
                ids.push(p);
            }
            if round % 2 == 0 {
                for _ in 0..3 {
                    ids.push(scan);
                    scan += 1;
                }
            }
        }
        let cap = 700; // room for 7 objects
        let sieve_hits = run(Sieve::new(), &ids, cap).result().hits;
        let lru_hits = run(crate::policies::basic::Lru::new(), &ids, cap).result().hits;
        assert!(
            sieve_hits > lru_hits,
            "SIEVE ({sieve_hits}) should beat LRU ({lru_hits}) under scan pollution"
        );
    }

    #[test]
    fn sieve_invariants_under_churn() {
        // Exercise hand maintenance across many evictions; a hot object is
        // mixed in so the visited path is taken constantly.
        let ids: Vec<u64> =
            (0..5_000u64).map(|i| if i % 3 == 0 { 0 } else { (i * 7919) % 50 }).collect();
        let c = run(Sieve::new(), &ids, 1_000);
        assert_eq!(c.num_objects(), 10);
        assert!(c.result().hits > 0);
        assert!(c.contains(0), "hot object must survive the sieve");
    }
}
