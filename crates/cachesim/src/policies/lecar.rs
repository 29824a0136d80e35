//! LeCaR — Learning Cache Replacement (HotStorage '18 \[60\]).
//!
//! Runs two experts — LRU and LFU — as shadow orderings over the *same*
//! resident set, and keeps a weight per expert. Each eviction samples an
//! expert by weight and uses its victim. Every eviction is remembered in a
//! ghost history tagged with the evicting expert; when a miss hits the
//! ghost of expert E, E is "regretted" and the *other* expert's weight is
//! multiplicatively boosted. Weights thus track which philosophy (recency
//! vs frequency) is currently losing the workload.

use crate::engine::{CacheView, ObjId, Policy};
use crate::features::EvictionHistory;
use crate::util::{LinkedQueue, Ranking, XorShiftStar};

/// Learning rate of the multiplicative-weights update.
const LEARNING_RATE: f64 = 0.45;
/// Discount applied per request to the regret reward (older mistakes count
/// less), as in the original paper.
const DISCOUNT_BASE: f64 = 0.005;
/// Ghost history bound, in entries per resident object.
const HISTORY_FACTOR: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expert {
    Lru,
    Lfu,
}

/// LeCaR eviction policy.
pub struct Lecar {
    // LRU expert ordering: front = MRU.
    lru: LinkedQueue,
    // LFU expert ordering: access counts.
    lfu: Ranking<u64>,
    // weights
    w_lru: f64,
    w_lfu: f64,
    // ghost history: id -> (expert, eviction vtime)
    history: EvictionHistory<(Expert, u64)>,
    // deterministic expert sampling
    rng: XorShiftStar,
    requests: u64,
}

impl Lecar {
    pub fn new() -> Self {
        Lecar {
            lru: LinkedQueue::new(),
            lfu: Ranking::new(),
            w_lru: 0.5,
            w_lfu: 0.5,
            history: EvictionHistory::default(),
            rng: XorShiftStar::new(0x853c49e6748fea9b),
            requests: 0,
        }
    }

    fn normalize(&mut self) {
        let total = self.w_lru + self.w_lfu;
        self.w_lru /= total;
        self.w_lfu /= total;
        // keep both experts alive
        self.w_lru = self.w_lru.clamp(0.01, 0.99);
        self.w_lfu = 1.0 - self.w_lru;
    }

    /// Regret update: the expert that evicted this ghost was wrong.
    fn regret(&mut self, expert: Expert, evict_vtime: u64, now: u64) {
        let age = now.saturating_sub(evict_vtime) as f64;
        let reward = DISCOUNT_BASE.powf(age / 1_000.0); // ∈ (0, 1]
        match expert {
            Expert::Lru => self.w_lfu *= (LEARNING_RATE * reward).exp(),
            Expert::Lfu => self.w_lru *= (LEARNING_RATE * reward).exp(),
        }
        self.normalize();
    }
}

impl Default for Lecar {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for Lecar {
    fn name(&self) -> &str {
        "LeCaR"
    }

    fn on_hit(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.requests += 1;
        self.lru.move_to_front(id);
        if let Some(count) = self.lfu.get(id) {
            self.lfu.set(id, count + 1);
        }
    }

    fn on_miss(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.requests += 1;
        if let Some((expert, evict_vtime)) = self.history.take(id) {
            self.regret(expert, evict_vtime, view.vtime);
        }
    }

    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        let use_lru = self.rng.next_unit() < self.w_lru;
        let (primary, fallback) = if use_lru {
            (self.lru.back(), self.lfu.first())
        } else {
            (self.lfu.first(), self.lru.back())
        };
        primary.or(fallback).expect("LeCaR victim from empty cache")
    }

    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        // Tag the ghost with the expert that would have chosen it. If both
        // agree, no regret is learnable — tag by the sampled side anyway
        // (original LeCaR tags by the acting expert; we reconstruct it from
        // which ordering had the object at its victim position).
        let was_lru_choice = self.lru.back() == Some(id);
        let was_lfu_choice = self.lfu.first() == Some(id);
        let expert = match (was_lru_choice, was_lfu_choice) {
            (true, false) => Some(Expert::Lru),
            (false, true) => Some(Expert::Lfu),
            _ => None, // agreement (or neither): no learning signal
        };
        self.lru.remove(id);
        self.lfu.remove(id);
        if let Some(e) = expert {
            self.history.set_capacity((HISTORY_FACTOR * view.num_objects()).max(32));
            self.history.record(id, (e, view.vtime));
        }
    }

    fn on_insert(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.lru.push_front(id);
        self.lfu.set(id, 1);
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

    fn run(ids: &[u64], cap: u64) -> Cache<Lecar> {
        let mut c = Cache::new(cap, Lecar::new());
        for (i, &id) in ids.iter().enumerate() {
            c.request(&req(i as u64, id));
        }
        c
    }

    #[test]
    fn weights_stay_normalized() {
        let ids: Vec<u64> = (0..20_000u64).map(|i| (i * 2654435761) % 300).collect();
        let c = run(&ids, 2_000);
        let w = c.policy.w_lru + c.policy.w_lfu;
        assert!((w - 1.0).abs() < 1e-9);
        assert!(c.policy.w_lru >= 0.01 && c.policy.w_lru <= 0.99);
    }

    #[test]
    fn shadow_structures_track_residents() {
        let ids: Vec<u64> = (0..10_000u64).map(|i| (i * 7) % 120).collect();
        let c = run(&ids, 1_500);
        assert_eq!(c.policy.lru.len(), c.num_objects());
        assert_eq!(c.policy.lfu.len(), c.num_objects());
    }

    #[test]
    fn frequency_workload_shifts_weight_to_lfu() {
        // Workload where LRU's choices keep coming back (classic LFU-win):
        // a few very hot objects plus a churning tail that LRU keeps
        // caching at the hot set's expense.
        let mut ids = Vec::new();
        for r in 0..4_000u64 {
            ids.push(r % 3); // hot trio
            ids.push(10_000 + r); // one-hit wonder
            if r % 7 == 0 {
                // re-touch a recently evicted hot object pattern
                ids.push((r / 7) % 3);
            }
        }
        let c = run(&ids, 600);
        // LFU should not have lost weight catastrophically; in most runs it
        // gains. Assert it holds a meaningful share.
        assert!(c.policy.w_lfu > 0.3, "LFU weight collapsed to {}", c.policy.w_lfu);
    }

    #[test]
    fn deterministic() {
        let ids: Vec<u64> = (0..5_000u64).map(|i| (i * 31) % 100).collect();
        let a = run(&ids, 1_000).result();
        let b = run(&ids, 1_000).result();
        assert_eq!(a, b);
    }

    #[test]
    fn history_bounded() {
        let ids: Vec<u64> = (0..30_000u64).collect(); // scan: heavy evictions
        let c = run(&ids, 1_000);
        assert!(c.policy.history.len() <= (c.num_objects()).max(32) + 1);
    }
}
