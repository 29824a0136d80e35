//! The CACHEUS family (FAST '21 \[48\]): the SR (scan-resistant) and CR
//! (churn-resistant) lightweight experts, and CACHEUS itself — an adaptive
//! two-expert combination with a self-tuning learning rate.
//!
//! The PolicySmith paper lists the experts as **SR-LFU** and **CR-LRU**
//! (§4.2.2). We implement them under those names with the CACHEUS designs:
//!
//! * **SR-LFU** — LFU with scan resistance: first-time objects enter a
//!   probationary LRU region (a fixed byte share); scans churn through
//!   probation without disturbing the LFU core, and only a re-access
//!   graduates an object into the frequency-ranked region.
//! * **CR-LRU** — LRU with churn resistance: when one-hit objects cycle
//!   rapidly, plain LRU degenerates to FIFO over them; CR-LRU gives
//!   multi-access objects a second chance on eviction, so a churning tail
//!   cannot flush the proven set.
//! * **CACHEUS** — LeCaR-style multiplicative-weight arbitration between
//!   the two experts, with the adaptive learning rate of the CACHEUS paper
//!   (rate grows while the loser keeps losing, resets on reversal).

use crate::engine::{CacheView, ObjId, Policy};
use crate::features::EvictionHistory;
use crate::util::{LinkedQueue, Ranking, XorShiftStar};
use policysmith_traces::IdSet;

/// Byte share of the probationary region in SR-LFU.
const PROBATION_FRAC: f64 = 0.1;

/// Scan-resistant LFU.
#[derive(Debug, Default)]
pub struct SrLfu {
    /// Probation (first-timers), front = oldest.
    probation: LinkedQueue,
    probation_bytes: u64,
    /// Protected frequency ranking.
    rank: Ranking<u64>,
}

impl SrLfu {
    pub fn new() -> Self {
        Self::default()
    }

    fn protect(&mut self, id: ObjId, size: u64) {
        self.probation.remove(id);
        self.probation_bytes -= size;
        // graduates with its accumulated count of 2 (insert + this hit)
        self.rank.set(id, 2);
    }
}

impl Policy for SrLfu {
    fn name(&self) -> &str {
        "SR-LFU"
    }

    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        if self.probation.contains(id) {
            let size = view.meta(id).map(|m| m.size as u64).unwrap_or(0);
            self.protect(id, size);
        } else if let Some(count) = self.rank.get(id) {
            self.rank.set(id, count + 1);
        }
    }

    fn victim(&mut self, view: &CacheView<'_>) -> ObjId {
        let probation_target = (view.capacity_bytes as f64 * PROBATION_FRAC) as u64;
        // Scans die here: prefer probation once it outgrows its share, and
        // always prefer it over a non-empty protected region when the
        // protected region would otherwise be emptied.
        if self.probation_bytes > probation_target || self.rank.is_empty() {
            if let Some(front) = self.probation.front() {
                return front;
            }
        }
        match self.rank.first() {
            Some(id) => id,
            None => self.probation.front().expect("SR-LFU victim from empty cache"),
        }
    }

    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        if self.probation.remove(id) {
            let size = view.meta(id).map(|m| m.size as u64).unwrap_or(0);
            self.probation_bytes -= size;
        } else {
            self.rank.remove(id);
        }
    }

    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        let size = view.meta(id).map(|m| m.size as u64).unwrap_or(0);
        self.probation.push_back(id);
        self.probation_bytes += size;
    }
}

/// Churn-resistant LRU.
///
/// Two mechanisms cooperate: (a) objects that are *hit* gain a second
/// chance, so multi-access objects recirculate once instead of being
/// evicted; (b) a ghost list remembers recent evictions, and a re-inserted
/// ghost arrives *with* a chance — this is what breaks the churn death
/// spiral where a warm object's reuse distance slightly exceeds capacity
/// and plain LRU (or hit-only second chances) never lets it survive to its
/// second access.
#[derive(Debug, Default)]
pub struct CrLru {
    /// front = MRU, back = LRU.
    queue: LinkedQueue,
    /// Objects currently holding a second chance.
    second_chance: IdSet<ObjId>,
    /// Ghost memory of recent evictions, twice the residents (≥ 32).
    ghost: EvictionHistory<()>,
}

impl CrLru {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for CrLru {
    fn name(&self) -> &str {
        "CR-LRU"
    }

    fn on_hit(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.move_to_front(id);
        self.second_chance.insert(id);
    }

    fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
        // Sweep from the LRU end; chance-holders spend their chance and
        // recirculate once. Terminates: chances only get spent.
        loop {
            let back = self.queue.back().expect("CR-LRU victim from empty cache");
            if self.second_chance.remove(&back) {
                self.queue.move_to_front(back);
            } else {
                return back;
            }
        }
    }

    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.queue.remove(id);
        self.second_chance.remove(&id);
        self.ghost.set_capacity((2 * view.num_objects()).max(32));
        self.ghost.record(id, ());
    }

    fn on_insert(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.queue.push_front(id);
        // A returning ghost is churn evidence: shield it once.
        if self.ghost.take(id).is_some() {
            self.second_chance.insert(id);
        }
    }
}

/// CACHEUS: adaptive arbitration between [`SrLfu`] and [`CrLru`].
pub struct Cacheus {
    sr: SrLfu,
    cr: CrLru,
    w_sr: f64,
    /// Adaptive learning rate (the CACHEUS paper's key addition to LeCaR).
    lr: f64,
    lr_direction: i8,
    /// Ghost history: id -> which expert evicted it, as many as residents
    /// (≥ 32).
    history: EvictionHistory<Which>,
    rng: XorShiftStar,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Which {
    Sr,
    Cr,
}

impl Cacheus {
    pub fn new() -> Self {
        Cacheus {
            sr: SrLfu::new(),
            cr: CrLru::new(),
            w_sr: 0.5,
            lr: 0.1,
            lr_direction: 0,
            history: EvictionHistory::default(),
            rng: XorShiftStar::new(0xda3e39cb94b95bdb),
        }
    }

    fn update_weights(&mut self, losing: Which) {
        // Adaptive LR: consecutive regret in the same direction grows the
        // step; a reversal shrinks it (simplified from CACHEUS's
        // gradient-style schedule).
        let dir = match losing {
            Which::Sr => -1,
            Which::Cr => 1,
        };
        if dir == self.lr_direction {
            self.lr = (self.lr * 1.5).min(1.0);
        } else {
            self.lr = (self.lr * 0.5).max(0.01);
        }
        self.lr_direction = dir;
        match losing {
            Which::Sr => self.w_sr /= self.lr.exp(),
            Which::Cr => self.w_sr *= self.lr.exp(),
        }
        self.w_sr = self.w_sr.clamp(0.01, 0.99);
    }
}

impl Default for Cacheus {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for Cacheus {
    fn name(&self) -> &str {
        "CACHEUS"
    }

    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.sr.on_hit(id, view);
        self.cr.on_hit(id, view);
    }

    fn on_miss(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.sr.on_miss(id, view);
        self.cr.on_miss(id, view);
        if let Some(which) = self.history.take(id) {
            self.update_weights(which);
        }
    }

    fn victim(&mut self, view: &CacheView<'_>) -> ObjId {
        if self.rng.next_unit() < self.w_sr {
            self.sr.victim(view)
        } else {
            self.cr.victim(view)
        }
    }

    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        // Attribute the ghost to the expert whose victim it was.
        let sr_choice = {
            // SR's victim is whatever its victim() would return, but we
            // avoid mutating: approximate by membership — probation front
            // or rank min.
            self.sr.probation.front() == Some(id) || self.sr.rank.first() == Some(id)
        };
        let cr_choice = self.cr.queue.back() == Some(id);
        let tag = match (sr_choice, cr_choice) {
            (true, false) => Some(Which::Sr),
            (false, true) => Some(Which::Cr),
            _ => None,
        };
        self.sr.on_evict(id, view);
        self.cr.on_evict(id, view);
        if let Some(t) = tag {
            self.history.set_capacity(view.num_objects().max(32));
            self.history.record(id, t);
        }
    }

    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.sr.on_insert(id, view);
        self.cr.on_insert(id, view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cache;
    use crate::policies::basic::{Lfu, Lru};
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

    fn scan_workload() -> Vec<u64> {
        let mut ids = Vec::new();
        let mut scan = 10_000u64;
        for _ in 0..300 {
            for p in 0..5 {
                ids.push(p);
            }
            for _ in 0..4 {
                ids.push(scan);
                scan += 1;
            }
        }
        ids
    }

    fn churn_workload() -> Vec<u64> {
        // A warm quartet re-accessed every round + six one-hit wonders per
        // round. Plain LRU lets the churn flush part of the warm set every
        // round; second chances keep it resident.
        let mut ids = Vec::new();
        let mut churn = 50_000u64;
        for _ in 0..800u64 {
            for w in 0..4 {
                ids.push(w);
            }
            for _ in 0..6 {
                ids.push(churn);
                churn += 1;
            }
        }
        ids
    }

    #[test]
    fn sr_lfu_survives_scans_better_than_lfu() {
        let ids = scan_workload();
        let cap = 800;
        let sr = run(SrLfu::new(), &ids, cap).result().hits;
        let lfu = run(Lfu::new(), &ids, cap).result().hits;
        assert!(sr >= lfu, "SR-LFU ({sr}) should be ≥ LFU ({lfu}) under scans");
    }

    #[test]
    fn sr_lfu_probation_accounting() {
        let ids: Vec<u64> = (0..10_000u64).map(|i| (i * 13) % 200).collect();
        let c = run(SrLfu::new(), &ids, 1_500);
        let bytes: u64 = c.policy.probation.iter().map(|_| 100u64).sum();
        assert_eq!(c.policy.probation_bytes, bytes);
        assert_eq!(c.policy.probation.len() + c.policy.rank.len(), c.num_objects());
    }

    #[test]
    fn cr_lru_protects_warm_objects_under_churn() {
        let ids = churn_workload();
        let cap = 800;
        let cr = run(CrLru::new(), &ids, cap).result().hits;
        let lru = run(Lru::new(), &ids, cap).result().hits;
        assert!(cr > lru, "CR-LRU ({cr}) should beat LRU ({lru}) under churn");
    }

    #[test]
    fn cr_lru_chance_is_single_use() {
        let mut c = Cache::new(300, CrLru::new());
        let mut t = 0;
        let mut go = |c: &mut Cache<CrLru>, id: u64| {
            t += 1;
            c.request(&req(t, id));
        };
        go(&mut c, 1);
        go(&mut c, 1); // hit → chance
        go(&mut c, 2);
        go(&mut c, 3);
        go(&mut c, 4); // LRU end is 1, has chance → recirculates; 2 evicted
        assert!(c.contains(1));
        assert!(!c.contains(2));
        go(&mut c, 5); // 3 is LRU victim now
        assert!(!c.contains(3));
        go(&mut c, 6); // 1 is at the back again, chance spent → evicted
        assert!(!c.contains(1));
    }

    #[test]
    fn cr_lru_ghost_grants_chance_on_return() {
        let mut c = Cache::new(300, CrLru::new());
        let mut t = 0;
        let mut go = |c: &mut Cache<CrLru>, id: u64| {
            t += 1;
            c.request(&req(t, id));
        };
        go(&mut c, 1);
        go(&mut c, 2);
        go(&mut c, 3);
        go(&mut c, 4); // evicts 1 → ghost
        assert!(!c.contains(1));
        go(&mut c, 1); // returns with a chance (evicts 2)
        go(&mut c, 5); // back is 3 (no chance) → evicted, 1 shielded
        go(&mut c, 6); // back is 1 with chance → recirculates; 4 evicted
        assert!(c.contains(1), "returning ghost must get one shield");
        assert!(!c.contains(4));
    }

    #[test]
    fn cacheus_weights_respond() {
        let c = run(Cacheus::new(), &scan_workload(), 800);
        // weights must remain valid and some learning must have occurred
        assert!(c.policy.w_sr > 0.0 && c.policy.w_sr < 1.0);
        assert!(c.policy.lr >= 0.01 && c.policy.lr <= 1.0);
    }

    #[test]
    fn cacheus_competitive_on_both_regimes() {
        let cap = 800;
        for (name, ids) in [("scan", scan_workload()), ("churn", churn_workload())] {
            let cacheus = run(Cacheus::new(), &ids, cap).result().hits;
            let lru = run(Lru::new(), &ids, cap).result().hits;
            assert!(
                cacheus as f64 >= lru as f64 * 0.9,
                "CACHEUS ({cacheus}) collapsed vs LRU ({lru}) on {name}"
            );
        }
    }

    #[test]
    fn cacheus_deterministic() {
        let ids = churn_workload();
        let a = run(Cacheus::new(), &ids, 900).result();
        let b = run(Cacheus::new(), &ids, 900).result();
        assert_eq!(a, b);
    }

    #[test]
    fn experts_track_residents() {
        let ids: Vec<u64> = (0..15_000u64).map(|i| (i * 2654435761) % 250).collect();
        let c = run(Cacheus::new(), &ids, 2_000);
        assert_eq!(c.policy.cr.queue.len(), c.num_objects());
        assert_eq!(c.policy.sr.probation.len() + c.policy.sr.rank.len(), c.num_objects());
    }
}
