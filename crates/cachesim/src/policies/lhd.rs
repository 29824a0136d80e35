//! LHD — Least Hit Density (NSDI '18 \[7\]), sampling variant.
//!
//! LHD estimates, for each object, its *hit density*: the probability of a
//! future hit divided by the expected cache space-time the object will
//! consume, and evicts the lowest-density object among a random sample.
//! Following the paper's implementation we:
//!
//! * bucket object age (time since last access) into coarse power-of-two
//!   bins and object frequency into a few classes,
//! * maintain per-(class, age-bin) hit/eviction event counts with periodic
//!   exponential decay (so the estimator tracks workload drift),
//! * recompute hit densities every `RECONFIG_INTERVAL` requests,
//! * evict the minimum-density object among `SAMPLE` randomly-sampled
//!   residents (O(1) instead of a full priority structure).
//!
//! Simplifications vs. the original: age is in requests rather than a
//! tuned "coarsened" clock, and the class function is `min(log2(freq), 3)`
//! rather than the paper's app-id × reuse classes.

use crate::engine::{CacheView, ObjId, Policy};
use crate::util::XorShiftStar;
use policysmith_traces::IdMap;

/// Number of log-spaced age bins.
const AGE_BINS: usize = 24;
/// Number of frequency classes.
const CLASSES: usize = 4;
/// Residents sampled per eviction.
const SAMPLE: usize = 32;
/// Requests between density recomputations.
const RECONFIG_INTERVAL: u64 = 10_000;
/// Exponential decay applied to event counts at each reconfiguration.
const DECAY: f64 = 0.9;

fn age_bin(age: u64) -> usize {
    (64 - age.max(1).leading_zeros() as usize).min(AGE_BINS - 1)
}

fn class_of(freq: u64) -> usize {
    (64 - freq.max(1).leading_zeros() as usize - 1).min(CLASSES - 1)
}

/// LHD eviction policy.
pub struct Lhd {
    /// hits[class][age_bin], evictions[class][age_bin]
    hits: [[f64; AGE_BINS]; CLASSES],
    evictions: [[f64; AGE_BINS]; CLASSES],
    /// Precomputed density table, refreshed at reconfiguration.
    density: [[f64; AGE_BINS]; CLASSES],
    /// Swap-remove vector of residents + index for O(1) sampling.
    residents: Vec<ObjId>,
    slot: IdMap<ObjId, usize>,
    /// Deterministic sampling.
    rng: XorShiftStar,
    requests_seen: u64,
}

impl Lhd {
    pub fn new() -> Self {
        let mut lhd = Lhd {
            hits: [[0.0; AGE_BINS]; CLASSES],
            evictions: [[0.0; AGE_BINS]; CLASSES],
            density: [[0.0; AGE_BINS]; CLASSES],
            residents: Vec::new(),
            slot: IdMap::default(),
            rng: XorShiftStar::new(0x9e3779b97f4a7c15),
            requests_seen: 0,
        };
        lhd.reconfigure();
        lhd
    }

    /// Recompute `density[c][a]` = expected hits at ages ≥ a divided by the
    /// expected remaining lifetime — the discrete form of the paper's hit
    /// density, computed from the tail sums of the event histograms.
    fn reconfigure(&mut self) {
        for c in 0..CLASSES {
            let mut hits_tail = 0.0;
            let mut events_time_tail = 0.0;
            // sweep from oldest age bin to youngest so tails accumulate
            for a in (0..AGE_BINS).rev() {
                hits_tail += self.hits[c][a];
                let events = self.hits[c][a] + self.evictions[c][a];
                // each event at bin `a` represents ~2^a requests of tenancy
                events_time_tail += events * (1u64 << a.min(40)) as f64;
                self.density[c][a] = if events_time_tail > 0.0 {
                    hits_tail / events_time_tail
                } else {
                    // unknown territory: optimistic for young ages, so new
                    // objects get a chance to prove themselves
                    1e-6
                };
                self.hits[c][a] *= DECAY;
                self.evictions[c][a] *= DECAY;
            }
        }
    }

    fn density_of(&self, freq: u64, age: u64) -> f64 {
        self.density[class_of(freq)][age_bin(age)]
    }

    fn add_resident(&mut self, id: ObjId) {
        self.slot.insert(id, self.residents.len());
        self.residents.push(id);
    }

    fn remove_resident(&mut self, id: ObjId) {
        if let Some(ix) = self.slot.remove(&id) {
            let last = *self.residents.last().unwrap();
            self.residents.swap_remove(ix);
            if last != id {
                self.slot.insert(last, ix);
            }
        }
    }
}

impl Default for Lhd {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for Lhd {
    fn name(&self) -> &str {
        "LHD"
    }

    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>) {
        self.requests_seen += 1;
        if let Some(m) = view.meta(id) {
            // meta.last_vtime was just updated to now; age at hit is the
            // gap to the *previous* access, which we approximate by the
            // current hit age bucket of 1 (a hit resets age). Record the
            // event in the bin of the object's tenancy age instead.
            let age = view.vtime.saturating_sub(m.insert_vtime).max(1);
            self.hits[class_of(m.access_count)][age_bin(age)] += 1.0;
        }
        if self.requests_seen.is_multiple_of(RECONFIG_INTERVAL) {
            self.reconfigure();
        }
    }

    fn on_miss(&mut self, _id: ObjId, _view: &CacheView<'_>) {
        self.requests_seen += 1;
        if self.requests_seen.is_multiple_of(RECONFIG_INTERVAL) {
            self.reconfigure();
        }
    }

    fn victim(&mut self, view: &CacheView<'_>) -> ObjId {
        debug_assert!(!self.residents.is_empty());
        let mut best: Option<(f64, ObjId)> = None;
        let n = self.residents.len();
        for _ in 0..SAMPLE.min(n) {
            let r = self.rng.next_u64();
            let id = self.residents[(r % n as u64) as usize];
            let m = match view.meta(id) {
                Some(m) => m,
                None => continue,
            };
            let age = view.vtime.saturating_sub(m.last_vtime).max(1);
            // density per byte: hit density divided by object size
            let d = self.density_of(m.access_count, age) / m.size.max(1) as f64;
            if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                best = Some((d, id));
            }
        }
        best.map(|(_, id)| id).unwrap_or_else(|| self.residents[0])
    }

    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>) {
        if let Some(m) = view.meta(id) {
            let age = view.vtime.saturating_sub(m.last_vtime).max(1);
            self.evictions[class_of(m.access_count)][age_bin(age)] += 1.0;
        }
        self.remove_resident(id);
    }

    fn on_insert(&mut self, id: ObjId, _view: &CacheView<'_>) {
        self.add_resident(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cache;
    use crate::policies::basic::Fifo;
    use policysmith_traces::{OpKind, Request};

    fn req(t: u64, obj: u64, size: u32) -> Request {
        Request { time_us: t, obj, size, op: OpKind::Read }
    }

    #[test]
    fn binning_is_monotone_and_bounded() {
        let mut prev = 0;
        for age in [1u64, 2, 5, 100, 10_000, 1 << 30, u64::MAX] {
            let b = age_bin(age);
            assert!(b >= prev && b < AGE_BINS);
            prev = b;
        }
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(2), 1);
        assert_eq!(class_of(4), 2);
        assert!(class_of(1 << 60) < CLASSES);
    }

    #[test]
    fn resident_tracking_consistent() {
        let ids: Vec<u64> = (0..5_000u64).map(|i| (i * 17) % 100).collect();
        let mut c = Cache::new(1_500, Lhd::new());
        for (i, &id) in ids.iter().enumerate() {
            c.request(&req(i as u64, id, 100));
        }
        assert_eq!(c.policy.residents.len(), c.num_objects());
        for &r in &c.policy.residents {
            assert!(c.contains(r));
        }
    }

    #[test]
    fn deterministic_runs() {
        let ids: Vec<u64> = (0..8_000u64).map(|i| (i * 31) % 150).collect();
        let run = || {
            let mut c = Cache::new(2_000, Lhd::new());
            for (i, &id) in ids.iter().enumerate() {
                c.request(&req(i as u64, id, 100));
            }
            c.result()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn learns_to_keep_hot_objects() {
        // Hot set of 8 objects hit constantly + cold noise: after the
        // estimator warms up, LHD should beat FIFO.
        let mut ids = Vec::new();
        let mut cold = 10_000u64;
        for round in 0..8_000u64 {
            ids.push(round % 8);
            if round % 2 == 0 {
                ids.push(cold);
                cold += 1;
            }
        }
        let cap = 1_200; // 12 objects
        let lhd = {
            let mut c = Cache::new(cap, Lhd::new());
            for (i, &id) in ids.iter().enumerate() {
                c.request(&req(i as u64, id, 100));
            }
            c.result().hits
        };
        let fifo = {
            let mut c = Cache::new(cap, Fifo::new());
            for (i, &id) in ids.iter().enumerate() {
                c.request(&req(i as u64, id, 100));
            }
            c.result().hits
        };
        assert!(lhd > fifo, "LHD ({lhd}) should out-hit FIFO ({fifo}) on hot/cold mix");
    }
}
