//! Table-1 feature infrastructure for the template host: percentile
//! aggregates over the resident set and the recent-eviction history.
//!
//! §4.1.2 of the paper requires the `priority()` function to see
//! "percentiles over access counts, ages, or sizes of all objects in
//! cache". Maintaining exact order statistics under every access would
//! dominate runtime, so the tracker keeps a deterministic random sample of
//! residents and refreshes sorted snapshots every
//! `AggregateTracker::refresh_interval` accesses — the same
//! approximation a production host would make (the paper itself flags the
//! template's overhead question in §4.1.2). Ages are derived from
//! last-access snapshots at *query* time, so they stay current between
//! refreshes.

use crate::engine::{CacheView, ObjId};
use policysmith_dsl::Feature;
use policysmith_traces::IdMap;
use std::collections::VecDeque;

/// Maximum residents sampled per snapshot refresh.
const SNAPSHOT_SAMPLE: usize = 256;

/// Which percentile tables an [`AggregateTracker`] keeps. Every refresh
/// draws the same sample whatever the set — only what is collected from
/// it, and sorted, differs — so a table's contents do not depend on which
/// others are kept.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tables {
    /// Access counts (`counts.pNN`).
    pub counts: bool,
    /// Last-access times (`ages.pNN`).
    pub ages: bool,
    /// Object sizes (`sizes.pNN`).
    pub sizes: bool,
}

impl Tables {
    /// All three.
    pub const ALL: Tables = Tables { counts: true, ages: true, sizes: true };

    /// The tables an expression reading `feats` consults.
    pub fn read_by(feats: &[Feature]) -> Tables {
        let mut t = Tables::default();
        for f in feats {
            match f {
                Feature::CountsPct(_) => t.counts = true,
                Feature::AgesPct(_) => t.ages = true,
                Feature::SizesPct(_) => t.sizes = true,
                _ => {}
            }
        }
        t
    }

    /// Is any table kept?
    pub fn any(self) -> bool {
        self.counts || self.ages || self.sizes
    }

    /// Does this set include every table of `needed`?
    pub fn covers(self, needed: Tables) -> bool {
        (self.counts || !needed.counts)
            && (self.ages || !needed.ages)
            && (self.sizes || !needed.sizes)
    }
}

/// `pos` entry of a slot the tracker does not hold.
const ABSENT: u32 = u32::MAX;

/// Sampled percentile snapshots over the resident population, addressed
/// by the engine's object slots ([`CacheView::subject`]). A tracker that
/// keeps no table would never be consulted, so it tracks nothing: its
/// upkeep calls return at once.
#[derive(Debug, Default, Clone)]
pub struct AggregateTracker {
    /// Slots of the residents, in insertion order up to swap-removes.
    residents: Vec<u32>,
    /// Index into `residents` by slot ([`ABSENT`] when not tracked).
    pos: Vec<u32>,
    tables: Tables,
    /// Sorted access counts of the sampled residents.
    counts: Vec<u64>,
    /// Sorted last-access vtimes of the sampled residents.
    last_access: Vec<u64>,
    /// Sorted sizes of the sampled residents.
    sizes: Vec<u64>,
    /// Residents the last refresh sampled (0 = no snapshot yet).
    sampled: usize,
    accesses_since_refresh: u64,
    refresh_interval: u64,
    rng_state: u64,
}

impl AggregateTracker {
    /// Tracker keeping `tables`, refreshing every `refresh_interval`
    /// accesses.
    pub fn new(refresh_interval: u64, tables: Tables) -> Self {
        AggregateTracker {
            tables,
            refresh_interval: refresh_interval.max(1),
            rng_state: 0xa0761d6478bd642f,
            ..Default::default()
        }
    }

    /// The tables this tracker keeps.
    pub fn tables(&self) -> Tables {
        self.tables
    }

    /// Number of tracked residents.
    pub fn len(&self) -> usize {
        self.residents.len()
    }

    /// Is the tracker empty?
    pub fn is_empty(&self) -> bool {
        self.residents.is_empty()
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Record an insertion into engine slot `slot`.
    pub fn insert(&mut self, slot: u32) {
        if !self.tables.any() {
            return;
        }
        let ix = slot as usize;
        if ix >= self.pos.len() {
            self.pos.resize(ix + 1, ABSENT);
        }
        debug_assert_eq!(self.pos[ix], ABSENT, "slot {slot} inserted twice");
        self.pos[ix] = self.residents.len() as u32;
        self.residents.push(slot);
    }

    /// Record the eviction of the object in engine slot `slot`.
    pub fn remove(&mut self, slot: u32) {
        let Some(at) = self.pos.get_mut(slot as usize) else { return };
        let at = std::mem::replace(at, ABSENT);
        if at == ABSENT {
            return;
        }
        self.residents.swap_remove(at as usize);
        if let Some(&moved) = self.residents.get(at as usize) {
            self.pos[moved as usize] = at;
        }
    }

    /// Tick on every access; refreshes snapshots when due.
    pub fn on_access(&mut self, view: &CacheView<'_>) {
        if !self.tables.any() {
            return;
        }
        self.accesses_since_refresh += 1;
        if self.accesses_since_refresh >= self.refresh_interval || self.sampled == 0 {
            self.refresh(view);
            self.accesses_since_refresh = 0;
        }
    }

    fn refresh(&mut self, view: &CacheView<'_>) {
        self.counts.clear();
        self.last_access.clear();
        self.sizes.clear();
        let n = self.residents.len();
        self.sampled = SNAPSHOT_SAMPLE.min(n);
        for _ in 0..self.sampled {
            let r = self.next_rand();
            let m = view.meta_at(self.residents[(r % n as u64) as usize]);
            if self.tables.counts {
                self.counts.push(m.access_count);
            }
            if self.tables.ages {
                self.last_access.push(m.last_vtime);
            }
            if self.tables.sizes {
                self.sizes.push(m.size as u64);
            }
        }
        self.counts.sort_unstable();
        self.last_access.sort_unstable();
        self.sizes.sort_unstable();
    }

    fn pct_of(sorted: &[u64], p: u8) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = (p as usize * (sorted.len() - 1)).div_euclid(100);
        sorted[rank.min(sorted.len() - 1)]
    }

    /// p-th percentile of resident access counts.
    pub fn counts_pct(&self, p: u8) -> u64 {
        Self::pct_of(&self.counts, p)
    }

    /// p-th percentile of resident object ages (`now - last_access`).
    ///
    /// The p-th *oldest* age corresponds to the (100-p)-th last-access
    /// snapshot, translated by the current clock at query time.
    pub fn ages_pct(&self, p: u8, now_vtime: u64) -> u64 {
        if self.last_access.is_empty() {
            return 0;
        }
        let la = Self::pct_of(&self.last_access, 100 - p.min(100));
        now_vtime.saturating_sub(la)
    }

    /// p-th percentile of resident sizes, bytes.
    pub fn sizes_pct(&self, p: u8) -> u64 {
        Self::pct_of(&self.sizes, p)
    }
}

/// One remembered eviction — the paper's "list of recently evicted
/// objects, along with (timestamp, access count, age) at eviction".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionRecord {
    pub evict_vtime: u64,
    pub access_count: u64,
    /// `evict_time - last_access` at eviction.
    pub age_at_evict: u64,
}

/// Bounded history of recent evictions, keyed for `hist.contains` lookups.
#[derive(Debug, Clone)]
pub struct EvictionHistory {
    map: IdMap<ObjId, EvictionRecord>,
    fifo: VecDeque<ObjId>,
    capacity: usize,
}

impl EvictionHistory {
    /// History remembering the last `capacity` evictions.
    pub fn new(capacity: usize) -> Self {
        EvictionHistory { map: IdMap::default(), fifo: VecDeque::new(), capacity: capacity.max(1) }
    }

    /// Record an eviction (most recent record wins for repeated ids).
    pub fn record(&mut self, id: ObjId, rec: EvictionRecord) {
        if self.map.insert(id, rec).is_none() {
            self.fifo.push_back(id);
        }
        while self.fifo.len() > self.capacity {
            let old = self.fifo.pop_front().unwrap();
            self.map.remove(&old);
        }
    }

    /// Lookup by object id.
    pub fn get(&self, id: ObjId) -> Option<&EvictionRecord> {
        self.map.get(&id)
    }

    /// Number of remembered evictions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the history empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_indexing() {
        let sorted = vec![10, 20, 30, 40, 50];
        assert_eq!(AggregateTracker::pct_of(&sorted, 0), 10);
        assert_eq!(AggregateTracker::pct_of(&sorted, 50), 30);
        assert_eq!(AggregateTracker::pct_of(&sorted, 100), 50);
        assert_eq!(AggregateTracker::pct_of(&sorted, 75), 40);
        assert_eq!(AggregateTracker::pct_of(&[], 50), 0);
    }

    #[test]
    fn history_bounded_and_overwrites() {
        let mut h = EvictionHistory::new(3);
        for i in 0..5u64 {
            h.record(i, EvictionRecord { evict_vtime: i, access_count: 1, age_at_evict: 0 });
        }
        assert_eq!(h.len(), 3);
        assert!(h.get(0).is_none() && h.get(1).is_none());
        assert!(h.get(4).is_some());
        // re-record an existing id: updates in place, no duplicate
        h.record(4, EvictionRecord { evict_vtime: 99, access_count: 7, age_at_evict: 5 });
        assert_eq!(h.len(), 3);
        assert_eq!(h.get(4).unwrap().access_count, 7);
    }

    #[test]
    fn resident_tracking() {
        let mut t = AggregateTracker::new(100, Tables::ALL);
        for slot in 0..10 {
            t.insert(slot);
        }
        t.remove(3);
        t.remove(9);
        t.remove(3); // already gone: no-op
        t.remove(42); // never seen: no-op
        assert_eq!(t.len(), 8);
        // every survivor is still where `pos` says, so it can be removed
        for slot in [0, 1, 2, 4, 5, 6, 7, 8] {
            assert_eq!(t.residents[t.pos[slot as usize] as usize], slot);
            t.remove(slot);
        }
        assert!(t.is_empty());
        t.insert(3); // a freed slot comes back
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn table_sets() {
        let t = Tables::read_by(&[Feature::ObjAge, Feature::SizesPct(75), Feature::AgesPct(10)]);
        assert_eq!(t, Tables { counts: false, ages: true, sizes: true });
        assert!(t.any() && !Tables::default().any());
        assert!(Tables::ALL.covers(t) && t.covers(t) && t.covers(Tables::default()));
        assert!(!t.covers(Tables::ALL) && !Tables::default().covers(t));
    }

    #[test]
    fn ages_percentile_uses_query_clock() {
        let mut t = AggregateTracker::new(1, Tables::ALL);
        t.last_access = vec![10, 20, 30, 40, 50];
        // p75 oldest age ↔ 25th percentile of last_access = 20
        assert_eq!(t.ages_pct(75, 100), 80);
        // same snapshot, later clock: ages grow
        assert_eq!(t.ages_pct(75, 200), 180);
        // youngest (p0) age ↔ newest last_access
        assert_eq!(t.ages_pct(0, 100), 50);
    }
}
