//! Table-1 feature infrastructure for the template host: percentile
//! aggregates over the resident set and the recent-eviction history (the
//! bounded eviction memory the baselines' ghost lists use too).
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
use crate::util::XorShiftStar;
use policysmith_dsl::Feature;
use policysmith_traces::IdMap;
use std::collections::hash_map::Entry;
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
    rng: XorShiftStar,
}

impl AggregateTracker {
    /// Tracker keeping `tables`, refreshing every `refresh_interval`
    /// accesses.
    pub fn new(refresh_interval: u64, tables: Tables) -> Self {
        AggregateTracker {
            tables,
            refresh_interval: refresh_interval.max(1),
            rng: XorShiftStar::new(0xa0761d6478bd642f),
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
            let r = self.rng.next_u64();
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

/// A bounded memory of evicted ids, each with a value: the template host's
/// eviction history (`hist.*` features, values [`EvictionRecord`]s), and
/// the baselines' ghost lists. Its rules, in one place:
///
/// * a new id goes to the back;
/// * a present id keeps its place and takes the new value;
/// * the oldest entries go first — past the count bound when
///   [`record`](Self::record) trims, and through
///   [`pop_oldest`](Self::pop_oldest) for budgets in bytes.
#[derive(Debug, Clone)]
pub struct EvictionHistory<V = EvictionRecord> {
    /// Present ids: value, and the stamp of their entry in `order`.
    map: IdMap<ObjId, (V, u64)>,
    /// Ids oldest first, each with the stamp it was recorded under. An
    /// entry whose stamp is no longer its id's in `map` was taken, and is
    /// skipped.
    order: VecDeque<(ObjId, u64)>,
    stamps: u64,
    capacity: usize,
}

/// No count bound: a byte-budgeted ghost trims itself with
/// [`EvictionHistory::pop_oldest`].
impl<V> Default for EvictionHistory<V> {
    fn default() -> Self {
        Self::new(usize::MAX)
    }
}

impl<V> EvictionHistory<V> {
    /// Memory of at most `capacity` ids.
    pub fn new(capacity: usize) -> Self {
        EvictionHistory {
            map: IdMap::default(),
            order: VecDeque::new(),
            stamps: 0,
            capacity: capacity.max(1),
        }
    }

    /// Change the count bound; the next [`record`](Self::record) trims to
    /// it.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
    }

    /// Remember `value` for `id`, then forget the oldest ids past the count
    /// bound. Returns the value `id` had.
    pub fn record(&mut self, id: ObjId, value: V) -> Option<V> {
        let old = match self.map.entry(id) {
            Entry::Occupied(mut e) => Some(std::mem::replace(&mut e.get_mut().0, value)),
            Entry::Vacant(e) => {
                self.stamps += 1;
                e.insert((value, self.stamps));
                self.order.push_back((id, self.stamps));
                None
            }
        };
        while self.map.len() > self.capacity {
            self.pop_oldest();
        }
        old
    }

    /// Lookup by object id.
    pub fn get(&self, id: ObjId) -> Option<&V> {
        self.map.get(&id).map(|(value, _)| value)
    }

    /// Is `id` remembered?
    pub fn contains(&self, id: ObjId) -> bool {
        self.map.contains_key(&id)
    }

    /// Forget `id`, wherever it stands; returns its value.
    pub fn take(&mut self, id: ObjId) -> Option<V> {
        let (value, _) = self.map.remove(&id)?;
        // Its `order` entry goes stale; sweep once stale ones dominate.
        if self.order.len() > 2 * self.map.len() + 32 {
            let map = &self.map;
            self.order.retain(|(id, stamp)| map.get(id).is_some_and(|e| e.1 == *stamp));
        }
        Some(value)
    }

    /// Forget the oldest id; returns it with its value.
    pub fn pop_oldest(&mut self) -> Option<(ObjId, V)> {
        while let Some((id, stamp)) = self.order.pop_front() {
            if let Entry::Occupied(e) = self.map.entry(id) {
                if e.get().1 == stamp {
                    return Some((id, e.remove().0));
                }
            }
        }
        None
    }

    /// Number of remembered ids.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the memory empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Evicted ids with their sizes, kept within a byte budget: ARC's ghost
/// lists and 2Q's `A1out`. An [`EvictionHistory`] with no count bound, and
/// the sum of the sizes it holds.
#[derive(Debug, Default)]
pub(crate) struct SizedGhosts {
    ids: EvictionHistory<u32>,
    bytes: u64,
}

impl SizedGhosts {
    /// Remember `id`, then forget the oldest ghosts until the rest fit in
    /// `limit` bytes.
    pub(crate) fn push(&mut self, id: ObjId, size: u32, limit: u64) {
        let old = self.ids.record(id, size).unwrap_or(0);
        self.bytes = self.bytes + size as u64 - old as u64;
        while self.bytes > limit {
            let Some((_, sz)) = self.ids.pop_oldest() else { break };
            self.bytes -= sz as u64;
        }
    }

    /// Forget `id`; returns whether it was remembered.
    pub(crate) fn take(&mut self, id: ObjId) -> bool {
        let size = self.ids.take(id);
        self.bytes -= size.unwrap_or(0) as u64;
        size.is_some()
    }

    /// Is `id` remembered?
    pub(crate) fn contains(&self, id: ObjId) -> bool {
        self.ids.contains(id)
    }

    /// Sum of the remembered sizes.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of remembered ids.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
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
        // ... and keeps its place: 2 and 3 are still older than 4
        h.record(5, EvictionRecord { evict_vtime: 5, access_count: 1, age_at_evict: 0 });
        assert!(h.get(2).is_none() && h.get(3).is_some() && h.get(4).is_some());

        // take from the middle: the rest keep their order
        let mut g: EvictionHistory<u32> = EvictionHistory::default();
        for id in 0..5 {
            assert_eq!(g.record(id, 100 + id as u32), None);
        }
        assert_eq!(g.take(2), Some(102));
        assert_eq!(g.take(2), None);
        assert!(!g.contains(2) && g.len() == 4);
        // a taken id comes back at the back, not at its old place
        g.record(2, 7);
        assert_eq!(g.record(1, 50), Some(101));
        // byte-budget trim: drop the oldest until the sizes fit
        let mut bytes: u64 = [0, 1, 3, 4, 2].iter().map(|&id| *g.get(id).unwrap() as u64).sum();
        let mut dropped = Vec::new();
        while bytes > 200 {
            let (id, size) = g.pop_oldest().unwrap();
            bytes -= size as u64;
            dropped.push(id);
        }
        assert_eq!(dropped, [0, 1, 3]);
        assert_eq!((g.len(), bytes), (2, 104 + 7));
        assert_eq!(g.pop_oldest(), Some((4, 104)));
        assert_eq!(g.pop_oldest(), Some((2, 7)));
        assert_eq!(g.pop_oldest(), None);
    }

    #[test]
    fn history_takes_stay_bounded() {
        // ghost-hit churn: every remembered id is taken again at once
        let mut g: EvictionHistory<()> = EvictionHistory::new(8);
        for id in 0..10_000 {
            g.record(id, ());
            g.take(id);
        }
        assert!(g.is_empty() && g.order.len() <= 32 + 1);
        g.set_capacity(2);
        for id in 0..3 {
            g.record(id, ());
        }
        assert!(!g.contains(0) && g.contains(1) && g.contains(2));
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
