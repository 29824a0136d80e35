//! The cache engine: residency, byte accounting, and the [`Policy`] trait.
//!
//! Mirrors libCacheSim's event-driven design (the substrate the paper's §4
//! prototype builds on): the engine owns the object table and capacity
//! bookkeeping; a pluggable eviction policy owns the *decision* state and is
//! driven by callbacks. One `simulate` run is a pure function of
//! `(trace, capacity, policy)`.
//!
//! The object table is a slab: one id → slot map, metadata in a dense
//! `Vec` indexed by slot, freed slots reused (memory stays O(resident)).
//! The engine hashes an id once per request and hands the policy the
//! *slot* of the object each callback is about ([`CacheView::subject`]),
//! so a policy that keeps per-object state can index plain vectors by it
//! instead of hashing the id again; [`CacheView::meta`] still answers by
//! id for policies that address objects that way.
//!
//! Virtual time is the request index (`vtime`), the convention libCacheSim
//! uses for age-based features; wall-clock microseconds from the trace are
//! also available in [`ObjMeta`] for policies that want them.

use policysmith_traces::{IdMap, Request, Trace};

/// Object identifier (trace object id).
pub type ObjId = u64;

/// Engine-owned metadata for a resident object — the "per object" feature
/// block of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjMeta {
    /// Object size in bytes.
    pub size: u32,
    /// Virtual time (request index) of insertion.
    pub insert_vtime: u64,
    /// Virtual time of the most recent access.
    pub last_vtime: u64,
    /// Wall time (µs) of the most recent access.
    pub last_us: u64,
    /// Accesses since insertion, counting the inserting miss.
    pub access_count: u64,
}

/// Read-only view of engine state passed to policy callbacks.
pub struct CacheView<'a> {
    index: &'a IdMap<ObjId, u32>,
    slab: &'a [ObjMeta],
    subject: Option<u32>,
    pub vtime: u64,
    pub now_us: u64,
    pub used_bytes: u64,
    pub capacity_bytes: u64,
}

impl<'a> CacheView<'a> {
    /// Metadata of a resident object.
    pub fn meta(&self, id: ObjId) -> Option<&ObjMeta> {
        self.index.get(&id).map(|&slot| &self.slab[slot as usize])
    }

    /// Slot of the object this callback is about: the `id` handed to
    /// `on_hit`, `on_evict` and `on_insert`. `None` in `on_miss` (the
    /// object is not resident) and `victim` (there is no object yet).
    ///
    /// A slot identifies its object from `on_insert` until `on_evict`
    /// returns; afterwards the engine hands it to the next insertion.
    pub fn subject(&self) -> Option<u32> {
        self.subject
    }

    /// Metadata of the resident object in `slot` — [`meta`](Self::meta)
    /// without the hash lookup.
    ///
    /// # Panics
    /// If the engine never issued `slot`. A freed slot reads as whatever
    /// object held it last.
    pub fn meta_at(&self, slot: u32) -> &ObjMeta {
        &self.slab[slot as usize]
    }

    /// Number of resident objects.
    pub fn num_objects(&self) -> usize {
        self.index.len()
    }
}

/// An eviction policy. The engine guarantees the callback discipline:
///
/// * `on_hit(id)` — `id` is resident; meta already updated for this access.
/// * `on_miss(id)` — `id` is not resident (ghost bookkeeping hook); called
///   before any insertion/eviction for this request.
/// * `victim()` — must return a currently-resident object; called once per
///   eviction (repeatedly for one insertion if space demands). May mutate
///   internal structures (hand movement, queue migration, …).
/// * `on_evict(id)` — the engine is evicting `id` (meta still readable).
/// * `on_insert(id)` — `id` just became resident.
///
/// In `on_hit`, `on_evict` and `on_insert` the view's
/// [`subject`](CacheView::subject) is `id`'s slot.
pub trait Policy {
    /// Display name (stable; used in experiment tables).
    fn name(&self) -> &str;

    /// A resident object was accessed.
    fn on_hit(&mut self, id: ObjId, view: &CacheView<'_>);

    /// A non-resident object was requested (before insertion).
    fn on_miss(&mut self, _id: ObjId, _view: &CacheView<'_>) {}

    /// Choose the object to evict.
    fn victim(&mut self, view: &CacheView<'_>) -> ObjId;

    /// The engine is evicting `id`.
    fn on_evict(&mut self, id: ObjId, view: &CacheView<'_>);

    /// `id` just became resident.
    fn on_insert(&mut self, id: ObjId, view: &CacheView<'_>);
}

/// Aggregate counters of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimResult {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Requests whose object exceeds the whole capacity (never cached).
    pub bypasses: u64,
    pub hit_bytes: u64,
    pub miss_bytes: u64,
}

impl SimResult {
    /// Object miss ratio — the paper's §4 objective.
    pub fn miss_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.misses as f64 / self.requests as f64
        }
    }
}

/// The cache engine.
pub struct Cache<P: Policy> {
    pub policy: P,
    /// Resident id → slot in `slab`.
    index: IdMap<ObjId, u32>,
    /// Metadata by slot; a slot on `free` holds its last tenant's.
    slab: Vec<ObjMeta>,
    free: Vec<u32>,
    used_bytes: u64,
    capacity_bytes: u64,
    vtime: u64,
    now_us: u64,
    result: SimResult,
}

/// Construct a `CacheView` borrowing only the engine's data fields, leaving
/// `self.policy` free for the simultaneous `&mut` the callbacks need.
macro_rules! engine_view {
    ($self:ident, $subject:expr) => {
        CacheView {
            index: &$self.index,
            slab: &$self.slab,
            subject: $subject,
            vtime: $self.vtime,
            now_us: $self.now_us,
            used_bytes: $self.used_bytes,
            capacity_bytes: $self.capacity_bytes,
        }
    };
}

impl<P: Policy> Cache<P> {
    /// Create a cache of `capacity_bytes` driven by `policy`.
    pub fn new(capacity_bytes: u64, policy: P) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        Cache {
            policy,
            index: IdMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            used_bytes: 0,
            capacity_bytes,
            vtime: 0,
            now_us: 0,
            result: SimResult::default(),
        }
    }

    /// Snapshot view for assertions; the hot path uses `engine_view!` to
    /// split borrows with `self.policy`.
    #[cfg(test)]
    fn view(&self) -> CacheView<'_> {
        engine_view!(self, None)
    }

    /// Process one request; returns `true` on hit.
    pub fn request(&mut self, req: &Request) -> bool {
        self.vtime += 1;
        self.now_us = req.time_us;
        self.result.requests += 1;

        if let Some(&slot) = self.index.get(&req.obj) {
            let meta = &mut self.slab[slot as usize];
            meta.access_count += 1;
            meta.last_vtime = self.vtime;
            meta.last_us = req.time_us;
            self.result.hits += 1;
            self.result.hit_bytes += meta.size as u64;
            let view = engine_view!(self, Some(slot));
            self.policy.on_hit(req.obj, &view);
            return true;
        }

        self.result.misses += 1;
        self.result.miss_bytes += req.size as u64;
        let view = engine_view!(self, None);
        self.policy.on_miss(req.obj, &view);

        if req.size as u64 > self.capacity_bytes {
            self.result.bypasses += 1;
            return false;
        }

        // Make room.
        while self.used_bytes + req.size as u64 > self.capacity_bytes {
            let view = engine_view!(self, None);
            let victim = self.policy.victim(&view);
            let slot = *self.index.get(&victim).unwrap_or_else(|| {
                panic!("policy {} evicted non-resident {victim}", self.policy.name())
            });
            let view = engine_view!(self, Some(slot));
            self.policy.on_evict(victim, &view);
            self.index.remove(&victim);
            self.free.push(slot);
            self.used_bytes -= self.slab[slot as usize].size as u64;
            self.result.evictions += 1;
        }

        let meta = ObjMeta {
            size: req.size,
            insert_vtime: self.vtime,
            last_vtime: self.vtime,
            last_us: req.time_us,
            access_count: 1,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = meta;
                slot
            }
            None => {
                self.slab.push(meta);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 resident objects")
            }
        };
        self.index.insert(req.obj, slot);
        self.used_bytes += req.size as u64;
        let view = engine_view!(self, Some(slot));
        self.policy.on_insert(req.obj, &view);
        false
    }

    /// Run a whole trace.
    pub fn run(&mut self, trace: &Trace) -> SimResult {
        for req in &trace.requests {
            self.request(req);
        }
        self.result
    }

    /// Counters so far.
    pub fn result(&self) -> SimResult {
        self.result
    }

    /// Residency check (tests / invariants).
    pub fn contains(&self, id: ObjId) -> bool {
        self.index.contains_key(&id)
    }

    /// Bytes currently used.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Configured capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of resident objects.
    pub fn num_objects(&self) -> usize {
        self.index.len()
    }

    /// Check the slab's bookkeeping: every slot is either one resident's
    /// or on the free list, and never both or twice. Walks the whole
    /// table; compiled to nothing without debug assertions.
    pub fn debug_check_slots(&self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(self.index.len() + self.free.len(), self.slab.len(), "a slot leaked");
            let mut seen = vec![false; self.slab.len()];
            for &slot in self.index.values().chain(&self.free) {
                assert!(!std::mem::replace(&mut seen[slot as usize], true), "slot {slot} twice");
            }
        }
    }
}

/// Convenience: simulate `trace` at `capacity_bytes` under `policy`.
pub fn simulate<P: Policy>(trace: &Trace, capacity_bytes: u64, policy: P) -> SimResult {
    Cache::new(capacity_bytes, policy).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_traces::{OpKind, Request};

    /// FIFO test double local to the engine tests.
    struct TestFifo {
        queue: std::collections::VecDeque<ObjId>,
    }

    impl Policy for TestFifo {
        fn name(&self) -> &str {
            "test-fifo"
        }
        fn on_hit(&mut self, _id: ObjId, _view: &CacheView<'_>) {}
        fn victim(&mut self, _view: &CacheView<'_>) -> ObjId {
            *self.queue.front().expect("victim from empty queue")
        }
        fn on_evict(&mut self, id: ObjId, _view: &CacheView<'_>) {
            let pos = self.queue.iter().position(|&x| x == id).unwrap();
            self.queue.remove(pos);
        }
        fn on_insert(&mut self, id: ObjId, _view: &CacheView<'_>) {
            self.queue.push_back(id);
        }
    }

    fn req(t: u64, obj: u64, size: u32) -> Request {
        Request { time_us: t, obj, size, op: OpKind::Read }
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = Cache::new(1000, TestFifo { queue: Default::default() });
        assert!(!c.request(&req(1, 1, 100))); // miss
        assert!(c.request(&req(2, 1, 100))); // hit
        assert!(!c.request(&req(3, 2, 100))); // miss
        let r = c.result();
        assert_eq!(r.requests, 3);
        assert_eq!(r.hits, 1);
        assert_eq!(r.misses, 2);
        assert_eq!(c.used_bytes(), 200);
        assert_eq!(c.num_objects(), 2);
    }

    #[test]
    fn eviction_when_full() {
        let mut c = Cache::new(250, TestFifo { queue: Default::default() });
        c.request(&req(1, 1, 100));
        c.request(&req(2, 2, 100));
        c.request(&req(3, 3, 100)); // evicts obj 1 (FIFO)
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3));
        assert_eq!(c.result().evictions, 1);
        assert!(c.used_bytes() <= 250);
    }

    #[test]
    fn multi_eviction_for_large_insert() {
        let mut c = Cache::new(300, TestFifo { queue: Default::default() });
        c.request(&req(1, 1, 100));
        c.request(&req(2, 2, 100));
        c.request(&req(3, 3, 100));
        c.request(&req(4, 4, 250)); // needs to evict 1 and 2 and 3
        assert_eq!(c.result().evictions, 3);
        assert!(c.contains(4));
        assert_eq!(c.num_objects(), 1);
    }

    #[test]
    fn oversized_object_bypasses() {
        let mut c = Cache::new(100, TestFifo { queue: Default::default() });
        c.request(&req(1, 1, 500));
        assert_eq!(c.result().bypasses, 1);
        assert_eq!(c.num_objects(), 0);
        // and again: still a miss, never cached
        c.request(&req(2, 1, 500));
        assert_eq!(c.result().misses, 2);
    }

    #[test]
    fn meta_updated_on_access() {
        let mut c = Cache::new(1000, TestFifo { queue: Default::default() });
        c.request(&req(10, 1, 100));
        c.request(&req(20, 2, 100));
        c.request(&req(30, 1, 100));
        let view = c.view();
        let m = view.meta(1).unwrap();
        assert_eq!(m.access_count, 2);
        assert_eq!(m.insert_vtime, 1);
        assert_eq!(m.last_vtime, 3);
        assert_eq!(m.last_us, 30);
    }

    #[test]
    fn miss_ratio_math() {
        let r = SimResult { requests: 10, hits: 4, misses: 6, ..Default::default() };
        assert!((r.miss_ratio() - 0.6).abs() < 1e-12);
        assert_eq!(SimResult::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Cache::new(0, TestFifo { queue: Default::default() });
    }
}
