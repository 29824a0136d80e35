//! Shared policy building blocks — one copy of each piece of bookkeeping
//! the baselines share:
//!
//! * [`LinkedQueue`] — an arena-backed intrusive doubly-linked list with a
//!   key index: O(1) push/pop/remove/move at either end, plus neighbour
//!   queries for hand-based policies (SIEVE, Clock). This is the workhorse
//!   of every recency-ordered baseline, and its index is how a policy with
//!   several queues (ARC, 2Q, S3-FIFO) asks where a resident is.
//! * [`Ranking`] — ids ordered by a key, ties oldest-first: the LFU
//!   family's frequency order and GDSF's priority order.
//! * [`OrderedF64`] — total order for non-NaN floats, for priority-ordered
//!   policies (GDSF).
//! * [`XorShiftStar`] — the one xorshift64* generator: the sampling and
//!   expert draws of LHD, LeCaR and CACHEUS, and the percentile tracker's
//!   sample.
//! * [`EvictionHistory`](crate::features::EvictionHistory) — the one
//!   bounded memory of evicted ids (in `features`, where the template
//!   host's `hist.*` features read it): the ghost lists of ARC, 2Q,
//!   CR-LRU, CACHEUS and LeCaR (ARC's and 2Q's through
//!   `features::SizedGhosts`, which adds their byte budget).
//!
//! Object-id maps and sets are [`policysmith_traces::IdMap`] and
//! [`policysmith_traces::IdSet`], the workspace's one id hasher.

use crate::engine::ObjId;
use policysmith_traces::IdMap;
use std::collections::BTreeMap;

/// Arena node.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: Option<usize>,
    next: Option<usize>,
}

/// A doubly-linked queue of unique `u64` keys with O(1) membership,
/// removal, and repositioning. "Front" and "back" are arbitrary ends —
/// policies document their own orientation (e.g. LRU: front = most recent).
#[derive(Debug, Default, Clone)]
pub struct LinkedQueue {
    nodes: Vec<Node>,
    free: Vec<usize>,
    index: IdMap<u64, usize>,
    head: Option<usize>,
    tail: Option<usize>,
}

impl LinkedQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Is `key` present?
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Key at the front, if any.
    pub fn front(&self) -> Option<u64> {
        self.head.map(|i| self.nodes[i].key)
    }

    /// Key at the back, if any.
    pub fn back(&self) -> Option<u64> {
        self.tail.map(|i| self.nodes[i].key)
    }

    fn alloc(&mut self, key: u64) -> usize {
        let node = Node { key, prev: None, next: None };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Insert `key` at the front. Panics if already present.
    pub fn push_front(&mut self, key: u64) {
        assert!(!self.contains(key), "duplicate key {key}");
        let i = self.alloc(key);
        self.nodes[i].next = self.head;
        if let Some(h) = self.head {
            self.nodes[h].prev = Some(i);
        }
        self.head = Some(i);
        if self.tail.is_none() {
            self.tail = Some(i);
        }
        self.index.insert(key, i);
    }

    /// Insert `key` at the back. Panics if already present.
    pub fn push_back(&mut self, key: u64) {
        assert!(!self.contains(key), "duplicate key {key}");
        let i = self.alloc(key);
        self.nodes[i].prev = self.tail;
        if let Some(t) = self.tail {
            self.nodes[t].next = Some(i);
        }
        self.tail = Some(i);
        if self.head.is_none() {
            self.head = Some(i);
        }
        self.index.insert(key, i);
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(nx) => self.nodes[nx].prev = prev,
            None => self.tail = prev,
        }
        self.nodes[i].prev = None;
        self.nodes[i].next = None;
    }

    /// Remove `key`; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.index.remove(&key) {
            Some(i) => {
                self.unlink(i);
                self.free.push(i);
                true
            }
            None => false,
        }
    }

    /// Remove and return the front key.
    pub fn pop_front(&mut self) -> Option<u64> {
        let key = self.front()?;
        self.remove(key);
        Some(key)
    }

    /// Remove and return the back key.
    pub fn pop_back(&mut self) -> Option<u64> {
        let key = self.back()?;
        self.remove(key);
        Some(key)
    }

    /// Move an existing key to the front. Panics if absent.
    pub fn move_to_front(&mut self, key: u64) {
        let i = *self.index.get(&key).expect("move_to_front of absent key");
        if self.head == Some(i) {
            return;
        }
        self.unlink(i);
        self.nodes[i].next = self.head;
        if let Some(h) = self.head {
            self.nodes[h].prev = Some(i);
        }
        self.head = Some(i);
        if self.tail.is_none() {
            self.tail = Some(i);
        }
    }

    /// Move an existing key to the back. Panics if absent.
    pub fn move_to_back(&mut self, key: u64) {
        let i = *self.index.get(&key).expect("move_to_back of absent key");
        if self.tail == Some(i) {
            return;
        }
        self.unlink(i);
        self.nodes[i].prev = self.tail;
        if let Some(t) = self.tail {
            self.nodes[t].next = Some(i);
        }
        self.tail = Some(i);
        if self.head.is_none() {
            self.head = Some(i);
        }
    }

    /// Neighbour of `key` toward the front.
    pub fn prev_of(&self, key: u64) -> Option<u64> {
        let i = *self.index.get(&key)?;
        self.nodes[i].prev.map(|p| self.nodes[p].key)
    }

    /// Iterate keys front → back.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        LinkedQueueIter { q: self, cur: self.head }
    }
}

struct LinkedQueueIter<'a> {
    q: &'a LinkedQueue,
    cur: Option<usize>,
}

impl Iterator for LinkedQueueIter<'_> {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        let i = self.cur?;
        self.cur = self.q.nodes[i].next;
        Some(self.q.nodes[i].key)
    }
}

/// Ids ordered by a key `K`, the minimum first. Equal keys go oldest-first:
/// each id takes an arrival number when it enters, and keeps it when
/// [`set`](Ranking::set) changes its key, until it is removed.
#[derive(Debug, Clone)]
pub struct Ranking<K> {
    order: BTreeMap<(K, u64), ObjId>,
    entry: IdMap<ObjId, (K, u64)>,
    arrivals: u64,
}

impl<K> Default for Ranking<K> {
    fn default() -> Self {
        Ranking { order: BTreeMap::new(), entry: IdMap::default(), arrivals: 0 }
    }
}

impl<K: Ord + Copy> Ranking<K> {
    /// Empty ranking.
    pub fn new() -> Self {
        Self::default()
    }

    /// Give `id` the key `key`: a new id arrives behind every id already
    /// present, a present one keeps its arrival.
    pub fn set(&mut self, id: ObjId, key: K) {
        let arrival = match self.entry.get(&id) {
            Some(&(old, arrival)) => {
                self.order.remove(&(old, arrival));
                arrival
            }
            None => {
                self.arrivals += 1;
                self.arrivals
            }
        };
        self.order.insert((key, arrival), id);
        self.entry.insert(id, (key, arrival));
    }

    /// Key of `id`, if ranked.
    pub fn get(&self, id: ObjId) -> Option<K> {
        self.entry.get(&id).map(|&(key, _)| key)
    }

    /// Unrank `id`; returns its key.
    pub fn remove(&mut self, id: ObjId) -> Option<K> {
        let (key, arrival) = self.entry.remove(&id)?;
        self.order.remove(&(key, arrival));
        Some(key)
    }

    /// The id with the smallest key (the oldest among equals).
    pub fn first(&self) -> Option<ObjId> {
        self.order.first_key_value().map(|(_, &id)| id)
    }

    /// Number of ranked ids.
    pub fn len(&self) -> usize {
        self.entry.len()
    }

    /// Is the ranking empty?
    pub fn is_empty(&self) -> bool {
        self.entry.is_empty()
    }
}

/// xorshift64* (Vigna): a small deterministic generator. A zero seed stays
/// at zero.
#[derive(Debug, Default, Clone)]
pub struct XorShiftStar(u64);

impl XorShiftStar {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        XorShiftStar(seed)
    }

    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Next draw in `[0, 1)`, from the top 53 bits.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A totally-ordered `f64` (panics on NaN at construction). Lets priority
/// policies rank by a float ([`Ranking`]`<(OrderedF64, ObjId)>`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wrap a non-NaN float.
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "OrderedF64 cannot hold NaN");
        OrderedF64(v)
    }

    /// Unwrap.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrderedF64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("no NaN by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_orientation() {
        let mut q = LinkedQueue::new();
        q.push_front(1);
        q.push_front(2);
        q.push_back(3);
        // order: 2, 1, 3
        assert_eq!(q.front(), Some(2));
        assert_eq!(q.back(), Some(3));
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![2, 1, 3]);
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.pop_back(), Some(3));
        assert_eq!(q.pop_back(), Some(1));
        assert_eq!(q.pop_back(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn remove_and_reuse() {
        let mut q = LinkedQueue::new();
        for k in 0..10 {
            q.push_back(k);
        }
        assert!(q.remove(5));
        assert!(!q.remove(5));
        assert!(!q.contains(5));
        assert_eq!(q.len(), 9);
        // arena slot is recycled
        q.push_back(100);
        assert_eq!(q.len(), 10);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 6, 7, 8, 9, 100]);
    }

    #[test]
    fn move_operations() {
        let mut q = LinkedQueue::new();
        for k in 0..5 {
            q.push_back(k);
        }
        q.move_to_front(3);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![3, 0, 1, 2, 4]);
        q.move_to_back(3);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![0, 1, 2, 4, 3]);
        // no-ops on already-positioned keys
        q.move_to_front(0);
        q.move_to_back(3);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![0, 1, 2, 4, 3]);
    }

    #[test]
    fn neighbours() {
        let mut q = LinkedQueue::new();
        for k in [10, 20, 30] {
            q.push_back(k);
        }
        assert_eq!(q.prev_of(20), Some(10));
        assert_eq!(q.prev_of(10), None);
        assert_eq!(q.prev_of(99), None);
    }

    #[test]
    fn singleton_edge_cases() {
        let mut q = LinkedQueue::new();
        q.push_back(7);
        q.move_to_front(7);
        q.move_to_back(7);
        assert_eq!(q.front(), Some(7));
        assert_eq!(q.back(), Some(7));
        assert_eq!(q.pop_front(), Some(7));
        assert!(q.is_empty());
        assert_eq!(q.front(), None);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_panics() {
        let mut q = LinkedQueue::new();
        q.push_back(1);
        q.push_front(1);
    }

    #[test]
    fn ranking_orders_by_key_then_arrival() {
        let mut r = Ranking::new();
        for id in [30, 10, 20] {
            r.set(id, 1u64);
        }
        // equal keys: the first to arrive is the minimum, not the least id
        assert_eq!(r.first(), Some(30));
        r.set(30, 2);
        assert_eq!(r.first(), Some(10));
        // a re-keyed id keeps its arrival: back at key 1 it is first again
        r.set(30, 1);
        assert_eq!(r.first(), Some(30));
        assert_eq!(r.remove(30), Some(1));
        assert_eq!(r.remove(30), None);
        // a removed id arrives anew, behind the others
        r.set(30, 1);
        assert_eq!((r.first(), r.get(30), r.len()), (Some(10), Some(1), 3));
        r.set(10, 5);
        r.set(20, 5);
        r.set(30, 5);
        assert_eq!(r.first(), Some(10));
    }

    #[test]
    fn xorshift_star_is_the_reference_sequence() {
        // Vigna's xorshift64*: shifts 12, 25, 27, then the odd multiplier
        let mut g = XorShiftStar::new(0x9e3779b97f4a7c15);
        let first: Vec<u64> = (0..3).map(|_| g.next_u64()).collect();
        assert_eq!(first, [0xd83b3e29a21487a, 0x54c44c79f1fe9d67, 0xa845f342007a0e78]);
        let u = g.next_unit();
        assert!((0.0..1.0).contains(&u));
        assert_eq!(XorShiftStar::default().next_u64(), 0);
    }

    #[test]
    fn ordered_f64_ordering() {
        let mut v = [OrderedF64::new(3.5), OrderedF64::new(-1.0), OrderedF64::new(0.0)];
        v.sort();
        assert_eq!(v.iter().map(|x| x.get()).collect::<Vec<_>>(), vec![-1.0, 0.0, 3.5]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ordered_f64_rejects_nan() {
        OrderedF64::new(f64::NAN);
    }
}
