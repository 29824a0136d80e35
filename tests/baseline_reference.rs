//! Reference models for cache baselines, written from each policy's
//! published rule, held to `cachesim` request by request: the same hit or
//! miss on every request of short dataset traces, in the unit-size regime
//! (every object one byte, the cache a number of objects). A golden pins
//! whatever the code does; these pin what the policy is.
//!
//! The models are deliberately plain — a `Vec` scanned per request — so
//! that reading one is checking it.
//!
//! * FIFO: evict the oldest insertion; hits change nothing.
//! * LRU: evict the least recently requested.
//! * MRU: evict the most recently requested.
//! * LFU: evict the fewest requests since insertion, the oldest insertion
//!   among ties.
//! * FIFO-Reinsertion, or CLOCK (Corbató's second chance): a hit sets the
//!   object's bit; to evict, take the oldest insertion, and while its bit
//!   is set, clear it and send the object to the back as if newly
//!   inserted.
//! * SIEVE (Zhang et al., NSDI '24): new objects enter at the head; a hit
//!   sets the object's visited bit; to evict, a hand walks from where it
//!   last stopped (the tail at first) toward the head, clearing visited
//!   bits and wrapping from the head to the tail, and evicts the first
//!   unvisited object, stopping at its neighbour toward the head.

use policysmith::cachesim::{policies, Cache};
use policysmith::traces::{cloudphysics, msr, Request, Trace};
use std::collections::HashSet;

const REQUESTS: usize = 3_000;

/// A reference model: answers one request, hit or miss.
trait Reference {
    fn request(&mut self, obj: u64) -> bool;
}

/// A resident object: its requests since insertion, and when it was
/// inserted and last requested.
struct Entry {
    obj: u64,
    count: u64,
    inserted: u64,
    last: u64,
}

/// FIFO, LRU, MRU and LFU: one entry per resident object, evicting the one
/// with the smallest key.
struct Keyed {
    capacity: usize,
    resident: Vec<Entry>,
    clock: u64,
    key: fn(&Entry) -> (u64, u64),
}

impl Reference for Keyed {
    fn request(&mut self, obj: u64) -> bool {
        self.clock += 1;
        if let Some(e) = self.resident.iter_mut().find(|e| e.obj == obj) {
            e.count += 1;
            e.last = self.clock;
            return true;
        }
        if self.resident.len() == self.capacity {
            let key = self.key;
            let victim = (0..self.resident.len()).min_by_key(|&i| key(&self.resident[i])).unwrap();
            self.resident.remove(victim);
        }
        self.resident.push(Entry { obj, count: 1, inserted: self.clock, last: self.clock });
        false
    }
}

fn fifo(capacity: usize) -> Keyed {
    Keyed { capacity, resident: Vec::new(), clock: 0, key: |e| (e.inserted, 0) }
}

fn lru(capacity: usize) -> Keyed {
    Keyed { capacity, resident: Vec::new(), clock: 0, key: |e| (e.last, 0) }
}

fn mru(capacity: usize) -> Keyed {
    Keyed { capacity, resident: Vec::new(), clock: 0, key: |e| (u64::MAX - e.last, 0) }
}

fn lfu(capacity: usize) -> Keyed {
    Keyed { capacity, resident: Vec::new(), clock: 0, key: |e| (e.count, e.inserted) }
}

/// SIEVE: `queue[0]` is the tail (oldest), the last entry the head.
struct Sieve {
    capacity: usize,
    /// `(object, visited)`.
    queue: Vec<(u64, bool)>,
    /// Where the hand stopped; `None` starts it at the tail.
    hand: Option<usize>,
}

impl Reference for Sieve {
    fn request(&mut self, obj: u64) -> bool {
        if let Some(e) = self.queue.iter_mut().find(|e| e.0 == obj) {
            e.1 = true;
            return true;
        }
        if self.queue.len() == self.capacity {
            let mut h = self.hand.unwrap_or(0);
            while self.queue[h].1 {
                self.queue[h].1 = false;
                h = (h + 1) % self.queue.len();
            }
            self.queue.remove(h);
            // the neighbour toward the head slid into `h`; past the head,
            // the next sweep starts at the tail
            self.hand = (h < self.queue.len()).then_some(h);
        }
        self.queue.push((obj, false));
        false
    }
}

/// FIFO-Reinsertion: `queue[0]` is the front (oldest), the last entry the
/// back.
struct FifoReinsertion {
    capacity: usize,
    /// `(object, bit)`.
    queue: Vec<(u64, bool)>,
}

impl Reference for FifoReinsertion {
    fn request(&mut self, obj: u64) -> bool {
        if let Some(e) = self.queue.iter_mut().find(|e| e.0 == obj) {
            e.1 = true;
            return true;
        }
        if self.queue.len() == self.capacity {
            while self.queue[0].1 {
                let (front, _) = self.queue.remove(0);
                self.queue.push((front, false));
            }
            self.queue.remove(0);
        }
        self.queue.push((obj, false));
        false
    }
}

/// `trace` with every object one byte.
fn unit_size(trace: &Trace) -> Vec<Request> {
    trace.requests.iter().map(|r| Request { size: 1, ..*r }).collect()
}

fn traces() -> Vec<Trace> {
    [7, 42, 89]
        .map(|i| cloudphysics().trace(i, REQUESTS))
        .into_iter()
        .chain([0, 5].map(|i| msr().trace(i, REQUESTS)))
        .collect()
}

/// Hold `name`'s `cachesim` implementation to `reference`, request by
/// request, on every trace at a tenth and at a half of its distinct
/// objects.
fn matches_reference(name: &str, reference: impl Fn(usize) -> Box<dyn Reference>) {
    for trace in traces() {
        let requests = unit_size(&trace);
        let distinct = requests.iter().map(|r| r.obj).collect::<HashSet<_>>().len();
        for capacity in [(distinct / 10).max(2), distinct / 2] {
            let mut cache = Cache::new(capacity as u64, policies::by_name(name).unwrap());
            let mut model = reference(capacity);
            for (i, r) in requests.iter().enumerate() {
                assert_eq!(
                    cache.request(r),
                    model.request(r.obj),
                    "{name} on {} with room for {capacity}: request #{i} (object {})",
                    trace.name,
                    r.obj
                );
            }
        }
    }
}

#[test]
fn fifo_matches_its_reference() {
    matches_reference("FIFO", |c| Box::new(fifo(c)));
}

#[test]
fn lru_matches_its_reference() {
    matches_reference("LRU", |c| Box::new(lru(c)));
}

#[test]
fn mru_matches_its_reference() {
    matches_reference("MRU", |c| Box::new(mru(c)));
}

#[test]
fn lfu_matches_its_reference() {
    matches_reference("LFU", |c| Box::new(lfu(c)));
}

#[test]
fn sieve_matches_its_reference() {
    matches_reference("SIEVE", |c| Box::new(Sieve { capacity: c, queue: Vec::new(), hand: None }));
}

#[test]
fn fifo_re_matches_its_reference() {
    matches_reference("FIFO-Re", |c| Box::new(FifoReinsertion { capacity: c, queue: Vec::new() }));
}

#[test]
fn the_traces_tell_the_six_rules_apart() {
    // so that matching a reference above singles out one rule
    let misses = |name| -> Vec<u64> {
        let mut out = Vec::new();
        for trace in traces() {
            let unit = Trace::new(trace.name.clone(), unit_size(&trace));
            let capacity =
                (unit.requests.iter().map(|r| r.obj).collect::<HashSet<_>>().len() / 10).max(2);
            out.push(
                Cache::new(capacity as u64, policies::by_name(name).unwrap()).run(&unit).misses,
            );
        }
        out
    };
    let all = ["FIFO", "LRU", "MRU", "LFU", "FIFO-Re", "SIEVE"].map(misses);
    for i in 0..all.len() {
        for j in i + 1..all.len() {
            assert_ne!(all[i], all[j], "two rules missed alike on every trace");
        }
    }
}
