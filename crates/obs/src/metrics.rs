//! The sharded metrics registry: per-worker shards of counters and
//! [`AtomicHistogram`]s.
//!
//! Layout and contract:
//!
//! * Metrics are registered up front (`&mut self`, before workers spawn)
//!   and addressed by copyable ids — no name hashing on the hot path.
//! * Every metric has one slot **per shard**, cache-line padded so
//!   workers never bounce lines. A worker writes only its own shard, with
//!   plain unsynchronized (`Relaxed` load + store) operations — under the
//!   single-writer-per-shard discipline these compile to ordinary loads
//!   and stores.
//! * A reader merges shards lock-free on demand: word-atomic `Relaxed`
//!   loads summed across shards. The view is slightly stale but never
//!   torn, and taking it never stalls a writer.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{AtomicHistogram, LatencyHistogram};
use crate::MetricsSnapshot;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// One cache line per shard per metric: no false sharing between workers.
#[repr(align(64))]
struct Padded(AtomicU64);

impl Padded {
    fn new(v: u64) -> Padded {
        Padded(AtomicU64::new(v))
    }
}

fn shard_row(shards: usize) -> Box<[Padded]> {
    (0..shards).map(|_| Padded::new(0)).collect()
}

/// The registry: named metrics × per-worker shards.
pub struct MetricsRegistry {
    shards: usize,
    counter_names: Vec<String>,
    counters: Vec<Box<[Padded]>>,
    hist_names: Vec<String>,
    hists: Vec<Box<[AtomicHistogram]>>,
}

impl MetricsRegistry {
    /// A registry with `shards` per-worker shards (≥ 1).
    pub fn new(shards: usize) -> MetricsRegistry {
        MetricsRegistry {
            shards: shards.max(1),
            counter_names: Vec::new(),
            counters: Vec::new(),
            hist_names: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Register a monotonic counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.counter_names.push(name.to_string());
        self.counters.push(shard_row(self.shards));
        CounterId(self.counters.len() - 1)
    }

    /// Register a latency histogram.
    pub fn histogram(&mut self, name: &str) -> HistId {
        self.hist_names.push(name.to_string());
        self.hists.push((0..self.shards).map(|_| AtomicHistogram::new()).collect());
        HistId(self.hists.len() - 1)
    }

    /// A writer handle bound to one shard. Cheap and `Copy`; the
    /// single-writer contract is the caller's (one worker per shard).
    pub fn shard(&self, shard: usize) -> Shard<'_> {
        debug_assert!(shard < self.shards);
        Shard { reg: self, shard }
    }

    // ---- reader-side merge (lock-free, any thread, any time) ----

    /// Sum of a counter across shards.
    pub fn counter_total(&self, id: CounterId) -> u64 {
        self.counters[id.0].iter().map(|p| p.0.load(Ordering::Relaxed)).sum()
    }

    /// Per-shard counter values.
    pub fn counter_shards(&self, id: CounterId) -> Vec<u64> {
        self.counters[id.0].iter().map(|p| p.0.load(Ordering::Relaxed)).collect()
    }

    /// All shards of a histogram merged into one owned histogram.
    pub fn hist_merged(&self, id: HistId) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for shard in self.hists[id.0].iter() {
            shard.merge_into(&mut h);
        }
        h
    }

    /// One shard of a histogram as an owned histogram.
    pub fn hist_shard(&self, id: HistId, shard: usize) -> LatencyHistogram {
        self.hists[id.0][shard].snapshot()
    }

    /// A self-describing snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::capture(self)
    }

    pub(crate) fn counter_entries(&self) -> impl Iterator<Item = (&str, u64, Vec<u64>)> {
        self.counter_names.iter().enumerate().map(|(i, n)| {
            (n.as_str(), self.counter_total(CounterId(i)), self.counter_shards(CounterId(i)))
        })
    }

    pub(crate) fn hist_entries(&self) -> impl Iterator<Item = (&str, LatencyHistogram)> {
        self.hist_names.iter().enumerate().map(|(i, n)| (n.as_str(), self.hist_merged(HistId(i))))
    }
}

/// Writer handle: one worker, one shard, plain stores.
#[derive(Clone, Copy)]
pub struct Shard<'a> {
    reg: &'a MetricsRegistry,
    shard: usize,
}

impl Shard<'_> {
    /// Shard index this handle writes.
    pub fn index(&self) -> usize {
        self.shard
    }

    /// Add to a counter (single-writer: load + store, no RMW).
    #[inline]
    pub fn add(&self, id: CounterId, delta: u64) {
        let c = &self.reg.counters[id.0][self.shard].0;
        c.store(c.load(Ordering::Relaxed).wrapping_add(delta), Ordering::Relaxed);
    }

    /// Record into a histogram.
    #[inline]
    pub fn record(&self, id: HistId, nanos: u64) {
        self.reg.hists[id.0][self.shard].record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_shards() {
        let mut reg = MetricsRegistry::new(4);
        let c = reg.counter("decisions");
        for w in 0..4 {
            let s = reg.shard(w);
            for _ in 0..=w {
                s.add(c, 10);
            }
        }
        assert_eq!(reg.counter_total(c), 10 + 20 + 30 + 40);
        assert_eq!(reg.counter_shards(c), vec![10, 20, 30, 40]);
    }

    #[test]
    fn histogram_shards_merge_into_fleet_view() {
        let mut reg = MetricsRegistry::new(3);
        let h = reg.histogram("latency_ns");
        for w in 0..3usize {
            let s = reg.shard(w);
            for v in 0..100u64 {
                s.record(h, v + 1000 * w as u64);
            }
        }
        let merged = reg.hist_merged(h);
        assert_eq!(merged.count(), 300);
        assert_eq!(reg.hist_shard(h, 1).count(), 100);
        // per-shard merge equals recording everything into one histogram
        let mut one = LatencyHistogram::new();
        for w in 0..3usize {
            for v in 0..100u64 {
                one.record(v + 1000 * w as u64);
            }
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), one.quantile(q));
        }
    }

    #[test]
    fn concurrent_writers_one_shard_each_never_tear() {
        let mut reg = MetricsRegistry::new(8);
        let c = reg.counter("ops");
        let h = reg.histogram("ns");
        std::thread::scope(|scope| {
            for w in 0..8 {
                let shard = reg.shard(w);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        shard.add(c, 1);
                        shard.record(h, i & 1023);
                    }
                });
            }
            // reader merges mid-run: totals are monotone and never torn
            let mut last = 0;
            for _ in 0..100 {
                let t = reg.counter_total(c);
                assert!(t >= last && t <= 80_000);
                last = t;
            }
        });
        assert_eq!(reg.counter_total(c), 80_000);
        assert_eq!(reg.hist_merged(h).count(), 80_000);
    }
}
