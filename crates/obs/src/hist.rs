//! The fixed-footprint log-linear latency histogram (moved here from
//! `serve::telemetry` so every crate can record/merge latencies), plus an
//! atomic single-writer variant that backs a
//! [`MetricsRegistry`](crate::MetricsRegistry) shard — kept, like the
//! registry, only for the benchmark probes that time them.
//!
//! The histogram is HDR-style log-linear: 16 linear sub-buckets per
//! power-of-two octave (≈ 6% relative resolution), values below 16 ns
//! exact. Recording is one shift/mask — cheap enough for the decision hot
//! path — and the whole structure is a flat `u64` array, so per-worker
//! histograms merge into the fleet view without locks or allocation
//! during serving.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (16 ⇒ ≈ 6% worst-case relative error).
const SUBS: usize = 16;
const SUB_BITS: u32 = 4;
/// Buckets: 16 exact small values + 60 octaves × 16 sub-buckets.
pub(crate) const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// A log-linear histogram of nanosecond latencies.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(nanos: u64) -> usize {
    if nanos < SUBS as u64 {
        nanos as usize
    } else {
        let exp = 63 - nanos.leading_zeros(); // ≥ SUB_BITS
        let sub = ((nanos >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        SUBS + (exp - SUB_BITS) as usize * SUBS + sub
    }
}

/// Lower bound of a bucket (the value reported for quantiles in it).
fn value_of(bucket: usize) -> u64 {
    if bucket < SUBS {
        bucket as u64
    } else {
        let exp = (bucket - SUBS) as u32 / SUBS as u32 + SUB_BITS;
        let sub = ((bucket - SUBS) % SUBS) as u64;
        (1u64 << exp) + (sub << (exp - SUB_BITS))
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram { counts: Box::new([0; BUCKETS]), total: 0 }
    }

    /// Record one latency sample.
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Fold another histogram in (worker → fleet aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in nanoseconds: the lower bound of the
    /// bucket where the cumulative count crosses `q · total` (≈ 6%
    /// resolution). 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(b);
            }
        }
        value_of(BUCKETS - 1)
    }

    /// Batch quantile lookup: one cumulative sweep for all requested
    /// quantiles, returned in the same order as `qs`. Equivalent to
    /// calling [`quantile`](Self::quantile) per element.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<u64> {
        if self.total == 0 {
            return vec![0; qs.len()];
        }
        // Rank order lets one sweep serve every quantile; results are
        // scattered back to the caller's order.
        let mut order: Vec<usize> = (0..qs.len()).collect();
        order.sort_by(|&a, &b| qs[a].partial_cmp(&qs[b]).unwrap_or(std::cmp::Ordering::Equal));
        let mut out = vec![0u64; qs.len()];
        // `seen` = cumulative count through `bucket`, inclusive.
        let mut seen = self.counts[0];
        let mut bucket = 0usize;
        for &i in &order {
            let q = qs[i];
            let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
            while seen < rank && bucket < BUCKETS - 1 {
                bucket += 1;
                seen += self.counts[bucket];
            }
            out[i] = value_of(bucket);
        }
        out
    }

    /// Mean of the recorded samples, using bucket lower bounds (ns).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| value_of(b) as f64 * c as f64)
            .sum();
        sum / self.total as f64
    }

    /// Maximum recorded value's bucket lower bound (ns).
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(b, _)| value_of(b))
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LatencyHistogram {{ n: {}, p50: {}ns, p99: {}ns, p999: {}ns }}",
            self.total,
            self.quantile(0.50),
            self.quantile(0.99),
            self.quantile(0.999)
        )
    }
}

/// The shard-resident histogram: same buckets, atomic counts.
///
/// Writer contract: **one writer per `AtomicHistogram`** (the owning
/// worker). Under that discipline `record` compiles to a plain load +
/// store on the worker's own cache line — no RMW, no fence — while a
/// reader on another thread can [`snapshot`](Self::snapshot) mid-run and
/// see a consistent (if slightly stale) view: counts are word-atomic, so
/// no torn values, and the merged total is recomputed from the counts.
pub struct AtomicHistogram {
    counts: Box<[AtomicU64; BUCKETS]>,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty atomic histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram { counts: Box::new([0u64; BUCKETS].map(AtomicU64::new)) }
    }

    /// Record one sample. Single-writer: plain unsynchronized store.
    pub fn record(&self, nanos: u64) {
        let c = &self.counts[bucket_of(nanos)];
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Copy the current counts into an owned [`LatencyHistogram`].
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for (dst, src) in h.counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.total = h.counts.iter().sum();
        h
    }

    /// Fold the current counts into `into` (reader-side shard merge).
    pub fn merge_into(&self, into: &mut LatencyHistogram) {
        for (dst, src) in into.counts.iter_mut().zip(self.counts.iter()) {
            let c = src.load(Ordering::Relaxed);
            *dst += c;
            into.total += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_and_are_monotone() {
        let mut last = 0;
        for b in 0..BUCKETS {
            let v = value_of(b);
            assert_eq!(bucket_of(v), b, "lower bound must map to its own bucket");
            assert!(b == 0 || v > last, "bucket {b}: {v} <= {last}");
            last = v;
        }
        // a value inside a bucket maps to that bucket (the 32..64 octave
        // has two-wide sub-buckets; 16..32 is still exact)
        assert_eq!(bucket_of(33), bucket_of(32));
        assert_ne!(bucket_of(17), bucket_of(16));
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 1_000, 50_000, 1_000_000, 123_456_789] {
            let lo = value_of(bucket_of(v));
            assert!(lo <= v);
            assert!(((v - lo) as f64 / v as f64) < 1.0 / SUBS as f64, "{v} vs {lo}");
        }
    }

    #[test]
    fn quantiles_order_and_mean() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 100); // 100ns .. 100µs
        }
        assert_eq!(h.count(), 1000);
        let (p50, p99, p999) = (h.quantile(0.5), h.quantile(0.99), h.quantile(0.999));
        assert!(p50 <= p99 && p99 <= p999 && p999 <= h.max());
        // p50 of uniform 100..100_000 is ~50_000: within bucket resolution
        assert!((45_000..=50_000).contains(&p50), "{p50}");
        assert!((93_000..=99_000).contains(&p99), "{p99}");
        assert!(h.mean() > 0.9 * 47_000.0 && h.mean() < 50_050.0);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in 0..500u64 {
            a.record(v);
            b.record(v + 10_000);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 1000);
        assert_eq!(m.quantile(0.25), a.quantile(0.5));
        assert_eq!(m.quantile(1.0), b.quantile(1.0));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantiles(&[0.0, 0.5, 1.0]), vec![0, 0, 0]);
    }

    #[test]
    fn u64_max_saturates_into_the_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        let top = value_of(BUCKETS - 1);
        assert_eq!(h.max(), top);
        assert_eq!(h.quantile(1.0), top);
        assert_eq!(h.quantile(0.0), top, "all mass is in the saturation bucket");
    }

    #[test]
    fn batch_quantiles_match_individual_lookups() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 17, 40, 999, 12_345, 12_346, 1_000_000, u64::MAX] {
            h.record(v);
        }
        // deliberately unsorted, with duplicates and extremes
        let qs = [0.99, 0.0, 0.5, 1.0, 0.5, 0.25, 0.999];
        let batch = h.quantiles(&qs);
        for (q, got) in qs.iter().zip(&batch) {
            assert_eq!(*got, h.quantile(*q), "q={q}");
        }
    }

    #[test]
    fn atomic_histogram_matches_plain_recording() {
        let a = AtomicHistogram::new();
        let mut p = LatencyHistogram::new();
        for v in [0u64, 1, 15, 16, 17, 1000, 65_535, 1 << 40, u64::MAX] {
            a.record(v);
            p.record(v);
        }
        let s = a.snapshot();
        assert_eq!(s.count(), p.count());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), p.quantile(q));
        }
        let mut merged = LatencyHistogram::new();
        a.merge_into(&mut merged);
        assert_eq!(merged.count(), p.count());
        assert_eq!(merged.max(), p.max());
    }
}
