//! Numbers the harness needs and the repo does not export: a seed-mixing
//! PRNG for input generation, quantile summaries, a constant-memory
//! latency histogram that reports fractional nanoseconds, and readers for
//! the process's own CPU time and peak RSS.

use policysmith::obs::LatencyHistogram;
use std::time::Instant;

/// splitmix64: every benchmark input (candidate corpus, probe contexts,
/// per-unit generator seeds) is drawn from this, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5bd1_e995_9e37_79b9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]` (inclusive), for any `lo <= hi`.
    pub fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi as i128 - lo as i128 + 1) as u128;
        (lo as i128 + (self.next_u64() as u128 % span) as i128) as i64
    }

    /// An independent stream for sub-purpose `salt` of this seed.
    pub fn fork(&self, salt: u64) -> Rng {
        Rng::new(mix(self.0, salt))
    }
}

/// Derive an independent seed from `(seed, salt)`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// FNV-1a over bytes — the fingerprint the determinism tests compare.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so `run.sh --calibrate` and the
/// driver compute the same spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0; // 1-based, exclusive method
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        ((q3 - q1) / m).abs()
    }
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 / 99.99 that
/// still has at least ten samples beyond it, or `None` under 20 samples.
pub fn highest_supported_percentile(samples: u64) -> Option<f64> {
    // in ten-thousandths, so that "ten beyond p90 of 100" is exact
    [9_999u64, 9_990, 9_900, 9_000, 5_000]
        .into_iter()
        .find(|p| samples.saturating_mul(10_000 - p) / 10_000 >= 10)
        .map(|p| p as f64 / 10_000.0)
}

const SUB_BITS: u32 = 7;
const SUBS: usize = 1 << SUB_BITS;

/// Log-linear nanosecond histogram, 128 sub-buckets per octave (< 0.8 %
/// bucket width). Quantiles interpolate inside the bucket, so a reported
/// percentile is a fractional number of nanoseconds and not one of a
/// handful of bucket edges. Constant memory however long a run measures.
#[derive(Clone)]
pub struct FineHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for FineHist {
    fn default() -> Self {
        FineHist { counts: vec![0; SUBS + (64 - SUB_BITS as usize) * SUBS], total: 0 }
    }
}

impl FineHist {
    pub fn new() -> FineHist {
        FineHist::default()
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < SUBS as u64 {
            ns as usize
        } else {
            let exp = 63 - ns.leading_zeros();
            let sub = ((ns >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
            SUBS + (exp - SUB_BITS) as usize * SUBS + sub
        }
    }

    /// `(lower bound, width)` of a bucket.
    fn bounds(bucket: usize) -> (u64, u64) {
        if bucket < SUBS {
            (bucket as u64, 1)
        } else {
            let exp = (bucket - SUBS) as u32 / SUBS as u32 + SUB_BITS;
            let sub = ((bucket - SUBS) % SUBS) as u64;
            ((1u64 << exp) + (sub << (exp - SUB_BITS)), 1u64 << (exp - SUB_BITS))
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &FineHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in ns, linearly interpolated inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, width) = Self::bounds(b);
                let inside = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * inside;
            }
            seen += c;
        }
        let (lo, width) = Self::bounds(self.counts.len() - 1);
        (lo + width) as f64
    }
}

/// Quantile of the repo's ≈6 %-bucket `LatencyHistogram`, interpolated
/// inside the bucket. The histogram only answers "which bucket holds rank
/// q", so the bucket's cumulative span is found by bisecting on `q`.
pub fn interp_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let v = h.quantile(q);
    // largest fraction still answered by a lower bucket / by this bucket
    let edge = |mut lo: f64, mut hi: f64, below: bool| {
        for _ in 0..48 {
            let mid = (lo + hi) / 2.0;
            let in_lower = if below { h.quantile(mid) < v } else { h.quantile(mid) <= v };
            if in_lower {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let start = if h.quantile(0.0) < v { edge(0.0, q, true) } else { 0.0 };
    let end = if h.quantile(1.0) > v { edge(q, 1.0, false) } else { 1.0 };
    let width = if v < 16 { 1.0 } else { (1u64 << (63 - v.leading_zeros() - 4)) as f64 };
    let inside = if end > start { ((q - start) / (end - start)).clamp(0.0, 1.0) } else { 0.5 };
    v as f64 + width * inside
}

/// Process user+sys CPU in nanoseconds, threads that have already exited
/// included: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. `/proc/self/stat`
/// counts the same thing in 10 ms ticks, too coarse for a 100 ms unit of
/// work.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` (libc, which std links) writes one `timespec`
    // — two 64-bit fields on every 64-bit Linux target — through a pointer
    // that is valid, aligned and exclusively ours for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "every Linux has the process CPU-time clock");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median cost of one `Instant::now()` call, ns — what the clocked passes
/// subtract from each op boundary.
pub fn clock_cost_ns() -> f64 {
    let mut per_call = Vec::with_capacity(32);
    for _ in 0..32 {
        let t0 = Instant::now();
        let mut last = t0;
        for _ in 0..1_000 {
            last = std::hint::black_box(Instant::now());
        }
        per_call.push((last - t0).as_nanos() as f64 / 1_000.0);
    }
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        assert_eq!(highest_supported_percentile(99), Some(0.50));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(999), Some(0.90));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fine_hist_interpolates_inside_buckets() {
        let mut h = FineHist::new();
        for ns in 1_000..2_000u64 {
            h.record(ns);
        }
        assert!((h.quantile(0.5) - 1_500.0).abs() < 8.0, "{}", h.quantile(0.5));
        assert!((h.quantile(0.99) - 1_990.0).abs() < 16.0, "{}", h.quantile(0.99));
        let mut few = FineHist::new();
        for ns in [1_000, 1_001, 1_002] {
            few.record(ns); // one 4 ns bucket
        }
        assert!((few.quantile(0.4) - 1_001.6).abs() < 1e-9, "{}", few.quantile(0.4));
    }

    #[test]
    fn repo_histogram_quantiles_become_continuous() {
        let mut h = LatencyHistogram::new();
        for ns in 100..200u64 {
            h.record(ns);
        }
        let (raw, fine) = (h.quantile(0.5) as f64, interp_quantile(&h, 0.5));
        assert!(fine >= raw && fine < raw * 1.07, "raw {raw} fine {fine}");
        assert!(interp_quantile(&h, 0.52) > fine, "moves with q inside one bucket");
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.in_range(-5, 5)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|v| (-5..=5).contains(v)));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.5);
        let (a, spin) = (process_cpu_ns(), Instant::now());
        while spin.elapsed().as_millis() < 20 {}
        let burnt = process_cpu_ns() - a;
        assert!((10_000_000..200_000_000).contains(&burnt), "20 ms of spinning read as {burnt} ns");
        assert!(clock_cost_ns() > 0.0);
    }
}
