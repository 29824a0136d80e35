//! The synthetic workload generator.
//!
//! A single request stream is produced by a small state machine mixing the
//! access motifs the caching literature uses to characterize block-I/O
//! workloads (and which the paper's §2 cites as the reason "no single
//! heuristic performs well across all contexts"):
//!
//! * **Popularity draws** — Zipfian over a rotating popular set. High
//!   `zipf_alpha` favors frequency-biased policies (LFU, GDSF).
//! * **Stack draws** — re-reference a recently-touched object at a
//!   geometric stack depth. High `p_stack` favors recency (LRU, LIRS).
//! * **Scans** — long sequential runs over fresh, never-to-be-reused
//!   objects ("scan workloads" in CACHEUS terms). Punish plain LRU,
//!   reward scan-resistant designs (SIEVE, S3-FIFO, SR-LFU).
//! * **Loops** — bounded ranges re-read for several laps, the classic
//!   LIRS-friendly pattern.
//! * **Churn** — periodic replacement of a fraction of the popular set with
//!   fresh objects ("churn workloads"), rewarding fast-adapting policies.
//! * **Sizes** — lognormal per object, deterministic in the object id, so
//!   size-aware policies (GDSF) have signal to exploit.
//! * **Diurnal arrival modulation** — sinusoidal inter-arrival scaling;
//!   affects timestamps (and thus age-based features), not the reference
//!   string.
//!
//! The generator is pure: `(params, seed, n)` fully determines the output.
//!
//! # Cost contract
//!
//! Stack draws and the recency bookkeeping read a stack of the 512 most
//! recently referenced objects, kept in recency order and indexed by an
//! [`IdSet`] of its members. Per request:
//!
//! * **an object off the stack** — every first reference, every scan step,
//!   most popularity draws — costs one hash probe that finds it absent and
//!   inserts it, a push, and, on a full stack, dropping the bottom entry
//!   from the stack and the set;
//! * **an object on the stack** — stack draws, hot popularity draws, loop
//!   laps that fit — costs a scan to its depth and a shift of the entries
//!   above it (the head costs nothing);
//! * **no allocation** beyond the output `Vec`, the Zipf and rank tables,
//!   and the stack with its index, all sized once up front.
//!
//! The rest is the RNG, the Zipf draw and [`object_size`]'s libm calls.

use crate::idhash::{splitmix64, IdSet};
use crate::model::{OpKind, Request, Trace};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// Depth of the recency stack that stack draws re-reference.
const STACK_DEPTH: usize = 512;

/// Knobs for one synthetic trace. See module docs for the effect of each.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Size of the popular object universe.
    pub objects: usize,
    /// Zipf exponent over the popular universe.
    pub zipf_alpha: f64,
    /// Probability that a request re-references a recent object.
    pub p_stack: f64,
    /// Geometric parameter for the stack-depth draw (higher = shallower).
    pub stack_geom_p: f64,
    /// Per-request probability of starting a sequential scan.
    pub p_scan_start: f64,
    /// Scan length range (requests).
    pub scan_len: (usize, usize),
    /// Per-request probability of starting a looping re-read phase.
    pub p_loop_start: f64,
    /// Loop range length (objects).
    pub loop_len: (usize, usize),
    /// Number of laps over the loop range.
    pub loop_laps: (usize, usize),
    /// Rotate part of the popular set every this many requests (0 = never).
    pub churn_interval: usize,
    /// Fraction of the popular set replaced per churn event.
    pub churn_frac: f64,
    /// ln(mean object size in bytes).
    pub size_log_mu: f64,
    /// Lognormal sigma of object sizes.
    pub size_log_sigma: f64,
    /// Fraction of write requests.
    pub write_frac: f64,
    /// Mean inter-arrival time, µs.
    pub mean_iat_us: u64,
    /// Amplitude (0..1) of the diurnal arrival-rate modulation.
    pub diurnal: f64,
}

impl Default for WorkloadParams {
    /// A mixed workload with moderate skew and locality — a reasonable
    /// stand-in for a "typical" VM volume.
    fn default() -> Self {
        WorkloadParams {
            objects: 10_000,
            zipf_alpha: 1.0,
            p_stack: 0.45,
            stack_geom_p: 0.05,
            p_scan_start: 0.0003,
            scan_len: (150, 1_200),
            p_loop_start: 0.0002,
            loop_len: (100, 800),
            loop_laps: (2, 5),
            churn_interval: 50_000,
            churn_frac: 0.05,
            size_log_mu: 9.6, // ≈ 15 KiB
            size_log_sigma: 0.8,
            write_frac: 0.2,
            mean_iat_us: 2_000,
            diurnal: 0.4,
        }
    }
}

/// Bound on generated object sizes.
const MIN_SIZE: u32 = 512;
const MAX_SIZE: u32 = 4 << 20;

/// Deterministic per-object size: lognormal driven by a hash of the id.
/// Stable across traces so that re-appearing ids keep their size.
pub fn object_size(obj: u64, log_mu: f64, log_sigma: f64) -> u32 {
    // SplitMix64 twice for two independent uniforms.
    let u1 = splitmix64(obj ^ 0x9e37_79b9_7f4a_7c15) as f64 / u64::MAX as f64;
    let u2 = splitmix64(obj.wrapping_mul(0xbf58_476d_1ce4_e5b9)) as f64 / u64::MAX as f64;
    // Box–Muller; clamp u1 away from 0.
    let u1 = u1.max(1e-12);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let bytes = (log_mu + log_sigma * z).exp();
    (bytes as u64).clamp(MIN_SIZE as u64, MAX_SIZE as u64) as u32
}

/// Phase of the generator state machine.
enum Phase {
    Normal,
    Scan { next_obj: u64, remaining: usize },
    Loop { start: u64, len: u64, pos: u64, laps_left: usize },
}

/// Generate `n` requests with the given parameters and seed.
///
/// # Panics
///
/// If `params.objects` is 0, or `scan_len`, `loop_len` or `loop_laps` is
/// not a range `(min, max)` with `1 <= min <= max`: the state machine
/// would index an empty universe, or count a phase down past zero.
pub fn generate(name: &str, params: &WorkloadParams, seed: u64, n: usize) -> Trace {
    assert!(params.objects >= 1, "WorkloadParams::objects must be at least 1");
    for (field, (lo, hi)) in [
        ("scan_len", params.scan_len),
        ("loop_len", params.loop_len),
        ("loop_laps", params.loop_laps),
    ] {
        assert!(1 <= lo && lo <= hi, "WorkloadParams::{field} must satisfy 1 <= min <= max");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(params.objects, params.zipf_alpha);

    // rank -> object id mapping; churn replaces entries with fresh ids.
    let mut id_of_rank: Vec<u64> = (0..params.objects as u64).collect();
    let mut next_fresh: u64 = params.objects as u64;

    // approximate LRU stack of recently referenced objects, most recent
    // first, and the set of its members. The set gets twice the stack's
    // capacity so that the tombstones removals leave are swept by an
    // in-place rehash, never by growing the table.
    let mut recent: VecDeque<u64> = VecDeque::with_capacity(STACK_DEPTH);
    let mut on_stack: IdSet<u64> =
        IdSet::with_capacity_and_hasher(2 * STACK_DEPTH, Default::default());

    let mut phase = Phase::Normal;
    let mut now_us: u64 = 0;
    let day_us = 86_400_000_000.0f64;
    let mut requests = Vec::with_capacity(n);

    for i in 0..n {
        // -- churn: rotate part of the popular set --
        if params.churn_interval > 0
            && i > 0
            && i % params.churn_interval == 0
            && params.churn_frac > 0.0
        {
            let k = ((params.objects as f64) * params.churn_frac) as usize;
            for _ in 0..k {
                let r = rng.random_range(0..id_of_rank.len());
                id_of_rank[r] = next_fresh;
                next_fresh += 1;
            }
        }

        // -- pick the object --
        let obj = match &mut phase {
            Phase::Normal => {
                if rng.random_bool(params.p_scan_start) {
                    let len = rng.random_range(params.scan_len.0..=params.scan_len.1);
                    let start = next_fresh;
                    next_fresh += len as u64;
                    phase = Phase::Scan { next_obj: start, remaining: len };
                    start
                } else if rng.random_bool(params.p_loop_start) {
                    let len = rng.random_range(params.loop_len.0..=params.loop_len.1) as u64;
                    let laps = rng.random_range(params.loop_laps.0..=params.loop_laps.1);
                    let start = next_fresh;
                    next_fresh += len;
                    phase = Phase::Loop { start, len, pos: 0, laps_left: laps };
                    start
                } else if !recent.is_empty() && rng.random_bool(params.p_stack) {
                    // geometric stack distance, clamped to the stack
                    let mut d = 0usize;
                    while d + 1 < recent.len() && !rng.random_bool(params.stack_geom_p) {
                        d += 1;
                    }
                    recent[d]
                } else {
                    id_of_rank[zipf.sample(&mut rng)]
                }
            }
            Phase::Scan { next_obj, remaining } => {
                let o = *next_obj;
                *next_obj += 1;
                *remaining -= 1;
                if *remaining == 0 {
                    phase = Phase::Normal;
                }
                o
            }
            Phase::Loop { start, len, pos, laps_left } => {
                let o = *start + *pos;
                *pos += 1;
                if *pos == *len {
                    *pos = 0;
                    *laps_left -= 1;
                    if *laps_left == 0 {
                        phase = Phase::Normal;
                    }
                }
                o
            }
        };

        // -- maintain the recency stack (dedup head) --
        if recent.front() != Some(&obj) {
            if on_stack.insert(obj) {
                if recent.len() == STACK_DEPTH {
                    let bottom = recent.pop_back().expect("a full stack has a bottom");
                    on_stack.remove(&bottom);
                }
            } else {
                let ix = recent.iter().position(|&o| o == obj).expect("members are on the stack");
                recent.remove(ix);
            }
            recent.push_front(obj);
        }

        // -- timestamp with diurnal modulation --
        let tod = (now_us as f64 / day_us) * 2.0 * std::f64::consts::PI;
        let rate_mult = 1.0 + params.diurnal * tod.sin();
        let iat = (params.mean_iat_us as f64 / rate_mult.max(0.1)) as u64;
        // exponential-ish jitter: uniform in [0.5, 1.5] of the mean
        let jitter = rng.random_range(500..=1500) as u64;
        now_us += (iat * jitter / 1000).max(1);

        let op = if rng.random_bool(params.write_frac) { OpKind::Write } else { OpKind::Read };
        requests.push(Request {
            time_us: now_us,
            obj,
            size: object_size(obj, params.size_log_mu, params.size_log_sigma),
            op,
        });
    }

    Trace::new(name, requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic() {
        let p = WorkloadParams::default();
        let a = generate("t", &p, 42, 5_000);
        let b = generate("t", &p, 42, 5_000);
        assert_eq!(a, b);
        let c = generate("t", &p, 43, 5_000);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "WorkloadParams::objects must be at least 1")]
    fn empty_universe_is_rejected() {
        generate("t", &WorkloadParams { objects: 0, ..WorkloadParams::default() }, 1, 10);
    }

    #[test]
    #[should_panic(expected = "WorkloadParams::scan_len must satisfy 1 <= min <= max")]
    fn zero_length_scans_are_rejected() {
        generate("t", &WorkloadParams { scan_len: (0, 5), ..WorkloadParams::default() }, 1, 10);
    }

    #[test]
    #[should_panic(expected = "WorkloadParams::loop_len must satisfy 1 <= min <= max")]
    fn zero_length_loops_are_rejected() {
        generate("t", &WorkloadParams { loop_len: (0, 0), ..WorkloadParams::default() }, 1, 10);
    }

    #[test]
    #[should_panic(expected = "WorkloadParams::loop_laps must satisfy 1 <= min <= max")]
    fn zero_lap_loops_are_rejected() {
        generate("t", &WorkloadParams { loop_laps: (0, 3), ..WorkloadParams::default() }, 1, 10);
    }

    #[test]
    #[should_panic(expected = "WorkloadParams::scan_len must satisfy 1 <= min <= max")]
    fn inverted_ranges_are_rejected() {
        generate("t", &WorkloadParams { scan_len: (9, 3), ..WorkloadParams::default() }, 1, 10);
    }

    #[test]
    fn time_is_monotone() {
        let t = generate("t", &WorkloadParams::default(), 1, 10_000);
        assert!(t.requests.windows(2).all(|w| w[0].time_us <= w[1].time_us));
    }

    #[test]
    fn sizes_stable_per_object() {
        let t = generate("t", &WorkloadParams::default(), 2, 20_000);
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for r in &t.requests {
            let e = seen.entry(r.obj).or_insert(r.size);
            assert_eq!(*e, r.size, "object {} changed size", r.obj);
            assert!(r.size >= MIN_SIZE && r.size <= MAX_SIZE);
        }
    }

    #[test]
    fn skew_produces_hot_objects() {
        let p = WorkloadParams {
            p_stack: 0.0,
            p_scan_start: 0.0,
            p_loop_start: 0.0,
            churn_interval: 0,
            zipf_alpha: 1.1,
            ..WorkloadParams::default()
        };
        let t = generate("t", &p, 3, 50_000);
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for r in &t.requests {
            *counts.entry(r.obj).or_default() += 1;
        }
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        // top-10 objects should carry a large share under alpha=1.1
        let top10: usize = freq.iter().take(10).sum();
        assert!(top10 as f64 > 0.15 * t.len() as f64, "top10 carried only {top10} of {}", t.len());
    }

    #[test]
    fn scans_introduce_fresh_objects() {
        let mut p = WorkloadParams {
            p_scan_start: 0.01,
            scan_len: (100, 200),
            ..WorkloadParams::default()
        };
        let with_scans = generate("t", &p, 4, 30_000);
        p.p_scan_start = 0.0;
        let without = generate("t", &p, 4, 30_000);
        let uniq_with: std::collections::HashSet<u64> =
            with_scans.requests.iter().map(|r| r.obj).collect();
        let uniq_without: std::collections::HashSet<u64> =
            without.requests.iter().map(|r| r.obj).collect();
        assert!(uniq_with.len() > uniq_without.len());
    }

    #[test]
    fn churn_rotates_popular_set() {
        let p = WorkloadParams {
            churn_interval: 5_000,
            churn_frac: 0.2,
            p_stack: 0.0,
            p_scan_start: 0.0,
            p_loop_start: 0.0,
            ..WorkloadParams::default()
        };
        let t = generate("t", &p, 5, 40_000);
        // objects beyond the initial universe must appear
        assert!(t.requests.iter().any(|r| r.obj >= p.objects as u64));
    }

    #[test]
    fn write_fraction_respected() {
        let p = WorkloadParams { write_frac: 0.5, ..WorkloadParams::default() };
        let t = generate("t", &p, 6, 20_000);
        let writes = t.requests.iter().filter(|r| r.op == OpKind::Write).count();
        let frac = writes as f64 / t.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "write frac {frac}");
    }

    #[test]
    fn stack_draws_increase_short_reuse() {
        let hi = WorkloadParams {
            p_stack: 0.8,
            p_scan_start: 0.0,
            p_loop_start: 0.0,
            ..WorkloadParams::default()
        };
        let mut lo = hi.clone();
        lo.p_stack = 0.0;
        let reuse_within = |t: &Trace, w: usize| {
            let mut last: HashMap<u64, usize> = HashMap::new();
            let mut hits = 0usize;
            for (i, r) in t.requests.iter().enumerate() {
                if let Some(&j) = last.get(&r.obj) {
                    if i - j <= w {
                        hits += 1;
                    }
                }
                last.insert(r.obj, i);
            }
            hits
        };
        let t_hi = generate("hi", &hi, 7, 30_000);
        let t_lo = generate("lo", &lo, 7, 30_000);
        assert!(reuse_within(&t_hi, 64) > reuse_within(&t_lo, 64) * 2);
    }
}
