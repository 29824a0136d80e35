//! Feature catalog: every environment value a heuristic may read.
//!
//! The paper splits the feature surface per case study: Table 1 for caching
//! (per-object, percentile aggregates, eviction history) and §5.0.1 for
//! congestion control (cwnd, RTT estimates, inflight, … plus 10-interval
//! smoothed history arrays per \[66\]). A [`Feature`] is the resolved, typed
//! form of a dotted identifier in heuristic source (`obj.count`,
//! `ages.p75`, `hist_rtt[3]`, …).
//!
//! Each feature has one row in this module's table, and every fact about
//! it is read from there:
//! * its [`Mode`] — the template it is legal in (`now` is in all of them);
//! * its source name — for a family (`ages.p75`, `hist_rtt[3]`) the stem
//!   and how a member's parameter is spelled and bounded;
//! * a conservative value **range** used by the kbpf verifier's interval
//!   analysis (e.g. `hist.contains ∈ [0,1]`, `mss ∈ [1, 65535]`).
//!
//! [`Feature::catalog`] is derived from the same table. The one other place
//! a name is written is the parser's `resolve_path`: a direct `match` on
//! the path's segments, borrowed from the source, that the parse loop
//! calls once per feature reference, so it stays a `match` rather than a
//! scan of this table. The exhaustive
//! `printer::tests::feature_names_roundtrip` holds the two together.
//!
//! Context-array slots are *not* fixed here: the kbpf compiler assigns each
//! expression a minimal per-candidate layout (`policysmith_kbpf::CtxLayout`)
//! covering exactly the features it reads, for every mode uniformly —
//! mirroring how the paper's eBPF probe reads features out of a BPF map
//! written by the kernel-module scaffold, without hard-coding the map shape
//! into the language.

use std::fmt::Write;

/// Which template a heuristic targets. Determines the legal feature set and
/// how strict the checker is (§4.1.2 vs §5.0.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Web-cache eviction `priority()` template (userspace, libCacheSim-like
    /// host). Percentile aggregates and eviction history are available.
    Cache,
    /// Kernel `cong_control()` template. Only kernel-visible scalars and the
    /// history arrays are available; programs must pass the kbpf verifier.
    Kernel,
    /// Load-balancer `score(server, req)` template (userspace dispatch
    /// tier). The expression is evaluated once per server at dispatch time;
    /// the request goes to the **lowest-scoring** server (argmin).
    Lb,
    /// Active-queue-management `act(pkt, q)` template (bottleneck dequeue
    /// hook). The expression is evaluated once per head-of-line packet;
    /// the returned value is a **verdict**: `<= 0` forward, `1` ECN-mark,
    /// `>= 2` drop. The host lives inside the event loop — one decision per
    /// packet at line rate.
    Aqm,
}

impl Mode {
    /// Every template mode, in declaration order. Tests and any code that
    /// must stay exhaustive over modes iterate this instead of hardcoding a
    /// list, so adding a mode can never silently skip it.
    pub const ALL: [Mode; 4] = [Mode::Cache, Mode::Kernel, Mode::Lb, Mode::Aqm];
}

/// Number of entries in each congestion-control history array (§5.0.1: the
/// last 10 RTT intervals, smoothed).
pub const CC_HISTORY_LEN: u8 = 10;

/// A resolved environment value.
///
/// Percentile features carry the integer percent (1..=99); history-array
/// features carry the interval index (0 = most recent completed RTT
/// interval, `CC_HISTORY_LEN - 1` = oldest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    // ---- shared ----
    /// Current virtual time. Request index units in the cache study,
    /// microseconds in the congestion-control study.
    Now,

    // ---- cache: per-object (Table 1) ----
    /// Number of accesses to the object since insertion (including the
    /// insertion itself).
    ObjCount,
    /// Virtual time of the last access to the object.
    ObjLastAccess,
    /// Virtual time at which the object was inserted.
    ObjInsertTime,
    /// Object size in bytes.
    ObjSize,
    /// Convenience: `now - obj.last_access`.
    ObjAge,
    /// Convenience: `now - obj.insert_time`.
    ObjTimeInCache,

    // ---- cache: aggregates (Table 1) ----
    /// Percentile over access counts of all resident objects.
    CountsPct(u8),
    /// Percentile over ages (`now - last_access`) of all resident objects.
    AgesPct(u8),
    /// Percentile over sizes in bytes of all resident objects.
    SizesPct(u8),

    // ---- cache: eviction history (Table 1) ----
    /// 1 if the requested object appears in the recent-eviction history.
    HistContains,
    /// Access count the object had when it was last evicted (0 if absent).
    HistCount,
    /// Age (`evict_time - last_access`) at eviction time (0 if absent).
    HistAgeAtEvict,
    /// `now - evict_time` for the most recent eviction of this object
    /// (0 if absent).
    HistTimeSinceEvict,

    // ---- cache: global ----
    /// Number of resident objects.
    CacheObjects,
    /// Bytes currently used.
    CacheUsedBytes,
    /// Capacity in bytes.
    CacheCapacity,

    // ---- congestion control: scalars (§5.0.1) ----
    /// Current congestion window, in segments.
    Cwnd,
    /// Congestion window before the previous `cong_control` invocation.
    PrevCwnd,
    /// Minimum RTT observed on the connection, µs.
    MinRttUs,
    /// Smoothed RTT, µs.
    SrttUs,
    /// Most recent RTT sample, µs.
    LastRttUs,
    /// Bytes in flight.
    InflightBytes,
    /// Segments in flight.
    InflightPkts,
    /// Maximum segment size, bytes.
    Mss,
    /// Total bytes delivered (cumulatively acked) so far.
    DeliveredBytes,
    /// Recent delivery rate estimate, bytes/sec.
    DeliveryRateBps,
    /// 1 if this invocation was triggered by a loss event, else 0.
    LossEvent,
    /// Bytes newly acked by the triggering event (0 on loss).
    AckedBytes,
    /// Slow-start threshold, segments.
    Ssthresh,

    // ---- congestion control: history arrays (§5.0.1, [66]) ----
    /// Smoothed RTT of the i-th most recent RTT interval, µs.
    HistRtt(u8),
    /// Bytes delivered during the i-th most recent RTT interval.
    HistDelivered(u8),
    /// Loss events during the i-th most recent RTT interval.
    HistLoss(u8),
    /// Mean cwnd (segments) during the i-th most recent RTT interval.
    HistCwnd(u8),
    /// Mean queuing-delay estimate (`srtt - min_rtt`) during the i-th most
    /// recent RTT interval, µs.
    HistQdelay(u8),

    // ---- load balancing: per-server, read at dispatch time ----
    /// Requests waiting in the server's FIFO queue (excludes the one in
    /// service).
    ServerQueueLen,
    /// EWMA of the server's recent request response times, µs (0 until the
    /// server has completed its first request).
    ServerEwmaLatency,
    /// Server speed in work units per millisecond (≥ 1, so it is always a
    /// checker-clean divisor — the idiom for normalizing load by capacity).
    ServerSpeed,
    /// Unfinished requests assigned to the server (queued + in service).
    ServerInflight,
    /// Residual work on the server, µs of service time: the remaining
    /// in-service time plus the service times of everything queued. The
    /// "least-work-left" signal the classical literature assumes an oracle
    /// for; our dispatch tier tracks it exactly.
    ServerWorkLeft,

    // ---- load balancing: per-request ----
    /// Service demand of the request being dispatched, in work units (≥ 1).
    ReqSize,

    // ---- AQM: per-packet, read at the dequeue hook ----
    /// Sojourn time of the head-of-line packet so far (now − enqueue), µs.
    PktSojournUs,
    /// Size of the head-of-line packet, bytes (≥ 1 — a safe divisor).
    PktSize,

    // ---- AQM: instantaneous queue state ----
    /// Bytes currently enqueued at the bottleneck.
    QueueBytes,
    /// Packets currently enqueued at the bottleneck.
    QueuePkts,
    /// Configured drop-tail byte bound of the queue (≥ 1 — a safe divisor).
    QueueCapacityBytes,
    /// EWMA-smoothed estimate of the link drain rate, bits/sec (≥ 1 — a
    /// safe divisor; initialized to the configured line rate).
    DrainRateBps,
    /// EWMA-smoothed packet sojourn time, µs.
    SojournEwmaUs,

    // ---- AQM: control history ----
    /// Time since the AQM last dropped or marked a packet, µs (equal to
    /// `now` while no drop/mark has happened yet).
    SinceLastDropUs,
    /// Packets dropped or marked by the AQM so far.
    AqmDrops,
}

/// How a family's members are numbered and spelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Param {
    /// `ages.p75`: a percentile, `1..=99`.
    Percentile,
    /// `hist_rtt[3]`: an interval index, `0..CC_HISTORY_LEN`.
    Interval,
}

impl Param {
    fn in_range(self, p: u8) -> bool {
        match self {
            Param::Percentile => (1..=99).contains(&p),
            Param::Interval => p < CC_HISTORY_LEN,
        }
    }

    /// The members [`Feature::catalog`] advertises.
    fn representatives(self) -> &'static [u8] {
        match self {
            Param::Percentile => &[10, 25, 50, 75, 90],
            Param::Interval => &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        }
    }
}

/// One feature's facts.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// The template the feature belongs to; `None` for `now`, which every
    /// template has.
    mode: Option<Mode>,
    /// The source name, or a family's stem.
    name: &'static str,
    /// Conservative `[min, max]` bound on the runtime value.
    range: (i64, i64),
    /// A family member's parameter.
    param: Option<(Param, u8)>,
}

/// The rows, one line per feature: the variant (a family binds its
/// parameter and names its [`Param`]), its template (`every` for `now`),
/// its source name or stem, and its range. The one table yields
/// `Feature::row`, a `match` — so `range`, which the cc host calls on every
/// ACK, stays a table lookup — and `DECLARED`, every feature's constructor
/// in table order, which is the order `catalog` lists them in.
macro_rules! rows {
    ($($feature:ident $(($p:ident) $param:ident)? : $mode:ident $name:literal $range:expr;)*) => {
        impl Feature {
            fn row(self) -> Row {
                match self {
                    $(Feature::$feature $(($p))? => Row {
                        mode: rows!(@mode $mode),
                        name: $name,
                        range: $range,
                        param: rows!(@param $($param $p)?),
                    },)*
                }
            }
        }

        const DECLARED: &[fn(u8) -> Feature] = &[$(rows!(@make $feature $($p)?),)*];
    };
    (@mode every) => { None };
    (@mode $mode:ident) => { Some(Mode::$mode) };
    (@param) => { None };
    (@param $param:ident $p:ident) => { Some((Param::$param, $p)) };
    (@make $feature:ident) => { |_| Feature::$feature };
    (@make $feature:ident $p:ident) => { Feature::$feature };
}

/// A generous virtual-time bound.
const T: i64 = 1 << 50;

rows! {
    Now: every "now" (0, T);
    ObjCount: Cache "obj.count" (0, 1 << 40);
    ObjLastAccess: Cache "obj.last_access" (0, T);
    ObjInsertTime: Cache "obj.insert_time" (0, T);
    ObjSize: Cache "obj.size" (1, 1 << 40);
    ObjAge: Cache "obj.age" (0, T);
    ObjTimeInCache: Cache "obj.time_in_cache" (0, T);
    CountsPct(p) Percentile: Cache "counts" (0, 1 << 40);
    AgesPct(p) Percentile: Cache "ages" (0, T);
    SizesPct(p) Percentile: Cache "sizes" (1, 1 << 40);
    HistContains: Cache "hist.contains" (0, 1);
    HistCount: Cache "hist.count" (0, 1 << 40);
    HistAgeAtEvict: Cache "hist.age_at_evict" (0, T);
    HistTimeSinceEvict: Cache "hist.time_since_evict" (0, T);
    CacheObjects: Cache "cache.objects" (0, 1 << 40);
    CacheUsedBytes: Cache "cache.used_bytes" (0, 1 << 50);
    CacheCapacity: Cache "cache.capacity" (0, 1 << 50);
    Cwnd: Kernel "cwnd" (1, 1 << 24);
    PrevCwnd: Kernel "prev_cwnd" (1, 1 << 24);
    MinRttUs: Kernel "min_rtt" (1, 1 << 32);
    SrttUs: Kernel "srtt" (1, 1 << 32);
    LastRttUs: Kernel "last_rtt" (1, 1 << 32);
    InflightBytes: Kernel "inflight_bytes" (0, 1 << 50);
    InflightPkts: Kernel "inflight" (0, 1 << 24);
    Mss: Kernel "mss" (1, 65535);
    DeliveredBytes: Kernel "delivered" (0, 1 << 50);
    DeliveryRateBps: Kernel "delivery_rate" (0, 1 << 50);
    LossEvent: Kernel "loss" (0, 1);
    AckedBytes: Kernel "acked" (0, 1 << 32);
    Ssthresh: Kernel "ssthresh" (1, 1 << 24);
    HistRtt(i) Interval: Kernel "hist_rtt" (1, 1 << 32);
    HistDelivered(i) Interval: Kernel "hist_delivered" (0, 1 << 50);
    HistLoss(i) Interval: Kernel "hist_loss" (0, 1 << 20);
    HistCwnd(i) Interval: Kernel "hist_cwnd" (1, 1 << 24);
    HistQdelay(i) Interval: Kernel "hist_qdelay" (0, 1 << 32);
    ServerQueueLen: Lb "server.queue_len" (0, 1 << 20);
    ServerEwmaLatency: Lb "server.ewma_latency" (0, 1 << 32);
    ServerSpeed: Lb "server.speed" (1, 1 << 16);
    ServerInflight: Lb "server.inflight" (0, 1 << 20);
    ServerWorkLeft: Lb "server.work_left" (0, 1 << 40);
    ReqSize: Lb "req.size" (1, 1 << 32);
    PktSojournUs: Aqm "pkt.sojourn" (0, 1 << 32);
    PktSize: Aqm "pkt.size" (1, 1 << 16);
    QueueBytes: Aqm "q.bytes" (0, 1 << 32);
    QueuePkts: Aqm "q.pkts" (0, 1 << 20);
    QueueCapacityBytes: Aqm "q.capacity" (1, 1 << 32);
    DrainRateBps: Aqm "q.drain_rate" (1, 1 << 40);
    SojournEwmaUs: Aqm "q.ewma_sojourn" (0, 1 << 32);
    SinceLastDropUs: Aqm "aqm.since_drop" (0, T);
    AqmDrops: Aqm "aqm.drops" (0, 1 << 40);
}

impl Feature {
    /// Is this feature legal in the given template mode?
    pub fn available_in(self, mode: Mode) -> bool {
        self.row().mode.is_none_or(|home| home == mode)
    }

    /// Is the parameter (percentile percent or history index) in range?
    pub fn param_in_range(self) -> bool {
        self.row().param.is_none_or(|(param, p)| param.in_range(p))
    }

    /// Conservative `[min, max]` bound on the runtime value, used by the
    /// kbpf verifier's interval analysis and by the generator's guard
    /// heuristics (a divisor whose range excludes zero needs no guard).
    pub fn range(self) -> (i64, i64) {
        self.row().range
    }

    /// Canonical source-syntax name of the feature.
    pub fn name(self) -> String {
        let row = self.row();
        // room for the longest parameter suffix, `.p99`
        let mut name = String::with_capacity(row.name.len() + 4);
        name.push_str(row.name);
        // writing into a `String` cannot fail
        let _ = match row.param {
            None => Ok(()),
            Some((Param::Percentile, p)) => write!(name, ".p{p}"),
            Some((Param::Interval, i)) => write!(name, "[{i}]"),
        };
        name
    }

    /// Every scalar (non-parameterized) feature legal in `mode`, in
    /// declaration order, then each of its families at a few representative
    /// parameters. Used by the mock generator when it "recalls" the
    /// template's documented feature list.
    pub fn catalog(mode: Mode) -> Vec<Feature> {
        let mut scalars = Vec::with_capacity(DECLARED.len());
        let mut families = Vec::new();
        for make in DECLARED {
            let f = make(0);
            let row = f.row();
            if row.mode.is_none_or(|home| home == mode) {
                match row.param {
                    None => scalars.push(f),
                    Some((param, _)) => families.push((param, make)),
                }
            }
        }
        for param in [Param::Percentile, Param::Interval] {
            for &p in param.representatives() {
                let members = families.iter().filter(|(of, _)| *of == param);
                scalars.extend(members.map(|(_, make)| make(p)));
            }
        }
        scalars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Union of every mode's catalog — the iteration base for exhaustive
    /// checks, built from [`Mode::ALL`] so a new mode is covered for free.
    fn all_catalogs() -> Vec<Feature> {
        Mode::ALL.iter().flat_map(|&m| Feature::catalog(m)).collect()
    }

    #[test]
    fn mode_all_is_exhaustive() {
        // Every catalog is non-empty and `Now` is shared across all modes;
        // each mode-specific feature is legal in exactly one mode.
        for &mode in Mode::ALL.iter() {
            assert!(!Feature::catalog(mode).is_empty(), "{mode:?} catalog empty");
            assert!(Feature::Now.available_in(mode));
        }
        for f in all_catalogs() {
            let homes = Mode::ALL.iter().filter(|&&m| f.available_in(m)).count();
            if f == Feature::Now {
                assert_eq!(homes, Mode::ALL.len());
            } else {
                assert_eq!(homes, 1, "{f:?} legal in {homes} modes, want exactly 1");
            }
        }
    }

    #[test]
    fn mode_partition_is_total() {
        for mode in Mode::ALL {
            for f in Feature::catalog(mode) {
                assert!(f.available_in(mode), "{f:?} missing from its own mode");
            }
        }
        assert!(!Feature::ObjCount.available_in(Mode::Kernel));
        assert!(!Feature::Cwnd.available_in(Mode::Cache));
        assert!(!Feature::ServerQueueLen.available_in(Mode::Cache));
        assert!(!Feature::ServerQueueLen.available_in(Mode::Kernel));
        assert!(!Feature::ObjCount.available_in(Mode::Lb));
        assert!(!Feature::Cwnd.available_in(Mode::Lb));
        assert!(!Feature::PktSojournUs.available_in(Mode::Kernel));
        assert!(!Feature::QueueBytes.available_in(Mode::Lb));
        assert!(!Feature::Cwnd.available_in(Mode::Aqm));
        assert!(!Feature::ServerQueueLen.available_in(Mode::Aqm));
    }

    #[test]
    fn ranges_are_well_formed() {
        for f in all_catalogs() {
            let (lo, hi) = f.range();
            assert!(lo <= hi, "{f:?} range inverted");
        }
    }

    #[test]
    fn lb_divisor_features_are_nonzero_where_promised() {
        // The Lb prompt advertises `server.speed` and `req.size` as safe
        // divisors; their declared ranges must exclude zero.
        assert!(Feature::ServerSpeed.range().0 > 0);
        assert!(Feature::ReqSize.range().0 > 0);
        // and the possibly-idle signals must include zero
        assert_eq!(Feature::ServerQueueLen.range().0, 0);
        assert_eq!(Feature::ServerInflight.range().0, 0);
        assert_eq!(Feature::ServerEwmaLatency.range().0, 0);
        assert_eq!(Feature::ServerWorkLeft.range().0, 0);
    }

    #[test]
    fn param_validation() {
        assert!(Feature::AgesPct(75).param_in_range());
        assert!(!Feature::AgesPct(0).param_in_range());
        assert!(!Feature::AgesPct(100).param_in_range());
        assert!(Feature::HistRtt(9).param_in_range());
        assert!(!Feature::HistRtt(10).param_in_range());
    }

    #[test]
    fn names_are_distinct() {
        // `Now` is shared between modes; every other name is unique.
        let all = all_catalogs();
        let features: std::collections::HashSet<_> = all.iter().copied().collect();
        let names: std::collections::HashSet<_> = all.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), features.len());
    }

    #[test]
    fn aqm_divisor_features_are_nonzero_where_promised() {
        // The Aqm prompt advertises these as safe divisors; their declared
        // ranges must exclude zero.
        assert!(Feature::PktSize.range().0 > 0);
        assert!(Feature::QueueCapacityBytes.range().0 > 0);
        assert!(Feature::DrainRateBps.range().0 > 0);
        // and the possibly-zero signals must include zero
        assert_eq!(Feature::PktSojournUs.range().0, 0);
        assert_eq!(Feature::QueueBytes.range().0, 0);
        assert_eq!(Feature::SinceLastDropUs.range().0, 0);
    }
}
