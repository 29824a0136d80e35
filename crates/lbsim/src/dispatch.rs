//! The dispatch boundary: what a policy sees, and the classical baselines.
//!
//! A dispatcher reads the fleet through a [`DispatchView`]: one contiguous
//! `i64` column per `Mode::Lb` server feature, index-aligned with the
//! fleet, **lent** by whoever keeps them — [`LbEngine`] keeps them up to
//! date at the events that change them and rebuilds nothing per decision.
//! `i64` because that is what the batch executor streams over: the
//! template host hands these slices to it as they are.
//!
//! `server.work_left` is the one feature that moves with the clock, so it
//! is not stored. The view carries each server's **drain instant** instead
//! and the identity is exact:
//!
//! ```text
//! work_left(now) = max(drain_at − now, 0)
//! ```
//!
//! (admitting to an idle server sets `drain_at = now + service`, admitting
//! to a busy one adds `service`; completions, drops and reconfigures leave
//! it alone — see [`LbEngine`]).
//!
//! [`ServerView`] is one row of those columns as a value
//! ([`DispatchView::server`]): what the baselines' tests, the interpreter
//! oracle and anything that wants a single server read. [`FleetColumns`]
//! is the owned form, for building a view outside an engine.
//!
//! Each baseline is one of the man-made heuristics §2 of the paper says
//! operators accumulated for this tier; the study measures how far the
//! searched policies move past them.
//!
//! [`LbEngine`]: crate::sim::LbEngine

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One server at dispatch time, as a value — exactly the `Mode::Lb`
/// feature surface. Nothing stores these: [`DispatchView::server`] reads
/// one out of the columns, [`FleetColumns::from_rows`] takes them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerView {
    /// Requests waiting in the FIFO queue (excludes the one in service).
    pub queue_len: usize,
    /// Unfinished requests assigned (queued + in service).
    pub inflight: usize,
    /// Speed, work units per millisecond.
    pub speed: u32,
    /// EWMA of recent response times, µs (0 until the first completion).
    pub ewma_latency_us: u64,
    /// Residual work, µs of service time: remaining in-service time plus
    /// the service times of everything queued. The exact least-work-left
    /// signal (0 on an idle server).
    pub work_left_us: u64,
}

/// The fleet as structure-of-arrays columns — the owned side of a
/// [`DispatchView`]. [`LbEngine`](crate::sim::LbEngine) keeps one and
/// updates single cells at admissions, completions and reconfigures;
/// tests and benchmarks build one [`from_rows`](Self::from_rows).
#[derive(Debug, Clone, Default)]
pub struct FleetColumns {
    pub(crate) queue_len: Vec<i64>,
    pub(crate) inflight: Vec<i64>,
    pub(crate) speed: Vec<i64>,
    pub(crate) ewma_latency_us: Vec<i64>,
    pub(crate) drain_at_us: Vec<i64>,
}

impl FleetColumns {
    /// Columns holding `rows` as observed at `now_us` (each row's
    /// `work_left_us` becomes a drain instant relative to it).
    pub fn from_rows(rows: &[ServerView], now_us: u64) -> FleetColumns {
        FleetColumns {
            queue_len: rows.iter().map(|s| s.queue_len as i64).collect(),
            inflight: rows.iter().map(|s| s.inflight as i64).collect(),
            speed: rows.iter().map(|s| i64::from(s.speed)).collect(),
            ewma_latency_us: rows.iter().map(|s| s.ewma_latency_us as i64).collect(),
            drain_at_us: rows.iter().map(|s| (now_us + s.work_left_us) as i64).collect(),
        }
    }

    /// Lend the columns for one decision at `now_us` about a request of
    /// `req_size` work units.
    pub fn view(&self, now_us: u64, req_size: u64) -> DispatchView<'_> {
        DispatchView {
            now_us,
            req_size,
            queue_len: &self.queue_len,
            inflight: &self.inflight,
            speed: &self.speed,
            ewma_latency_us: &self.ewma_latency_us,
            drain_at_us: &self.drain_at_us,
        }
    }
}

/// Everything a dispatcher may read for one decision: the arrival's two
/// scalars and the fleet's five columns, index-aligned with the fleet and
/// equally long.
#[derive(Debug, Clone, Copy)]
pub struct DispatchView<'a> {
    /// Virtual time of the arrival, µs.
    pub now_us: u64,
    /// Service demand of the request, work units.
    pub req_size: u64,
    /// Requests waiting in each server's FIFO queue (excludes the one in
    /// service).
    pub queue_len: &'a [i64],
    /// Unfinished requests assigned to each server (queued + in service).
    pub inflight: &'a [i64],
    /// Each server's speed, work units per millisecond.
    pub speed: &'a [i64],
    /// EWMA of each server's recent response times, µs (0 until its first
    /// completion).
    pub ewma_latency_us: &'a [i64],
    /// The instant each server runs out of admitted work, µs of virtual
    /// time; at or before `now_us` on an idle server. Read it through
    /// [`work_left_us`](Self::work_left_us).
    pub drain_at_us: &'a [i64],
}

impl DispatchView<'_> {
    /// Number of servers in the fleet.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Is the fleet empty? (Never, for a view lent by an engine.)
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Residual work on server `six`, µs of service time (0 when idle).
    pub fn work_left_us(&self, six: usize) -> u64 {
        (self.drain_at_us[six] as u64).saturating_sub(self.now_us)
    }

    /// Server `six` as a value — the row accessor.
    pub fn server(&self, six: usize) -> ServerView {
        ServerView {
            queue_len: self.queue_len[six] as usize,
            inflight: self.inflight[six] as usize,
            speed: self.speed[six] as u32,
            ewma_latency_us: self.ewma_latency_us[six] as u64,
            work_left_us: self.work_left_us(six),
        }
    }
}

/// A dispatch policy: pick the server index for one request.
///
/// Implementations must be deterministic given their own state (randomized
/// policies own a seeded RNG). Returning an out-of-range index is a
/// simulator panic — the contract mirrors the cache engine's victim rule.
pub trait Dispatcher {
    /// Policy name for reports.
    fn name(&self) -> &str;
    /// Choose a server for the request described by `view`.
    fn pick(&mut self, view: &DispatchView<'_>) -> usize;
}

/// Round-robin: rotate through servers regardless of state.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Dispatcher for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        let ix = self.next % view.len();
        self.next = (self.next + 1) % view.len();
        ix
    }
}

/// Uniform random server.
#[derive(Debug, Clone)]
pub struct Random {
    rng: StdRng,
}

impl Random {
    pub fn new(seed: u64) -> Self {
        Random { rng: StdRng::seed_from_u64(seed) }
    }
}

impl Dispatcher for Random {
    fn name(&self) -> &str {
        "random"
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        self.rng.random_range(0..view.len())
    }
}

/// Join-shortest-queue: fewest inflight requests (ties to lower index).
#[derive(Debug, Clone, Default)]
pub struct Jsq;

impl Jsq {
    pub fn new() -> Self {
        Jsq
    }
}

impl Dispatcher for Jsq {
    fn name(&self) -> &str {
        "jsq"
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        argmin(view.inflight.iter().map(|&q| q as u64))
    }
}

/// Least-loaded: smallest speed-normalized backlog estimate, including the
/// incoming request's own demand — the strongest classical baseline on
/// heterogeneous fleets.
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    pub fn new() -> Self {
        LeastLoaded
    }
}

impl Dispatcher for LeastLoaded {
    fn name(&self) -> &str {
        "least-loaded"
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        // backlog proxy: inflight count × mean-demand placeholder plus this
        // request, normalized by speed. Deliberately ignores the exact
        // `work_left_us` signal — this is the classical heuristic under the
        // information assumption a real L7 balancer historically had
        // (counts, not residual work); searched policies may use both
        let demand = view.req_size.max(1) * 1_000;
        argmin(
            view.inflight
                .iter()
                .zip(view.speed)
                .map(|(&inflight, &speed)| (inflight as u64 + 1) * demand / speed as u64),
        )
    }
}

/// Power-of-two-choices: sample two distinct servers, take the less loaded
/// (by inflight), ties to the first sampled.
#[derive(Debug, Clone)]
pub struct PowerOfTwo {
    rng: StdRng,
}

impl PowerOfTwo {
    pub fn new(seed: u64) -> Self {
        PowerOfTwo { rng: StdRng::seed_from_u64(seed) }
    }
}

impl Dispatcher for PowerOfTwo {
    fn name(&self) -> &str {
        "power-of-two"
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        let n = view.len();
        if n == 1 {
            return 0;
        }
        let a = self.rng.random_range(0..n);
        let mut b = self.rng.random_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        if view.inflight[b] < view.inflight[a] {
            b
        } else {
            a
        }
    }
}

/// Index of the minimum key, ties to the lowest index.
pub(crate) fn argmin<I: Iterator<Item = u64>>(keys: I) -> usize {
    let mut best = 0usize;
    let mut best_key = u64::MAX;
    for (ix, k) in keys.enumerate() {
        if k < best_key {
            best_key = k;
            best = ix;
        }
    }
    best
}

/// Names of all classical baselines, strongest-first ordering not implied.
pub fn lb_baseline_names() -> &'static [&'static str] {
    &["round-robin", "random", "jsq", "least-loaded", "power-of-two"]
}

/// Construct a baseline by name (randomized ones get a fixed seed so runs
/// stay reproducible).
pub fn by_name(name: &str) -> Option<Box<dyn Dispatcher>> {
    Some(match name {
        "round-robin" => Box::new(RoundRobin::new()),
        "random" => Box::new(Random::new(0x1b)),
        "jsq" => Box::new(Jsq::new()),
        "least-loaded" => Box::new(LeastLoaded::new()),
        "power-of-two" => Box::new(PowerOfTwo::new(0x2c)),
        _ => return None,
    })
}

impl Dispatcher for Box<dyn Dispatcher> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        (**self).pick(view)
    }
}

impl<D: Dispatcher + ?Sized> Dispatcher for &mut D {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn pick(&mut self, view: &DispatchView<'_>) -> usize {
        (**self).pick(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One decision of `d` over `servers` (a size-10 request at t = 0).
    fn pick_on(d: &mut impl Dispatcher, servers: &[ServerView]) -> usize {
        d.pick(&FleetColumns::from_rows(servers, 0).view(0, 10))
    }

    fn sv(queue_len: usize, inflight: usize, speed: u32) -> ServerView {
        ServerView { queue_len, inflight, speed, ewma_latency_us: 0, work_left_us: 0 }
    }

    #[test]
    fn columns_give_back_the_rows_they_were_built_from() {
        let rows = [
            ServerView {
                queue_len: 2,
                inflight: 3,
                speed: 4,
                ewma_latency_us: 900,
                work_left_us: 7_000,
            },
            sv(0, 0, 1),
        ];
        let fleet = FleetColumns::from_rows(&rows, 5_000);
        let view = fleet.view(5_000, 10);
        assert_eq!(view.len(), 2);
        assert_eq!([view.server(0), view.server(1)], rows);
        // the clock moves, the stored drain instant does not: work_left
        // drains with it and stops at zero
        assert_eq!(fleet.view(9_000, 10).work_left_us(0), 3_000);
        assert_eq!(fleet.view(12_000, 10).work_left_us(0), 0);
        assert_eq!(fleet.view(u64::MAX, 10).server(1), rows[1]);
    }

    #[test]
    fn round_robin_rotates() {
        let servers = [sv(0, 0, 4), sv(0, 0, 4), sv(0, 0, 4)];
        let mut rr = RoundRobin::new();
        let picks: Vec<usize> = (0..6).map(|_| pick_on(&mut rr, &servers)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn jsq_prefers_short_queues_and_breaks_ties_low() {
        let servers = [sv(3, 4, 4), sv(0, 1, 4), sv(0, 1, 4)];
        assert_eq!(pick_on(&mut Jsq::new(), &servers), 1);
    }

    #[test]
    fn least_loaded_accounts_for_speed() {
        // same inflight, different speeds: the fast server wins
        let servers = [sv(2, 3, 1), sv(2, 3, 8)];
        assert_eq!(pick_on(&mut LeastLoaded::new(), &servers), 1);
        // a fast server with a deep backlog loses to an idle slow one
        let servers = [sv(20, 21, 8), sv(0, 0, 1)];
        assert_eq!(pick_on(&mut LeastLoaded::new(), &servers), 1);
    }

    #[test]
    fn power_of_two_picks_less_loaded_of_its_sample() {
        let servers = [sv(9, 10, 4), sv(0, 0, 4)];
        let mut p2 = PowerOfTwo::new(1);
        // with only two servers the sample is always {0, 1}
        for _ in 0..20 {
            assert_eq!(pick_on(&mut p2, &servers), 1);
        }
    }

    #[test]
    fn random_covers_the_fleet_deterministically() {
        let servers = [sv(0, 0, 4); 4];
        let run = || {
            let mut r = Random::new(7);
            (0..100).map(|_| pick_on(&mut r, &servers)).collect::<Vec<_>>()
        };
        let picks = run();
        assert_eq!(picks, run(), "seeded random must be reproducible");
        for ix in 0..4 {
            assert!(picks.contains(&ix), "server {ix} never picked");
        }
    }

    #[test]
    fn registry_is_complete() {
        for name in lb_baseline_names() {
            let d = by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(d.name(), *name);
        }
        assert!(by_name("nope").is_none());
    }
}
