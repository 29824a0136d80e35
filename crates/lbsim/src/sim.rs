//! The discrete-event engine and the metrics the study scores.
//!
//! Two event sources drive the system: request arrivals (offered in time
//! order) and service completions (a min-heap). Completions at or before
//! an arrival instant are applied first, so the dispatcher always sees
//! up-to-date queues; ties inside the heap break on server index.
//! A run is a pure function of `(servers, requests, dispatcher)`.
//!
//! What a dispatcher reads — queue length, inflight, speed, EWMA latency
//! and the drain instant behind `work_left` — the engine keeps as
//! [`FleetColumns`], one cell updated per event, and **lends** per
//! decision ([`DispatchView`](crate::dispatch::DispatchView)): an offer
//! does no O(fleet) work of its own.
//! `work_left` needs no per-decision upkeep because of an exact identity,
//! `work_left(now) = max(drain_at − now, 0)`, where `drain_at` is the
//! instant the server runs out of admitted work: admitting to an idle
//! server sets it to `now + service`, admitting to a busy one adds
//! `service`, and a completion leaves it alone (the promoted request's
//! service time was already counted); a drop admits nothing, and a
//! reconfigure never rewrites admitted work.
//!
//! Three entry points share one engine:
//!
//! * [`run`] — the one-shot batch API: offer a whole request stream, drain,
//!   return the totals;
//! * [`run_phased`] — the mid-run scenario-shift API: a sequence of
//!   [`Scenario`] phases plays back-to-back through one live fleet (queues
//!   and in-flight work carry across the boundary — nothing drains between
//!   phases), the fleet is [`LbEngine::reconfigure`]d at each boundary, and
//!   per-phase metrics come back alongside the combined totals;
//! * [`LbEngine`] — the incremental engine both are built on, for hosts
//!   that need to stream arrivals in windows and observe a live quality
//!   signal between them (the drift-monitor loop of the adaptation story).

use crate::dispatch::{Dispatcher, FleetColumns};
use crate::model::{LbRequest, ServerCfg};
use crate::scenario::Scenario;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Mean-slowdown penalty charged per dropped request — an SLO-style cost
/// standing in for the retry/timeout a real client would suffer. Large
/// enough that overflowing bounded queues can never pay off.
pub const DROP_SLOWDOWN_PENALTY: f64 = 100.0;

/// EWMA weight (1/8 new sample, like TCP's srtt) for per-server latency.
const EWMA_SHIFT: u32 = 3;

/// Outcome of one simulation run (or of one interval of an incremental
/// run — see [`LbEngine::take_interval`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LbMetrics {
    /// Requests offered to the dispatcher.
    pub offered: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Requests dropped at a full queue.
    pub dropped: u64,
    /// Sum of per-request slowdowns over completed requests.
    pub sum_slowdown: f64,
    /// Sum of response times over completed requests, µs.
    pub sum_response_us: u64,
    /// Busy time per server, µs (index-aligned with the fleet).
    pub busy_us: Vec<u64>,
    /// Virtual time of the last event, µs.
    pub duration_us: u64,
    /// Deepest queue observed on any server.
    pub max_queue_seen: usize,
}

impl LbMetrics {
    fn zero(n_servers: usize) -> LbMetrics {
        LbMetrics {
            offered: 0,
            completed: 0,
            dropped: 0,
            sum_slowdown: 0.0,
            sum_response_us: 0,
            busy_us: vec![0; n_servers],
            duration_us: 0,
            max_queue_seen: 0,
        }
    }

    /// Fold another interval's delta into this one (window → phase totals
    /// in [`run_phased_windowed`]).
    fn accumulate(&mut self, d: &LbMetrics) {
        self.offered += d.offered;
        self.completed += d.completed;
        self.dropped += d.dropped;
        self.sum_slowdown += d.sum_slowdown;
        self.sum_response_us += d.sum_response_us;
        for (b, &db) in self.busy_us.iter_mut().zip(&d.busy_us) {
            *b += db;
        }
        self.duration_us += d.duration_us;
        self.max_queue_seen = self.max_queue_seen.max(d.max_queue_seen);
    }

    /// Mean slowdown over all offered requests; a completed request
    /// contributes `response / ideal` (ideal = its service time on an
    /// unloaded fastest server), a dropped one contributes
    /// [`DROP_SLOWDOWN_PENALTY`]. Lower is better; 1.0 is unreachable
    /// perfection.
    pub fn mean_slowdown(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.sum_slowdown + self.dropped as f64 * DROP_SLOWDOWN_PENALTY) / self.offered as f64
    }

    /// Mean slowdown over the requests *resolved* (completed or dropped)
    /// in this metrics window — the live quality signal a drift monitor
    /// samples between windows of an incremental run, robust to arrivals
    /// that are still queued when the window closes.
    ///
    /// A window that offered work but resolved *nothing* is a stall —
    /// every server is stuck mid-service and queues are absorbing the
    /// arrivals — and scores [`DROP_SLOWDOWN_PENALTY`], the worst signal
    /// value, so the monitor sees the outage rather than a spuriously
    /// perfect `0.0`. A genuinely idle window (no arrivals either) scores
    /// `0.0`: no load, no evidence of degradation.
    pub fn resolved_slowdown(&self) -> f64 {
        let resolved = self.completed + self.dropped;
        if resolved == 0 {
            return if self.offered == 0 { 0.0 } else { DROP_SLOWDOWN_PENALTY };
        }
        (self.sum_slowdown + self.dropped as f64 * DROP_SLOWDOWN_PENALTY) / resolved as f64
    }

    /// Fraction of offered requests dropped.
    pub fn drop_fraction(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.dropped as f64 / self.offered as f64
    }

    /// Mean busy fraction across the fleet.
    ///
    /// Meaningful on *cumulative* (batch / whole-run) metrics. On a
    /// [`LbEngine::take_interval`] delta it can exceed 1.0, because a
    /// request's full service time is credited to the window in which its
    /// service *starts* (a heavy-tailed job longer than the window
    /// overfills it).
    pub fn utilization(&self) -> f64 {
        if self.duration_us == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy_us.iter().sum();
        busy as f64 / (self.duration_us as f64 * self.busy_us.len() as f64)
    }
}

/// One request's bookkeeping while it waits or runs: fixed at dispatch
/// time, so a mid-run [`LbEngine::reconfigure`] never rewrites work that
/// was already admitted under the old fleet configuration.
#[derive(Debug, Clone, Copy)]
struct Admitted {
    arrival_us: u64,
    /// Service time on the server it was dispatched to, µs.
    service_us: u64,
    /// Service time on an unloaded fastest server, µs (the slowdown
    /// denominator).
    ideal_us: u64,
}

/// What the engine needs of a server beyond the dispatcher-visible
/// [`FleetColumns`] cells (the EWMA latency lives only there).
struct ServerState {
    cfg: ServerCfg,
    /// Waiting requests, FIFO.
    queue: VecDeque<Admitted>,
    /// In-service request and its finish time, µs.
    in_service: Option<(Admitted, u64)>,
}

impl ServerState {
    /// Write this server's request counts into its column cells — called
    /// at the two events that move them (admission, completion).
    fn publish_counts(&self, six: usize, cols: &mut FleetColumns) {
        cols.queue_len[six] = self.queue.len() as i64;
        cols.inflight[six] = (self.queue.len() + usize::from(self.in_service.is_some())) as i64;
    }
}

/// The incremental discrete-event engine behind [`run`] and [`run_phased`].
///
/// Offer arrivals in time order (singly or in windows), read the
/// cumulative [`metrics`](Self::metrics) or per-window
/// [`take_interval`](Self::take_interval) deltas between offers, swap the
/// fleet configuration mid-run with [`reconfigure`](Self::reconfigure),
/// and [`drain`](Self::drain) at the end. The batch [`run`] is exactly
/// `new → offer* → drain`, so incremental and one-shot runs agree
/// bit-for-bit on the same stream.
///
/// The slowdown denominator (service time on an unloaded fastest server)
/// is fixed from the fleet the engine was *constructed* with, so scores
/// stay comparable across phases of a reconfigured run.
pub struct LbEngine {
    fleet: Vec<ServerState>,
    /// The dispatcher-visible state, one cell per (feature, server), kept
    /// current by the events that change it (see the module docs) and lent
    /// to every pick as it is.
    cols: FleetColumns,
    /// Completion agenda: (finish time, server index).
    completions: BinaryHeap<Reverse<(u64, usize)>>,
    /// The slowdown reference server (fastest initial speed, unbounded
    /// queue).
    ideal: ServerCfg,
    m: LbMetrics,
    /// Snapshot of `m` at the last [`take_interval`](Self::take_interval).
    mark: LbMetrics,
    /// Deepest queue seen since the last interval mark.
    interval_max_queue: usize,
    last_arrival: u64,
}

impl LbEngine {
    /// A fresh engine over `servers` (panics on an empty fleet).
    pub fn new(servers: &[ServerCfg]) -> LbEngine {
        assert!(!servers.is_empty(), "need at least one server");
        let vmax = servers.iter().map(|s| s.speed).max().unwrap();
        LbEngine {
            fleet: servers
                .iter()
                .map(|&cfg| ServerState { cfg, queue: VecDeque::new(), in_service: None })
                .collect(),
            cols: FleetColumns {
                queue_len: vec![0; servers.len()],
                inflight: vec![0; servers.len()],
                speed: servers.iter().map(|s| i64::from(s.speed)).collect(),
                ewma_latency_us: vec![0; servers.len()],
                drain_at_us: vec![0; servers.len()],
            },
            completions: BinaryHeap::new(),
            ideal: ServerCfg::new(vmax, usize::MAX >> 1),
            m: LbMetrics::zero(servers.len()),
            mark: LbMetrics::zero(servers.len()),
            interval_max_queue: 0,
            last_arrival: 0,
        }
    }

    /// Apply every completion due at or before `t`.
    ///
    /// This advances the engine's clock: the fleet state now reflects
    /// everything that happened up to `t`, so later [`offer`](Self::offer)s
    /// must arrive at or after `t` (earlier arrivals would dispatch against
    /// a future fleet state and panic the time-order assert). In
    /// particular, after [`drain`](Self::drain) the engine accepts no
    /// further arrivals.
    pub fn complete_until(&mut self, t: u64) {
        self.last_arrival = self.last_arrival.max(t);
        while let Some(&Reverse((finish, six))) = self.completions.peek() {
            if finish > t {
                break;
            }
            self.completions.pop();
            let s = &mut self.fleet[six];
            let (req, _) = s.in_service.take().expect("completion without service");
            let response = finish - req.arrival_us;
            self.m.completed += 1;
            self.m.sum_response_us += response;
            self.m.sum_slowdown += response as f64 / req.ideal_us as f64;
            self.m.duration_us = self.m.duration_us.max(finish);
            let ewma = &mut self.cols.ewma_latency_us[six];
            *ewma = if *ewma == 0 {
                response as i64
            } else {
                *ewma - (*ewma >> EWMA_SHIFT) + (response >> EWMA_SHIFT) as i64
            };
            if let Some(next) = s.queue.pop_front() {
                // the drain instant already counts `next` (it was added
                // when `next` queued up) and its service starts exactly
                // where this one ended, so `drain_at` does not move
                s.in_service = Some((next, finish + next.service_us));
                self.m.busy_us[six] += next.service_us;
                self.completions.push(Reverse((finish + next.service_us, six)));
            }
            s.publish_counts(six, &mut self.cols);
        }
    }

    /// Offer one arrival to `dispatcher` and admit (or drop) it.
    ///
    /// # Panics
    /// If arrivals go backwards in time or the dispatcher returns an
    /// out-of-range index.
    pub fn offer(&mut self, req: &LbRequest, dispatcher: &mut dyn Dispatcher) {
        assert!(req.arrival_us >= self.last_arrival, "requests must be time-ordered");
        self.last_arrival = req.arrival_us;
        self.complete_until(req.arrival_us);
        self.m.offered += 1;
        self.m.duration_us = self.m.duration_us.max(req.arrival_us);

        #[cfg(debug_assertions)]
        self.assert_columns_current();
        let six = dispatcher.pick(&self.cols.view(req.arrival_us, req.size));
        assert!(six < self.fleet.len(), "dispatcher returned server {six} of {}", self.fleet.len());

        let s = &mut self.fleet[six];
        let admitted = Admitted {
            arrival_us: req.arrival_us,
            service_us: s.cfg.service_us(req.size),
            ideal_us: self.ideal.service_us(req.size),
        };
        if s.in_service.is_none() {
            let finish = req.arrival_us + admitted.service_us;
            s.in_service = Some((admitted, finish));
            self.m.busy_us[six] += admitted.service_us;
            self.completions.push(Reverse((finish, six)));
            self.cols.drain_at_us[six] = finish as i64;
            s.publish_counts(six, &mut self.cols);
        } else if s.queue.len() < s.cfg.queue_cap {
            s.queue.push_back(admitted);
            self.m.max_queue_seen = self.m.max_queue_seen.max(s.queue.len());
            self.interval_max_queue = self.interval_max_queue.max(s.queue.len());
            self.cols.drain_at_us[six] += admitted.service_us as i64;
            s.publish_counts(six, &mut self.cols);
        } else {
            // a drop observes the queue at capacity: record the depth even
            // though nothing was pushed, so an interval whose queues were
            // filled in an earlier window still reports them (the overload
            // regime is exactly when the monitor reads this)
            self.m.max_queue_seen = self.m.max_queue_seen.max(s.queue.len());
            self.interval_max_queue = self.interval_max_queue.max(s.queue.len());
            self.m.dropped += 1;
        }
    }

    /// Run every outstanding completion (the end of a simulation).
    pub fn drain(&mut self) {
        self.complete_until(u64::MAX);
    }

    /// Swap the fleet configuration mid-run — the scenario-shift primitive.
    ///
    /// The server count must be preserved (it is the same dispatch tier
    /// under changed conditions). New speeds and queue bounds apply to
    /// requests dispatched *from now on*; work already admitted keeps the
    /// service time it was admitted with, and the slowdown denominator
    /// stays the construction-time ideal so phases score comparably.
    pub fn reconfigure(&mut self, servers: &[ServerCfg]) {
        assert_eq!(
            servers.len(),
            self.fleet.len(),
            "reconfigure must keep the server count (same tier, new conditions)"
        );
        for (six, (state, &cfg)) in self.fleet.iter_mut().zip(servers).enumerate() {
            state.cfg = cfg;
            self.cols.speed[six] = i64::from(cfg.speed);
        }
    }

    /// Every column cell against a from-scratch recomputation from the
    /// per-server state, as of the engine's clock — the event-maintenance
    /// invariant. The EWMA cell is itself the state, so it has nothing to
    /// disagree with. [`offer`](Self::offer) runs this on every arrival in
    /// builds with debug assertions (tier-1's included).
    #[cfg(any(test, debug_assertions))]
    fn assert_columns_current(&self) {
        let now = self.last_arrival;
        for (six, s) in self.fleet.iter().enumerate() {
            let view = self.cols.view(now, 0).server(six);
            let queued_work_us: u64 = s.queue.iter().map(|a| a.service_us).sum();
            let in_service_left = s.in_service.map_or(0, |(_, finish)| finish.saturating_sub(now));
            assert_eq!(view.queue_len, s.queue.len(), "queue_len[{six}] at {now}");
            assert_eq!(
                view.inflight,
                s.queue.len() + usize::from(s.in_service.is_some()),
                "inflight[{six}] at {now}"
            );
            assert_eq!(view.speed, s.cfg.speed, "speed[{six}] at {now}");
            assert_eq!(
                view.work_left_us,
                queued_work_us + in_service_left,
                "max(drain_at - now, 0) on server {six} at {now}"
            );
        }
    }

    /// Cumulative metrics since construction.
    pub fn metrics(&self) -> &LbMetrics {
        &self.m
    }

    /// Metrics accumulated since the previous `take_interval` (or since
    /// construction), then reset the mark — the windowed quality signal of
    /// the drift-monitor loop. Offers and drops are attributed to the
    /// interval of their *arrival*, completions to the interval in which
    /// they finish; `max_queue_seen` is interval-local.
    pub fn take_interval(&mut self) -> LbMetrics {
        let d = LbMetrics {
            offered: self.m.offered - self.mark.offered,
            completed: self.m.completed - self.mark.completed,
            dropped: self.m.dropped - self.mark.dropped,
            sum_slowdown: self.m.sum_slowdown - self.mark.sum_slowdown,
            sum_response_us: self.m.sum_response_us - self.mark.sum_response_us,
            busy_us: self
                .m
                .busy_us
                .iter()
                .zip(&self.mark.busy_us)
                .map(|(&now, &then)| now - then)
                .collect(),
            duration_us: self.m.duration_us - self.mark.duration_us,
            max_queue_seen: self.interval_max_queue,
        };
        self.mark = self.m.clone();
        self.interval_max_queue = 0;
        d
    }
}

/// Run `requests` (time-ordered) against `servers` under `dispatcher`.
///
/// # Panics
/// If the fleet is empty, requests are out of order, or the dispatcher
/// returns an out-of-range index.
pub fn run(
    servers: &[ServerCfg],
    requests: &[LbRequest],
    dispatcher: &mut dyn Dispatcher,
) -> LbMetrics {
    let mut engine = LbEngine::new(servers);
    for req in requests {
        engine.offer(req, dispatcher);
    }
    engine.drain();
    engine.m
}

/// Run a [`Scenario`] end to end (generates its workload, then [`run`]s).
pub fn simulate<D: Dispatcher>(scenario: &Scenario, dispatcher: &mut D) -> LbMetrics {
    run(&scenario.servers, &scenario.requests(), dispatcher)
}

/// Outcome of a phased run: combined totals plus per-phase attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedMetrics {
    /// Totals across all phases (what a single [`run`] over the stitched
    /// stream would report).
    pub combined: LbMetrics,
    /// Per-phase deltas, one per input phase: arrivals/drops attributed to
    /// the phase they arrive in, completions to the phase they finish in
    /// (the final phase absorbs the drain tail).
    pub per_phase: Vec<LbMetrics>,
    /// Virtual start time of each phase, µs (first entry is 0).
    pub boundaries_us: Vec<u64>,
}

impl PhasedMetrics {
    /// The post-shift quality signal for phase `i`: mean slowdown over the
    /// requests resolved during that phase.
    pub fn phase_slowdown(&self, i: usize) -> f64 {
        self.per_phase[i].resolved_slowdown()
    }
}

/// Play a sequence of [`Scenario`] phases back-to-back through one live
/// fleet — the mid-run scenario-shift mechanism.
///
/// Each phase's request stream is generated from its own workload and
/// seed, then shifted to start where the previous phase's arrivals ended.
/// At every boundary the engine is [`reconfigure`](LbEngine::reconfigure)d
/// to the next phase's fleet (server counts must match); queues and
/// in-flight work carry across — nothing drains between phases, which is
/// exactly why a policy synthesized for phase 0 can be caught limping in
/// phase 1.
///
/// # Panics
/// If `phases` is empty or a phase changes the server count.
pub fn run_phased<D: Dispatcher>(phases: &[Scenario], dispatcher: &mut D) -> PhasedMetrics {
    run_phased_windowed(phases, dispatcher, usize::MAX, &mut |_, _| {})
}

/// [`run_phased`] with a live monitoring tap: within each phase, arrivals
/// are offered in windows of `window` requests, and after every window
/// `on_window(phase_ix, interval)` receives that window's
/// [`take_interval`](LbEngine::take_interval) delta — the cadence at which
/// a drift monitor samples [`LbMetrics::resolved_slowdown`]. A phase's
/// final window additionally absorbs the completions due by the phase
/// boundary (or, for the last phase, the drain tail), so the window deltas
/// of a phase sum to its `per_phase` entry.
pub fn run_phased_windowed<D: Dispatcher>(
    phases: &[Scenario],
    dispatcher: &mut D,
    window: usize,
    on_window: &mut dyn FnMut(usize, &LbMetrics),
) -> PhasedMetrics {
    assert!(!phases.is_empty(), "need at least one phase");
    assert!(window > 0, "window must hold at least one request");
    let mut engine = LbEngine::new(&phases[0].servers);
    let mut per_phase = Vec::with_capacity(phases.len());
    let mut boundaries_us = Vec::with_capacity(phases.len());
    let mut offset = 0u64;

    for (i, phase) in phases.iter().enumerate() {
        if i > 0 {
            // shift the fleet into the new regime at the boundary instant
            engine.reconfigure(&phase.servers);
        }
        boundaries_us.push(offset);
        let requests = phase.requests();
        let last = i == phases.len() - 1;
        let next_offset = offset + requests.last().map(|r| r.arrival_us).unwrap_or(0);
        let mut phase_total = LbMetrics::zero(engine.fleet.len());
        // an empty phase still closes with one (empty) window
        let chunks: Vec<&[LbRequest]> = if requests.is_empty() {
            vec![&requests[..]]
        } else {
            requests.chunks(window).collect()
        };
        let n_chunks = chunks.len();
        for (c, chunk) in chunks.into_iter().enumerate() {
            for req in chunk {
                let shifted = LbRequest { arrival_us: offset + req.arrival_us, size: req.size };
                engine.offer(&shifted, dispatcher);
            }
            if c == n_chunks - 1 {
                // close the phase: run it to its boundary (or to the end)
                if last {
                    engine.drain();
                } else {
                    engine.complete_until(next_offset);
                }
            }
            let interval = engine.take_interval();
            phase_total.accumulate(&interval);
            on_window(i, &interval);
        }
        per_phase.push(phase_total);
        offset = next_offset;
    }
    PhasedMetrics { combined: engine.m, per_phase, boundaries_us }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{DispatchView, Jsq, LeastLoaded, Random, RoundRobin};
    use crate::model::LbRequest;

    fn uniform_servers(n: usize, speed: u32, cap: usize) -> Vec<ServerCfg> {
        (0..n).map(|_| ServerCfg::new(speed, cap)).collect()
    }

    /// Back-to-back equal requests onto one server: pure queueing math.
    #[test]
    fn single_server_fifo_math() {
        let servers = uniform_servers(1, 1, 16);
        // size 5 → 5 ms service; arrivals every 1 ms
        let reqs: Vec<LbRequest> =
            (0..4).map(|i| LbRequest { arrival_us: 1_000 * (i + 1), size: 5 }).collect();
        let m = run(&servers, &reqs, &mut RoundRobin::new());
        assert_eq!(m.completed, 4);
        assert_eq!(m.dropped, 0);
        // completions at 6, 11, 16, 21 ms → responses 5, 9, 13, 17 ms
        assert_eq!(m.sum_response_us, (5 + 9 + 13 + 17) * 1_000);
        assert_eq!(m.duration_us, 21_000);
        assert_eq!(m.busy_us[0], 20_000);
    }

    #[test]
    fn bounded_queue_drops_overflow() {
        let servers = uniform_servers(1, 1, 2);
        // 5 simultaneous-ish arrivals: 1 in service + 2 queued + 2 dropped
        let reqs: Vec<LbRequest> =
            (0..5).map(|i| LbRequest { arrival_us: 10 + i, size: 1_000 }).collect();
        let m = run(&servers, &reqs, &mut RoundRobin::new());
        assert_eq!(m.completed, 3);
        assert_eq!(m.dropped, 2);
        assert!(m.mean_slowdown() > DROP_SLOWDOWN_PENALTY * 2.0 / 5.0);
    }

    #[test]
    fn conservation_and_determinism() {
        let servers = vec![ServerCfg::new(4, 8), ServerCfg::new(2, 8), ServerCfg::new(1, 8)];
        let cfg = crate::workload::WorkloadCfg {
            arrivals: crate::workload::ArrivalProcess::Poisson { rate_per_sec: 900.0 },
            sizes: crate::workload::BoundedPareto::web_default(),
            n: 8_000,
        };
        let reqs = crate::workload::generate(&cfg, 42);
        let run_once = || run(&servers, &reqs, &mut Jsq::new());
        let (a, b) = (run_once(), run_once());
        assert_eq!(a, b, "simulation must be deterministic");
        assert_eq!(a.completed + a.dropped, a.offered);
        assert!(a.utilization() > 0.0 && a.utilization() <= 1.0);
        assert!(a.sum_response_us > 0);
    }

    #[test]
    fn jsq_beats_random_on_a_uniform_fleet() {
        let servers = uniform_servers(8, 4, 32);
        let cfg = crate::workload::WorkloadCfg {
            arrivals: crate::workload::ArrivalProcess::Poisson { rate_per_sec: 3_800.0 },
            sizes: crate::workload::BoundedPareto::web_default(),
            n: 20_000,
        };
        let reqs = crate::workload::generate(&cfg, 7);
        let jsq = run(&servers, &reqs, &mut Jsq::new());
        let rnd = run(&servers, &reqs, &mut Random::new(3));
        assert!(
            jsq.mean_slowdown() < rnd.mean_slowdown() * 0.8,
            "jsq {} vs random {}",
            jsq.mean_slowdown(),
            rnd.mean_slowdown()
        );
    }

    #[test]
    fn speed_awareness_wins_on_a_heterogeneous_fleet() {
        // 2 fast + 4 slow: JSQ sends equal shares to unequal servers
        let mut servers = uniform_servers(2, 8, 32);
        servers.extend(uniform_servers(4, 1, 32));
        let cfg = crate::workload::WorkloadCfg {
            arrivals: crate::workload::ArrivalProcess::Poisson { rate_per_sec: 2_200.0 },
            sizes: crate::workload::BoundedPareto::web_default(),
            n: 20_000,
        };
        let reqs = crate::workload::generate(&cfg, 11);
        let jsq = run(&servers, &reqs, &mut Jsq::new());
        let ll = run(&servers, &reqs, &mut LeastLoaded::new());
        assert!(
            ll.mean_slowdown() < jsq.mean_slowdown(),
            "least-loaded {} vs jsq {}",
            ll.mean_slowdown(),
            jsq.mean_slowdown()
        );
    }

    #[test]
    fn ewma_latency_tracks_congestion() {
        // saturate one server and keep another idle; a latency-aware view
        // must separate them. Dispatch by fixed pattern: all to server 0.
        struct AllToZero;
        impl Dispatcher for AllToZero {
            fn name(&self) -> &str {
                "all-to-zero"
            }
            fn pick(&mut self, _v: &DispatchView<'_>) -> usize {
                0
            }
        }
        let servers = uniform_servers(2, 1, 512);
        let reqs: Vec<LbRequest> =
            (0..200).map(|i| LbRequest { arrival_us: i * 100, size: 10 }).collect();
        let m = run(&servers, &reqs, &mut AllToZero);
        assert_eq!(m.completed, 200);
        assert!(m.busy_us[1] == 0, "server 1 must stay idle");
        assert!(m.max_queue_seen > 50, "server 0 must build a deep queue");
    }

    #[test]
    fn work_left_tracks_residual_service_exactly() {
        // Single server, speed 1: size-5 requests take 5 ms each. Record
        // the work_left the dispatcher observes at every arrival.
        struct Recorder(Vec<u64>);
        impl Dispatcher for Recorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn pick(&mut self, v: &DispatchView<'_>) -> usize {
                self.0.push(v.work_left_us(0));
                0
            }
        }
        let servers = uniform_servers(1, 1, 16);
        // arrivals at 1, 2, 3, 4 ms; each needs 5 ms of service
        let reqs: Vec<LbRequest> =
            (0..4).map(|i| LbRequest { arrival_us: 1_000 * (i + 1), size: 5 }).collect();
        let mut rec = Recorder(Vec::new());
        let m = run(&servers, &reqs, &mut rec);
        // at t=1ms: idle (0). t=2ms: in-service started at 1ms, finishes at
        // 6ms → 4ms left. t=3ms: 3ms left + one queued 5ms. t=4ms: 2ms
        // left + two queued.
        assert_eq!(rec.0, vec![0, 4_000, 3_000 + 5_000, 2_000 + 10_000]);
        assert_eq!(m.completed, 4);
    }

    #[test]
    fn work_left_drains_back_to_zero_between_bursts() {
        struct Probe {
            last: u64,
        }
        impl Dispatcher for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn pick(&mut self, v: &DispatchView<'_>) -> usize {
                self.last = v.work_left_us(0);
                0
            }
        }
        let servers = uniform_servers(1, 1, 16);
        // burst at 0..3ms, then a straggler long after the drain
        let mut reqs: Vec<LbRequest> =
            (0..3).map(|i| LbRequest { arrival_us: i * 1_000, size: 4 }).collect();
        reqs.push(LbRequest { arrival_us: 1_000_000, size: 4 });
        let mut p = Probe { last: u64::MAX };
        run(&servers, &reqs, &mut p);
        assert_eq!(p.last, 0, "work_left must read 0 once the backlog drained");
    }

    #[test]
    #[should_panic(expected = "dispatcher returned server")]
    fn out_of_range_pick_panics() {
        struct Bad;
        impl Dispatcher for Bad {
            fn name(&self) -> &str {
                "bad"
            }
            fn pick(&mut self, _v: &DispatchView<'_>) -> usize {
                usize::MAX
            }
        }
        let servers = uniform_servers(1, 1, 4);
        let reqs = vec![LbRequest { arrival_us: 1, size: 1 }];
        run(&servers, &reqs, &mut Bad);
    }

    #[test]
    fn incremental_engine_matches_batch_run() {
        // the refactor's contract: offering one-by-one with interval takes
        // in between must reproduce the one-shot totals bit-for-bit
        let servers = vec![ServerCfg::new(4, 8), ServerCfg::new(2, 8), ServerCfg::new(1, 8)];
        let cfg = crate::workload::WorkloadCfg {
            arrivals: crate::workload::ArrivalProcess::Poisson { rate_per_sec: 900.0 },
            sizes: crate::workload::BoundedPareto::web_default(),
            n: 6_000,
        };
        let reqs = crate::workload::generate(&cfg, 9);
        let batch = run(&servers, &reqs, &mut Jsq::new());

        let mut engine = LbEngine::new(&servers);
        let mut jsq = Jsq::new();
        let mut intervals = Vec::new();
        for chunk in reqs.chunks(500) {
            for req in chunk {
                engine.offer(req, &mut jsq);
            }
            intervals.push(engine.take_interval());
        }
        engine.drain();
        intervals.push(engine.take_interval());
        assert_eq!(*engine.metrics(), batch);

        // interval deltas partition the totals exactly (integer fields)
        let offered: u64 = intervals.iter().map(|d| d.offered).sum();
        let completed: u64 = intervals.iter().map(|d| d.completed).sum();
        let dropped: u64 = intervals.iter().map(|d| d.dropped).sum();
        let resp: u64 = intervals.iter().map(|d| d.sum_response_us).sum();
        assert_eq!(offered, batch.offered);
        assert_eq!(completed, batch.completed);
        assert_eq!(dropped, batch.dropped);
        assert_eq!(resp, batch.sum_response_us);
        let slow: f64 = intervals.iter().map(|d| d.sum_slowdown).sum();
        assert!((slow - batch.sum_slowdown).abs() < 1e-6 * batch.sum_slowdown.max(1.0));
    }

    #[test]
    fn reconfigure_applies_to_new_dispatches_only() {
        // one server, speed 4: a size-8 request takes 2 ms. Degrade to
        // speed 1 mid-run: the admitted request keeps its 2 ms, the next
        // one takes 8 ms.
        let servers = uniform_servers(1, 4, 16);
        let mut engine = LbEngine::new(&servers);
        let mut rr = RoundRobin::new();
        engine.offer(&LbRequest { arrival_us: 1_000, size: 8 }, &mut rr);
        engine.reconfigure(&uniform_servers(1, 1, 16));
        engine.offer(&LbRequest { arrival_us: 1_500, size: 8 }, &mut rr);
        engine.drain();
        let m = engine.metrics();
        assert_eq!(m.completed, 2);
        // first: 1000→3000 (2 ms at speed 4). second: queued, starts at
        // 3000, runs 8 ms at speed 1 → finishes 11000 (response 9500)
        assert_eq!(m.sum_response_us, 2_000 + 9_500);
        assert_eq!(m.duration_us, 11_000);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn offering_before_the_completion_clock_panics() {
        // complete_until advances the engine clock; an earlier arrival
        // would dispatch against a future fleet state and must be rejected
        let mut engine = LbEngine::new(&uniform_servers(1, 4, 16));
        engine.complete_until(10_000);
        engine.offer(&LbRequest { arrival_us: 5_000, size: 1 }, &mut RoundRobin::new());
    }

    #[test]
    #[should_panic(expected = "server count")]
    fn reconfigure_rejects_fleet_resizes() {
        let mut engine = LbEngine::new(&uniform_servers(2, 4, 16));
        engine.reconfigure(&uniform_servers(3, 4, 16));
    }

    #[test]
    fn phased_run_stitches_phases_and_carries_backlog() {
        let phases = crate::scenario::slow_node_onset_phases();
        let p = run_phased(&phases, &mut Jsq::new());
        assert_eq!(p.per_phase.len(), 2);
        assert_eq!(p.boundaries_us.len(), 2);
        assert_eq!(p.boundaries_us[0], 0);
        assert!(p.boundaries_us[1] > 0);
        // conservation across the whole phased run
        assert_eq!(p.combined.completed + p.combined.dropped, p.combined.offered);
        let offered: u64 = p.per_phase.iter().map(|d| d.offered).sum();
        assert_eq!(offered, p.combined.offered);
        // arrivals per phase match the phase workloads
        assert_eq!(p.per_phase[0].offered, phases[0].workload.n as u64);
        assert_eq!(p.per_phase[1].offered, phases[1].workload.n as u64);
        // determinism
        assert_eq!(p, run_phased(&phases, &mut Jsq::new()));
    }

    #[test]
    fn windowed_phased_run_partitions_the_phase_totals() {
        let phases = crate::scenario::slow_node_onset_phases();
        let coarse = run_phased(&phases, &mut Jsq::new());
        let mut windows: Vec<(usize, LbMetrics)> = Vec::new();
        let fine = run_phased_windowed(&phases, &mut Jsq::new(), 500, &mut |phase, d| {
            windows.push((phase, d.clone()));
        });
        // same combined totals, same arrival attribution per phase
        assert_eq!(fine.combined, coarse.combined);
        assert_eq!(fine.boundaries_us, coarse.boundaries_us);
        for (f, c) in fine.per_phase.iter().zip(&coarse.per_phase) {
            assert_eq!(f.offered, c.offered);
            assert_eq!(f.completed, c.completed);
            assert_eq!(f.dropped, c.dropped);
            assert_eq!(f.sum_response_us, c.sum_response_us);
            assert!((f.sum_slowdown - c.sum_slowdown).abs() < 1e-6 * c.sum_slowdown.max(1.0));
        }
        // windows partition the phases: counts and integer fields add up
        for (i, p) in fine.per_phase.iter().enumerate() {
            let offered: u64 =
                windows.iter().filter(|(w, _)| *w == i).map(|(_, d)| d.offered).sum();
            assert_eq!(offered, p.offered, "phase {i}");
        }
        assert_eq!(windows.iter().filter(|(w, _)| *w == 0).count(), 20, "10k pre arrivals / 500");
    }

    /// Offer `requests` (arrivals shifted by `offset`) one **event** at a
    /// time — each due completion instant applied on its own, then the
    /// arrival — holding the column invariant after every one of them.
    fn offer_event_by_event(
        engine: &mut LbEngine,
        requests: &[LbRequest],
        offset: u64,
        d: &mut dyn Dispatcher,
    ) {
        for req in requests {
            let arrival_us = offset + req.arrival_us;
            while let Some(&Reverse((finish, _))) = engine.completions.peek() {
                if finish > arrival_us {
                    break;
                }
                engine.complete_until(finish);
                engine.assert_columns_current();
            }
            engine.offer(&LbRequest { arrival_us, size: req.size }, d);
            engine.assert_columns_current();
        }
    }

    #[test]
    fn columns_equal_a_from_scratch_recomputation_after_every_event() {
        // a speed-blind baseline, a count-based one, and the policy that
        // reads the derived work_left column
        let expr = policysmith_dsl::parse("server.work_left + req.size * 1000 / server.speed");
        let policy =
            policysmith_kbpf::CompiledPolicy::compile(&expr.unwrap(), policysmith_dsl::Mode::Lb);
        let mut dispatchers: Vec<Box<dyn Dispatcher>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(Jsq::new()),
            Box::new(crate::policy::ExprDispatcher::new("lwl", policy.unwrap())),
        ];
        let mut dropped = 0;
        for d in dispatchers.iter_mut() {
            for sc in crate::scenario::all_presets() {
                let mut engine = LbEngine::new(&sc.servers);
                engine.assert_columns_current();
                offer_event_by_event(&mut engine, &sc.requests(), 0, d);
                engine.drain();
                engine.assert_columns_current();
                assert!(engine.cols.inflight.iter().all(|&n| n == 0), "drained on {}", sc.name);
                dropped += engine.m.dropped;
            }

            // the phased run: a reconfigure between two live phases
            let phases = crate::scenario::slow_node_onset_phases();
            let mut engine = LbEngine::new(&phases[0].servers);
            let first = phases[0].requests();
            offer_event_by_event(&mut engine, &first, 0, d);
            engine.reconfigure(&phases[1].servers);
            engine.assert_columns_current();
            let offset = first.last().unwrap().arrival_us;
            offer_event_by_event(&mut engine, &phases[1].requests(), offset, d);
            engine.drain();
            engine.assert_columns_current();
        }
        assert!(dropped > 0, "the presets must exercise the drop path too");
    }

    #[test]
    fn single_phase_run_equals_batch_run() {
        let sc = crate::scenario::uniform_fleet();
        let phased = run_phased(std::slice::from_ref(&sc), &mut Jsq::new());
        let batch = simulate(&sc, &mut Jsq::new());
        assert_eq!(phased.combined, batch);
        assert_eq!(phased.per_phase[0], batch);
    }
}
