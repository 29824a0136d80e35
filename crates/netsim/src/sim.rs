//! The event loop: flows × bottleneck × virtual time.
//!
//! An agenda of `(time, order, event)` drives the system; ties break on
//! scheduling order, so runs are fully deterministic. The reverse (ACK)
//! path is delay-only — the paper's `mm-delay 20` both ways with the
//! `mm-link` bottleneck on data only.
//!
//! # Cost contract
//!
//! An event allocates nothing, and the two kinds there are most of —
//! arrivals and acks — cost a queue push and pop, not a heap's: the agenda
//! entry carries the event, the senders hand segments over without
//! building a list ([`crate::transport`]), and a receiver remembers a
//! sequence number in one bit. The simulation keeps no state that grows
//! with the events it has processed — only with what is in flight. A fresh
//! burst that overflows the buffer costs the packets the link admits, not
//! the packets offered ([`Bottleneck::tail_drop_burst`]).

use crate::aqm::AqmPolicy;
use crate::link::{Bottleneck, LinkCfg, QueuedPacket};
use crate::transport::{CongestionControl, Receiver, Sender};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    pub link: LinkCfg,
    /// Wall-clock duration to simulate, µs.
    pub duration_us: u64,
    /// Sender maximum segment size, bytes.
    pub mss: u32,
    /// Sender housekeeping timer period (RTO checks), µs.
    pub timer_period_us: u64,
}

impl SimConfig {
    /// The paper's §5.0.3 scenario: 12 Mbps / 20 ms / 1-BDP buffer, 30 s.
    pub fn paper_scenario() -> SimConfig {
        SimConfig {
            link: LinkCfg::paper_link(),
            duration_us: 30_000_000,
            mss: 1500,
            timer_period_us: 5_000,
        }
    }
}

/// Per-flow outcome metrics (the quantities §5.0.3 reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowMetrics {
    /// Unique payload bytes delivered.
    pub delivered_bytes: u64,
    /// Goodput as a fraction of link capacity (0..1).
    pub utilization: f64,
    /// Mean RTT observed by the sender, µs (srtt at end).
    pub srtt_us: u64,
    /// Minimum RTT observed, µs.
    pub min_rtt_us: u64,
    /// Loss events (triple-dup + RTO).
    pub loss_events: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// ECN congestion events the sender reacted to (marks, not losses).
    pub ecn_events: u64,
    /// Final cwnd, packets.
    pub final_cwnd: u64,
}

/// Ordered only so it can ride in the agenda's key; the `order` counter
/// before it is unique, so two events are never themselves compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Bottleneck finished serializing its head packet.
    TxDone,
    /// Data packet reaches the receiver, CE-marked or not.
    Arrive { flow: usize, seq: u64, size: u32, ecn_ce: bool },
    /// ACK reaches the sender; `ece` echoes the data packet's CE mark.
    Ack { flow: usize, seq: u64, ece: bool },
    /// Per-flow housekeeping timer.
    Timer { flow: usize },
}

/// `(due, order, event)`: `order` counts `schedule` calls, so it is unique
/// and breaks ties between events due at the same instant.
type Entry = (u64, u64, Event);

/// Pending events, earliest first; events due at the same instant pop in
/// the order they were scheduled.
///
/// A packet arrives one propagation delay after it leaves the bottleneck
/// and its ack arrives one more after that: both are scheduled a constant
/// ahead of a clock that never runs backwards, so each kind is already in
/// `(due, order)` order as scheduled and needs a FIFO, not a heap. Only the
/// one pending `TxDone` and the per-flow timers — a handful of entries —
/// go through a heap; `pop` merges the three.
#[derive(Default)]
struct Agenda {
    arrivals: VecDeque<Entry>,
    acks: VecDeque<Entry>,
    rest: BinaryHeap<Reverse<Entry>>,
    order: u64,
}

impl Agenda {
    fn schedule(&mut self, at_us: u64, ev: Event) {
        self.order += 1;
        let entry = (at_us, self.order, ev);
        let fifo = match ev {
            Event::Arrive { .. } => &mut self.arrivals,
            Event::Ack { .. } => &mut self.acks,
            Event::TxDone | Event::Timer { .. } => return self.rest.push(Reverse(entry)),
        };
        debug_assert!(
            fifo.back().is_none_or(|last| last.0 <= at_us),
            "{ev:?} due before its queue's tail"
        );
        fifo.push_back(entry);
    }

    fn pop(&mut self) -> Option<(u64, Event)> {
        let due =
            |e: Option<&Entry>| e.map_or((u64::MAX, u64::MAX), |&(at_us, order, _)| (at_us, order));
        let arrival = due(self.arrivals.front());
        let ack = due(self.acks.front());
        let rest = due(self.rest.peek().map(|Reverse(e)| e));
        let (at_us, _, ev) = if arrival <= ack && arrival <= rest {
            self.arrivals.pop_front()?
        } else if ack <= rest {
            self.acks.pop_front()?
        } else {
            self.rest.pop()?.0
        };
        Some((at_us, ev))
    }
}

/// A running simulation over one shared bottleneck.
pub struct Simulation {
    cfg: SimConfig,
    link: Bottleneck,
    senders: Vec<Sender>,
    receivers: Vec<Receiver>,
    agenda: Agenda,
    now_us: u64,
}

impl Simulation {
    /// Build a simulation with one flow per congestion controller and a
    /// plain drop-tail bottleneck.
    pub fn new(cfg: SimConfig, ccs: Vec<Box<dyn CongestionControl>>) -> Self {
        Self::with_aqm(cfg, ccs, Box::new(crate::aqm::DropTail))
    }

    /// Build a simulation whose bottleneck is managed by `aqm`.
    pub fn with_aqm(
        cfg: SimConfig,
        ccs: Vec<Box<dyn CongestionControl>>,
        aqm: Box<dyn AqmPolicy>,
    ) -> Self {
        assert!(!ccs.is_empty(), "need at least one flow");
        let n = ccs.len();
        let mut sim = Simulation {
            link: Bottleneck::with_aqm(cfg.link, aqm),
            senders: ccs.into_iter().map(|cc| Sender::new(cc, cfg.mss)).collect(),
            receivers: (0..n).map(|_| Receiver::new()).collect(),
            agenda: Agenda::default(),
            now_us: 0,
            cfg,
        };
        for f in 0..n {
            // Stagger timer phases so identical flows do not share every
            // event timestamp (deterministic tie-breaking would otherwise
            // systematically favour the lower-numbered flow).
            sim.agenda.schedule(cfg.timer_period_us + f as u64 * 997, Event::Timer { flow: f });
        }
        sim
    }

    /// Offer one segment to the bottleneck, starting the transmitter if it
    /// was idle.
    fn offer(link: &mut Bottleneck, agenda: &mut Agenda, pkt: QueuedPacket) {
        if link.enqueue(pkt) {
            if let Some(delay) = link.start_tx(pkt.enq_us) {
                agenda.schedule(pkt.enq_us + delay, Event::TxDone);
            }
        }
    }

    /// What the sender of `flow` decided to put back on the wire, then as
    /// many fresh segments as its window now allows.
    fn transmit(
        &mut self,
        flow: usize,
        retransmit: impl FnOnce(&mut Sender, u64) -> &[(u64, u32)],
    ) {
        let (now_us, sender) = (self.now_us, &mut self.senders[flow]);
        for &(seq, size) in retransmit(sender, now_us) {
            let pkt = QueuedPacket { flow, seq, size, enq_us: now_us, ecn_ce: false };
            Self::offer(&mut self.link, &mut self.agenda, pkt);
        }
        let fresh = sender.pump(now_us);
        let size = sender.mss;
        for seq in fresh.clone() {
            // the rest of the burst is equal-sized and offered in this instant
            if self.link.tail_drop_burst(size, fresh.end - seq) {
                break;
            }
            let pkt = QueuedPacket { flow, seq, size, enq_us: now_us, ecn_ce: false };
            Self::offer(&mut self.link, &mut self.agenda, pkt);
        }
    }

    /// Run to completion; returns per-flow metrics.
    pub fn run(&mut self) -> Vec<FlowMetrics> {
        // kick off all flows
        for f in 0..self.senders.len() {
            self.transmit(f, |_, _| &[]);
        }

        while let Some((t, ev)) = self.agenda.pop() {
            if t > self.cfg.duration_us {
                break;
            }
            self.now_us = t;
            match ev {
                Event::TxDone => {
                    let QueuedPacket { flow, seq, size, ecn_ce, .. } = self.link.tx_done(t);
                    let arrive = Event::Arrive { flow, seq, size, ecn_ce };
                    self.agenda.schedule(t + self.cfg.link.delay_us, arrive);
                    if let Some(delay) = self.link.start_tx(t) {
                        self.agenda.schedule(t + delay, Event::TxDone);
                    }
                }
                Event::Arrive { flow, seq, size, ecn_ce } => {
                    let seq = self.receivers[flow].on_data(seq, size, ecn_ce);
                    let ack = Event::Ack { flow, seq, ece: ecn_ce };
                    self.agenda.schedule(t + self.cfg.link.delay_us, ack);
                }
                Event::Ack { flow, seq, ece } => {
                    self.transmit(flow, |s, now_us| s.on_ack(seq, now_us, ece));
                }
                Event::Timer { flow } => {
                    self.transmit(flow, Sender::on_timer);
                    self.agenda.schedule(t + self.cfg.timer_period_us, Event::Timer { flow });
                }
            }
        }

        let capacity_bytes =
            self.cfg.link.rate_bps as f64 / 8.0 * self.cfg.duration_us as f64 / 1e6;
        (0..self.senders.len())
            .map(|f| {
                let s = &self.senders[f];
                let r = &self.receivers[f];
                FlowMetrics {
                    delivered_bytes: r.unique_bytes,
                    utilization: (r.unique_bytes as f64 / capacity_bytes).min(1.0),
                    srtt_us: s.srtt_us,
                    min_rtt_us: if s.min_rtt_us == u64::MAX { 0 } else { s.min_rtt_us },
                    loss_events: s.loss_events,
                    retransmits: s.retransmits,
                    ecn_events: s.ecn_events,
                    final_cwnd: s.cwnd,
                }
            })
            .collect()
    }

    #[cfg(test)]
    pub(crate) fn sender(&self, flow: usize) -> &Sender {
        &self.senders[flow]
    }

    /// Mean bottleneck queuing delay over the run, µs.
    pub fn mean_qdelay_us(&self) -> f64 {
        self.link.mean_qdelay_us()
    }

    /// Maximum bottleneck queuing delay, µs.
    pub fn max_qdelay_us(&self) -> u64 {
        self.link.max_qdelay_us()
    }

    /// Packets tail-dropped at the bottleneck.
    pub fn drops(&self) -> u64 {
        self.link.drops
    }

    /// Packets dropped or CE-marked by the AQM policy.
    pub fn aqm_drops(&self) -> u64 {
        self.link.aqm_drops()
    }

    /// Packets CE-marked by the AQM policy.
    pub fn ecn_marks(&self) -> u64 {
        self.link.ecn_marks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::CcView;

    /// Fixed-window controller.
    struct FixedCc(u64);
    impl CongestionControl for FixedCc {
        fn name(&self) -> &str {
            "fixed"
        }
        fn on_ack(&mut self, _v: &CcView<'_>) -> u64 {
            self.0
        }
        fn on_loss(&mut self, _v: &CcView<'_>) -> u64 {
            self.0
        }
    }

    /// Additive-increase / multiplicative-decrease reference controller:
    /// slow start below ssthresh, +1 segment per RTT above (ack counting).
    struct SimpleAimd {
        acks: u64,
    }
    impl SimpleAimd {
        fn new() -> Self {
            SimpleAimd { acks: 0 }
        }
    }
    impl CongestionControl for SimpleAimd {
        fn name(&self) -> &str {
            "aimd"
        }
        fn on_ack(&mut self, v: &CcView<'_>) -> u64 {
            if v.cwnd < v.ssthresh {
                return v.cwnd + 1; // slow start
            }
            self.acks += 1;
            if self.acks >= v.cwnd {
                self.acks = 0;
                v.cwnd + 1
            } else {
                v.cwnd
            }
        }
        fn on_loss(&mut self, v: &CcView<'_>) -> u64 {
            self.acks = 0;
            v.cwnd / 2
        }
    }

    /// The agenda must pop exactly as one heap keyed `(due, order)` would:
    /// that is what makes splitting it into queues invisible to a run.
    #[test]
    fn agenda_pops_in_due_then_scheduling_order() {
        let (mut agenda, mut heap) = (Agenda::default(), BinaryHeap::new());
        let mut rng = 0x9e37_79b9_u64;
        let (mut now_us, mut popped) = (0, 0);
        for step in 0..4_000_u64 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // arrivals and acks a constant ahead of the clock, the rest
            // anywhere ahead of it; small deltas so instants collide
            let (at_us, ev) = match (rng >> 33) % 4 {
                0 => (now_us + 20, Event::Arrive { flow: 0, seq: step, size: 1, ecn_ce: false }),
                1 => (now_us + 20, Event::Ack { flow: 0, seq: step, ece: false }),
                2 => (now_us + (rng >> 40) % 30, Event::TxDone),
                _ => (now_us + (rng >> 40) % 30, Event::Timer { flow: step as usize }),
            };
            agenda.schedule(at_us, ev);
            heap.push(Reverse((at_us, step + 1, ev)));
            if !(rng >> 20).is_multiple_of(3) {
                let Reverse((due_us, _, ev)) = heap.pop().unwrap();
                assert_eq!(agenda.pop(), Some((due_us, ev)), "pop {popped}");
                (now_us, popped) = (due_us, popped + 1);
            }
        }
        while let Some(Reverse((due_us, _, ev))) = heap.pop() {
            assert_eq!(agenda.pop(), Some((due_us, ev)));
        }
        assert_eq!(agenda.pop(), None);
    }

    fn run_one(cc: Box<dyn CongestionControl>, dur_us: u64) -> (FlowMetrics, f64, u64) {
        let mut cfg = SimConfig::paper_scenario();
        cfg.duration_us = dur_us;
        let mut sim = Simulation::new(cfg, vec![cc]);
        let m = sim.run().remove(0);
        (m, sim.mean_qdelay_us(), sim.drops())
    }

    #[test]
    fn tiny_window_underutilizes() {
        // 2 pkts per 40 ms RTT = 600 kbps on a 12 Mbps link ≈ 5%.
        let (m, qd, drops) = run_one(Box::new(FixedCc(2)), 10_000_000);
        assert!(m.utilization > 0.02 && m.utilization < 0.10, "util {}", m.utilization);
        assert_eq!(drops, 0);
        assert!(qd < 2_000.0, "near-empty queue expected, got {qd}");
        assert_eq!(m.loss_events, 0);
        // min RTT ≈ 2×20 ms + serialization
        assert!(m.min_rtt_us >= 40_000 && m.min_rtt_us < 45_000, "{}", m.min_rtt_us);
    }

    #[test]
    fn bdp_window_fills_link_without_queueing() {
        // BDP = 60 kB = 40 pkts: full utilization, minimal standing queue.
        let (m, qd, _) = run_one(Box::new(FixedCc(40)), 10_000_000);
        assert!(m.utilization > 0.9, "util {}", m.utilization);
        assert!(qd < 10_000.0, "qdelay {qd}");
    }

    #[test]
    fn oversized_window_builds_queue_and_drops() {
        let (m, qd, drops) = run_one(Box::new(FixedCc(200)), 10_000_000);
        assert!(m.utilization > 0.9);
        assert!(drops > 0, "buffer must overflow");
        assert!(m.loss_events > 0, "loss must be detected");
        assert!(m.retransmits > 0);
        assert!(qd > 10_000.0, "standing queue expected, got {qd}");
    }

    #[test]
    fn aimd_achieves_high_utilization_with_bounded_delay() {
        let (m, qd, _) = run_one(Box::new(SimpleAimd::new()), 30_000_000);
        assert!(m.utilization > 0.8, "AIMD util {}", m.utilization);
        assert!(m.loss_events > 0, "AIMD probes until loss");
        // queue bounded by 1 BDP → qdelay ≤ 40 ms
        assert!(qd <= 40_000.0, "qdelay {qd}");
    }

    #[test]
    fn deterministic_runs() {
        let a = run_one(Box::new(SimpleAimd::new()), 5_000_000);
        let b = run_one(Box::new(SimpleAimd::new()), 5_000_000);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn two_flows_share_the_link() {
        let mut cfg = SimConfig::paper_scenario();
        cfg.duration_us = 20_000_000;
        let mut sim =
            Simulation::new(cfg, vec![Box::new(SimpleAimd::new()), Box::new(SimpleAimd::new())]);
        let ms = sim.run();
        let total: f64 = ms.iter().map(|m| m.utilization).sum();
        assert!(total > 0.8, "aggregate util {total}");
        // rough fairness: neither flow starves
        for m in &ms {
            assert!(m.utilization > 0.15, "flow starved: {}", m.utilization);
        }
    }

    #[test]
    fn delivered_bytes_consistent_with_utilization() {
        let (m, _, _) = run_one(Box::new(FixedCc(40)), 10_000_000);
        let capacity = 12_000_000.0 / 8.0 * 10.0; // bytes in 10 s
        assert!((m.delivered_bytes as f64 / capacity - m.utilization).abs() < 1e-9);
    }

    /// Paper link with a 4×BDP buffer: deep enough that an AIMD flow builds
    /// a standing queue drop-tail never trims.
    fn deep_buffer_cfg() -> SimConfig {
        let mut cfg = SimConfig::paper_scenario();
        cfg.link.queue_bytes = 4 * cfg.link.bdp_bytes();
        cfg
    }

    fn run_aqm(aqm: Box<dyn AqmPolicy>) -> (FlowMetrics, f64, u64, u64) {
        let mut sim =
            Simulation::with_aqm(deep_buffer_cfg(), vec![Box::new(SimpleAimd::new())], aqm);
        let m = sim.run().remove(0);
        (m, sim.mean_qdelay_us(), sim.aqm_drops(), sim.ecn_marks())
    }

    #[test]
    fn droptail_builds_standing_queue_in_deep_buffer() {
        let (m, qd, aqm_drops, _) = run_aqm(Box::new(crate::aqm::DropTail));
        assert!(m.utilization > 0.8, "util {}", m.utilization);
        assert_eq!(aqm_drops, 0);
        // AIMD in a 4-BDP buffer saws between ~2.5 and 5 BDP of RTT:
        // mean sojourn far above CoDel's 5 ms target.
        assert!(qd > 30_000.0, "drop-tail should queue heavily, got {qd}");
    }

    #[test]
    fn codel_holds_sojourn_near_target() {
        let (m, qd, aqm_drops, _) = run_aqm(Box::new(crate::aqm::CoDel::new()));
        assert!(aqm_drops > 0, "CoDel must engage under a standing queue");
        assert!(
            qd > 1_000.0 && qd < 15_000.0,
            "CoDel should hold mean sojourn near its 5 ms target, got {qd}"
        );
        assert!(m.utilization > 0.7, "CoDel must not tank utilization: {}", m.utilization);
        assert_eq!(m.ecn_events, 0, "hard-drop CoDel sends no marks");
    }

    #[test]
    fn pie_bounds_delay_near_its_target() {
        let (m, qd, aqm_drops, _) = run_aqm(Box::new(crate::aqm::Pie::new()));
        assert!(aqm_drops > 0, "PIE must engage under a standing queue");
        assert!(qd < 40_000.0, "PIE should bound mean delay near 15 ms, got {qd}");
        assert!(m.utilization > 0.7, "PIE must not tank utilization: {}", m.utilization);
    }

    #[test]
    fn ecn_codel_marks_instead_of_dropping() {
        let (m, qd, aqm_drops, marks) =
            run_aqm(Box::new(crate::aqm::CoDel::with_params(5_000, 100_000, true)));
        assert!(aqm_drops > 0);
        assert_eq!(marks, aqm_drops, "ECN mode only marks");
        assert!(m.ecn_events > 0, "sender must react to echoed marks");
        assert_eq!(m.retransmits, 0, "marks lose nothing, so nothing to retransmit");
        assert!(qd < 20_000.0, "marking should still control the queue, got {qd}");
        assert!(m.utilization > 0.7, "util {}", m.utilization);
    }

    #[test]
    fn aqm_runs_are_deterministic() {
        let a = run_aqm(Box::new(crate::aqm::Pie::new()));
        let b = run_aqm(Box::new(crate::aqm::Pie::new()));
        assert_eq!(a, b);
    }
}
