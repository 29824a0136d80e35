//! The bottleneck link: serialization rate + one-way propagation delay +
//! drop-tail byte queue, with a pluggable AQM decision point. Equivalent to
//! Mahimahi's `mm-link RATE` nested in `mm-delay MS` (the paper's §5.0.3
//! testbed shape); with the default [`DropTail`] policy the behaviour is
//! identical to a plain drop-tail link.

use crate::aqm::{AqmDecision, AqmPolicy, AqmView, DropTail};

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCfg {
    /// Serialization rate, bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay, µs (applied in both directions, so the
    /// minimum RTT is `2 * delay_us` plus one serialization time).
    pub delay_us: u64,
    /// Drop-tail queue bound, bytes.
    pub queue_bytes: u64,
}

impl LinkCfg {
    /// The paper's evaluation link: 12 Mbps, 20 ms delay, 1-BDP buffer.
    pub fn paper_link() -> LinkCfg {
        let rate_bps = 12_000_000;
        let delay_us = 20_000;
        // BDP = rate × RTT = 12 Mbps × 40 ms = 60 kB
        let bdp_bytes = rate_bps / 8 * (2 * delay_us) / 1_000_000;
        LinkCfg { rate_bps, delay_us, queue_bytes: bdp_bytes }
    }

    /// Time to serialize `bytes` onto the wire, µs (at least 1).
    pub fn tx_time_us(&self, bytes: u32) -> u64 {
        ((bytes as u64 * 8 * 1_000_000) / self.rate_bps).max(1)
    }

    /// Bandwidth-delay product in bytes (using min RTT).
    pub fn bdp_bytes(&self) -> u64 {
        self.rate_bps / 8 * (2 * self.delay_us) / 1_000_000
    }
}

/// A queued packet: opaque to the link beyond size and identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedPacket {
    pub flow: usize,
    pub seq: u64,
    pub size: u32,
    /// Enqueue time, for queuing-delay accounting.
    pub enq_us: u64,
    /// ECN Congestion Experienced: set by the AQM's `Mark` decision, echoed
    /// by the receiver, reacted to by the sender once per window.
    pub ecn_ce: bool,
}

/// The shared bottleneck with drop-tail queueing and a pluggable AQM.
pub struct Bottleneck {
    pub cfg: LinkCfg,
    queue: std::collections::VecDeque<QueuedPacket>,
    queued_bytes: u64,
    /// Is the transmitter currently serializing a packet?
    busy: bool,
    aqm: Box<dyn AqmPolicy>,
    // AQM-visible smoothed state
    drain_rate_bps: u64,
    ewma_sojourn_us: u64,
    last_drop_us: Option<u64>,
    last_departure_us: Option<u64>,
    // counters
    pub drops: u64,
    pub forwarded: u64,
    aqm_drops: u64,
    ecn_marks: u64,
    qdelay_sum_us: u64,
    qdelay_samples: u64,
    qdelay_max_us: u64,
}

impl std::fmt::Debug for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bottleneck")
            .field("cfg", &self.cfg)
            .field("aqm", &self.aqm.name())
            .field("queued_bytes", &self.queued_bytes)
            .field("busy", &self.busy)
            .field("drops", &self.drops)
            .field("aqm_drops", &self.aqm_drops)
            .field("ecn_marks", &self.ecn_marks)
            .field("forwarded", &self.forwarded)
            .finish_non_exhaustive()
    }
}

impl Bottleneck {
    /// New idle link with plain drop-tail behaviour.
    pub fn new(cfg: LinkCfg) -> Self {
        Self::with_aqm(cfg, Box::new(DropTail))
    }

    /// New idle link managed by `aqm`.
    pub fn with_aqm(cfg: LinkCfg, aqm: Box<dyn AqmPolicy>) -> Self {
        Bottleneck {
            cfg,
            queue: std::collections::VecDeque::new(),
            queued_bytes: 0,
            busy: false,
            aqm,
            drain_rate_bps: cfg.rate_bps.max(1),
            ewma_sojourn_us: 0,
            last_drop_us: None,
            last_departure_us: None,
            drops: 0,
            forwarded: 0,
            aqm_drops: 0,
            ecn_marks: 0,
            qdelay_sum_us: 0,
            qdelay_samples: 0,
            qdelay_max_us: 0,
        }
    }

    /// Snapshot the AQM-visible state for a decision about a packet of
    /// `pkt_size` bytes that has been queued since `enq_us` (equal to `now`
    /// at the enqueue hook, so its sojourn is 0 there).
    fn aqm_view(&self, now: u64, pkt_size: u32, enq_us: u64) -> AqmView {
        AqmView {
            now_us: now,
            pkt_size,
            sojourn_us: now.saturating_sub(enq_us),
            backlog_bytes: self.queued_bytes,
            backlog_pkts: self.queue.len() as u64,
            capacity_bytes: self.cfg.queue_bytes,
            drain_rate_bps: self.drain_rate_bps,
            ewma_sojourn_us: self.ewma_sojourn_us,
            since_drop_us: now.saturating_sub(self.last_drop_us.unwrap_or(0)),
            drops: self.aqm_drops,
        }
    }

    fn record_aqm_signal(&mut self, now: u64, marked: bool) {
        self.aqm_drops += 1;
        if marked {
            self.ecn_marks += 1;
        }
        self.last_drop_us = Some(now);
    }

    /// The byte bound, for a burst: if a `size`-byte packet does not fit,
    /// tail-drop it and the `n − 1` equal-sized packets offered behind it in
    /// the same instant, and say so. Refusing a packet changes nothing but
    /// `drops`, and nothing drains between two offers of one instant, so the
    /// packets behind a refused one would each be refused in turn — which
    /// holds only while [`Bottleneck::enqueue`] checks this bound *before*
    /// it consults the AQM hook. Whoever reorders the two must revisit it.
    pub fn tail_drop_burst(&mut self, size: u32, n: u64) -> bool {
        let full = self.queued_bytes + size as u64 > self.cfg.queue_bytes;
        if full {
            self.drops += n;
        }
        full
    }

    /// Offer a packet. Returns `true` if accepted; on acceptance, if the
    /// transmitter was idle the caller must schedule the first completion
    /// ([`Bottleneck::start_tx`]). The byte bound is checked first (a full
    /// buffer tail-drops regardless of policy), then the AQM's enqueue hook
    /// may refuse or CE-mark the packet.
    pub fn enqueue(&mut self, mut pkt: QueuedPacket) -> bool {
        if self.tail_drop_burst(pkt.size, 1) {
            return false;
        }
        let view = self.aqm_view(pkt.enq_us, pkt.size, pkt.enq_us);
        match self.aqm.on_enqueue(&view) {
            AqmDecision::Drop => {
                self.record_aqm_signal(pkt.enq_us, false);
                return false;
            }
            AqmDecision::Mark => {
                self.record_aqm_signal(pkt.enq_us, true);
                pkt.ecn_ce = true;
            }
            AqmDecision::Pass => {}
        }
        self.queued_bytes += pkt.size as u64;
        self.queue.push_back(pkt);
        true
    }

    /// Begin serializing the head packet if idle; returns the completion
    /// delay (µs) to schedule, if transmission started. The AQM's dequeue
    /// hook is consulted per head: `Drop` discards it and moves to the next
    /// head, `Mark` sets CE and serializes.
    pub fn start_tx(&mut self, now: u64) -> Option<u64> {
        if self.busy {
            return None;
        }
        loop {
            let head = self.queue.front()?;
            let view = self.aqm_view(now, head.size, head.enq_us);
            match self.aqm.on_dequeue(&view) {
                AqmDecision::Drop => {
                    let dropped = self.queue.pop_front().expect("head vanished");
                    self.queued_bytes -= dropped.size as u64;
                    self.record_aqm_signal(now, false);
                }
                AqmDecision::Mark => {
                    self.record_aqm_signal(now, true);
                    let head = self.queue.front_mut().expect("head vanished");
                    head.ecn_ce = true;
                    self.busy = true;
                    return Some(self.cfg.tx_time_us(head.size));
                }
                AqmDecision::Pass => {
                    self.busy = true;
                    return Some(self.cfg.tx_time_us(head.size));
                }
            }
        }
    }

    /// Serialization of the head packet finished at `now`; returns the
    /// departed packet. Caller schedules its arrival after the propagation
    /// delay, then calls [`Bottleneck::start_tx`] again for the next one.
    pub fn tx_done(&mut self, now: u64) -> QueuedPacket {
        debug_assert!(self.busy);
        self.busy = false;
        let pkt = self.queue.pop_front().expect("tx_done with empty queue");
        self.queued_bytes -= pkt.size as u64;
        self.forwarded += 1;
        // queuing delay = waiting + serialization
        let qd = now.saturating_sub(pkt.enq_us);
        self.qdelay_sum_us += qd;
        self.qdelay_samples += 1;
        self.qdelay_max_us = self.qdelay_max_us.max(qd);
        self.ewma_sojourn_us = (7 * self.ewma_sojourn_us + qd) / 8;
        // drain-rate EWMA from the inter-departure gap
        if let Some(prev) = self.last_departure_us {
            let dt = now.saturating_sub(prev).max(1);
            let sample = pkt.size as u64 * 8 * 1_000_000 / dt;
            self.drain_rate_bps = ((7 * self.drain_rate_bps + sample) / 8).max(1);
        }
        self.last_departure_us = Some(now);
        pkt
    }

    /// Bytes currently enqueued.
    pub fn backlog_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Packets currently enqueued (instantaneous occupancy).
    pub fn backlog_pkts(&self) -> u64 {
        self.queue.len() as u64
    }

    /// EWMA-smoothed packet sojourn time over forwarded packets, µs.
    pub fn ewma_sojourn_us(&self) -> u64 {
        self.ewma_sojourn_us
    }

    /// EWMA-smoothed drain-rate estimate, bits/sec.
    pub fn drain_rate_bps(&self) -> u64 {
        self.drain_rate_bps
    }

    /// Packets dropped or CE-marked by the AQM policy (excludes byte-bound
    /// tail drops, which are in [`Bottleneck::drops`]).
    pub fn aqm_drops(&self) -> u64 {
        self.aqm_drops
    }

    /// Packets CE-marked by the AQM policy.
    pub fn ecn_marks(&self) -> u64 {
        self.ecn_marks
    }

    /// Mean queuing delay over all forwarded packets, µs.
    pub fn mean_qdelay_us(&self) -> f64 {
        if self.qdelay_samples == 0 {
            0.0
        } else {
            self.qdelay_sum_us as f64 / self.qdelay_samples as f64
        }
    }

    /// Maximum observed queuing delay, µs.
    pub fn max_qdelay_us(&self) -> u64 {
        self.qdelay_max_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64, size: u32, enq: u64) -> QueuedPacket {
        QueuedPacket { flow: 0, seq, size, enq_us: enq, ecn_ce: false }
    }

    #[test]
    fn paper_link_parameters() {
        let l = LinkCfg::paper_link();
        assert_eq!(l.rate_bps, 12_000_000);
        assert_eq!(l.delay_us, 20_000);
        assert_eq!(l.bdp_bytes(), 60_000);
        assert_eq!(l.queue_bytes, 60_000);
        // 1500 B at 12 Mbps = 1 ms
        assert_eq!(l.tx_time_us(1500), 1_000);
    }

    #[test]
    fn fifo_order_and_accounting() {
        let mut b = Bottleneck::new(LinkCfg::paper_link());
        assert!(b.enqueue(pkt(1, 1500, 0)));
        assert!(b.enqueue(pkt(2, 1500, 0)));
        let d = b.start_tx(0).unwrap();
        assert_eq!(d, 1_000);
        let p = b.tx_done(1_000);
        assert_eq!(p.seq, 1);
        assert_eq!(b.backlog_bytes(), 1500);
        let d = b.start_tx(1_000).unwrap();
        let p = b.tx_done(1_000 + d);
        assert_eq!(p.seq, 2);
        assert_eq!(b.backlog_bytes(), 0);
        assert!(b.start_tx(2_000).is_none());
        assert_eq!(b.forwarded, 2);
    }

    #[test]
    fn drop_tail_when_full() {
        let cfg = LinkCfg { rate_bps: 1_000_000, delay_us: 1_000, queue_bytes: 3_000 };
        let mut b = Bottleneck::new(cfg);
        assert!(b.enqueue(pkt(1, 1500, 0)));
        assert!(b.enqueue(pkt(2, 1500, 0)));
        assert!(!b.enqueue(pkt(3, 1500, 0)), "third packet must be tail-dropped");
        assert_eq!(b.drops, 1);
        assert_eq!(b.aqm_drops(), 0, "tail drop is not an AQM drop");
        assert_eq!(b.backlog_bytes(), 3_000);
    }

    #[test]
    fn tail_drop_burst_counts_what_offering_each_packet_would() {
        let cfg = LinkCfg { rate_bps: 1_000_000, delay_us: 1_000, queue_bytes: 3_000 };
        let (mut each, mut burst) = (Bottleneck::new(cfg), Bottleneck::new(cfg));
        for seq in 0..10 {
            each.enqueue(pkt(seq, 1500, 0));
        }
        for seq in 0..10 {
            if burst.tail_drop_burst(1500, 10 - seq) {
                break;
            }
            assert!(burst.enqueue(pkt(seq, 1500, 0)));
        }
        assert_eq!(burst.drops, 8);
        assert_eq!((burst.drops, burst.backlog_bytes()), (each.drops, each.backlog_bytes()));
    }

    #[test]
    fn qdelay_accounting() {
        let mut b = Bottleneck::new(LinkCfg::paper_link());
        b.enqueue(pkt(1, 1500, 0));
        b.start_tx(0).unwrap();
        b.tx_done(1_000); // waited 0 + tx 1000
        b.enqueue(pkt(2, 1500, 1_000));
        b.start_tx(1_000).unwrap();
        b.tx_done(3_000); // waited 1000 + tx 1000
        assert_eq!(b.mean_qdelay_us(), 1_500.0);
        assert_eq!(b.max_qdelay_us(), 2_000);
    }

    #[test]
    fn busy_transmitter_not_restarted() {
        let mut b = Bottleneck::new(LinkCfg::paper_link());
        b.enqueue(pkt(1, 1500, 0));
        assert!(b.start_tx(0).is_some());
        b.enqueue(pkt(2, 1500, 10));
        assert!(b.start_tx(10).is_none(), "must not preempt in-flight serialization");
    }

    #[test]
    fn occupancy_and_sojourn_accessors() {
        let mut b = Bottleneck::new(LinkCfg::paper_link());
        assert_eq!(b.backlog_pkts(), 0);
        b.enqueue(pkt(1, 1500, 100));
        b.enqueue(pkt(2, 500, 300));
        assert_eq!(b.backlog_pkts(), 2);
        assert_eq!(b.backlog_bytes(), 2_000);
        b.start_tx(2_600).unwrap();
        b.tx_done(3_600);
        assert_eq!(b.backlog_pkts(), 1);
    }

    #[test]
    fn ewma_sojourn_tracks_forwarded_packets() {
        let mut b = Bottleneck::new(LinkCfg::paper_link());
        assert_eq!(b.ewma_sojourn_us(), 0);
        for i in 0..20 {
            b.enqueue(pkt(i, 1500, i * 1_000));
            b.start_tx(i * 1_000).unwrap();
            b.tx_done(i * 1_000 + 8_000); // constant 8 ms sojourn
        }
        let e = b.ewma_sojourn_us();
        assert!(e > 6_000 && e <= 8_000, "EWMA should converge near 8 ms, got {e}");
    }

    #[test]
    fn drain_rate_converges_to_line_rate() {
        let mut b = Bottleneck::new(LinkCfg::paper_link());
        assert_eq!(b.drain_rate_bps(), 12_000_000, "initialized to the line rate");
        let mut now = 0;
        for i in 0..50 {
            b.enqueue(pkt(i, 1500, now));
            let d = b.start_tx(now).unwrap();
            now += d;
            b.tx_done(now); // back-to-back departures at exactly line rate
        }
        let r = b.drain_rate_bps();
        assert!(
            (r as i64 - 12_000_000i64).abs() < 1_000_000,
            "drain rate should track 12 Mbps, got {r}"
        );
    }

    /// Policy that drops every `n`-th dequeue and marks every `m`-th.
    struct EveryNth {
        n: u64,
        seen: u64,
    }
    impl AqmPolicy for EveryNth {
        fn name(&self) -> &str {
            "every-nth"
        }
        fn on_enqueue(&mut self, _v: &AqmView) -> AqmDecision {
            AqmDecision::Pass
        }
        fn on_dequeue(&mut self, _v: &AqmView) -> AqmDecision {
            self.seen += 1;
            if self.seen.is_multiple_of(self.n) {
                AqmDecision::Drop
            } else {
                AqmDecision::Pass
            }
        }
    }

    #[test]
    fn dequeue_drop_skips_to_next_head() {
        // A policy that drops the first head but passes the second: the
        // dequeue loop must discard and re-consult in one start_tx call.
        let mut b = Bottleneck::with_aqm(
            LinkCfg::paper_link(),
            Box::new(EveryNth { n: 2, seen: 1 }), // consults 2, 4, … drop
        );
        b.enqueue(pkt(1, 1500, 0));
        b.enqueue(pkt(2, 1500, 0));
        let d = b.start_tx(1_000);
        assert!(d.is_some(), "second head must serialize after first is dropped");
        assert_eq!(b.aqm_drops(), 1);
        assert_eq!(b.tx_done(2_000).seq, 2, "head 1 was AQM-dropped");
        assert_eq!(b.backlog_bytes(), 0);
    }

    #[test]
    fn dequeue_drop_can_drain_whole_queue() {
        let mut b =
            Bottleneck::with_aqm(LinkCfg::paper_link(), Box::new(EveryNth { n: 1, seen: 0 }));
        for i in 0..5 {
            b.enqueue(pkt(i, 1500, 0));
        }
        assert!(b.start_tx(1_000).is_none(), "all heads dropped, nothing to send");
        assert_eq!(b.aqm_drops(), 5);
        assert_eq!(b.backlog_bytes(), 0);
    }

    /// Policy that marks everything on enqueue.
    struct MarkAll;
    impl AqmPolicy for MarkAll {
        fn name(&self) -> &str {
            "mark-all"
        }
        fn on_enqueue(&mut self, _v: &AqmView) -> AqmDecision {
            AqmDecision::Mark
        }
        fn on_dequeue(&mut self, _v: &AqmView) -> AqmDecision {
            AqmDecision::Pass
        }
    }

    #[test]
    fn mark_sets_ce_bit() {
        let mut b = Bottleneck::with_aqm(LinkCfg::paper_link(), Box::new(MarkAll));
        assert!(b.enqueue(pkt(1, 1500, 0)));
        b.start_tx(0).unwrap();
        let p = b.tx_done(1_000);
        assert!(p.ecn_ce, "CE must survive to departure");
        assert_eq!(b.ecn_marks(), 1);
        assert_eq!(b.aqm_drops(), 1, "marks count as AQM signals");
        assert_eq!(b.forwarded, 1, "marked packets still forward");
    }
}
