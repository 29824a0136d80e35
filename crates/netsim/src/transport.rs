//! TCP-like reliable transport and the congestion-control plug-in point.
//!
//! The sender is window-limited: it keeps `cwnd` packets in flight, detects
//! losses via SACK-style triple-duplicate evidence (the network is FIFO, so
//! any ACK for a later packet while an earlier one is outstanding is
//! reordering-free loss evidence) with a NewReno-style recovery window (one
//! congestion event per window), and falls back to a coarse RTO. RTT
//! estimation follows RFC 6298 (srtt/rttvar EWMAs, Karn's rule on
//! retransmits); a delivery-rate estimator and the paper's 10-interval
//! smoothed history arrays (\[66\]) complete the §5.0.1 feature surface that
//! [`CcView`] exposes to policies.
//!
//! # Cost contract
//!
//! A verifier-accepted controller may open the window to [`MAX_CWND`], so
//! the sender's cost must follow the packets it handles, not the window it
//! is told to keep:
//!
//! * **memory** — 16 bytes per sequence number between the oldest
//!   outstanding packet and the newest sent (a dense [`VecDeque`] indexed by
//!   `seq − base`), plus 8 per *suspect* (below);
//! * **[`Sender::pump`]** — one bulk append, no per-packet map insert;
//! * **[`Sender::on_ack`]** — amortised O(1): each packet is visited at most
//!   once when the first ack above it arrives, at most three times per
//!   (re)transmission while it gathers duplicate evidence, and once when it
//!   leaves the window;
//! * **no allocation per call** — fresh segments come back as a
//!   `Range<u64>`, retransmissions in a buffer the sender reuses.
//!
//! The evidence bound rests on one observation: a packet's `dup_evidence`
//! is only ever compared with `== 3`. Once a count reaches 3 with the
//! half-RTT guard unmet it can never equal 3 again until a retransmission
//! resets it, so further bumps are unobservable and the packet is *inert*.
//! Only live packets that lie below some ack and hold evidence ≤ 2 — the
//! suspects — need a visit per ack, and every visit either bumps a count
//! toward 3 or drops an acknowledged packet from the list.

use std::collections::VecDeque;
use std::ops::Range;

/// Length of each history ring (§5.0.1: "the last 10 RTT intervals").
pub const HIST_LEN: usize = 10;

/// Smoothed per-RTT-interval history, most recent first.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Mean RTT per interval, µs.
    pub rtt_us: [i64; HIST_LEN],
    /// Bytes delivered per interval.
    pub delivered: [i64; HIST_LEN],
    /// Loss events per interval.
    pub losses: [i64; HIST_LEN],
    /// Mean cwnd per interval, packets.
    pub cwnd: [i64; HIST_LEN],
    /// Mean queuing-delay estimate (`srtt − min_rtt`) per interval, µs.
    pub qdelay_us: [i64; HIST_LEN],
}

impl History {
    fn push(&mut self, rtt: i64, delivered: i64, losses: i64, cwnd: i64, qdelay: i64) {
        for ring in [
            &mut self.rtt_us,
            &mut self.delivered,
            &mut self.losses,
            &mut self.cwnd,
            &mut self.qdelay_us,
        ] {
            ring.rotate_right(1);
        }
        self.rtt_us[0] = rtt;
        self.delivered[0] = delivered;
        self.losses[0] = losses;
        self.cwnd[0] = cwnd;
        self.qdelay_us[0] = qdelay;
    }
}

/// Everything a `cong_control` invocation may read (§5.0.1's feature set).
#[derive(Debug)]
pub struct CcView<'a> {
    pub now_us: u64,
    pub cwnd: u64,
    pub prev_cwnd: u64,
    pub min_rtt_us: u64,
    pub srtt_us: u64,
    pub last_rtt_us: u64,
    pub inflight_bytes: u64,
    pub inflight_pkts: u64,
    pub mss: u32,
    pub delivered_bytes: u64,
    pub delivery_rate_bps: u64,
    pub acked_bytes: u64,
    pub ssthresh: u64,
    pub history: &'a History,
}

/// A congestion-control algorithm: returns the new cwnd (packets) on each
/// ACK batch or loss event. The harness clamps the result to
/// `[MIN_CWND, MAX_CWND]`, mirroring the kernel scaffold's own guardrails.
pub trait CongestionControl {
    /// Display name.
    fn name(&self) -> &str;
    /// New data was cumulatively acknowledged.
    fn on_ack(&mut self, view: &CcView<'_>) -> u64;
    /// A loss event was detected (triple-dup or RTO).
    fn on_loss(&mut self, view: &CcView<'_>) -> u64;
}

/// Floor for cwnd, packets.
pub const MIN_CWND: u64 = 2;
/// Ceiling for cwnd, packets.
pub const MAX_CWND: u64 = 1 << 20;

/// Per-packet bookkeeping at the sender: one window slot, 16 bytes.
#[derive(Debug, Clone, Copy)]
struct SentPacket {
    sent_us: u64,
    size: u32,
    retransmitted: bool,
    /// Acks for later packets since the last (re)transmission, counted to 3
    /// and no further: 3 with the packet still in this state means inert.
    dup_evidence: u8,
    /// Still outstanding. A dead slot only waits for the slots before it to
    /// die so it can be popped off the front.
    live: bool,
}

// the cost contract's "16 bytes per sequence number"
const _: () = assert!(std::mem::size_of::<SentPacket>() == 16);

impl SentPacket {
    /// Put the packet back on the wire: its evidence starts over and
    /// Karn's rule bars it from RTT sampling.
    fn resend(&mut self, now_us: u64) {
        self.sent_us = now_us;
        self.retransmitted = true;
        self.dup_evidence = 0;
    }
}

/// The sending endpoint of one flow.
pub struct Sender {
    pub cc: Box<dyn CongestionControl>,
    pub mss: u32,
    pub cwnd: u64,
    pub prev_cwnd: u64,
    pub ssthresh: u64,
    /// Slot `i` is sequence number `base + i`, so `base + window.len()` is
    /// the next fresh one. The front slot is live or the window is empty.
    window: VecDeque<SentPacket>,
    base: u64,
    /// Live slots in `window`, and their bytes.
    live: u64,
    inflight_bytes: u64,
    /// One past the largest sequence number ever acked. Nothing at or above
    /// it has an ack above it: every such slot is live with evidence 0.
    high: u64,
    /// Ascending sequence numbers below `high` that the next ack above them
    /// must visit: every live packet there with evidence ≤ 2, plus acked
    /// ones the visit will drop.
    suspects: VecDeque<u64>,
    /// `(seq, size)` to put back on the wire, as decided by the latest
    /// `on_ack`/`on_timer`; reused so neither allocates per call.
    retx: Vec<(u64, u32)>,
    // RTT estimation
    pub srtt_us: u64,
    rttvar_us: u64,
    pub min_rtt_us: u64,
    pub last_rtt_us: u64,
    // delivery accounting
    pub delivered_bytes: u64,
    pub delivery_rate_bps: u64,
    rate_window_start_us: u64,
    rate_window_bytes: u64,
    // recovery state: loss events are collapsed until this seq is acked
    recovery_until: u64,
    // ECN reaction state: ECE echoes are collapsed until this seq is acked
    // (RFC 3168: at most one cwnd reduction per window of data)
    ecn_recovery_until: u64,
    // history interval accumulation
    pub history: History,
    interval_start_us: u64,
    interval_delivered: u64,
    interval_losses: u64,
    interval_rtt_sum: u64,
    interval_rtt_n: u64,
    interval_cwnd_sum: u64,
    interval_cwnd_n: u64,
    // counters
    pub retransmits: u64,
    pub loss_events: u64,
    /// ECN congestion events (ECE echoes reacted to), counted separately
    /// from `loss_events` — no packet was lost.
    pub ecn_events: u64,
    /// Window slots and suspects touched so far: what the cost contract
    /// bounds, counted so a test can hold it to the bound.
    #[cfg(test)]
    pub(crate) visits: u64,
}

/// Build a [`CcView`] borrowing only `history`, leaving `self.cc` free for
/// the simultaneous `&mut` the callback needs.
macro_rules! cc_view {
    ($self:ident, $now:expr, $acked:expr) => {
        CcView {
            now_us: $now,
            cwnd: $self.cwnd,
            prev_cwnd: $self.prev_cwnd,
            min_rtt_us: if $self.min_rtt_us == u64::MAX { 0 } else { $self.min_rtt_us },
            srtt_us: $self.srtt_us,
            last_rtt_us: $self.last_rtt_us,
            inflight_bytes: $self.inflight_bytes,
            inflight_pkts: $self.live,
            mss: $self.mss,
            delivered_bytes: $self.delivered_bytes,
            delivery_rate_bps: $self.delivery_rate_bps,
            acked_bytes: $acked,
            ssthresh: $self.ssthresh,
            history: &$self.history,
        }
    };
}

impl Sender {
    /// New sender with an initial window of 10 segments (RFC 6928).
    pub fn new(cc: Box<dyn CongestionControl>, mss: u32) -> Self {
        Sender {
            cc,
            mss,
            cwnd: 10,
            prev_cwnd: 10,
            ssthresh: MAX_CWND,
            window: VecDeque::new(),
            base: 0,
            live: 0,
            inflight_bytes: 0,
            high: 0,
            suspects: VecDeque::new(),
            retx: Vec::new(),
            srtt_us: 0,
            rttvar_us: 0,
            min_rtt_us: u64::MAX,
            last_rtt_us: 0,
            delivered_bytes: 0,
            delivery_rate_bps: 0,
            rate_window_start_us: 0,
            rate_window_bytes: 0,
            recovery_until: 0,
            ecn_recovery_until: 0,
            history: History::default(),
            interval_start_us: 0,
            interval_delivered: 0,
            interval_losses: 0,
            interval_rtt_sum: 0,
            interval_rtt_n: 0,
            interval_cwnd_sum: 0,
            interval_cwnd_n: 0,
            retransmits: 0,
            loss_events: 0,
            ecn_events: 0,
            #[cfg(test)]
            visits: 0,
        }
    }

    /// Packets currently in flight.
    pub fn inflight_pkts(&self) -> u64 {
        self.live
    }

    fn next_seq(&self) -> u64 {
        self.base + self.window.len() as u64
    }

    /// Count `n` window slots or suspects touched (tests only).
    #[inline]
    fn visited(&mut self, _n: u64) {
        #[cfg(test)]
        {
            self.visits += _n;
        }
    }

    /// Send as many fresh segments as the window allows (greedy source).
    /// Returns their sequence numbers; each is `mss` bytes.
    pub fn pump(&mut self, now_us: u64) -> Range<u64> {
        let first = self.next_seq();
        let n = self.cwnd.saturating_sub(self.live);
        let fresh = SentPacket {
            sent_us: now_us,
            size: self.mss,
            retransmitted: false,
            dup_evidence: 0,
            live: true,
        };
        self.window.extend(std::iter::repeat_n(fresh, n as usize));
        self.live += n;
        self.inflight_bytes += n * self.mss as u64;
        self.visited(n);
        first..first + n
    }

    // NOTE: constructed via `cc_view!` so `self.cc` stays mutably borrowable.

    fn set_cwnd(&mut self, new: u64) {
        self.prev_cwnd = self.cwnd;
        self.cwnd = new.clamp(MIN_CWND, MAX_CWND);
    }

    fn update_rtt(&mut self, sample_us: u64) {
        self.last_rtt_us = sample_us;
        self.min_rtt_us = self.min_rtt_us.min(sample_us);
        if self.srtt_us == 0 {
            self.srtt_us = sample_us;
            self.rttvar_us = sample_us / 2;
        } else {
            let diff = self.srtt_us.abs_diff(sample_us);
            self.rttvar_us = (3 * self.rttvar_us + diff) / 4;
            self.srtt_us = (7 * self.srtt_us + sample_us) / 8;
        }
    }

    fn roll_interval(&mut self, now_us: u64) {
        let interval = self.srtt_us.max(1_000);
        if now_us.saturating_sub(self.interval_start_us) >= interval {
            let mean_rtt = (self.interval_rtt_sum.checked_div(self.interval_rtt_n))
                .unwrap_or(self.srtt_us) as i64;
            let mean_cwnd = (self.interval_cwnd_sum.checked_div(self.interval_cwnd_n))
                .unwrap_or(self.cwnd) as i64;
            let min_rtt = if self.min_rtt_us == u64::MAX { 0 } else { self.min_rtt_us };
            let qdelay = (self.srtt_us.saturating_sub(min_rtt)) as i64;
            self.history.push(
                mean_rtt,
                self.interval_delivered as i64,
                self.interval_losses as i64,
                mean_cwnd,
                qdelay,
            );
            self.interval_start_us = now_us;
            self.interval_delivered = 0;
            self.interval_losses = 0;
            self.interval_rtt_sum = 0;
            self.interval_rtt_n = 0;
            self.interval_cwnd_sum = 0;
            self.interval_cwnd_n = 0;
        }
    }

    /// A loss event (triple-dup or RTO) opens a recovery window and asks
    /// the controller for the new cwnd.
    fn charge_loss_event(&mut self, now_us: u64) {
        self.loss_events += 1;
        self.interval_losses += 1;
        self.recovery_until = self.next_seq();
        self.ssthresh = (self.cwnd / 2).max(MIN_CWND);
        let view = cc_view!(self, now_us, 0);
        let new = self.cc.on_loss(&view);
        self.set_cwnd(new);
    }

    /// Handle an ACK for `seq` arriving at `now_us`; `ece` is the ECN-Echo
    /// flag (the receiver saw CE on the corresponding data packet). Returns
    /// the `(seq, size)` retransmissions triggered by dup evidence, in
    /// ascending order (however many, they are at most one loss event).
    pub fn on_ack(&mut self, seq: u64, now_us: u64, ece: bool) -> &[(u64, u32)] {
        self.retx.clear();
        let slot = seq.checked_sub(self.base).and_then(|i| self.window.get_mut(i as usize));
        let Some(slot) = slot.filter(|p| p.live) else {
            return &self.retx; // duplicate/stale ack
        };
        slot.live = false;
        let pkt = *slot;
        self.live -= 1;
        self.inflight_bytes -= pkt.size as u64;
        self.delivered_bytes += pkt.size as u64;

        // Karn's rule: no RTT sample from retransmitted packets.
        if !pkt.retransmitted {
            self.update_rtt(now_us.saturating_sub(pkt.sent_us));
        }

        // Delivery-rate estimate over a sliding srtt-sized window.
        self.rate_window_bytes += pkt.size as u64;
        let win = self.srtt_us.max(1_000);
        if now_us.saturating_sub(self.rate_window_start_us) >= win {
            let dt = now_us - self.rate_window_start_us;
            self.delivery_rate_bps = self.rate_window_bytes * 8 * 1_000_000 / dt.max(1);
            self.rate_window_start_us = now_us;
            self.rate_window_bytes = 0;
        }

        // interval accumulation
        self.interval_delivered += pkt.size as u64;
        if !pkt.retransmitted {
            self.interval_rtt_sum += self.last_rtt_us;
            self.interval_rtt_n += 1;
        }
        self.interval_cwnd_sum += self.cwnd;
        self.interval_cwnd_n += 1;
        self.roll_interval(now_us);

        // SACK-style dup evidence for every older outstanding packet that
        // can still act on it (the suspects). Retransmission and congestion
        // signalling are decoupled, as in NewReno: every packet whose
        // evidence crosses the threshold is retransmitted, but at most one
        // congestion event is charged per recovery window (burst drops are
        // one event).
        if seq >= self.high {
            // The first ack above `[high, seq)`: all of it is outstanding
            // and starts gathering evidence with this ack.
            self.suspects.extend(self.high..seq);
            self.visited(seq - self.high);
            self.high = seq + 1;
        }
        let mut new_loss_event = false;
        let rtt_guard = self.srtt_us / 2;
        let below = self.suspects.partition_point(|&s| s < seq);
        let mut kept = 0;
        for i in 0..below {
            let s = self.suspects[i];
            // Acked since it was listed (popped off the front, even): out.
            let slot = s.checked_sub(self.base).and_then(|i| self.window.get_mut(i as usize));
            let Some(p) = slot.filter(|p| p.live) else { continue };
            p.dup_evidence += 1;
            if p.dup_evidence == 3 {
                // The guard suppresses spurious re-retransmission of a
                // packet that was retransmitted less than ~half an RTT ago
                // (evidence from acks of packets sent before the
                // retransmission). Unmet, the packet is inert until an RTO
                // resends it: off the list.
                if now_us.saturating_sub(p.sent_us) < rtt_guard {
                    continue;
                }
                p.resend(now_us);
                self.retransmits += 1;
                self.retx.push((s, p.size));
                new_loss_event |= s >= self.recovery_until;
            }
            self.suspects[kept] = s;
            kept += 1;
        }
        // moves whichever side of the gap is shorter: at most `kept` entries
        self.suspects.drain(kept..below);
        self.visited(below as u64);

        if new_loss_event {
            self.charge_loss_event(now_us);
        } else if ece && seq >= self.ecn_recovery_until {
            // RFC 3168 reaction: treat the mark as a congestion signal
            // (ssthresh + cc.on_loss) but with nothing to retransmit, at
            // most once per window of data.
            self.ecn_events += 1;
            self.ecn_recovery_until = self.next_seq();
            self.ssthresh = (self.cwnd / 2).max(MIN_CWND);
            let view = cc_view!(self, now_us, 0);
            let new = self.cc.on_loss(&view);
            self.set_cwnd(new);
        } else if self.retx.is_empty() {
            let view = cc_view!(self, now_us, pkt.size as u64);
            let new = self.cc.on_ack(&view);
            self.set_cwnd(new);
        }

        while self.window.front().is_some_and(|p| !p.live) {
            self.window.pop_front();
            self.base += 1;
            self.visited(1);
        }
        &self.retx
    }

    /// Current retransmission timeout (RFC 6298 flavoured, floored).
    pub fn rto_us(&self) -> u64 {
        if self.srtt_us == 0 {
            1_000_000
        } else {
            (self.srtt_us + 4 * self.rttvar_us).max(200_000)
        }
    }

    /// Periodic timer: retransmit the oldest packet if it has outlived the
    /// RTO (tail-loss recovery when dup evidence cannot accumulate).
    /// Returns it as `(seq, size)`, or nothing.
    pub fn on_timer(&mut self, now_us: u64) -> &[(u64, u32)] {
        self.retx.clear();
        let rto_us = self.rto_us();
        let Some(oldest) =
            self.window.front().filter(|p| now_us.saturating_sub(p.sent_us) >= rto_us)
        else {
            return &self.retx;
        };
        // An inert packet is re-armed by the resend, so it is a suspect again
        // (one that never left the list is still on it). It is the lowest
        // live packet: only acked leftovers can sort before it.
        if oldest.dup_evidence == 3 {
            let at = self.suspects.partition_point(|&s| s < self.base);
            self.suspects.insert(at, self.base);
        }
        self.charge_loss_event(now_us);
        let oldest = &mut self.window[0];
        oldest.resend(now_us);
        self.retransmits += 1;
        self.retx.push((self.base, oldest.size));
        &self.retx
    }

    /// Panic unless the window, its counters and the suspect list agree.
    /// O(window): for tests to call between operations, not for the hot path.
    #[cfg(debug_assertions)]
    pub fn check_invariants(&self) {
        let live = self.window.iter().filter(|p| p.live);
        assert_eq!(self.live, live.clone().count() as u64, "live count");
        assert_eq!(self.inflight_bytes, live.map(|p| p.size as u64).sum::<u64>(), "inflight bytes");
        assert!(self.window.front().is_none_or(|p| p.live), "dead slot at the front");
        assert!(self.base <= self.high && self.high <= self.next_seq(), "high outside the window");
        let ascending = self.suspects.iter().zip(self.suspects.iter().skip(1)).all(|(a, b)| a < b);
        assert!(ascending, "suspects out of order: {:?}", self.suspects);
        assert!(self.suspects.back().is_none_or(|&s| s < self.high), "suspect at or above high");
        for (seq, p) in (self.base..).zip(&self.window) {
            if seq >= self.high {
                assert!(p.live && p.dup_evidence == 0, "seq {seq} above high: {p:?}");
            } else if p.live {
                let listed = self.suspects.binary_search(&seq).is_ok();
                assert_eq!(listed, p.dup_evidence <= 2, "seq {seq} listed={listed}: {p:?}");
                assert!(p.dup_evidence <= 3, "seq {seq}: {p:?}");
            }
        }
    }
}

/// The receiving endpoint: per-packet ACKs, first-receipt accounting.
#[derive(Debug, Default)]
pub struct Receiver {
    /// Bit `seq` is set once `seq` has arrived. A sender numbers its
    /// packets densely from 0, so this is one bit per packet it ever sent.
    seen: Vec<u64>,
    /// Unique payload bytes received.
    pub unique_bytes: u64,
    /// Total packets received (including spurious retransmits).
    pub packets: u64,
    /// Packets received with the ECN CE bit set.
    pub ce_packets: u64,
}

impl Receiver {
    /// New empty receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Process a data packet; returns the seq to acknowledge. A CE-marked
    /// packet (`ecn_ce`) is counted and must be echoed as ECE on its ACK.
    pub fn on_data(&mut self, seq: u64, size: u32, ecn_ce: bool) -> u64 {
        self.packets += 1;
        if ecn_ce {
            self.ce_packets += 1;
        }
        let (word, bit) = ((seq / 64) as usize, 1u64 << (seq % 64));
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.unique_bytes += size as u64;
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed-window CC for transport-mechanics tests.
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

    fn sender(w: u64) -> Sender {
        let mut s = Sender::new(Box::new(FixedCc(w)), 1500);
        s.cwnd = w;
        s
    }

    #[test]
    fn pump_fills_window() {
        let mut s = sender(5);
        assert_eq!(s.pump(0), 0..5);
        assert_eq!(s.inflight_pkts(), 5);
        assert!(s.pump(1).is_empty(), "window full");
    }

    #[test]
    fn ack_frees_window_and_updates_rtt() {
        let mut s = sender(3);
        s.pump(0);
        s.on_ack(0, 40_000, false);
        assert_eq!(s.inflight_pkts(), 2);
        assert_eq!(s.last_rtt_us, 40_000);
        assert_eq!(s.srtt_us, 40_000);
        assert_eq!(s.min_rtt_us, 40_000);
        assert_eq!(s.delivered_bytes, 1500);
        // window has room again
        assert_eq!(s.pump(41_000), 3..4);
    }

    #[test]
    fn triple_dup_triggers_single_loss_event() {
        let mut s = sender(8);
        s.pump(0);
        // acks for 1,2 — packet 0 accumulates dup evidence
        assert!(s.on_ack(1, 40_000, false).is_empty());
        assert!(s.on_ack(2, 41_000, false).is_empty());
        assert_eq!(s.on_ack(3, 42_000, false), [(0, 1500)]);
        assert_eq!(s.loss_events, 1);
        // further acks in the same window do not re-trigger
        assert!(s.on_ack(4, 43_000, false).is_empty());
        assert!(s.on_ack(5, 43_500, false).is_empty());
        assert_eq!(s.loss_events, 1);
    }

    #[test]
    fn karns_rule_skips_retransmit_rtt() {
        let mut s = sender(8);
        s.pump(0);
        s.on_ack(1, 40_000, false);
        s.on_ack(2, 41_000, false);
        s.on_ack(3, 42_000, false); // retransmits 0
        let srtt_before = s.srtt_us;
        s.on_ack(0, 43_000, false); // acked after retransmit: no RTT sample
        assert_eq!(s.srtt_us, srtt_before);
    }

    #[test]
    fn rto_fires_and_is_floored() {
        let mut s = sender(2);
        s.pump(0);
        assert!(s.on_timer(100_000).is_empty(), "before RTO");
        assert_eq!(s.on_timer(1_100_000), [(0, 1500)], "RTO must retransmit the oldest");
        assert_eq!(s.loss_events, 1);
        assert!(s.rto_us() >= 200_000);
    }

    #[test]
    fn history_rolls_intervals() {
        let mut s = sender(4);
        s.pump(0);
        s.on_ack(0, 40_000, false);
        // force several intervals
        for (i, t) in [(1u64, 90_000u64), (2, 140_000), (3, 190_000)] {
            s.on_ack(i, t, false);
        }
        assert!(s.history.rtt_us[0] > 0, "history must have rolled");
        assert!(s.history.delivered[0] >= 0);
    }

    #[test]
    fn ece_reacts_once_per_window_without_retransmit() {
        let mut s = sender(8);
        s.pump(0);
        let cwnd_before = s.cwnd;
        assert!(s.on_ack(0, 40_000, true).is_empty(), "ECN reaction must not retransmit");
        assert_eq!(s.ecn_events, 1);
        assert_eq!(s.loss_events, 0, "a mark is not a loss");
        assert_eq!(s.ssthresh, (cwnd_before / 2).max(MIN_CWND));
        // further ECE echoes within the same window are collapsed
        s.on_ack(1, 41_000, true);
        s.on_ack(2, 42_000, true);
        assert_eq!(s.ecn_events, 1);
        // a new window (packets sent after the reaction) re-arms the signal
        s.pump(43_000);
        for seq in 3..8 {
            s.on_ack(seq, 44_000 + seq * 100, false);
        }
        s.on_ack(8, 46_000, true);
        assert_eq!(s.ecn_events, 2);
    }

    /// The cost contract, by count rather than by clock: the 0.4 s run of
    /// a window held at `MAX_CWND` sends 2^20 packets in one burst, sweeps
    /// them into the suspect list with the first ack of the second window,
    /// resends nearly all of them at the third dup, and counts them inert
    /// three acks later. Before the dense window every one of its ~700 acks
    /// walked the 2^20 outstanding packets.
    #[test]
    fn exploding_window_costs_a_bounded_number_of_visits_per_packet() {
        use crate::sim::{SimConfig, Simulation};
        let mut cfg = SimConfig::paper_scenario();
        cfg.duration_us = 400_000;
        let mut sim = Simulation::new(cfg, vec![Box::new(FixedCc(MAX_CWND))]);
        let flow = sim.run().remove(0);
        let s = sim.sender(0);
        let sent = s.next_seq();
        assert!(sent > MAX_CWND && flow.retransmits > MAX_CWND / 2, "the window must explode");
        assert!(flow.loss_events > 0, "and dup evidence must have run");
        let budget = 8 * (sent + flow.retransmits);
        assert!(
            s.visits <= budget,
            "{} visits for {sent} sent + {} resent",
            s.visits,
            flow.retransmits
        );
    }

    #[test]
    fn receiver_counts_ce_packets() {
        let mut r = Receiver::new();
        r.on_data(0, 1500, true);
        r.on_data(1, 1500, false);
        r.on_data(2, 1500, true);
        assert_eq!(r.ce_packets, 2);
        assert_eq!(r.unique_bytes, 4500);
    }

    #[test]
    fn receiver_dedups_bytes() {
        let mut r = Receiver::new();
        assert_eq!(r.on_data(0, 1500, false), 0);
        assert_eq!(r.on_data(0, 1500, false), 0); // spurious retransmit
        assert_eq!(r.unique_bytes, 1500);
        assert_eq!(r.packets, 2);
    }
}
