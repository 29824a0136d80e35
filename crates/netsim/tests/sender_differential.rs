//! Differential test of the sender, operation by operation.
//!
//! [`RefSender`] is the sender as it stood before it was rewritten for
//! speed: outstanding packets in a `BTreeMap`, a scan of every older packet
//! per ack, a `Vec` of actions returned per call. It is the specification.
//! The copy is verbatim but for its name and `push_history` (the ring push
//! is private to the crate). Random operation sequences — window steps up
//! to `MAX_CWND`, in-order acks, acks that skip holes, acks of retransmitted
//! packets, duplicate, stale and never-sent acks, ECN echoes, timers before
//! and after the RTO — go to both senders, and after **every** operation
//! the transmissions they returned (order included), every public field,
//! the derived accessors and every `CcView` their controllers were shown
//! must be equal, and the new sender's internal invariants must hold.

use policysmith_netsim::transport::{
    CcView, CongestionControl, History, Sender, MAX_CWND, MIN_CWND,
};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

// ---------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------

fn push_history(h: &mut History, rtt: i64, delivered: i64, losses: i64, cwnd: i64, qdelay: i64) {
    for ring in [&mut h.rtt_us, &mut h.delivered, &mut h.losses, &mut h.cwnd, &mut h.qdelay_us] {
        ring.rotate_right(1);
    }
    h.rtt_us[0] = rtt;
    h.delivered[0] = delivered;
    h.losses[0] = losses;
    h.cwnd[0] = cwnd;
    h.qdelay_us[0] = qdelay;
}

/// Per-packet bookkeeping at the sender.
#[derive(Debug, Clone, Copy)]
struct SentPacket {
    sent_us: u64,
    size: u32,
    retransmitted: bool,
    dup_evidence: u8,
}

/// The sending endpoint of one flow, as it was before the dense window.
pub struct RefSender {
    pub cc: Box<dyn CongestionControl>,
    pub mss: u32,
    pub cwnd: u64,
    pub prev_cwnd: u64,
    pub ssthresh: u64,
    next_seq: u64,
    unacked: BTreeMap<u64, SentPacket>,
    inflight_bytes: u64,
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
}

/// What the sender wants the simulator to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendAction {
    /// Transmit a (possibly re-) packet with this seq and size.
    Transmit { seq: u64, size: u32 },
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
            inflight_pkts: $self.unacked.len() as u64,
            mss: $self.mss,
            delivered_bytes: $self.delivered_bytes,
            delivery_rate_bps: $self.delivery_rate_bps,
            acked_bytes: $acked,
            ssthresh: $self.ssthresh,
            history: &$self.history,
        }
    };
}

impl RefSender {
    /// New sender with an initial window of 10 segments (RFC 6928).
    pub fn new(cc: Box<dyn CongestionControl>, mss: u32) -> Self {
        RefSender {
            cc,
            mss,
            cwnd: 10,
            prev_cwnd: 10,
            ssthresh: MAX_CWND,
            next_seq: 0,
            unacked: BTreeMap::new(),
            inflight_bytes: 0,
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
        }
    }

    /// Packets currently in flight.
    pub fn inflight_pkts(&self) -> u64 {
        self.unacked.len() as u64
    }

    /// Produce as many transmissions as the window allows (greedy source).
    pub fn pump(&mut self, now_us: u64) -> Vec<SendAction> {
        let mut out = Vec::new();
        while (self.unacked.len() as u64) < self.cwnd {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.unacked.insert(
                seq,
                SentPacket {
                    sent_us: now_us,
                    size: self.mss,
                    retransmitted: false,
                    dup_evidence: 0,
                },
            );
            self.inflight_bytes += self.mss as u64;
            out.push(SendAction::Transmit { seq, size: self.mss });
        }
        out
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
            push_history(
                &mut self.history,
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

    /// Handle an ACK for `seq` arriving at `now_us`; `ece` is the ECN-Echo
    /// flag (the receiver saw CE on the corresponding data packet). Returns
    /// retransmission actions triggered by dup evidence (at most one per
    /// loss event).
    pub fn on_ack(&mut self, seq: u64, now_us: u64, ece: bool) -> Vec<SendAction> {
        let Some(pkt) = self.unacked.remove(&seq) else {
            return Vec::new(); // duplicate/stale ack
        };
        self.inflight_bytes = self.inflight_bytes.saturating_sub(pkt.size as u64);
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

        // SACK-style dup evidence for every older outstanding packet.
        // Retransmission and congestion signalling are decoupled, as in
        // NewReno: every packet whose evidence crosses the threshold is
        // retransmitted, but at most one congestion event is charged per
        // recovery window (burst drops are one event).
        let mut to_retx: Vec<u64> = Vec::new();
        let mut new_loss_event = false;
        let rtt_guard = self.srtt_us / 2;
        for (&s, p) in self.unacked.range_mut(..seq) {
            p.dup_evidence = p.dup_evidence.saturating_add(1);
            // The guard suppresses spurious re-retransmission of a packet
            // that was retransmitted less than ~half an RTT ago (evidence
            // from acks of packets sent before the retransmission).
            if p.dup_evidence == 3 && now_us.saturating_sub(p.sent_us) >= rtt_guard {
                to_retx.push(s);
                if s >= self.recovery_until {
                    new_loss_event = true;
                }
            }
        }

        let mut actions = Vec::new();
        if new_loss_event {
            self.loss_events += 1;
            self.interval_losses += 1;
            self.recovery_until = self.next_seq;
            self.ssthresh = (self.cwnd / 2).max(MIN_CWND);
            let view = cc_view!(self, now_us, 0);
            let new = self.cc.on_loss(&view);
            self.set_cwnd(new);
        } else if ece && seq >= self.ecn_recovery_until {
            // RFC 3168 reaction: treat the mark as a congestion signal
            // (ssthresh + cc.on_loss) but with nothing to retransmit, at
            // most once per window of data.
            self.ecn_events += 1;
            self.ecn_recovery_until = self.next_seq;
            self.ssthresh = (self.cwnd / 2).max(MIN_CWND);
            let view = cc_view!(self, now_us, 0);
            let new = self.cc.on_loss(&view);
            self.set_cwnd(new);
        } else if to_retx.is_empty() {
            let view = cc_view!(self, now_us, pkt.size as u64);
            let new = self.cc.on_ack(&view);
            self.set_cwnd(new);
        }
        for s in to_retx {
            actions.extend(self.retransmit(s, now_us));
        }
        actions
    }

    fn retransmit(&mut self, seq: u64, now_us: u64) -> Vec<SendAction> {
        let Some(p) = self.unacked.get_mut(&seq) else {
            return Vec::new();
        };
        p.sent_us = now_us;
        p.retransmitted = true;
        p.dup_evidence = 0;
        let size = p.size;
        self.retransmits += 1;
        vec![SendAction::Transmit { seq, size }]
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
    pub fn on_timer(&mut self, now_us: u64) -> Vec<SendAction> {
        let Some((&seq, p)) = self.unacked.iter().next() else {
            return Vec::new();
        };
        if now_us.saturating_sub(p.sent_us) >= self.rto_us() {
            self.loss_events += 1;
            self.interval_losses += 1;
            self.recovery_until = self.next_seq;
            self.ssthresh = (self.cwnd / 2).max(MIN_CWND);
            let view = cc_view!(self, now_us, 0);
            let new = self.cc.on_loss(&view);
            self.set_cwnd(new);
            return self.retransmit(seq, now_us);
        }
        Vec::new()
    }

    /// A transmission was tail-dropped at the bottleneck before entering
    /// the wire; the packet stays outstanding and will be recovered by dup
    /// evidence or RTO.
    pub fn on_local_drop(&mut self, _seq: u64) {}
}

// ---------------------------------------------------------------------
// The harness: one script, two senders
// ---------------------------------------------------------------------

/// A controller the script drives: it answers the window the script last
/// set, and records every view it is shown.
struct Scripted {
    window: Rc<Cell<u64>>,
    views: Rc<RefCell<Vec<String>>>,
}

impl CongestionControl for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }
    fn on_ack(&mut self, v: &CcView<'_>) -> u64 {
        self.views.borrow_mut().push(format!("on_ack {v:?}"));
        self.window.get()
    }
    fn on_loss(&mut self, v: &CcView<'_>) -> u64 {
        self.views.borrow_mut().push(format!("on_loss {v:?}"));
        self.window.get()
    }
}

/// Everything observable about a sender between two operations.
macro_rules! observe {
    ($s:expr) => {
        format!(
            "{:?}",
            (
                ($s.cwnd, $s.prev_cwnd, $s.ssthresh, $s.inflight_pkts(), $s.rto_us()),
                ($s.srtt_us, $s.min_rtt_us, $s.last_rtt_us),
                ($s.delivered_bytes, $s.delivery_rate_bps),
                ($s.retransmits, $s.loss_events, $s.ecn_events),
                &$s.history,
            )
        )
    };
}

const MSS: u32 = 1500;

struct Pair {
    new: Sender,
    old: RefSender,
    window: Rc<Cell<u64>>,
    new_views: Rc<RefCell<Vec<String>>>,
    old_views: Rc<RefCell<Vec<String>>>,
    now_us: u64,
    /// Sequence numbers either sender put back on the wire, and ones acked.
    retransmitted: Vec<u64>,
    acked: Vec<u64>,
}

impl Pair {
    fn new() -> Pair {
        let window = Rc::new(Cell::new(10));
        let (new_views, old_views) = (Rc::default(), Rc::default());
        let cc = |views: &Rc<RefCell<Vec<String>>>| {
            Box::new(Scripted { window: window.clone(), views: views.clone() })
        };
        Pair {
            new: Sender::new(cc(&new_views), MSS),
            old: RefSender::new(cc(&old_views), MSS),
            window,
            new_views,
            old_views,
            now_us: 0,
            retransmitted: Vec::new(),
            acked: Vec::new(),
        }
    }

    /// Step the window both controllers answer and both senders hold.
    fn set_window(&mut self, w: u64) {
        self.window.set(w);
        self.new.cwnd = w;
        self.old.cwnd = w;
    }

    fn agree(&mut self, op: &str, new: Vec<(u64, u32)>, old: Vec<SendAction>) {
        let old: Vec<_> =
            old.into_iter().map(|SendAction::Transmit { seq, size }| (seq, size)).collect();
        assert_eq!(new, old, "{op} at {} us: transmissions differ", self.now_us);
        assert_eq!(observe!(self.new), observe!(self.old), "{op} at {} us", self.now_us);
        assert_eq!(*self.new_views.borrow(), *self.old_views.borrow(), "{op}: views differ");
        self.new_views.borrow_mut().clear();
        self.old_views.borrow_mut().clear();
        #[cfg(debug_assertions)]
        self.new.check_invariants();
    }

    fn pump(&mut self) -> std::ops::Range<u64> {
        let fresh = self.new.pump(self.now_us);
        let new = fresh.clone().map(|seq| (seq, MSS)).collect();
        let old = self.old.pump(self.now_us);
        self.agree("pump", new, old);
        fresh
    }

    fn ack(&mut self, seq: u64, ece: bool) -> Vec<(u64, u32)> {
        let new = self.new.on_ack(seq, self.now_us, ece).to_vec();
        let old = self.old.on_ack(seq, self.now_us, ece);
        self.agree(&format!("on_ack({seq}, ece={ece})"), new.clone(), old);
        self.retransmitted.extend(new.iter().map(|&(seq, _)| seq));
        self.acked.push(seq);
        new
    }

    fn timer(&mut self) -> Vec<(u64, u32)> {
        let new = self.new.on_timer(self.now_us).to_vec();
        let old = self.old.on_timer(self.now_us);
        self.agree("on_timer", new.clone(), old);
        self.retransmitted.extend(new.iter().map(|&(seq, _)| seq));
        new
    }

    /// The `n`-th outstanding sequence number from the oldest (`n` small).
    fn nth_oldest(&self, n: u64) -> Option<u64> {
        self.old.unacked.keys().nth(n as usize % self.old.unacked.len().max(1)).copied()
    }

    /// The `n`-th outstanding sequence number from the newest.
    fn nth_newest(&self, n: u64) -> Option<u64> {
        self.old.unacked.keys().rev().nth(n as usize % self.old.unacked.len().max(1)).copied()
    }

    /// One scripted operation: `kind` picks it, `arg` its operand, and
    /// virtual time moves `dt_us` forward first.
    fn step(&mut self, windows: &[u64], (kind, arg, dt_us, ece): (u8, u64, u64, bool)) {
        self.now_us += dt_us;
        let pick = |seqs: &[u64]| seqs.get(arg as usize % seqs.len().max(1)).copied();
        let ack = match kind {
            0 => {
                self.set_window(windows[arg as usize % windows.len()]);
                None
            }
            1 | 2 => {
                self.pump();
                None
            }
            // in order, then skipping holes from either end
            3 | 4 => self.nth_oldest(0),
            5 | 6 => self.nth_oldest(arg),
            7 | 8 => self.nth_newest(arg),
            // one that was retransmitted; a duplicate or stale one; one never sent
            9 => pick(&self.retransmitted),
            10 => pick(&self.acked),
            11 => Some(self.old.next_seq + arg),
            _ => {
                self.timer();
                None
            }
        };
        if let Some(seq) = ack {
            self.ack(seq, ece);
        }
    }
}

/// Gaps between operations, µs: within a serialization time, around the
/// half-RTT guard, around the RTO floor, past the initial RTO.
const GAPS_US: [u64; 8] = [0, 100, 1_000, 5_000, 21_000, 41_000, 210_000, 1_100_000];

fn script(len: usize) -> impl Strategy<Value = Vec<(u8, u64, u64, bool)>> {
    let gap = proptest::sample::select(GAPS_US.to_vec());
    proptest::collection::vec((0u8..14, 0u64..8, gap, any::<bool>()), 1..len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn senders_agree_after_every_op(ops in script(160)) {
        let mut pair = Pair::new();
        for op in ops {
            pair.step(&[2, 10, 40, 200, 1 << 12], op);
        }
    }
}

proptest! {
    // The reference pays 2^20 map inserts per pump and a 2^20-entry scan per
    // ack here, so few and short.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn senders_agree_on_exploding_windows(ops in script(48)) {
        let mut pair = Pair::new();
        pair.set_window(MAX_CWND);
        for op in ops {
            pair.step(&[2, 200, MAX_CWND, MAX_CWND], op);
        }
    }
}

// ---------------------------------------------------------------------
// Named cases: the three places the suspect list could go wrong
// ---------------------------------------------------------------------

/// Evidence reaches 3 while the half-RTT guard is unmet: the packet leaves
/// the suspect list and no later ack may fire it — until an RTO resends it,
/// which must put it back so fresh evidence counts again.
#[test]
fn guard_unmet_at_three_then_rto_rearms_the_packet() {
    let mut p = Pair::new();
    p.set_window(16);
    assert_eq!(p.pump(), 0..16);
    p.now_us = 40_000;
    for seq in [1, 2] {
        assert!(p.ack(seq, false).is_empty());
    }
    assert_eq!(p.ack(3, false), [(0, MSS)], "third dup fires");
    // three more acks land within half an RTT of that retransmission
    p.now_us = 41_000;
    for seq in [4, 5, 6] {
        assert!(p.ack(seq, false).is_empty(), "guard unmet at ack {seq}");
    }
    // inert now: neither time nor any number of later acks fire it
    p.now_us = 70_000;
    for seq in 7..12 {
        assert!(p.ack(seq, false).is_empty(), "inert at ack {seq}");
    }
    // the RTO resends it and re-arms it
    p.now_us = 300_000;
    assert_eq!(p.timer(), [(0, MSS)]);
    p.now_us = 500_000;
    for seq in [12, 13] {
        assert!(p.ack(seq, false).is_empty());
    }
    assert_eq!(p.ack(14, false), [(0, MSS)], "re-armed: fresh evidence fires again");
    assert_eq!(p.new.retransmits, 3);
}

/// An ack below the highest one acked bumps only what lies below *it*.
#[test]
fn an_ack_below_high_bumps_only_what_is_below_it() {
    let mut p = Pair::new();
    p.set_window(10);
    p.pump();
    p.now_us = 40_000;
    assert!(p.ack(9, false).is_empty()); // 0..9 all have one
    assert!(p.ack(4, false).is_empty()); // 0..4 have two, 5..9 still one
    assert_eq!(p.ack(8, false), [(0, MSS), (1, MSS), (2, MSS), (3, MSS)], "ascending");
    assert_eq!(p.ack(7, false), [(5, MSS), (6, MSS)], "one from 9, one from 8, one from 7");
    assert!(p.ack(6, false).is_empty(), "5 was just resent: its count starts over");
}

/// A hole is acked while it sits in the suspect list, the window's front
/// moves past it, and the list must shed it without disturbing the rest.
#[test]
fn a_hole_acked_while_it_is_a_suspect_drops_out() {
    let mut p = Pair::new();
    p.set_window(6);
    p.pump();
    p.now_us = 40_000;
    p.ack(5, false); // suspects 0..5
    p.ack(2, false); // a hole closes mid-list
    p.ack(0, false);
    p.ack(1, false); // front pops past 2 while 2 is still listed
    p.pump();
    p.now_us = 41_000;
    assert!(p.ack(4, false).is_empty()); // visits the stale 0, 1, 2 and the live 3
    assert_eq!(p.ack(7, false), [(3, MSS)], "5, 4 and 7 are above 3; 2, 0 and 1 were not");
    for seq in [8, 3, 6] {
        assert!(p.ack(seq, false).is_empty());
    }
    assert_eq!(p.pump(), 10..15, "only 9 was left outstanding");
}
