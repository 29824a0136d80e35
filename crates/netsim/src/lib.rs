//! # policysmith-netsim — deterministic discrete-event network emulation
//!
//! The congestion-control case study (§5 of the paper) evaluates candidates
//! "on a 12 Mbps, 20 ms delay emulated link" built with Mahimahi \[42\]. This
//! crate substitutes a deterministic discrete-event simulator for Mahimahi's
//! real-time emulation:
//!
//! * [`link`] — a bottleneck with a serialization rate, one-way propagation
//!   delay, and a drop-tail byte-bounded queue (`mm-link` + `mm-delay`
//!   equivalent), with a pluggable [`AqmPolicy`] decision point at
//!   enqueue/dequeue;
//! * [`aqm`] — the AQM trait plus the man-made baselines (CoDel, PIE) and
//!   the default [`DropTail`]; `Mark` decisions flow through the ECN path
//!   (CE bit → receiver echo → one sender reaction per window);
//! * [`transport`] — a TCP-like reliable transport: window-limited sender,
//!   per-packet ACKs, SACK-style triple-dup loss detection with a NewReno
//!   recovery window, RTO fallback, RTT estimation (EWMA srtt/rttvar +
//!   min-RTT), delivery-rate estimation, and the 10-interval smoothed
//!   **history arrays** of §5.0.1 — plus the [`CongestionControl`] trait
//!   that both the classical baselines and kbpf-backed synthesized policies
//!   implement (in `policysmith-cc`);
//! * [`sim`] — the event loop gluing flows to the shared bottleneck and
//!   collecting utilization / queuing-delay / loss metrics.
//!
//! Everything is integer-microsecond virtual time; runs are bit-for-bit
//! reproducible.

pub mod aqm;
pub mod link;
pub mod sim;
pub mod transport;

pub use aqm::{AqmDecision, AqmPolicy, AqmView, CoDel, DropTail, Pie};
pub use link::{Bottleneck, LinkCfg};
pub use sim::{FlowMetrics, SimConfig, Simulation};
pub use transport::{CcView, CongestionControl, History, HIST_LEN};
