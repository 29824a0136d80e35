//! # policysmith-obs — the workspace observability layer
//!
//! The paper's pitch is that generated policies can be *trusted in
//! production*; trust needs continuous observable evidence, not one-shot
//! validation. This crate is that evidence layer, in three pillars:
//!
//! * [`hist`] — the log-linear [`LatencyHistogram`] every crate records
//!   and merges latencies with (serve workers each own one), and the
//!   [`MetricsSnapshot`] a serve run reports its counts as.
//!   [`metrics`], a sharded [`MetricsRegistry`] of cache-line-padded
//!   per-worker slots backed by [`AtomicHistogram`]s, and [`ring`], a
//!   bounded SPSC ring, are kept only for the benchmark probes that time
//!   them.
//! * [`trace`] — policy-lifecycle tracing: a bounded ring-buffer event
//!   log ([`TraceLog`], process-global via [`trace::global`]) with spans
//!   over the whole §3.1 loop: search rounds with `CostLedger` deltas,
//!   guard verdicts, `PolicyCell` publishes, fault-latch demotions,
//!   retry/backoff attempts.
//! * [`export`] — self-describing JSON: [`MetricsSnapshot`] and trace
//!   timelines carry `schema` tags so any `exp_*` results artifact can
//!   embed them (`policysmith_bench::write_json` stamps every artifact
//!   with [`export::ambient_value`]).
//!
//! obs deliberately depends on no other workspace crate — `core`,
//! `serve`, and `bench` all sit above it.

pub mod export;
pub mod hist;
pub mod metrics;
pub mod ring;
pub mod trace;

pub use export::MetricsSnapshot;
pub use hist::{AtomicHistogram, LatencyHistogram};
pub use metrics::{CounterId, HistId, MetricsRegistry, Shard};
pub use trace::{emit, TraceEvent, TraceKind, TraceLog};
