//! # policysmith-obs — the workspace observability layer
//!
//! The paper's pitch is that generated policies can be *trusted in
//! production*; trust needs continuous observable evidence, not one-shot
//! validation. This crate is that evidence layer, in three pillars:
//!
//! * [`metrics`] — a sharded [`MetricsRegistry`]: counters, gauges, and
//!   the log-linear [`LatencyHistogram`], one cache-line-padded slot per
//!   worker shard. Workers write their own shard with plain
//!   unsynchronized stores; a reader merges shards lock-free on demand.
//!   [`ring`] adds the bounded SPSC lane that carries per-window samples
//!   to the adaptation thread, one lane per worker.
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
pub use metrics::{CounterId, GaugeId, HistId, MetricsRegistry, Shard};
pub use trace::{emit, TraceEvent, TraceKind, TraceLog};
