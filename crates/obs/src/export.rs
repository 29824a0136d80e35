//! Self-describing export: metrics snapshots and trace timelines as JSON
//! `Value` trees any `exp_*` binary can embed in its results artifact.
//!
//! Every exported object carries a `schema` tag
//! (`policysmith.obs.metrics.v1` / `policysmith.obs.timeline.v1` /
//! `policysmith.obs.ambient.v1`) so a consumer can identify the shape
//! without out-of-band knowledge. Histograms export their count, mean,
//! max, and the standard quantile ladder; counters export the merged
//! total *and* the per-shard values (the shard breakdown is the
//! observability story — per-worker skew is visible, not averaged away).

use serde::Value;

use crate::hist::LatencyHistogram;
use crate::metrics::MetricsRegistry;
use crate::trace::{TraceEvent, TraceKind};

/// Schema tag on [`MetricsSnapshot`] exports.
pub const METRICS_SCHEMA: &str = "policysmith.obs.metrics.v1";
/// Schema tag on [`timeline_value`] exports.
pub const TIMELINE_SCHEMA: &str = "policysmith.obs.timeline.v1";
/// Schema tag on [`ambient_value`] exports.
pub const AMBIENT_SCHEMA: &str = "policysmith.obs.ambient.v1";

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

/// A point-in-time, owned copy of everything in a [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Shards the registry was created with.
    pub shards: usize,
    /// `(name, merged_total, per_shard)` per counter.
    pub counters: Vec<(String, u64, Vec<u64>)>,
    /// `(name, merged_histogram)` per histogram.
    pub histograms: Vec<(String, LatencyHistogram)>,
}

impl MetricsSnapshot {
    pub(crate) fn capture(reg: &MetricsRegistry) -> MetricsSnapshot {
        MetricsSnapshot {
            shards: reg.shards(),
            counters: reg.counter_entries().map(|(n, t, v)| (n.to_string(), t, v)).collect(),
            histograms: reg.hist_entries().map(|(n, h)| (n.to_string(), h)).collect(),
        }
    }

    /// Merged total of a counter by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _, _)| n == name).map(|(_, t, _)| *t).unwrap_or(0)
    }

    /// Merged histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The self-describing JSON tree.
    pub fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(name, total, per_shard)| {
                obj(vec![
                    ("name", s(name)),
                    ("total", num(*total as f64)),
                    ("per_shard", Value::Array(per_shard.iter().map(|&v| num(v as f64)).collect())),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let mut pairs = vec![("name", s(name))];
                pairs.extend(hist_fields(h));
                obj(pairs)
            })
            .collect();
        obj(vec![
            ("schema", s(METRICS_SCHEMA)),
            ("shards", num(self.shards as f64)),
            ("counters", Value::Array(counters)),
            ("histograms", Value::Array(histograms)),
        ])
    }
}

impl serde::Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        MetricsSnapshot::to_value(self)
    }
}

/// The standard histogram summary fields (count/mean/quantile ladder).
fn hist_fields(h: &LatencyHistogram) -> Vec<(&'static str, Value)> {
    let qs = h.quantiles(&[0.5, 0.9, 0.99, 0.999]);
    vec![
        ("count", num(h.count() as f64)),
        ("mean_ns", num(h.mean())),
        ("p50_ns", num(qs[0] as f64)),
        ("p90_ns", num(qs[1] as f64)),
        ("p99_ns", num(qs[2] as f64)),
        ("p999_ns", num(qs[3] as f64)),
        ("max_ns", num(h.max() as f64)),
    ]
}

/// Render one trace event as a flat JSON object (`seq`, `at_micros`,
/// `kind`, then the kind's fields).
pub fn event_value(e: &TraceEvent) -> Value {
    let mut pairs = vec![
        ("seq", num(e.seq as f64)),
        ("at_micros", num(e.at_micros as f64)),
        ("kind", s(e.kind.label())),
    ];
    match &e.kind {
        TraceKind::SearchRoundStart { round } => pairs.push(("round", num(*round as f64))),
        TraceKind::SearchRoundEnd {
            round,
            generated,
            accepted,
            evaluated,
            memo_hits,
            gen_seconds,
            round_best,
            best_so_far,
        } => pairs.extend([
            ("round", num(*round as f64)),
            ("generated", num(*generated as f64)),
            ("accepted", num(*accepted as f64)),
            ("evaluated", num(*evaluated as f64)),
            ("memo_hits", num(*memo_hits as f64)),
            ("gen_seconds", num(*gen_seconds)),
            ("round_best", num(*round_best)),
            ("best_so_far", num(*best_so_far)),
        ]),
        TraceKind::SearchDone {
            rounds,
            candidates_evaluated,
            memo_hits,
            tokens_in,
            tokens_out,
            gen_seconds,
            eval_seconds,
            eval_cpu_seconds,
            best_score,
        } => pairs.extend([
            ("rounds", num(*rounds as f64)),
            ("candidates_evaluated", num(*candidates_evaluated as f64)),
            ("memo_hits", num(*memo_hits as f64)),
            ("tokens_in", num(*tokens_in as f64)),
            ("tokens_out", num(*tokens_out as f64)),
            ("gen_seconds", num(*gen_seconds)),
            ("eval_seconds", num(*eval_seconds)),
            ("eval_cpu_seconds", num(*eval_cpu_seconds)),
            ("best_score", num(*best_score)),
        ]),
        TraceKind::GuardAdmit { context, candidate_score, incumbent_score } => pairs.extend([
            ("context", s(context)),
            ("candidate_score", num(*candidate_score)),
            ("incumbent_score", num(*incumbent_score)),
        ]),
        TraceKind::GuardReject { context, reason, candidate_score, incumbent_score } => pairs
            .extend([
                ("context", s(context)),
                ("reason", s(reason)),
                ("candidate_score", num(*candidate_score)),
                ("incumbent_score", num(*incumbent_score)),
            ]),
        TraceKind::Publish { generation, provenance } => {
            pairs.extend([("generation", num(*generation as f64)), ("provenance", s(provenance))])
        }
        TraceKind::Demotion { worker, generation, fault } => pairs.extend([
            ("worker", num(*worker as f64)),
            ("generation", num(*generation as f64)),
            ("fault", s(fault)),
        ]),
        TraceKind::RetryAttempt { attempt, error, backoff_ms } => pairs.extend([
            ("attempt", num(*attempt as f64)),
            ("error", s(error)),
            ("backoff_ms", num(*backoff_ms as f64)),
        ]),
        TraceKind::RetryGaveUp { attempts, why } => {
            pairs.extend([("attempts", num(*attempts as f64)), ("why", s(why))])
        }
    }
    obj(pairs)
}

/// Render a slice of trace events as a self-describing timeline document:
/// schema tag, per-kind counts, then the events in order.
pub fn timeline_value(events: &[TraceEvent]) -> Value {
    let mut by_kind: Vec<(String, u64)> = Vec::new();
    for e in events {
        let label = e.kind.label();
        match by_kind.iter_mut().find(|(k, _)| k == label) {
            Some((_, c)) => *c += 1,
            None => by_kind.push((label.to_string(), 1)),
        }
    }
    by_kind.sort();
    obj(vec![
        ("schema", s(TIMELINE_SCHEMA)),
        ("events_total", num(events.len() as f64)),
        (
            "events_by_kind",
            Value::Object(by_kind.into_iter().map(|(k, c)| (k, num(c as f64))).collect()),
        ),
        ("events", Value::Array(events.iter().map(event_value).collect())),
    ])
}

/// A tiny ambient stamp of the global trace log's state — embedded into
/// every results artifact by `policysmith_bench::write_json` under the
/// `"obs"` key. Counts only (no wall-clock data), so artifacts that are
/// otherwise pure functions of their flags stay reproducible.
pub fn ambient_value() -> Value {
    let log = crate::trace::global();
    obj(vec![
        ("schema", s(AMBIENT_SCHEMA)),
        ("trace_enabled", Value::Bool(log.enabled())),
        ("trace_events", num(log.seq() as f64)),
        ("trace_overwritten", num(log.dropped() as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceLog;

    #[test]
    fn snapshot_export_is_self_describing() {
        let mut reg = MetricsRegistry::new(2);
        let c = reg.counter("decisions");
        let h = reg.histogram("latency_ns");
        reg.shard(0).add(c, 5);
        reg.shard(1).add(c, 7);
        reg.shard(0).record(h, 100);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("decisions"), 12);
        assert_eq!(snap.histogram("latency_ns").unwrap().count(), 1);
        let text = serde_json::to_string(&snap.to_value()).unwrap();
        assert!(text.contains(METRICS_SCHEMA));
        assert!(text.contains("\"per_shard\":[5,7]"));
    }

    #[test]
    fn timeline_counts_kinds_and_keeps_order() {
        let log = TraceLog::new(8);
        log.emit(TraceKind::SearchRoundStart { round: 0 });
        log.emit(TraceKind::Publish { generation: 2, provenance: "x".into() });
        log.emit(TraceKind::SearchRoundStart { round: 1 });
        let v = timeline_value(&log.snapshot());
        let text = serde_json::to_string(&v).unwrap();
        assert!(text.contains(TIMELINE_SCHEMA));
        assert!(text.contains("\"search_round_start\":2"));
        assert!(text.contains("\"publish\":1"));
        assert!(text.contains("\"generation\":2"));
    }
}
