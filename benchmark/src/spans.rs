//! Benchmark-side tracing: spans recorded around the calls *into* each
//! layer, kept in memory, written out when the run ends.
//!
//! A span is `name, start_ns, end_ns, parent, op_id`. The parent is the
//! span open on the same thread when this one began; a span begun on a
//! thread with nothing open (an evaluation worker of the pipelined search)
//! hangs under the tracer's current root. A layer's self time is its
//! span's duration minus the part its child spans cover, minus what the
//! tracing itself cost there — calibrated once per run, because on a
//! 100 ns op two clock reads are not noise.

use serde_json::json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// "No parent": a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

/// What one span costs: `inner` is what an empty span measures of itself,
/// `outer` what it adds to the span around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    pub inner_ns: f64,
    pub outer_ns: f64,
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    root: AtomicU32,
    root_op: AtomicU64,
    cap: usize,
    dropped: AtomicU64,
}

/// Spans kept per run; further spans are counted, not stored.
pub const SPAN_CAP: usize = 200_000;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(SPAN_CAP)
    }
}

impl Tracer {
    pub fn new(cap: usize) -> Tracer {
        // allocate and touch the whole buffer now: a reallocation or a
        // first-touch page fault while recording would be charged to
        // whichever span happens to be open
        let blank = Span { id: 0, name: "", start_ns: 0, end_ns: 0, parent: NO_PARENT, op_id: 0 };
        let mut buffer = vec![blank; cap];
        buffer.clear();
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(buffer),
            next_id: AtomicU32::new(0),
            root: AtomicU32::new(NO_PARENT),
            root_op: AtomicU64::new(0),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag the spans this thread opens from now on with `op_id`.
    pub fn set_op(&self, op_id: u64) {
        OP.with(|op| op.set(op_id));
    }

    /// Open a span; it closes when the guard drops.
    pub fn begin(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, op_id) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let inherited = match open.last() {
                Some(&p) => (p, OP.with(Cell::get)),
                None => (self.root.load(Ordering::Relaxed), self.root_op.load(Ordering::Relaxed)),
            };
            open.push(id);
            inherited
        });
        SpanGuard { tracer: self, id, name, parent, op_id, start_ns: self.now_ns() }
    }

    /// Open a span that also adopts spans begun on other threads while it
    /// is open (the search's evaluation workers, the serve runtime's
    /// adaptation thread).
    pub fn begin_root(&self, name: &'static str, op_id: u64) -> SpanGuard<'_> {
        self.set_op(op_id);
        self.root_op.store(op_id, Ordering::Relaxed);
        let guard = self.begin(name);
        self.root.store(guard.id, Ordering::Relaxed);
        guard
    }

    /// Record a span whose two clock reads the caller already took (a
    /// nanosecond-scale hook buffers them and hands them over after the
    /// op, so that recording does not happen inside the op it measures).
    /// It hangs under the tracer's current root and carries this thread's
    /// op id.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent: self.root.load(Ordering::Relaxed),
            op_id: OP.with(Cell::get),
        };
        self.push(span);
    }

    fn push(&self, span: Span) {
        // a poisoned lock means another recorder panicked; keep the spans
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() < self.cap {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Everything recorded so far, in closing order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics while recording").clone()
    }

    /// Measure what a span costs on this machine (see [`SpanCost`]), in a
    /// tight loop: right for spans around micro- and millisecond calls.
    pub fn calibrate() -> SpanCost {
        const N: usize = 20_000;
        let t = Tracer::new(2 * N);
        for _ in 0..N {
            t.probe_cost();
        }
        cost_in_place(&t.snapshot()).expect("the loop above recorded probes")
    }

    /// Record one empty parent-and-child pair where the caller stands. On
    /// nanosecond-scale ops the tight loop of [`Tracer::calibrate`]
    /// flatters the tracer — between two sampled ops the workload evicts
    /// its code and buffers — so those passes drop a probe after each
    /// sampled op and read the cost from the probes ([`cost_in_place`]).
    pub fn probe_cost(&self) {
        let _parent = self.begin(COST_PARENT);
        let _child = self.begin(COST_CHILD);
    }
}

const COST_PARENT: &str = "trace.cost_parent";
const COST_CHILD: &str = "trace.cost_child";

/// Span cost from the probes among `spans`: an empty child measures
/// `inner`; its parent measures `inner` plus all the child cost it.
pub fn cost_in_place(spans: &[Span]) -> Option<SpanCost> {
    let median_of = |name: &str| {
        let mut d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        d.sort_by(f64::total_cmp);
        d.get(d.len() / 2).copied()
    };
    let (inner, parent) = (median_of(COST_CHILD)?, median_of(COST_PARENT)?);
    Some(SpanCost { inner_ns: inner, outer_ns: (parent - inner).max(inner) })
}

pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u32,
    name: &'static str,
    parent: u32,
    op_id: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        if self.tracer.root.load(Ordering::Relaxed) == self.id {
            self.tracer.root.store(NO_PARENT, Ordering::Relaxed);
        }
        self.tracer.push(Span {
            id: self.id,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            parent: self.parent,
            op_id: self.op_id,
        });
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    /// Σ measured durations, ns.
    pub total_ns: f64,
    /// Σ self times (children and tracing cost removed), ns.
    pub self_ns: f64,
}

/// Self time of every span: duration − the union of its direct children's
/// intervals − the tracing cost charged inside it. Children that ran in
/// parallel (pipelined evaluation) are counted once where they overlap.
pub fn self_times(spans: &[Span], cost: SpanCost) -> Vec<f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = (s.end_ns - s.start_ns) as f64;
            let Some(kids) = children.get_mut(&s.id) else {
                return (duration - cost.inner_ns).max(0.0);
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, s.end_ns), b.clamp(reach, s.end_ns));
                covered += b - a;
                reach = reach.max(b);
            }
            let charged = cost.inner_ns + kids.len() as f64 * (cost.outer_ns - cost.inner_ns);
            (duration - covered as f64 - charged).max(0.0)
        })
        .collect()
}

/// Totals per span name.
pub fn by_layer(spans: &[Span], cost: SpanCost) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans, cost);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += (s.end_ns - s.start_ns) as f64;
        e.self_ns += self_ns;
    }
    out
}

/// The `trace-<workload>.json` document, rendered straight to text: a
/// value tree of a few hundred thousand spans would dwarf the workload's
/// own memory.
pub fn to_json(workload: &str, seed: u64, cost: SpanCost, spans: &[Span], dropped: u64) -> String {
    let layers: Vec<serde::Value> = by_layer(spans, cost)
        .iter()
        .map(|(name, t)| {
            json!({ "name": name, "count": t.count, "total_ns": t.total_ns, "self_ns": t.self_ns })
        })
        .collect();
    let head = json!({
        "schema": "policysmith.benchmark.trace.v1",
        "workload": workload,
        "seed": seed,
        "span_cost_ns": { "inner": cost.inner_ns, "outer": cost.outer_ns },
        "spans_dropped": dropped,
        "layers": layers,
        "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "op_id"],
    });
    let mut out = serde_json::to_string(&head).unwrap_or_default();
    out.pop(); // reopen the object for the span rows
    out.push_str(",\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
        // span names are identifiers: nothing in them needs escaping
        out.push_str(&format!(
            "[{},\"{}\",{},{},{parent},{}]",
            s.id, s.name, s.start_ns, s.end_ns, s.op_id
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREE: SpanCost = SpanCost { inner_ns: 0.0, outer_ns: 0.0 };

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { id, name, start_ns: start, end_ns: end, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100] ⊃ policy [10,40] ⊃ vm [20,30]; op ⊃ policy [50,70]
        let spans = vec![
            span(2, "vm", 20, 30, 1),
            span(1, "policy", 10, 40, 0),
            span(3, "policy", 50, 70, 0),
            span(0, "op", 0, 100, NO_PARENT),
        ];
        let layers = by_layer(&spans, FREE);
        assert_eq!(layers["op"].self_ns, 50.0);
        assert_eq!(layers["policy"].self_ns, 40.0, "30 − vm 10, plus 20");
        assert_eq!(layers["vm"].self_ns, 10.0);
        let sum: f64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100.0, "self times add up to the root");
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // two evaluation workers overlap on [30,50] under one search root
        let spans = vec![
            span(1, "eval", 10, 50, 0),
            span(2, "eval", 30, 80, 0),
            span(0, "search", 0, 100, NO_PARENT),
        ];
        assert_eq!(by_layer(&spans, FREE)["search"].self_ns, 30.0);
    }

    #[test]
    fn sampled_ops_charge_tracing_cost_per_child() {
        // every 64th op is traced: only its spans exist, and each pays
        // the calibrated cost — inner once, (outer − inner) per child
        let cost = SpanCost { inner_ns: 20.0, outer_ns: 50.0 };
        let spans = vec![
            span(1, "policy", 100, 160, 0),
            span(2, "policy", 200, 260, 0),
            span(0, "op", 0, 400, NO_PARENT),
        ];
        let layers = by_layer(&spans, cost);
        assert_eq!(layers["policy"].self_ns, 2.0 * (60.0 - 20.0));
        assert_eq!(layers["op"].self_ns, 400.0 - 120.0 - 20.0 - 2.0 * 30.0);
        assert_eq!(layers["op"].count, 1, "per-op means divide by sampled ops only");
    }

    #[test]
    fn guards_nest_by_thread_and_adopt_across_threads() {
        let t = Tracer::new(16);
        {
            let _root = t.begin_root("search", 7);
            {
                let _c = t.begin("check");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _e = t.begin("eval");
                });
            });
        }
        let spans = t.snapshot();
        let find = |n| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(find("search").parent, NO_PARENT);
        assert_eq!(find("check").parent, find("search").id);
        assert_eq!(find("eval").parent, find("search").id, "worker span hangs under the root");
        assert!(spans.iter().all(|s| s.op_id == 7));
        assert!(find("check").start_ns >= find("search").start_ns);
    }

    #[test]
    fn trace_document_parses_back() {
        let spans = vec![span(1, "policy", 10, 40, 0), span(0, "op", 0, 100, NO_PARENT)];
        let text =
            to_json("decide-cache", 9, SpanCost { inner_ns: 20.5, outer_ns: 61.0 }, &spans, 3);
        let doc = crate::json::parse(&text).unwrap();
        let rows = crate::json::as_array(crate::json::get(&doc, "spans").unwrap());
        assert_eq!(rows.len(), 2);
        assert_eq!(crate::json::as_array(&rows[0])[4], serde::Value::Number(0.0), "parent id");
        assert_eq!(crate::json::as_array(&rows[1])[4], serde::Value::Null, "a root has no parent");
        assert_eq!(
            crate::json::get(&doc, "spans_dropped").and_then(crate::json::as_f64),
            Some(3.0)
        );
        assert_eq!(crate::json::as_array(crate::json::get(&doc, "layers").unwrap()).len(), 2);
    }

    #[test]
    fn cap_counts_what_it_drops() {
        let t = Tracer::new(2);
        for _ in 0..5 {
            let _s = t.begin("x");
        }
        assert_eq!(t.snapshot().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn calibration_is_positive_and_ordered() {
        let c = Tracer::calibrate();
        assert!(c.inner_ns > 0.0 && c.outer_ns >= c.inner_ns, "{c:?}");
    }
}
