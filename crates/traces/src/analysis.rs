//! Trace analysis: the footprint.
//!
//! The paper's evaluator fixes the cache size at **10% of the trace
//! footprint** (§4.1.4); [`footprint_bytes`] is the measurement that
//! definition depends on.

use crate::idhash::IdSet;
use crate::model::Trace;

/// Total bytes of all *distinct* objects in the trace — the cache size that
/// would make every request after first touch a hit.
pub fn footprint_bytes(trace: &Trace) -> u64 {
    let mut seen: IdSet<u64> = IdSet::default();
    let mut total = 0u64;
    for r in &trace.requests {
        if seen.insert(r.obj) {
            total += r.size as u64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{OpKind, Request, Trace};
    use crate::synth::{generate, WorkloadParams};
    use std::collections::HashSet;

    fn req(t: u64, obj: u64, size: u32) -> Request {
        Request { time_us: t, obj, size, op: OpKind::Read }
    }

    #[test]
    fn footprint_counts_distinct_only() {
        let t = Trace::new("t", vec![req(0, 1, 100), req(1, 2, 200), req(2, 1, 100)]);
        assert_eq!(footprint_bytes(&t), 300);
    }

    #[test]
    fn synthetic_traces_have_meaningful_reuse() {
        // The evaluator's 10%-of-footprint cache only makes sense if traces
        // actually re-reference objects.
        let t = generate("t", &WorkloadParams::default(), 12, 30_000);
        let mut seen = HashSet::new();
        let reuses = t.requests.iter().filter(|r| !seen.insert(r.obj)).count();
        let reuse_fraction = reuses as f64 / t.len() as f64;
        assert!(reuse_fraction > 0.5, "reuse fraction {reuse_fraction}");
        let footprint = footprint_bytes(&t);
        assert!(footprint as f64 / seen.len() as f64 >= 512.0, "mean object bytes");
    }
}
