//! One row per template: everything the mock LLM knows about a template.
//!
//! A row is the Generator's side of a `Template` (§3, §4.2.1 of the
//! paper): the constraint text the prompt carries, the motif library
//! candidates are remixed from and the shape they are assembled into, the
//! calibration that reproduces the paper's compile rates, and the fault
//! vocabulary the injector hallucinates. `MockLlm`, `Prompt::new` and
//! `faults::inject` read a template's facts only through [`template`].

use crate::faults::FaultMix;
use crate::motifs::*;
use policysmith_dsl::{Expr, Feature, Mode};
use rand::rngs::StdRng;

/// A motif constructor: one domain idiom with randomized constants.
pub(crate) type Motif = fn(&mut StdRng) -> Expr;

/// How a fresh candidate is assembled from the row's motifs, and how the
/// add-a-term mutation extends an exemplar.
pub(crate) enum Shape {
    /// The sum of 2..=`max_motifs` motifs; a mutation adds one more term.
    Summed { max_motifs: usize },
    /// `if(loss, backoff, growth)` with the growth side drawn from the
    /// motifs; a mutation gates the exemplar against another growth motif.
    LossGated { backoff: Motif },
}

/// Everything the mock LLM knows about one template.
pub(crate) struct Template {
    /// The prompt's natural-language constraints (§3: allowed constructs,
    /// performance requirements).
    pub constraints: &'static str,
    pub motifs: &'static [Motif],
    pub shape: Shape,
    /// Default probability a candidate is corrupted by a fault.
    pub p_fault: f64,
    /// Probability of a fresh remix even when exemplars exist
    /// (exploration pressure).
    pub p_explore: f64,
    pub fault_mix: FaultMix,
    /// Per-class repair success probabilities (float, div, ident, syntax).
    pub repair_skill: [f64; 4],
    /// Plausible-but-wrong identifiers an LLM hallucinates here.
    pub fake_idents: &'static [&'static str],
    /// Possibly-zero divisors a careless candidate divides by.
    pub risky_divisors: &'static [Feature],
}

/// The row of `mode`'s template.
pub(crate) fn template(mode: Mode) -> &'static Template {
    match mode {
        Mode::Cache => &CACHE,
        Mode::Kernel => &KERNEL,
        Mode::Lb => &LB,
        Mode::Aqm => &AQM,
    }
}

/// The cache study's `priority()`, calibrated to §4.1.3's 92 % first-pass
/// compile rate. Its faults are mostly floats and hallucinated names
/// ("most errors surface as build failures").
static CACHE: Template = Template {
    constraints: "Implement priority(obj) for a priority-queue web cache. \
                  Integer arithmetic only. The lowest-priority object is evicted. \
                  Guard divisions against zero. O(log N) per access.",
    motifs: &[
        cache_recency,
        cache_frequency,
        cache_gdsf_ratio,
        cache_size_penalty,
        cache_history_boost,
        cache_percentile_gate,
        cache_fresh_bonus,
        cache_cold_penalty,
    ],
    shape: Shape::Summed { max_motifs: 5 },
    p_fault: 0.08,
    p_explore: 0.35,
    fault_mix: FaultMix { float: 0.4, unguarded_div: 0.05, unknown_ident: 0.35, syntax: 0.2 },
    repair_skill: [0.9, 0.6, 0.6, 0.25],
    fake_idents: &["obj.frequency", "obj.weight", "cache.pressure", "hist.age", "obj.ttl"],
    risky_divisors: &[Feature::HistCount, Feature::ObjAge, Feature::CacheObjects],
};

/// The kernel study's `cong_control()`, calibrated to §5.0.3: 63 % of
/// candidates pass the verifier first-try and stderr feedback adds 19 %.
/// Floats and missing division-by-zero checks are "the most common
/// causes".
static KERNEL: Template = Template {
    constraints: "Implement cong_control() returning the new cwnd in segments. \
                  Kernel constraints: no floating point, no unbounded loops, all \
                  divisions must be provably nonzero (the verifier rejects otherwise).",
    motifs: &[cc_growth, cc_delay_gate, cc_rate_target, cc_hist_trend, cc_loss_memory],
    shape: Shape::LossGated { backoff: cc_backoff },
    p_fault: 0.37,
    p_explore: 0.4,
    fault_mix: FaultMix { float: 0.45, unguarded_div: 0.40, unknown_ident: 0.10, syntax: 0.05 },
    repair_skill: [0.85, 0.55, 0.5, 0.2],
    fake_idents: &["rtt_var", "bytes_acked", "queue_len", "cwnd_max", "pacing_rate"],
    risky_divisors: &[
        Feature::InflightPkts,
        Feature::LossEvent,
        Feature::HistLoss(0),
        Feature::AckedBytes,
        Feature::HistQdelay(0),
    ],
};

/// The load balancer's `score()`: a userspace template like caching (no
/// verifier), faulting a little more often than the cache and with more
/// unguarded divisions — per-server rate math invites them.
static LB: Template = Template {
    constraints: "Implement score(server, req) for a dispatch-tier load balancer. \
                  The expression is evaluated once per server; the request is sent to \
                  the LOWEST-scoring server (argmin, ties break to the lower index). \
                  Integer arithmetic only. Guard divisions against zero — \
                  server.speed and req.size are never zero, the other features can be. \
                  O(1) per server per dispatch.",
    motifs: &[
        lb_queue_len,
        lb_normalized_load,
        lb_size_cost,
        lb_latency_signal,
        lb_inflight_penalty,
        lb_work_left,
        lb_queue_gate,
    ],
    shape: Shape::Summed { max_motifs: 4 },
    p_fault: 0.10,
    p_explore: 0.4,
    fault_mix: FaultMix { float: 0.35, unguarded_div: 0.20, unknown_ident: 0.30, syntax: 0.15 },
    repair_skill: [0.9, 0.6, 0.6, 0.25],
    fake_idents: &["server.load", "server.cpu", "server.rtt", "req.priority", "fleet.size"],
    risky_divisors: &[Feature::ServerQueueLen, Feature::ServerInflight, Feature::ServerEwmaLatency],
};

/// The AQM verdict `act()`: a userspace host inside the event loop, with
/// the lb template's fault rate. Delay-estimate rate math makes unguarded
/// divisions as common as hallucinated names, and candidates stay small
/// (a verdict is a sum of a few gates, not a deep formula).
static AQM: Template = Template {
    constraints: "Implement act(pkt, q) for an active-queue-management policy at \
                  the bottleneck's dequeue hook. The returned value is a VERDICT: \
                  <= 0 forwards the packet, == 1 ECN-marks it, >= 2 drops it. \
                  Integer arithmetic only. Guard divisions against zero — pkt.size, \
                  q.capacity and q.drain_rate are never zero, the other features \
                  can be. One decision per packet at line rate, so O(1).",
    motifs: &[
        aqm_sojourn_gate,
        aqm_delay_estimate_gate,
        aqm_occupancy_gate,
        aqm_ewma_gate,
        aqm_spacing_guard,
        aqm_short_queue_guard,
        aqm_depth_escalation,
    ],
    shape: Shape::Summed { max_motifs: 4 },
    p_fault: 0.10,
    p_explore: 0.4,
    fault_mix: FaultMix { float: 0.35, unguarded_div: 0.25, unknown_ident: 0.25, syntax: 0.15 },
    repair_skill: [0.9, 0.6, 0.6, 0.25],
    fake_idents: &["q.len", "q.delay", "pkt.priority", "aqm.prob", "link.rate"],
    risky_divisors: &[
        Feature::QueueBytes,
        Feature::QueuePkts,
        Feature::SojournEwmaUs,
        Feature::AqmDrops,
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_dsl::{parse, ParseError};

    #[test]
    fn fakes_are_unknown_and_risky_divisors_are_real() {
        for mode in Mode::ALL {
            let row = template(mode);
            // `parse` is mode-blind, so a fake it does not know is unknown
            // in every template
            for fake in row.fake_idents {
                assert!(
                    matches!(parse(fake), Err(ParseError::UnknownIdentifier { .. })),
                    "{mode:?} fake `{fake}` is not an unknown identifier"
                );
            }
            for d in row.risky_divisors {
                assert!(
                    d.available_in(mode),
                    "{mode:?} risky divisor {d:?} is not in its template"
                );
            }
        }
    }
}
