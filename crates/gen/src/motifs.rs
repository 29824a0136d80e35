//! The motif library: domain idioms the mock LLM "remembers" from
//! pretraining.
//!
//! §2 of the paper argues that most state-of-the-art heuristics are
//! "delicate recombinations and improvements of existing approaches" and
//! that LLMs are effective precisely because they remix these recurring
//! structures. Each function below is one such structure with randomized
//! constants; each template's row lists its library, and the generator
//! sums or nests them into candidates by the row's shape.

use policysmith_dsl::{BinOp, CmpOp, Expr, Feature};
use rand::RngExt;

fn int(v: i64) -> Expr {
    Expr::int(v)
}

fn feat(f: Feature) -> Expr {
    Expr::feat(f)
}

/// A constant drawn log-uniformly from `[lo, hi]`.
fn scale(rng: &mut impl RngExt, lo: i64, hi: i64) -> i64 {
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    rng.random_range(llo..=lhi).exp() as i64
}

// ---------------------------------------------------------------- cache --

/// Recency: prefer recently-used (LRU flavour).
pub fn cache_recency(rng: &mut impl RngExt) -> Expr {
    if rng.random_bool(0.5) {
        feat(Feature::ObjLastAccess)
    } else {
        -Expr::bin(BinOp::Div, feat(Feature::ObjAge), int(scale(rng, 10, 2_000)))
    }
}

/// Frequency: prefer often-used (LFU flavour).
pub fn cache_frequency(rng: &mut impl RngExt) -> Expr {
    Expr::bin(BinOp::Mul, feat(Feature::ObjCount), int(scale(rng, 2, 200)))
}

/// GDSF-style frequency-per-byte ratio (`obj.size ≥ 1`, so the division is
/// checker-clean).
pub fn cache_gdsf_ratio(rng: &mut impl RngExt) -> Expr {
    Expr::bin(
        BinOp::Div,
        Expr::bin(BinOp::Mul, feat(Feature::ObjCount), int(scale(rng, 1_024, 1 << 20))),
        feat(Feature::ObjSize),
    )
}

/// Size penalty: big objects cost more to keep.
pub fn cache_size_penalty(rng: &mut impl RngExt) -> Expr {
    -Expr::bin(BinOp::Div, feat(Feature::ObjSize), int(scale(rng, 50, 5_000)))
}

/// History boost: objects we regretted evicting get protected (Table 1's
/// eviction-history features).
pub fn cache_history_boost(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        feat(Feature::HistContains),
        Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, feat(Feature::HistCount), int(scale(rng, 2, 50))),
            int(scale(rng, 1, 100)),
        ),
        -int(scale(rng, 5, 100)),
    )
}

/// Percentile gate: compare the object against the resident population.
pub fn cache_percentile_gate(rng: &mut impl RngExt) -> Expr {
    let p = *[25u8, 50, 70, 75, 90].get(rng.random_range(0..5usize)).unwrap();
    let bonus = int(scale(rng, 5, 80));
    let malus = -int(scale(rng, 5, 80));
    match rng.random_range(0..3u8) {
        0 => Expr::ite(
            Expr::cmp(CmpOp::Gt, feat(Feature::ObjSize), feat(Feature::SizesPct(p))),
            malus,
            bonus,
        ),
        1 => Expr::ite(
            Expr::cmp(CmpOp::Gt, feat(Feature::ObjCount), feat(Feature::CountsPct(p))),
            bonus,
            malus,
        ),
        _ => Expr::ite(
            Expr::cmp(CmpOp::Gt, feat(Feature::ObjAge), feat(Feature::AgesPct(p))),
            malus,
            int(0),
        ),
    }
}

/// Freshness bonus for very recently touched objects.
pub fn cache_fresh_bonus(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        Expr::cmp(CmpOp::Lt, feat(Feature::ObjAge), int(scale(rng, 100, 10_000))),
        int(scale(rng, 5, 60)),
        int(0),
    )
}

/// Penalty for objects that never proved themselves.
pub fn cache_cold_penalty(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        Expr::cmp(CmpOp::Lt, feat(Feature::ObjCount), int(rng.random_range(2..6))),
        -int(scale(rng, 5, 60)),
        int(0),
    )
}

// --------------------------------------------------------------- kernel --

/// Multiplicative backoff on loss (the AIMD decrease).
pub fn cc_backoff(rng: &mut impl RngExt) -> Expr {
    match rng.random_range(0..3u8) {
        0 => Expr::bin(BinOp::Max, Expr::bin(BinOp::Shr, feat(Feature::Cwnd), int(1)), int(2)),
        1 => Expr::bin(
            BinOp::Max,
            Expr::bin(
                BinOp::Div,
                Expr::bin(BinOp::Mul, feat(Feature::Cwnd), int(rng.random_range(2..=3))),
                int(4),
            ),
            int(2),
        ),
        _ => Expr::bin(BinOp::Max, feat(Feature::Ssthresh), int(2)),
    }
}

/// Additive (or ack-paced) growth.
pub fn cc_growth(rng: &mut impl RngExt) -> Expr {
    match rng.random_range(0..3u8) {
        0 => Expr::bin(BinOp::Add, feat(Feature::Cwnd), int(rng.random_range(1..=2))),
        1 => Expr::bin(
            BinOp::Add,
            feat(Feature::Cwnd),
            Expr::bin(
                BinOp::Max,
                Expr::bin(BinOp::Div, feat(Feature::AckedBytes), feat(Feature::Mss)),
                int(1),
            ),
        ),
        _ => Expr::bin(
            BinOp::Add,
            feat(Feature::Cwnd),
            Expr::ite(
                Expr::cmp(CmpOp::Lt, feat(Feature::Cwnd), feat(Feature::Ssthresh)),
                int(2),
                int(1),
            ),
        ),
    }
}

/// Delay gating: back off when the queue (srtt − min_rtt) builds.
pub fn cc_delay_gate(rng: &mut impl RngExt) -> Expr {
    let thresh = scale(rng, 2_000, 30_000);
    Expr::ite(
        Expr::cmp(
            CmpOp::Gt,
            feat(Feature::SrttUs),
            Expr::bin(BinOp::Add, feat(Feature::MinRttUs), int(thresh)),
        ),
        Expr::bin(BinOp::Max, Expr::bin(BinOp::Sub, feat(Feature::Cwnd), int(1)), int(2)),
        Expr::bin(BinOp::Add, feat(Feature::Cwnd), int(1)),
    )
}

/// BBR-ish rate×RTT window target (all divisors provably nonzero).
pub fn cc_rate_target(rng: &mut impl RngExt) -> Expr {
    let gain_num = rng.random_range(9..=14); // gain ≈ 0.9 .. 1.4
    Expr::bin(
        BinOp::Max,
        Expr::bin(
            BinOp::Div,
            Expr::bin(
                BinOp::Mul,
                Expr::bin(
                    BinOp::Div,
                    Expr::bin(BinOp::Div, feat(Feature::DeliveryRateBps), int(8)),
                    int(1_000_000),
                ),
                Expr::bin(BinOp::Mul, feat(Feature::MinRttUs), int(gain_num)),
            ),
            Expr::bin(BinOp::Mul, feat(Feature::Mss), int(10)),
        ),
        int(4),
    )
}

/// History-trend gating over the §5.0.1 arrays.
pub fn cc_hist_trend(rng: &mut impl RngExt) -> Expr {
    let far = rng.random_range(2..=9u8);
    Expr::ite(
        Expr::cmp(
            CmpOp::Gt,
            feat(Feature::HistRtt(0)),
            Expr::bin(BinOp::Add, feat(Feature::HistRtt(far)), int(scale(rng, 1_000, 20_000))),
        ),
        Expr::bin(BinOp::Max, Expr::bin(BinOp::Sub, feat(Feature::Cwnd), int(2)), int(2)),
        Expr::bin(BinOp::Add, feat(Feature::Cwnd), int(1)),
    )
}

/// Recent-loss caution using the loss history ring.
pub fn cc_loss_memory(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        Expr::cmp(
            CmpOp::Gt,
            Expr::bin(BinOp::Add, feat(Feature::HistLoss(0)), feat(Feature::HistLoss(1))),
            int(0),
        ),
        feat(Feature::Cwnd),
        Expr::bin(BinOp::Add, feat(Feature::Cwnd), int(rng.random_range(1..=2))),
    )
}

// ------------------------------------------------------------------- lb --
//
// Dispatch-scoring idioms from the load-balancing literature. Scores are
// argmin (lowest wins), so "load" terms enter positively.

/// JSQ flavour: queue length, optionally weighted.
pub fn lb_queue_len(rng: &mut impl RngExt) -> Expr {
    Expr::bin(BinOp::Mul, feat(Feature::ServerQueueLen), int(scale(rng, 1, 1_000)))
}

/// Speed-normalized backlog — the least-work-left shape for heterogeneous
/// fleets (`server.speed >= 1`, so the division is checker-clean).
pub fn lb_normalized_load(rng: &mut impl RngExt) -> Expr {
    let backlog = if rng.random_bool(0.5) {
        feat(Feature::ServerInflight)
    } else {
        feat(Feature::ServerQueueLen)
    };
    Expr::bin(
        BinOp::Div,
        Expr::bin(BinOp::Mul, backlog, int(scale(rng, 1_000, 100_000))),
        feat(Feature::ServerSpeed),
    )
}

/// Expected own-completion term: this request's demand on this server.
pub fn lb_size_cost(rng: &mut impl RngExt) -> Expr {
    Expr::bin(
        BinOp::Div,
        Expr::bin(BinOp::Mul, feat(Feature::ReqSize), int(scale(rng, 10, 1_000))),
        feat(Feature::ServerSpeed),
    )
}

/// Latency-aware term: observed EWMA response time as a congestion signal.
pub fn lb_latency_signal(rng: &mut impl RngExt) -> Expr {
    Expr::bin(BinOp::Div, feat(Feature::ServerEwmaLatency), int(scale(rng, 100, 10_000)))
}

/// Inflight penalty with an idle bonus — avoids servers already saturated.
pub fn lb_inflight_penalty(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        Expr::cmp(CmpOp::Eq, feat(Feature::ServerInflight), int(0)),
        -int(scale(rng, 10, 500)),
        Expr::bin(BinOp::Mul, feat(Feature::ServerInflight), int(scale(rng, 5, 500))),
    )
}

/// Least-work-left: the exact residual backlog plus this request's own
/// demand, both normalized by speed — the strongest classical shape now
/// that the dispatch tier tracks residual work (`server.speed >= 1`, so
/// both divisions are checker-clean).
pub fn lb_work_left(rng: &mut impl RngExt) -> Expr {
    let own_cost = Expr::bin(
        BinOp::Div,
        Expr::bin(BinOp::Mul, feat(Feature::ReqSize), int(1_000)),
        feat(Feature::ServerSpeed),
    );
    if rng.random_bool(0.5) {
        Expr::bin(BinOp::Add, feat(Feature::ServerWorkLeft), own_cost)
    } else {
        Expr::bin(BinOp::Div, feat(Feature::ServerWorkLeft), int(scale(rng, 100, 10_000)))
    }
}

/// Queue-pressure gate: a hard penalty once the queue passes a threshold
/// (protects against bounded-queue drops during bursts).
pub fn lb_queue_gate(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        Expr::cmp(CmpOp::Gt, feat(Feature::ServerQueueLen), int(rng.random_range(4..32))),
        int(scale(rng, 10_000, 1_000_000)),
        int(0),
    )
}

// ------------------------------------------------------------------ aqm --
//
// AQM verdict idioms. The template sums to a verdict: `<= 0` forward, `1`
// ECN-mark, `>= 2` drop — so congestion terms contribute +1/+2 and guard
// terms contribute negative values that veto signalling.

/// CoDel flavour: signal when the head packet's sojourn exceeds a target.
pub fn aqm_sojourn_gate(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        Expr::cmp(CmpOp::Gt, feat(Feature::PktSojournUs), int(scale(rng, 2_000, 20_000))),
        int(rng.random_range(1..=2)),
        int(0),
    )
}

/// PIE flavour: signal on the estimated queueing delay — occupancy over
/// drain rate (`q.drain_rate >= 1`, so the division is checker-clean).
pub fn aqm_delay_estimate_gate(rng: &mut impl RngExt) -> Expr {
    let est = Expr::bin(
        BinOp::Div,
        Expr::bin(BinOp::Mul, feat(Feature::QueueBytes), int(8_000_000)),
        feat(Feature::DrainRateBps),
    );
    Expr::ite(
        Expr::cmp(CmpOp::Gt, est, int(scale(rng, 5_000, 40_000))),
        int(rng.random_range(1..=2)),
        int(0),
    )
}

/// RED flavour: signal past a fractional occupancy threshold
/// (`q.bytes * 100 > q.capacity * P`).
pub fn aqm_occupancy_gate(rng: &mut impl RngExt) -> Expr {
    let pct = rng.random_range(30..=90i64);
    Expr::ite(
        Expr::cmp(
            CmpOp::Gt,
            Expr::bin(BinOp::Mul, feat(Feature::QueueBytes), int(100)),
            Expr::bin(BinOp::Mul, feat(Feature::QueueCapacityBytes), int(pct)),
        ),
        int(rng.random_range(1..=2)),
        int(0),
    )
}

/// Smoothed-delay gate over the EWMA sojourn (ignores transient spikes).
pub fn aqm_ewma_gate(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        Expr::cmp(CmpOp::Gt, feat(Feature::SojournEwmaUs), int(scale(rng, 3_000, 25_000))),
        int(1),
        int(0),
    )
}

/// Signal pacing: veto any drop/mark shortly after the previous one — the
/// CoDel-interval idiom that keeps the drop rate bounded.
pub fn aqm_spacing_guard(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        Expr::cmp(CmpOp::Lt, feat(Feature::SinceLastDropUs), int(scale(rng, 10_000, 200_000))),
        -int(rng.random_range(2..=4)),
        int(0),
    )
}

/// Short-queue safety: never signal when only a few packets are queued.
pub fn aqm_short_queue_guard(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        Expr::cmp(CmpOp::Lt, feat(Feature::QueuePkts), int(rng.random_range(2..6))),
        -int(rng.random_range(3..=6)),
        int(0),
    )
}

/// Escalation: a deep queue (in packets) upgrades marks to drops.
pub fn aqm_depth_escalation(rng: &mut impl RngExt) -> Expr {
    Expr::ite(
        Expr::cmp(CmpOp::Gt, feat(Feature::QueuePkts), int(scale(rng, 20, 200))),
        int(1),
        int(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{template, Shape};
    use policysmith_dsl::check::{DEFAULT_MAX_DEPTH, DEFAULT_MAX_SIZE};
    use policysmith_dsl::{check_with_warnings, to_source, Mode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Draws every motif of `mode`'s row (the kernel row's loss-side
    /// backoff included) 20 times and holds each draw checker-clean
    /// within `check`'s default size and depth budgets, with no unguarded
    /// division.
    fn assert_row_motifs_clean(mode: Mode, seed: u64) {
        let row = template(mode);
        let backoff = match row.shape {
            Shape::LossGated { backoff } => Some(backoff),
            Shape::Summed { .. } => None,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for f in row.motifs.iter().copied().chain(backoff) {
            for _ in 0..20 {
                let e = f(&mut rng);
                // every divisor must be provably nonzero: the kbpf
                // verifier proves that with intervals, and a motif
                // must satisfy it by construction
                let report = check_with_warnings(&e, mode, DEFAULT_MAX_SIZE, DEFAULT_MAX_DEPTH);
                assert!(
                    report.ok() && report.warnings.is_empty(),
                    "{mode:?} motif `{}`: {report:?}",
                    to_source(&e)
                );
            }
        }
    }

    #[test]
    fn cache_motifs_are_checker_clean() {
        assert_row_motifs_clean(Mode::Cache, 7);
    }

    #[test]
    fn kernel_motifs_pass_the_full_pipeline() {
        assert!(matches!(template(Mode::Kernel).shape, Shape::LossGated { .. }));
        assert_row_motifs_clean(Mode::Kernel, 11);
    }

    #[test]
    fn lb_motifs_are_checker_clean() {
        assert_row_motifs_clean(Mode::Lb, 13);
    }

    #[test]
    fn aqm_motifs_are_checker_clean() {
        assert_row_motifs_clean(Mode::Aqm, 17);
    }

    #[test]
    fn motifs_are_deterministic_per_seed() {
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(3);
            let motifs = template(Mode::Cache).motifs;
            motifs.iter().map(|f| policysmith_dsl::to_source(&f(&mut rng))).collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(3);
            let motifs = template(Mode::Cache).motifs;
            motifs.iter().map(|f| policysmith_dsl::to_source(&f(&mut rng))).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn scale_is_log_uniform_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let v = scale(&mut rng, 10, 2_000);
            assert!((10..=2_000).contains(&v), "{v}");
        }
    }
}
