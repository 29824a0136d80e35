//! The synthesized-policy pipeline: the §5.0.2 "kernel module + eBPF probe"
//! pattern in miniature.
//!
//! A candidate arrives as `cong_control` source text. It must survive four
//! stages before it ever touches the (simulated) kernel datapath:
//!
//! 1. **Parse** — syntax + identifier resolution;
//! 2. **Check** — kernel-mode template rules (no floats, kernel features
//!    only, size budgets);
//! 3. **Lower** — compilation to kbpf bytecode;
//! 4. **Verify** — the kbpf verifier (interval analysis; rejects possible
//!    division-by-zero etc.). *This* is the stage the paper's §5.0.3
//!    compile-rate numbers measure.
//!
//! Stages 2–4 are the shared compile-once pipeline
//! ([`CompiledPolicy::compile`] in `Mode::Kernel`, where verification is
//! strict) — the same plumbing the cache and lb hosts consume. A
//! [`VerifiedCandidate`] then runs as a [`KbpfCc`]: each `cong_control`
//! invocation fills the policy's flat feature context (§5.0.1) from the
//! live [`CcView`] into a reusable slab and executes the program in the
//! VM; `r0` is the new cwnd.

use policysmith_dsl::{Expr, Feature, FeatureEnv, Mode};
use policysmith_kbpf::{
    CompileError, CompiledPolicy, Interval, LowerError, Program, VerifyError, SPILL_SLOTS,
};
use policysmith_netsim::{CcView, CongestionControl, HIST_LEN};
use std::fmt;

pub use policysmith_kbpf::{KERNEL_MAX_DEPTH, KERNEL_MAX_SIZE};

/// Where in the pipeline a candidate died.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    Parse(policysmith_dsl::ParseError),
    Check(Vec<policysmith_dsl::CheckError>),
    Lower(LowerError),
    Verify(VerifyError),
}

impl PipelineError {
    /// Stage name for compile-rate accounting (`exp_paper`'s §5.0.3
    /// compile-rate section).
    pub fn stage(&self) -> &'static str {
        match self {
            PipelineError::Parse(_) => "parse",
            PipelineError::Check(_) => "check",
            PipelineError::Lower(_) => "lower",
            PipelineError::Verify(_) => "verify",
        }
    }
}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        match e {
            CompileError::Parse(e) => PipelineError::Parse(e),
            CompileError::Check(report) => PipelineError::Check(report.errors),
            CompileError::Lower(e) => PipelineError::Lower(e),
            CompileError::Verify(e) => PipelineError::Verify(e),
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
            PipelineError::Check(es) => {
                for e in es {
                    writeln!(f, "{e}")?;
                }
                Ok(())
            }
            PipelineError::Lower(e) => write!(f, "{e}"),
            PipelineError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A candidate that passed all four stages: the source plus its compiled,
/// fully verified policy.
#[derive(Debug, Clone)]
pub struct VerifiedCandidate {
    pub source: String,
    pub policy: CompiledPolicy,
}

impl VerifiedCandidate {
    /// The checked expression.
    pub fn expr(&self) -> &Expr {
        self.policy.expr()
    }

    /// The lowered bytecode.
    pub fn program(&self) -> &Program {
        self.policy.program()
    }

    /// Provable bounds on the returned cwnd. Kernel-mode compilation is
    /// strict, so verification bounds always exist.
    pub fn r0_bounds(&self) -> Interval {
        self.policy.r0_bounds().expect("kernel candidates are fully verified")
    }
}

/// Run the full pipeline on candidate source.
pub fn check_candidate(src: &str) -> Result<VerifiedCandidate, PipelineError> {
    let policy = CompiledPolicy::from_source(src, Mode::Kernel)?;
    debug_assert!(!policy.may_fault(), "kernel mode never defers faults");
    Ok(VerifiedCandidate { source: src.to_string(), policy })
}

/// Adapter exposing a live [`CcView`] (plus the loss flag) as the DSL
/// feature environment, from which the policy's flat context is filled.
/// Shared with the eBPF host (`ebpf_host`), so both engines see
/// bit-identical, range-clamped feature values.
pub(crate) struct CcEnv<'a> {
    pub(crate) view: &'a CcView<'a>,
    pub(crate) loss: bool,
}

impl FeatureEnv for CcEnv<'_> {
    fn feature(&self, f: Feature) -> i64 {
        use Feature::*;
        let v = self.view;
        let h = |arr: &[i64; HIST_LEN], i: u8| arr[(i as usize).min(HIST_LEN - 1)];
        let val: i64 = match f {
            Now => v.now_us as i64,
            Cwnd => v.cwnd as i64,
            PrevCwnd => v.prev_cwnd as i64,
            MinRttUs => v.min_rtt_us.max(1) as i64,
            SrttUs => v.srtt_us.max(1) as i64,
            LastRttUs => v.last_rtt_us.max(1) as i64,
            InflightBytes => v.inflight_bytes as i64,
            InflightPkts => v.inflight_pkts as i64,
            Mss => v.mss as i64,
            DeliveredBytes => v.delivered_bytes as i64,
            DeliveryRateBps => v.delivery_rate_bps as i64,
            LossEvent => self.loss as i64,
            AckedBytes => v.acked_bytes as i64,
            Ssthresh => v.ssthresh.min(1 << 24) as i64,
            HistRtt(i) => h(&v.history.rtt_us, i).max(1),
            HistDelivered(i) => h(&v.history.delivered, i),
            HistLoss(i) => h(&v.history.losses, i),
            HistCwnd(i) => h(&v.history.cwnd, i).max(1),
            HistQdelay(i) => h(&v.history.qdelay_us, i),
            // cache-template features never appear in verified kernel
            // programs; be total anyway
            _ => 0,
        };
        // clamp into the declared verifier range so the interval analysis'
        // assumptions hold at runtime by construction
        let (lo, hi) = f.range();
        val.clamp(lo, hi)
    }
}

/// `"<host>:<source prefix>"` display name: at most 24 bytes of source, cut
/// on a char boundary (comments may carry any UTF-8).
pub(crate) fn host_name(host: &str, source: &str) -> String {
    format!("{host}:{}", &source[..source.floor_char_boundary(24)])
}

/// A verified program running as the congestion controller — the analogue
/// of the paper's eBPF probe attached to `cong_control`.
pub struct KbpfCc {
    candidate: VerifiedCandidate,
    /// Reusable flat feature context (refilled each invocation).
    ctx: Vec<i64>,
    /// Persistent scratch map (spills; would be the BPF map in the paper).
    map: Vec<i64>,
    name: String,
    /// VM faults observed (must stay 0 for verified programs).
    pub faults: u64,
}

impl KbpfCc {
    /// Wrap a verified candidate.
    pub fn new(candidate: VerifiedCandidate) -> Self {
        KbpfCc {
            name: host_name("kbpf", &candidate.source),
            ctx: Vec::with_capacity(candidate.policy.layout().len()),
            map: vec![0; SPILL_SLOTS],
            candidate,
            faults: 0,
        }
    }

    /// Pipeline + wrap in one step.
    pub fn from_source(src: &str) -> Result<Self, PipelineError> {
        Ok(Self::new(check_candidate(src)?))
    }

    /// The verified candidate.
    pub fn candidate(&self) -> &VerifiedCandidate {
        &self.candidate
    }

    fn invoke(&mut self, view: &CcView<'_>, loss: bool) -> u64 {
        let env = CcEnv { view, loss };
        match self.candidate.policy.run_with_env(&env, &mut self.ctx, &mut self.map) {
            Ok(r0) => r0.clamp(2, 1 << 20) as u64,
            Err(_) => {
                // Unreachable for verified programs; fail safe.
                self.faults += 1;
                view.cwnd
            }
        }
    }
}

impl CongestionControl for KbpfCc {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_ack(&mut self, view: &CcView<'_>) -> u64 {
        self.invoke(view, false)
    }

    fn on_loss(&mut self, view: &CcView<'_>) -> u64 {
        self.invoke(view, true)
    }
}

/// A reasonable synthesized-looking AIMD candidate used in tests and docs.
pub const EXAMPLE_AIMD: &str = "if(loss, max(cwnd >> 1, 2), cwnd + max(acked / max(mss, 1), 1))";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::evaluate;

    #[test]
    fn pipeline_stages_attribute_errors() {
        // parse: hallucinated identifier
        assert_eq!(check_candidate("cwnd + frobnicate").unwrap_err().stage(), "parse");
        // check: float arithmetic (the paper's most common kernel fault)
        assert_eq!(check_candidate("cwnd * 1.5").unwrap_err().stage(), "check");
        // check: cache-only feature in kernel mode
        assert_eq!(check_candidate("cwnd + obj.count").unwrap_err().stage(), "check");
        // verify: unguarded division (the paper's second most common fault)
        assert_eq!(check_candidate("delivered / inflight").unwrap_err().stage(), "verify");
        // all clear
        assert!(check_candidate(EXAMPLE_AIMD).is_ok());
    }

    #[test]
    fn stderr_is_informative() {
        let err = check_candidate("cwnd / inflight").unwrap_err();
        assert!(err.to_string().contains("divisor"), "{err}");
        let err = check_candidate("cwnd * 0.5").unwrap_err();
        assert!(err.to_string().to_lowercase().contains("float"), "{err}");
    }

    #[test]
    fn verified_aimd_behaves_like_a_congestion_controller() {
        let cc = KbpfCc::from_source(EXAMPLE_AIMD).unwrap();
        let m = evaluate(Box::new(cc), 20_000_000);
        assert!(m.utilization > 0.7, "synthesized AIMD util {}", m.utilization);
        assert!(m.loss_events > 0);
    }

    #[test]
    fn no_faults_in_verified_programs() {
        let cc =
            KbpfCc::from_source("if(srtt - min_rtt > 15000, max(cwnd - 1, 4), cwnd + 1)").unwrap();
        let m = evaluate(Box::new(cc), 10_000_000);
        assert!(m.utilization > 0.0);
        // the box was moved above, so drive a fresh instance through a
        // manual invocation loop and check the fault counter directly
        let mut cc2 =
            KbpfCc::from_source("if(srtt - min_rtt > 15000, max(cwnd - 1, 4), cwnd + 1)").unwrap();
        let history = policysmith_netsim::History::default();
        let mut cwnd = 10u64;
        for i in 0..1_000u64 {
            let view = policysmith_netsim::CcView {
                now_us: i * 1_000,
                cwnd,
                prev_cwnd: cwnd,
                min_rtt_us: 20_000,
                srtt_us: 20_000 + (i % 40) * 1_000, // sweeps across the gate
                last_rtt_us: 21_000,
                inflight_bytes: cwnd * 1_500,
                inflight_pkts: cwnd,
                mss: 1_500,
                delivered_bytes: i * 1_500,
                delivery_rate_bps: 10_000_000,
                acked_bytes: 1_500,
                ssthresh: 64,
                history: &history,
            };
            cwnd = if i % 50 == 49 {
                policysmith_netsim::CongestionControl::on_loss(&mut cc2, &view)
            } else {
                policysmith_netsim::CongestionControl::on_ack(&mut cc2, &view)
            };
            assert!(cwnd >= 1, "controller returned a degenerate window");
        }
        assert_eq!(cc2.faults, 0, "verified program faulted during execution");
    }

    #[test]
    fn r0_bounds_reported() {
        let c = check_candidate("clamp(cwnd * 2, 4, 256)").unwrap();
        let r0 = c.r0_bounds();
        assert!(r0.lo >= 4 && r0.hi <= 256);
    }

    #[test]
    fn delay_based_candidate_trades_throughput_for_delay() {
        // A naively aggressive delay-backoff policy (per-ACK decrease
        // against a laggy EWMA): exactly the kind of behaviourally-extreme
        // candidate §5.0.3 reports (utilizations down to 23%). It must sit
        // in the low-delay/low-throughput corner, not collapse entirely.
        let cc = KbpfCc::from_source(
            "if(loss, max(cwnd >> 1, 2), \
               if(srtt > min_rtt + 10000, max(cwnd - 1, 2), cwnd + 1))",
        )
        .unwrap();
        let m = evaluate(Box::new(cc), 20_000_000);
        let reno = evaluate(Box::new(crate::baselines::Reno::new()), 20_000_000);
        assert!(
            m.mean_qdelay_us < reno.mean_qdelay_us,
            "{} vs {}",
            m.mean_qdelay_us,
            reno.mean_qdelay_us
        );
        assert!(m.utilization > 0.15, "util {}", m.utilization);
        assert!(m.utilization < reno.utilization);
    }
}
