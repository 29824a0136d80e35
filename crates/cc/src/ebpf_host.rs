//! The emulated struct_ops harness: a verified candidate running as
//! *emitted eBPF* on the congestion-control datapath.
//!
//! [`EbpfCc`] is the deployment-shaped twin of [`KbpfCc`](crate::KbpfCc).
//! Where `KbpfCc` executes kbpf bytecode in the kbpf VM, `EbpfCc` takes
//! the same [`VerifiedCandidate`] through the full kernel-offload
//! pipeline at construction — emit to raw eBPF (saturation gate and
//! all), re-prove the artifact with the model verifier — and then
//! interprets the *emitted* instructions per invocation with kernel
//! semantics (wrapping ALU, fresh stack frame). Both hosts fill the
//! context through the same `CcEnv` adapter (shared with `synth`) and
//! apply the same cwnd clamp and fault latch, so on any netsim trace the
//! two must agree decision for decision — the differential suite in
//! `tests/ebpf_differential.rs` holds them to exactly that.

use crate::synth::{check_candidate, host_name, CcEnv, PipelineError, VerifiedCandidate};
use policysmith_ebpf::{emit_policy, model_check, CheckError, CheckStats, EbpfProgram, EmitError};
use policysmith_netsim::{CcView, CongestionControl};
use std::fmt;

/// Why a verified candidate could not be offloaded to eBPF.
#[derive(Debug, Clone, PartialEq)]
pub enum OffloadError {
    /// The candidate never passed the kbpf pipeline.
    Pipeline(PipelineError),
    /// Emission refused (e.g. the saturation gate could not prove
    /// wrap/saturate equivalence).
    Emit(EmitError),
    /// The emitted artifact failed the model verifier — an emitter bug by
    /// definition, surfaced rather than deployed.
    Check(CheckError),
}

impl fmt::Display for OffloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadError::Pipeline(e) => write!(f, "offload: {e}"),
            OffloadError::Emit(e) => write!(f, "offload: {e}"),
            OffloadError::Check(e) => write!(f, "offload: {e}"),
        }
    }
}

impl std::error::Error for OffloadError {}

/// A verified policy deployed as emitted eBPF on the (simulated) kernel
/// datapath — the paper's `tcp_congestion_ops` struct_ops registration,
/// with the interpreter standing in for the kernel.
pub struct EbpfCc {
    candidate: VerifiedCandidate,
    prog: EbpfProgram,
    stats: CheckStats,
    /// Reusable flat feature context (refilled each invocation).
    ctx: Vec<i64>,
    name: String,
    /// Interpreter faults observed (must stay 0 for model-checked
    /// programs driven through the clamping `CcEnv`).
    pub faults: u64,
}

impl EbpfCc {
    /// Offload a verified candidate: emit, model-check, wrap.
    pub fn new(candidate: VerifiedCandidate) -> Result<Self, OffloadError> {
        let prog = emit_policy(&candidate.policy).map_err(OffloadError::Emit)?;
        let stats = model_check(&prog).map_err(OffloadError::Check)?;
        Ok(EbpfCc {
            name: host_name("ebpf", &candidate.source),
            ctx: Vec::with_capacity(candidate.policy.layout().len()),
            candidate,
            prog,
            stats,
            faults: 0,
        })
    }

    /// Pipeline + offload in one step.
    pub fn from_source(src: &str) -> Result<Self, OffloadError> {
        Self::new(check_candidate(src).map_err(OffloadError::Pipeline)?)
    }

    /// The verified candidate.
    pub fn candidate(&self) -> &VerifiedCandidate {
        &self.candidate
    }

    /// The emitted artifact this host executes.
    pub fn program(&self) -> &EbpfProgram {
        &self.prog
    }

    /// What the model verifier proved about the artifact.
    pub fn check_stats(&self) -> CheckStats {
        self.stats
    }

    fn invoke(&mut self, view: &CcView<'_>, loss: bool) -> u64 {
        let env = CcEnv { view, loss };
        self.candidate.policy.layout().fill(&env, &mut self.ctx);
        match policysmith_ebpf::run(&self.prog, &self.ctx) {
            // identical post-processing to KbpfCc::invoke — the clamp is
            // part of the decision being compared differentially
            Ok(r0) => r0.clamp(2, 1 << 20) as u64,
            Err(_) => {
                // Unreachable for model-checked programs; fail safe the
                // same way the kbpf host does.
                self.faults += 1;
                view.cwnd
            }
        }
    }
}

impl CongestionControl for EbpfCc {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::evaluate;
    use crate::synth::EXAMPLE_AIMD;

    #[test]
    fn offloaded_aimd_behaves_like_a_congestion_controller() {
        let cc = EbpfCc::from_source(EXAMPLE_AIMD).unwrap();
        assert!(cc.check_stats().branches > 0);
        let m = evaluate(Box::new(cc), 20_000_000);
        assert!(m.utilization > 0.7, "offloaded AIMD util {}", m.utilization);
        assert!(m.loss_events > 0);
    }

    #[test]
    fn fault_latch_mirrors_the_kbpf_host() {
        // Swap in a hand-built program whose division faults at runtime —
        // unreachable for model-checked artifacts, but the latch must
        // behave identically to KbpfCc's when it does fire.
        use policysmith_ebpf::EbpfInsn;
        let mut cc = EbpfCc::from_source(EXAMPLE_AIMD).unwrap();
        let mut insns = vec![
            EbpfInsn::mov_x(6, 1),
            EbpfInsn::ldx_dw(0, 6, 0), // loss slot: 0 on ack
            EbpfInsn::mov_k(2, 7),
            EbpfInsn::alu_x(policysmith_ebpf::isa::BPF_DIV, 2, 0),
            EbpfInsn::mov_x(0, 2),
            EbpfInsn::exit(),
        ];
        insns[3].off = policysmith_ebpf::isa::SIGNED_DIV_OFF;
        cc.prog = EbpfProgram { insns, ctx_ranges: cc.prog.ctx_ranges.clone(), stack_bytes: 0 };

        let history = policysmith_netsim::History::default();
        let view = policysmith_netsim::CcView {
            now_us: 0,
            cwnd: 37,
            prev_cwnd: 37,
            min_rtt_us: 20_000,
            srtt_us: 20_000,
            last_rtt_us: 20_000,
            inflight_bytes: 0,
            inflight_pkts: 0,
            mss: 1_500,
            delivered_bytes: 0,
            delivery_rate_bps: 0,
            acked_bytes: 1_500,
            ssthresh: 64,
            history: &history,
        };
        // on_ack: loss = 0 → 7 s/ 0 faults → latched fallback to view.cwnd
        assert_eq!(cc.on_ack(&view), 37);
        assert_eq!(cc.faults, 1);
        // on_loss: loss = 1 → 7 s/ 1 = 7, no new fault
        assert_eq!(cc.on_loss(&view), 7);
        assert_eq!(cc.faults, 1);
    }

    #[test]
    fn multibyte_comment_bytes_do_not_panic_either_host() {
        // the lexer skips arbitrary bytes inside comments, so this
        // verifies; byte 24 of it falls inside an 'α'
        let src = "// ααααααααααααα\ncwnd + 1";
        let kbpf = crate::synth::KbpfCc::from_source(src).unwrap();
        assert_eq!(kbpf.name(), "kbpf:// αααααααααα");
        let ebpf = EbpfCc::from_source(src).unwrap();
        assert_eq!(ebpf.name(), "ebpf:// αααααααααα");
    }

    #[test]
    fn offload_errors_attribute_the_failing_stage() {
        assert!(matches!(EbpfCc::from_source("cwnd * 1.5"), Err(OffloadError::Pipeline(_))));
    }
}
