//! # policysmith-cc — the congestion-control case study substrate (§5)
//!
//! Everything the paper's kernel experiment needs, rebuilt in userspace
//! around the kbpf verifier and the netsim emulated link:
//!
//! * [`baselines`] — Reno, CUBIC, BBR-lite and Vegas as native
//!   [`CongestionControl`] implementations (the manual heuristics §5 says
//!   kernels accumulated over decades);
//! * [`synth`] — the synthesized-policy path: parse → mode-check → lower to
//!   kbpf → **verify** (the paper's Checker, §5.0.2) → execute in the VM on
//!   every `cong_control` invocation, reading the §5.0.1 feature context;
//! * [`harness`] — the 12 Mbps / 20 ms / 1-BDP evaluation scenario and the
//!   metrics §5.0.3 reports (bandwidth utilization, mean queuing delay);
//! * [`ebpf_host`] — the kernel-offload twin of [`synth`]'s VM host: the
//!   same verified candidate emitted to raw eBPF (`crates/ebpf`),
//!   model-checked, and interpreted with kernel semantics per invocation
//!   — the paper's struct_ops deployment, emulated end to end.
//!
//! ```
//! use policysmith_cc::{baselines::Reno, harness::evaluate};
//!
//! let m = evaluate(Box::new(Reno::new()), 5_000_000);
//! assert!(m.utilization > 0.5);
//! ```

pub mod baselines;
pub mod ebpf_host;
pub mod harness;
pub mod synth;

pub use ebpf_host::{EbpfCc, OffloadError};
pub use harness::{evaluate, evaluate_with, CcMetrics};
pub use netsim_reexport::*;
pub use synth::{check_candidate, repair_stderr, KbpfCc, VerifiedCandidate};

mod netsim_reexport {
    // SimConfig/LinkCfg ride along because `evaluate_with` takes them:
    // callers parameterizing the scenario (a drifted link as a new search
    // context) should not need a direct netsim dependency.
    pub use policysmith_netsim::{CcView, CongestionControl, LinkCfg, SimConfig};
}
