//! # policysmith-kbpf — an eBPF-like bytecode with a static verifier
//!
//! The congestion-control case study (§5 of the paper) runs LLM-generated
//! decision logic inside the Linux kernel by compiling it to eBPF and
//! letting **the eBPF verifier act as the framework's `Checker`**. This
//! crate rebuilds that substrate — and generalizes it into the
//! compile-once host boundary every case study consumes:
//!
//! * [`isa`] — a register bytecode closely modeled on eBPF (11 × `i64`
//!   registers, ALU + conditional forward jumps, context loads, scratch
//!   map);
//! * [`range`] — the shared signed-interval domain (transfer functions
//!   mirroring the saturating DSL semantics, branch refinements) consumed
//!   by the verifier here and by the eBPF emitter/model-verifier in
//!   `crates/ebpf`;
//! * [`verifier`] — a static verifier performing structural checks and an
//!   interval-domain abstract interpretation that rejects possible
//!   division-by-zero, uninitialized reads, out-of-bounds accesses, and any
//!   backward jump (so accepted programs provably terminate);
//! * [`vm`] — the one interpreter, for verified programs only,
//!   bit-for-bit equivalent to the DSL interpreter and held to a
//!   reference stepper kept in the crate's tests;
//! * [`batch`] — structure-of-arrays batched evaluation over columns the
//!   host fills ([`BatchCtx`] + `CompiledPolicy::run_batch` and the fused
//!   argmin) or lends ([`Column`] + `CompiledPolicy::run_columns*`;
//!   row-invariant values stay scalars), spec'd by the scalar VM per row
//!   and differential-tested against it;
//! * [`lower`] — the DSL → kbpf compiler, parameterized by a context
//!   layout so any template's features lower;
//! * [`compile`] — the host-facing API: [`CtxLayout`] (per-candidate
//!   feature→slot ABI with mode-specific verification intervals) and
//!   [`CompiledPolicy`] (check → lower → verify once, then zero-allocation
//!   execution on the host's hot path).
//!
//! ```
//! use policysmith_kbpf::CompiledPolicy;
//! use policysmith_dsl::{env::MapEnv, Feature, Mode};
//!
//! let source = "if(loss, max(cwnd >> 1, 2), cwnd + 1)";
//! let policy = CompiledPolicy::from_source(source, Mode::Kernel).unwrap();
//! assert!(!policy.may_fault()); // fully verified: faults are impossible
//!
//! let env = MapEnv::new().with(Feature::Cwnd, 10).with(Feature::LossEvent, 1);
//! assert_eq!(policy.eval_once(&env).unwrap(), 5);
//! ```

pub mod batch;
pub mod compile;
pub mod isa;
pub mod lower;
pub mod range;
pub mod verifier;
pub mod vm;

pub use batch::{BatchCtx, BatchFault, BatchPlan, BatchScratch, Column};
pub use compile::{
    mode_budgets, CompileError, CompiledPolicy, CtxLayout, RuntimeFault, Verification,
    KERNEL_MAX_DEPTH, KERNEL_MAX_SIZE,
};
pub use isa::{Insn, Op, Program, MAX_INSNS, REG_COUNT};
pub use lower::{LowerError, SPILL_SLOTS};
pub use range::Interval;
pub use verifier::{analyze, verify, AbsState, Analysis, VerifyEnv, VerifyError};
pub use vm::{execute_verified, VmError};
