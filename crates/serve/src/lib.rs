//! # policysmith-serve — the online policy-serving runtime
//!
//! The paper's §3.1 loop ends at "deploy the synthesized policy"; this
//! crate is the deployment. It closes the gap between the offline world
//! (batch simulators, stop-the-world re-synthesis) and the ROADMAP's
//! production-shaped one: **serve decision requests continuously, adapt in
//! the background, and never pause the traffic**.
//!
//! Three layers:
//!
//! * [`swap`] — the lock-free hot-swap handle: a [`PolicyCell`] publishes
//!   a new [`CompiledPolicy`](policysmith_kbpf::CompiledPolicy) with one
//!   atomic pointer swap; in-flight decisions never observe a torn value,
//!   and deposed policies are reclaimed by a small epoch-based scheme
//!   once no reader can still hold them. Every publish lands in the serve
//!   log with generation, provenance, and timestamp.
//! * [`loadgen`] — the deterministic open-loop load generator: the seven
//!   lb scenario presets (single- or multi-phase; a phase boundary is the
//!   drift injection) and cache trace replay via `crates/traces`, sharded
//!   across workers by reseeding so every thread-confined engine replays
//!   its own stream.
//! * [`runtime`] — N serving workers (lb dispatch picks off an
//!   [`LbEngine`](policysmith_lbsim::LbEngine) fleet, cache admit/evict
//!   priority decisions off a [`Cache`](policysmith_cachesim::Cache)),
//!   per-worker SPSC telemetry rings feeding window samples into the
//!   [`ContextMonitor`](policysmith_core::library::ContextMonitor) —
//!   hot-path counters and latency samples go through a sharded
//!   [`MetricsRegistry`](policysmith_obs::MetricsRegistry) instead — and a
//!   background adaptation thread running the
//!   [`AdaptiveController`](policysmith_core::library::AdaptiveController)'s
//!   one ladder: on drift, a stored heuristic over the reuse bar, else a
//!   full [`run_search`](policysmith_core::run_search), else
//!   the best stored heuristic at all; on a quarantine, the best stored
//!   heuristic at all, else the man-made baseline. Whatever a rung yields
//!   goes live in exactly one place on that thread.
//!
//! Two more layers make the runtime survive misbehaving inputs:
//!
//! * [`guard`] — guarded publication ([`PolicyGuard`]: every drift answer
//!   is re-scored in the drifted context and shadow-replayed against the
//!   incumbent before it goes live; regressions and runtime-faulting
//!   candidates are rejected with a logged reason). A worker whose host
//!   trips its fault latch demotes to the baseline *locally* without
//!   dropping a decision and reports the quarantine; the offending policy
//!   is poisoned in the library and the ladder's quarantine rungs
//!   ([`AdaptiveController::recover`](policysmith_core::library::AdaptiveController::recover))
//!   pick the recovery.
//! * [`chaos`] — deterministic fault injection ([`ChaosSpec`]: telemetry
//!   drops/duplicates/reordering, worker stalls, external faulting
//!   publishes), which the `exp_serve` bench binary's fault plans combine
//!   with flaky generators and pre-poisoned libraries to enforce the
//!   fault-tolerance invariants by exit code (`results/chaos.json`).
//!
//! The no-drift contract is differential: a single-worker serve run with
//! no publishes is **decision-for-decision identical** to the equivalent
//! batch simulator run (`tests/differential.rs` pins this, pick sequences
//! included). The drift-recovery timeline, the adoption-pause
//! distribution and the trace of the same run are recorded by `exp_serve`
//! (`results/serve.json`, `results/obs_timeline.json`); throughput and
//! decision latency are the benchmark's `serve-steady` / `serve-drift`
//! workloads.

pub mod chaos;
pub mod guard;
pub mod loadgen;
pub mod runtime;
pub mod swap;
pub mod telemetry;

pub use chaos::{ChaosSpec, ChaosStats, ExternalPublish, TelemetryChaos, WorkerStall};
pub use guard::{GuardVerdict, PolicyGuard, RejectReason};
pub use runtime::{
    serve_cache, serve_lb, AdaptationEvent, QuarantineReport, RejectedAdaptation, Resynth,
    ServeConfig, ServeReport, WorkerStats,
};
pub use swap::{Guard, PolicyCell, ReaderHandle, SwapRecord};
pub use telemetry::WindowSample;
