//! # policysmith-lbsim — load-balancing simulation substrate
//!
//! The third PolicySmith workload, beyond the paper's two case studies: a
//! deterministic discrete-event simulator of a **multi-server dispatch
//! tier** — the setting where decades of man-made heuristics (round-robin,
//! join-shortest-queue, least-work-left, power-of-d-choices) compete, and
//! exactly the kind of "systems controller" §2 of the paper argues should
//! be searched for rather than hand-written.
//!
//! * [`model`] — servers (heterogeneous speeds, bounded FIFO queues) and
//!   requests (heavy-tailed service demands);
//! * [`workload`] — Poisson, bursty (MMPP on/off), and diurnal
//!   (day/night square wave) arrival processes × bounded-Pareto sizes,
//!   all pure functions of a seed;
//! * [`dispatch`] — the [`Dispatcher`] trait, what it reads (a
//!   [`DispatchView`]: the fleet as one `i64` column per feature, lent for
//!   one decision; [`ServerView`] is a single row of it by value,
//!   [`FleetColumns`] the owned form) plus the classical baselines:
//!   round-robin, random, JSQ, least-loaded, power-of-two-choices;
//! * [`policy`] — the PolicySmith **template host**: a synthesized DSL
//!   expression scores the fleet at dispatch time and the request goes
//!   to the argmin (runtime faults are latched, as in the cache host).
//!   Two engines share the rule, as in the cache and aqm hosts: the
//!   **batched** full scan every caller runs — one fused
//!   `run_columns_argmin` call per pick over the view's own columns, lent
//!   as they are, with `now`/`req.size` passed as uniforms — and the
//!   **interpreted** oracle it is tested against;
//! * [`scenario`] — seven presets (uniform fleet, two-tier fleet, flash
//!   crowd, slow-node degradation, correlated failures, diurnal load,
//!   slow-node onset) with documented load factors, plus the
//!   [`scenario::slow_node_onset_phases`] mid-run shift sequence;
//! * [`sim`] — the event loop ([`LbEngine`], incremental) and the metrics
//!   the study scores (mean slowdown, drops, utilization); [`run_phased`]
//!   plays a phase sequence through one live fleet for the
//!   drift-triggered re-synthesis story. The engine keeps the
//!   dispatcher-visible state as columns, one cell written per admission,
//!   completion or reconfigure, so an offer does no O(fleet) work of its
//!   own; `server.work_left` costs no upkeep at all because
//!   `work_left(now) = max(drain_at − now, 0)` exactly, where `drain_at` is
//!   set to `now + service` by an idle admit, grows by `service` on a
//!   queued one and is left alone by everything else.
//!
//! Everything is integer-microsecond virtual time; a run is a pure
//! function of `(scenario, dispatcher)` — bit-for-bit reproducible.
//!
//! ```
//! use policysmith_lbsim::{simulate, dispatch::Jsq, scenario};
//!
//! let sc = scenario::uniform_fleet();
//! let m = simulate(&sc, &mut Jsq::new());
//! assert!(m.mean_slowdown() >= 1.0 && m.drop_fraction() < 0.05);
//! ```

pub mod dispatch;
pub mod model;
pub mod policy;
pub mod scenario;
pub mod sim;
pub mod workload;

pub use dispatch::{
    by_name, lb_baseline_names, DispatchView, Dispatcher, FleetColumns, ServerView,
};
pub use model::{LbRequest, ServerCfg};
pub use policy::ExprDispatcher;
pub use scenario::Scenario;
pub use sim::{run_phased, run_phased_windowed, simulate, LbEngine, LbMetrics, PhasedMetrics};
pub use workload::{ArrivalProcess, BoundedPareto, WorkloadCfg};
