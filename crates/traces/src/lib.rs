//! # policysmith-traces — workload substrate for the caching case study
//!
//! The paper evaluates on two real block-I/O datasets: **CloudPhysics**
//! (105 week-long VM traces, \[61\]) and **MSR Cambridge** (14 production
//! server traces, \[40\]). Neither ships with this repository, so this crate
//! substitutes seeded synthetic traces for them:
//!
//! * [`synth`] — a parameterized workload generator reproducing the
//!   structural axes that discriminate between eviction policies: Zipfian
//!   popularity, LRU-stack temporal locality, sequential scans, looping
//!   re-reads, popularity churn, object-size dispersion and diurnal arrival
//!   modulation;
//! * [`datasets`] — a 105-trace "CloudPhysics-like" and a 14-trace
//!   "MSR-like" dataset, each trace drawn deterministically from a
//!   per-dataset meta-distribution (traces within a dataset share
//!   structure, which is what makes the paper's Table 2 cross-trace
//!   generalization meaningful);
//! * [`analysis`] — footprint measurement (the evaluator sizes each cache
//!   at 10% of the trace footprint, §4.1.4);
//! * [`idhash`] — the workspace's one object-id hasher ([`IdHasher`], with
//!   [`IdMap`] and [`IdSet`]): a splitmix64 finalizer instead of SipHash,
//!   shared by the synthesizer, the footprint and the cache simulator.
//!
//! Everything is deterministic: the same `(dataset, index, request count)`
//! triple always yields the identical trace, bit for bit.

pub mod analysis;
pub mod datasets;
pub mod idhash;
pub mod model;
pub mod synth;
pub mod zipf;

pub use analysis::footprint_bytes;
pub use datasets::{cloudphysics, msr, DatasetSpec};
pub use idhash::{IdHasher, IdMap, IdSet};
pub use model::{OpKind, Request, Trace};
pub use synth::{generate, WorkloadParams};
pub use zipf::Zipf;
