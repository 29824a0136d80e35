//! # policysmith-dsl — the heuristic expression language
//!
//! PolicySmith candidates are *programs*. This crate defines the small,
//! integer-only expression language in which all three case studies'
//! heuristics are written:
//!
//! * **Cache eviction** (§4 of the paper): a `priority()` function over the
//!   Table-1 feature set (per-object metadata, percentile aggregates over the
//!   resident set, and eviction history). Evaluated by the tree-walking
//!   [`eval`](eval()) interpreter inside the cache simulator's template host.
//! * **Congestion control** (§5): a `cong_control()` function over
//!   kernel-visible state (cwnd, RTT estimates, inflight, …) plus the
//!   10-interval smoothed *history arrays*. Lowered to `kbpf` bytecode by the
//!   `policysmith-kbpf` crate and executed only after verification.
//! * **Load balancing** ([`Mode::Lb`], the third workload beyond the
//!   paper): a `score(server, req)` function evaluated once per server at
//!   dispatch time inside `policysmith-lbsim`'s template host; the request
//!   is sent to the lowest-scoring server (argmin).
//!
//! ## `Mode::Lb` feature catalog
//!
//! | source syntax         | meaning                                             | range      |
//! |-----------------------|-----------------------------------------------------|------------|
//! | `now`                 | virtual time at dispatch, µs                        | `[0, 2^50]`|
//! | `server.queue_len`    | requests waiting in the server's FIFO queue         | `[0, 2^20]`|
//! | `server.ewma_latency` | EWMA of the server's recent response times, µs      | `[0, 2^32]`|
//! | `server.speed`        | server speed, work units per ms (never zero)        | `[1, 2^16]`|
//! | `server.inflight`     | unfinished requests assigned (queued + in service)  | `[0, 2^20]`|
//! | `req.size`            | service demand of the dispatched request (never 0)  | `[1, 2^32]`|
//!
//! `server.speed` and `req.size` have ranges excluding zero, so they are
//! checker-clean divisors — `server.queue_len * 1000 / server.speed` is the
//! canonical capacity-normalized load idiom. Dividing by `server.queue_len`,
//! `server.inflight`, or `server.ewma_latency` (zero on an idle/fresh
//! server) draws the usual `DivisorMayBeZero` warning, and the generator
//! learns the `max(.., 1)` guard from it.
//!
//! ## Why integer-only?
//!
//! The Linux kernel forbids floating point on the hot path (§5 of the paper
//! lists float usage as the single most common generator error). We make the
//! same choice end-to-end: all programs compute over `i64` with saturating
//! arithmetic, so the DSL interpreter and the kbpf VM agree bit-for-bit.
//! Float *literals* are still lexable and parseable — they become
//! [`ExprKind::Float`] nodes which the [typechecker](check()) rejects — because the
//! fault-injection path of the mock generator must be able to produce the
//! same non-conforming programs a real LLM does.
//!
//! ## Defined arithmetic
//!
//! Every operator has a total, deterministic semantics shared by the
//! interpreter and the VM (see [`eval`](eval()) for details): `+ - *` saturate,
//! `/ %` fault on a zero divisor (a runtime candidate failure in userspace,
//! a verifier rejection in kernel mode), shifts clamp their amount to
//! `[0, 63]`, and comparisons/logic produce `0`/`1`.
//!
//! ```
//! use policysmith_dsl::{parse, check, eval, Mode, env::MapEnv, Feature};
//!
//! let expr = parse("obj.count * 20 - obj.age / 300").unwrap();
//! check(&expr, Mode::Cache).unwrap();
//! let mut env = MapEnv::default();
//! env.set(Feature::ObjCount, 7);
//! env.set(Feature::ObjAge, 900);
//! assert_eq!(eval(&expr, &env).unwrap(), 7 * 20 - 3);
//! ```

pub mod ast;
pub mod check;
pub mod env;
pub mod error;
pub mod eval;
pub mod feature;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod simplify;

pub use ast::{BinOp, CmpOp, Expr, ExprKind, ExprRef};
pub use check::{check, check_with_warnings, CheckReport, Warning};
pub use env::FeatureEnv;
pub use error::{CheckError, EvalError, ParseError};
pub use eval::eval;
pub use feature::{Feature, Mode};
pub use parser::parse;
pub use printer::to_source;
pub use simplify::simplify;
