//! # policysmith-core — the PolicySmith framework (§3 of the paper)
//!
//! The paper's primary contribution: policy design re-imagined as an
//! automated search problem. The user supplies a **Template** (what the
//! heuristic must implement + constraints), a **Checker** (is a candidate
//! within spec?) and an **Evaluator** (how well does it perform in this
//! context?); an LLM **Generator** proposes candidates; an evolutionary
//! loop feeds the best back as exemplars (§4.2.1: 25 candidates × 20
//! rounds, top-2 feedback).
//!
//! * [`search`] — the generic search loop, population management, round
//!   statistics and the cost ledger (§4.2.6);
//!
//! Every study's Checker is now the same compile-once pipeline
//! (parse → mode-check → kbpf lowering → **verify**), so every Evaluator
//! executes verified bytecode rather than walking the AST:
//!
//! * [`studies::cache`] — the web-caching instantiation (§4): evaluator =
//!   miss-ratio improvement over FIFO on one trace at 10%-of-footprint
//!   capacity;
//! * [`studies::cc`] — the kernel instantiation (§5): verification is
//!   strict (the verifier is the Checker); evaluator = emulated
//!   12 Mbps / 20 ms link;
//! * [`studies::lb`] — the load-balancing instantiation (third workload,
//!   beyond the paper): evaluator = mean-slowdown improvement over
//!   round-robin on a dispatch-tier scenario — proof that a new controller
//!   slots in behind the same [`Study`] boundary unchanged;
//! * [`library`] — the §3.1 context layer: a library of synthesized
//!   heuristics, a guardrail-style drift monitor, and the
//!   [`AdaptiveController`] closing the drift → library → re-synthesis
//!   loop generically over any [`Study`].
//!
//! ```no_run
//! use policysmith_core::search::{run_search, SearchConfig};
//! use policysmith_core::studies::cache::CacheStudy;
//! use policysmith_gen::{GenConfig, MockLlm};
//!
//! let trace = policysmith_traces::cloudphysics().trace(89, 100_000);
//! let study = CacheStudy::new(&trace);
//! let mut llm = MockLlm::new(GenConfig::cache_defaults(42));
//! let outcome = run_search(&study, &mut llm, &SearchConfig::paper_cache());
//! println!("best: {}  (+{:.1}% over FIFO)", outcome.best.source, outcome.best.score * 100.0);
//! ```

pub mod library;
pub mod search;
pub mod studies;

pub use library::{
    run_search_with_retry, Adaptation, AdaptiveController, ContextMonitor, GiveUp,
    HeuristicLibrary, LibraryEntry, RetriedSearch, RetryPolicy, SearchNeeded,
};
pub use search::{
    run_search, try_run_search, CostLedger, RoundStats, Scored, SearchConfig, SearchError,
    SearchOutcome, Study,
};
