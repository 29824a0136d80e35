//! # policysmith-gen — the mock-LLM candidate generator
//!
//! The paper drives its search with GPT-4o mini; this crate substitutes an
//! offline, deterministic mock LLM for it, exposing the same interface a
//! real LLM client would implement — the framework's `Generator` role (§3
//! of the paper).
//!
//! What makes it "LLM-like" rather than a plain mutation engine:
//!
//! * **Motif remixing**: candidates are assembled from a library of
//!   domain idioms the caching/CC literature keeps reusing (frequency ×
//!   size ratios, recency penalties, history boosts, AIMD backoffs, delay
//!   gating, …) — mirroring §2's observation that "state-of-the-art
//!   heuristics are delicate recombinations of existing approaches" and
//!   that LLMs remix pretrained patterns.
//! * **Exemplar conditioning**: the prompt carries the best scored
//!   programs so far (§4.2.1's top-2 feedback); the generator mutates and
//!   crosses them over, plus keeps exploring fresh combinations.
//! * **Calibrated hallucination**: a calibrated fraction of candidates
//!   carries exactly the fault classes the paper reports — float
//!   literals, unguarded division, unknown identifiers, truncated syntax —
//!   so the Checker path (and §5.0.3's compile-rate numbers) is exercised
//!   realistically.
//! * **stderr-driven repair**: given compiler/verifier diagnostics, the
//!   generator applies the fix an LLM learns from feedback (round floats,
//!   wrap divisors in `max(.., 1)`, replace hallucinated names), with
//!   imperfect success — reproducing the paper's "+19% after stderr"
//!   second pass.
//! * **Token accounting** ([`tokens`]): prompt and completion sizes are
//!   metered so the §4.2.6 cost experiment has something to measure.
//!
//! Each template's motif library, remix shape, calibration, prompt text
//! and fault vocabulary is one private row; only the fault rate is a
//! [`GenConfig`] setting.

mod faults;
pub mod flaky;
pub mod generator;
mod motifs;
pub mod prompt;
mod template;
pub mod tokens;

pub use flaky::{FlakyConfig, FlakyGen, FlakyStats};
pub use generator::{GenConfig, GenError, Generator, MockLlm};
pub use prompt::{Exemplar, Prompt};
pub use tokens::TokenLedger;
