//! A fault-injecting `Generator` wrapper — the *transport*-level analogue
//! of the mock LLM's fault injection.
//!
//! That injection models the LLM hallucinating inside an otherwise
//! successful response; [`FlakyGen`] models the request itself misbehaving: the
//! backend returning 5xx/rate-limit errors, stalling past the client
//! deadline, or answering with garbage that is not even candidate-shaped.
//! The serving runtime's retry/backoff + watchdog layer is written against
//! exactly these failures, and the chaos harness drives them
//! deterministically per seed.

use crate::generator::{GenError, Generator};
use crate::prompt::Prompt;
use crate::tokens::TokenLedger;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// Seed-driven misbehavior rates for [`FlakyGen`]. All probabilities are
/// per `try_generate` call; the rolls are drawn from a dedicated `StdRng`
/// so the same seed yields the same failure sequence regardless of what
/// the wrapped generator does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlakyConfig {
    pub seed: u64,
    /// Probability the whole request fails outright (rate limit / 5xx).
    pub p_error: f64,
    /// Probability the response is a batch of non-candidate garbage text.
    pub p_garbage: f64,
    /// Probability the backend stalls for [`FlakyConfig::stall`] before
    /// responding.
    pub p_stall: f64,
    /// How long a stall lasts. Stalls longer than
    /// [`FlakyConfig::client_timeout`] surface as [`GenError::Timeout`]
    /// after sleeping only the timeout — the client hung up first.
    pub stall: Duration,
    /// The client-side request deadline.
    pub client_timeout: Duration,
}

impl FlakyConfig {
    /// An intermittently unreliable backend: occasional errors, garbage,
    /// and sub-deadline stalls. Retries are expected to win.
    pub fn flaky(seed: u64) -> FlakyConfig {
        FlakyConfig {
            seed,
            p_error: 0.3,
            p_garbage: 0.2,
            p_stall: 0.2,
            stall: Duration::from_millis(5),
            client_timeout: Duration::from_millis(250),
        }
    }

    /// A dead backend: every request fails. Retries cannot win; the
    /// watchdog's give-up path is the only way out.
    pub fn outage(seed: u64) -> FlakyConfig {
        FlakyConfig {
            seed,
            p_error: 1.0,
            p_garbage: 0.0,
            p_stall: 0.0,
            stall: Duration::ZERO,
            client_timeout: Duration::from_millis(250),
        }
    }

    /// A healthy backend — [`FlakyGen`] becomes a transparent wrapper.
    /// Useful as the no-fault arm of a chaos plan.
    pub fn none(seed: u64) -> FlakyConfig {
        FlakyConfig {
            seed,
            p_error: 0.0,
            p_garbage: 0.0,
            p_stall: 0.0,
            stall: Duration::ZERO,
            client_timeout: Duration::from_secs(1),
        }
    }
}

/// Counts of injected failures, for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlakyStats {
    pub errors: u64,
    pub garbage_batches: u64,
    pub stalls: u64,
    pub timeouts: u64,
}

/// Wraps any [`Generator`] with deterministic transport-level faults.
pub struct FlakyGen<G: Generator> {
    inner: G,
    cfg: FlakyConfig,
    rng: StdRng,
    stats: FlakyStats,
}

impl<G: Generator> FlakyGen<G> {
    pub fn new(inner: G, cfg: FlakyConfig) -> Self {
        FlakyGen { inner, cfg, rng: StdRng::seed_from_u64(cfg.seed), stats: FlakyStats::default() }
    }

    /// Injection counts so far.
    pub fn stats(&self) -> FlakyStats {
        self.stats
    }

    /// The wrapped generator.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.random_bool(p)
    }
}

impl<G: Generator> Generator for FlakyGen<G> {
    /// Infallible surface: failures degrade to an empty batch (a caller
    /// that cannot observe errors sees "the LLM produced nothing usable").
    fn generate(&mut self, prompt: &Prompt, n: usize) -> Vec<String> {
        self.try_generate(prompt, n).unwrap_or_default()
    }

    fn try_generate(&mut self, prompt: &Prompt, n: usize) -> Result<Vec<String>, GenError> {
        if self.roll(self.cfg.p_error) {
            self.stats.errors += 1;
            return Err(GenError::Unavailable("injected backend error (503)".into()));
        }
        if self.roll(self.cfg.p_stall) {
            self.stats.stalls += 1;
            let timeout = self.cfg.client_timeout;
            if self.cfg.stall > timeout {
                // the backend would answer eventually, but the client's
                // deadline fires first — sleep only the deadline
                std::thread::sleep(timeout);
                self.stats.timeouts += 1;
                return Err(GenError::Timeout(format!(
                    "injected stall exceeded the {}ms client deadline",
                    timeout.as_millis()
                )));
            }
            std::thread::sleep(self.cfg.stall);
        }
        if self.roll(self.cfg.p_garbage) {
            self.stats.garbage_batches += 1;
            // candidate-shaped only in the loosest sense: none of these
            // survive `parse`, so the whole round yields zero candidates
            return Ok((0..n)
                .map(|i| format!("I'm sorry, as a large language model ({i}) (((",))
                .collect());
        }
        self.inner.try_generate(prompt, n)
    }

    fn repair(&mut self, prompt: &Prompt, source: &str, stderr: &str) -> Option<String> {
        // repair rides the same flaky transport: a failed round-trip is
        // indistinguishable from "the model had no fix"
        if self.roll(self.cfg.p_error) {
            self.stats.errors += 1;
            return None;
        }
        self.inner.repair(prompt, source, stderr)
    }

    fn ledger(&self) -> &TokenLedger {
        self.inner.ledger()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GenConfig, MockLlm};
    use policysmith_dsl::{parse, Mode};

    fn prompt() -> Prompt {
        Prompt::new(Mode::Cache)
    }

    fn mock(seed: u64) -> MockLlm {
        MockLlm::new(GenConfig::cache_defaults(seed))
    }

    #[test]
    fn healthy_config_is_transparent() {
        let mut plain = mock(7);
        let mut wrapped = FlakyGen::new(mock(7), FlakyConfig::none(7));
        let a = plain.generate(&prompt(), 6);
        let b = wrapped.try_generate(&prompt(), 6).unwrap();
        assert_eq!(a, b, "p=0 wrapper must not perturb the stream");
        assert_eq!(wrapped.stats(), FlakyStats::default());
    }

    #[test]
    fn outage_always_errors_and_is_deterministic() {
        let mut g = FlakyGen::new(mock(1), FlakyConfig::outage(42));
        for _ in 0..10 {
            assert!(matches!(g.try_generate(&prompt(), 4), Err(GenError::Unavailable(_))));
        }
        assert_eq!(g.stats().errors, 10);
        // the infallible surface degrades to an empty batch
        assert!(g.generate(&prompt(), 4).is_empty());
    }

    #[test]
    fn same_seed_same_failure_sequence() {
        let run = |seed| {
            let mut g = FlakyGen::new(mock(3), FlakyConfig::flaky(seed));
            (0..40).map(|_| g.try_generate(&prompt(), 2).is_err()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should fail differently");
    }

    #[test]
    fn garbage_batches_never_parse() {
        let cfg =
            FlakyConfig { p_error: 0.0, p_stall: 0.0, p_garbage: 1.0, ..FlakyConfig::flaky(5) };
        let mut g = FlakyGen::new(mock(2), cfg);
        let batch = g.try_generate(&prompt(), 5).unwrap();
        assert_eq!(batch.len(), 5);
        for src in &batch {
            assert!(parse(src).is_err(), "garbage unexpectedly parsed: {src}");
        }
        assert_eq!(g.stats().garbage_batches, 1);
    }

    #[test]
    fn stall_past_deadline_times_out() {
        let cfg = FlakyConfig {
            p_error: 0.0,
            p_garbage: 0.0,
            p_stall: 1.0,
            stall: Duration::from_millis(50),
            client_timeout: Duration::from_millis(1),
            seed: 11,
        };
        let mut g = FlakyGen::new(mock(2), cfg);
        let t0 = std::time::Instant::now();
        assert!(matches!(g.try_generate(&prompt(), 2), Err(GenError::Timeout(_))));
        assert!(t0.elapsed() < Duration::from_millis(40), "client must not wait out the stall");
        assert_eq!(g.stats().timeouts, 1);
    }
}
