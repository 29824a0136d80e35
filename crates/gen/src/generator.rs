//! The mock LLM itself: exemplar-conditioned candidate generation with
//! calibrated faults and stderr-driven repair.
//!
//! The [`Generator`] trait is the framework's LLM boundary: a real OpenAI
//! client would implement it with two API calls. [`MockLlm`] implements it
//! offline (substitution S1): generation samples a *strategy* per candidate
//! (fresh motif remix, exemplar mutation, exemplar crossover, or exemplar
//! plus an extra term), then optionally corrupts the result with one of the
//! paper's fault classes; repair pattern-matches the diagnostics exactly
//! the way a feedback-prompted LLM does, succeeding with class-dependent
//! probability.

use crate::faults::inject;
use crate::prompt::Prompt;
use crate::template::{template, Shape, Template};
use crate::tokens::TokenLedger;
use policysmith_dsl::{parse, simplify, to_source, BinOp, Expr, ExprKind, ExprRef, Feature, Mode};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Tunables of the mock LLM. Everything else it knows about a template is
/// that template's row, read from the prompt's mode.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    pub seed: u64,
    /// Probability a candidate is corrupted by a fault.
    pub p_fault: f64,
}

impl GenConfig {
    /// The cache template's calibrated fault rate.
    pub fn cache_defaults(seed: u64) -> GenConfig {
        GenConfig { seed, p_fault: template(Mode::Cache).p_fault }
    }

    /// The kernel template's calibrated fault rate.
    pub fn kernel_defaults(seed: u64) -> GenConfig {
        GenConfig { seed, p_fault: template(Mode::Kernel).p_fault }
    }

    /// The load-balancing template's calibrated fault rate.
    pub fn lb_defaults(seed: u64) -> GenConfig {
        GenConfig { seed, p_fault: template(Mode::Lb).p_fault }
    }

    /// The AQM template's calibrated fault rate.
    pub fn aqm_defaults(seed: u64) -> GenConfig {
        GenConfig { seed, p_fault: template(Mode::Aqm).p_fault }
    }
}

/// Why a generation request failed — the error surface a real LLM client
/// maps API failures onto (rate limits, 5xx, connection resets, request
/// deadlines). [`MockLlm`] never fails; [`crate::flaky::FlakyGen`] injects
/// these deliberately so the search's retry/watchdog path is exercised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The backend refused or errored before producing anything.
    Unavailable(String),
    /// The backend stalled past the client-side deadline.
    Timeout(String),
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::Unavailable(why) => write!(f, "generator unavailable: {why}"),
            GenError::Timeout(why) => write!(f, "generator timed out: {why}"),
        }
    }
}

impl std::error::Error for GenError {}

/// The framework's LLM boundary (§3's `Generator`).
pub trait Generator {
    /// Produce `n` candidate sources for the prompt.
    fn generate(&mut self, prompt: &Prompt, n: usize) -> Vec<String>;
    /// Fallible generation surface. The search loop calls this; the default
    /// wraps the infallible [`Generator::generate`] in `Ok`, so existing
    /// generators keep working unchanged. Implementations backed by a real
    /// network client (or [`crate::flaky::FlakyGen`]) override it to report
    /// backend failures instead of silently returning an empty batch.
    fn try_generate(&mut self, prompt: &Prompt, n: usize) -> Result<Vec<String>, GenError> {
        Ok(self.generate(prompt, n))
    }
    /// Attempt to repair a rejected candidate given its diagnostics.
    fn repair(&mut self, prompt: &Prompt, source: &str, stderr: &str) -> Option<String>;
    /// Token/cost accounting so far.
    fn ledger(&self) -> &TokenLedger;
}

/// Offline LLM stand-in. Deterministic per seed and call sequence.
pub struct MockLlm {
    cfg: GenConfig,
    rng: StdRng,
    ledger: TokenLedger,
}

impl MockLlm {
    /// New generator with the given configuration.
    pub fn new(cfg: GenConfig) -> Self {
        MockLlm { rng: StdRng::seed_from_u64(cfg.seed), cfg, ledger: TokenLedger::default() }
    }

    /// One draw from the template's motif library.
    fn motif(&mut self, t: &Template) -> Expr {
        t.motifs[self.rng.random_range(0..t.motifs.len())](&mut self.rng)
    }

    fn fresh_remix(&mut self, mode: Mode) -> Expr {
        let t = template(mode);
        match t.shape {
            Shape::Summed { max_motifs } => {
                let k = self.rng.random_range(2..=max_motifs);
                let mut expr = self.motif(t);
                for _ in 1..k {
                    let m = self.motif(t);
                    expr = Expr::bin(BinOp::Add, expr, m);
                }
                expr
            }
            Shape::LossGated { backoff } => {
                let mut growth = self.motif(t);
                if self.rng.random_bool(0.3) {
                    // nest a second gate
                    let g2 = self.motif(t);
                    growth = Expr::ite(feat_gate(&mut self.rng), growth, g2);
                }
                let backoff = backoff(&mut self.rng);
                let body = Expr::ite(Expr::feat(Feature::LossEvent), backoff, growth);
                if self.rng.random_bool(0.25) {
                    let hi = Expr::int(self.rng.random_range(128..4_096));
                    Expr::clamp(body, Expr::int(2), hi)
                } else {
                    body
                }
            }
        }
    }

    fn mutate(&mut self, base: &Expr, mode: Mode) -> Expr {
        let n = base.size();
        let ix = self.rng.random_range(0..n);
        match self.rng.random_range(0..4u8) {
            0 => {
                // constant perturbation
                if let Some(ExprKind::Int(v)) = base.get_subexpr(ix).map(ExprRef::kind) {
                    let nv = match self.rng.random_range(0..4u8) {
                        0 => v.saturating_mul(2),
                        1 => v / 2,
                        2 => v.saturating_add(self.rng.random_range(1..10)),
                        _ => v.saturating_sub(self.rng.random_range(1..10)),
                    };
                    return base.replace_subexpr(ix, &Expr::int(nv));
                }
                self.mutate_fallback(base, mode)
            }
            1 => {
                // feature swap within the mode's catalog
                if let Some(ExprKind::Feat(_)) = base.get_subexpr(ix).map(ExprRef::kind) {
                    let cat = Feature::catalog(mode);
                    let f = cat[self.rng.random_range(0..cat.len())];
                    return base.replace_subexpr(ix, &Expr::feat(f));
                }
                self.mutate_fallback(base, mode)
            }
            2 => {
                // graft a fresh motif in place of a subtree
                let motif = self.motif(template(mode));
                base.replace_subexpr(ix, &motif)
            }
            _ => {
                // add a term at the root (summed) / gate against a motif (loss-gated)
                let t = template(mode);
                let m = self.motif(t);
                match t.shape {
                    Shape::Summed { .. } => Expr::bin(BinOp::Add, base.clone(), m),
                    Shape::LossGated { .. } => Expr::ite(feat_gate(&mut self.rng), base.clone(), m),
                }
            }
        }
    }

    fn mutate_fallback(&mut self, base: &Expr, mode: Mode) -> Expr {
        let n = base.size();
        let ix = self.rng.random_range(0..n);
        let cat = Feature::catalog(mode);
        let f = cat[self.rng.random_range(0..cat.len())];
        base.replace_subexpr(ix, &Expr::feat(f))
    }

    fn crossover(&mut self, a: &Expr, b: &Expr) -> Expr {
        let ia = self.rng.random_range(0..a.size());
        let ib = self.rng.random_range(0..b.size());
        let donor = b.get_subexpr(ib).map_or(Expr::int(1), ExprRef::to_expr);
        a.replace_subexpr(ia, &donor)
    }

    /// Parse the prompt's exemplars (they were accepted before, so this
    /// should not fail; fall back to remixing if it somehow does).
    fn parsed_exemplars(&self, prompt: &Prompt) -> Vec<Expr> {
        prompt.exemplars.iter().filter_map(|e| parse(&e.source).ok()).collect()
    }
}

/// A random boolean gate over kernel features, used by the loss-gated
/// shape to nest growth strategies.
fn feat_gate(rng: &mut StdRng) -> Expr {
    {
        use policysmith_dsl::CmpOp;
        match rng.random_range(0..3u8) {
            0 => Expr::cmp(CmpOp::Lt, Expr::feat(Feature::Cwnd), Expr::feat(Feature::Ssthresh)),
            1 => Expr::cmp(
                CmpOp::Gt,
                Expr::feat(Feature::SrttUs),
                Expr::bin(
                    BinOp::Add,
                    Expr::feat(Feature::MinRttUs),
                    Expr::int(rng.random_range(2_000..20_000)),
                ),
            ),
            _ => Expr::cmp(CmpOp::Gt, Expr::feat(Feature::HistLoss(0)), Expr::int(0)),
        }
    }
}

impl Generator for MockLlm {
    fn generate(&mut self, prompt: &Prompt, n: usize) -> Vec<String> {
        let t = template(prompt.mode);
        let exemplars = self.parsed_exemplars(prompt);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let expr = if exemplars.is_empty() || self.rng.random_bool(t.p_explore) {
                self.fresh_remix(prompt.mode)
            } else if exemplars.len() >= 2 && self.rng.random_bool(0.3) {
                let a = &exemplars[self.rng.random_range(0..exemplars.len())];
                let b = &exemplars[self.rng.random_range(0..exemplars.len())];
                self.crossover(a, b)
            } else {
                let base = &exemplars[self.rng.random_range(0..exemplars.len())];
                self.mutate(base, prompt.mode)
            };
            let expr = simplify(&expr);
            let src = if self.rng.random_bool(self.cfg.p_fault) {
                let kind = t.fault_mix.sample(&mut self.rng);
                inject(kind, &expr, prompt.mode, &mut self.rng)
            } else {
                to_source(&expr)
            };
            out.push(src);
        }
        self.ledger.record(&prompt.render(), &out);
        out
    }

    fn repair(&mut self, prompt: &Prompt, source: &str, stderr: &str) -> Option<String> {
        let mut p = prompt.clone();
        p.feedback = Some(stderr.to_string());
        let rendered = p.render();
        let err = stderr.to_lowercase();
        let skill = template(prompt.mode).repair_skill;

        let fixed: Option<String> = if err.contains("float") {
            if !self.rng.random_bool(skill[0]) {
                None
            } else {
                // round every float literal to an integer
                parse_with_floats_rounded(source)
            }
        } else if err.contains("divisor") || err.contains("division") {
            if !self.rng.random_bool(skill[1]) {
                None
            } else {
                parse(source).ok().map(|e| to_source(&guard_divisions(&e)))
            }
        } else if err.contains("unknown identifier") {
            if !self.rng.random_bool(skill[2]) {
                None
            } else {
                replace_unknown_ident(source, prompt.mode, &mut self.rng)
            }
        } else {
            // syntax and the rest: try closing parens
            if !self.rng.random_bool(skill[3]) {
                None
            } else {
                balance_parens(source)
            }
        };

        self.ledger.record(&rendered, fixed.as_slice());
        fixed
    }

    fn ledger(&self) -> &TokenLedger {
        &self.ledger
    }
}

/// Parse while tolerating float literals, then round them to integers.
fn parse_with_floats_rounded(src: &str) -> Option<String> {
    let e = parse(src).ok()?;
    fn round(e: ExprRef<'_>) -> Expr {
        match e.kind() {
            ExprKind::Float(v) => Expr::int(v.round().max(1.0) as i64),
            kind => kind.map(round),
        }
    }
    Some(to_source(&round(e.view())))
}

/// Wrap every not-provably-nonzero divisor in `max(.., 1)` — the idiom the
/// verifier's diagnostics teach (§5.0.3).
fn guard_divisions(e: &Expr) -> Expr {
    fn guard(e: ExprRef<'_>) -> Expr {
        match e.kind() {
            ExprKind::Bin(op @ (BinOp::Div | BinOp::Rem), a, b) => {
                let a = guard(a);
                let b = guard(b);
                let b = if policysmith_dsl::check::divisor_nonzero(b.view()) {
                    b
                } else {
                    Expr::bin(BinOp::Max, b, Expr::int(1))
                };
                Expr::bin(op, a, b)
            }
            kind => kind.map(guard),
        }
    }
    guard(e.view())
}

fn replace_unknown_ident(src: &str, mode: Mode, rng: &mut StdRng) -> Option<String> {
    // the fakes the injector uses in the cache and kernel templates only
    // (a known gap: an lb or aqm fake is never repaired)
    let fakes = [Mode::Cache, Mode::Kernel].into_iter().flat_map(|m| template(m).fake_idents);
    let cat = Feature::catalog(mode);
    let replacement = cat[rng.random_range(0..cat.len())].name();
    for fake in fakes {
        if src.contains(fake) {
            let fixed = src.replace(fake, &replacement);
            if parse(&fixed).is_ok() {
                return Some(fixed);
            }
        }
    }
    None
}

fn balance_parens(src: &str) -> Option<String> {
    let opens = src.matches('(').count();
    let closes = src.matches(')').count();
    if opens > closes {
        let fixed = format!("{src}{}", ")".repeat(opens - closes));
        if parse(&fixed).is_ok() {
            return Some(fixed);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_dsl::{check, Mode};

    fn count_valid(mode: Mode, cfg: GenConfig, n: usize) -> usize {
        let mut llm = MockLlm::new(cfg);
        let prompt = Prompt::new(mode);
        llm.generate(&prompt, n)
            .iter()
            .filter(|s| parse(s).map(|e| check(&e, mode).is_ok()).unwrap_or(false))
            .count()
    }

    #[test]
    fn cache_first_pass_rate_near_92_percent() {
        let valid = count_valid(Mode::Cache, GenConfig::cache_defaults(1), 1_000);
        let rate = valid as f64 / 1_000.0;
        assert!((0.86..=0.97).contains(&rate), "cache first-pass rate {rate}");
    }

    #[test]
    fn lb_first_pass_rate_matches_calibration() {
        let valid = count_valid(Mode::Lb, GenConfig::lb_defaults(2), 1_000);
        let rate = valid as f64 / 1_000.0;
        assert!((0.84..=0.97).contains(&rate), "lb first-pass rate {rate}");
    }

    #[test]
    fn lb_candidates_read_server_state() {
        let mut llm = MockLlm::new(GenConfig { p_fault: 0.0, ..GenConfig::lb_defaults(8) });
        let batch = llm.generate(&Prompt::new(Mode::Lb), 50);
        let with_server = batch.iter().filter(|s| s.contains("server.")).count();
        assert!(with_server > 40, "lb candidates should read server features: {with_server}/50");
        for s in &batch {
            let e = parse(s).unwrap_or_else(|e| panic!("fault-free lb candidate: {s}: {e}"));
            check(&e, Mode::Lb).unwrap_or_else(|e| panic!("lb candidate failed check: {s}: {e}"));
        }
    }

    #[test]
    fn aqm_first_pass_rate_matches_calibration() {
        let valid = count_valid(Mode::Aqm, GenConfig::aqm_defaults(5), 1_000);
        let rate = valid as f64 / 1_000.0;
        assert!((0.84..=0.97).contains(&rate), "aqm first-pass rate {rate}");
    }

    #[test]
    fn aqm_candidates_read_queue_state() {
        let mut llm = MockLlm::new(GenConfig { p_fault: 0.0, ..GenConfig::aqm_defaults(9) });
        let batch = llm.generate(&Prompt::new(Mode::Aqm), 50);
        let with_queue =
            batch.iter().filter(|s| s.contains("q.") || s.contains("pkt.sojourn")).count();
        assert!(with_queue > 40, "aqm candidates should read queue features: {with_queue}/50");
        for s in &batch {
            let e = parse(s).unwrap_or_else(|e| panic!("fault-free aqm candidate: {s}: {e}"));
            check(&e, Mode::Aqm).unwrap_or_else(|e| panic!("aqm candidate failed check: {s}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mk = || {
            let mut llm = MockLlm::new(GenConfig::cache_defaults(42));
            llm.generate(&Prompt::new(Mode::Cache), 20)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn exemplars_steer_generation() {
        let mut llm = MockLlm::new(GenConfig::cache_defaults(7));
        let prompt = Prompt::new(Mode::Cache).with_exemplars(vec![crate::Exemplar {
            source: "obj.count * 123 - obj.age / 456".into(),
            score: 0.3,
        }]);
        let batch = llm.generate(&prompt, 40);
        // a meaningful share of candidates must descend from the exemplar
        let descendants = batch.iter().filter(|s| s.contains("123") || s.contains("456")).count();
        assert!(descendants >= 5, "only {descendants} descendants in {batch:?}");
    }

    #[test]
    fn repair_fixes_floats() {
        let mut llm = MockLlm::new(GenConfig::cache_defaults(3));
        let prompt = Prompt::new(Mode::Cache);
        let fixed = loop {
            // repair is stochastic; retry until the skill roll succeeds
            if let Some(f) =
                llm.repair(&prompt, "obj.count * 1.5", "error: floating-point literal `1.5`")
            {
                break f;
            }
        };
        let e = parse(&fixed).unwrap();
        assert!(check(&e, Mode::Cache).is_ok());
        assert!(!e.contains_float());
    }

    #[test]
    fn repair_guards_divisions() {
        let mut llm = MockLlm::new(GenConfig::kernel_defaults(4));
        let prompt = Prompt::new(Mode::Kernel);
        let fixed = loop {
            if let Some(f) = llm.repair(
                &prompt,
                "cwnd / inflight",
                "verifier: insn 3: R2 range [0, 16777216] includes 0, not allowed as divisor",
            ) {
                break f;
            }
        };
        assert!(fixed.contains("max(inflight, 1)"), "{fixed}");
    }

    #[test]
    fn guard_divisions_is_idempotent_on_safe_code() {
        let e = parse("cwnd / max(inflight, 1) + acked / mss").unwrap();
        assert_eq!(guard_divisions(&e), e);
    }

    #[test]
    fn tokens_metered_on_every_call() {
        let mut llm = MockLlm::new(GenConfig::cache_defaults(5));
        let prompt = Prompt::new(Mode::Cache);
        llm.generate(&prompt, 25);
        let after_gen = *llm.ledger();
        assert!(after_gen.input_tokens > 100, "prompt must be metered");
        assert!(after_gen.output_tokens > 25, "completions must be metered");
        llm.repair(&prompt, "obj.count * 1.5", "error: floating-point literal");
        assert!(llm.ledger().requests > after_gen.requests);
    }

    #[test]
    fn kernel_remixes_have_loss_structure() {
        let mut llm = MockLlm::new(GenConfig { p_fault: 0.0, ..GenConfig::kernel_defaults(6) });
        let batch = llm.generate(&Prompt::new(Mode::Kernel), 50);
        let with_loss = batch.iter().filter(|s| s.contains("loss")).count();
        assert!(with_loss > 35, "kernel candidates should branch on loss: {with_loss}/50");
        for s in &batch {
            parse(s).unwrap_or_else(|e| panic!("fault-free candidate failed to parse: {s}: {e}"));
        }
    }
}
