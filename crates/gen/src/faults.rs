//! Calibrated fault injection — the "hallucination" side of the mock LLM.
//!
//! §3 of the paper: "The LLM, of course, may produce code that does not
//! honor these constraints, due to hallucination, producing plausible yet
//! non-conforming or incorrect code." §5.0.3 quantifies it: only 63% of
//! kernel candidates passed the verifier first-try (vs 92% compiling for
//! caching), with float arithmetic and missing division-by-zero checks the
//! dominant causes. This module reproduces those fault classes; each
//! template's rates and vocabulary live in its row (`crate::template`).

use crate::template::template;
use policysmith_dsl::{BinOp, Expr, ExprKind, ExprRef, Mode};
use rand::rngs::StdRng;
use rand::RngExt;

/// The fault classes the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Floating-point literal (kernel: forbidden outright; cache: the
    /// integer template rejects it too).
    Float,
    /// Division whose divisor may be zero (caught by the kbpf verifier in
    /// kernel mode; a latent runtime fault in cache mode).
    UnguardedDiv,
    /// A plausible-but-nonexistent feature name.
    UnknownIdent,
    /// Truncated / malformed source.
    Syntax,
}

/// Weighted fault mix; weights need not sum to 1.
#[derive(Debug, Clone, Copy)]
pub struct FaultMix {
    pub float: f64,
    pub unguarded_div: f64,
    pub unknown_ident: f64,
    pub syntax: f64,
}

impl FaultMix {
    /// Draw a fault kind according to the weights.
    pub fn sample(&self, rng: &mut StdRng) -> FaultKind {
        let total = self.float + self.unguarded_div + self.unknown_ident + self.syntax;
        let mut x = rng.random_range(0.0..total);
        for (w, k) in [
            (self.float, FaultKind::Float),
            (self.unguarded_div, FaultKind::UnguardedDiv),
            (self.unknown_ident, FaultKind::UnknownIdent),
        ] {
            if x < w {
                return k;
            }
            x -= w;
        }
        FaultKind::Syntax
    }
}

/// Apply `kind` to a valid candidate, returning corrupted *source text*
/// (faults like truncation only exist at the text level).
pub fn inject(kind: FaultKind, expr: &Expr, mode: Mode, rng: &mut StdRng) -> String {
    match kind {
        FaultKind::Float => {
            // replace a random integer constant with a fractional version,
            // or scale the whole expression by a float
            let n = expr.size();
            for _ in 0..8 {
                let ix = rng.random_range(0..n);
                if let Some(ExprKind::Int(v)) = expr.get_subexpr(ix).map(ExprRef::kind) {
                    let f = v as f64 + [0.5, 0.25, 0.75][rng.random_range(0..3usize)];
                    // a negative result becomes `0.5`, the text the mock has
                    // always emitted for it (the printer used to write every
                    // negative float so); every golden and artifact built on
                    // the mock's candidate stream pins that text
                    let f = if f < 0.0 { 0.5 } else { f };
                    let mutated = expr.replace_subexpr(ix, &Expr::float(f));
                    return policysmith_dsl::to_source(&mutated);
                }
            }
            let scaled = Expr::bin(BinOp::Mul, expr.clone(), Expr::float(1.5));
            policysmith_dsl::to_source(&scaled)
        }
        FaultKind::UnguardedDiv => {
            let divisors = template(mode).risky_divisors;
            let d = divisors[rng.random_range(0..divisors.len())];
            let n = expr.size();
            let ix = rng.random_range(0..n);
            let victim = expr.get_subexpr(ix).map_or(Expr::int(1), ExprRef::to_expr);
            let divided = Expr::bin(BinOp::Div, victim, Expr::feat(d));
            policysmith_dsl::to_source(&expr.replace_subexpr(ix, &divided))
        }
        FaultKind::UnknownIdent => {
            let src = policysmith_dsl::to_source(expr);
            let fakes = template(mode).fake_idents;
            let fake = fakes[rng.random_range(0..fakes.len())];
            // replace the first feature occurrence textually
            match expr.features().first() {
                Some(f) => src.replacen(&f.name(), fake, 1),
                None => format!("{src} + {fake}"),
            }
        }
        FaultKind::Syntax => {
            let src = policysmith_dsl::to_source(expr);
            match rng.random_range(0..3u8) {
                0 if src.contains(')') => {
                    // truncate at the last closing paren (mid-generation cutoff)
                    let cut = src.rfind(')').unwrap();
                    src[..cut].to_string()
                }
                1 => format!("{src} +"),
                _ => format!("{src} ? 1"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policysmith_dsl::{check, parse, Mode};
    use rand::SeedableRng;

    fn sample_expr() -> Expr {
        parse("if(loss, max(cwnd >> 1, 2), cwnd + max(acked / max(mss, 1), 1))").unwrap()
    }

    #[test]
    fn float_fault_fails_check_not_parse() {
        let mut rng = StdRng::seed_from_u64(1);
        let src = inject(FaultKind::Float, &sample_expr(), Mode::Kernel, &mut rng);
        let e = parse(&src).expect("float faults still parse");
        assert!(check(&e, Mode::Kernel).is_err());
    }

    #[test]
    fn unguarded_div_parses_and_checks_with_warning() {
        let mut rng = StdRng::seed_from_u64(2);
        let src = inject(FaultKind::UnguardedDiv, &sample_expr(), Mode::Kernel, &mut rng);
        let e = parse(&src).expect("div faults still parse: {src}");
        let report = policysmith_dsl::check_with_warnings(&e, Mode::Kernel, 1024, 64);
        assert!(report.ok(), "unguarded div is not a type error");
        assert!(!report.warnings.is_empty(), "but it must warn: {src}");
    }

    #[test]
    fn unknown_ident_fails_parse() {
        let mut rng = StdRng::seed_from_u64(3);
        let src = inject(FaultKind::UnknownIdent, &sample_expr(), Mode::Kernel, &mut rng);
        assert!(parse(&src).is_err(), "{src}");
    }

    #[test]
    fn syntax_fault_fails_parse() {
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let src = inject(FaultKind::Syntax, &sample_expr(), Mode::Kernel, &mut rng);
            assert!(parse(&src).is_err(), "seed {seed}: `{src}` unexpectedly parsed");
        }
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = template(Mode::Kernel).fault_mix;
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 4];
        for _ in 0..10_000 {
            match mix.sample(&mut rng) {
                FaultKind::Float => counts[0] += 1,
                FaultKind::UnguardedDiv => counts[1] += 1,
                FaultKind::UnknownIdent => counts[2] += 1,
                FaultKind::Syntax => counts[3] += 1,
            }
        }
        assert!(counts[0] > counts[2], "floats dominate idents in kernel mix");
        assert!(counts[1] > counts[3], "divisions dominate syntax");
    }
}
