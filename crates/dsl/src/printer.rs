//! Pretty-printer: turns an [`Expr`] back into heuristic source.
//!
//! The printer and parser are inverse up to canonicalization: for any tree
//! the parser can produce, `parse(to_source(e)) == e`; for arbitrary trees
//! (e.g. mid-mutation generator output) the reparsed tree is semantically
//! equal (`-5` folds to a literal, etc.). Minimal parentheses are emitted
//! using the same precedence table the parser uses, so printed heuristics
//! look like the paper's Listing 1 rather than a LISP dump.

use crate::ast::{BinOp, CmpOp, Expr, ExprKind, ExprRef};

/// Render `e` as parseable heuristic source.
pub fn to_source(e: &Expr) -> String {
    let mut s = String::new();
    write_expr(e.view(), 0, &mut s);
    s
}

/// Precedence levels, matching the parser (higher binds tighter).
fn prec_of(e: ExprKind<'_>) -> u8 {
    match e {
        ExprKind::If(..) => 0, // printed as if(...) call — atom — but ternary level kept for safety
        ExprKind::Bin(BinOp::Or, ..) => 1,
        ExprKind::Bin(BinOp::And, ..) => 2,
        ExprKind::Cmp(CmpOp::Eq | CmpOp::Ne, ..) => 3,
        ExprKind::Cmp(..) => 4,
        ExprKind::Bin(BinOp::Shl | BinOp::Shr, ..) => 5,
        ExprKind::Bin(BinOp::Add | BinOp::Sub, ..) => 6,
        ExprKind::Bin(BinOp::Mul | BinOp::Div | BinOp::Rem, ..) => 7,
        ExprKind::Neg(_) | ExprKind::Not(_) => 8,
        _ => 9, // atoms and call-syntax nodes
    }
}

fn write_expr(e: ExprRef<'_>, min_prec: u8, out: &mut String) {
    let kind = e.kind();
    let p = prec_of(kind);
    let parens = p < min_prec;
    if parens {
        out.push('(');
    }
    match kind {
        ExprKind::Int(v) => {
            if v == i64::MIN {
                // `-9223372036854775808` does not survive unary-minus parsing.
                out.push_str("(-9223372036854775807 - 1)");
            } else {
                out.push_str(&v.to_string());
            }
        }
        ExprKind::Float(v) => out.push_str(&fmt_float(v)),
        ExprKind::Feat(f) => out.push_str(&f.name()),
        ExprKind::Neg(a) => {
            out.push('-');
            write_expr(a, 8, out);
        }
        ExprKind::Not(a) => {
            out.push('!');
            write_expr(a, 8, out);
        }
        ExprKind::Abs(a) => {
            out.push_str("abs(");
            write_expr(a, 0, out);
            out.push(')');
        }
        ExprKind::Bin(op @ (BinOp::Min | BinOp::Max), a, b) => {
            out.push_str(op.symbol());
            out.push('(');
            write_expr(a, 0, out);
            out.push_str(", ");
            write_expr(b, 0, out);
            out.push(')');
        }
        ExprKind::Bin(op, a, b) => {
            // left-associative: right child needs one level tighter
            write_expr(a, p, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            write_expr(b, p + 1, out);
        }
        ExprKind::Cmp(op, a, b) => {
            write_expr(a, p, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            write_expr(b, p + 1, out);
        }
        ExprKind::If(c, t, f) => {
            out.push_str("if(");
            write_expr(c, 0, out);
            out.push_str(", ");
            write_expr(t, 0, out);
            out.push_str(", ");
            write_expr(f, 0, out);
            out.push(')');
        }
        ExprKind::Clamp(x, lo, hi) => {
            out.push_str("clamp(");
            write_expr(x, 0, out);
            out.push_str(", ");
            write_expr(lo, 0, out);
            out.push_str(", ");
            write_expr(hi, 0, out);
            out.push(')');
        }
    }
    if parens {
        out.push(')');
    }
}

/// Format a float so the lexer can read it back (`digits.digits`, no
/// exponent). A negative value prints as `-` and its magnitude, which the
/// parser folds back into one literal, as it does for `-5`.
fn fmt_float(v: f64) -> String {
    if !v.is_finite() {
        // the parser rejects a non-finite literal, so no parsed tree holds
        // one; a hand-built tree gets a finite stand-in
        "0.5".to_string()
    } else if v.is_sign_negative() {
        format!("-{}", fmt_float(-v))
    } else {
        // `f64`'s `Display` never uses an exponent
        let s = format!("{v}");
        if s.contains('.') {
            s
        } else {
            format!("{v:.1}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MapEnv;
    use crate::eval::eval;
    use crate::feature::Feature;
    use crate::parser::parse;

    fn roundtrip(src: &str) {
        let e = parse(src).unwrap();
        let printed = to_source(&e);
        let reparsed = parse(&printed).unwrap_or_else(|err| {
            panic!("reparse of `{printed}` failed: {err}");
        });
        assert_eq!(reparsed, e, "src={src} printed={printed}");
    }

    #[test]
    fn roundtrips() {
        for src in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "obj.count * 20 - obj.age / 300 - obj.size / 500",
            "if(hist.contains, hist.count * 15, -40)",
            "min(1, max(2, 3))",
            "clamp(cwnd, 2, ssthresh)",
            "1 << 2 + 3",
            "(1 << 2) + 3",
            "!(obj.count > 3) && obj.size < sizes.p50",
            "hist_rtt[0] - hist_rtt[9]",
            "1 - -2",
            "-(1 + 2)",
            "cwnd / max(inflight, 1)",
            "obj.age % 7",
            "2 - (3 - 4)",
            "100 >> (cwnd > 10)",
            "obj.count * -0.5",
            "obj.count - -0.5",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn listing1_roundtrip() {
        roundtrip(
            "obj.count * 20 - obj.age / 300 - obj.size / 500 \
             + if(hist.contains, hist.count * 15 + hist.age_at_evict / 150, -40) \
             + if(obj.last_access < ages.p75, -30, 0) \
             + if(obj.size > sizes.p75, -25, 10) \
             + if(obj.count > counts.p70, 50, -5) \
             + if(obj.age < 1000, 25, 0) \
             + if(obj.count < 3, -15, 0)",
        );
    }

    #[test]
    fn neg_int_semantic_roundtrip() {
        // Neg(Int(5)) prints as "-5" which reparses to Int(-5): not
        // structurally identical but semantically equal.
        let e = -Expr::int(5);
        let r = parse(&to_source(&e)).unwrap();
        let env = MapEnv::new();
        assert_eq!(eval(&e, &env), eval(&r, &env));
    }

    #[test]
    fn min_int_prints_parseable() {
        let e = Expr::int(i64::MIN);
        let r = parse(&to_source(&e)).unwrap();
        assert_eq!(eval(&r, &MapEnv::new()).unwrap(), i64::MIN);
    }

    #[test]
    fn float_prints_parseable() {
        for v in [0.5, 0.75, 1.5, 2.0, 10.25] {
            let printed = to_source(&Expr::float(v));
            assert_eq!(parse(&printed).unwrap(), Expr::float(v), "{printed}");
        }
    }

    /// Every feature of every template — its catalog, then each of its
    /// families at every in-range parameter — parses back from its name,
    /// and `check` accepts it in its own template only. This is what holds
    /// a feature's name and the parser's match on it together.
    #[test]
    fn feature_names_roundtrip() {
        use crate::check::check;
        use crate::error::ParseError;
        use crate::feature::Mode;
        use Feature::*;
        type Family = (Mode, fn(u8) -> Feature, std::ops::RangeInclusive<u8>);
        let families: [Family; 8] = [
            (Mode::Cache, CountsPct, 1..=99),
            (Mode::Cache, AgesPct, 1..=99),
            (Mode::Cache, SizesPct, 1..=99),
            (Mode::Kernel, HistRtt, 0..=9),
            (Mode::Kernel, HistDelivered, 0..=9),
            (Mode::Kernel, HistLoss, 0..=9),
            (Mode::Kernel, HistCwnd, 0..=9),
            (Mode::Kernel, HistQdelay, 0..=9),
        ];
        let mut seen = 0;
        for mode in Mode::ALL {
            let members = families
                .iter()
                .filter(|(home, ..)| *home == mode)
                .flat_map(|(_, family, params)| params.clone().map(family));
            for f in Feature::catalog(mode).into_iter().chain(members) {
                let printed = to_source(&Expr::feat(f));
                assert_eq!(printed, f.name());
                assert_eq!(parse(&printed), Ok(Expr::feat(f)), "{printed}");
                for m in Mode::ALL {
                    let own = m == mode || f == Now;
                    assert_eq!(check(&Expr::feat(f), m).is_ok(), own, "{printed} in {m:?}");
                }
                seen += 1;
            }
        }
        assert!(seen > 3 * 99 + 5 * 10, "{seen} features");

        for src in ["ages.p0", "ages.p100", "hist_rtt[10]", "hist_rtt[256]"] {
            assert!(matches!(parse(src), Err(ParseError::BadParam { .. })), "{src}");
        }
        assert!(matches!(parse("ages.p256"), Err(ParseError::UnknownIdentifier { .. })));
        assert_eq!(parse("counts.p075"), Ok(Expr::feat(CountsPct(75))));
        assert_eq!(parse("hist_rtt[007]"), Ok(Expr::feat(HistRtt(7))));
        assert_eq!(parse("obj . count"), Ok(Expr::feat(ObjCount)));
    }
}
