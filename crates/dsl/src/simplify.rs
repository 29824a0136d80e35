//! Constant folding and identity elimination.
//!
//! The generator's mutation operators routinely produce dead weight
//! (`x + 0`, `x * 1`, `if(1, a, b)`, fully-constant subtrees). Simplifying
//! keeps candidate programs small — which matters both for the size budget
//! of the checker and for the paper's interpretability argument (§6:
//! "LLMs can be tuned to produce simpler code").
//!
//! The rewrite is semantics-preserving with respect to [`crate::eval`](crate::eval()):
//! folding uses the interpreter's own saturating operations, and faulting
//! subexpressions (`1 / 0`) are left untouched rather than folded.
//!
//! Every rewrite removes nodes, so a pass in which none fires gives its
//! input back; such a pass builds nothing, and every `simplify` that
//! reaches its fixed point ends with one.

use crate::ast::{BinOp, Expr, ExprKind, ExprRef};
use crate::eval::{clamp, div_sat, rem_sat, shl_sat, shr_arith};

/// Simplify `e` bottom-up until a fixed point (at most a few passes).
pub fn simplify(e: &Expr) -> Expr {
    let mut cur = e.clone();
    for _ in 0..4 {
        match pass(cur.view()) {
            Some(next) => cur = next,
            None => break,
        }
    }
    cur
}

/// An operand after its own pass: the rewritten subtree, if a rule fired
/// in it, else the subtree as it was.
struct Operand<'a> {
    was: ExprRef<'a>,
    now: Option<Expr>,
}

impl<'a> Operand<'a> {
    fn of(e: ExprRef<'a>) -> Operand<'a> {
        Operand { was: e, now: pass(e) }
    }

    fn view(&self) -> ExprRef<'_> {
        self.now.as_ref().map_or(self.was, Expr::view)
    }

    fn into_expr(self) -> Expr {
        self.now.unwrap_or_else(|| self.was.to_expr())
    }
}

/// The node `node` builds over `operands` if any of them changed; `None`
/// if none did, and the node stays as it was.
fn rebuilt<const N: usize>(
    operands: [Operand<'_>; N],
    node: impl FnOnce([Expr; N]) -> Expr,
) -> Option<Expr> {
    operands.iter().any(|o| o.now.is_some()).then(|| node(operands.map(Operand::into_expr)))
}

/// One bottom-up pass over `e`; `None` when no rule fires anywhere in it.
fn pass(e: ExprRef<'_>) -> Option<Expr> {
    match e.kind() {
        ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Feat(_) => None,
        ExprKind::Neg(a) => {
            let a = Operand::of(a);
            match a.view().kind() {
                ExprKind::Int(v) => Some(Expr::int(v.saturating_neg())),
                ExprKind::Neg(inner) => Some(inner.to_expr()),
                _ => rebuilt([a], |[a]| -a),
            }
        }
        ExprKind::Not(a) => {
            let a = Operand::of(a);
            match a.view().kind() {
                ExprKind::Int(v) => Some(Expr::int((v == 0) as i64)),
                ExprKind::Not(inner) if is_boolean(inner) => Some(inner.to_expr()),
                _ => rebuilt([a], |[a]| !a),
            }
        }
        ExprKind::Abs(a) => {
            let a = Operand::of(a);
            match a.view().kind() {
                ExprKind::Int(v) => Some(Expr::int(v.saturating_abs())),
                ExprKind::Abs(_) => Some(a.into_expr()),
                _ => rebuilt([a], |[a]| Expr::abs(a)),
            }
        }
        ExprKind::Bin(op, a, b) => fold_bin(op, Operand::of(a), Operand::of(b)),
        ExprKind::Cmp(op, a, b) => {
            let (a, b) = (Operand::of(a), Operand::of(b));
            if let (ExprKind::Int(x), ExprKind::Int(y)) = (a.view().kind(), b.view().kind()) {
                return Some(Expr::int(op.apply(x, y)));
            }
            rebuilt([a, b], |[a, b]| Expr::cmp(op, a, b))
        }
        ExprKind::If(c, t, f) => {
            let (c, t, f) = (Operand::of(c), Operand::of(t), Operand::of(f));
            match c.view().kind() {
                ExprKind::Int(v) => Some(if v != 0 { t.into_expr() } else { f.into_expr() }),
                // Pruning identical branches drops the evaluation of `c`,
                // which is only legal if `c` cannot fault.
                _ if t.view() == f.view() && !c.view().contains_div() => Some(t.into_expr()),
                _ => rebuilt([c, t, f], |[c, t, f]| Expr::ite(c, t, f)),
            }
        }
        ExprKind::Clamp(x, lo, hi) => {
            let (x, lo, hi) = (Operand::of(x), Operand::of(lo), Operand::of(hi));
            if let (ExprKind::Int(a), ExprKind::Int(l), ExprKind::Int(h)) =
                (x.view().kind(), lo.view().kind(), hi.view().kind())
            {
                return Some(Expr::int(clamp(a, l, h)));
            }
            rebuilt([x, lo, hi], |[x, lo, hi]| Expr::clamp(x, lo, hi))
        }
    }
}

/// Is the expression guaranteed to evaluate to 0 or 1?
fn is_boolean(e: ExprRef<'_>) -> bool {
    matches!(
        e.kind(),
        ExprKind::Cmp(..)
            | ExprKind::Not(_)
            | ExprKind::Bin(BinOp::And | BinOp::Or, ..)
            | ExprKind::Int(0 | 1)
    )
}

fn fold_bin(op: BinOp, a: Operand<'_>, b: Operand<'_>) -> Option<Expr> {
    use BinOp::*;
    // Full constant folding (guarding faults).
    if let (ExprKind::Int(x), ExprKind::Int(y)) = (a.view().kind(), b.view().kind()) {
        let folded = match op {
            Add => Some(x.saturating_add(y)),
            Sub => Some(x.saturating_sub(y)),
            Mul => Some(x.saturating_mul(y)),
            Div if y != 0 => Some(div_sat(x, y)),
            Rem if y != 0 => Some(rem_sat(x, y)),
            Min => Some(x.min(y)),
            Max => Some(x.max(y)),
            And => Some(((x != 0) && (y != 0)) as i64),
            Or => Some(((x != 0) || (y != 0)) as i64),
            Shl => Some(shl_sat(x, y)),
            Shr => Some(shr_arith(x, y)),
            _ => None,
        };
        if let Some(v) = folded {
            return Some(Expr::int(v));
        }
    }
    // Identities. Only fault-free rewrites: dropping a subtree is legal
    // because subtrees cannot fault unless they contain `/`/`%`, which we
    // conservatively keep.
    match (op, a.view().kind(), b.view().kind()) {
        (Add, ExprKind::Int(0), _) => Some(b.into_expr()),
        (Add, _, ExprKind::Int(0)) => Some(a.into_expr()),
        (Sub, _, ExprKind::Int(0)) => Some(a.into_expr()),
        (Mul, _, ExprKind::Int(1)) => Some(a.into_expr()),
        (Mul, ExprKind::Int(1), _) => Some(b.into_expr()),
        (Mul, ExprKind::Int(0), _) if !b.view().contains_div() => Some(Expr::int(0)),
        (Mul, _, ExprKind::Int(0)) if !a.view().contains_div() => Some(Expr::int(0)),
        (Div, _, ExprKind::Int(1)) => Some(a.into_expr()),
        (Shl | Shr, _, ExprKind::Int(0)) => Some(a.into_expr()),
        (Min | Max, ..) if a.view() == b.view() => Some(a.into_expr()),
        _ => rebuilt([a, b], |[a, b]| Expr::bin(op, a, b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MapEnv;
    use crate::eval::eval;
    use crate::feature::Feature;
    use crate::parser::parse;
    use crate::printer::to_source;

    fn simp(src: &str) -> String {
        to_source(&simplify(&parse(src).unwrap()))
    }

    #[test]
    fn constant_folding() {
        assert_eq!(simp("1 + 2 * 3"), "7");
        assert_eq!(simp("min(3, max(1, 2))"), "2");
        assert_eq!(simp("clamp(50, 0, 10)"), "10");
        assert_eq!(simp("4 < 5"), "1");
        assert_eq!(simp("1 && 0"), "0");
        assert_eq!(simp("3 << 2"), "12");
    }

    #[test]
    fn identities() {
        assert_eq!(simp("obj.count + 0"), "obj.count");
        assert_eq!(simp("0 + obj.count"), "obj.count");
        assert_eq!(simp("obj.count * 1"), "obj.count");
        assert_eq!(simp("obj.count - 0"), "obj.count");
        assert_eq!(simp("obj.count / 1"), "obj.count");
        assert_eq!(simp("obj.count * 0"), "0");
        assert_eq!(simp("min(obj.age, obj.age)"), "obj.age");
    }

    #[test]
    fn branch_pruning() {
        assert_eq!(simp("if(1, obj.count, obj.size)"), "obj.count");
        assert_eq!(simp("if(0, obj.count, obj.size)"), "obj.size");
        assert_eq!(simp("if(obj.count, obj.size, obj.size)"), "obj.size");
        assert_eq!(simp("5 > 3 ? obj.age : now"), "obj.age");
    }

    #[test]
    fn faults_not_folded_away() {
        // 1/0 must stay a fault, not become a constant or vanish.
        assert_eq!(simp("1 / 0"), "1 / 0");
        assert_eq!(simp("(1 / 0) * 0"), "1 / 0 * 0");
        assert!(eval(&simplify(&parse("(1 / 0) * 0").unwrap()), &MapEnv::new()).is_err());
    }

    #[test]
    fn double_negation() {
        assert_eq!(simp("--obj.count"), "obj.count");
        assert_eq!(simp("!!(obj.count > 1)"), "obj.count > 1");
        // !! of a non-boolean is NOT the identity (it booleanizes)
        assert_eq!(simp("!!obj.count"), "!!obj.count");
    }

    #[test]
    fn semantics_preserved_on_features() {
        let srcs = [
            "obj.count * 20 - obj.age / 300 + 0 * obj.size",
            "if(1 && 1, obj.count, 1 / 0)",
            "clamp(obj.size, 1 + 1, 100 - 10)",
        ];
        let env = MapEnv::new()
            .with(Feature::ObjCount, 7)
            .with(Feature::ObjAge, 900)
            .with(Feature::ObjSize, 64);
        for src in srcs {
            let e = parse(src).unwrap();
            let s = simplify(&e);
            assert_eq!(eval(&e, &env), eval(&s, &env), "{src}");
            assert!(s.size() <= e.size(), "{src}");
        }
    }
}
