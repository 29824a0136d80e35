//! Tree-walking interpreter with totalized `i64` semantics.
//!
//! These semantics are the *specification* for the language: the kbpf
//! compiler + VM must agree with this interpreter bit-for-bit on every
//! verified program (a property-tested invariant in `policysmith-kbpf`).
//!
//! * `+`, `-`, `*`, `neg`, `abs` **saturate** at the `i64` boundaries.
//! * `/`, `%` return [`EvalError::DivByZero`] on a zero divisor;
//!   `i64::MIN / -1` (and the corresponding `%`) saturate instead of
//!   trapping.
//! * `<<` saturates via 128-bit intermediates; both shifts clamp their
//!   amount into `[0, 63]` (negative amounts shift by 0).
//! * Comparisons and logic produce `0`/`1`; `&&`/`||` short-circuit.
//! * `clamp(x, lo, hi)` is `max(lo, min(x, hi))` — well-defined even when
//!   `lo > hi` (then it returns `lo`).
//! * Evaluating a float literal is unreachable for checked programs; the
//!   interpreter truncates it (documented, deterministic) so that even
//!   unchecked candidates cannot crash the host.

use crate::ast::{BinOp, Expr, ExprKind, ExprRef};
use crate::env::FeatureEnv;
use crate::error::EvalError;

/// Evaluate `e` against `env`.
pub fn eval(e: &Expr, env: &impl FeatureEnv) -> Result<i64, EvalError> {
    go(e.view(), env)
}

fn go(e: ExprRef<'_>, env: &impl FeatureEnv) -> Result<i64, EvalError> {
    match e.kind() {
        ExprKind::Int(v) => Ok(v),
        ExprKind::Float(v) => Ok(v as i64),
        ExprKind::Feat(f) => Ok(env.feature(f)),
        ExprKind::Neg(a) => Ok(go(a, env)?.saturating_neg()),
        ExprKind::Not(a) => Ok((go(a, env)? == 0) as i64),
        ExprKind::Abs(a) => Ok(go(a, env)?.saturating_abs()),
        ExprKind::Bin(op, a, b) => bin(op, a, b, env),
        ExprKind::Cmp(op, a, b) => Ok(op.apply(go(a, env)?, go(b, env)?)),
        ExprKind::If(c, t, f) => {
            if go(c, env)? != 0 {
                go(t, env)
            } else {
                go(f, env)
            }
        }
        ExprKind::Clamp(x, lo, hi) => {
            let x = go(x, env)?;
            let lo = go(lo, env)?;
            let hi = go(hi, env)?;
            Ok(clamp(x, lo, hi))
        }
    }
}

/// `max(lo, min(x, hi))` — the language's clamp semantics.
pub fn clamp(x: i64, lo: i64, hi: i64) -> i64 {
    lo.max(x.min(hi))
}

/// Saturating left shift with the amount clamped to `[0, 63]`.
pub fn shl_sat(a: i64, amt: i64) -> i64 {
    let amt = amt.clamp(0, 63) as u32;
    let wide = (a as i128) << amt;
    if wide > i64::MAX as i128 {
        i64::MAX
    } else if wide < i64::MIN as i128 {
        i64::MIN
    } else {
        wide as i64
    }
}

/// Arithmetic right shift with the amount clamped to `[0, 63]`.
pub fn shr_arith(a: i64, amt: i64) -> i64 {
    a >> amt.clamp(0, 63) as u32
}

/// Saturating division; caller has excluded a zero divisor.
pub fn div_sat(a: i64, b: i64) -> i64 {
    if a == i64::MIN && b == -1 {
        i64::MAX
    } else {
        a / b
    }
}

/// Saturating remainder; caller has excluded a zero divisor.
pub fn rem_sat(a: i64, b: i64) -> i64 {
    if a == i64::MIN && b == -1 {
        0
    } else {
        a % b
    }
}

fn bin(op: BinOp, a: ExprRef<'_>, b: ExprRef<'_>, env: &impl FeatureEnv) -> Result<i64, EvalError> {
    // Short-circuit logic first.
    match op {
        BinOp::And => {
            return Ok(if go(a, env)? == 0 { 0 } else { (go(b, env)? != 0) as i64 });
        }
        BinOp::Or => {
            return Ok(if go(a, env)? != 0 { 1 } else { (go(b, env)? != 0) as i64 });
        }
        _ => {}
    }
    let x = go(a, env)?;
    let y = go(b, env)?;
    Ok(match op {
        BinOp::Add => x.saturating_add(y),
        BinOp::Sub => x.saturating_sub(y),
        BinOp::Mul => x.saturating_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(EvalError::DivByZero);
            }
            div_sat(x, y)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err(EvalError::DivByZero);
            }
            rem_sat(x, y)
        }
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        BinOp::Shl => shl_sat(x, y),
        BinOp::Shr => shr_arith(x, y),
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MapEnv;
    use crate::feature::Feature;
    use crate::parser::parse;

    fn run(src: &str) -> Result<i64, EvalError> {
        eval(&parse(src).unwrap(), &MapEnv::new())
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("1 + 2 * 3").unwrap(), 7);
        assert_eq!(run("10 / 3").unwrap(), 3);
        assert_eq!(run("-10 / 3").unwrap(), -3); // truncating like C
        assert_eq!(run("10 % 3").unwrap(), 1);
        assert_eq!(run("-10 % 3").unwrap(), -1);
    }

    #[test]
    fn saturation() {
        assert_eq!(run("9223372036854775807 + 1").unwrap(), i64::MAX);
        assert_eq!(run("-9223372036854775807 - 2").unwrap(), i64::MIN);
        assert_eq!(run("9223372036854775807 * 2").unwrap(), i64::MAX);
        assert_eq!(eval(&-Expr::int(i64::MIN), &MapEnv::new()).unwrap(), i64::MAX);
        assert_eq!(eval(&Expr::abs(Expr::int(i64::MIN)), &MapEnv::new()).unwrap(), i64::MAX);
    }

    #[test]
    fn min_div_minus_one_saturates() {
        let e = Expr::bin(BinOp::Div, Expr::int(i64::MIN), Expr::int(-1));
        assert_eq!(eval(&e, &MapEnv::new()).unwrap(), i64::MAX);
        let e = Expr::bin(BinOp::Rem, Expr::int(i64::MIN), Expr::int(-1));
        assert_eq!(eval(&e, &MapEnv::new()).unwrap(), 0);
    }

    #[test]
    fn div_by_zero_faults() {
        assert_eq!(run("1 / 0"), Err(EvalError::DivByZero));
        assert_eq!(run("1 % 0"), Err(EvalError::DivByZero));
        // ... but only if reached
        assert_eq!(run("if(0, 1 / 0, 5)").unwrap(), 5);
        assert_eq!(run("0 && 1 / 0").unwrap(), 0);
        assert_eq!(run("1 || 1 / 0").unwrap(), 1);
    }

    #[test]
    fn shifts() {
        assert_eq!(run("1 << 4").unwrap(), 16);
        assert_eq!(run("256 >> 4").unwrap(), 16);
        assert_eq!(run("-16 >> 2").unwrap(), -4); // arithmetic
        assert_eq!(run("1 << 100").unwrap(), i64::MIN.saturating_abs()); // clamped to 63 then saturates
        assert_eq!(run("1 << 63").unwrap(), i64::MAX); // saturating, not wrapping
        assert_eq!(run("4 << -5").unwrap(), 4); // negative amount = no shift
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(run("3 < 4").unwrap(), 1);
        assert_eq!(run("(3 < 4) + (4 <= 4) + (5 > 4) + (4 >= 5)").unwrap(), 3);
        assert_eq!(run("!5").unwrap(), 0);
        assert_eq!(run("!0").unwrap(), 1);
        assert_eq!(run("2 && 3").unwrap(), 1);
        assert_eq!(run("0 || 7").unwrap(), 1);
        assert_eq!(run("0 || 0").unwrap(), 0);
    }

    #[test]
    fn ternary_and_clamp() {
        assert_eq!(run("5 > 3 ? 10 : 20").unwrap(), 10);
        assert_eq!(run("clamp(15, 0, 10)").unwrap(), 10);
        assert_eq!(run("clamp(-5, 0, 10)").unwrap(), 0);
        assert_eq!(run("clamp(5, 0, 10)").unwrap(), 5);
        // inverted bounds: lo wins
        assert_eq!(run("clamp(5, 10, 0)").unwrap(), 10);
    }

    #[test]
    fn features_read_from_env() {
        let env = MapEnv::new()
            .with(Feature::ObjCount, 7)
            .with(Feature::ObjSize, 100)
            .with(Feature::SizesPct(75), 80);
        let e = parse("if(obj.size > sizes.p75, -25, 10) + obj.count").unwrap();
        assert_eq!(eval(&e, &env).unwrap(), -25 + 7);
    }

    #[test]
    fn float_truncates_when_forced() {
        // Unchecked candidates must still be safe to run.
        assert_eq!(run("3.9").unwrap(), 3);
    }
}
