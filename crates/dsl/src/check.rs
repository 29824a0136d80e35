//! The static checker — the `Checker` role of the PolicySmith framework
//! (§3 of the paper) at the DSL level.
//!
//! Errors are violations of the template's "design spec": floats, features
//! outside the template's mode, out-of-range feature parameters, and
//! size/depth budgets. For kernel candidates the kbpf verifier adds a
//! second, independent layer (interval analysis) on the lowered bytecode —
//! mirroring how the paper relies on the eBPF verifier (§5.0.2).
//!
//! Additionally the checker emits **warnings** for divisions whose divisor
//! is not *syntactically* guarded (literal nonzero, `max(e, k)` with `k>0`,
//! or a feature whose declared range excludes zero). Warnings do not fail a
//! candidate in cache mode (a faulting division is a runtime failure there),
//! but the generator uses them to learn the `x / max(y, 1)` idiom the paper
//! describes kernel developers (and the verifier) forcing upon it.

use crate::ast::{BinOp, Expr, ExprKind, ExprRef};
use crate::error::CheckError;
use crate::feature::Mode;

/// Default node-count budget for a candidate expression.
pub const DEFAULT_MAX_SIZE: usize = 512;
/// Default depth budget for a candidate expression.
pub const DEFAULT_MAX_DEPTH: usize = 32;

/// A non-fatal diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Warning {
    /// A `/` or `%` whose divisor may be zero at runtime.
    DivisorMayBeZero {
        /// Pre-order index of the division node (for targeted repair).
        node_idx: usize,
    },
}

impl std::fmt::Display for Warning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Warning::DivisorMayBeZero { node_idx } => {
                write!(f, "warning: divisor may be zero (node {node_idx}); guard with max(.., 1)")
            }
        }
    }
}

/// Result of a full check: errors are fatal, warnings advisory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    pub errors: Vec<CheckError>,
    pub warnings: Vec<Warning>,
}

impl CheckReport {
    /// Did the candidate pass (no fatal errors)?
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Render all diagnostics as a compiler-style stderr blob for the
    /// generator feedback loop.
    pub fn stderr(&self) -> String {
        let mut out = String::new();
        for e in &self.errors {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        for w in &self.warnings {
            out.push_str(&w.to_string());
            out.push('\n');
        }
        out
    }
}

/// Check `e` against template `mode` with default budgets; `Err` on the
/// first fatal error. Convenience wrapper over [`check_with_warnings`].
pub fn check(e: &Expr, mode: Mode) -> Result<(), CheckError> {
    let report = check_with_warnings(e, mode, DEFAULT_MAX_SIZE, DEFAULT_MAX_DEPTH);
    match report.errors.into_iter().next() {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

/// Full check with explicit budgets, collecting *all* errors and warnings
/// (the generator repairs one fault class at a time, so it wants the
/// complete list, like a real compiler's stderr).
///
/// One loop over the tree's nodes finds the size, the depth and every
/// per-node fault, however deep the tree is (only [`divisor_nonzero`]
/// recurses, into a division's divisor); the budget errors (`TooLarge`,
/// then `TooDeep`) come first, the rest in pre-order.
pub fn check_with_warnings(e: &Expr, mode: Mode, max_size: usize, max_depth: usize) -> CheckReport {
    let mut report = CheckReport::default();
    let mut divisions = Vec::new();
    let mut depth = 0;
    // Backwards through the postorder subtrees, every node comes after its
    // ancestors. `open` holds where each ancestor's subtree starts: a node
    // has one ancestor per start at or before it, and its pre-order index
    // is its own subtree's start plus that many. A tree within the default
    // depth budget never grows it.
    let mut open: Vec<usize> = Vec::with_capacity(DEFAULT_MAX_DEPTH);
    for (end, sub) in e.view().subtrees().enumerate().rev() {
        while open.last().is_some_and(|&start| start > end) {
            open.pop();
        }
        depth = depth.max(open.len() + 1);
        let start = end + 1 - sub.size();
        match sub.kind() {
            ExprKind::Float(value) => report.errors.push(CheckError::FloatLiteral { value }),
            ExprKind::Feat(feature) => {
                if !feature.param_in_range() {
                    report.errors.push(CheckError::FeatureParamOutOfRange { feature });
                } else if !feature.available_in(mode) {
                    report.errors.push(CheckError::FeatureUnavailable { feature, mode });
                }
            }
            ExprKind::Bin(BinOp::Div | BinOp::Rem, _, divisor) if !divisor_nonzero(divisor) => {
                divisions.push(start + open.len());
            }
            _ => {}
        }
        if sub.size() > 1 {
            open.push(start);
        }
    }
    // only leaves have errors, met in reverse pre-order
    report.errors.reverse();
    divisions.sort_unstable();
    report.warnings =
        divisions.into_iter().map(|node_idx| Warning::DivisorMayBeZero { node_idx }).collect();
    let size = e.size();
    let budgets = [
        (size > max_size).then_some(CheckError::TooLarge { size, limit: max_size }),
        (depth > max_depth).then_some(CheckError::TooDeep { depth, limit: max_depth }),
    ];
    report.errors.splice(0..0, budgets.into_iter().flatten());
    report
}

/// Syntactic proof that an expression can never evaluate to zero.
///
/// Deliberately conservative — the same *shape* of reasoning the eBPF
/// verifier applies, reimplemented precisely (with intervals) in
/// `policysmith-kbpf`. Recognized shapes:
///
/// * nonzero integer literals,
/// * features whose declared range excludes 0 (`mss`, `obj.size`, …),
/// * `max(a, b)` where either bound is provably positive,
/// * `min(a, b)` where both are provably negative,
/// * `a + k` / `k + a` where `k > 0` and `a` is provably nonnegative,
/// * `clamp(x, lo, hi)` where `lo` is provably positive,
/// * `abs(x) + k`, `k > 0`,
/// * `1 << n` shapes (shl of a positive literal saturates, never zero).
pub fn divisor_nonzero(e: ExprRef<'_>) -> bool {
    provably_positive(e) || provably_negative(e) || matches!(e.kind(), ExprKind::Int(v) if v != 0)
}

fn provably_positive(e: ExprRef<'_>) -> bool {
    match e.kind() {
        ExprKind::Int(v) => v > 0,
        ExprKind::Feat(f) => f.range().0 > 0,
        ExprKind::Bin(BinOp::Max, a, b) => provably_positive(a) || provably_positive(b),
        ExprKind::Bin(BinOp::Min, a, b) => provably_positive(a) && provably_positive(b),
        ExprKind::Bin(BinOp::Add, a, b) => {
            (provably_positive(a) && provably_nonneg(b))
                || (provably_nonneg(a) && provably_positive(b))
        }
        ExprKind::Bin(BinOp::Mul, a, b) => provably_positive(a) && provably_positive(b),
        ExprKind::Bin(BinOp::Shl, a, b) => provably_positive(a) && provably_nonneg(b),
        ExprKind::Clamp(_, lo, _) => provably_positive(lo),
        ExprKind::Abs(_) => false, // abs(0) == 0
        _ => false,
    }
}

fn provably_negative(e: ExprRef<'_>) -> bool {
    match e.kind() {
        ExprKind::Int(v) => v < 0,
        ExprKind::Neg(a) => provably_positive(a),
        ExprKind::Bin(BinOp::Min, a, b) => provably_negative(a) || provably_negative(b),
        ExprKind::Bin(BinOp::Max, a, b) => provably_negative(a) && provably_negative(b),
        _ => false,
    }
}

fn provably_nonneg(e: ExprRef<'_>) -> bool {
    match e.kind() {
        ExprKind::Int(v) => v >= 0,
        ExprKind::Feat(f) => f.range().0 >= 0,
        ExprKind::Abs(_) => true,
        ExprKind::Cmp(..) | ExprKind::Not(_) => true, // 0/1
        ExprKind::Bin(BinOp::And | BinOp::Or, ..) => true, // 0/1
        ExprKind::Bin(BinOp::Add | BinOp::Mul, a, b) => provably_nonneg(a) && provably_nonneg(b),
        ExprKind::Bin(BinOp::Max, a, b) => provably_nonneg(a) || provably_nonneg(b),
        ExprKind::Bin(BinOp::Min, a, b) => provably_nonneg(a) && provably_nonneg(b),
        ExprKind::Clamp(_, lo, _) => provably_nonneg(lo),
        _ => provably_positive(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Feature;
    use crate::parser::parse;

    fn report(src: &str, mode: Mode) -> CheckReport {
        check_with_warnings(&parse(src).unwrap(), mode, DEFAULT_MAX_SIZE, DEFAULT_MAX_DEPTH)
    }

    #[test]
    fn valid_cache_heuristic_passes() {
        let r = report("obj.count * 20 - obj.age / 300", Mode::Cache);
        assert!(r.ok());
        assert!(r.warnings.is_empty()); // divisor is a nonzero literal
    }

    #[test]
    fn float_rejected() {
        let r = report("obj.count * 1.5", Mode::Cache);
        assert_eq!(r.errors, vec![CheckError::FloatLiteral { value: 1.5 }]);
    }

    #[test]
    fn cross_mode_feature_rejected() {
        let r = report("cwnd + 1", Mode::Cache);
        assert!(matches!(r.errors[0], CheckError::FeatureUnavailable { .. }));
        let r = report("obj.count + 1", Mode::Kernel);
        assert!(matches!(r.errors[0], CheckError::FeatureUnavailable { .. }));
        // `now` is legal in both
        assert!(report("now", Mode::Cache).ok());
        assert!(report("now", Mode::Kernel).ok());
    }

    #[test]
    fn lb_mode_checks_availability_and_divisors() {
        // the full Lb catalog is legal in Lb mode
        let r = report(
            "server.queue_len * 100 / server.speed + server.inflight * req.size \
             + server.ewma_latency / 1000 + now % 7",
            Mode::Lb,
        );
        assert!(r.ok(), "{:?}", r.errors);
        assert!(r.warnings.is_empty(), "speed >= 1 and literals are clean divisors");
        // cross-mode features rejected in all directions
        assert!(!report("obj.count", Mode::Lb).ok());
        assert!(!report("cwnd", Mode::Lb).ok());
        assert!(!report("server.queue_len", Mode::Cache).ok());
        assert!(!report("req.size", Mode::Kernel).ok());
        // possibly-zero lb divisors warn
        let r = report("req.size / server.queue_len", Mode::Lb);
        assert!(r.ok());
        assert_eq!(r.warnings.len(), 1);
        let r = report("req.size / max(server.inflight, 1)", Mode::Lb);
        assert!(r.warnings.is_empty());
    }

    #[test]
    fn unguarded_division_warns() {
        let r = report("cwnd / inflight", Mode::Kernel); // inflight can be 0
        assert!(r.ok());
        assert_eq!(r.warnings.len(), 1);
        let r = report("cwnd / max(inflight, 1)", Mode::Kernel);
        assert!(r.warnings.is_empty());
        let r = report("cwnd / mss", Mode::Kernel); // mss >= 1
        assert!(r.warnings.is_empty());
        let r = report("cwnd / min_rtt", Mode::Kernel); // min_rtt >= 1
        assert!(r.warnings.is_empty());
    }

    #[test]
    fn guard_analysis_shapes() {
        let nonzero = |src| divisor_nonzero(parse(src).unwrap().view());
        assert!(nonzero("3"));
        assert!(nonzero("-3"));
        assert!(!nonzero("0"));
        assert!(nonzero("max(loss, 1)"));
        assert!(nonzero("1 + abs(cwnd - prev_cwnd)"));
        assert!(nonzero("clamp(srtt, 1, 1000)"));
        assert!(nonzero("mss * 2"));
        assert!(!nonzero("loss"));
        assert!(!nonzero("abs(loss)"));
        assert!(!nonzero("min(mss, loss)"));
    }

    #[test]
    fn size_budget_enforced() {
        let big = (0..300).map(|_| "1").collect::<Vec<_>>().join(" + ");
        let r = check_with_warnings(&parse(&big).unwrap(), Mode::Cache, 100, DEFAULT_MAX_DEPTH);
        assert!(matches!(r.errors[0], CheckError::TooLarge { .. }));
    }

    #[test]
    fn depth_budget_enforced() {
        let deep = format!("{}1{}", "abs(".repeat(25), ")".repeat(25));
        let r = check_with_warnings(&parse(&deep).unwrap(), Mode::Cache, DEFAULT_MAX_SIZE, 10);
        assert!(matches!(r.errors[0], CheckError::TooDeep { .. }));
    }

    #[test]
    fn budget_errors_come_first_then_nodes_in_pre_order() {
        let r = check_with_warnings(
            &parse("abs(cwnd / inflight + obj.count * 0.5) + abs(abs(1 % loss))").unwrap(),
            Mode::Kernel,
            4,
            3,
        );
        assert_eq!(
            r.errors,
            vec![
                CheckError::TooLarge { size: 14, limit: 4 },
                CheckError::TooDeep { depth: 5, limit: 3 },
                CheckError::FeatureUnavailable { feature: Feature::ObjCount, mode: Mode::Kernel },
                CheckError::FloatLiteral { value: 0.5 },
            ]
        );
        assert_eq!(
            r.warnings,
            vec![
                Warning::DivisorMayBeZero { node_idx: 3 },
                Warning::DivisorMayBeZero { node_idx: 11 }
            ]
        );
    }

    #[test]
    fn all_errors_collected() {
        let r = report("obj.count * 1.5 + cwnd / 0.25", Mode::Cache);
        // two floats and one cross-mode feature
        assert_eq!(r.errors.len(), 3);
    }

    #[test]
    fn stderr_renders() {
        let r = report("cwnd / inflight", Mode::Kernel);
        assert!(r.stderr().contains("warning: divisor may be zero"));
    }
}
