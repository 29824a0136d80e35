//! Property-based tests on the core DSL invariants:
//!
//! 1. **Round-trip:** printing then reparsing any tree preserves semantics
//!    (structurally identical for parser-canonical trees).
//! 2. **Simplify soundness:** `simplify` preserves `eval` results exactly,
//!    including the faulting behaviour of division by zero.
//! 3. **Simplify progress:** the simplified tree is never larger.
//! 4. **Checker/catalog agreement:** any tree built from a mode's catalog
//!    features (and no floats) passes that mode's feature checks.

use policysmith_dsl::env::MapEnv;
use policysmith_dsl::{
    check_with_warnings, eval, parse, simplify, to_source, BinOp, CmpOp, Expr, Feature, Mode,
};
use proptest::prelude::*;

/// Features used in the random-tree generators (one per table of Table 1
/// plus the shared clock).
fn cache_features() -> Vec<Feature> {
    vec![
        Feature::Now,
        Feature::ObjCount,
        Feature::ObjLastAccess,
        Feature::ObjSize,
        Feature::ObjAge,
        Feature::AgesPct(75),
        Feature::SizesPct(50),
        Feature::CountsPct(90),
        Feature::HistContains,
        Feature::HistCount,
        Feature::CacheObjects,
    ]
}

fn kernel_features() -> Vec<Feature> {
    vec![
        Feature::Now,
        Feature::Cwnd,
        Feature::PrevCwnd,
        Feature::MinRttUs,
        Feature::SrttUs,
        Feature::InflightPkts,
        Feature::Mss,
        Feature::LossEvent,
        Feature::HistRtt(0),
        Feature::HistRtt(9),
        Feature::HistQdelay(3),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    proptest::sample::select(BinOp::ALL.to_vec())
}

fn arb_cmpop() -> impl Strategy<Value = CmpOp> {
    proptest::sample::select(CmpOp::ALL.to_vec())
}

/// Random expression over the given feature set. No floats: those are the
/// fault-injection path, exercised separately in unit tests.
fn arb_expr(features: Vec<Feature>) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(Expr::int),
        proptest::sample::select(features).prop_map(Expr::feat),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
            (arb_cmpop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::cmp(op, a, b)),
            inner.clone().prop_map(|a| -a),
            inner.clone().prop_map(|a| !a),
            inner.clone().prop_map(Expr::abs),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| Expr::ite(a, b, c)),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::clamp(a, b, c)),
        ]
    })
}

/// Random environment assigning in-range values to every feature the tests
/// use (both modes).
fn arb_env() -> impl Strategy<Value = MapEnv> {
    let mut all = cache_features();
    all.extend(kernel_features());
    let ranges: Vec<_> = all
        .iter()
        .map(|f| {
            let (lo, hi) = f.range();
            // keep magnitudes small enough to exercise arithmetic, large
            // enough to hit saturation paths occasionally
            (lo.max(-1_000_000), hi.min(1_000_000))
        })
        .collect();
    let values: Vec<_> = ranges.into_iter().map(|(lo, hi)| lo..=hi).collect();
    values.prop_map(move |vs| {
        let mut env = MapEnv::new();
        for (f, v) in all.iter().zip(vs) {
            env.set(*f, v);
        }
        env
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_parse_roundtrip_semantics(e in arb_expr(cache_features()), env in arb_env()) {
        let printed = to_source(&e);
        let reparsed = parse(&printed)
            .unwrap_or_else(|err| panic!("reparse failed on `{printed}`: {err}"));
        prop_assert_eq!(eval(&e, &env), eval(&reparsed, &env), "printed=`{}`", printed);
    }

    #[test]
    fn parser_canonical_roundtrip_structural(e in arb_expr(kernel_features())) {
        // Once a tree has been through the parser it is canonical: a second
        // print/parse round-trip must be the identity.
        let canonical = parse(&to_source(&e)).unwrap();
        let again = parse(&to_source(&canonical)).unwrap();
        prop_assert_eq!(canonical, again);
    }

    #[test]
    fn simplify_preserves_eval(e in arb_expr(cache_features()), env in arb_env()) {
        let s = simplify(&e);
        prop_assert_eq!(eval(&e, &env), eval(&s, &env),
            "original=`{}` simplified=`{}`", to_source(&e), to_source(&s));
    }

    #[test]
    fn simplify_never_grows(e in arb_expr(cache_features())) {
        prop_assert!(simplify(&e).size() <= e.size());
    }

    #[test]
    fn catalog_trees_pass_mode_check(e in arb_expr(cache_features())) {
        let r = check_with_warnings(&e, Mode::Cache, usize::MAX, usize::MAX);
        prop_assert!(r.ok(), "{:?}", r.errors);
    }

    #[test]
    fn kernel_trees_pass_kernel_check(e in arb_expr(kernel_features())) {
        let r = check_with_warnings(&e, Mode::Kernel, usize::MAX, usize::MAX);
        prop_assert!(r.ok(), "{:?}", r.errors);
    }

    #[test]
    fn eval_is_deterministic(e in arb_expr(cache_features()), env in arb_env()) {
        prop_assert_eq!(eval(&e, &env), eval(&e, &env));
    }

    #[test]
    fn every_subtree_can_be_read_and_replaced(
        e in arb_expr(cache_features()),
        donor in arb_expr(cache_features()),
    ) {
        for i in 0..e.size() {
            let sub = e.get_subexpr(i).unwrap();
            let grafted = e.replace_subexpr(i, &donor);
            prop_assert_eq!(grafted.size(), e.size() - sub.size() + donor.size());
            prop_assert_eq!(grafted.get_subexpr(i).map(|s| s.to_expr()), Some(donor.clone()));
            // putting the old subtree back restores the tree
            prop_assert_eq!(grafted.replace_subexpr(i, &sub.to_expr()), e.clone());
        }
        prop_assert!(e.get_subexpr(e.size()).is_none());
    }
}
