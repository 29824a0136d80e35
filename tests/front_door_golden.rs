//! Golden front-door outcomes beyond `parse`, over the same corpus as
//! `parse_golden` (`tests/corpus`): one row per source in each file.
//!
//! * `tests/golden/compile_verdicts.txt` — what `CompiledPolicy::from_source`
//!   says in each template mode: `stage:hash`, where the stage is `parse`,
//!   `check`, `lower`, `verify` or `ok`, and the hash is of the error's
//!   `Display` or, for an accepted source, of its layout features, bytecode
//!   and verification. A row is one such field when every mode agrees
//!   (always so for a parse error), else four, in `Mode::ALL` order. No
//!   source may make it panic, and every accepted source must be within
//!   `mode_budgets` and `MAX_INSNS`.
//! * `tests/golden/tree_ops.txt` — for every source that parses: `size`,
//!   `depth`, `contains_div` and `contains_float`, then hashes of
//!   `features()` in order and of `to_source(simplify(e))`, then three
//!   seeded pre-order indices `i`, each with hashes of `to_source` of
//!   `get_subexpr(i)` and of `replace_subexpr(i, donor)`. The donor is the
//!   last parsed tree within the default check budgets. These are the calls
//!   the generator's mutation operators make. A source that does not parse
//!   has the row `-`.
//!
//! Hashes are FNV-1a folded to 32 bits. Both files were captured at the
//! commit before the DSL tree became one node buffer. To re-capture after
//! an *intended* change of outcomes, run the test and copy the file it
//! names in the failure message over the golden.

mod corpus;

use corpus::{hash32, Rng};
use policysmith::dsl::{parse, simplify, to_source, Expr, Mode};
use policysmith::kbpf::{mode_budgets, CompiledPolicy, MAX_INSNS};
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};

const VERDICTS: &str = include_str!("golden/compile_verdicts.txt");
const TREE_OPS: &str = include_str!("golden/tree_ops.txt");
const INDEX_SEED: u64 = 0x5eed_0028;

/// One mode's verdict on `src`.
fn verdict(src: &str, mode: Mode) -> String {
    let compiled = catch_unwind(AssertUnwindSafe(|| CompiledPolicy::from_source(src, mode)))
        .unwrap_or_else(|_| panic!("{mode:?}: from_source panicked on {src:?}"));
    match compiled {
        Err(err) => format!("{}:{}", err.stage(), hash32(&err.to_string())),
        Ok(p) => {
            let (max_size, max_depth) = mode_budgets(mode);
            let e = p.expr();
            assert!(
                e.size() <= max_size && e.depth() <= max_depth && p.program().len() <= MAX_INSNS,
                "{mode:?} accepted {src:?} over budget"
            );
            let artifact =
                format!("{:?}\n{}\n{:?}", p.layout().features(), p.program(), p.verification());
            format!("ok:{}", hash32(&artifact))
        }
    }
}

#[test]
fn compile_verdicts_match_the_golden() {
    let sources = corpus::sources();
    let mut actual = String::new();
    for src in &sources {
        let verdicts = Mode::ALL.map(|mode| verdict(src, mode));
        if verdicts.iter().all(|v| *v == verdicts[0]) {
            writeln!(actual, "{}", verdicts[0]).unwrap();
        } else {
            writeln!(actual, "{}", verdicts.join(" ")).unwrap();
        }
    }
    corpus::assert_matches_golden("compile_verdicts", VERDICTS, &actual, &sources);
}

/// One source's tree-operations row; `donor` is what `replace_subexpr`
/// grafts, and becomes this tree when it is within the check budgets.
fn tree_ops(src: &str, rng: &mut Rng, donor: &mut Expr) -> String {
    let Ok(e) = parse(src) else { return "-".to_string() };
    let features: Vec<String> = e.features().iter().map(|f| f.name()).collect();
    let mut row = format!(
        "{} {} {}{} {} {}",
        e.size(),
        e.depth(),
        u8::from(e.contains_div()),
        u8::from(e.contains_float()),
        hash32(&features.join(",")),
        hash32(&to_source(&simplify(&e))),
    );
    for _ in 0..3 {
        let i = rng.below(e.size());
        let sub = e.get_subexpr(i).expect("a pre-order index below size").to_expr();
        let sub = to_source(&sub);
        let replaced = to_source(&e.replace_subexpr(i, donor));
        write!(row, " {i}:{}:{}", hash32(&sub), hash32(&replaced)).unwrap();
    }
    if e.size() <= 512 && e.depth() <= 32 {
        *donor = e;
    }
    row
}

#[test]
fn tree_operations_match_the_golden() {
    let sources = corpus::sources();
    let mut rng = Rng(INDEX_SEED);
    let mut donor = parse("obj.count + 1").unwrap();
    let mut actual = String::new();
    for src in &sources {
        writeln!(actual, "{}", tree_ops(src, &mut rng, &mut donor)).unwrap();
    }
    corpus::assert_matches_golden("tree_ops", TREE_OPS, &actual, &sources);
}
