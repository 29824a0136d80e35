//! Golden parse outcomes. `dsl::parse` is the front gate every generated
//! candidate goes through, and ROADMAP 1(c) treats what it reads as hostile
//! bytes. `tests/golden/parse_outcomes.txt` has one row per source of the
//! shared front-door corpus (`tests/corpus`) — the source's FNV-1a hash,
//! then `to_source` of the parsed tree or the `ParseError`'s `Debug`.
//!
//! It was captured at the commit before the lexer and parser stopped
//! allocating per token. Besides the rows, no source may make `parse` panic,
//! and every accepted tree must come back from `parse(to_source(e))`
//! unchanged.
//!
//! To re-capture after an *intended* change of outcomes, run the test and
//! copy the file it names in the failure message over the golden.

mod corpus;

use policysmith::dsl::{parse, to_source};
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};

const GOLDEN: &str = include_str!("golden/parse_outcomes.txt");

/// One golden row. Panics name the source when `parse` panics or an
/// accepted tree does not survive printing and reparsing.
fn outcome(src: &str) -> String {
    let parsed = catch_unwind(AssertUnwindSafe(|| parse(src)))
        .unwrap_or_else(|_| panic!("parse panicked on {src:?}"));
    let text = match parsed {
        Ok(e) => {
            let printed = to_source(&e);
            assert_eq!(parse(&printed).as_ref(), Ok(&e), "{src:?} printed as {printed:?}");
            printed
        }
        Err(err) => format!("{err:?}"),
    };
    format!("{:016x} {text}", corpus::fnv1a(src.as_bytes()))
}

#[test]
fn parse_outcomes_match_the_golden() {
    let sources = corpus::sources();
    let mut actual = String::new();
    for src in &sources {
        writeln!(actual, "{}", outcome(src)).unwrap();
    }
    corpus::assert_matches_golden("parse_outcomes", GOLDEN, &actual, &sources);
}
