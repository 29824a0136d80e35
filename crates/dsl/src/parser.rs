//! Recursive-descent parser for heuristic source.
//!
//! Grammar (C-like precedence, lowest first):
//!
//! ```text
//! expr    := or ('?' expr ':' expr)?            // right-assoc ternary
//! or      := and ('||' and)*
//! and     := eq ('&&' eq)*
//! eq      := rel (('==' | '!=') rel)*
//! rel     := shift (('<' | '<=' | '>' | '>=') shift)*
//! shift   := add (('<<' | '>>') add)*
//! add     := mul (('+' | '-') mul)*
//! mul     := unary (('*' | '/' | '%') unary)*
//! unary   := ('-' | '!')* primary
//! primary := INT | FLOAT | '(' expr ')'
//!          | ('min'|'max'|'clamp'|'abs'|'if') '(' args ')'
//!          | path ('[' INT ']')?
//! path    := IDENT ('.' IDENT)*
//! ```
//!
//! Feature names resolve eagerly: `obj.count`, `ages.p75`, `hist_rtt[3]`, …
//! Unknown identifiers are parse errors (the "hallucinated API" fault class).
//!
//! The seven binary levels (`or` … `mul`) are one operator table and one
//! loop. What `parse` accepts is safe to walk recursively: nesting is
//! bounded by [`MAX_PARSE_DEPTH`] and the binary chains, which nest the
//! *tree* without nesting the parser, by a per-source link budget.

use crate::ast::{BinOp, Builder, CmpOp, Expr};
use crate::error::ParseError;
use crate::feature::Feature;
use crate::lexer::{lex, Token, TokenKind};

/// Maximum expression nesting the parser will accept. Protects against both
/// stack overflow and pathological generated candidates.
pub const MAX_PARSE_DEPTH: usize = 64;

/// Maximum binary-operator links (`a + b` is one) in one source. A
/// left-associative chain is built by a loop, so [`MAX_PARSE_DEPTH`] never
/// sees it, yet every link is one more level of tree for the recursive
/// walks — `to_source`, `simplify`, `eval`, the lowerer — and 40 000 of
/// them overflow a 2 MiB stack, which aborts the process. (Dropping a tree
/// does not recurse, and `check` loops over the tree's node buffer; only
/// its divisor analysis recurses, into a divisor.) Far above any compile
/// budget (≤ 512 nodes), so what this rejects `check` was going to reject.
const MAX_PARSE_LINKS: usize = 2_048;

/// Parse a complete heuristic expression. The whole input must be consumed.
///
/// Every `Ok(e)` has `e.depth() <= MAX_PARSE_DEPTH + 2_048`: each node on a
/// root-to-leaf path is either made by its own nested `expr`/`unary` call
/// or is one of the source's binary links, and both are budgeted.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    // every node but a folded `-literal`'s consumes a token of its own
    let tree = Builder::with_capacity(tokens.len());
    let mut p = Parser { src, tokens, i: 0, depth: 0, links: 0, tree };
    p.expr()?;
    if let Some(t) = p.peek() {
        return Err(p.unexpected(t, "end of input"));
    }
    Ok(p.tree.finish())
}

/// The parser borrows the source: tokens are spans into it, and only an
/// error or an out-of-range literal copies text out. Each rule appends its
/// subtree to `tree`, operands before their operator.
struct Parser<'s> {
    src: &'s str,
    tokens: Vec<Token>,
    i: usize,
    depth: usize,
    /// Binary links built so far, over the whole source.
    links: usize,
    tree: Builder,
}

/// The node a binary operator token builds.
enum Infix {
    Bin(BinOp),
    Cmp(CmpOp),
}

/// A binary operator token: its grammar level (1 = `or` … 7 = `mul`) and
/// its node.
fn infix(kind: TokenKind) -> Option<(u8, Infix)> {
    use Infix::{Bin, Cmp};
    Some(match kind {
        TokenKind::OrOr => (1, Bin(BinOp::Or)),
        TokenKind::AndAnd => (2, Bin(BinOp::And)),
        TokenKind::EqEq => (3, Cmp(CmpOp::Eq)),
        TokenKind::Ne => (3, Cmp(CmpOp::Ne)),
        TokenKind::Lt => (4, Cmp(CmpOp::Lt)),
        TokenKind::Le => (4, Cmp(CmpOp::Le)),
        TokenKind::Gt => (4, Cmp(CmpOp::Gt)),
        TokenKind::Ge => (4, Cmp(CmpOp::Ge)),
        TokenKind::Shl => (5, Bin(BinOp::Shl)),
        TokenKind::Shr => (5, Bin(BinOp::Shr)),
        TokenKind::Plus => (6, Bin(BinOp::Add)),
        TokenKind::Minus => (6, Bin(BinOp::Sub)),
        TokenKind::Star => (7, Bin(BinOp::Mul)),
        TokenKind::Slash => (7, Bin(BinOp::Div)),
        TokenKind::Percent => (7, Bin(BinOp::Rem)),
        _ => return None,
    })
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<Token> {
        self.tokens.get(self.i).copied()
    }

    fn peek_is(&self, kind: TokenKind) -> bool {
        self.peek().is_some_and(|t| t.kind == kind)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.peek();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        let hit = self.peek_is(kind);
        if hit {
            self.i += 1;
        }
        hit
    }

    fn text(&self, t: Token) -> &'s str {
        t.text(self.src)
    }

    fn unexpected(&self, t: Token, expected: &'static str) -> ParseError {
        ParseError::UnexpectedToken { pos: t.pos, found: self.text(t).to_string(), expected }
    }

    fn expect(&mut self, kind: TokenKind, what: &'static str) -> Result<Token, ParseError> {
        match self.bump() {
            Some(t) if t.kind == kind => Ok(t),
            Some(t) => Err(self.unexpected(t, what)),
            None => Err(ParseError::UnexpectedEof { expected: what }),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            let pos = self.peek().map(|t| t.pos).unwrap_or(0);
            return Err(ParseError::TooDeep { pos });
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn expr(&mut self) -> Result<(), ParseError> {
        self.enter()?;
        let start = self.tree.mark();
        self.binary(1)?;
        if self.eat(TokenKind::Question) {
            self.expr()?;
            self.expect(TokenKind::Colon, "`:`")?;
            self.expr()?;
            self.tree.ite(start);
        }
        self.leave();
        Ok(())
    }

    /// Levels `or` … `mul`: a left-associative chain of every operator at
    /// `level` or tighter, each right operand one level tighter still.
    fn binary(&mut self, level: u8) -> Result<(), ParseError> {
        let start = self.tree.mark();
        self.unary()?;
        while let Some((at, op)) =
            self.peek().and_then(|t| infix(t.kind)).filter(|&(at, _)| at >= level)
        {
            self.links += 1;
            if self.links > MAX_PARSE_LINKS {
                return Err(ParseError::TooDeep { pos: self.tokens[self.i].pos });
            }
            self.i += 1;
            self.binary(at + 1)?;
            match op {
                Infix::Bin(op) => self.tree.bin(op, start),
                Infix::Cmp(op) => self.tree.cmp(op, start),
            }
        }
        Ok(())
    }

    fn unary(&mut self) -> Result<(), ParseError> {
        self.enter()?;
        let start = self.tree.mark();
        if self.eat(TokenKind::Minus) {
            self.unary()?;
            self.tree.negate(start);
        } else if self.eat(TokenKind::Bang) {
            self.unary()?;
            self.tree.not(start);
        } else {
            self.primary()?;
        }
        self.leave();
        Ok(())
    }

    fn primary(&mut self) -> Result<(), ParseError> {
        let Some(t) = self.bump() else {
            return Err(ParseError::UnexpectedEof { expected: "an expression" });
        };
        let text = self.text(t);
        match t.kind {
            TokenKind::Int => {
                let v = text.parse::<i64>().map_err(|_| ParseError::IntOutOfRange {
                    pos: t.pos,
                    text: text.to_string(),
                })?;
                self.tree.int(v);
            }
            // f64 parse of digits.digits cannot fail, but overflows to inf
            TokenKind::Float => match text.parse::<f64>().unwrap() {
                v if v.is_finite() => self.tree.float(v),
                _ => {
                    return Err(ParseError::FloatOutOfRange { pos: t.pos, text: text.to_string() })
                }
            },
            TokenKind::LParen => {
                self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
            }
            TokenKind::Ident => self.ident_tail(t.pos, text)?,
            _ => return Err(self.unexpected(t, "an expression")),
        }
        Ok(())
    }

    /// Parse what follows an initial identifier: an intrinsic call, an
    /// indexed history feature, or a dotted feature path.
    fn ident_tail(&mut self, pos: usize, first: &'s str) -> Result<(), ParseError> {
        // Intrinsic call?
        if self.peek_is(TokenKind::LParen) {
            let arity = match first {
                "abs" => 1,
                "min" | "max" => 2,
                "clamp" | "if" => 3,
                _ => return Err(ParseError::UnknownIdentifier { pos, name: format!("{first}()") }),
            };
            self.i += 1; // consume '('
            let start = self.tree.mark();
            let mut args = 0;
            if !self.peek_is(TokenKind::RParen) {
                loop {
                    self.expr()?;
                    args += 1;
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen, "`)`")?;
            if args != arity {
                return Err(ParseError::BadArity {
                    pos,
                    func: first.to_string(),
                    expected: arity,
                    got: args,
                });
            }
            match first {
                "abs" => self.tree.abs(start),
                "min" => self.tree.bin(BinOp::Min, start),
                "max" => self.tree.bin(BinOp::Max, start),
                "clamp" => self.tree.clamp(start),
                "if" => self.tree.ite(start),
                _ => unreachable!("`arity` admits only the intrinsics"),
            }
            return Ok(());
        }

        // Indexed history feature?
        if self.eat(TokenKind::LBracket) {
            let idx_tok = self.bump().ok_or(ParseError::UnexpectedEof { expected: "an index" })?;
            if idx_tok.kind != TokenKind::Int {
                return Err(self.unexpected(idx_tok, "an integer index"));
            }
            let idx = self
                .text(idx_tok)
                .parse::<u8>()
                .map_err(|_| ParseError::BadParam { pos: idx_tok.pos, name: first.to_string() })?;
            self.expect(TokenKind::RBracket, "`]`")?;
            let feat = match first {
                "hist_rtt" => Feature::HistRtt(idx),
                "hist_delivered" => Feature::HistDelivered(idx),
                "hist_loss" => Feature::HistLoss(idx),
                "hist_cwnd" => Feature::HistCwnd(idx),
                "hist_qdelay" => Feature::HistQdelay(idx),
                _ => {
                    return Err(ParseError::UnknownIdentifier { pos, name: format!("{first}[..]") })
                }
            };
            if !feat.param_in_range() {
                return Err(ParseError::BadParam { pos, name: feat.name() });
            }
            self.tree.feat(feat);
            return Ok(());
        }

        // Dotted path. Segments past `MAX_PATH_SEGMENTS` are still read,
        // so a malformed tail is reported first, but name no feature.
        let start = self.i - 1; // the token `first` is the text of
        let mut segs = [first; MAX_PATH_SEGMENTS];
        let mut n = 1;
        while self.eat(TokenKind::Dot) {
            match self.bump() {
                Some(t) if t.kind == TokenKind::Ident => {
                    if let Some(seg) = segs.get_mut(n) {
                        *seg = self.text(t);
                    }
                    n += 1;
                }
                Some(t) => return Err(self.unexpected(t, "an identifier after `.`")),
                None => {
                    return Err(ParseError::UnexpectedEof { expected: "an identifier after `.`" })
                }
            }
        }
        // `a.b.c`: the path's tokens, dots included, back to back
        let joined = || self.tokens[start..self.i].iter().map(|&t| self.text(t)).collect();
        match segs.get(..n).and_then(resolve_path) {
            Some(f) if f.param_in_range() => {
                self.tree.feat(f);
                Ok(())
            }
            Some(_) => Err(ParseError::BadParam { pos, name: joined() }),
            None => Err(ParseError::UnknownIdentifier { pos, name: joined() }),
        }
    }
}

/// The most segments a feature path has (`obj.count`, `ages.p75`).
const MAX_PATH_SEGMENTS: usize = 2;

/// Resolve a dotted path to a feature, if any. No arm may be longer than
/// [`MAX_PATH_SEGMENTS`]: the parser never asks about a longer path.
fn resolve_path(path: &[&str]) -> Option<Feature> {
    use Feature::*;
    Some(match path {
        ["now"] => Now,
        ["obj", "count"] => ObjCount,
        ["obj", "last_access"] => ObjLastAccess,
        ["obj", "insert_time"] => ObjInsertTime,
        ["obj", "size"] => ObjSize,
        ["obj", "age"] => ObjAge,
        ["obj", "time_in_cache"] => ObjTimeInCache,
        ["hist", "contains"] => HistContains,
        ["hist", "count"] => HistCount,
        ["hist", "age_at_evict"] => HistAgeAtEvict,
        ["hist", "time_since_evict"] => HistTimeSinceEvict,
        ["cache", "objects"] => CacheObjects,
        ["cache", "used_bytes"] => CacheUsedBytes,
        ["cache", "capacity"] => CacheCapacity,
        ["cwnd"] => Cwnd,
        ["prev_cwnd"] => PrevCwnd,
        ["min_rtt"] => MinRttUs,
        ["srtt"] => SrttUs,
        ["last_rtt"] => LastRttUs,
        ["inflight_bytes"] => InflightBytes,
        ["inflight"] => InflightPkts,
        ["mss"] => Mss,
        ["delivered"] => DeliveredBytes,
        ["delivery_rate"] => DeliveryRateBps,
        ["loss"] => LossEvent,
        ["acked"] => AckedBytes,
        ["ssthresh"] => Ssthresh,
        ["server", "queue_len"] => ServerQueueLen,
        ["server", "ewma_latency"] => ServerEwmaLatency,
        ["server", "speed"] => ServerSpeed,
        ["server", "inflight"] => ServerInflight,
        ["server", "work_left"] => ServerWorkLeft,
        ["req", "size"] => ReqSize,
        ["pkt", "sojourn"] => PktSojournUs,
        ["pkt", "size"] => PktSize,
        ["q", "bytes"] => QueueBytes,
        ["q", "pkts"] => QueuePkts,
        ["q", "capacity"] => QueueCapacityBytes,
        ["q", "drain_rate"] => DrainRateBps,
        ["q", "ewma_sojourn"] => SojournEwmaUs,
        ["aqm", "since_drop"] => SinceLastDropUs,
        ["aqm", "drops"] => AqmDrops,
        [table @ ("counts" | "ages" | "sizes"), p] => {
            let pct: u8 = p.strip_prefix('p')?.parse().ok()?;
            match *table {
                "counts" => CountsPct(pct),
                "ages" => AgesPct(pct),
                _ => SizesPct(pct),
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, CmpOp, Expr};
    use crate::feature::Feature;
    use proptest::prelude::*;

    #[test]
    fn precedence_mul_over_add() {
        let e = parse("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::bin(BinOp::Add, Expr::int(1), Expr::bin(BinOp::Mul, Expr::int(2), Expr::int(3)))
        );
    }

    #[test]
    fn precedence_add_over_shift_over_rel() {
        // C semantics: a << b + c parses as a << (b + c)
        let e = parse("1 << 2 + 3").unwrap();
        assert_eq!(
            e,
            Expr::bin(BinOp::Shl, Expr::int(1), Expr::bin(BinOp::Add, Expr::int(2), Expr::int(3)))
        );
        // and a << b < c parses as (a << b) < c
        let e = parse("1 << 2 < 3").unwrap();
        assert_eq!(
            e,
            Expr::cmp(CmpOp::Lt, Expr::bin(BinOp::Shl, Expr::int(1), Expr::int(2)), Expr::int(3))
        );
    }

    #[test]
    fn ternary_right_assoc() {
        let e = parse("1 ? 2 : 3 ? 4 : 5").unwrap();
        assert_eq!(
            e,
            Expr::ite(
                Expr::int(1),
                Expr::int(2),
                Expr::ite(Expr::int(3), Expr::int(4), Expr::int(5))
            )
        );
    }

    #[test]
    fn features_resolve() {
        assert_eq!(parse("obj.count").unwrap(), Expr::feat(Feature::ObjCount));
        assert_eq!(parse("ages.p75").unwrap(), Expr::feat(Feature::AgesPct(75)));
        assert_eq!(parse("hist_rtt[3]").unwrap(), Expr::feat(Feature::HistRtt(3)));
        assert_eq!(parse("min_rtt").unwrap(), Expr::feat(Feature::MinRttUs));
        assert_eq!(parse("cache.used_bytes").unwrap(), Expr::feat(Feature::CacheUsedBytes));
        assert_eq!(parse("server.queue_len").unwrap(), Expr::feat(Feature::ServerQueueLen));
        assert_eq!(parse("server.ewma_latency").unwrap(), Expr::feat(Feature::ServerEwmaLatency));
        assert_eq!(parse("server.speed").unwrap(), Expr::feat(Feature::ServerSpeed));
        assert_eq!(parse("server.inflight").unwrap(), Expr::feat(Feature::ServerInflight));
        assert_eq!(parse("server.work_left").unwrap(), Expr::feat(Feature::ServerWorkLeft));
        assert_eq!(parse("req.size").unwrap(), Expr::feat(Feature::ReqSize));
    }

    #[test]
    fn intrinsics() {
        assert_eq!(parse("min(1, 2)").unwrap(), Expr::bin(BinOp::Min, Expr::int(1), Expr::int(2)));
        assert_eq!(
            parse("clamp(cwnd, 2, 100)").unwrap(),
            Expr::clamp(Expr::feat(Feature::Cwnd), Expr::int(2), Expr::int(100))
        );
        assert_eq!(
            parse("if(1, 2, 3)").unwrap(),
            Expr::ite(Expr::int(1), Expr::int(2), Expr::int(3))
        );
        assert_eq!(parse("abs(-4)").unwrap(), Expr::abs(Expr::int(-4)));
    }

    #[test]
    fn negative_literal_folds() {
        assert_eq!(parse("-42").unwrap(), Expr::int(-42));
        assert_eq!(parse("1 - -2").unwrap(), Expr::bin(BinOp::Sub, Expr::int(1), Expr::int(-2)));
    }

    #[test]
    fn float_literal_parses_but_is_float_node() {
        assert_eq!(parse("0.75").unwrap(), Expr::float(0.75));
        assert!(parse("ages.p75 * 0.5").unwrap().contains_float());
        assert_eq!(
            parse("1 - -0.5").unwrap(),
            Expr::bin(BinOp::Sub, Expr::int(1), Expr::float(-0.5))
        );
    }

    #[test]
    fn non_finite_float_literal_is_error() {
        let huge = format!("{}.0", "9".repeat(400));
        assert_eq!(
            parse(&format!("1 + {huge}")),
            Err(ParseError::FloatOutOfRange { pos: 4, text: huge })
        );
    }

    #[test]
    fn unknown_identifier_is_error() {
        assert!(matches!(parse("obj.weight"), Err(ParseError::UnknownIdentifier { .. })));
        assert!(matches!(parse("frobnicate(1)"), Err(ParseError::UnknownIdentifier { .. })));
        assert!(matches!(parse("foo[1]"), Err(ParseError::UnknownIdentifier { .. })));
    }

    #[test]
    fn arity_errors() {
        assert!(matches!(parse("min(1)"), Err(ParseError::BadArity { .. })));
        assert!(matches!(parse("abs(1, 2)"), Err(ParseError::BadArity { .. })));
        assert!(matches!(parse("clamp(1, 2)"), Err(ParseError::BadArity { .. })));
    }

    #[test]
    fn param_range_errors() {
        assert!(matches!(
            parse("ages.p100"),
            Err(ParseError::UnknownIdentifier { .. }) | Err(ParseError::BadParam { .. })
        ));
        assert!(matches!(parse("hist_rtt[10]"), Err(ParseError::BadParam { .. })));
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(matches!(parse("1 + 2 3"), Err(ParseError::UnexpectedToken { .. })));
        assert!(matches!(parse("1 +"), Err(ParseError::UnexpectedEof { .. })));
    }

    #[test]
    fn depth_limit() {
        let src = format!("{}1{}", "(".repeat(200), ")".repeat(200));
        assert!(matches!(parse(&src), Err(ParseError::TooDeep { .. })));
    }

    /// One operator per binary level of the grammar, loosest first.
    const LEVEL_OPS: [&str; 7] = ["||", "&&", "==", "<", "<<", "+", "*"];

    fn chain(op: &str, links: usize) -> String {
        format!("obj.count{}", format!(" {op} 1").repeat(links))
    }

    #[test]
    fn an_input_long_chain_is_an_error_not_a_stack_overflow() {
        // 80 KB of `+ 1` on the stack every spawned thread gets. Without
        // the link budget this parses, and the first recursive walk of the
        // 40 000-deep tree (here `to_source`) aborts the process: an abort,
        // which no `catch_unwind` contains.
        let src = chain("+", 40_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&src).map(|e| crate::printer::to_source(&e).len()))
            .unwrap()
            .join()
            .unwrap();
        assert!(matches!(parsed, Err(ParseError::TooDeep { .. })), "{parsed:?}");
    }

    #[test]
    fn every_binary_level_charges_its_links() {
        for op in LEVEL_OPS {
            let e = parse(&chain(op, MAX_PARSE_LINKS)).unwrap_or_else(|e| panic!("`{op}`: {e}"));
            assert_eq!(e.depth(), MAX_PARSE_LINKS + 1, "`{op}` chains lean left");
            let over = parse(&chain(op, MAX_PARSE_LINKS + 1));
            assert!(matches!(over, Err(ParseError::TooDeep { .. })), "`{op}`: {over:?}");
        }
    }

    proptest! {
        /// The contract on `parse`: whatever it accepts is shallow enough
        /// to walk recursively. Chains of every level, stacked on one left
        /// spine or wrapped and nested, far past the budget.
        #[test]
        fn accepted_trees_are_never_deeper_than_the_bound(
            segments in proptest::collection::vec(
                (proptest::sample::select(LEVEL_OPS.to_vec()), 0usize..1_500, any::<bool>()),
                1..6,
            ),
        ) {
            let mut src = String::from("1");
            for (op, links, wrap) in segments {
                if wrap {
                    src = format!("-({src})");
                }
                src.push_str(&format!(" {op} 1").repeat(links));
            }
            if let Ok(e) = parse(&src) {
                prop_assert!(e.depth() <= MAX_PARSE_DEPTH + MAX_PARSE_LINKS, "{}", e.depth());
            }
        }
    }

    #[test]
    fn listing1_style_fragment() {
        // A fragment shaped like the paper's Listing 1.
        let src = "obj.count * 20 - obj.age / 300 - obj.size / 500 \
                   + if(hist.contains, hist.count * 15 + hist.age_at_evict / 150, -40) \
                   + if(obj.last_access < ages.p75, -30, 0) \
                   + if(obj.size > sizes.p75, -25, 10) \
                   + if(obj.count > counts.p70, 50, -5)";
        let e = parse(src).unwrap();
        assert!(e.features().contains(&Feature::AgesPct(75)));
        assert!(e.features().contains(&Feature::CountsPct(70)));
        assert!(e.features().contains(&Feature::HistContains));
    }
}
