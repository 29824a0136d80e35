//! Parser for heuristic source: one precedence-climbing loop over an
//! explicit stack.
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
//! The parser does not recurse. Whatever waits for an operand or an `expr`
//! to finish — an operator, a prefix, a `(`, a call's argument, a ternary's
//! branch — is a frame on one stack, and the seven binary levels
//! (`or` … `mul`) are one operator table: an operator folds every waiting
//! operator at least as tight as itself before it waits for its own right
//! operand. Tokens are pulled from the [`Lexer`] as the loop needs them;
//! a lex error anywhere still beats any parse error, because a parse that
//! stops early lexes the rest of the source before it reports.
//!
//! What `parse` accepts is safe to walk recursively: nesting is bounded by
//! [`MAX_PARSE_DEPTH`] and the binary chains, which nest the *tree* without
//! nesting an `expr`, by a per-source link budget. The nesting count is the
//! grammar's: one level for each open `expr`, one for each open `unary`
//! (an operand, plus one per prefix).

use crate::ast::{BinOp, Builder, CmpOp, Expr};
use crate::error::ParseError;
use crate::feature::Feature;
use crate::lexer::{Lexer, Token, TokenKind};

/// Maximum expression nesting the parser will accept. Protects against both
/// stack overflow and pathological generated candidates.
pub const MAX_PARSE_DEPTH: usize = 64;

/// Maximum binary-operator links (`a + b` is one) in one source. A
/// left-associative chain nests no `expr`, so [`MAX_PARSE_DEPTH`] never
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
/// root-to-leaf path is either made by its own nesting level (an `expr` or
/// a `unary`) or is one of the source's binary links, and both are
/// budgeted.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let mut lexer = Lexer::new(src);
    let tok = lexer.next_token();
    // about one node per 4 bytes of generated source; a longer one regrows
    let mut tree = Builder::with_capacity(src.len() / 4 + 4);
    let mut p = Parser { src, lexer, tok, depth: 0, links: 0 };
    match p.run(&mut tree, &mut Vec::with_capacity(16)) {
        Ok(()) => Ok(tree.finish()),
        // The lexer stops at a stray character, and the parse stops at
        // the first token it cannot use, a stray included: a lex error
        // there or later in the source beats the parse error. (A copy of
        // the lexer goes on: lending out the parser's own would keep the
        // parser in memory, not registers, for the whole parse.)
        Err(e) => Err(p.lexer.clone().error_in_rest().unwrap_or(e)),
    }
}

/// The parser's cursor. It borrows the source: tokens are spans into it,
/// and only an error or an out-of-range literal copies text out. Every
/// subtree is appended to the [`Builder`] when it is complete, operands
/// before their operator; what waits is on the [`Frame`] stack. Both are
/// kept apart from the cursor, whose fields then stay in registers.
struct Parser<'s> {
    src: &'s str,
    lexer: Lexer<'s>,
    /// The next token, not yet consumed.
    tok: Token,
    /// Open nesting levels: `expr`s and `unary`s.
    depth: usize,
    /// Binary links built so far, over the whole source.
    links: usize,
}

/// Something that waits for the operand or `expr` above it on the stack.
/// Each `start` is where the frame's subtree begins in the tree.
#[derive(Clone, Copy)]
enum Frame {
    /// An `expr` parsing its condition (or only) chain.
    Expr { start: usize },
    /// An `expr` past its `?`, waiting for its then-branch.
    Then { start: usize },
    /// An `expr` past its `:`, waiting for its else-branch.
    Else { start: usize },
    /// A binary operator waiting for its right operand; `start` is its
    /// left operand's.
    Op { op: Infix, level: u8, start: usize },
    /// A prefix `-` waiting for its operand.
    Neg { start: usize },
    /// A prefix `!` waiting for its operand.
    Not { start: usize },
    /// A `(` waiting for its `expr`.
    Paren { start: usize },
    /// An intrinsic call waiting for its next argument; `args` are done.
    Call { f: Intrinsic, pos: usize, start: usize, args: usize },
}

/// What the token after an operand does, decided before the parser
/// consumes it.
enum Step {
    /// An operator: it waits for its right operand.
    Chain(Frame),
    /// A `?`, `:` or `,`: this frame waits for the `expr` it opens.
    Open(Frame),
    /// A `)`: this paren or call is complete, and is an operand.
    Close(Frame),
}

/// The node a binary operator token builds.
#[derive(Clone, Copy)]
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

/// An intrinsic function.
#[derive(Clone, Copy)]
enum Intrinsic {
    Abs,
    Min,
    Max,
    Clamp,
    If,
}

impl Intrinsic {
    fn named(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "abs" => Intrinsic::Abs,
            "min" => Intrinsic::Min,
            "max" => Intrinsic::Max,
            "clamp" => Intrinsic::Clamp,
            "if" => Intrinsic::If,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Intrinsic::Abs => "abs",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Clamp => "clamp",
            Intrinsic::If => "if",
        }
    }

    fn arity(self) -> usize {
        match self {
            Intrinsic::Abs => 1,
            Intrinsic::Min | Intrinsic::Max => 2,
            Intrinsic::Clamp | Intrinsic::If => 3,
        }
    }
}

impl<'s> Parser<'s> {
    /// Consume the next token and pull the one after it.
    #[inline(always)]
    fn bump(&mut self) -> Token {
        let t = self.tok;
        self.tok = self.lexer.next_token();
        t
    }

    #[inline(always)]
    fn text(&self, t: Token) -> &'s str {
        t.text(self.src)
    }

    /// The error for a token the grammar does not allow where it is.
    #[inline(always)]
    fn unexpected(&self, t: Token, expected: &'static str) -> ParseError {
        unexpected(self.src, t, expected)
    }

    #[inline(always)]
    fn expect(&mut self, kind: TokenKind, what: &'static str) -> Result<Token, ParseError> {
        let t = self.bump();
        if t.kind != kind {
            return Err(self.unexpected(t, what));
        }
        Ok(t)
    }

    /// Open a nesting level, charged to the next token (byte 0 at the end).
    #[inline(always)]
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            let pos = if self.tok.kind == TokenKind::End { 0 } else { self.tok.pos };
            return Err(ParseError::TooDeep { pos });
        }
        Ok(())
    }

    /// Open an `expr`: its level, and its frame.
    #[inline(always)]
    fn open_expr(&mut self, tree: &Builder, stack: &mut Vec<Frame>) -> Result<(), ParseError> {
        self.enter()?;
        stack.push(Frame::Expr { start: tree.mark() });
        Ok(())
    }

    /// The whole parse: one top-level `expr`, then the end of input.
    ///
    /// Tokens are consumed at two sites: an operand's, and the one after an
    /// operand, where the next token is decided on before it is consumed.
    #[inline(always)]
    fn run(&mut self, tree: &mut Builder, stack: &mut Vec<Frame>) -> Result<(), ParseError> {
        self.open_expr(tree, stack)?;
        'operand: loop {
            // An operand: its own level, one more per prefix, then a
            // primary. A primary that opens an `expr` goes round again for
            // that `expr`'s first operand.
            self.enter()?;
            let mut start = tree.mark();
            let t = loop {
                let t = self.bump();
                let prefix = match t.kind {
                    TokenKind::Minus => Frame::Neg { start },
                    TokenKind::Bang => Frame::Not { start },
                    _ => break t,
                };
                stack.push(prefix);
                self.enter()?;
            };
            match t.kind {
                TokenKind::Int => {
                    let text = self.text(t);
                    let v = int_value(text).ok_or_else(|| ParseError::IntOutOfRange {
                        pos: t.pos,
                        text: text.to_string(),
                    })?;
                    tree.int(v);
                }
                // f64 parse of digits.digits cannot fail, but overflows to inf
                TokenKind::Float => match self.text(t).parse::<f64>().unwrap() {
                    v if v.is_finite() => tree.float(v),
                    _ => {
                        let text = self.text(t).to_string();
                        return Err(ParseError::FloatOutOfRange { pos: t.pos, text });
                    }
                },
                TokenKind::LParen => {
                    stack.push(Frame::Paren { start });
                    self.open_expr(tree, stack)?;
                    continue 'operand;
                }
                TokenKind::Ident => {
                    if self.ident_tail(t, tree, stack)? {
                        continue 'operand;
                    }
                }
                _ => return Err(self.unexpected(t, "an expression")),
            }

            'operand_done: loop {
                // The operand is complete: close its level and its prefixes.
                self.depth -= 1;
                while let Some(&(Frame::Neg { .. } | Frame::Not { .. })) = stack.last() {
                    match stack.pop() {
                        Some(Frame::Neg { start }) => tree.negate(start),
                        Some(Frame::Not { start }) => tree.not(start),
                        _ => unreachable!("the loop pops prefixes only"),
                    }
                    self.depth -= 1;
                }

                // Fold every waiting operator at least as tight as the next
                // token's (all of them, if it is no operator): the operand
                // is their right operand, and the fold their left.
                let next = infix(self.tok.kind);
                let level = next.map_or(0, |(at, _)| at);
                while let Some(&Frame::Op { op, level: at, start: left }) = stack.last() {
                    if at < level {
                        break;
                    }
                    stack.pop();
                    match op {
                        Infix::Bin(op) => tree.bin(op, left),
                        Infix::Cmp(op) => tree.cmp(op, left),
                    }
                    start = left;
                }
                // What the next token does, decided before it is consumed:
                // continue the chain, start the `expr`'s ternary, or — the
                // `expr` being complete, and so every `expr` it ends — what
                // the frame waiting for it waits for.
                let step = if let Some((at, op)) = next {
                    self.links += 1;
                    if self.links > MAX_PARSE_LINKS {
                        return Err(ParseError::TooDeep { pos: self.tok.pos });
                    }
                    Step::Chain(Frame::Op { op, level: at, start })
                } else if self.tok.kind == TokenKind::Question {
                    let Some(Frame::Expr { start }) = stack.pop() else {
                        unreachable!("a chain is an `expr`'s")
                    };
                    Step::Open(Frame::Then { start })
                } else {
                    let waiting = loop {
                        stack.pop();
                        self.depth -= 1;
                        match stack.last() {
                            // its `expr` is complete too
                            Some(&Frame::Else { start }) => tree.ite(start),
                            _ => break stack.pop(),
                        }
                    };
                    let kind = self.tok.kind;
                    match waiting {
                        None if kind == TokenKind::End => return Ok(()),
                        None => return Err(self.unexpected(self.tok, "end of input")),
                        Some(Frame::Then { start }) if kind == TokenKind::Colon => {
                            Step::Open(Frame::Else { start })
                        }
                        Some(Frame::Then { .. }) => return Err(self.unexpected(self.tok, "`:`")),
                        Some(Frame::Call { f, pos, start, args }) if kind == TokenKind::Comma => {
                            Step::Open(Frame::Call { f, pos, start, args: args + 1 })
                        }
                        Some(frame) if kind == TokenKind::RParen => Step::Close(frame),
                        Some(_) => return Err(self.unexpected(self.tok, "`)`")),
                    }
                };
                self.bump();
                match step {
                    Step::Chain(op) => stack.push(op),
                    Step::Open(frame) => {
                        stack.push(frame);
                        self.open_expr(tree, stack)?;
                    }
                    Step::Close(Frame::Paren { start: paren }) => {
                        start = paren;
                        continue 'operand_done;
                    }
                    Step::Close(Frame::Call { f, pos, start: call, args }) => {
                        self.build_call(tree, f, pos, call, args + 1)?;
                        start = call;
                        continue 'operand_done;
                    }
                    Step::Close(_) => unreachable!("only a paren or a call closes"),
                }
                continue 'operand;
            }
        }
    }

    /// Build an intrinsic call's node over its `args` arguments, once its
    /// `)` is consumed, if its arity allows.
    #[inline(always)]
    fn build_call(
        &mut self,
        tree: &mut Builder,
        f: Intrinsic,
        pos: usize,
        start: usize,
        args: usize,
    ) -> Result<(), ParseError> {
        if args != f.arity() {
            return Err(ParseError::BadArity {
                pos,
                func: f.name().to_string(),
                expected: f.arity(),
                got: args,
            });
        }
        match f {
            Intrinsic::Abs => tree.abs(start),
            Intrinsic::Min => tree.bin(BinOp::Min, start),
            Intrinsic::Max => tree.bin(BinOp::Max, start),
            Intrinsic::Clamp => tree.clamp(start),
            Intrinsic::If => tree.ite(start),
        }
        Ok(())
    }

    /// Parse what follows an initial identifier `first`: an intrinsic
    /// call, an indexed history feature, or a dotted feature path. Returns
    /// whether it opened a call, whose first argument comes next.
    #[inline(always)]
    fn ident_tail(
        &mut self,
        first: Token,
        tree: &mut Builder,
        stack: &mut Vec<Frame>,
    ) -> Result<bool, ParseError> {
        let (pos, name) = (first.pos, self.text(first));
        // Intrinsic call?
        if self.tok.kind == TokenKind::LParen {
            let Some(f) = Intrinsic::named(name) else {
                return Err(ParseError::UnknownIdentifier { pos, name: format!("{name}()") });
            };
            self.bump(); // consume '('
            let start = tree.mark();
            if self.tok.kind == TokenKind::RParen {
                self.bump();
                self.build_call(tree, f, pos, start, 0)?;
                return Ok(false);
            }
            stack.push(Frame::Call { f, pos, start, args: 0 });
            self.open_expr(tree, stack)?;
            return Ok(true);
        }

        // Indexed history feature?
        if self.tok.kind == TokenKind::LBracket {
            self.bump();
            let idx_tok = self.bump();
            match idx_tok.kind {
                TokenKind::Int => {}
                TokenKind::End => return Err(ParseError::UnexpectedEof { expected: "an index" }),
                _ => return Err(self.unexpected(idx_tok, "an integer index")),
            }
            let idx = self
                .text(idx_tok)
                .parse::<u8>()
                .map_err(|_| ParseError::BadParam { pos: idx_tok.pos, name: name.to_string() })?;
            self.expect(TokenKind::RBracket, "`]`")?;
            let feat = match name {
                "hist_rtt" => Feature::HistRtt(idx),
                "hist_delivered" => Feature::HistDelivered(idx),
                "hist_loss" => Feature::HistLoss(idx),
                "hist_cwnd" => Feature::HistCwnd(idx),
                "hist_qdelay" => Feature::HistQdelay(idx),
                _ => {
                    return Err(ParseError::UnknownIdentifier { pos, name: format!("{name}[..]") })
                }
            };
            if !feat.param_in_range() {
                return Err(ParseError::BadParam { pos, name: feat.name() });
            }
            tree.feat(feat);
            return Ok(false);
        }

        // Dotted path. Segments past `MAX_PATH_SEGMENTS` are still read,
        // so a malformed tail is reported first, but name no feature.
        let mut segs = [name; MAX_PATH_SEGMENTS];
        let mut n = 1;
        let mut end = first.end;
        while self.tok.kind == TokenKind::Dot {
            self.bump();
            let t = self.bump();
            if t.kind != TokenKind::Ident {
                return Err(self.unexpected(t, "an identifier after `.`"));
            }
            if let Some(seg) = segs.get_mut(n) {
                *seg = self.text(t);
            }
            n += 1;
            end = t.end;
        }
        // `a.b.c`: the path's tokens, dots included, back to back
        let src = self.src;
        let joined = || joined(&src[pos..end]);
        match segs.get(..n).and_then(resolve_path) {
            Some(f) if f.param_in_range() => {
                tree.feat(f);
                Ok(false)
            }
            Some(_) => Err(ParseError::BadParam { pos, name: joined() }),
            None => Err(ParseError::UnknownIdentifier { pos, name: joined() }),
        }
    }
}

/// The error for a token of `src` the grammar does not allow where it is.
#[cold]
fn unexpected(src: &str, t: Token, expected: &'static str) -> ParseError {
    match t.kind {
        TokenKind::End => ParseError::UnexpectedEof { expected },
        _ => ParseError::UnexpectedToken { pos: t.pos, found: t.text(src).to_string(), expected },
    }
}

/// The value of an integer literal's digits, `None` past `i64::MAX`: what
/// `str::parse::<i64>` gives for them, without its sign and radix cases.
#[inline]
fn int_value(digits: &str) -> Option<i64> {
    digits.bytes().try_fold(0i64, |v, d| v.checked_mul(10)?.checked_add(i64::from(d - b'0')))
}

/// The tokens of `span`, which lexes cleanly, back to back.
fn joined(span: &str) -> String {
    let mut lexer = Lexer::new(span);
    let mut out = String::with_capacity(span.len());
    loop {
        let t = lexer.next_token();
        if t.kind == TokenKind::End {
            return out;
        }
        out.push_str(t.text(span));
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

    // Error precedence. The whole source is lexed before anything is
    // parsed, so a lex error anywhere beats every parse error, wherever
    // the parser would have stopped.

    #[test]
    fn a_lex_error_after_a_syntax_error_wins() {
        assert_eq!(parse("1 + + $"), Err(ParseError::UnexpectedChar { pos: 6, ch: '$' }));
        assert_eq!(
            parse("1 + + 2"),
            Err(ParseError::UnexpectedToken {
                pos: 4,
                found: "+".into(),
                expected: "an expression"
            })
        );
    }

    #[test]
    fn a_lex_error_after_an_unknown_identifier_wins() {
        assert_eq!(parse("foo.bar é"), Err(ParseError::UnexpectedChar { pos: 8, ch: 'é' }));
        assert_eq!(
            parse("foo.bar 2"),
            Err(ParseError::UnknownIdentifier { pos: 0, name: "foo.bar".into() })
        );
    }

    #[test]
    fn a_stray_character_inside_80_deep_parens_beats_the_depth_budget() {
        let nest = |inner: &str| format!("{}{inner}{}", "(".repeat(80), ")".repeat(80));
        assert_eq!(
            parse(&nest("obj.count $ 1")),
            Err(ParseError::UnexpectedChar { pos: 90, ch: '$' })
        );
        // without it, the depth budget runs out 32 parens in: an `expr`
        // and a `unary` per level, and one more of each at the top
        assert_eq!(parse(&nest("obj.count + 1")), Err(ParseError::TooDeep { pos: 32 }));
    }

    #[test]
    fn the_2049th_link_of_a_chain_is_too_deep_at_its_operator() {
        // `obj.count` is 9 bytes and every ` + 1` 4, so the k-th `+` is at 4k + 6
        assert_eq!(parse(&chain("+", 2_049)), Err(ParseError::TooDeep { pos: 8_202 }));
        let with_stray = format!("{} $", chain("+", 2_049));
        assert_eq!(parse(&with_stray), Err(ParseError::UnexpectedChar { pos: 8_206, ch: '$' }));
    }

    #[test]
    fn a_depth_error_reports_the_next_token_or_byte_0_at_the_end() {
        // the 63rd `-` opens the 65th level: `expr`, then a `unary` per `-`
        // and one for the operand
        assert_eq!(parse(&"-".repeat(64)), Err(ParseError::TooDeep { pos: 63 }));
        assert_eq!(parse(&"-".repeat(63)), Err(ParseError::TooDeep { pos: 0 }));
        assert_eq!(
            parse(&"-".repeat(62)),
            Err(ParseError::UnexpectedEof { expected: "an expression" })
        );
    }

    #[test]
    fn ternaries_and_calls_charge_a_level_per_nested_expr() {
        let else_chain = |k: usize| format!("{}3", "1 ? 2 : ".repeat(k));
        assert!(parse(&else_chain(62)).is_ok());
        assert_eq!(parse(&else_chain(63)), Err(ParseError::TooDeep { pos: 500 }));
        let then_chain = |k: usize| format!("{}3{}", "1 ? ".repeat(k), " : 2".repeat(k));
        assert!(parse(&then_chain(62)).is_ok());
        assert_eq!(parse(&then_chain(63)), Err(ParseError::TooDeep { pos: 252 }));
        let calls = format!("{}1{}", "min(".repeat(40), ", 2)".repeat(40));
        assert_eq!(parse(&calls), Err(ParseError::TooDeep { pos: 128 }));
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
