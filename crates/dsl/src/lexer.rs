//! Hand-written lexer for heuristic source.
//!
//! The token set is C-expression-like on purpose: the paper's Listing 1 is
//! (pseudo-)C, and the mock generator emits the same surface syntax so that
//! the parse-error fault class ("plausible yet non-conforming code", §3)
//! is realistic.
//!
//! Every candidate passes through here, so the lexer allocates nothing: the
//! parser pulls one token at a time from a [`Lexer`], a token is a kind and
//! a byte span, and the parser reads a literal's or identifier's text from
//! the source it borrows. A lex error anywhere in a source beats any parse
//! error in it, so a parser that stops early lexes the rest
//! ([`Lexer::error_in_rest`]) before it reports.
//! Generator output is hostile bytes; a character no token starts with is
//! reported whole, multibyte or not, at its byte offset.

use crate::error::{ParseError, Pos};

/// A single token: its kind and the byte span `pos..end` of its text in
/// the source it was lexed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub pos: Pos,
    pub end: Pos,
}

impl Token {
    /// The token's text in `src`, the source it was lexed from. It is also
    /// how diagnostics render the token.
    pub fn text(self, src: &str) -> &str {
        &src[self.pos..self.end]
    }
}

/// Token kinds. Literals and identifiers carry no payload: their text is
/// the token's span, so the parser can report out-of-range values
/// faithfully without the lexer allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    Int,
    Float,
    Ident,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Dot,
    Question,
    Colon,
    Bang,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    Shl,
    Shr,
    /// A character no token starts with: a lex error.
    Stray,
    /// Past the last token: the end of the source.
    End,
}

/// Pulls the tokens of one source, one at a time, as the parser asks for
/// them. Whitespace (including newlines) separates tokens and is otherwise
/// ignored; `//` comments run to end of line.
#[derive(Debug, Clone)]
pub struct Lexer<'s> {
    src: &'s str,
    /// Where the next token's search starts.
    i: usize,
}

/// Bytes that continue an identifier: `[A-Za-z0-9_]`.
static WORD: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = (b as u8).is_ascii_alphanumeric() || b == b'_' as usize;
        b += 1;
    }
    t
};

/// The end of the run of bytes from `i` on that `keep` accepts.
#[inline(always)]
fn run_end(bytes: &[u8], mut i: usize, keep: impl Fn(u8) -> bool) -> usize {
    while i < bytes.len() && keep(bytes[i]) {
        i += 1;
    }
    i
}

impl<'s> Lexer<'s> {
    pub fn new(src: &'s str) -> Lexer<'s> {
        Lexer { src, i: 0 }
    }

    /// The next token. Past the last one, an [`TokenKind::End`] token at
    /// the source's length; at a character no token starts with, a
    /// [`TokenKind::Stray`] token at it. The lexer stops at either, and
    /// returns it as often as asked.
    ///
    /// Always inlined: a call out of line hands the token back through
    /// memory, which costs the parser more than the lexing.
    #[inline(always)]
    pub fn next_token(&mut self) -> Token {
        use TokenKind::*;
        let bytes = self.src.as_bytes();
        let digit = |b: u8| b.is_ascii_digit();
        let mut i = self.i;
        loop {
            let Some(&b) = bytes.get(i) else {
                self.i = i;
                return Token { kind: End, pos: i, end: i };
            };
            let two = |second: u8, pair: TokenKind, single: TokenKind| {
                if bytes.get(i + 1) == Some(&second) {
                    (pair, 2)
                } else {
                    (single, 1)
                }
            };
            let (kind, len) = match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    i += 1;
                    continue;
                }
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    i = run_end(bytes, i + 2, |b| b != b'\n');
                    continue;
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    (Ident, run_end(bytes, i + 1, |b| WORD[b as usize]) - i)
                }
                b'0'..=b'9' => {
                    let end = run_end(bytes, i + 1, digit);
                    // A '.' is part of the number only when followed by a
                    // digit, so `counts.p50` style paths never collide with
                    // floats.
                    if bytes.get(end) == Some(&b'.')
                        && bytes.get(end + 1).is_some_and(|&b| digit(b))
                    {
                        (Float, run_end(bytes, end + 2, digit) - i)
                    } else {
                        (Int, end - i)
                    }
                }
                b'+' => (Plus, 1),
                b'-' => (Minus, 1),
                b'*' => (Star, 1),
                b'/' => (Slash, 1),
                b'%' => (Percent, 1),
                b'(' => (LParen, 1),
                b')' => (RParen, 1),
                b'[' => (LBracket, 1),
                b']' => (RBracket, 1),
                b',' => (Comma, 1),
                b'.' => (Dot, 1),
                b'?' => (Question, 1),
                b':' => (Colon, 1),
                b'!' => two(b'=', Ne, Bang),
                b'<' if bytes.get(i + 1) == Some(&b'<') => (Shl, 2),
                b'<' => two(b'=', Le, Lt),
                b'>' if bytes.get(i + 1) == Some(&b'>') => (Shr, 2),
                b'>' => two(b'=', Ge, Gt),
                b'=' => two(b'=', EqEq, Stray),
                b'&' => two(b'&', AndAnd, Stray),
                b'|' => two(b'|', OrOr, Stray),
                _ => (Stray, 0),
            };
            if kind == Stray {
                self.i = i;
                return Token { kind, pos: i, end: i };
            }
            let end = i + len;
            // step over one following space without a branch: generated
            // source is spaced (`x * y`), and whether a token is followed
            // by one is a coin flip for the branch predictor
            self.i = end + usize::from(bytes.get(end) == Some(&b' '));
            return Token { kind, pos: i, end };
        }
    }

    /// The lex error at or after the lexer's position: the first
    /// character from there on that starts no token.
    pub fn error_in_rest(&mut self) -> Option<ParseError> {
        loop {
            match self.next_token() {
                t if t.kind == TokenKind::Stray => return Some(self.error_at(t.pos)),
                t if t.kind == TokenKind::End => return None,
                _ => {}
            }
        }
    }

    /// The error for the character at `pos`, which starts no token.
    #[cold]
    fn error_at(&self, pos: usize) -> ParseError {
        // Tokens, whitespace and comments all end on ASCII bytes, so `pos`
        // starts a char: report that char, not its first byte.
        let ch = self.src[pos..].chars().next().expect("pos < src.len() is a char boundary");
        ParseError::UnexpectedChar { pos, ch }
    }
}

#[cfg(test)]
mod tests {
    use super::TokenKind::*;
    use super::*;

    /// Every token of `src`, or its first lex error.
    fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            match lexer.next_token() {
                t if t.kind == End => return Ok(out),
                t if t.kind == Stray => return Err(lexer.error_in_rest().unwrap()),
                t => out.push(t),
            }
        }
    }

    /// Each token's kind and text.
    fn toks(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).unwrap().into_iter().map(|t| (t.kind, t.text(src))).collect()
    }

    #[test]
    fn basic_expression() {
        assert_eq!(
            toks("obj.count * 20"),
            vec![(Ident, "obj"), (Dot, "."), (Ident, "count"), (Star, "*"), (Int, "20")]
        );
    }

    #[test]
    fn float_vs_dotted_path() {
        assert_eq!(toks("0.75"), vec![(Float, "0.75")]);
        assert_eq!(toks("ages.p75"), vec![(Ident, "ages"), (Dot, "."), (Ident, "p75")]);
        // digit-dot-ident: '.' is punctuation, not a float
        assert_eq!(toks("1.x"), vec![(Int, "1"), (Dot, "."), (Ident, "x")]);
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            toks("a <= b >= c == d != e && f || g << 1 >> 2"),
            vec![
                (Ident, "a"),
                (Le, "<="),
                (Ident, "b"),
                (Ge, ">="),
                (Ident, "c"),
                (EqEq, "=="),
                (Ident, "d"),
                (Ne, "!="),
                (Ident, "e"),
                (AndAnd, "&&"),
                (Ident, "f"),
                (OrOr, "||"),
                (Ident, "g"),
                (Shl, "<<"),
                (Int, "1"),
                (Shr, ">>"),
                (Int, "2"),
            ]
        );
    }

    #[test]
    fn comments_and_whitespace() {
        assert_eq!(toks("1 + // trailing noise\n 2"), vec![(Int, "1"), (Plus, "+"), (Int, "2")]);
    }

    #[test]
    fn history_indexing() {
        assert_eq!(
            toks("hist_rtt[3]"),
            vec![(Ident, "hist_rtt"), (LBracket, "["), (Int, "3"), (RBracket, "]")]
        );
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(matches!(lex("a $ b"), Err(ParseError::UnexpectedChar { ch: '$', .. })));
        assert!(matches!(lex("a = b"), Err(ParseError::UnexpectedChar { ch: '=', .. })));
        assert!(matches!(lex("a & b"), Err(ParseError::UnexpectedChar { ch: '&', .. })));
    }

    #[test]
    fn a_stray_non_ascii_character_is_reported_whole() {
        let err = lex("obj.count é 2").unwrap_err();
        assert_eq!(err, ParseError::UnexpectedChar { pos: 10, ch: 'é' });
        assert_eq!(err.to_string(), "error: unexpected character `é` at byte 10");
        assert_eq!(lex("// µs\n😀"), Err(ParseError::UnexpectedChar { pos: 7, ch: '😀' }));
    }

    #[test]
    fn the_lexer_stops_at_the_end_or_a_stray_and_finds_a_later_one() {
        let mut lexer = Lexer::new("ab // c");
        assert_eq!(lexer.next_token().kind, Ident);
        for _ in 0..2 {
            assert_eq!(lexer.next_token(), Token { kind: End, pos: 7, end: 7 });
        }
        assert_eq!(lexer.error_in_rest(), None);
        let mut lexer = Lexer::new("a $ b");
        assert_eq!(lexer.next_token().kind, Ident);
        for _ in 0..2 {
            assert_eq!(lexer.next_token(), Token { kind: Stray, pos: 2, end: 2 });
        }
        let mut lexer = Lexer::new("a + b = c");
        assert_eq!(lexer.next_token().kind, Ident);
        assert_eq!(lexer.error_in_rest(), Some(ParseError::UnexpectedChar { pos: 6, ch: '=' }));
    }

    #[test]
    fn positions_are_byte_offsets() {
        let toks = lex("ab + cd").unwrap();
        assert_eq!(
            toks.iter().map(|t| (t.pos, t.end)).collect::<Vec<_>>(),
            [(0, 2), (3, 4), (5, 7)]
        );
    }
}
