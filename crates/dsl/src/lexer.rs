//! Hand-written lexer for heuristic source.
//!
//! The token set is C-expression-like on purpose: the paper's Listing 1 is
//! (pseudo-)C, and the mock generator emits the same surface syntax so that
//! the parse-error fault class ("plausible yet non-conforming code", §3)
//! is realistic.
//!
//! Every candidate passes through here, so the lexer allocates nothing but
//! the token vector, reserved once from the source length: a token is a
//! kind and a byte span, and the parser reads a literal's or identifier's
//! text from the source it borrows.
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
}

/// Tokenize `src`. Whitespace (including newlines) separates tokens and is
/// otherwise ignored; `//` comments run to end of line.
pub fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    use TokenKind::*;
    let bytes = src.as_bytes();
    let at = |i: usize| bytes.get(i).copied();
    let run_end = |mut i: usize, f: fn(&u8) -> bool| {
        while bytes.get(i).is_some_and(f) {
            i += 1;
        }
        i
    };
    // a token per two bytes: spaced source (`x * y`) never regrows the
    // vector, and source with a token in every byte regrows it once
    let mut out = Vec::with_capacity(src.len() / 2 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let pos = i;
        let next = at(i + 1);
        let (kind, len) = match bytes[i] {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'/' if next == Some(b'/') => {
                i = run_end(i, |&b| b != b'\n');
                continue;
            }
            b'0'..=b'9' => {
                let end = run_end(i, u8::is_ascii_digit);
                // A '.' is part of the number only when followed by a digit,
                // so `counts.p50` style paths never collide with floats.
                if at(end) == Some(b'.') && at(end + 1).is_some_and(|b| b.is_ascii_digit()) {
                    (Float, run_end(end + 1, u8::is_ascii_digit) - i)
                } else {
                    (Int, end - i)
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                (Ident, run_end(i, |&b| b.is_ascii_alphanumeric() || b == b'_') - i)
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
            b'!' if next == Some(b'=') => (Ne, 2),
            b'!' => (Bang, 1),
            b'<' if next == Some(b'=') => (Le, 2),
            b'<' if next == Some(b'<') => (Shl, 2),
            b'<' => (Lt, 1),
            b'>' if next == Some(b'=') => (Ge, 2),
            b'>' if next == Some(b'>') => (Shr, 2),
            b'>' => (Gt, 1),
            b'=' if next == Some(b'=') => (EqEq, 2),
            b'&' if next == Some(b'&') => (AndAnd, 2),
            b'|' if next == Some(b'|') => (OrOr, 2),
            _ => {
                // Tokens, whitespace and comments all end on ASCII bytes, so
                // `pos` starts a char: report that char, not its first byte.
                let ch = src[pos..].chars().next().expect("pos < src.len() is a char boundary");
                return Err(ParseError::UnexpectedChar { pos, ch });
            }
        };
        i += len;
        out.push(Token { kind, pos, end: i });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::TokenKind::*;
    use super::*;

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
    fn positions_are_byte_offsets() {
        let toks = lex("ab + cd").unwrap();
        assert_eq!(
            toks.iter().map(|t| (t.pos, t.end)).collect::<Vec<_>>(),
            [(0, 2), (3, 4), (5, 7)]
        );
    }
}
