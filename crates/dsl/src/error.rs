//! Error types for the whole candidate pipeline: parse → check → evaluate.
//!
//! The paper's feedback loop forwards "stderr" to the generator (§4.1.3,
//! §5.0.3), so every error here renders as a compiler-style one-line
//! diagnostic via `Display`; the mock generator pattern-matches on the
//! structured variants to decide which repair rule to apply.

use crate::feature::{Feature, Mode};
use std::fmt;

/// Byte offset into the candidate source where an error was detected.
pub type Pos = usize;

/// Lexing / parsing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A character that starts no token.
    UnexpectedChar { pos: Pos, ch: char },
    /// A token in a position where the grammar does not allow it.
    UnexpectedToken { pos: Pos, found: String, expected: &'static str },
    /// Source ended mid-expression.
    UnexpectedEof { expected: &'static str },
    /// A dotted identifier that resolves to no known feature or function.
    UnknownIdentifier { pos: Pos, name: String },
    /// Wrong number of arguments to an intrinsic (`min`, `clamp`, `if`, …).
    BadArity { pos: Pos, func: String, expected: usize, got: usize },
    /// Integer literal out of `i64` range.
    IntOutOfRange { pos: Pos, text: String },
    /// Float literal too large for a finite `f64`.
    FloatOutOfRange { pos: Pos, text: String },
    /// History index / percentile parameter outside its legal range.
    BadParam { pos: Pos, name: String },
    /// Expression nests deeper, or chains more binary operators, than the
    /// parser allows.
    TooDeep { pos: Pos },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedChar { pos, ch } => {
                write!(f, "error: unexpected character `{ch}` at byte {pos}")
            }
            ParseError::UnexpectedToken { pos, found, expected } => {
                write!(f, "error: expected {expected}, found `{found}` at byte {pos}")
            }
            ParseError::UnexpectedEof { expected } => {
                write!(f, "error: unexpected end of input, expected {expected}")
            }
            ParseError::UnknownIdentifier { pos, name } => {
                write!(f, "error: unknown identifier `{name}` at byte {pos}")
            }
            ParseError::BadArity { pos, func, expected, got } => {
                write!(f, "error: `{func}` expects {expected} argument(s), got {got} (byte {pos})")
            }
            ParseError::IntOutOfRange { pos, text } => {
                write!(f, "error: integer literal `{text}` out of range at byte {pos}")
            }
            ParseError::FloatOutOfRange { pos, text } => {
                write!(f, "error: float literal `{text}` out of range at byte {pos}")
            }
            ParseError::BadParam { pos, name } => {
                write!(f, "error: parameter out of range in `{name}` at byte {pos}")
            }
            ParseError::TooDeep { pos } => {
                write!(f, "error: expression nested too deeply at byte {pos}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Static (semantic) check failures — the `Checker` role of the framework.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// Floating-point is forbidden in both templates (kernel: hard
    /// constraint; cache: the template is integer-valued). The single most
    /// common generator fault in the paper's kernel study.
    FloatLiteral { value: f64 },
    /// Feature not available in this template mode.
    FeatureUnavailable { feature: Feature, mode: Mode },
    /// Percentile / history-index parameter out of range.
    FeatureParamOutOfRange { feature: Feature },
    /// Tree exceeds the size budget of the template.
    TooLarge { size: usize, limit: usize },
    /// Tree exceeds the depth budget of the template.
    TooDeep { depth: usize, limit: usize },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::FloatLiteral { value } => write!(
                f,
                "error: floating-point literal `{value}` is not allowed (integer-only template)"
            ),
            CheckError::FeatureUnavailable { feature, mode } => {
                write!(f, "error: feature `{}` is not available in {:?} mode", feature.name(), mode)
            }
            CheckError::FeatureParamOutOfRange { feature } => {
                write!(f, "error: feature parameter out of range in `{}`", feature.name())
            }
            CheckError::TooLarge { size, limit } => {
                write!(f, "error: expression has {size} nodes, limit is {limit}")
            }
            CheckError::TooDeep { depth, limit } => {
                write!(f, "error: expression depth {depth} exceeds limit {limit}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Runtime evaluation failures (userspace interpreter). In the cache study a
/// faulting candidate is scored as failed; in the kernel study the verifier
/// proves these impossible before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Division or remainder by zero.
    DivByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::DivByZero => write!(f, "runtime error: division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_render_one_line() {
        let errs: Vec<String> = vec![
            ParseError::UnexpectedChar { pos: 3, ch: '$' }.to_string(),
            ParseError::UnknownIdentifier { pos: 0, name: "obj.weight".into() }.to_string(),
            CheckError::FloatLiteral { value: 0.75 }.to_string(),
            CheckError::FeatureUnavailable { feature: Feature::Cwnd, mode: Mode::Cache }
                .to_string(),
            EvalError::DivByZero.to_string(),
        ];
        for e in errs {
            assert!(e.starts_with("error:") || e.starts_with("runtime error:"));
            assert!(!e.contains('\n'));
        }
    }
}
