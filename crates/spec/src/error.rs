//! Spec-language errors.

use std::fmt;

/// Errors from lexing, parsing or decoding specifications.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// Lexical error.
    Lex {
        /// Source line.
        line: u32,
        /// Description.
        msg: String,
    },
    /// Parse error.
    Parse {
        /// Source line (0 = end of input).
        line: u32,
        /// Description.
        msg: String,
    },
    /// The parsed problem failed model validation.
    Model(sekitei_model::ModelError),
    /// Binary wire-format decoding error.
    Wire(String),
}

impl SpecError {
    pub(crate) fn lex(line: u32, msg: impl Into<String>) -> Self {
        SpecError::Lex { line, msg: msg.into() }
    }

    pub(crate) fn parse(line: u32, msg: impl Into<String>) -> Self {
        SpecError::Parse { line, msg: msg.into() }
    }

    /// Construct a wire-format error. Public because the serving protocol
    /// layer (frames and envelopes around `SKT1`/`SKO1` payloads) reports
    /// its own malformed-bytes conditions through the same type.
    pub fn wire(msg: impl Into<String>) -> Self {
        SpecError::Wire(msg.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Lex { line, msg } => write!(f, "lex error (line {line}): {msg}"),
            SpecError::Parse { line, msg } if *line == 0 => {
                write!(f, "parse error at end of input: {msg}")
            }
            SpecError::Parse { line, msg } => write!(f, "parse error (line {line}): {msg}"),
            SpecError::Model(e) => write!(f, "invalid specification: {e}"),
            SpecError::Wire(msg) => write!(f, "wire decode error: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<sekitei_util::Truncated> for SpecError {
    /// A wire read that ran past the end of its input.
    fn from(_: sekitei_util::Truncated) -> Self {
        SpecError::wire("unexpected end of input")
    }
}

impl From<sekitei_model::ModelError> for SpecError {
    fn from(e: sekitei_model::ModelError) -> Self {
        SpecError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(SpecError::lex(3, "bad").to_string().contains("line 3"));
        assert!(SpecError::parse(0, "eof").to_string().contains("end of input"));
        assert!(SpecError::parse(7, "x").to_string().contains("line 7"));
        assert!(SpecError::wire("short").to_string().contains("short"));
    }
}
