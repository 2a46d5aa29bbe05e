//! Error types for the rrs workspace.

use crate::color::ColorId;
use crate::time::Round;
use std::fmt;

/// Result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by trace construction, engine configuration and schedule
/// validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A color id referenced a color not present in the [`crate::ColorTable`].
    UnknownColor(ColorId),
    /// A trace or engine parameter was invalid (message explains which).
    InvalidParameter(String),
    /// A schedule failed validation against its trace.
    InvalidSchedule {
        /// Round at which the violation was detected.
        round: Round,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A policy produced a cache target exceeding the resource count.
    CacheOverflow {
        /// Round at which the overflow occurred.
        round: Round,
        /// Number of slots requested.
        requested: usize,
        /// Number of resources available.
        available: usize,
    },
    /// Trace decode failure (binary codec).
    Codec(String),
    /// A snapshot or a policy's saved state failed the structural checks
    /// run before an engine is rebuilt from it (message explains which).
    CorruptSnapshot(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownColor(c) => write!(f, "unknown color {c}"),
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::InvalidSchedule { round, reason } => {
                write!(f, "invalid schedule at round {round}: {reason}")
            }
            Error::CacheOverflow {
                round,
                requested,
                available,
            } => write!(
                f,
                "cache target of {requested} slots exceeds {available} resources at round {round}"
            ),
            Error::Codec(msg) => write!(f, "codec error: {msg}"),
            Error::CorruptSnapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::UnknownColor(ColorId(3));
        assert!(e.to_string().contains("c3"));
        let e = Error::CacheOverflow {
            round: 7,
            requested: 9,
            available: 8,
        };
        assert!(e.to_string().contains("round 7"));
        let e = Error::InvalidSchedule {
            round: 1,
            reason: "x".into(),
        };
        assert!(e.to_string().contains("invalid schedule"));
    }
}
