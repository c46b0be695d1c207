//! The error of assembling a boot plan.
//!
//! [`Error`] covers plan assembly, with [`std::error::Error`]
//! `source()` chains. A supervised boot that falls back is not an
//! error: the rescue lands on [`crate::Boot::degraded`]. A fleet job's
//! failure is bb-fleet's own `FailureKind`.

use bb_init::{GraphError, TransactionError};

/// Why a scenario's boot plan could not be assembled.
#[derive(Debug)]
pub enum Error {
    /// The unit set is malformed.
    Graph(GraphError),
    /// The transaction could not be built.
    Transaction(TransactionError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Graph(e) => write!(f, "unit graph error: {e}"),
            Error::Transaction(e) => write!(f, "transaction error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Graph(e) => Some(e),
            Error::Transaction(e) => Some(e),
        }
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

impl From<TransactionError> for Error {
    fn from(e: TransactionError) -> Self {
        Error::Transaction(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_init::UnitName;
    use std::error::Error as _;

    #[test]
    fn display_is_layered_and_sources_chain() {
        let e = Error::Graph(GraphError::DuplicateUnit(UnitName::new("a.service")));
        assert_eq!(e.to_string(), "unit graph error: duplicate unit a.service");
        assert_eq!(
            e.source().expect("chained").to_string(),
            "duplicate unit a.service"
        );
    }
}
