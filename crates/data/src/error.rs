//! Error types for the data layer.

use std::fmt;

/// Errors raised by catalog and schema operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A relation with this name already exists in the database.
    DuplicateRelation(String),
    /// A named relation was not found.
    UnknownRelation(String),
    /// A named attribute was not found.
    UnknownAttribute(String),
    /// A row's arity did not match its relation's schema.
    ArityMismatch {
        /// Expected arity (schema width).
        expected: usize,
        /// Actual row length.
        actual: usize,
    },
    /// Malformed textual input (ops files, wire requests) with a
    /// human-readable description of what went wrong and where.
    Malformed(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::DuplicateRelation(n) => write!(f, "relation {n:?} already exists"),
            DataError::UnknownRelation(n) => write!(f, "unknown relation {n:?}"),
            DataError::UnknownAttribute(n) => write!(f, "unknown attribute {n:?}"),
            DataError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "row arity {actual} does not match schema arity {expected}"
                )
            }
            DataError::Malformed(msg) => write!(f, "malformed input: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

/// Errors raised while *serving* requests against a resident encoding or
/// an engine session — the typed replacement for the panics a long-lived
/// server must never hit on untrusted input.
///
/// Everything reachable from a query or update request surfaces as one of
/// these variants (or a [`DataError`] wrapped in
/// [`TsensError::Data`]): a bad request yields an error response, not a
/// dead worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsensError {
    /// The request touched a relation that is not resident in a partial
    /// (one-shot) encoding — only the relations a one-shot query
    /// references are encoded.
    NotResident {
        /// Catalog index of the unresident relation.
        relation: usize,
    },
    /// An update was pushed at a partial (one-shot) encoding, which is a
    /// read-only snapshot.
    ReadOnlySession,
    /// A relation index outside the catalog.
    NoSuchRelation {
        /// The out-of-range index.
        relation: usize,
        /// Number of relations in the catalog.
        count: usize,
    },
    /// A worker pool was configured with zero threads (`TSENS_THREADS=0`
    /// or an explicit `threads = 0` argument) — the request-path
    /// replacement for the old `assert!(threads > 0)` panic.
    ZeroThreads,
    /// A top-k capped sensitivity run was asked for `k = 0` — capping
    /// needs at least one exact frequency.
    ZeroTopK,
    /// A multi-atom query whose atoms do not all join on their
    /// relations' shard-key columns was submitted to a sharded engine
    /// with more than one shard. Such joins span shards, so per-shard
    /// scatter-gather would undercount; partitioned cross-shard joins
    /// are an explicit non-goal — serve them from a single shard.
    CrossShardJoin {
        /// Human-readable description of the offending atom/column.
        detail: String,
    },
    /// A catalog/schema error (arity mismatch, unknown name, …).
    Data(DataError),
}

impl fmt::Display for TsensError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsensError::NotResident { relation } => {
                write!(
                    f,
                    "relation {relation} is not resident in this partial encoding"
                )
            }
            TsensError::ReadOnlySession => {
                write!(f, "partial (one-shot) sessions are read-only")
            }
            TsensError::NoSuchRelation { relation, count } => {
                write!(
                    f,
                    "relation index {relation} out of range (catalog has {count})"
                )
            }
            TsensError::ZeroThreads => {
                write!(f, "thread pool needs at least one thread (got 0)")
            }
            TsensError::ZeroTopK => write!(f, "top-k capping needs k ≥ 1 (got 0)"),
            TsensError::CrossShardJoin { detail } => {
                write!(
                    f,
                    "query joins across shards and cannot be scatter-gathered: {detail}"
                )
            }
            TsensError::Data(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TsensError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TsensError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for TsensError {
    fn from(e: DataError) -> Self {
        TsensError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            DataError::DuplicateRelation("R".into()).to_string(),
            "relation \"R\" already exists"
        );
        assert_eq!(
            DataError::ArityMismatch {
                expected: 2,
                actual: 3
            }
            .to_string(),
            "row arity 3 does not match schema arity 2"
        );
        assert!(DataError::UnknownRelation("X".into())
            .to_string()
            .contains("X"));
        assert!(DataError::UnknownAttribute("A".into())
            .to_string()
            .contains("A"));
    }

    #[test]
    fn tsens_error_display_and_wrapping() {
        assert!(TsensError::NotResident { relation: 3 }
            .to_string()
            .contains("not resident"));
        assert!(TsensError::ReadOnlySession
            .to_string()
            .contains("read-only"));
        assert!(TsensError::NoSuchRelation {
            relation: 9,
            count: 2
        }
        .to_string()
        .contains("out of range"));
        assert!(TsensError::CrossShardJoin {
            detail: "atom S joins on B, shard key is A".into()
        }
        .to_string()
        .contains("across shards"));
        let wrapped: TsensError = DataError::UnknownRelation("X".into()).into();
        assert!(wrapped.to_string().contains("X"));
    }
}
