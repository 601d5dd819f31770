//! Errors produced by the execution layer.

use wcoj_bounds::BoundError;
use wcoj_query::database::DatabaseError;
use wcoj_query::QueryError;
use wcoj_storage::StorageError;

/// Errors raised while planning or executing a join.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Binding the database to the query failed (missing relation, arity mismatch).
    Database(String),
    /// A storage-level operation failed.
    Storage(StorageError),
    /// The planner's bound computation failed.
    Bound(String),
    /// A query-level error.
    Query(QueryError),
    /// The supplied variable order is not a permutation of the query variables.
    InvalidOrder(Vec<usize>),
    /// Execution was cancelled cooperatively — the caller's
    /// [`crate::exec::CancelToken`] fired (explicit cancel or deadline) and
    /// the engine stopped at the next check point, discarding partial output.
    Canceled,
    /// A morsel worker thread panicked (a bug, not a property of the query);
    /// the message names the worker and carries its panic payload. Partial
    /// output is discarded.
    WorkerPanicked(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Database(e) => write!(f, "database error: {e}"),
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::Bound(e) => write!(f, "bound error: {e}"),
            ExecError::Query(e) => write!(f, "query error: {e}"),
            ExecError::InvalidOrder(o) => write!(f, "invalid variable order {o:?}"),
            ExecError::Canceled => write!(f, "execution cancelled"),
            ExecError::WorkerPanicked(e) => write!(f, "join worker panicked: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<DatabaseError> for ExecError {
    fn from(e: DatabaseError) -> Self {
        ExecError::Database(e.to_string())
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<BoundError> for ExecError {
    fn from(e: BoundError) -> Self {
        ExecError::Bound(e.to_string())
    }
}

impl From<QueryError> for ExecError {
    fn from(e: QueryError) -> Self {
        ExecError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(ExecError::InvalidOrder(vec![0, 0])
            .to_string()
            .contains("[0, 0]"));
        let e: ExecError = StorageError::NoJoinAttributes.into();
        assert!(e.to_string().contains("storage"));
        let e: ExecError = QueryError::EmptyQuery.into();
        assert!(e.to_string().contains("query"));
        assert!(ExecError::Bound("x".into()).to_string().contains('x'));
        assert!(ExecError::Database("y".into()).to_string().contains('y'));
        assert!(ExecError::Canceled.to_string().contains("cancelled"));
        assert!(ExecError::WorkerPanicked("worker 1: z".into())
            .to_string()
            .contains("worker 1: z"));
    }
}
