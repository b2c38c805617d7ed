//! Errors produced by query execution.

use std::fmt;

use topk_lists::source::SourceError;
use topk_lists::ListError;

/// Errors raised when validating or executing a top-k query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopKError {
    /// `k` must satisfy `1 ≤ k ≤ n`.
    InvalidK {
        /// The requested `k`.
        k: usize,
        /// The number of items per list.
        n: usize,
    },
    /// The algorithm does not support the query's scoring function (e.g.
    /// TPUT's uniform threshold is only sound for the sum).
    UnsupportedScoring {
        /// The algorithm that rejected the query.
        algorithm: &'static str,
        /// The name of the unsupported scoring function.
        scoring: String,
    },
    /// The statistics handed to the planner were collected at an older
    /// epoch than the sources being queried: lists are updatable, and
    /// planning from stale statistics silently picks wrong algorithms.
    /// Refresh with
    /// [`DatabaseStats::ensure_fresh`](crate::stats::DatabaseStats::ensure_fresh)
    /// (or re-collect) and retry.
    StaleStats {
        /// The first list whose epoch disagrees.
        list: usize,
        /// The epoch the statistics were collected at.
        stats_epoch: u64,
        /// The epoch the source currently reports.
        source_epoch: u64,
    },
    /// An error bubbled up from the sorted-list substrate.
    List(ListError),
    /// A backend list access failed (disk IO, corrupt page, truncated
    /// file). Fallible backends raise this via the fail-stop contract
    /// ([`SourceError::raise`]); [`run_on`](crate::TopKAlgorithm::run_on)
    /// converts the unwind into this variant so callers see a typed
    /// `Err`, never a panic.
    Source(SourceError),
}

impl fmt::Display for TopKError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopKError::InvalidK { k, n } => {
                write!(f, "k must satisfy 1 <= k <= n, got k = {k} with n = {n}")
            }
            TopKError::UnsupportedScoring { algorithm, scoring } => {
                write!(
                    f,
                    "{algorithm} does not support the '{scoring}' scoring function"
                )
            }
            TopKError::StaleStats {
                list,
                stats_epoch,
                source_epoch,
            } => {
                write!(
                    f,
                    "statistics are stale: list {list} was collected at epoch {stats_epoch} but \
                     the source reports epoch {source_epoch}"
                )
            }
            TopKError::List(err) => write!(f, "list error: {err}"),
            TopKError::Source(err) => write!(f, "backend error: {err}"),
        }
    }
}

impl std::error::Error for TopKError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TopKError::List(err) => Some(err),
            TopKError::Source(err) => Some(err),
            TopKError::InvalidK { .. }
            | TopKError::UnsupportedScoring { .. }
            | TopKError::StaleStats { .. } => None,
        }
    }
}

impl From<ListError> for TopKError {
    fn from(err: ListError) -> Self {
        TopKError::List(err)
    }
}

impl From<SourceError> for TopKError {
    fn from(err: SourceError) -> Self {
        TopKError::Source(err)
    }
}

/// The single catch point of the fail-stop contract: runs `body`, turning
/// an unwind with a [`SourceError`] payload ([`SourceError::raise`]) into
/// [`TopKError::Source`] and re-raising any other unwind (genuine bugs).
///
/// `AssertUnwindSafe` is sound because the contract requires a `reset` of
/// the failed sources before reuse, so no broken invariant is observed.
pub(crate) fn catch_source_error<T>(
    body: impl FnOnce() -> Result<T, TopKError>,
) -> Result<T, TopKError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(result) => result,
        Err(payload) => match payload.downcast::<SourceError>() {
            Ok(err) => Err(TopKError::Source(*err)),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TopKError::InvalidK { k: 0, n: 10 };
        assert!(e.to_string().contains("k = 0"));
        let e: TopKError = ListError::NoLists.into();
        assert!(e.to_string().contains("list error"));
    }

    #[test]
    fn source_chains_to_list_errors() {
        use std::error::Error;
        let e: TopKError = ListError::EmptyList.into();
        assert!(e.source().is_some());
        assert!(TopKError::InvalidK { k: 1, n: 0 }.source().is_none());
    }

    #[test]
    fn backend_errors_wrap_and_chain() {
        use std::error::Error;
        let e: TopKError = SourceError::new("page read", "injected failure").into();
        assert!(e.to_string().contains("backend error"));
        assert!(e.to_string().contains("page read"));
        assert!(e.source().is_some());
    }
}
