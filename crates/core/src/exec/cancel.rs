//! Cooperative cancellation for query execution.
//!
//! A [`CancelToken`] carries a shared cancel flag and an optional deadline.
//! The execution layer polls it at natural chunk boundaries — between
//! [`CANCEL_CHUNK`]-value slices of the first join variable's extension set —
//! and returns [`crate::ExecError::Canceled`], discarding partial output.
//! Polling at chunk boundaries keeps the hot loops untouched: the engines'
//! inner recursion never sees the token, so cancellable and plain execution
//! produce bit-identical rows and work counters when the token never fires
//! (`core/tests/slicing.rs` asserts it over the differential suite).
//!
//! The check is cooperative, so latency is bounded by one slice's subtrees —
//! a skewed heavy hitter defers the stop until its slice completes.

use crate::error::ExecError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cancellable execution slices the first join variable's extension set
/// this many values at a time and polls its token between slices. Slice
/// boundaries cannot affect rows or counters, so this only bounds
/// cancellation latency (one slice's subtrees).
pub const CANCEL_CHUNK: usize = 64;

/// A shared cancellation handle: explicit [`CancelToken::cancel`] calls and an
/// optional deadline both trip it. Clones share the flag (an `Arc`), so one
/// handle can be kept by the requesting side while another travels into the
/// execution — cancelling either cancels the run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only fires on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that also fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// A token that fires `timeout` from now (convenience over
    /// [`CancelToken::with_deadline`]).
    pub fn expiring_in(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Trip the cancel flag. Every clone of this token observes it; in-flight
    /// executions stop at their next check point.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired (explicit cancel or deadline passed).
    pub fn is_canceled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The deadline this token carries, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// [`ExecError::Canceled`] if the token has fired, `Ok` otherwise — the
    /// check-point form used by the execution layer.
    pub fn check(&self) -> Result<(), ExecError> {
        if self.is_canceled() {
            Err(ExecError::Canceled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_canceled() && !u.is_canceled());
        assert!(t.check().is_ok());
        u.cancel();
        assert!(t.is_canceled(), "clones share the flag");
        assert_eq!(t.check().unwrap_err(), ExecError::Canceled);
        assert!(t.deadline().is_none());
    }

    #[test]
    fn deadline_fires_without_explicit_cancel() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_canceled(), "past deadline fires immediately");
        let far = CancelToken::expiring_in(Duration::from_secs(3600));
        assert!(!far.is_canceled());
        assert!(far.deadline().is_some());
        far.cancel();
        assert!(far.is_canceled(), "explicit cancel still works");
    }
}
