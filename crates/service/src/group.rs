//! The group-commit coordinator: one fsync for many concurrent batches.
//!
//! A write path where every [`crate::WriteBatch`] pays its own `fsync` is
//! fsync-bound (E9.1): durable ingest caps near the disk's barrier rate
//! (~4.5k batches/s) while WAL replay sustains millions of ops/s. The classic
//! fix is **leader-based group commit**: concurrent committers enqueue their
//! batches; whichever caller finds no leader active becomes the leader, drains
//! the whole queue, validates + logs + applies every batch, and issues a
//! *single* fsync for the group, then fills each member's outcome slot. While
//! the leader is inside its fsync, new arrivals pile up in the queue — so the
//! batching is **self-clocking**: the slower the disk, the larger the groups,
//! with no tuning required. An optional coalescing window
//! (`ServiceConfig::group_commit_window`) lets the leader wait a bounded extra
//! moment to grow the group — a latency-for-throughput trade that defaults to
//! off.
//!
//! This module owns only the queueing fabric (queue, leadership flag, per-
//! caller outcome slots). The commit protocol itself — epoch CAS, WAL append,
//! single sync, in-memory apply — lives in [`crate::QueryService`], which has
//! the locks.

use crate::error::ServiceError;
use crate::service::WriteBatch;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// One caller's rendezvous: the leader fills `result` exactly once and
/// notifies; the owner waits on `ready`. (The leader's own slot is filled the
/// same way — it just never has to block on it.)
#[derive(Debug, Default)]
pub(crate) struct Slot {
    result: Mutex<Option<Result<u64, ServiceError>>>,
    ready: Condvar,
}

impl Slot {
    /// Deliver the outcome (leader side).
    pub(crate) fn fill(&self, outcome: Result<u64, ServiceError>) {
        let mut guard = match self.result.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.result.clear_poison();
                poisoned.into_inner()
            }
        };
        debug_assert!(guard.is_none(), "a slot is filled exactly once");
        *guard = Some(outcome);
        self.ready.notify_all();
    }

    /// Block until the outcome arrives (member side).
    pub(crate) fn wait(&self) -> Result<u64, ServiceError> {
        let mut guard = match self.result.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.result.clear_poison();
                poisoned.into_inner()
            }
        };
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = match self.ready.wait(guard) {
                Ok(g) => g,
                Err(poisoned) => {
                    self.result.clear_poison();
                    poisoned.into_inner()
                }
            };
        }
    }
}

/// One enqueued batch: the payload plus its owner's outcome slot.
#[derive(Debug)]
pub(crate) struct Pending {
    pub(crate) batch: WriteBatch,
    pub(crate) slot: Arc<Slot>,
}

#[derive(Debug, Default)]
struct QueueState {
    queue: VecDeque<Pending>,
    /// Whether some caller is currently the leader (inside the commit
    /// protocol). Exactly one caller holds leadership at a time; it keeps
    /// draining until the queue is empty, then steps down.
    leader_active: bool,
}

/// The commit queue shared by all writers of one service.
#[derive(Debug, Default)]
pub(crate) struct GroupQueue {
    state: Mutex<QueueState>,
}

impl GroupQueue {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                // the queue holds only data (no invariants spanning the
                // guard), and every enqueued slot is eventually filled by a
                // leader or its enqueuer — recovering the mutex is safe
                self.state.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Enqueue `pending`; returns whether the caller must act as leader
    /// (true exactly when no leader was active — leadership transfers here,
    /// atomically with the enqueue).
    pub(crate) fn enqueue(&self, pending: Pending) -> bool {
        let mut state = self.lock();
        state.queue.push_back(pending);
        if state.leader_active {
            false
        } else {
            state.leader_active = true;
            true
        }
    }

    /// Drain every queued batch (leader only). Arrival order is preserved.
    pub(crate) fn drain(&self) -> Vec<Pending> {
        let mut state = self.lock();
        debug_assert!(state.leader_active, "only the leader drains");
        state.queue.drain(..).collect()
    }

    /// Re-enqueue deferred members at the **front**, preserving their mutual
    /// order, so the next round validates them first (see the deferral rule
    /// in [`crate::QueryService::apply`]).
    pub(crate) fn requeue_front(&self, deferred: Vec<Pending>) {
        let mut state = self.lock();
        for pending in deferred.into_iter().rev() {
            state.queue.push_front(pending);
        }
    }

    /// Step down if the queue is empty; returns whether another round is
    /// needed (queue non-empty — the caller remains leader and must drain
    /// again). Stepping down and a later arrival's leadership claim are
    /// serialized by the queue lock, so no batch is ever left behind.
    pub(crate) fn step_down_or_continue(&self) -> bool {
        let mut state = self.lock();
        debug_assert!(state.leader_active, "only the leader steps down");
        if state.queue.is_empty() {
            state.leader_active = false;
            false
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leadership_transfers_atomically_with_enqueue() {
        let q = GroupQueue::default();
        let p = |n: u64| Pending {
            batch: WriteBatch::new().insert("E", vec![n, n]),
            slot: Arc::new(Slot::default()),
        };
        assert!(q.enqueue(p(1)), "first arrival leads");
        assert!(!q.enqueue(p(2)), "second follows");
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert!(!q.step_down_or_continue(), "empty queue: stepped down");
        assert!(q.enqueue(p(3)), "after step-down the next arrival leads");
        assert!(!q.enqueue(p(4)));
        let first = q.drain();
        assert_eq!(first.len(), 2);
        assert!(!q.enqueue(p(5)), "leader still active: follower");
        assert!(q.step_down_or_continue(), "new arrival: leader continues");
        assert_eq!(q.drain().len(), 1);
        assert!(!q.step_down_or_continue());
    }

    #[test]
    fn requeue_front_preserves_order() {
        let q = GroupQueue::default();
        let p = |n: u64| Pending {
            batch: WriteBatch::new().insert("E", vec![n, n]),
            slot: Arc::new(Slot::default()),
        };
        assert!(q.enqueue(p(9)));
        q.requeue_front(vec![p(1), p(2)]);
        let drained = q.drain();
        let first = |pend: &Pending| match &pend.batch.ops()[0] {
            wcoj_storage::WalOp::Insert { tuple, .. } => tuple[0],
            _ => unreachable!(),
        };
        assert_eq!(drained.iter().map(first).collect::<Vec<_>>(), [1, 2, 9]);
        assert!(!q.step_down_or_continue());
    }

    #[test]
    fn slots_rendezvous_across_threads() {
        let slot = Arc::new(Slot::default());
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        slot.fill(Ok(7));
        assert_eq!(waiter.join().unwrap().unwrap(), 7);
    }
}
