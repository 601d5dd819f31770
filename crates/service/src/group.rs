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
//! with no tuning required. A leader never waits for a group to grow: a
//! coalescing sleep only added latency and cut throughput (EXPERIMENTS E10.4,
//! E42).
//!
//! Every service commits through this queue: an in-memory service's leader
//! runs the same validation and apply, and skips only the append and fsync.
//!
//! This module owns only the queueing fabric (queue, leadership flag, per-
//! caller outcome slots). The commit protocol itself — epoch CAS, WAL append,
//! single sync, in-memory apply — lives in [`crate::QueryService`], which has
//! the locks.

use crate::error::ServiceError;
use crate::service::WriteBatch;
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Mutex, MutexGuard};
use wcoj_obs::unpoison;

/// One enqueued batch: the payload plus its owner's outcome slot, a one-shot
/// channel the leader answers exactly once. (The leader answers its own slot
/// the same way — it just never has to block on it.)
#[derive(Debug)]
pub(crate) struct Pending {
    pub(crate) batch: WriteBatch,
    pub(crate) slot: SyncSender<Result<u64, ServiceError>>,
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
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        unpoison(self.state.lock())
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

    /// Whether a leader is active, and how many batches wait for its next
    /// drain.
    pub(crate) fn depth(&self) -> (bool, usize) {
        let state = self.lock();
        (state.leader_active, state.queue.len())
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
    use std::sync::mpsc::{sync_channel, Receiver};

    /// A pending insert of `(n, n)` and the receiving end of its slot.
    fn pending(n: u64) -> (Pending, Receiver<Result<u64, ServiceError>>) {
        let (slot, outcome) = sync_channel(1);
        let batch = WriteBatch::new().insert("E", vec![n, n]);
        (Pending { batch, slot }, outcome)
    }

    fn p(n: u64) -> Pending {
        pending(n).0
    }

    #[test]
    fn leadership_transfers_atomically_with_enqueue() {
        let q = GroupQueue::default();
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

    /// A follower blocks on its slot until the leader, on another thread,
    /// drains its batch and answers it.
    #[test]
    fn slots_rendezvous_across_threads() {
        let q = GroupQueue::default();
        let (own, own_outcome) = pending(1);
        assert!(q.enqueue(own));
        std::thread::scope(|scope| {
            let follower = scope.spawn(|| {
                let (mine, outcome) = pending(2);
                assert!(!q.enqueue(mine), "a leader is active");
                outcome.recv()
            });
            let mut group = Vec::new();
            while group.len() < 2 {
                group.extend(q.drain());
                std::thread::yield_now();
            }
            for (seq, member) in (7..).zip(group) {
                member.slot.send(Ok(seq)).unwrap();
            }
            assert_eq!(follower.join().unwrap(), Ok(Ok(8)));
        });
        assert_eq!(own_outcome.recv(), Ok(Ok(7)));
        assert!(!q.step_down_or_continue());
    }
}
