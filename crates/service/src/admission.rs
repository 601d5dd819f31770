//! Bounded admission control: at most `max_concurrent` requests execute while
//! at most `max_queued` wait behind them; anything beyond that is **shed
//! immediately** with a typed [`ServiceError::Overloaded`] instead of queuing
//! without bound (the classical open-loop overload failure: an unbounded queue
//! converts overload into unbounded latency for *every* request, a bounded one
//! converts it into fast, explicit rejection of the excess).
//!
//! Built on `Mutex` + `Condvar` only — no async runtime, matching the
//! workspace's std-only constraint. The mutex guards two counters and is held
//! for a few instructions per admit/release, never across query execution.

use crate::error::ServiceError;
use std::sync::{Condvar, Mutex, MutexGuard};
use wcoj_obs::unpoison;

#[derive(Debug, Default)]
struct GateState {
    /// Requests currently holding a permit.
    running: usize,
    /// Requests currently blocked in [`AdmissionGate::admit`].
    queued: usize,
}

/// The counting gate. [`AdmissionGate::admit`] blocks until a slot frees (if
/// queue space remains) and returns an RAII [`Permit`] that releases the slot
/// on drop.
#[derive(Debug)]
pub struct AdmissionGate {
    state: Mutex<GateState>,
    freed: Condvar,
    max_concurrent: usize,
    max_queued: usize,
}

impl AdmissionGate {
    /// A gate admitting `max_concurrent` concurrent holders with up to
    /// `max_queued` waiters. Both are clamped to at least allow one runner.
    pub fn new(max_concurrent: usize, max_queued: usize) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            max_concurrent: max_concurrent.max(1),
            max_queued,
        }
    }

    /// The gate's counters are two integers updated under the lock in single
    /// statements, so a panicking holder cannot leave them torn.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        unpoison(self.state.lock())
    }

    /// Acquire a permit: immediately if a slot is free, after waiting if the
    /// queue has room, or [`ServiceError::Overloaded`] without blocking if it
    /// does not.
    pub fn admit(&self) -> Result<Permit<'_>, ServiceError> {
        let mut state = self.lock();
        if state.running >= self.max_concurrent {
            if state.queued >= self.max_queued {
                return Err(ServiceError::Overloaded {
                    running: state.running,
                    queued: state.queued,
                });
            }
            state.queued += 1;
            while state.running >= self.max_concurrent {
                state = unpoison(self.freed.wait(state));
            }
            state.queued -= 1;
        }
        state.running += 1;
        Ok(Permit { gate: self })
    }

    /// `(running, queued)` right now — monitoring only, racy by nature.
    pub fn load(&self) -> (usize, usize) {
        let state = self.lock();
        (state.running, state.queued)
    }
}

/// An admitted request's slot; dropping it frees the slot and wakes one
/// waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        state.running = state.running.saturating_sub(1);
        drop(state);
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn admits_up_to_capacity_then_sheds_past_the_queue() {
        let gate = AdmissionGate::new(2, 1);
        let a = gate.admit().unwrap();
        let b = gate.admit().unwrap();
        assert_eq!(gate.load(), (2, 0));
        // both slots busy, queue empty → a third caller in another thread
        // queues; a fourth is shed immediately
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let _c = gate.admit().unwrap(); // queues until `a` drops
                gate.load()
            });
            // wait until the waiter is actually queued
            while gate.load().1 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            match gate.admit() {
                Err(ServiceError::Overloaded { running, queued }) => {
                    assert_eq!((running, queued), (2, 1));
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
            drop(a);
            let (running, _) = waiter.join().unwrap();
            assert_eq!(running, 2, "the waiter took the freed slot");
        });
        drop(b);
        assert_eq!(gate.load(), (0, 0));
    }

    #[test]
    fn permits_release_on_panic_and_the_gate_keeps_working() {
        let gate = AdmissionGate::new(1, 0);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _p = gate.admit().unwrap();
            panic!("holder dies");
        }));
        assert!(res.is_err());
        // the RAII drop ran during unwind and the poisoned mutex recovered
        assert_eq!(gate.load(), (0, 0));
        drop(gate.admit().unwrap());
    }

    #[test]
    fn concurrency_never_exceeds_the_cap() {
        let gate = AdmissionGate::new(3, 64);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let _p = gate.admit().unwrap();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert_eq!(gate.load(), (0, 0));
    }
}
