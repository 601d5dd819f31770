//! Morsel-driven parallel WCOJ execution (à la HyPer's morsel-driven parallelism,
//! Leis et al. 2014, applied to the Generic Join / Leapfrog Triejoin engines).
//!
//! # Architecture
//!
//! This is the one place library code spawns threads. The access structures
//! (tries / delta views) are built **once**, serially, and shared immutably
//! (`Sync`) across workers. The driver computes the first join variable's
//! extension set — the multi-way intersection of the root sibling groups, exactly
//! what serial execution computes first — and partitions it into contiguous
//! **morsels** (small value ranges, several per thread so that skewed values cannot
//! starve the schedule). `std::thread::scope` workers then claim morsels from a
//! shared atomic counter; each worker owns
//!
//! * a **private cursor set**, a clone of the driver's (cursors are
//!   `Send + Clone`: they borrow the shared trie and own their stack),
//! * a **private [`WorkCounter`]**, and
//! * when the run is traced, a **private [`LevelRecorder`]**,
//!
//! and runs the *serial engine body* (`join_extensions`) on each claimed morsel,
//! into one [`ColumnSink`] per morsel. No locks are taken anywhere: each worker
//! *returns* its sinks, counter, tallies and scheduling report through its join
//! handle, and a worker that panics surfaces as [`ExecError::WorkerPanicked`].
//!
//! # Placement
//!
//! Worker `w` pins to CPU [`wcoj_storage::topology::worker_cpu`]`(w)`, the
//! `(w mod k)`-th of the `k` CPUs the process may run on (advisory: a failed
//! pin is ignored). Placement
//! changes *where* a worker runs, never the morsel boundaries — so results and
//! merged counters stay bit-identical to serial execution.
//!
//! # Determinism
//!
//! Results are concatenated in morsel order — one append of the deepest column,
//! the prefix runs spliced — and morsels are ascending ranges of the first
//! variable whose outputs are each sorted, so the output tuple sequence is
//! identical to serial execution regardless of scheduling; `ColumnSink::concat`
//! checks each morsel boundary, so the merged sink is verified canonical too.
//! Work counters are deterministic too: the driver's intersection is counted exactly
//! once, per-value re-positioning is uncounted (`TrieCursor::reposition`), and all
//! counted work below level 0 is a pure function of the value being extended — so the
//! merged counters equal the serial engine's for *any* thread count. The differential
//! test suite asserts both properties for threads ∈ {1, 2, 4, 8}.

use super::engine::{first_extension_set, join_extensions, level_scratch, InteriorStep, JoinCtx};
use super::{CancelToken, ColumnSink};
use crate::error::ExecError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use wcoj_obs::{LevelRecorder, MorselTrace, WorkerTrace};
use wcoj_storage::topology;
use wcoj_storage::{TrieCursor, Value, WorkCounter};

/// Morsels handed out per worker thread: small enough that a skewed heavy-hitter
/// value cannot leave threads idle, large enough that the scheduling atomics are
/// noise.
const MORSELS_PER_THREAD: usize = 8;

/// Run the engine skeleton with step `S` over `threads` workers. The driver
/// intersects the level-0 groups on `cursors` (one per atom, positioned at the
/// root), which leaves the level-0 participants open, and each worker runs on
/// a private clone of that set. Returns the result tuples in the same order as
/// serial execution; merged worker counters and the driver's intersection work
/// are recorded into `ctx.counter`, and the scheduling report into `morsels`
/// when tracing. A `token` is polled in every
/// worker's morsel claim loop: once it fires, workers stop claiming, the scope
/// drains, and the call returns [`ExecError::Canceled`] (partial output is
/// discarded) — with a token that never fires, rows and counters are
/// bit-identical to a token-less run.
pub(crate) fn morsel_join<S: InteriorStep>(
    cursors: &mut [TrieCursor<'_>],
    participants: &[Vec<usize>],
    threads: usize,
    ctx: JoinCtx<'_>,
    token: Option<&CancelToken>,
    morsels: Option<&OnceLock<MorselTrace>>,
) -> Result<ColumnSink, ExecError> {
    debug_assert!(threads >= 1);
    if let Some(t) = token {
        t.check()?;
    }
    // The driver computes the extension set once, charging the intersection work to
    // the main counter — the same charge serial execution makes.
    let extensions = first_extension_set(cursors, &participants[0], ctx);
    let cursors: &[TrieCursor<'_>] = cursors;
    let morsel_len = extensions
        .len()
        .div_ceil(threads * MORSELS_PER_THREAD)
        .max(1);
    let slices: Vec<&[Value]> = extensions.chunks(morsel_len).collect();
    let next_morsel = AtomicUsize::new(0);

    // one `(morsel id, sink)` list, private counter and scheduling report per
    // worker, handed back through its join handle; an empty extension set
    // spawns nothing
    let workers = if slices.is_empty() { 0 } else { threads };
    let joined: Vec<std::thread::Result<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next_morsel, slices) = (&next_morsel, &slices);
                scope.spawn(move || {
                    let cpu = topology::worker_cpu(w);
                    let pinned = topology::pin_current_thread(cpu);
                    let local = WorkCounter::new();
                    // a recorder has one writer: tallies go to a private one too
                    let levels = ctx.trace.map(|rec| LevelRecorder::new(rec.len()));
                    let ctx = JoinCtx {
                        counter: &local,
                        trace: levels.as_ref(),
                    };
                    let mut cursors = cursors.to_vec();
                    let mut report = WorkerTrace {
                        claimed: 0,
                        pin: pinned.then_some(cpu),
                    };
                    let mut produced: Vec<(usize, ColumnSink)> = Vec::new();
                    let mut scratch = level_scratch(participants);
                    loop {
                        let m = next_morsel.fetch_add(1, Ordering::Relaxed);
                        if m >= slices.len() {
                            break;
                        }
                        // cooperative cancellation: stop claiming once the token
                        // fires; the partial output is discarded by the caller
                        if token.is_some_and(|t| t.is_canceled()) {
                            break;
                        }
                        report.claimed += 1;
                        let mut sink = ColumnSink::new(participants.len());
                        join_extensions::<S>(
                            &mut cursors,
                            participants,
                            slices[m],
                            ctx,
                            &mut sink,
                            &mut scratch,
                        );
                        produced.push((m, sink));
                    }
                    (produced, local, levels, report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut per_morsel = Vec::with_capacity(slices.len());
    let mut reports = Vec::with_capacity(workers);
    for (w, outcome) in joined.into_iter().enumerate() {
        let (produced, local, levels, report) =
            outcome.map_err(|panic| ExecError::WorkerPanicked(panic_message(w, &*panic)))?;
        per_morsel.extend(produced);
        ctx.counter.merge(&local);
        if let (Some(rec), Some(levels)) = (ctx.trace, levels) {
            rec.absorb(&levels);
        }
        reports.push(report);
    }
    if let Some(slot) = morsels {
        // one execution runs one morsel join, so the slot is still empty
        let _ = slot.set(MorselTrace {
            morsels: slices.len() as u64,
            workers: reports,
        });
    }
    if let Some(t) = token {
        t.check()?; // cancelled mid-run: the returned output is partial
    }
    per_morsel.sort_unstable_by_key(|&(m, _)| m);
    let sinks = per_morsel.into_iter().map(|(_, sink)| sink).collect();
    Ok(ColumnSink::concat(participants.len(), sinks))
}

/// `worker w: <payload>` for the payload types `panic!` produces.
fn panic_message(w: usize, panic: &(dyn std::any::Any + Send)) -> String {
    let what = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("worker {w}: {what}")
}

#[cfg(test)]
mod tests {
    use super::super::driver::run_cursors;
    use super::super::engine::{KernelExtension, LeapfrogRing};
    use super::*;
    use wcoj_storage::{Relation, Trie};

    fn ctx(counter: &WorkCounter) -> JoinCtx<'_> {
        JoinCtx {
            counter,
            trace: None,
        }
    }

    fn triangle_tries() -> [Trie; 3] {
        let r = Relation::from_pairs("A", "B", (0..200u64).map(|i| (i % 20, (i * 7) % 23)));
        let s = Relation::from_pairs("B", "C", (0..200u64).map(|i| ((i * 7) % 23, (i * 5) % 19)));
        let t = Relation::from_pairs("A", "C", (0..200u64).map(|i| (i % 20, (i * 5) % 19)));
        [
            Trie::build(&r, &["A", "B"]).unwrap(),
            Trie::build(&s, &["B", "C"]).unwrap(),
            Trie::build(&t, &["A", "C"]).unwrap(),
        ]
    }

    fn cursors(tries: &[Trie]) -> Vec<TrieCursor<'_>> {
        tries.iter().map(Trie::cursor).collect()
    }

    #[test]
    fn morsel_join_matches_serial_rows_and_counters() {
        let tries = triangle_tries();
        let participants = vec![vec![0, 2], vec![0, 1], vec![1, 2]];

        let serial_counter = WorkCounter::new();
        let serial = run_cursors::<KernelExtension>(
            &mut cursors(&tries),
            &participants,
            1,
            ctx(&serial_counter),
            None,
            None,
        )
        .unwrap();
        assert!(!serial.is_empty(), "fixture should produce triangles");
        assert!(serial.is_canonical());
        let serial = serial.into_columns();

        for threads in [1, 2, 4, 8] {
            let parallel_counter = WorkCounter::new();
            let out = morsel_join::<KernelExtension>(
                &mut cursors(&tries),
                &participants,
                threads,
                ctx(&parallel_counter),
                None,
                None,
            )
            .unwrap();
            assert!(out.is_canonical(), "verified morsels concatenate verified");
            assert_eq!(out.into_columns(), serial, "rows with {threads} threads");
            assert_eq!(
                parallel_counter, serial_counter,
                "work counters with {threads} threads"
            );
        }
    }

    #[test]
    fn empty_extension_set_spawns_nothing() {
        let r = Relation::from_pairs("A", "B", vec![(1, 2)]);
        let s = Relation::from_pairs("A", "C", vec![(9, 1)]); // A-sets disjoint
        let tries = [
            Trie::build(&r, &["A", "B"]).unwrap(),
            Trie::build(&s, &["A", "C"]).unwrap(),
        ];
        let w = WorkCounter::new();
        let slot = OnceLock::new();
        let out = morsel_join::<LeapfrogRing>(
            &mut cursors(&tries),
            &[vec![0, 1], vec![0], vec![1]],
            4,
            ctx(&w),
            None,
            Some(&slot),
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(w.output_tuples(), 0);
        let report = slot
            .into_inner()
            .expect("the scheduling report is deposited");
        assert_eq!((report.morsels, report.workers.len()), (0, 0));
    }

    /// A worker that dies mid-run becomes a typed error naming it — never a
    /// poisoned-lock panic in the driver. Here every worker indexes a cursor
    /// the deepest level names but the set lacks; the driver's level-0
    /// intersection does not reach it.
    #[test]
    fn worker_panic_is_a_typed_error() {
        let tries = triangle_tries();
        let participants = vec![vec![0, 2], vec![0, 1], vec![1, 3]];
        let w = WorkCounter::new();
        let err = morsel_join::<KernelExtension>(
            &mut cursors(&tries),
            &participants,
            2,
            ctx(&w),
            None,
            None,
        )
        .unwrap_err();
        let ExecError::WorkerPanicked(message) = err else {
            panic!("expected a worker panic, got {err:?}");
        };
        assert!(
            message.starts_with("worker 0: index out of bounds"),
            "{message}"
        );
    }
}
