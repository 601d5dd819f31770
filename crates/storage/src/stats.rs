//! Work counters.
//!
//! The theorems of the paper bound *work* — the number of elementary operations such
//! as set-intersection steps, index probes, and intermediate tuples materialized — not
//! wall-clock time. Every engine in `wcoj-core` threads a [`WorkCounter`] through its
//! execution so tests and benchmarks can verify the analyses directly (e.g. Theorem
//! 5.1's `O(n · |DC| · log|D| · (|D| + 2^bound))` or the `Õ(N + √(|R||S||T|))` claim
//! for the triangle algorithms of Section 2).
//!
//! Two kinds of counter exist:
//!
//! * [`WorkCounter`] — the per-query (or per-worker) accumulator, `Cell`-based so
//!   read-only operator code can record work without plumbing `&mut` everywhere.
//!   Parallel workers each own a private `WorkCounter`; the driver sums them with
//!   [`WorkCounter::merge`] / `+=`, which is associative and commutative, so the
//!   merged totals are independent of scheduling.
//! * [`CursorWork`] — plain-integer tallies owned *by a cursor*. Cursors must be
//!   `Send + Clone` so parallel workers can hold private stacks, which rules out a
//!   shared `&WorkCounter` inside the cursor; instead each cursor accumulates into
//!   its own `CursorWork` and the engine drains it into the run's `WorkCounter` via
//!   [`crate::TrieCursor::take_work`].

use crate::kernels::KernelKind;
use std::cell::Cell;
use std::ops::AddAssign;

/// Plain-integer work tallies accumulated privately by a cursor and drained into a
/// [`WorkCounter`] by the engine (see [`crate::TrieCursor::take_work`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorWork {
    /// Index probes: galloping-search probes performed by `seek`.
    pub probes: u64,
    /// Set-intersection steps: `next` advances within a sibling group.
    pub intersect_steps: u64,
    /// Element comparisons performed by the adaptive linear-scan `seek` path on
    /// short sibling groups (the galloping path records `probes` instead).
    pub comparisons: u64,
}

impl CursorWork {
    /// Whether no work has been recorded.
    pub fn is_zero(&self) -> bool {
        self.probes == 0 && self.intersect_steps == 0 && self.comparisons == 0
    }
}

impl AddAssign for CursorWork {
    fn add_assign(&mut self, rhs: CursorWork) {
        self.probes += rhs.probes;
        self.intersect_steps += rhs.intersect_steps;
        self.comparisons += rhs.comparisons;
    }
}

/// Counters of elementary work performed by an operator or a whole query plan.
///
/// Uses interior mutability (`Cell`) so that read-only operator code can record work
/// without plumbing `&mut` everywhere.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkCounter {
    intersect_steps: Cell<u64>,
    probes: Cell<u64>,
    intermediate_tuples: Cell<u64>,
    output_tuples: Cell<u64>,
    comparisons: Cell<u64>,
    kernel_merge: Cell<u64>,
    kernel_gallop: Cell<u64>,
    kernel_bitmap: Cell<u64>,
}

impl WorkCounter {
    /// A fresh counter with all tallies at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` steps of set-intersection work (iterations of the smaller set,
    /// leapfrog seeks, galloping probes, ...).
    #[inline]
    pub fn add_intersect_steps(&self, n: u64) {
        self.intersect_steps.set(self.intersect_steps.get() + n);
    }

    /// Record `n` index probes (hash lookups or binary searches).
    #[inline]
    pub fn add_probes(&self, n: u64) {
        self.probes.set(self.probes.get() + n);
    }

    /// Record `n` intermediate tuples materialized by a plan (the quantity that blows
    /// up for one-pair-at-a-time plans on skewed inputs).
    #[inline]
    pub fn add_intermediate(&self, n: u64) {
        self.intermediate_tuples
            .set(self.intermediate_tuples.get() + n);
    }

    /// Record `n` output tuples emitted.
    #[inline]
    pub fn add_output(&self, n: u64) {
        self.output_tuples.set(self.output_tuples.get() + n);
    }

    /// Record `n` element comparisons (the merge/bitmap intersection
    /// kernels, linear-scan seeks, ...).
    #[inline]
    pub fn add_comparisons(&self, n: u64) {
        self.comparisons.set(self.comparisons.get() + n);
    }

    /// Record one intersection-kernel invocation of the given kind — the
    /// observability hook that makes the adaptive policy's choices auditable.
    /// Kernel invocation counts are a *breakdown*, not work: they are excluded
    /// from [`WorkCounter::total_work`].
    #[inline]
    pub fn add_kernel(&self, kind: KernelKind) {
        let cell = match kind {
            KernelKind::Merge => &self.kernel_merge,
            KernelKind::Gallop => &self.kernel_gallop,
            KernelKind::Bitmap => &self.kernel_bitmap,
        };
        cell.set(cell.get() + 1);
    }

    /// Drain a cursor's private tallies into this counter.
    pub fn absorb(&self, w: CursorWork) {
        self.add_probes(w.probes);
        self.add_intersect_steps(w.intersect_steps);
        self.add_comparisons(w.comparisons);
    }

    /// Total set-intersection steps recorded.
    #[inline]
    pub fn intersect_steps(&self) -> u64 {
        self.intersect_steps.get()
    }

    /// Total index probes recorded.
    #[inline]
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    /// Total intermediate tuples recorded.
    #[inline]
    pub fn intermediate_tuples(&self) -> u64 {
        self.intermediate_tuples.get()
    }

    /// Total output tuples recorded.
    #[inline]
    pub fn output_tuples(&self) -> u64 {
        self.output_tuples.get()
    }

    /// Total comparisons recorded.
    #[inline]
    pub fn comparisons(&self) -> u64 {
        self.comparisons.get()
    }

    /// Delta-log merge steps: always 0. A join reads a
    /// [`crate::delta::DeltaRelation`] through the trie of its one run, so it
    /// merges nothing, and no counter records merge steps. The getter stays
    /// because the request benchmark, the perf record's `delta_merge` column
    /// and the trace's `delta_merge` key read it.
    #[inline]
    pub fn delta_merge(&self) -> u64 {
        0
    }

    /// Merge-kernel invocations recorded.
    #[inline]
    pub fn kernel_merge(&self) -> u64 {
        self.kernel_merge.get()
    }

    /// Gallop-kernel invocations recorded.
    #[inline]
    pub fn kernel_gallop(&self) -> u64 {
        self.kernel_gallop.get()
    }

    /// Bitmap-kernel invocations recorded.
    #[inline]
    pub fn kernel_bitmap(&self) -> u64 {
        self.kernel_bitmap.get()
    }

    /// Total intersection-kernel invocations of any kind.
    #[inline]
    pub fn kernel_calls(&self) -> u64 {
        self.kernel_merge.get() + self.kernel_gallop.get() + self.kernel_bitmap.get()
    }

    /// Grand total of all recorded work, used as the "total work" measure in
    /// experiments comparing engines.
    pub fn total_work(&self) -> u64 {
        self.intersect_steps.get()
            + self.probes.get()
            + self.intermediate_tuples.get()
            + self.output_tuples.get()
            + self.comparisons.get()
    }

    /// Merge the tallies of `other` into `self`. Associative and commutative, so
    /// parallel workers' counters sum losslessly in any order.
    pub fn merge(&self, other: &WorkCounter) {
        self.add_intersect_steps(other.intersect_steps());
        self.add_probes(other.probes());
        self.add_intermediate(other.intermediate_tuples());
        self.add_output(other.output_tuples());
        self.add_comparisons(other.comparisons());
        self.kernel_merge
            .set(self.kernel_merge.get() + other.kernel_merge.get());
        self.kernel_gallop
            .set(self.kernel_gallop.get() + other.kernel_gallop.get());
        self.kernel_bitmap
            .set(self.kernel_bitmap.get() + other.kernel_bitmap.get());
    }
}

impl AddAssign<&WorkCounter> for WorkCounter {
    fn add_assign(&mut self, rhs: &WorkCounter) {
        self.merge(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let mut w = WorkCounter::new();
        w.add_intersect_steps(3);
        w.add_probes(2);
        w.add_intermediate(5);
        w.add_output(1);
        w.add_comparisons(4);
        assert_eq!(w.intersect_steps(), 3);
        assert_eq!(w.probes(), 2);
        assert_eq!(w.intermediate_tuples(), 5);
        assert_eq!(w.output_tuples(), 1);
        assert_eq!(w.comparisons(), 4);
        assert_eq!(w.total_work(), 15);
        // taking the counter leaves a zeroed one behind
        assert_eq!(std::mem::take(&mut w).total_work(), 15);
        assert_eq!(w, WorkCounter::new());
    }

    #[test]
    fn merge_adds_tallies() {
        let a = WorkCounter::new();
        let b = WorkCounter::new();
        a.add_probes(2);
        b.add_probes(3);
        b.add_output(7);
        a.merge(&b);
        assert_eq!(a.probes(), 5);
        assert_eq!(a.output_tuples(), 7);
        // merging does not mutate the source
        assert_eq!(b.probes(), 3);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |i: u64, p: u64, m: u64, o: u64, c: u64| {
            let w = WorkCounter::new();
            w.add_intersect_steps(i);
            w.add_probes(p);
            w.add_intermediate(m);
            w.add_output(o);
            w.add_comparisons(c);
            w
        };
        let a = mk(1, 2, 3, 4, 5);
        let b = mk(10, 20, 30, 40, 50);
        let c = mk(7, 0, 9, 0, 11);

        // (a + b) + c
        let mut left = a.clone();
        left += &b;
        left += &c;
        // a + (b + c)
        let mut bc = b.clone();
        bc += &c;
        let mut right = a.clone();
        right += &bc;
        assert_eq!(left, right);

        // commutativity: c + b + a
        let mut rev = c.clone();
        rev += &b;
        rev += &a;
        assert_eq!(left, rev);
    }

    #[test]
    fn clone_snapshots_current_state() {
        let a = WorkCounter::new();
        a.add_comparisons(9);
        let c = a.clone();
        a.add_comparisons(1);
        assert_eq!(c.comparisons(), 9);
        assert_eq!(a.comparisons(), 10);
    }

    #[test]
    fn absorb_drains_cursor_work() {
        let w = WorkCounter::new();
        let mut cw = CursorWork::default();
        assert!(cw.is_zero());
        cw.probes = 3;
        cw.intersect_steps = 4;
        cw += CursorWork {
            probes: 1,
            intersect_steps: 1,
            comparisons: 2,
        };
        assert!(!cw.is_zero());
        w.absorb(cw);
        assert_eq!(w.probes(), 4);
        assert_eq!(w.intersect_steps(), 5);
        assert_eq!(w.comparisons(), 2);
    }

    #[test]
    fn kernel_breakdown_counts_and_merges() {
        let w = WorkCounter::new();
        w.add_kernel(KernelKind::Merge);
        w.add_kernel(KernelKind::Gallop);
        w.add_kernel(KernelKind::Gallop);
        w.add_kernel(KernelKind::Bitmap);
        assert_eq!(w.kernel_merge(), 1);
        assert_eq!(w.kernel_gallop(), 2);
        assert_eq!(w.kernel_bitmap(), 1);
        assert_eq!(w.kernel_calls(), 4);
        // the breakdown is a selection histogram, not work
        assert_eq!(w.total_work(), 0);
        let other = WorkCounter::new();
        other.add_kernel(KernelKind::Merge);
        w.merge(&other);
        assert_eq!(w.kernel_merge(), 2);
        // equality discriminates on the breakdown
        assert_ne!(w, other);
    }

    #[test]
    fn equality_compares_all_tallies() {
        let a = WorkCounter::new();
        let b = WorkCounter::new();
        assert_eq!(a, b);
        a.add_probes(1);
        assert_ne!(a, b);
        b.add_probes(1);
        assert_eq!(a, b);
    }
}
