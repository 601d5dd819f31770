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
//!   `TrieAccess::take_work`.

use crate::kernels::KernelKind;
use std::cell::Cell;
use std::ops::AddAssign;

/// Plain-integer work tallies accumulated privately by a cursor and drained into a
/// [`WorkCounter`] by the engine (see `TrieAccess::take_work`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorWork {
    /// Index probes: galloping-search probes performed by `seek`.
    pub probes: u64,
    /// Set-intersection steps: `next` advances within a sibling group.
    pub intersect_steps: u64,
    /// Element comparisons performed by the adaptive linear-scan `seek` path on
    /// short sibling groups (the galloping path records `probes` instead).
    pub comparisons: u64,
    /// Delta-log merge steps charged by `DeltaCursor::open` below the root: one
    /// `child_start` lookup per run of a [`crate::delta::DeltaRelation`] that
    /// holds the prefix, plus — when the (tombstone-suppressed) sibling group
    /// has to be merged from several runs — one step per `(value, run)`.
    pub delta_merge: u64,
}

impl CursorWork {
    /// Whether no work has been recorded.
    pub fn is_zero(&self) -> bool {
        self.probes == 0
            && self.intersect_steps == 0
            && self.comparisons == 0
            && self.delta_merge == 0
    }
}

impl AddAssign for CursorWork {
    fn add_assign(&mut self, rhs: CursorWork) {
        self.probes += rhs.probes;
        self.intersect_steps += rhs.intersect_steps;
        self.comparisons += rhs.comparisons;
        self.delta_merge += rhs.delta_merge;
    }
}

/// Counters of elementary work performed by an operator or a whole query plan.
///
/// Uses interior mutability (`Cell`) so that read-only operator code can record work
/// without plumbing `&mut` everywhere.
#[derive(Debug, Default)]
pub struct WorkCounter {
    intersect_steps: Cell<u64>,
    probes: Cell<u64>,
    intermediate_tuples: Cell<u64>,
    output_tuples: Cell<u64>,
    comparisons: Cell<u64>,
    delta_merge: Cell<u64>,
    kernel_merge: Cell<u64>,
    kernel_gallop: Cell<u64>,
    kernel_bitmap: Cell<u64>,
}

impl Clone for WorkCounter {
    fn clone(&self) -> Self {
        WorkCounter {
            intersect_steps: Cell::new(self.intersect_steps.get()),
            probes: Cell::new(self.probes.get()),
            intermediate_tuples: Cell::new(self.intermediate_tuples.get()),
            output_tuples: Cell::new(self.output_tuples.get()),
            comparisons: Cell::new(self.comparisons.get()),
            delta_merge: Cell::new(self.delta_merge.get()),
            kernel_merge: Cell::new(self.kernel_merge.get()),
            kernel_gallop: Cell::new(self.kernel_gallop.get()),
            kernel_bitmap: Cell::new(self.kernel_bitmap.get()),
        }
    }
}

impl PartialEq for WorkCounter {
    fn eq(&self, other: &Self) -> bool {
        self.intersect_steps.get() == other.intersect_steps.get()
            && self.probes.get() == other.probes.get()
            && self.intermediate_tuples.get() == other.intermediate_tuples.get()
            && self.output_tuples.get() == other.output_tuples.get()
            && self.comparisons.get() == other.comparisons.get()
            && self.delta_merge.get() == other.delta_merge.get()
            && self.kernel_merge.get() == other.kernel_merge.get()
            && self.kernel_gallop.get() == other.kernel_gallop.get()
            && self.kernel_bitmap.get() == other.kernel_bitmap.get()
    }
}

impl Eq for WorkCounter {}

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

    /// Record `n` delta-log merge steps (run-range narrowing probes plus n-way
    /// sorted-merge advances of the delta union cursor) — the work the
    /// incremental-maintenance path adds on top of a fully-compacted relation.
    #[inline]
    pub fn add_delta_merge(&self, n: u64) {
        self.delta_merge.set(self.delta_merge.get() + n);
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
        self.add_delta_merge(w.delta_merge);
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

    /// Total delta-log merge steps recorded.
    #[inline]
    pub fn delta_merge(&self) -> u64 {
        self.delta_merge.get()
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
            + self.delta_merge.get()
    }

    /// Reset every tally to zero.
    pub fn reset(&self) {
        self.intersect_steps.set(0);
        self.probes.set(0);
        self.intermediate_tuples.set(0);
        self.output_tuples.set(0);
        self.comparisons.set(0);
        self.delta_merge.set(0);
        self.kernel_merge.set(0);
        self.kernel_gallop.set(0);
        self.kernel_bitmap.set(0);
    }

    /// Merge the tallies of `other` into `self`. Associative and commutative, so
    /// parallel workers' counters sum losslessly in any order.
    pub fn merge(&self, other: &WorkCounter) {
        self.add_intersect_steps(other.intersect_steps());
        self.add_probes(other.probes());
        self.add_intermediate(other.intermediate_tuples());
        self.add_output(other.output_tuples());
        self.add_comparisons(other.comparisons());
        self.add_delta_merge(other.delta_merge());
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
        let w = WorkCounter::new();
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
        w.reset();
        assert_eq!(w.total_work(), 0);
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
            delta_merge: 6,
        };
        assert!(!cw.is_zero());
        w.absorb(cw);
        assert_eq!(w.probes(), 4);
        assert_eq!(w.intersect_steps(), 5);
        assert_eq!(w.comparisons(), 2);
        assert_eq!(w.delta_merge(), 6);
    }

    #[test]
    fn delta_merge_is_work_and_merges() {
        let w = WorkCounter::new();
        w.add_delta_merge(5);
        assert_eq!(w.delta_merge(), 5);
        assert_eq!(w.total_work(), 5);
        let other = WorkCounter::new();
        other.add_delta_merge(2);
        assert_ne!(w, other);
        w.merge(&other);
        assert_eq!(w.delta_merge(), 7);
        w.reset();
        assert_eq!(w.delta_merge(), 0);
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
        // equality discriminates on the breakdown, and reset clears it
        assert_ne!(w, other);
        w.reset();
        assert_eq!(w.kernel_calls(), 0);
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
