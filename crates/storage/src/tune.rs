//! The kernel-policy thresholds, named as one value.
//!
//! The adaptive kernel heuristic (`kernels::choose_kernel`) and the cursor seek
//! fast path steer on four constants of the implementation, which
//! [`KernelCalibration::fixed`] gathers for display and for callers that name
//! them:
//!
//! * `merge_max_ratio` — largest `max/min` list-size ratio at which the SIMD
//!   merge kernel still beats galloping search.
//! * `bitmap_max_span` — widest common span the bitmap kernel may window.
//! * `bitmap_span_per_element` — how sparse (span per smallest-list element)
//!   the bitmap kernel is allowed to run before merge/gallop win.
//! * `linear_seek_max` — seek window length below which a linear scan beats
//!   galloping search.
//!
//! They are constants, not inputs of a query: which kernel runs is a
//! constant-factor choice (every kernel stays `O(min list)` up to log
//! factors), so no execution varies them. Nothing here measures the host,
//! reads the environment or touches the filesystem — a startup probe used to,
//! and EXPERIMENTS.md E7 records why it went (calibrated ≈ fixed in
//! wall-clock, counters no longer reproducible).

use crate::kernels;

/// The kernel-policy thresholds. `Default` is [`KernelCalibration::fixed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCalibration {
    /// Merge is chosen when the largest list is at most this many times the smallest.
    pub merge_max_ratio: usize,
    /// Bitmap is considered only when the common span is at most this many values.
    pub bitmap_max_span: u64,
    /// ... and the span is within this factor of the smallest list.
    pub bitmap_span_per_element: u64,
    /// Seek windows at or below this length use a linear scan instead of galloping.
    pub linear_seek_max: usize,
}

impl Default for KernelCalibration {
    fn default() -> Self {
        Self::fixed()
    }
}

impl KernelCalibration {
    /// The thresholds every execution runs with, and the ones every recorded
    /// baseline (bench, `perf_gate`) was taken under.
    pub const fn fixed() -> Self {
        KernelCalibration {
            merge_max_ratio: kernels::MERGE_MAX_RATIO,
            bitmap_max_span: kernels::BITMAP_MAX_SPAN,
            bitmap_span_per_element: kernels::BITMAP_SPAN_PER_ELEMENT,
            linear_seek_max: crate::ops::LINEAR_SEEK_MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_matches_historical_constants() {
        let cal = KernelCalibration::fixed();
        assert_eq!(cal.merge_max_ratio, 8);
        assert_eq!(cal.bitmap_max_span, 4096);
        assert_eq!(cal.bitmap_span_per_element, 16);
        assert_eq!(cal.linear_seek_max, 16);
        assert_eq!(cal, KernelCalibration::default());
    }
}
