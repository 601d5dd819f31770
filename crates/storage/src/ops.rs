//! Classical relational operators — the binary hash join and a naive
//! nested-loop multi-way join used as ground truth in differential tests — plus
//! the least-upper-bound searches every seekable cursor shares.
//!
//! The hash join is the building block of the *baseline* the paper's worst-case
//! optimal algorithms are compared against (the "one-pair-at-a-time join
//! paradigm" of Section 1.1). It operates column-at-a-time over the columnar
//! [`Relation`] layout: keys are gathered from key columns, matches are emitted by
//! appending to output columns, and no intermediate row objects are allocated.

use crate::error::StorageError;
use crate::relation::Relation;
use crate::stats::WorkCounter;
use crate::Value;
use std::collections::HashMap;

/// Least-upper-bound galloping search within `values[start..end]`: the first index
/// `>= start` (and `< end`) whose value is `>= target`, or `end` if none. Returns the
/// index and the number of probes performed. Shared by every seekable cursor
/// ([`crate::TrieCursor`], [`crate::DeltaCursor`]).
pub(crate) fn gallop_lub(
    values: &[Value],
    start: usize,
    end: usize,
    target: Value,
) -> (usize, u64) {
    debug_assert!(end <= values.len());
    // Galloping: double the step until we pass `target`, then binary search.
    let mut step = 1usize;
    let mut lo = start;
    let mut probes = 1u64;
    while lo + step < end && values[lo + step] < target {
        lo += step;
        step *= 2;
        probes += 1;
    }
    let mut h = end.min(lo + step + 1);
    // Binary search in [lo, h) for the first value >= target.
    let mut l = lo;
    while l < h {
        let m = (l + h) / 2;
        probes += 1;
        if values[m] < target {
            l = m + 1;
        } else {
            h = m;
        }
    }
    (l, probes)
}

/// Sibling groups at or below this length are sought by a branch-predictable
/// linear scan instead of galloping: for tiny groups the scan's sequential loads
/// beat the galloping search's data-dependent branches.
pub(crate) const LINEAR_SEEK_MAX: usize = 16;

/// Adaptive least-upper-bound seek at an explicit SIMD level: linear scan for
/// windows at or under [`LINEAR_SEEK_MAX`] (recorded as comparisons),
/// galloping search otherwise (recorded as probes). Returns `(position,
/// probes, comparisons)` — the seek path shared by every cursor, mirroring the
/// kernel layer's adaptivity at the single-seek grain.
///
/// The counted work is a pure function of `(start, end, position)` — the
/// linear path charges `1 + (position - start)` comparisons and the gallop
/// path charges the [`gallop_lub`] probe sequence replayed arithmetically — so
/// the SIMD level changes wall-clock only, never the counters.
pub(crate) fn seek_lub(
    level: crate::simd::SimdLevel,
    values: &[Value],
    start: usize,
    end: usize,
    target: Value,
) -> (usize, u64, u64) {
    debug_assert!(end <= values.len());
    if end - start <= LINEAR_SEEK_MAX {
        let pos = crate::simd::linear_lub(level, values, start, end, target);
        (pos, 0, 1 + (pos - start) as u64)
    } else {
        match level {
            crate::simd::SimdLevel::Scalar => {
                let (pos, probes) = gallop_lub(values, start, end, target);
                (pos, probes, 0)
            }
            _ => {
                let (pos, probes) = gallop_lub_at(level, values, start, end, target);
                (pos, probes, 0)
            }
        }
    }
}

/// Uncounted least-upper-bound search in `values[start..end]` — the repositioning
/// path (`advance_to`) which by contract records no work, on a group without a
/// set layout (a dense one repositions by rank). Linear scan up to
/// [`LINEAR_SEEK_MAX`], galloping search above it.
#[inline]
pub(crate) fn advance_lub(
    level: crate::simd::SimdLevel,
    values: &[Value],
    start: usize,
    end: usize,
    target: Value,
) -> usize {
    debug_assert!(end <= values.len());
    if end - start <= LINEAR_SEEK_MAX {
        crate::simd::linear_lub(level, values, start, end, target)
    } else {
        find_lub(level, values, start, end, target)
    }
}

/// Position-only least-upper-bound search: the same doubling phase as
/// [`gallop_lub`], but the binary phase hands its last iterations to the SIMD
/// forward scan once the window is small — fewer data-dependent branches, same
/// position.
fn find_lub(
    level: crate::simd::SimdLevel,
    values: &[Value],
    start: usize,
    end: usize,
    target: Value,
) -> usize {
    const SIMD_TAIL: usize = 64;
    let mut step = 1usize;
    let mut lo = start;
    while lo + step < end && values[lo + step] < target {
        lo += step;
        step *= 2;
    }
    let mut h = end.min(lo + step + 1);
    let mut l = lo;
    while h - l > SIMD_TAIL {
        let m = (l + h) / 2;
        if values[m] < target {
            l = m + 1;
        } else {
            h = m;
        }
    }
    crate::simd::linear_lub(level, values, l, h, target)
}

/// [`gallop_lub`] with a SIMD binary tail and an identical probe tally.
///
/// The doubling phase and the wide binary iterations run (and count) exactly
/// as in [`gallop_lub`]; once the window shrinks to one vector-scan's worth,
/// the landing position comes from [`crate::simd::linear_lub`] and the probes
/// the remaining binary iterations *would* have recorded are replayed with
/// pure index arithmetic — inside `[l, h)` the position is the partition
/// point, so `values[m] < target ⟺ m < position`.
fn gallop_lub_at(
    level: crate::simd::SimdLevel,
    values: &[Value],
    start: usize,
    end: usize,
    target: Value,
) -> (usize, u64) {
    const SIMD_TAIL: usize = 64;
    let mut step = 1usize;
    let mut lo = start;
    let mut probes = 1u64;
    while lo + step < end && values[lo + step] < target {
        lo += step;
        step *= 2;
        probes += 1;
    }
    let mut h = end.min(lo + step + 1);
    let mut l = lo;
    while h - l > SIMD_TAIL {
        let m = (l + h) / 2;
        probes += 1;
        if values[m] < target {
            l = m + 1;
        } else {
            h = m;
        }
    }
    let pos = crate::simd::linear_lub(level, values, l, h, target);
    while l < h {
        let m = (l + h) / 2;
        probes += 1;
        if m < pos {
            l = m + 1;
        } else {
            h = m;
        }
    }
    (pos, probes)
}

/// Find the first index `>= start` with `list[index] >= target` using galloping search.
pub(crate) fn gallop(list: &[Value], start: usize, target: Value, counter: &WorkCounter) -> usize {
    let mut lo = start;
    if lo >= list.len() || list[lo] >= target {
        counter.add_probes(1);
        return lo;
    }
    let mut step = 1usize;
    let mut probes = 1u64;
    while lo + step < list.len() && list[lo + step] < target {
        lo += step;
        step *= 2;
        probes += 1;
    }
    let mut hi = (lo + step + 1).min(list.len());
    let mut l = lo + 1;
    while l < hi {
        let m = (l + hi) / 2;
        probes += 1;
        if list[m] < target {
            l = m + 1;
        } else {
            hi = m;
        }
    }
    counter.add_probes(probes);
    l
}

/// [`gallop`] at an explicit SIMD level: the doubling phase and wide binary
/// iterations run (and count) exactly as in [`gallop`]; the last vector-scan's
/// worth of binary search is done by [`crate::simd::linear_lub`] with the
/// skipped iterations' probes replayed arithmetically, so the tally is
/// bit-identical to the scalar path.
pub(crate) fn gallop_at(
    level: crate::simd::SimdLevel,
    list: &[Value],
    start: usize,
    target: Value,
    counter: &WorkCounter,
) -> usize {
    if let crate::simd::SimdLevel::Scalar = level {
        return gallop(list, start, target, counter);
    }
    let mut lo = start;
    if lo >= list.len() || list[lo] >= target {
        counter.add_probes(1);
        return lo;
    }
    const SIMD_TAIL: usize = 64;
    let mut step = 1usize;
    let mut probes = 1u64;
    while lo + step < list.len() && list[lo + step] < target {
        lo += step;
        step *= 2;
        probes += 1;
    }
    let mut hi = (lo + step + 1).min(list.len());
    let mut l = lo + 1;
    while hi - l > SIMD_TAIL {
        let m = (l + hi) / 2;
        probes += 1;
        if list[m] < target {
            l = m + 1;
        } else {
            hi = m;
        }
    }
    let pos = crate::simd::linear_lub(level, list, l, hi, target);
    while l < hi {
        let m = (l + hi) / 2;
        probes += 1;
        if m < pos {
            l = m + 1;
        } else {
            hi = m;
        }
    }
    counter.add_probes(probes);
    pos
}

/// Positions of the common attributes, the output attribute sources, and the output
/// schema for a natural join `left ⋈ right` (left attributes then right-only
/// attributes).
struct JoinShape {
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    right_only: Vec<usize>,
    out_schema: crate::Schema,
}

fn join_shape(left: &Relation, right: &Relation) -> Result<JoinShape, StorageError> {
    let common = left.schema().common_attrs(right.schema());
    if common.is_empty() {
        return Err(StorageError::NoJoinAttributes);
    }
    let common_refs: Vec<&str> = common.iter().map(|s| s.as_str()).collect();
    let left_key = left.schema().positions(&common_refs)?;
    let right_key = right.schema().positions(&common_refs)?;
    let right_only_names: Vec<String> = right.schema().attrs_not_in(left.schema());
    let right_only: Vec<usize> = right_only_names
        .iter()
        .map(|a| right.schema().require(a))
        .collect::<Result<_, _>>()?;
    Ok(JoinShape {
        left_key,
        right_key,
        right_only,
        out_schema: left.schema().join_schema(right.schema()),
    })
}

/// Append the joined row `(left row li, right row ri)` to the output columns
/// (left attributes first, then right-only attributes).
#[inline]
fn emit_match(
    out_cols: &mut [Vec<Value>],
    left: &Relation,
    right: &Relation,
    right_only: &[usize],
    li: usize,
    ri: usize,
) {
    let la = left.arity();
    for (c, out) in out_cols[..la].iter_mut().enumerate() {
        out.push(left.column(c)[li]);
    }
    for (&rc, out) in right_only.iter().zip(out_cols[la..].iter_mut()) {
        out.push(right.column(rc)[ri]);
    }
}

/// Natural binary hash join. Builds a hash table on the smaller input keyed by the
/// shared attributes and probes with the larger input, gathering keys and emitting
/// matches column-at-a-time. Intermediate (= output) tuples and probes are recorded
/// in `counter`.
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    counter: &WorkCounter,
) -> Result<Relation, StorageError> {
    let shape = join_shape(left, right)?;

    // Build on the smaller side, probe with the larger, but always produce the schema
    // `left ⋈ right` (left attrs then right-only attrs) so plans are deterministic.
    let build_is_left = left.len() <= right.len();
    let (build_rel, probe_rel, build_key, probe_key) = if build_is_left {
        (left, right, &shape.left_key, &shape.right_key)
    } else {
        (right, left, &shape.right_key, &shape.left_key)
    };

    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for i in 0..build_rel.len() {
        let key: Vec<Value> = build_key.iter().map(|&p| build_rel.column(p)[i]).collect();
        table.entry(key).or_default().push(i);
    }

    let mut out_cols: Vec<Vec<Value>> = vec![Vec::new(); shape.out_schema.arity()];
    let mut emitted = 0u64;
    let mut key: Vec<Value> = vec![0; probe_key.len()];
    for j in 0..probe_rel.len() {
        counter.add_probes(1);
        for (k, &p) in probe_key.iter().enumerate() {
            key[k] = probe_rel.column(p)[j];
        }
        if let Some(matches) = table.get(&key) {
            for &i in matches {
                let (li, ri) = if build_is_left { (i, j) } else { (j, i) };
                emit_match(&mut out_cols, left, right, &shape.right_only, li, ri);
                emitted += 1;
            }
        }
    }
    counter.add_intermediate(emitted);
    Relation::try_from_columns(shape.out_schema, out_cols)
}

/// Naive multi-way natural join by pairwise nested loops, used as ground truth in
/// differential tests. Quadratic per pair — only use on small inputs.
pub fn nested_loop_join(relations: &[&Relation]) -> Result<Relation, StorageError> {
    assert!(!relations.is_empty(), "need at least one relation");
    let mut acc = relations[0].clone();
    for rel in &relations[1..] {
        let common = acc.schema().common_attrs(rel.schema());
        let out_schema = acc.schema().join_schema(rel.schema());
        let rel_only: Vec<String> = rel.schema().attrs_not_in(acc.schema());
        let acc_pos: Vec<usize> = common
            .iter()
            .map(|a| acc.schema().require(a))
            .collect::<Result<_, _>>()?;
        let rel_pos: Vec<usize> = common
            .iter()
            .map(|a| rel.schema().require(a))
            .collect::<Result<_, _>>()?;
        let rel_only_pos: Vec<usize> = rel_only
            .iter()
            .map(|a| rel.schema().require(a))
            .collect::<Result<_, _>>()?;
        let mut rows = Vec::new();
        for t in acc.iter() {
            for u in rel.iter() {
                let matches = acc_pos
                    .iter()
                    .zip(&rel_pos)
                    .all(|(&ap, &rp)| t[ap] == u[rp]);
                if matches {
                    let mut row = t.clone();
                    row.extend(rel_only_pos.iter().map(|&p| u[p]));
                    rows.push(row);
                }
            }
        }
        acc = Relation::try_from_rows(out_schema, rows)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{intersect, KernelPolicy};
    use crate::schema::Schema;

    /// The adaptive kernel layer's multi-way intersection, as the engines call it.
    fn intersect_sorted(lists: &[&[Value]], counter: &WorkCounter) -> Vec<Value> {
        intersect(lists, KernelPolicy::Adaptive, counter)
    }

    fn r() -> Relation {
        Relation::from_rows(
            Schema::new(&["A", "B"]),
            vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![5, 6]],
        )
    }

    fn s() -> Relation {
        Relation::from_rows(
            Schema::new(&["B", "C"]),
            vec![vec![2, 7], vec![3, 8], vec![3, 9], vec![4, 1]],
        )
    }

    #[test]
    fn intersect_basic() {
        let w = WorkCounter::new();
        let a = vec![1, 3, 5, 7, 9];
        let b = vec![3, 4, 5, 9, 11];
        let c = vec![1, 3, 9];
        let out = intersect_sorted(&[&a, &b, &c], &w);
        assert_eq!(out, vec![3, 9]);
        // comparable tiny lists: the adaptive layer runs the merge kernel
        assert_eq!(w.kernel_calls(), 1);
        assert!(w.total_work() > 0);
    }

    #[test]
    fn intersect_edge_cases() {
        let w = WorkCounter::new();
        assert!(intersect_sorted(&[], &w).is_empty());
        let a = vec![1, 2, 3];
        let empty: Vec<Value> = vec![];
        assert!(intersect_sorted(&[&a, &empty], &w).is_empty());
        assert_eq!(intersect_sorted(&[&a], &w), vec![1, 2, 3]);
        let disjoint = vec![10, 20];
        assert!(intersect_sorted(&[&a, &disjoint], &w).is_empty());
    }

    #[test]
    fn intersect_work_proportional_to_smallest() {
        // smallest list has 3 elements; the iteration count must equal 3 regardless of
        // how large the other list is.
        let w = WorkCounter::new();
        let small = vec![10, 500, 900];
        let large: Vec<Value> = (0..100_000).collect();
        let out = intersect_sorted(&[&large, &small], &w);
        assert_eq!(out, vec![10, 500, 900]);
        assert_eq!(w.intersect_steps(), 3);
        // galloping probes are logarithmic, far below the large list's size
        assert!(w.probes() < 200, "probes = {}", w.probes());
    }

    #[test]
    fn gallop_finds_lub() {
        let w = WorkCounter::new();
        let list = vec![2, 4, 6, 8, 10];
        assert_eq!(gallop(&list, 0, 5, &w), 2);
        assert_eq!(gallop(&list, 0, 6, &w), 2);
        assert_eq!(gallop(&list, 0, 1, &w), 0);
        assert_eq!(gallop(&list, 0, 11, &w), 5);
        assert_eq!(gallop(&list, 3, 9, &w), 4);
        assert_eq!(gallop(&list, 5, 1, &w), 5);
    }

    #[test]
    fn hash_join_natural() {
        let w = WorkCounter::new();
        let out = hash_join(&r(), &s(), &w).unwrap();
        assert_eq!(
            out.schema().attrs(),
            &["A".to_string(), "B".to_string(), "C".to_string()]
        );
        // B=2 matches (1,2)x(2,7); B=3 matches {(1,3),(2,3)} x {(3,8),(3,9)}: 5 total
        assert_eq!(out.len(), 5);
        let expected = Relation::from_rows(
            Schema::new(&["A", "B", "C"]),
            vec![
                vec![1, 2, 7],
                vec![1, 3, 8],
                vec![1, 3, 9],
                vec![2, 3, 8],
                vec![2, 3, 9],
            ],
        );
        assert_eq!(hash_join(&r(), &s(), &w).unwrap(), expected);
        assert!(w.intermediate_tuples() >= 5);
        assert!(w.probes() > 0);
    }

    #[test]
    fn hash_join_is_symmetric_in_content() {
        let w = WorkCounter::new();
        let a = hash_join(&r(), &s(), &w).unwrap();
        let b = hash_join(&s(), &r(), &w).unwrap();
        // schemas differ in attribute order, but the tuple sets must agree after
        // reordering
        let b_reordered = b.reorder(&["A", "B", "C"]).unwrap();
        assert_eq!(a.rows(), b_reordered.rows());
    }

    #[test]
    fn hash_join_requires_common_attribute() {
        let w = WorkCounter::new();
        let t = Relation::empty(Schema::new(&["X", "Y"]));
        assert_eq!(
            hash_join(&r(), &t, &w).unwrap_err(),
            StorageError::NoJoinAttributes
        );
    }

    #[test]
    fn nested_loop_ground_truth_triangle() {
        let w = WorkCounter::new();
        let r = Relation::from_pairs("A", "B", vec![(1, 2), (2, 3), (1, 3)]);
        let s = Relation::from_pairs("B", "C", vec![(2, 3), (3, 1), (3, 4)]);
        let t = Relation::from_pairs("A", "C", vec![(1, 3), (2, 1), (1, 4)]);
        let out = nested_loop_join(&[&r, &s, &t]).unwrap();
        // triangles: (A,B,C) with R(A,B), S(B,C), T(A,C):
        // (1,2,3): R(1,2) S(2,3) T(1,3) yes; (2,3,1): R(2,3) S(3,1) T(2,1) yes;
        // (1,3,4): R(1,3) S(3,4) T(1,4) yes; (1,3,1): S(3,1), T(1,1)? no.
        assert_eq!(out.len(), 3);
        assert!(out.contains(&[1, 2, 3]));
        assert!(out.contains(&[2, 3, 1]));
        assert!(out.contains(&[1, 3, 4]));
        // hash-join plan computes the same thing
        let rs = hash_join(&r, &s, &w).unwrap();
        let rst = hash_join(&rs, &t, &w).unwrap();
        let proj = rst.project(&["A", "B", "C"]).unwrap();
        assert_eq!(proj.rows(), out.rows());
    }

    #[test]
    fn nested_loop_cartesian_when_no_shared_attrs() {
        let a = Relation::from_rows(Schema::new(&["A"]), vec![vec![1], vec![2]]);
        let b = Relation::from_rows(Schema::new(&["B"]), vec![vec![10], vec![20], vec![30]]);
        let out = nested_loop_join(&[&a, &b]).unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn joins_with_empty_inputs() {
        let w = WorkCounter::new();
        let empty = Relation::empty(Schema::new(&["B", "C"]));
        assert!(hash_join(&r(), &empty, &w).unwrap().is_empty());
        assert!(nested_loop_join(&[&r(), &empty]).unwrap().is_empty());
    }
}
