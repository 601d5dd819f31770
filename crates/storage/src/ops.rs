//! Classical relational operators — the binary hash join and a naive
//! nested-loop multi-way join used as ground truth in differential tests — plus
//! the one galloping least-upper-bound search that cursor seeks and the
//! galloping intersection kernel share.
//!
//! The hash join is the building block of the *baseline* the paper's worst-case
//! optimal algorithms are compared against (the "one-pair-at-a-time join
//! paradigm" of Section 1.1). It operates column-at-a-time over the columnar
//! [`Relation`] layout: keys are gathered from key columns, matches are emitted by
//! appending to output columns, and no intermediate row objects are allocated.

use crate::error::StorageError;
use crate::relation::Relation;
use crate::simd::{self, SimdLevel};
use crate::stats::WorkCounter;
use crate::Value;
use std::collections::HashMap;

/// Sibling groups at or below this length are sought by a branch-predictable
/// linear scan instead of galloping: for tiny groups the scan's sequential loads
/// beat the galloping search's data-dependent branches.
pub(crate) const LINEAR_SEEK_MAX: usize = 16;

/// Adaptive least-upper-bound seek at an explicit SIMD level: linear scan for
/// windows at or under [`LINEAR_SEEK_MAX`] (recorded as comparisons),
/// [`gallop_lub`] otherwise (recorded as probes). Returns `(position, probes,
/// comparisons)` — the one search of [`crate::TrieCursor`], which counts it in
/// `seek` and drops the counts in `advance_to`, mirroring the kernel layer's
/// adaptivity at the single-seek grain.
///
/// The counted work is a pure function of `(start, end, position)` — the
/// linear path charges `1 + (position - start)` comparisons and the gallop
/// path its probe sequence — so the SIMD level changes wall-clock only, never
/// the counters.
pub(crate) fn seek_lub(
    level: SimdLevel,
    values: &[Value],
    start: usize,
    end: usize,
    target: Value,
) -> (usize, u64, u64) {
    debug_assert!(end <= values.len());
    if end - start <= LINEAR_SEEK_MAX {
        let pos = simd::linear_lub(level, values, start, end, target);
        (pos, 0, 1 + (pos - start) as u64)
    } else {
        let (pos, probes) = gallop_lub(level, values, start, end, target, 0);
        (pos, probes, 0)
    }
}

/// Values a binary search narrows down by vector scan instead of by halving.
const SIMD_TAIL: usize = 64;

/// The one galloping least-upper-bound search: the first index in
/// `values[start..end]` whose value is `>= target` (`end` if none), and the
/// probes it charges. The step doubles from `start` until it passes `target`,
/// then a binary search narrows the bracket. The first `below` values of the
/// bracket are known to lie under `target` and are skipped: the galloping
/// kernel passes 1, having probed `values[start]` itself (that probe is the
/// tally's first), and a seek passes 0.
///
/// At [`SimdLevel::Scalar`] the binary search runs to the end. At a vector
/// level it stops once [`SIMD_TAIL`] values remain, lands by
/// [`simd::linear_lub`], and replays the iterations it skipped with index
/// arithmetic alone — inside the bracket the landing position is the
/// partition point, so `values[m] < target ⟺ m < position` — so the probe
/// tally is the scalar one at every level.
pub(crate) fn gallop_lub(
    level: SimdLevel,
    values: &[Value],
    start: usize,
    end: usize,
    target: Value,
    below: usize,
) -> (usize, u64) {
    debug_assert!(start + below <= end && end <= values.len());
    let mut step = 1usize;
    let mut lo = start;
    let mut probes = 1u64;
    while lo + step < end && values[lo + step] < target {
        lo += step;
        step *= 2;
        probes += 1;
    }
    let (mut l, mut h) = (lo + below, end.min(lo + step + 1));
    let tail = match level {
        SimdLevel::Scalar => 0,
        _ => SIMD_TAIL,
    };
    while h - l > tail {
        let m = (l + h) / 2;
        probes += 1;
        if values[m] < target {
            l = m + 1;
        } else {
            h = m;
        }
    }
    let pos = simd::linear_lub(level, values, l, h, target);
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
    use crate::kernels::{gallop_from, intersect_into_at, KernelPolicy};
    use crate::schema::Schema;
    use crate::trie::Trie;

    /// The adaptive kernel layer's multi-way intersection, as the engines call it.
    fn intersect_sorted(lists: &[&[Value]], counter: &WorkCounter) -> Vec<Value> {
        let mut out = Vec::new();
        let level = simd::active_level();
        intersect_into_at(level, &mut out, lists, KernelPolicy::Adaptive, counter);
        out
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

    /// The one search in its three forms — a counted seek, an uncounted
    /// cursor advance over a sparse group, and the galloping kernel's — lands
    /// on `partition_point` at every runnable SIMD level and charges the
    /// scalar level's probes and comparisons. Windows are random sorted runs
    /// on both sides of `LINEAR_SEEK_MAX` and of `SIMD_TAIL`, targets below,
    /// equal to, between and above their values; the first cases are fixed.
    #[test]
    fn gallop_finds_lub() {
        let list = [2, 4, 6, 8, 10];
        for (start, target, lub) in [
            (0, 5, 2),
            (0, 6, 2),
            (0, 1, 0),
            (0, 11, 5),
            (3, 9, 4),
            (5, 1, 5),
        ] {
            for level in simd::runnable_levels() {
                assert_eq!(gallop_from(level, &list, start, target).0, lub);
            }
        }

        let mut state = 0x5EA2_C4A1u64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let (mut linear, mut tails) = (0, 0);
        for case in 0..400u64 {
            let len = match case % 4 {
                0 => 1 + next(LINEAR_SEEK_MAX as u64 + 4),
                1 => SIMD_TAIL as u64 - 4 + next(10),
                _ => 1 + next(600),
            } as usize;
            // gaps of at least 17 keep every group sparse: no rank path
            let mut values = vec![next(1000)];
            for _ in 1..len {
                values.push(values[values.len() - 1] + 17 + next(200));
            }
            let relation = Relation::from_rows(
                Schema::new(&["A"]),
                values.iter().map(|&v| vec![v]).collect(),
            );
            let trie = Trie::build(&relation, &["A"]).unwrap();
            for _ in 0..8 {
                let start = next(len as u64) as usize;
                let end = start + 1 + next((len - start) as u64) as usize;
                let window = &values[start..end];
                let pick = window[next(window.len() as u64) as usize];
                let target = match next(4) {
                    0 => values[start].saturating_sub(1 + next(3)),
                    1 => pick,
                    2 => pick + 1 + next(16),
                    _ => values[end - 1] + 1 + next(1000),
                };
                let lub = start + window.partition_point(|&v| v < target);
                let scalar = seek_lub(SimdLevel::Scalar, &values, start, end, target);
                let kernel = gallop_from(SimdLevel::Scalar, &values[..end], start, target);
                linear += (end - start <= LINEAR_SEEK_MAX) as u64;
                tails += (end - start > SIMD_TAIL) as u64;
                for level in simd::runnable_levels() {
                    let what = format!("{level:?}: {start}..{end} of {len}, target {target}");
                    let seek = seek_lub(level, &values, start, end, target);
                    assert_eq!(seek, (lub, scalar.1, scalar.2), "seek at {what}");
                    let gallop = gallop_from(level, &values[..end], start, target);
                    assert_eq!(gallop, (lub, kernel.1), "kernel gallop at {what}");
                    // a cursor advances over the whole group from `start`
                    let whole = start + values[start..].partition_point(|&v| v < target);
                    let mut c = trie.cursor().at_level(level);
                    assert!(c.open() && c.reposition(values[start]));
                    assert_eq!(c.layout(), None, "a sparse group");
                    let found = c.advance_to(target);
                    assert_eq!(
                        values.len() - c.remaining().len(),
                        whole,
                        "advance at {what}"
                    );
                    assert_eq!(found, values.get(whole) == Some(&target), "{what}");
                    assert!(c.take_work().is_zero(), "advance_to drops the counts");
                }
            }
        }
        assert!(
            linear > 1_000 && tails > 500,
            "{linear} linear, {tails} tail windows"
        );
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
