//! Prefix hash index: from bound prefixes to the sorted list of next-attribute values.
//!
//! This is the access path assumed by Generic Join and by Algorithm 3 of the paper:
//! for an atom `R_F` and a global variable order, once the variables preceding `A_i`
//! have been bound to a tuple `t`, the algorithm needs the *sorted set*
//! `π_{A_i} σ_{prefix = t} R_F` in O(1) lookup time, so that set intersections can be
//! computed in time proportional to the smallest set.
//!
//! Construction is a fused pass over the relation's columns, mirroring
//! [`crate::Trie::build`]: one argsort of row indices (skipped when the requested
//! order is the relation's native order), then a single scan that — at each row —
//! touches only the hash entries of the prefixes that actually changed, rather than
//! re-hashing every prefix of every tuple. Once the value lists are complete, every
//! dense group gets its **set layout** (see [`crate::kernels`]) beside its list —
//! one walk over the entries, no second lookup — counted in
//! [`PrefixIndex::heap_bytes`]; a sparse group allocates nothing.

use crate::error::StorageError;
use crate::kernels;
use crate::relation::Relation;
use crate::trie::{
    boundary_depths, fused_scan, order_perm_threads, order_positions, positions_order,
    PAR_BUILD_MIN,
};
use crate::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply-rotate "FxHash" scheme (as in rustc's `FxHasher`): prefix lookups
/// sit on the hot path of every hash-backed `open`, and the keys are internal
/// dense dictionary codes — SipHash's DoS resistance buys nothing there, while
/// its per-word cost dominates short-prefix probes.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        // two word-adds, not the default 16 byte-adds — the delta layer's
        // packed-tuple live set hashes u128 keys on its hot ingest path
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// One sibling group of a [`PrefixIndex`]: the sorted distinct values extending
/// a prefix and, beside them, the group's set layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Group {
    pub(crate) values: Vec<Value>,
    /// The [`crate::kernels::Layout`] words of a dense group; empty (no
    /// allocation) for a sparse one.
    pub(crate) words: Box<[u64]>,
}

/// A prefix-to-extensions map hashed with [`FxHasher`].
type PrefixMap = HashMap<Vec<Value>, Group, BuildHasherDefault<FxHasher>>;

/// Give every dense group its set layout, once the fused pass has completed the
/// value lists. A layout is a function of its group's values alone, so serial
/// and parallel builds agree bit for bit.
fn with_layouts(mut levels: Vec<PrefixMap>) -> Vec<PrefixMap> {
    for group in levels.iter_mut().flat_map(|m| m.values_mut()) {
        let mut words = Vec::new();
        kernels::append_layout(&mut words, &group.values);
        group.words = words.into_boxed_slice();
    }
    levels
}

/// A multi-level hash index over a relation reordered by a chosen attribute order.
///
/// `levels[k]` maps each length-`k` prefix (over the first `k` attributes of the
/// order) that occurs in the relation to the sorted distinct values of attribute
/// `k` extending it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixIndex {
    attr_order: Vec<String>,
    levels: Vec<PrefixMap>,
    len: usize,
}

impl PrefixIndex {
    /// Build the index for `rel` with its attributes reordered to `attr_order`
    /// (which must be a permutation of the relation's attributes).
    pub fn build(rel: &Relation, attr_order: &[&str]) -> Result<Self, StorageError> {
        let positions = order_positions(rel, attr_order)?;
        Ok(Self::build_ordered(
            rel,
            &positions,
            attr_order.iter().map(|s| s.to_string()).collect(),
        ))
    }

    /// [`PrefixIndex::build`] with the order given as **column positions** (a
    /// permutation of `0..arity`, names synthesized from the stored schema) —
    /// the entry used by the execution layer's access-structure cache, whose
    /// keys are positional so per-query variable names never reach (or
    /// fragment) the cache.
    pub fn build_positions(rel: &Relation, positions: &[usize]) -> Result<Self, StorageError> {
        let attr_order = positions_order(rel, positions)?;
        Ok(Self::build_ordered(rel, positions, attr_order))
    }

    fn build_ordered(rel: &Relation, positions: &[usize], attr_order: Vec<String>) -> Self {
        let arity = rel.arity();
        let cols: Vec<&[Value]> = positions.iter().map(|&p| rel.column(p)).collect();

        let mut levels: Vec<PrefixMap> = vec![PrefixMap::default(); arity];
        // the current row's values in index order; prefix[..k] keys level k
        let mut cur: Vec<Value> = vec![0; arity];
        fused_scan(rel, positions, |r, d| {
            // positions >= d hold a value not yet recorded under its (possibly new)
            // prefix; positions < d extend prefixes whose entries already exist
            for (k, col) in cols.iter().enumerate().skip(d) {
                cur[k] = col[r];
                let group = levels[k].entry(cur[..k].to_vec()).or_default();
                group.values.push(cur[k]);
            }
        });
        PrefixIndex {
            attr_order,
            levels: with_layouts(levels),
            len: rel.len(),
        }
    }

    /// [`PrefixIndex::build`] with the fused argsort-and-scan pass partitioned
    /// across `threads` scoped workers.
    ///
    /// The sorted row sequence is chunked at **root boundaries** (rows whose
    /// level-boundary depth is 0), so every prefix of length ≥ 1 — whose key
    /// starts with one root value — is built entirely by one worker and the
    /// partial per-level maps merge by disjoint-key union; the root level's
    /// single entry concatenates the chunks' value runs in order. The result is
    /// guaranteed equal to [`PrefixIndex::build`] for every thread count
    /// (property-tested for threads ∈ {1, 2, 4, 8}). Small relations and
    /// `threads <= 1` fall back to the serial build.
    pub fn build_parallel(
        rel: &Relation,
        attr_order: &[&str],
        threads: usize,
    ) -> Result<Self, StorageError> {
        let positions = order_positions(rel, attr_order)?;
        Ok(Self::build_parallel_ordered(
            rel,
            &positions,
            attr_order.iter().map(|s| s.to_string()).collect(),
            threads,
        ))
    }

    /// [`PrefixIndex::build_positions`] with the parallel fused pass of
    /// [`PrefixIndex::build_parallel`]; bit-identical for every thread count.
    pub fn build_positions_parallel(
        rel: &Relation,
        positions: &[usize],
        threads: usize,
    ) -> Result<Self, StorageError> {
        let attr_order = positions_order(rel, positions)?;
        Ok(Self::build_parallel_ordered(
            rel, positions, attr_order, threads,
        ))
    }

    fn build_parallel_ordered(
        rel: &Relation,
        positions: &[usize],
        attr_order: Vec<String>,
        threads: usize,
    ) -> Self {
        if threads <= 1 || rel.len() < PAR_BUILD_MIN {
            return Self::build_ordered(rel, positions, attr_order);
        }
        let arity = rel.arity();
        let n = rel.len();
        let perm = order_perm_threads(rel, positions, threads);
        let bounds = boundary_depths(rel, positions, perm.as_deref(), threads);
        let cols: Vec<&[Value]> = positions.iter().map(|&p| rel.column(p)).collect();

        // chunk ranges aligned to root boundaries (bounds == 0), one per worker
        let roots: Vec<usize> = (0..n).filter(|&i| bounds[i] == 0).collect();
        let per = roots.len().div_ceil(threads).max(1);
        let ranges: Vec<std::ops::Range<usize>> = (0..roots.len())
            .step_by(per)
            .map(|s| roots[s]..roots.get(s + per).copied().unwrap_or(n))
            .collect();

        let partials: Vec<Vec<PrefixMap>> = std::thread::scope(|scope| {
            let bounds = &bounds;
            let cols = &cols;
            let perm = perm.as_deref();
            let handles: Vec<_> = ranges
                .iter()
                .map(|range| {
                    let range = range.clone();
                    scope.spawn(move || {
                        let mut levels: Vec<PrefixMap> = vec![PrefixMap::default(); arity];
                        let mut cur: Vec<Value> = vec![0; arity];
                        for idx in range {
                            let r = perm.map_or(idx, |p| p[idx]);
                            // the chunk starts at a root boundary, so `cur` is
                            // always fully initialized before any prefix read
                            for (k, col) in cols.iter().enumerate().skip(bounds[idx]) {
                                cur[k] = col[r];
                                let group = levels[k].entry(cur[..k].to_vec()).or_default();
                                group.values.push(cur[k]);
                            }
                        }
                        levels
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("index build worker"))
                .collect()
        });

        let mut levels: Vec<PrefixMap> = vec![PrefixMap::default(); arity];
        for partial in partials {
            for (k, map) in partial.into_iter().enumerate() {
                if k == 0 {
                    // single root entry: concatenate the chunks' runs in order
                    for (key, mut group) in map {
                        let root = levels[0].entry(key).or_default();
                        root.values.append(&mut group.values);
                    }
                } else {
                    for (key, group) in map {
                        let old = levels[k].insert(key, group);
                        debug_assert!(old.is_none(), "prefix keys must not span chunks");
                    }
                }
            }
        }
        PrefixIndex {
            attr_order,
            levels: with_layouts(levels),
            len: n,
        }
    }

    /// The attribute order the index was built over.
    pub fn attr_order(&self) -> &[String] {
        &self.attr_order
    }

    /// Approximate heap footprint in bytes (per-entry key, value and layout
    /// storage plus an estimated hash-table overhead) — the byte accounting
    /// behind the access-structure cache's budget.
    pub fn heap_bytes(&self) -> usize {
        // per-entry bookkeeping estimate: two Vec headers, the layout's boxed
        // slice + table slot
        const ENTRY_OVERHEAD: usize = 72;
        self.levels
            .iter()
            .flat_map(|m| m.iter())
            .map(|(k, g)| {
                (k.len() + g.values.len()) * std::mem::size_of::<Value>()
                    + g.words.len() * std::mem::size_of::<u64>()
                    + ENTRY_OVERHEAD
            })
            .sum()
    }

    /// Arity of the indexed relation.
    pub fn arity(&self) -> usize {
        self.attr_order.len()
    }

    /// Number of tuples in the indexed relation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the indexed relation was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sorted distinct values of attribute `prefix.len()` (in index order) extending
    /// `prefix`, or `None` if the prefix does not occur.
    pub fn values_after(&self, prefix: &[Value]) -> Option<&[Value]> {
        self.group_after(prefix).map(|g| g.values.as_slice())
    }

    /// The whole sibling group extending `prefix` — values and layout — or
    /// `None` if the prefix does not occur. What a [`crate::PrefixCursor`] opens.
    pub(crate) fn group_after(&self, prefix: &[Value]) -> Option<&Group> {
        self.levels.get(prefix.len())?.get(prefix)
    }

    /// The sorted distinct values of the first attribute — the root sibling group.
    pub fn root_values(&self) -> &[Value] {
        self.values_after(&[]).unwrap_or(&[])
    }

    /// Number of distinct values extending `prefix` (0 if the prefix does not occur).
    pub fn count_after(&self, prefix: &[Value]) -> usize {
        self.values_after(prefix).map_or(0, |v| v.len())
    }

    /// Whether any tuple extends `prefix`. A full-length prefix is tested for
    /// membership in the relation.
    pub fn contains_prefix(&self, prefix: &[Value]) -> bool {
        if prefix.is_empty() {
            return self.len > 0;
        }
        if prefix.len() == self.arity() {
            // membership: look up the parent prefix and binary-search the last value
            return self
                .values_after(&prefix[..prefix.len() - 1])
                .map(|vals| vals.binary_search(&prefix[prefix.len() - 1]).is_ok())
                .unwrap_or(false);
        }
        self.values_after(prefix).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::new(&["A", "B"]),
            vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![2, 5], vec![4, 1]],
        )
    }

    #[test]
    fn values_after_prefixes() {
        let idx = PrefixIndex::build(&rel(), &["A", "B"]).unwrap();
        assert_eq!(idx.values_after(&[]).unwrap(), &[1, 2, 4]);
        assert_eq!(idx.root_values(), &[1, 2, 4]);
        assert_eq!(idx.values_after(&[1]).unwrap(), &[2, 3]);
        assert_eq!(idx.values_after(&[2]).unwrap(), &[3, 5]);
        assert_eq!(idx.values_after(&[4]).unwrap(), &[1]);
        assert!(idx.values_after(&[9]).is_none());
        assert_eq!(idx.count_after(&[1]), 2);
        assert_eq!(idx.count_after(&[9]), 0);
        assert_eq!(idx.len(), 5);
        assert!(!idx.is_empty());
        assert_eq!(idx.arity(), 2);
    }

    #[test]
    fn reordered_index() {
        let idx = PrefixIndex::build(&rel(), &["B", "A"]).unwrap();
        assert_eq!(idx.attr_order(), &["B".to_string(), "A".to_string()]);
        assert_eq!(idx.values_after(&[]).unwrap(), &[1, 2, 3, 5]);
        assert_eq!(idx.values_after(&[3]).unwrap(), &[1, 2]);
    }

    #[test]
    fn contains_prefix_all_lengths() {
        let idx = PrefixIndex::build(&rel(), &["A", "B"]).unwrap();
        assert!(idx.contains_prefix(&[]));
        assert!(idx.contains_prefix(&[1]));
        assert!(idx.contains_prefix(&[1, 3]));
        assert!(!idx.contains_prefix(&[1, 9]));
        assert!(!idx.contains_prefix(&[9]));
        let empty = PrefixIndex::build(&Relation::empty(Schema::new(&["A"])), &["A"]).unwrap();
        assert!(!empty.contains_prefix(&[]));
        assert!(empty.is_empty());
        assert!(empty.root_values().is_empty());
    }

    #[test]
    fn bad_order_rejected() {
        assert!(PrefixIndex::build(&rel(), &["A"]).is_err());
        assert!(PrefixIndex::build(&rel(), &["A", "Z"]).is_err());
        assert!(PrefixIndex::build(&rel(), &["A", "A"]).is_err());
        assert!(PrefixIndex::build_positions(&rel(), &[0]).is_err());
        assert!(PrefixIndex::build_positions(&rel(), &[0, 0]).is_err());
        assert!(PrefixIndex::build_positions(&rel(), &[0, 2]).is_err());
    }

    #[test]
    fn positional_build_matches_named_build() {
        let r = rel();
        let by_name = PrefixIndex::build(&r, &["B", "A"]).unwrap();
        let by_pos = PrefixIndex::build_positions(&r, &[1, 0]).unwrap();
        assert_eq!(by_pos, by_name);
        assert_eq!(by_pos.attr_order(), &["B".to_string(), "A".to_string()]);
        assert!(by_pos.heap_bytes() > 0);
        let par = PrefixIndex::build_positions_parallel(&r, &[1, 0], 4).unwrap();
        assert_eq!(par, by_name);
    }

    #[test]
    fn layouts_sit_beside_dense_groups_and_count_in_heap_bytes() {
        // one dense root group of 40, forty dense child groups of 8
        let rows = (0..800).map(|i| vec![i % 40, 100 + (i * 7) % 64]).collect();
        let r = Relation::from_rows(Schema::new(&["A", "B"]), rows);
        let idx = PrefixIndex::build(&r, &["A", "B"]).unwrap();
        let groups: Vec<&Group> = idx.levels.iter().flat_map(|m| m.values()).collect();
        assert_eq!(groups.len(), 41);
        let mut bytes = 0;
        for g in &groups {
            assert!((1..=g.values.len() / 4 + 2).contains(&g.words.len()));
            bytes += 8 * (g.values.len() + g.words.len()) + 72;
        }
        // ... plus the forty 1-value keys
        assert_eq!(idx.heap_bytes(), bytes + 8 * 40);

        // a sparse group allocates nothing
        let wide =
            Relation::from_rows(Schema::new(&["A"]), (0..9).map(|i| vec![i << 20]).collect());
        let idx = PrefixIndex::build(&wide, &["A"]).unwrap();
        assert!(idx.group_after(&[]).unwrap().words.is_empty());
    }

    #[test]
    fn duplicate_heavy_relation() {
        // many tuples sharing prefixes: distinct next-values must be deduplicated
        let rows = (0..100).map(|i| vec![i % 5, i % 7]).collect();
        let r = Relation::from_rows(Schema::new(&["A", "B"]), rows);
        let idx = PrefixIndex::build(&r, &["A", "B"]).unwrap();
        assert_eq!(idx.values_after(&[]).unwrap().len(), 5);
        for a in 0..5 {
            let vals = idx.values_after(&[a]).unwrap();
            let mut sorted = vals.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(vals, sorted.as_slice());
        }
    }

    #[test]
    fn fused_build_matches_reorder_then_build() {
        // ternary relation, non-native order: the argsorted fused pass must agree
        // with an index built over the materialized reordered relation
        let r = Relation::from_rows(
            Schema::new(&["A", "B", "C"]),
            (0..60).map(|i| vec![i % 4, i % 3, i % 5]).collect(),
        );
        let fused = PrefixIndex::build(&r, &["C", "A", "B"]).unwrap();
        let reordered = r.reorder(&["C", "A", "B"]).unwrap();
        let direct = PrefixIndex::build(&reordered, &["C", "A", "B"]).unwrap();
        assert_eq!(fused.values_after(&[]), direct.values_after(&[]));
        for c in 0..5 {
            assert_eq!(fused.values_after(&[c]), direct.values_after(&[c]));
            for a in 0..4 {
                assert_eq!(fused.values_after(&[c, a]), direct.values_after(&[c, a]));
            }
        }
    }
}
