//! CSR-flattened prefix tries with seekable cursors — the access path required by
//! Leapfrog Triejoin (Veldhuizen 2014), the WCOJ algorithm that inspired Generic Join
//! in the paper's historical account (Section 1.2).
//!
//! A [`Trie`] stores a relation's tuples, reordered by a chosen attribute order, as
//! one sorted value array per level plus child-range offsets. Construction is a
//! **fused pass over the relation's columns**: one argsort of row indices (skipped
//! entirely when the requested order is the relation's native order), then a single
//! scan that emits every level's values and child offsets simultaneously — no row
//! materialization, no per-level re-grouping. It is the only way a trie is
//! built, and it runs on the calling thread.
//!
//! Each level also carries the **set layouts** of its dense sibling groups (see
//! [`crate::kernels`]): one pool of bitset words per level plus one offset per
//! group (CSR, like the child ranges), filled from the finished value arrays,
//! counted in [`Trie::heap_bytes`], and absent altogether on a
//! level without a dense group.
//!
//! A [`crate::DeltaRelation`] is read through this same trie: its sealed runs
//! fold into one tombstone-free run, a plain relation, and
//! [`crate::delta::Run::trie`] is this builder over it.
//!
//! # The cursor
//!
//! The worst-case optimal join algorithms of the paper need one capability
//! from storage: positioned enumeration of the sorted values that extend a
//! bound prefix, with a least-upper-bound `seek`, so that an intersection
//! costs time proportional to its smallest set (Section 2). [`TrieCursor`]
//! is that capability — the classic Leapfrog Triejoin iterator, and equally
//! the "sorted extensions of a prefix" Generic Join (Algorithm 2) assumes —
//! and Generic Join and Leapfrog Triejoin in `wcoj-core` take it directly.
//! `seek` gallops (exponential then binary search, `ops::gallop_lub`), so a
//! full leapfrog intersection of `k` sorted sets costs
//! `O(k · min_size · log(max/min))`. Cursors are `Send + Clone` — they borrow
//! the (immutable, `Sync`) trie and own their stack plus private
//! [`CursorWork`] tallies, which the engine drains with
//! [`TrieCursor::take_work`]. A cursor in a dense sibling group also hands out the
//! group's prebuilt set layout ([`TrieCursor::layout`]): when every cursor of
//! an intersection has one, the engines AND bitset words instead of scanning
//! the lists.
//!
//! The contract: a cursor is a stack of *sibling groups*. At depth `d` it
//! stands at one value of the sorted group of distinct values extending the
//! length-`d-1` prefix chosen at shallower depths. `open` descends into the
//! children of the current value, `up` pops back, `next`/`seek` move within
//! the current group and never escape it. `seek` only moves forward (targets
//! must be non-decreasing between `open`s — the leapfrog discipline);
//! `reposition`, `advance_to` and `seat_by_rank` move only to keys whose
//! discovery was already paid for elsewhere, so they record no work.
//! `seat_by_rank` moves in a dense group only: it seats the cursor at a
//! member by the running rank its caller keeps over the group's layout, for
//! members visited ascending, and reads no value. At the root there is no
//! group: `next`, `seek`, `reposition`, `advance_to` and `seat_by_rank`
//! answer `false` there without moving, and only `key` panics.

use crate::error::StorageError;
use crate::kernels::{self, Layout};
use crate::relation::Relation;
use crate::stats::CursorWork;
use crate::Value;

/// One level of the trie: all node values at this depth (grouped by parent, each group
/// sorted), plus the start offset of each node's children in the next level.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TrieLevel {
    /// Node values at this depth, concatenated parent group by parent group.
    values: Vec<Value>,
    /// `child_start[i]..child_start[i+1]` is the range of node `i`'s children in the
    /// next level's `values`. Empty for the deepest level (never dereferenced there).
    child_start: Vec<usize>,
    /// The set layouts of this level's dense sibling groups, concatenated in
    /// group order: one word pool per level.
    layout_words: Vec<u64>,
    /// `layout_start[g]..layout_start[g + 1]` is group `g`'s layout in
    /// `layout_words` — group `g` is the children of node `g` one level up (the
    /// root level is its single group 0) — an empty range for a sparse group.
    /// Left empty when no group of the level is dense, so sparse relations pay
    /// nothing.
    layout_start: Vec<usize>,
}

impl TrieLevel {
    /// Assemble a level from its finished `values`, building the layouts of its
    /// sibling groups — `groups` yields their `start..end` ranges in order.
    fn new(
        values: Vec<Value>,
        child_start: Vec<usize>,
        groups: impl Iterator<Item = std::ops::Range<usize>>,
    ) -> Self {
        let mut layout_words: Vec<u64> = Vec::new();
        let mut layout_start: Vec<usize> = vec![0];
        for range in groups {
            kernels::append_layout(&mut layout_words, &values[range]);
            layout_start.push(layout_words.len());
        }
        if layout_words.is_empty() {
            layout_start = Vec::new();
        }
        TrieLevel {
            values,
            child_start,
            layout_words,
            layout_start,
        }
    }
}

/// Assemble a trie's levels from the per-level `values` and `child_start`
/// arrays [`scan`] produces: level 0 is one sibling group, level `d + 1`'s
/// groups are level `d`'s child ranges.
fn assemble_levels(values: Vec<Vec<Value>>, child_start: Vec<Vec<usize>>) -> Vec<TrieLevel> {
    let mut levels: Vec<TrieLevel> = Vec::with_capacity(values.len());
    for (values, child_start) in values.into_iter().zip(child_start) {
        let level = match levels.last() {
            None => {
                let root = (!values.is_empty()).then_some(0..values.len());
                TrieLevel::new(values, child_start, root.into_iter())
            }
            Some(parent) => {
                let groups = parent.child_start.windows(2).map(|w| w[0]..w[1]);
                TrieLevel::new(values, child_start, groups)
            }
        };
        levels.push(level);
    }
    levels
}

/// A prefix trie over a relation in a fixed attribute order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trie {
    attr_order: Vec<String>,
    levels: Vec<TrieLevel>,
    num_tuples: usize,
}

/// Check that `positions` is a permutation of `0..arity` — the one place a
/// column order is validated.
fn check_positions(arity: usize, positions: &[usize]) -> Result<(), StorageError> {
    if positions.len() != arity {
        return Err(StorageError::ArityMismatch {
            expected: arity,
            found: positions.len(),
        });
    }
    let mut seen = vec![false; arity];
    for &p in positions {
        if p >= arity || seen[p] {
            return Err(StorageError::DuplicateAttribute(format!("column {p}")));
        }
        seen[p] = true;
    }
    Ok(())
}

/// Argsort of `rel`'s rows by the permuted columns ([`Relation::sort_perm`]),
/// or `None` when the permutation is the identity (the relation is already
/// sorted in that order). Rows of a full-attribute permutation are distinct, so
/// the argsort's index tie-break never fires.
fn order_perm(rel: &Relation, positions: &[usize]) -> Option<Vec<usize>> {
    if positions.iter().enumerate().all(|(i, &p)| i == p) {
        return None;
    }
    Some(rel.sort_perm(positions))
}

/// The first depth at which row `r` differs from row `prev` under the permuted
/// columns `cols` — where `r` starts new trie nodes when it follows `prev`.
#[inline]
fn boundary(cols: &[&[Value]], r: usize, prev: usize) -> usize {
    let mut d = 0;
    while d < cols.len() && cols[d][r] == cols[d][prev] {
        d += 1;
    }
    debug_assert!(d < cols.len(), "relations are deduplicated");
    d
}

/// The level arrays — per level the node `values` and their `child_start`
/// offsets — by one fused pass: argsort the row indices by the permuted columns
/// (skipped when the order is native), then scan once, pushing a node at depth
/// `d` whenever the current row first differs from the previous row at depth
/// `≤ d`.
fn scan(
    rel: &Relation,
    positions: &[usize],
    perm: Option<&[usize]>,
) -> (Vec<Vec<Value>>, Vec<Vec<usize>>) {
    let arity = rel.arity();
    let cols: Vec<&[Value]> = positions.iter().map(|&p| rel.column(p)).collect();
    let mut values: Vec<Vec<Value>> = vec![Vec::new(); arity];
    let mut child_start: Vec<Vec<usize>> = vec![Vec::new(); arity];
    let mut prev: Option<usize> = None;
    for idx in 0..rel.len() {
        let r = perm.map_or(idx, |p| p[idx]);
        let d = prev.map_or(0, |pr| boundary(&cols, r, pr));
        // the row starts a new node at every depth >= d
        for (depth, col) in cols.iter().enumerate().skip(d) {
            if depth + 1 < arity {
                child_start[depth].push(values[depth + 1].len());
            }
            values[depth].push(col[r]);
        }
        prev = Some(r);
    }
    // closing sentinels: node i's children end where node i+1's begin
    for depth in 0..arity.saturating_sub(1) {
        child_start[depth].push(values[depth + 1].len());
    }
    (values, child_start)
}

impl Trie {
    /// Build a trie for `rel` with attributes reordered to `attr_order` (a permutation
    /// of the relation's attributes), by a single fused argsort-and-scan pass over
    /// the relation's columns.
    pub fn build(rel: &Relation, attr_order: &[&str]) -> Result<Self, StorageError> {
        Self::build_positions(rel, &rel.schema().positions(attr_order)?)
    }

    /// [`Trie::build`] with the order given as **column positions** (a permutation of
    /// `0..arity`, names synthesized from the stored schema) — the entry used by
    /// [`crate::delta::Run::trie`], whose memo is keyed by positions so that
    /// per-query variable names never reach (or fragment) it.
    pub fn build_positions(rel: &Relation, positions: &[usize]) -> Result<Self, StorageError> {
        check_positions(rel.arity(), positions)?;
        let perm = order_perm(rel, positions);
        let (values, child_start) = scan(rel, positions, perm.as_deref());
        Ok(Trie {
            attr_order: positions
                .iter()
                .map(|&p| rel.schema().attrs()[p].clone())
                .collect(),
            levels: assemble_levels(values, child_start),
            num_tuples: rel.len(),
        })
    }

    /// The attribute order of the trie.
    pub fn attr_order(&self) -> &[String] {
        &self.attr_order
    }

    /// Approximate heap footprint in bytes (level value, offset and layout
    /// arrays, order metadata) — what [`crate::delta::Run::trie_bytes`] sums
    /// over a run's memoized tries.
    pub fn heap_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| {
                l.values.len() * std::mem::size_of::<Value>()
                    + l.child_start.len() * std::mem::size_of::<usize>()
                    + l.layout_words.len() * std::mem::size_of::<u64>()
                    + l.layout_start.len() * std::mem::size_of::<usize>()
            })
            .sum::<usize>()
            + self.attr_order.iter().map(|s| s.len()).sum::<usize>()
    }

    /// Arity (number of levels).
    pub fn arity(&self) -> usize {
        self.attr_order.len()
    }

    /// Number of tuples in the underlying relation.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples
    }

    /// Number of trie nodes at `depth` (distinct prefixes of length `depth + 1`).
    pub fn nodes_at(&self, depth: usize) -> usize {
        self.levels.get(depth).map_or(0, |l| l.values.len())
    }

    /// A cursor positioned at the root. Its frame stack is sized for a full
    /// descent here, so navigation never allocates.
    pub fn cursor(&self) -> TrieCursor<'_> {
        TrieCursor {
            trie: self,
            stack: Vec::with_capacity(self.arity()),
            work: CursorWork::default(),
            simd: crate::simd::active_level(),
        }
    }
}

/// A cursor frame: the sibling group `[start, end)` at this level, the position
/// within it, and the group's set layout, resolved once by `open` (`None` for a
/// sparse group). A dense group's layout holds every member's rank, so
/// [`TrieCursor::advance_to`] repositions in such a group by counting set bits.
#[derive(Debug, Clone, Copy)]
struct Frame<'a> {
    start: usize,
    pos: usize,
    end: usize,
    layout: Option<Layout<'a>>,
}

/// A seekable cursor over a [`Trie`], implementing the Leapfrog Triejoin iterator
/// interface under the contract in the module docs. `Send + Clone`: it borrows
/// the shared trie and owns its stack and work tallies.
#[derive(Debug, Clone)]
pub struct TrieCursor<'a> {
    trie: &'a Trie,
    stack: Vec<Frame<'a>>,
    work: CursorWork,
    simd: crate::simd::SimdLevel,
}

impl<'a> TrieCursor<'a> {
    /// Current depth: number of levels that have been opened (0 = at root).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Arity of the underlying trie (total number of levels).
    pub fn arity(&self) -> usize {
        self.trie.arity()
    }

    /// Descend into the first child of the current node (or into the first root-level
    /// value when at the root). Returns `false` without moving if there are no
    /// children (already at the deepest level, or the trie is empty). The new
    /// frame carries the group's set layout, if it has one.
    #[inline]
    pub fn open(&mut self) -> bool {
        let trie: &'a Trie = self.trie;
        let next_level = self.stack.len();
        let Some(level) = trie.levels.get(next_level) else {
            return false;
        };
        // group `g` of a level is the children of node `g` one level up
        let (group, begin, end) = match self.stack.last() {
            None => (0, 0, level.values.len()),
            Some(frame) => {
                let cs = &trie.levels[next_level - 1].child_start;
                (frame.pos, cs[frame.pos], cs[frame.pos + 1])
            }
        };
        if begin == end {
            return false;
        }
        let layout = level.layout_start.get(group..group + 2).and_then(|bounds| {
            kernels::layout_of(
                level.values[begin],
                &level.layout_words[bounds[0]..bounds[1]],
            )
        });
        self.stack.push(Frame {
            start: begin,
            pos: begin,
            end,
            layout,
        });
        true
    }

    /// Ascend one level. No-op at the root.
    #[inline]
    pub fn up(&mut self) {
        self.stack.pop();
    }

    /// The value at the cursor's current position. Panics if the cursor is at the root
    /// or at the end of its sibling group.
    #[inline]
    pub fn key(&self) -> Value {
        let frame = self.stack.last().expect("cursor is at the root");
        assert!(frame.pos < frame.end, "cursor is at end of its group");
        self.trie.levels[self.stack.len() - 1].values[frame.pos]
    }

    /// Whether the cursor has run past the last sibling at the current level
    /// (always true at the root).
    pub fn at_end(&self) -> bool {
        match self.stack.last() {
            None => true,
            Some(f) => f.pos >= f.end,
        }
    }

    /// Advance to the next sibling. Returns `false` if that moves past the end,
    /// or at the root.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> bool {
        self.work.intersect_steps += 1;
        let Some(frame) = self.stack.last_mut() else {
            return false;
        };
        if frame.pos < frame.end {
            frame.pos += 1;
        }
        frame.pos < frame.end
    }

    /// Seek to the least sibling with value `>= target` (adaptive: linear scan for
    /// short groups, galloping search otherwise). Forward-only. Returns `false`
    /// if no such sibling exists (the cursor is then `at_end`), or at the root.
    #[inline]
    pub fn seek(&mut self, target: Value) -> bool {
        let depth = self.stack.len();
        let Some(frame) = self.stack.last_mut() else {
            return false;
        };
        let values = &self.trie.levels[depth - 1].values;
        if frame.pos >= frame.end {
            return false;
        }
        let (pos, probes, cmps) =
            crate::ops::seek_lub(self.simd, values, frame.pos, frame.end, target);
        self.work.probes += probes;
        self.work.comparisons += cmps;
        frame.pos = pos;
        frame.pos < frame.end
    }

    /// Position at the sibling with value exactly `target`, searching the *whole*
    /// group (may move backward). Uncounted: used by the execution layer to
    /// re-position at keys whose discovery cost was already accounted elsewhere
    /// (e.g. the values of the first variable's extension set, which the
    /// driver's intersection paid for).
    /// `false` at the root.
    pub fn reposition(&mut self, target: Value) -> bool {
        let depth = self.stack.len();
        let Some(frame) = self.stack.last_mut() else {
            return false;
        };
        let values = &self.trie.levels[depth - 1].values[frame.start..frame.end];
        match values.binary_search(&target) {
            Ok(i) => {
                frame.pos = frame.start + i;
                true
            }
            Err(i) => {
                frame.pos = frame.start + i;
                false
            }
        }
    }

    /// Forward-only, uncounted positioning at exactly `target`, which must be
    /// `>=` the current key: the fast path for re-positioning at
    /// kernel-discovered keys visited in ascending order (their search cost was
    /// already accounted by the intersection kernel). Returns whether the value
    /// is present — the cursor then stands at the least sibling `>= target`
    /// (`false` at the root).
    ///
    /// A dense group repositions by rank: its set layout has one bit per
    /// member, so the members in `[current key, target)` are counted a word at
    /// a time (`kernels::members_between`) and the cursor moves that many
    /// places — no value is compared but the one it lands on. A sparse group
    /// searches forward from the cursor by `seek`'s search, whose counts it
    /// drops.
    #[inline]
    pub fn advance_to(&mut self, target: Value) -> bool {
        let depth = self.stack.len();
        let Some(frame) = self.stack.last_mut() else {
            return false;
        };
        let values = &self.trie.levels[depth - 1].values;
        if frame.pos >= frame.end {
            return false;
        }
        let current = values[frame.pos];
        if current >= target {
            return current == target;
        }
        frame.pos = match frame.layout {
            Some(layout) => frame.pos + kernels::members_between(layout, current, target),
            None => crate::ops::seek_lub(self.simd, values, frame.pos, frame.end, target).0,
        };
        frame.pos < frame.end && values[frame.pos] == target
    }

    /// Forward-only, uncounted positioning at `target`, a member of the
    /// current group, by the running rank `walk` keeps over the group's layout
    /// ([`kernels::RunningRank`]): the cursor moves to the member's place from
    /// the group's start, and no value is read. `walk` must be fresh when the
    /// group was opened and see its targets ascending — the engine seats a
    /// level's participants this way at each value of an extension set it
    /// walks in order, whose discovery the kernel already paid for. Returns
    /// `false` without moving at the root or in a sparse group (no layout).
    #[inline]
    pub fn seat_by_rank(&mut self, walk: &mut kernels::RunningRank, target: Value) -> bool {
        let depth = self.stack.len();
        let Some(frame) = self.stack.last_mut() else {
            return false;
        };
        let Some(layout) = frame.layout else {
            return false;
        };
        frame.pos = frame.start + walk.rank_of(layout, target);
        debug_assert!(
            frame.pos < frame.end && self.trie.levels[depth - 1].values[frame.pos] == target,
            "a seat by rank lands on its target"
        );
        true
    }

    /// The values remaining in the current sibling group, from the cursor's
    /// position onward (empty at the root).
    #[inline]
    pub fn remaining(&self) -> &'a [Value] {
        match self.stack.last() {
            None => &[],
            Some(f) => &self.trie.levels[self.stack.len() - 1].values[f.pos..f.end],
        }
    }

    /// The prebuilt set layout of the whole current sibling group, if the
    /// group is dense (see [`crate::kernels`]); `None` at the root. `open`
    /// resolved it, so this is a read of the frame.
    #[inline]
    pub fn layout(&self) -> Option<Layout<'a>> {
        self.stack.last()?.layout
    }

    /// Drain the cursor's private work tallies (resetting them to zero). The
    /// engines call this once per cursor at the end of a run and absorb the
    /// result into their [`crate::WorkCounter`].
    #[inline]
    pub fn take_work(&mut self) -> CursorWork {
        std::mem::take(&mut self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaRelation;
    use crate::schema::Schema;

    impl TrieCursor<'_> {
        /// The cursor at an explicit SIMD level, which changes wall-clock only.
        pub(crate) fn at_level(mut self, level: crate::simd::SimdLevel) -> Self {
            self.simd = level;
            self
        }
    }

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::new(&["A", "B", "C"]),
            vec![
                vec![1, 2, 10],
                vec![1, 2, 11],
                vec![1, 3, 10],
                vec![2, 2, 12],
                vec![4, 1, 1],
                vec![4, 1, 2],
            ],
        )
    }

    #[test]
    fn positional_build_matches_named_build() {
        let r = rel();
        let by_name = Trie::build(&r, &["C", "A", "B"]).unwrap();
        let by_pos = Trie::build_positions(&r, &[2, 0, 1]).unwrap();
        assert_eq!(by_pos, by_name);
        assert_eq!(
            by_pos.attr_order(),
            &["C".to_string(), "A".to_string(), "B".to_string()]
        );
        assert!(by_pos.heap_bytes() > 0);
        assert!(Trie::build_positions(&r, &[0, 1]).is_err());
        assert!(Trie::build_positions(&r, &[0, 1, 1]).is_err());
        assert!(Trie::build_positions(&r, &[0, 1, 3]).is_err());
    }

    #[test]
    fn layouts_are_bounded_and_counted_in_heap_bytes() {
        // 40 roots (dense) x 8 children each within a span of 64 (dense), and a
        // sparse twin
        let dense: Vec<Vec<Value>> = (0..800).map(|i| vec![i % 40, 100 + (i * 7) % 64]).collect();
        let dense = Relation::from_rows(Schema::new(&["A", "B"]), dense);
        let t = Trie::build(&dense, &["A", "B"]).unwrap();
        let mut bytes = "AB".len();
        for (level, groups) in t.levels.iter().zip([1, 40]) {
            assert_eq!(level.layout_start.len(), groups + 1);
            assert!(level.layout_start.windows(2).all(|w| w[0] < w[1]));
            // per group at most len / 4 + 2 words
            assert!(level.layout_words.len() <= level.values.len() / 4 + 2 * groups);
            bytes += 8 * (level.values.len() + level.child_start.len())
                + 8 * level.layout_words.len()
                + 8 * level.layout_start.len();
        }
        assert_eq!(t.heap_bytes(), bytes);

        let sparse: Vec<Vec<Value>> = (0..800).map(|i| vec![i * 1000, i * 999]).collect();
        let sparse = Relation::from_rows(Schema::new(&["A", "B"]), sparse);
        let t = Trie::build(&sparse, &["A", "B"]).unwrap();
        for level in &t.levels {
            assert!(level.layout_words.is_empty() && level.layout_start.is_empty());
        }
        assert_eq!(t.heap_bytes(), 2 + 8 * (800 + 801 + 800));
    }

    #[test]
    fn build_counts_nodes() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.num_tuples(), 6);
        assert_eq!(t.nodes_at(0), 3); // A in {1, 2, 4}
        assert_eq!(t.nodes_at(1), 4); // (1,2) (1,3) (2,2) (4,1)
        assert_eq!(t.nodes_at(2), 6); // all tuples distinct
        let mut c = t.cursor();
        assert!(c.open());
        assert_eq!(c.remaining(), &[1, 2, 4]);
        assert_eq!(
            t.attr_order(),
            &["A".to_string(), "B".to_string(), "C".to_string()]
        );
    }

    #[test]
    fn cursor_walks_first_level() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let mut c = t.cursor();
        assert!(c.at_end()); // root has no key
        assert!(c.open());
        assert_eq!(c.depth(), 1);
        assert_eq!(c.key(), 1);
        assert!(c.next());
        assert_eq!(c.key(), 2);
        assert!(c.next());
        assert_eq!(c.key(), 4);
        assert!(!c.next());
        assert!(c.at_end());
        c.up();
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn cursor_descends_into_correct_children() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let mut c = t.cursor();
        c.open();
        // move to A = 4
        assert!(c.seek(4));
        assert_eq!(c.key(), 4);
        assert!(c.open());
        assert_eq!(c.key(), 1); // B values under A=4: {1}
        assert!(c.open());
        assert_eq!(c.remaining(), &[1, 2]); // C values under (4,1)
        assert_eq!(c.key(), 1);
        assert!(c.next());
        assert_eq!(c.key(), 2);
        assert!(!c.next());
    }

    #[test]
    fn seek_is_least_upper_bound() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let mut c = t.cursor();
        c.open();
        assert!(c.seek(2));
        assert_eq!(c.key(), 2);
        assert!(c.seek(3));
        assert_eq!(c.key(), 4); // 3 absent, lub is 4
        assert!(!c.seek(5)); // nothing >= 5
        assert!(c.at_end());
    }

    #[test]
    fn seek_within_child_group_does_not_escape() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let mut c = t.cursor();
        c.open();
        // A = 1, children B in {2, 3}
        assert_eq!(c.key(), 1);
        c.open();
        assert!(c.seek(3));
        assert_eq!(c.key(), 3);
        assert!(!c.seek(4)); // 4 exists at level B only under A=2/A=4 groups, not here
    }

    #[test]
    fn reposition_is_bidirectional_within_group() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let mut c = t.cursor();
        c.open();
        assert!(c.seek(4));
        assert_eq!(c.key(), 4);
        // reposition can move backward, unlike seek
        assert!(c.reposition(1));
        assert_eq!(c.key(), 1);
        assert!(c.reposition(4));
        assert_eq!(c.key(), 4);
        assert!(!c.reposition(3)); // absent
                                   // and it is uncounted work
        assert!(!c.take_work().is_zero()); // from the earlier seek only
        assert!(c.reposition(2));
        assert_eq!(c.take_work(), CursorWork::default());
    }

    /// A dense group's `advance_to` moves by rank, and lands where a search
    /// would: groups spanning 1–65 words, first values on and off the 64-grid
    /// (some near the top of the value range), last words partly used, and
    /// chains of targets — the current key, just ahead (often absent), in the
    /// next word, words ahead, a member, past the end — against
    /// `partition_point` on the group's values. A running rank over the same
    /// group seats a fresh cursor at an ascending run of its members, each at
    /// its index.
    #[test]
    fn advance_to_by_rank_equals_search() {
        let mut state = 0x5EED_4A11u64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let (mut dense, mut calls, mut seats) = (0, 0, 0);
        for case in 0..600u64 {
            let words = 1 + case % 65;
            let base = match case % 7 {
                0 => (u64::MAX / 64 - 66) * 64,
                _ => next(1 << 40) * 64,
            };
            // a 65-word group fits the 4096-value span only off the grid
            let first = match (words, case % 3) {
                (65, _) => base + 1 + next(63),
                (_, 0) => base,
                _ => base + next(64),
            };
            let last = (base + 64 * (words - 1) + next(64)).clamp(first, first + 4095);
            let every = [1, 2, 4, 12][next(4) as usize];
            let mut group: Vec<Value> = (first + 1..last).filter(|_| next(every) == 0).collect();
            group.insert(0, first);
            group.extend((last > first).then_some(last));
            // group 0 is a fixed dense neighbour, so group 1's layout is found by index
            let rows = (0..8)
                .map(|v| vec![0, v])
                .chain(group.iter().map(|&v| vec![1, v]));
            let r = Relation::from_rows(Schema::new(&["P", "V"]), rows.collect());
            let t = Trie::build(&r, &["P", "V"]).unwrap();
            let mut c = t.cursor();
            assert!(c.open() && c.advance_to(1) && c.open());
            assert_eq!(c.remaining(), group.as_slice());
            let mut seated = c.clone();
            let Some((layout_base, layout_words)) = c.layout() else {
                let walk = &mut kernels::RunningRank::default();
                assert!(
                    !seated.seat_by_rank(walk, first),
                    "a sparse group has no rank"
                );
                continue;
            };
            assert_eq!((layout_base, layout_words.len() as u64), (base, words));
            dense += 1;
            let mut walk = kernels::RunningRank::default();
            for (at, &member) in group.iter().enumerate() {
                if next(4) == 0 || at + 1 == group.len() {
                    assert!(seated.seat_by_rank(&mut walk, member));
                    assert_eq!(group.len() - seated.remaining().len(), at, "case {case}");
                    seats += 1;
                }
            }
            assert!(seated.take_work().is_zero(), "seating is uncounted");
            loop {
                let at = group.len() - c.remaining().len();
                let Some(&current) = group.get(at) else {
                    assert!(!c.advance_to(Value::MAX), "at the end stays at the end");
                    break;
                };
                let target = match next(16) {
                    0 => current,
                    1..=4 => current.saturating_add(1 + next(3)),
                    5..=7 => (current / 64 + 1)
                        .saturating_mul(64)
                        .saturating_add(next(64)),
                    8..=10 => current.saturating_add(64 * (2 + next(8)) + next(64)),
                    11..=14 => group[at + next((group.len() - at) as u64) as usize],
                    _ => last.saturating_add(1 + next(100)),
                };
                let found = c.advance_to(target);
                calls += 1;
                let lub = group.partition_point(|&v| v < target);
                assert_eq!(
                    (group.len() - c.remaining().len(), found),
                    (lub, group.get(lub) == Some(&target)),
                    "case {case}: {words} words from {first}, {current} -> {target}"
                );
            }
            assert!(c.take_work().is_zero(), "repositioning is uncounted");
        }
        assert!(
            dense > 500 && calls > 3_000 && seats > 3_000,
            "{dense} dense groups, {calls} calls, {seats} seats"
        );
    }

    #[test]
    fn reordered_trie() {
        let t = Trie::build(&rel(), &["C", "B", "A"]).unwrap();
        let mut c = t.cursor();
        c.open();
        // C values overall: 1, 2, 10, 11, 12
        assert_eq!(c.remaining(), &[1, 2, 10, 11, 12]);
        assert!(c.seek(10));
        c.open();
        assert_eq!(c.remaining(), &[2, 3]); // B values with C=10
    }

    #[test]
    fn reordered_trie_enumerates_reordered_tuples() {
        // the fused argsort build must agree with reorder-then-build
        let r = rel();
        for order in [
            ["A", "B", "C"],
            ["A", "C", "B"],
            ["B", "A", "C"],
            ["B", "C", "A"],
            ["C", "A", "B"],
            ["C", "B", "A"],
        ] {
            let t = Trie::build(&r, &order).unwrap();
            let reordered = r.reorder(&order).unwrap();
            let mut out = Vec::new();
            let mut c = t.cursor();
            walk(&mut c, 3, &mut Vec::new(), &mut out);
            assert_eq!(out, reordered.rows(), "order {order:?}");
        }
    }

    #[test]
    fn empty_relation_trie() {
        let t = Trie::build(&Relation::empty(Schema::new(&["A", "B"])), &["A", "B"]).unwrap();
        let mut c = t.cursor();
        assert!(!c.open());
        assert_eq!(t.nodes_at(0), 0);
        assert_eq!(t.num_tuples(), 0);
        assert!(c.remaining().is_empty());
    }

    #[test]
    fn unary_relation_trie() {
        let r = Relation::from_rows(Schema::new(&["A"]), vec![vec![5], vec![2], vec![9]]);
        let t = Trie::build(&r, &["A"]).unwrap();
        let mut c = t.cursor();
        assert!(c.open());
        assert_eq!(c.remaining(), &[2, 5, 9]);
        assert!(!c.open()); // no deeper level
        assert!(c.seek(6));
        assert_eq!(c.key(), 9);
    }

    #[test]
    fn cursor_records_work_privately() {
        let r = Relation::from_rows(Schema::new(&["A"]), (0..1000).map(|i| vec![i]).collect());
        let t = Trie::build(&r, &["A"]).unwrap();
        let mut c = t.cursor();
        c.open();
        c.seek(900);
        c.next();
        let w = c.take_work();
        assert!(w.probes > 0);
        assert!(w.intersect_steps > 0);
        // take_work drains
        assert!(c.take_work().is_zero());
    }

    #[test]
    fn cursors_are_send_and_clone() {
        fn assert_send_clone<T: Send + Clone>() {}
        fn assert_sync<T: Sync>() {}
        assert_send_clone::<TrieCursor<'_>>();
        assert_sync::<Trie>();
        // a clone is an independent cursor with its own stack
        let r = rel();
        let t = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let mut a = t.cursor();
        a.open();
        a.seek(2);
        let mut b = a.clone();
        b.next();
        assert_eq!(a.key(), 2);
        assert_eq!(b.key(), 4);
    }

    #[test]
    fn cursors_are_send_clone_and_indexes_sync() {
        fn assert_send_clone<T: Send + Clone>() {}
        fn assert_sync<T: Sync>() {}
        assert_send_clone::<TrieCursor<'_>>();
        assert_sync::<Trie>();
        assert_sync::<DeltaRelation>();
    }

    /// Shapes at the edges of the fused scan: no child offsets at all (unary),
    /// one root whose group holds every row, and fewer roots than chunks any
    /// partition of the rows would cut — each enumerates its rows and has the
    /// node counts its shape implies.
    #[test]
    fn build_handles_degenerate_shapes() {
        let unary = Relation::from_rows(
            Schema::new(&["A"]),
            (0..10_000).map(|i| vec![i * 3]).collect(),
        );
        let fat = Relation::from_rows(
            Schema::new(&["A", "B"]),
            (0..10_000).map(|i| vec![7, i]).collect(),
        );
        let few_roots = Relation::from_rows(
            Schema::new(&["A", "B"]),
            (0..9_000).map(|i| vec![i % 3, i]).collect(),
        );
        for (r, roots) in [(&unary, 10_000), (&fat, 1), (&few_roots, 3)] {
            let names: Vec<&str> = r.schema().attrs().iter().map(String::as_str).collect();
            let t = Trie::build(r, &names).unwrap();
            assert_eq!((t.nodes_at(0), t.nodes_at(r.arity() - 1)), (roots, r.len()));
            let mut out = Vec::new();
            walk(&mut t.cursor(), r.arity(), &mut Vec::new(), &mut out);
            assert_eq!(out, r.rows(), "{roots} roots");
        }
    }

    #[test]
    fn bad_attr_order_rejected() {
        assert!(Trie::build(&rel(), &["A", "B"]).is_err());
        assert!(Trie::build(&rel(), &["A", "B", "Z"]).is_err());
        assert!(Trie::build(&rel(), &["A", "B", "B"]).is_err());
    }

    fn walk(
        c: &mut TrieCursor<'_>,
        arity: usize,
        prefix: &mut Vec<Value>,
        out: &mut Vec<Vec<Value>>,
    ) {
        if !c.open() {
            return;
        }
        loop {
            if c.at_end() {
                break;
            }
            prefix.push(c.key());
            if prefix.len() == arity {
                out.push(prefix.clone());
            } else {
                walk(c, arity, prefix, out);
            }
            prefix.pop();
            if !c.next() {
                break;
            }
        }
        c.up();
    }

    /// `rel()` as a churned log: a seal of all but two of its rows plus four
    /// junk rows, a seal that puts the two back and deletes one junk row, and
    /// a buffer that deletes the rest and re-inserts one more.
    fn churned() -> DeltaRelation {
        let r = rel();
        let junk = |j: Value| vec![9, 9, j];
        let mut log = DeltaRelation::new(r.schema().clone());
        log.set_seal_threshold(usize::MAX);
        for t in r.iter().skip(2).chain((0..4).map(junk)) {
            log.insert(t).unwrap();
        }
        log.seal();
        for t in r.iter().take(2) {
            log.insert(t).unwrap();
        }
        log.delete(&junk(0)).unwrap();
        log.seal();
        for j in 1..4 {
            log.delete(&junk(j)).unwrap();
        }
        log.delete(&[4, 1, 2]).unwrap();
        log.insert(vec![4, 1, 2]).unwrap();
        assert_eq!((log.fold().map(|r| r.len()), log.buffered()), (Some(9), 5));
        log
    }

    /// The static trie and the trie a churned log is read through, over the
    /// same tuples: the same structure, bit for bit.
    #[test]
    fn both_backends_enumerate_identically() {
        let r = rel();
        let trie = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let live = churned().live_run().trie(&[0, 1, 2]).unwrap();
        assert_eq!(live, trie);
        for t in [&trie, &live] {
            let mut out = Vec::new();
            walk(&mut t.cursor(), 3, &mut Vec::new(), &mut out);
            assert_eq!(out, r.rows());
        }
    }

    #[test]
    fn navigation_follows_the_contract() {
        let trie = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let c = &mut trie.cursor();
        assert_eq!(c.arity(), 3);
        assert!(c.at_end()); // root
        assert!(c.remaining().is_empty());
        assert!(c.open());
        assert_eq!(c.depth(), 1);
        assert_eq!(c.key(), 1);
        assert_eq!(c.remaining(), &[1, 2, 4]); // A in {1, 2, 4}
        assert!(c.seek(3));
        assert_eq!(c.key(), 4); // lub of 3
        assert!(c.reposition(1)); // backward, uncounted
        assert_eq!(c.key(), 1);
        assert!(c.reposition(4));
        assert!(c.open());
        assert_eq!(c.key(), 1); // B under A=4
        assert!(c.open());
        assert_eq!(c.remaining().len(), 2); // C in {1, 2}
        assert!(c.next());
        assert_eq!(c.key(), 2);
        assert!(!c.next());
        assert!(c.at_end());
        c.up();
        c.up();
        assert_eq!(c.depth(), 1);
        assert!(!c.seek(5)); // nothing >= 5 at level A
        assert!(c.at_end());
        assert!(!c.take_work().is_zero());
    }

    /// Every set bit of a layout, ascending.
    fn decode((base, words): Layout<'_>) -> Vec<Value> {
        let bits = |i: usize| (0..64).filter(move |b| words[i] >> b & 1 == 1);
        (0..words.len())
            .flat_map(|i| bits(i).map(move |b| base + 64 * i as u64 + b))
            .collect()
    }

    #[test]
    fn dense_trie_groups_carry_their_layout_and_a_churned_logs_fold_keeps_them() {
        // root: {3, 200, 9000} (sparse); under 3: 70..=134 step 2 (dense, first
        // off the 64-grid); under 200: four values (tiny); under 9000: a wide
        // sparse group
        let mut rows: Vec<Vec<Value>> = (70..=134).step_by(2).map(|b| vec![3, b]).collect();
        rows.extend((0..4).map(|b| vec![200, b]));
        rows.extend((0..8).map(|b| vec![9000, b * 1000]));
        let r = Relation::from_rows(Schema::new(&["A", "B"]), rows);
        let trie = Trie::build(&r, &["A", "B"]).unwrap();
        let mut c = trie.cursor();
        assert_eq!(c.layout(), None, "at the root");
        assert!(c.open());
        assert_eq!(c.layout(), None, "three root values are a tiny group");
        assert!(c.open()); // under A = 3
        let group = c.remaining().to_vec();
        let (base, words) = c.layout().expect("a dense group");
        assert_eq!((base, words.len()), (64, 2));
        assert_eq!(decode((base, words)), group);
        // the layout is the whole group's wherever the cursor stands
        assert!(c.seek(101));
        assert_eq!(c.key(), 102);
        assert_eq!(decode(c.layout().unwrap()), group);
        c.up();
        for sparse in [200, 9000] {
            assert!(c.seek(sparse));
            assert!(c.open());
            assert_eq!(c.layout(), None, "under A = {sparse}");
            c.up();
        }

        // a seal under A = 3 (one tombstone, one insert): the log is read
        // through its new run, whose dense group keeps a layout
        let mut log = DeltaRelation::from_relation(r);
        log.set_seal_threshold(usize::MAX);
        assert!(log.delete(&[3, 70]).unwrap());
        assert!(log.insert(vec![3, 71]).unwrap());
        log.seal();
        assert_eq!(log.run_ids().len(), 1);
        let live = log.live_run().trie(&[0, 1]).unwrap();
        let mut d = live.cursor();
        assert!(d.open() && d.open());
        let merged: Vec<Value> = std::iter::once(71)
            .chain(group[1..].iter().copied())
            .collect();
        assert_eq!(d.remaining(), merged.as_slice());
        assert_eq!(decode(d.layout().expect("a dense group")), merged);
        d.up();
        assert!(d.seek(200) && d.open());
        assert_eq!(d.remaining(), &[0, 1, 2, 3]);
    }

    /// At the root there is no group to move in: every positioning call
    /// answers `false` and leaves the cursor where it is (before the first
    /// `open` and after the last `up`).
    #[test]
    fn positioning_at_the_root_answers_false() {
        let trie = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let c = &mut trie.cursor();
        for _ in 0..2 {
            assert!(!c.next());
            assert!(!c.seek(1));
            assert!(!c.reposition(1));
            assert!(!c.advance_to(1));
            assert!(!c.seat_by_rank(&mut kernels::RunningRank::default(), 1));
            assert_eq!((c.depth(), c.at_end(), c.remaining()), (0, true, &[][..]));
            assert!(c.open() && c.open());
            c.up();
            c.up();
        }
    }

    #[test]
    fn empty_relation_cursors() {
        let r = Relation::empty(Schema::new(&["A", "B"]));
        let trie = Trie::build(&r, &["A", "B"]).unwrap();
        let log = DeltaRelation::from_relation(r);
        let live = log.live_run().trie(&[0, 1]).unwrap();
        assert_eq!(live, trie);
        let mut tc = live.cursor();
        assert!(!tc.open());
        assert_eq!(tc.arity(), 2);
    }

    #[test]
    fn trie_enumerates_all_tuples() {
        // depth-first walk of the trie must reproduce the sorted tuple set
        let r = rel();
        let t = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let mut out = Vec::new();
        let mut c = t.cursor();
        walk(&mut c, 3, &mut Vec::new(), &mut out);
        assert_eq!(out, r.rows());
    }
}
