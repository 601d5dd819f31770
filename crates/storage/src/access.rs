//! [`TrieAccess`] — the cursor interface both join algorithms are written
//! against.
//!
//! The worst-case optimal join algorithms of the paper need exactly one capability
//! from storage: positioned enumeration of the sorted set of values extending a bound
//! prefix, with a least-upper-bound `seek` so that set intersections run in time
//! proportional to the smallest set (Section 2). One structure provides it, the
//! CSR-flattened [`crate::Trie`], through two cursors:
//!
//! * [`crate::TrieCursor`] over one trie — contiguous sorted sibling groups found
//!   by one `child_start` offset per `open` (no hashing), galloping `seek`; the
//!   classic Leapfrog Triejoin iterator, and equally the "sorted extensions of
//!   a prefix" access Generic Join (Algorithm 2) assumes;
//! * [`DeltaCursor`] over a [`crate::delta::DeltaAccess`] — the union cursor over
//!   the tries of a delta log's runs: one `TrieCursor` per run, their sibling
//!   groups merged (and tombstoned values suppressed) where more than one run
//!   holds the prefix.
//!
//! Generic Join and Leapfrog Triejoin in `wcoj-core` are written once, *generic*
//! over `C: TrieAccess`, so the hot loops monomorphize — no per-seek virtual
//! dispatch. To mix static and delta-backed atoms within one query, wrap each
//! cursor in [`CursorKind`] (a two-variant enum whose dispatch is a predictable
//! branch, not a vtable call); the trait remains object-safe for callers that
//! really want `dyn`.
//!
//! Every cursor is `Send + Clone`: it borrows its (immutable, `Sync`) access
//! structure and owns its stack plus private [`CursorWork`] tallies, which the
//! engine drains via [`TrieAccess::take_work`]. That is what lets morsel-driven
//! parallel workers each hold a private cursor over one shared trie.
//!
//! A trie also hands out, per dense sibling group, the **set layout** it
//! prebuilt ([`TrieAccess::layout`], see [`crate::kernels`]): when every cursor
//! of an intersection has one, the engines AND bitset words instead of scanning
//! the lists. A [`DeltaCursor`] group that lives in one run is that run's trie's
//! own group and hands out the same layout; a group merged from several runs —
//! or borrowed from a run with tombstones, whose trie builds none — has no
//! layout, which makes an intersection it takes part in fall through to the
//! list kernels.
//!
//! # Contract
//!
//! A cursor is a stack of *sibling groups*. At depth `d` the cursor is positioned at
//! one value of the sorted group of distinct values extending the length-`d-1` prefix
//! chosen at shallower depths. `open` descends into the children of the current value,
//! `up` pops back, `next`/`seek` move within the current group and never escape it.
//! `seek` only moves forward (targets must be non-decreasing between `open`s — the
//! leapfrog discipline); `reposition` may move in either direction but only to keys
//! whose discovery was already paid for elsewhere, so it records no work. At the
//! root there is no group: `next`, `seek`, `reposition` and `advance_to` answer
//! `false` there without moving, and only `key` panics.

use crate::delta::DeltaCursor;
use crate::kernels::Layout;
use crate::stats::CursorWork;
use crate::trie::TrieCursor;
use crate::Value;

/// The linear-iterator interface over a trie-shaped view of a relation, as required
/// by Leapfrog Triejoin (Veldhuizen 2014) and Generic Join (Algorithm 2 of the
/// paper).
pub trait TrieAccess {
    /// Number of levels (the arity of the underlying relation).
    fn arity(&self) -> usize;

    /// Current depth: number of levels opened (0 = at the root, no key).
    fn depth(&self) -> usize;

    /// Descend into the sorted group of values extending the current prefix.
    /// Returns `false` without moving if there is no deeper level or the group is
    /// empty.
    fn open(&mut self) -> bool;

    /// Ascend one level; no-op at the root.
    fn up(&mut self);

    /// The value at the cursor's position. Panics at the root or past the end of the
    /// current group.
    fn key(&self) -> Value;

    /// Whether the cursor has run past the last value of its current group (always
    /// true at the root).
    fn at_end(&self) -> bool;

    /// Advance to the next value in the group. Returns `false` when that moves past
    /// the end.
    fn next(&mut self) -> bool;

    /// Position at the least value `>= target` in the current group. Returns `false`
    /// (and leaves the cursor `at_end`) if there is none. Forward-only.
    fn seek(&mut self, target: Value) -> bool;

    /// Position at the value exactly `target`, searching the whole group (may move
    /// backward). Records no work: callers use it to re-position at keys whose
    /// search cost was already accounted (see the module docs). Returns whether the
    /// value is present.
    fn reposition(&mut self, target: Value) -> bool;

    /// Forward-only [`TrieAccess::reposition`]: `target` must be `>=` the current
    /// key. Uncounted like `reposition`, but monotone, so implementations can
    /// search from the cursor's position instead of the whole group — the fast
    /// path for visiting kernel-discovered keys in ascending order. Returns
    /// whether the value is present.
    fn advance_to(&mut self, target: Value) -> bool {
        self.reposition(target)
    }

    /// The sorted values remaining in the current group from the cursor's position
    /// onward (empty at the root).
    fn remaining(&self) -> &[Value];

    /// Number of values remaining in the current group from the cursor's position —
    /// the fan-out estimate Generic Join uses to intersect smallest-first. Returns 0
    /// at the root.
    fn group_size(&self) -> usize {
        self.remaining().len()
    }

    /// The prebuilt set layout of the **whole** current group (not just what
    /// remains of it), when the access structure gave the group one: a trie
    /// does for every dense group (see [`crate::kernels`]); the default — no
    /// layout — is right for everything else.
    fn layout(&self) -> Option<Layout<'_>> {
        None
    }

    /// Drain the cursor's private work tallies (resetting them to zero). Engines
    /// call this once per cursor at the end of a run and absorb the result into
    /// their [`crate::WorkCounter`].
    fn take_work(&mut self) -> CursorWork;
}

impl TrieAccess for TrieCursor<'_> {
    #[inline]
    fn arity(&self) -> usize {
        TrieCursor::arity(self)
    }

    #[inline]
    fn depth(&self) -> usize {
        TrieCursor::depth(self)
    }

    #[inline]
    fn open(&mut self) -> bool {
        TrieCursor::open(self)
    }

    #[inline]
    fn up(&mut self) {
        TrieCursor::up(self)
    }

    #[inline]
    fn key(&self) -> Value {
        TrieCursor::key(self)
    }

    #[inline]
    fn at_end(&self) -> bool {
        TrieCursor::at_end(self)
    }

    #[inline]
    fn next(&mut self) -> bool {
        TrieCursor::next(self)
    }

    #[inline]
    fn seek(&mut self, target: Value) -> bool {
        TrieCursor::seek(self, target)
    }

    #[inline]
    fn reposition(&mut self, target: Value) -> bool {
        TrieCursor::reposition(self, target)
    }

    #[inline]
    fn advance_to(&mut self, target: Value) -> bool {
        TrieCursor::advance_to(self, target)
    }

    #[inline]
    fn remaining(&self) -> &[Value] {
        TrieCursor::remaining(self)
    }

    #[inline]
    fn layout(&self) -> Option<Layout<'_>> {
        TrieCursor::layout(self)
    }

    #[inline]
    fn take_work(&mut self) -> CursorWork {
        TrieCursor::take_work(self)
    }
}

/// A cursor over either access structure, dispatching through a two-variant enum
/// instead of a vtable — the composition point for queries that mix static and
/// delta-backed atoms while keeping the engines' hot loops monomorphized.
#[derive(Debug, Clone)]
pub enum CursorKind<'a> {
    /// A cursor over a CSR [`crate::Trie`].
    Trie(TrieCursor<'a>),
    /// A delta-log union cursor over a [`crate::delta::DeltaAccess`] — the live
    /// (run tries + tombstones) view of a [`crate::delta::DeltaRelation`].
    Delta(DeltaCursor<'a>),
}

impl<'a> From<TrieCursor<'a>> for CursorKind<'a> {
    fn from(c: TrieCursor<'a>) -> Self {
        CursorKind::Trie(c)
    }
}

impl<'a> From<DeltaCursor<'a>> for CursorKind<'a> {
    fn from(c: DeltaCursor<'a>) -> Self {
        CursorKind::Delta(c)
    }
}

macro_rules! dispatch {
    ($self:ident, $c:ident => $e:expr) => {
        match $self {
            CursorKind::Trie($c) => $e,
            CursorKind::Delta($c) => $e,
        }
    };
}

impl TrieAccess for CursorKind<'_> {
    fn arity(&self) -> usize {
        dispatch!(self, c => c.arity())
    }

    fn depth(&self) -> usize {
        dispatch!(self, c => c.depth())
    }

    fn open(&mut self) -> bool {
        dispatch!(self, c => c.open())
    }

    fn up(&mut self) {
        dispatch!(self, c => c.up())
    }

    fn key(&self) -> Value {
        dispatch!(self, c => c.key())
    }

    fn at_end(&self) -> bool {
        dispatch!(self, c => c.at_end())
    }

    fn next(&mut self) -> bool {
        dispatch!(self, c => c.next())
    }

    fn seek(&mut self, target: Value) -> bool {
        dispatch!(self, c => c.seek(target))
    }

    fn reposition(&mut self, target: Value) -> bool {
        dispatch!(self, c => c.reposition(target))
    }

    fn advance_to(&mut self, target: Value) -> bool {
        dispatch!(self, c => TrieAccess::advance_to(c, target))
    }

    fn remaining(&self) -> &[Value] {
        dispatch!(self, c => TrieAccess::remaining(c))
    }

    fn group_size(&self) -> usize {
        dispatch!(self, c => c.group_size())
    }

    fn layout(&self) -> Option<Layout<'_>> {
        dispatch!(self, c => TrieAccess::layout(c))
    }

    fn take_work(&mut self) -> CursorWork {
        dispatch!(self, c => c.take_work())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DeltaAccess, DeltaRelation};
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::trie::Trie;

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

    /// Depth-first enumeration through the trait — must reproduce the sorted tuples
    /// identically for both backends.
    fn enumerate<C: TrieAccess>(c: &mut C, arity: usize) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        walk(c, arity, &mut prefix, &mut out);
        out
    }

    fn walk<C: TrieAccess>(
        c: &mut C,
        arity: usize,
        prefix: &mut Vec<Value>,
        out: &mut Vec<Vec<Value>>,
    ) {
        if !c.open() {
            return;
        }
        while !c.at_end() {
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

    /// The static trie and the delta union cursor over the same tuples.
    #[test]
    fn both_backends_enumerate_identically() {
        let r = rel();
        let trie = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let log = DeltaRelation::from_relation(r.clone());
        let live = DeltaAccess::build(&log, &["A", "B", "C"]).unwrap();
        let mut tc = trie.cursor();
        let mut dc = live.cursor();
        assert_eq!(enumerate(&mut tc, 3), r.rows());
        assert_eq!(enumerate(&mut dc, 3), r.rows());
    }

    #[test]
    fn cursor_kind_matches_concrete_navigation() {
        let r = rel();
        let trie = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let log = DeltaRelation::from_relation(r.clone());
        let live = DeltaAccess::build(&log, &["A", "B", "C"]).unwrap();
        let mut cursors: Vec<CursorKind> = vec![trie.cursor().into(), live.cursor().into()];
        for c in cursors.iter_mut() {
            assert_eq!(c.arity(), 3);
            assert!(c.at_end()); // root
            assert_eq!(c.group_size(), 0);
            assert!(c.open());
            assert_eq!(c.depth(), 1);
            assert_eq!(c.key(), 1);
            assert_eq!(c.group_size(), 3); // A in {1, 2, 4}
            assert_eq!(TrieAccess::remaining(c), &[1, 2, 4]);
            assert!(c.seek(3));
            assert_eq!(c.key(), 4); // lub of 3
            assert!(c.reposition(1)); // backward, uncounted
            assert_eq!(c.key(), 1);
            assert!(c.reposition(4));
            assert!(c.open());
            assert_eq!(c.key(), 1); // B under A=4
            assert!(c.open());
            assert_eq!(c.group_size(), 2); // C in {1, 2}
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
    }

    /// Every set bit of a layout, ascending.
    fn decode((base, words): Layout<'_>) -> Vec<Value> {
        let bits = |i: usize| (0..64).filter(move |b| words[i] >> b & 1 == 1);
        (0..words.len())
            .flat_map(|i| bits(i).map(move |b| base + 64 * i as u64 + b))
            .collect()
    }

    #[test]
    fn dense_trie_groups_carry_their_layout_and_delta_groups_none() {
        // root: {3, 200, 9000} (sparse); under 3: 70..=134 step 2 (dense, first
        // off the 64-grid); under 200: four values (tiny); under 9000: a wide
        // sparse group
        let mut rows: Vec<Vec<Value>> = (70..=134).step_by(2).map(|b| vec![3, b]).collect();
        rows.extend((0..4).map(|b| vec![200, b]));
        rows.extend((0..8).map(|b| vec![9000, b * 1000]));
        let r = Relation::from_rows(Schema::new(&["A", "B"]), rows);
        let trie = Trie::build(&r, &["A", "B"]).unwrap();
        let mut c: CursorKind = trie.cursor().into();
        assert_eq!(c.layout(), None, "at the root");
        assert!(c.open());
        assert_eq!(c.layout(), None, "three root values are a tiny group");
        assert!(c.open()); // under A = 3
        let group = TrieAccess::remaining(&c).to_vec();
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

        // a delta group that lives in one run is that run's trie's own group:
        // the same values and the very same layout words
        let mut log = DeltaRelation::from_relation(r);
        let live = DeltaAccess::build(&log, &["A", "B"]).unwrap();
        let mut d: CursorKind = live.cursor().into();
        assert!(d.open());
        assert!(d.open()); // under A = 3: the same dense values
        assert!(c.reposition(3) && c.open());
        assert_eq!(TrieAccess::remaining(&d), group.as_slice());
        assert_eq!(d.layout(), c.layout());
        assert_eq!(decode(d.layout().unwrap()), group);

        // a second run under A = 3 (one tombstone, one insert): the group is
        // merged from two runs and has no layout; A = 200 still lives in the
        // first run alone and is still borrowed from it
        log.set_seal_threshold(usize::MAX);
        assert!(log.delete(&[3, 70]).unwrap());
        assert!(log.insert(vec![3, 71]).unwrap());
        log.seal();
        assert_eq!(log.num_runs(), 2);
        let live = DeltaAccess::build(&log, &["A", "B"]).unwrap();
        let mut d: CursorKind = live.cursor().into();
        assert!(d.open());
        assert!(d.open());
        let merged: Vec<Value> = std::iter::once(71)
            .chain(group[1..].iter().copied())
            .collect();
        assert_eq!(TrieAccess::remaining(&d), merged.as_slice());
        assert_eq!(d.layout(), None);
        d.up();
        assert!(d.seek(200) && d.open());
        assert_eq!(TrieAccess::remaining(&d), &[0, 1, 2, 3]);
        assert_eq!(d.take_work().delta_merge, 2 + (33 + 2) + 1);
    }

    /// At the root there is no group to move in: every positioning call
    /// answers `false` and leaves the cursor where it is, on both cursor kinds
    /// (before the first `open` and after the last `up`).
    #[test]
    fn positioning_at_the_root_answers_false() {
        fn at_root<C: TrieAccess>(c: &mut C) {
            for _ in 0..2 {
                assert!(!c.next());
                assert!(!c.seek(1));
                assert!(!c.reposition(1));
                assert!(!c.advance_to(1));
                assert_eq!((c.depth(), c.at_end(), c.remaining()), (0, true, &[][..]));
                assert!(c.open() && c.open());
                c.up();
                c.up();
            }
        }
        let r = rel();
        let trie = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let log = DeltaRelation::from_relation(r);
        let live = DeltaAccess::build(&log, &["A", "B", "C"]).unwrap();
        at_root(&mut trie.cursor());
        at_root(&mut live.cursor());
    }

    #[test]
    fn trait_remains_object_safe() {
        let r = rel();
        let trie = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let mut boxed: Box<dyn TrieAccess + '_> = Box::new(trie.cursor());
        assert!(boxed.open());
        assert_eq!(boxed.key(), 1);
    }

    #[test]
    fn cursors_are_send_clone_and_indexes_sync() {
        fn assert_send_clone<T: Send + Clone>() {}
        fn assert_sync<T: Sync>() {}
        assert_send_clone::<DeltaCursor<'_>>();
        assert_send_clone::<CursorKind<'_>>();
        assert_sync::<Trie>();
        assert_sync::<DeltaAccess>();
    }

    #[test]
    fn empty_relation_cursors() {
        let r = Relation::empty(Schema::new(&["A", "B"]));
        let trie = Trie::build(&r, &["A", "B"]).unwrap();
        let log = DeltaRelation::from_relation(r);
        let live = DeltaAccess::build(&log, &["A", "B"]).unwrap();
        let mut tc = trie.cursor();
        let mut dc = live.cursor();
        assert!(!TrieAccess::open(&mut tc));
        assert!(!TrieAccess::open(&mut dc));
        assert_eq!(dc.arity(), 2);
    }
}
