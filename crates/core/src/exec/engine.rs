//! The one WCOJ engine skeleton: Generic Join (Algorithm 2 of the paper) and
//! Leapfrog Triejoin (Veldhuizen 2014) are the same recursion — open the
//! participating relations one level deeper, enumerate the values they agree
//! on, bind each, recurse — and differ only in *how an interior level's values
//! are enumerated*. That difference is the [`InteriorStep`]; everything else is
//! written once, over the one cursor, [`TrieCursor`], so each hot loop
//! monomorphizes per step (no `dyn`, no closure).
//!
//! Variables are bound in the fixed global order. The **first** variable's
//! extension set is computed up front by one multi-way sorted intersection of the
//! root sibling groups ([`first_extension_set`]). Its values are processed
//! independently, so [`join_extensions`] takes a slice of it: a cancellable run
//! takes it in slices, a plain run whole, with identical rows and counters.
//!
//! Every kernel-layer intersection ([`level_extension_into`]) honors the
//! "intersection in time proportional to the smallest set" discipline whose
//! per-level cost telescopes into the AGM bound `O(N^{ρ*})` (Theorem 4.3 / the
//! analysis of Section 4.2); the leapfrog ring pays the same
//! `O(k · m · log(M/m))` per level through adaptive seeks and is worst-case
//! optimal up to a log factor by the same fractional-cover argument
//! (Section 1.2). Which kernel an intersection runs is the kernel layer's
//! choice from the operands alone: an AND of layouts when every participant
//! has one, [`KernelPolicy::Adaptive`]'s pick among the list kernels
//! otherwise. At the **deepest** level nothing remains to bind below, so for
//! both engines the extension set *is* the tuple tail — Algorithm 2's
//! `{a_I} × Q[a_I]` with `Q[a_I]` one intersection: the kernel appends it
//! straight into the [`ColumnSink`]'s deepest column, under the prefix runs the
//! levels above have bound. No scratch copy, no per-value cursor movement.
//!
//! Generic Join runs its **last two levels as one loop** ([`bind_above_deepest`]):
//! each value `a` of the second-to-last variable costs the one intersection
//! `∩_F π_last R_F[…, a]`, written straight into the sink. An atom without
//! that variable gives the same sibling group under every `a`, so its cursor
//! is **fixed**: opened once before the loop, its list and layout gathered
//! once, closed after it. The **moving** cursors, whose atoms do contain it,
//! are seated at each value and their child groups read in place
//! ([`TrieCursor::children`]), never opened or closed. At every interior level,
//! Generic Join **seats** a level's participants at each value of its
//! extension set — above the deepest level only the moving ones, since
//! nothing reads the others' positions again — by a running rank over their
//! groups' layouts when every one has a layout ([`TrieCursor::seat_by_rank`]:
//! the member's place is a popcount kept running along the walk, and no value
//! is read), and by `advance_to` otherwise. Seats are uncounted like every reposition, and every
//! intersection still goes through the kernel layer in participant order, so
//! rows, work counters and trace rows are those of a per-value recursion. The
//! engine never reads a layout's bits itself: the AND, the decode and the
//! rank's popcounts are all `kernels.rs`'s.

use super::trace::trace_kernel;
use super::ColumnSink;
use wcoj_obs::LevelRecorder;
use wcoj_storage::kernels::{self, Layout, RunningRank};
use wcoj_storage::{KernelPolicy, TrieCursor, Value, WorkCounter};

/// What every engine body reads while it runs: the counter it charges and the
/// per-level trace recorder when the execution is traced.
#[derive(Clone, Copy)]
pub(crate) struct JoinCtx<'a> {
    pub(crate) counter: &'a WorkCounter,
    pub(crate) trace: Option<&'a LevelRecorder>,
}

/// How an engine enumerates and binds the values of one **interior** join level
/// (neither the first, which the driver intersects, nor the deepest, which is a
/// pure kernel intersection for every engine). Implementors are zero-sized: the
/// engine is chosen once, by type, where the execution starts.
pub(crate) trait InteriorStep {
    /// With every cursor of `participants[level]` open at its sibling group:
    /// bind each value all of them share (ascending) in `sink`, running
    /// [`descend`] below it — or, for Generic Join just above the deepest
    /// level, that level's intersection ([`bind_above_deepest`]). Returns how
    /// many values were bound.
    fn bind_each(
        cursors: &mut [TrieCursor<'_>],
        participants: &[Vec<usize>],
        level: usize,
        sink: &mut ColumnSink,
        scratch: &mut [Vec<Value>],
        ctx: JoinCtx<'_>,
    ) -> u64;
}

/// Generic Join's step: materialize the level's extension set through the
/// adaptive kernel layer, then walk it, seating the participants at each value
/// ([`Seats`]). At the level above the deepest, the walk also runs the
/// deepest level's intersections ([`bind_above_deepest`]).
pub(crate) struct KernelExtension;

/// Leapfrog Triejoin's step: keep the cursors sorted by key in a circular
/// array and let the least one `seek` to the current maximum until all keys
/// coincide (a match) or one cursor is exhausted. The ring runs no kernel, so
/// its trace rows report only matches — no candidates, no kernel choice.
pub(crate) struct LeapfrogRing;

impl InteriorStep for KernelExtension {
    #[inline]
    fn bind_each(
        cursors: &mut [TrieCursor<'_>],
        participants: &[Vec<usize>],
        level: usize,
        sink: &mut ColumnSink,
        scratch: &mut [Vec<Value>],
        ctx: JoinCtx<'_>,
    ) -> u64 {
        let parts = &participants[level];
        // the scratch buffer is reused across all visits of this level
        let mut ext = std::mem::take(&mut scratch[level]);
        ext.clear();
        level_extension_into(&mut ext, cursors, parts, ctx, level);
        if level + 2 == participants.len() {
            bind_above_deepest(cursors, participants, level, &ext, sink, ctx);
        } else {
            let mut seats = Seats::new(cursors, parts);
            for &v in &ext {
                seats.seat(cursors, v);
                sink.bind(level, v);
                descend::<Self>(cursors, participants, level + 1, sink, scratch, ctx);
            }
        }
        let bound = ext.len() as u64;
        scratch[level] = ext;
        bound
    }
}

impl InteriorStep for LeapfrogRing {
    #[inline]
    fn bind_each(
        cursors: &mut [TrieCursor<'_>],
        participants: &[Vec<usize>],
        level: usize,
        sink: &mut ColumnSink,
        scratch: &mut [Vec<Value>],
        ctx: JoinCtx<'_>,
    ) -> u64 {
        // leapfrog_init: circular order sorted by current key; p points at the least
        let parts = &participants[level];
        let (mut buf, mut spill) = ([0; MAX_INLINE], Vec::new());
        let ring = gather(&mut buf, &mut spill, parts.len(), parts.iter().copied());
        ring.sort_by_key(|&ci| cursors[ci].key());
        let k = ring.len();
        let mut p = 0usize;

        // leapfrog_search / leapfrog_next
        let mut matches = 0u64;
        loop {
            let max_key = cursors[ring[(p + k - 1) % k]].key();
            let cur = ring[p];
            let key = cursors[cur].key();
            if key == max_key {
                // all k cursors agree
                matches += 1;
                sink.bind(level, key);
                descend::<Self>(cursors, participants, level + 1, sink, scratch, ctx);
                if !cursors[cur].next() {
                    break;
                }
            } else if !cursors[cur].seek(max_key) {
                break;
            }
            p = (p + 1) % k;
        }
        matches
    }
}

/// Process a slice of the first variable's extension set: for each value,
/// re-position the level-0 participant cursors (uncounted — the driver's
/// intersection already paid for the discovery) and recurse over the remaining
/// levels, emitting into `sink`. The level-0 participant cursors must already be
/// open at their root group. `scratch` holds one extension-set buffer per
/// interior level ([`level_scratch`]), kept across slices so a sliced run
/// grows each buffer once.
///
/// `participants[l]` lists the cursor indices whose relations contain the
/// variable bound at level `l` of the global order; every cursor's own attribute
/// order must be sorted by global position. Tuples land in `sink` sorted and
/// distinct in level order and are tallied in `ctx.counter`. With `ctx.trace`
/// present, per-level statistics go to that [`LevelRecorder`], whose only
/// writer this execution is.
pub(crate) fn join_extensions<S: InteriorStep>(
    cursors: &mut [TrieCursor<'_>],
    participants: &[Vec<usize>],
    values: &[Value],
    ctx: JoinCtx<'_>,
    sink: &mut ColumnSink,
    scratch: &mut [Vec<Value>],
) {
    if let Some(rec) = ctx.trace {
        // level 0's candidates were recorded by the driver's intersection;
        // each processed slice contributes its share of the emitted tally
        rec.record_emitted(0, values.len() as u64);
    }
    if participants.len() == 1 {
        // single-variable query: the slice itself is the tuple tail
        ctx.counter.add_output(values.len() as u64);
        sink.emit(values);
        return;
    }
    for (i, &v) in values.iter().enumerate() {
        for &ci in &participants[0] {
            // the slice ascends, so after its first value's (bidirectional)
            // reposition forward advances suffice
            let found = if i == 0 {
                cursors[ci].reposition(v)
            } else {
                cursors[ci].advance_to(v)
            };
            debug_assert!(found, "extension-set values occur in every participant");
        }
        sink.bind(0, v);
        descend::<S>(cursors, participants, 1, sink, scratch, ctx);
    }
    for c in cursors.iter_mut() {
        ctx.counter.absorb(c.take_work());
    }
}

/// The extension-set buffers [`join_extensions`] works in, indexed by level:
/// the interior levels' only — level 0's set is the driver's, and the deepest
/// level's goes straight into the sink.
pub(crate) fn level_scratch(participants: &[Vec<usize>]) -> Vec<Vec<Value>> {
    vec![Vec::new(); participants.len().saturating_sub(1)]
}

/// How Generic Join moves a level's participants (those a deeper level reads
/// again) onto each value of the level's extension set, which it walks
/// ascending. The moves are uncounted: the kernel already paid for each
/// value's discovery. When every participant's group carries a layout, each
/// participant keeps a [`RunningRank`] over its group and is seated by it
/// ([`TrieCursor::seat_by_rank`]); otherwise each advances
/// ([`TrieCursor::advance_to`]), as a sparse group always does.
struct Seats<'p> {
    parts: &'p [usize],
    /// One running rank per participant, in `parts` order, when seating by rank.
    ranks: Option<[RunningRank; MAX_INLINE]>,
}

impl<'p> Seats<'p> {
    /// The seats of `parts`, whose cursors stand at the start of the groups
    /// the extension set was intersected from.
    #[inline]
    fn new(cursors: &[TrieCursor<'_>], parts: &'p [usize]) -> Self {
        let by_rank =
            parts.len() <= MAX_INLINE && parts.iter().all(|&ci| cursors[ci].layout().is_some());
        Seats {
            parts,
            ranks: by_rank.then(|| [RunningRank::default(); MAX_INLINE]),
        }
    }

    /// Seat every participant at `v`, the next value of the extension set.
    #[inline]
    fn seat(&mut self, cursors: &mut [TrieCursor<'_>], v: Value) {
        match &mut self.ranks {
            Some(ranks) => {
                for (&ci, walk) in self.parts.iter().zip(ranks) {
                    let seated = cursors[ci].seat_by_rank(walk, v);
                    debug_assert!(seated, "a seat by rank has a layout to walk");
                }
            }
            None => {
                for &ci in self.parts {
                    let found = cursors[ci].advance_to(v);
                    debug_assert!(found, "extension values occur in every participant");
                }
            }
        }
    }
}

/// Generic Join's last two levels as one loop, for `level + 2 ==
/// participants.len()`: bind each value `v` of `level`'s extension set `ext`
/// and intersect the deepest level under it straight into the sink —
/// Algorithm 2's `{a_I} × Q[a_I]` for every value of the second-to-last
/// variable in one pass. The deepest level's participants split in two:
///
/// * a **fixed** one does not take part at `level`, so its sibling group is
///   the same under every `v`: it is opened once, before the loop, its list
///   and layout are gathered once, and it is closed after;
/// * a **moving** one does: it is seated at each `v` ([`Seats`]), and its
///   list and layout are read in place under it ([`TrieCursor::children`]):
///   no frame is pushed or popped per value.
///
/// A participant of `level` that the deepest level does not read is not
/// seated at all: nothing reads its position again.
///
/// The intersection goes through the kernel seam every level uses
/// ([`intersect_gathered`]) with its lists in `participants[level + 1]`
/// order, so each value's kernel, charge, trace row and emission are those of
/// a [`descend`] into the deepest level under it. The split lives on the
/// stack, spilling to the heap only past [`MAX_INLINE`] participants.
#[inline]
fn bind_above_deepest(
    cursors: &mut [TrieCursor<'_>],
    participants: &[Vec<usize>],
    level: usize,
    ext: &[Value],
    sink: &mut ColumnSink,
    ctx: JoinCtx<'_>,
) {
    let (parts, deepest) = (&participants[level], level + 1);
    let deep = &participants[deepest];
    let n = deep.len();
    // a deepest participant moves when its atom has this level's variable
    let (mut moves_buf, mut moves_spill) = ([false; MAX_INLINE], Vec::new());
    let moves = deep.iter().map(|ci| parts.contains(ci));
    let moves = &*gather(&mut moves_buf, &mut moves_spill, n, moves);
    let split = |moving: bool| {
        deep.iter()
            .zip(moves)
            .filter(move |&(_, &m)| m == moving)
            .map(|(&ci, _)| ci)
    };
    let (mut movers_buf, mut movers_spill) = ([0; MAX_INLINE], Vec::new());
    let movers = &*gather(&mut movers_buf, &mut movers_spill, n, split(true));
    let mut seats = Seats::new(cursors, movers);
    let fixed_open = open_all(cursors, split(false));
    // one slot per deepest participant: a fixed one's holds for every value,
    // a moving one's is refreshed under each before it is read
    let (mut list_buf, mut list_spill) = ([&[][..]; MAX_INLINE], Vec::new());
    let lists = deep.iter().map(|&ci| cursors[ci].remaining());
    let lists = gather(&mut list_buf, &mut list_spill, n, lists);
    let mut fixed_dense = n >= 2;
    let (mut layout_buf, mut layout_spill) = ([NO_LAYOUT; MAX_INLINE], Vec::new());
    let layouts = deep.iter().zip(moves).map(|(&ci, &m)| {
        let layout = cursors[ci].layout();
        fixed_dense &= m || layout.is_some();
        layout.unwrap_or(NO_LAYOUT)
    });
    let layouts = gather(&mut layout_buf, &mut layout_spill, n, layouts);
    for &v in ext {
        seats.seat(cursors, v);
        sink.bind(level, v);
        if !fixed_open {
            continue;
        }
        let mut dense = fixed_dense;
        for (j, &ci) in deep.iter().enumerate().filter(|&(j, _)| moves[j]) {
            let (children, layout) = cursors[ci].children();
            debug_assert!(
                !children.is_empty(),
                "a member above the deepest level has children"
            );
            lists[j] = children;
            if dense {
                match layout {
                    Some(layout) => layouts[j] = layout,
                    None => dense = false,
                }
            }
        }
        let layouts = dense.then_some(&*layouts);
        emit_deepest(sink, ctx, deepest, |tails| {
            intersect_gathered(tails, lists, layouts, ctx, deepest)
        });
    }
    if fixed_open {
        for ci in split(false) {
            cursors[ci].up();
        }
    }
}

/// One level of the recursion: open every participating cursor one level deeper
/// (returning if any has no children), emit at the deepest level or let the
/// [`InteriorStep`] bind and recurse, then close them again.
fn descend<S: InteriorStep>(
    cursors: &mut [TrieCursor<'_>],
    participants: &[Vec<usize>],
    level: usize,
    sink: &mut ColumnSink,
    scratch: &mut [Vec<Value>],
    ctx: JoinCtx<'_>,
) {
    let parts = &participants[level];
    if !open_all(cursors, parts.iter().copied()) {
        return;
    }
    if level + 1 == participants.len() {
        // deepest variable: the extension set is the tuple tail — the kernel
        // appends it to the sink's deepest column, no per-value repositioning
        emit_deepest(sink, ctx, level, |tails| {
            level_extension_into(tails, cursors, parts, ctx, level)
        });
    } else {
        let bound = S::bind_each(cursors, participants, level, sink, scratch, ctx);
        if let Some(rec) = ctx.trace {
            rec.record_emitted(level, bound);
        }
    }
    for &ci in parts {
        cursors[ci].up();
    }
}

/// Open every cursor `which` names one level deeper — all of them or none: if
/// one has no children, close the ones opened before it and answer `false`.
#[inline]
fn open_all(cursors: &mut [TrieCursor<'_>], which: impl Iterator<Item = usize> + Clone) -> bool {
    for (opened, ci) in which.clone().enumerate() {
        if !cursors[ci].open() {
            for ci in which.take(opened) {
                cursors[ci].up();
            }
            return false;
        }
    }
    true
}

/// Emit the deepest level's extension set under the bound prefix — `fill`
/// appends it to the sink's deepest column — and tally it as output.
#[inline]
fn emit_deepest(
    sink: &mut ColumnSink,
    ctx: JoinCtx<'_>,
    level: usize,
    fill: impl FnOnce(&mut Vec<Value>),
) {
    let emitted = sink.emit_with(fill) as u64;
    ctx.counter.add_output(emitted);
    if let Some(rec) = ctx.trace {
        rec.record_emitted(level, emitted);
    }
}

/// Open the level-0 participant cursors and intersect their root sibling groups —
/// the first join variable's extension set, charged to `ctx.counter` exactly once
/// per execution (the driver's charge; [`join_extensions`] re-positions
/// without re-counting).
/// Leaves the participant cursors open. Returns empty if any participant has no
/// values.
pub(crate) fn first_extension_set(
    cursors: &mut [TrieCursor<'_>],
    parts0: &[usize],
    ctx: JoinCtx<'_>,
) -> Vec<Value> {
    for &ci in parts0 {
        if !cursors[ci].open() {
            return Vec::new();
        }
    }
    let mut out = Vec::new();
    level_extension_into(&mut out, cursors, parts0, ctx, 0);
    out
}

/// Compute the extension set of one join variable — the kernel-layer intersection
/// of the open participant cursors' remaining sibling groups — and **append** it
/// to `ext` (what `ext` already holds stays: the deepest level passes the sink's
/// own column). This is the skeleton's intersection seam — every candidate set
/// flows through it or, in Generic Join's last-two-levels loop, through its
/// kernel call over operands that loop gathers itself ([`intersect_gathered`])
/// — into the kernel layer:
/// [`wcoj_storage::kernels::intersect_layouts_into`] when there are at least
/// two participants and every one's group carries a prebuilt set layout (a
/// trie builds one per dense group), the adaptive
/// [`wcoj_storage::kernels::intersect_into_at`] over the sorted lists otherwise
/// — so the kernel choice and the per-kernel work/choice tallies apply
/// uniformly, at level 0, interior and deepest levels alike. The SIMD level is
/// the process-wide detected one — it never changes output or counters, only
/// the instruction mix.
///
/// With `ctx.trace` present the kernel's choice and its charged work (diffed
/// from `ctx.counter` around the call — the counter is this execution's
/// alone, so the diff attributes exactly this intersection) are recorded
/// against join level `level`, with the appended count as its candidates: a
/// traced run takes the same fused path as an untraced one. Tracing reads the
/// counter and appends to relaxed atomics; it never changes what the kernel
/// computes.
pub(crate) fn level_extension_into(
    ext: &mut Vec<Value>,
    cursors: &[TrieCursor<'_>],
    parts: &[usize],
    ctx: JoinCtx<'_>,
    level: usize,
) {
    let (mut list_buf, mut list_spill) = ([&[][..]; MAX_INLINE], Vec::new());
    let remaining = parts.iter().map(|&ci| cursors[ci].remaining());
    let lists = gather(&mut list_buf, &mut list_spill, parts.len(), remaining);
    // a single participant is an enumeration, not an intersection
    let (mut layout_buf, mut layout_spill) = ([NO_LAYOUT; MAX_INLINE], Vec::new());
    let layouts = if parts.len() >= 2 {
        // stops at the first participant without one
        let found = parts.iter().map_while(|&ci| cursors[ci].layout());
        let layouts = gather(&mut layout_buf, &mut layout_spill, parts.len(), found);
        Some(&*layouts).filter(|layouts| layouts.len() == parts.len())
    } else {
        None
    };
    intersect_gathered(ext, lists, layouts, ctx, level);
}

/// The kernel call of [`level_extension_into`], over gathered operands:
/// **append** the intersection of `lists` to `ext` — word-parallel through
/// their `layouts` when every one has a layout (the dense path: the
/// intersection is an AND), through the list kernel [`KernelPolicy::Adaptive`]
/// picks from the lists otherwise — and, with
/// `ctx.trace` present, record its kernel, charged work and candidates
/// against join level `level`.
#[inline]
fn intersect_gathered(
    ext: &mut Vec<Value>,
    lists: &[&[Value]],
    layouts: Option<&[Layout<'_>]>,
    ctx: JoinCtx<'_>,
    level: usize,
) {
    let JoinCtx { counter, trace } = ctx;
    let simd = wcoj_storage::simd::active_level();
    let charged = || {
        [
            counter.intersect_steps(),
            counter.comparisons(),
            counter.probes(),
        ]
    };
    let before = trace.map(|_| (ext.len(), charged()));
    let chosen = match layouts {
        Some(layouts) => kernels::intersect_layouts_into(simd, ext, lists, layouts, counter),
        None => kernels::intersect_into_at(simd, ext, lists, KernelPolicy::Adaptive, counter),
    };
    if let (Some(rec), Some((start, before))) = (trace, before) {
        let after = charged();
        let work = std::array::from_fn(|i| after[i] - before[i]);
        let candidates = (ext.len() - start) as u64;
        rec.record_intersection(level, candidates, chosen.map(trace_kernel), work);
    }
}

/// The placeholder in a layout slot that holds none.
const NO_LAYOUT: Layout<'static> = (0, &[]);

/// Sized against the kernel layer's own inline-bookkeeping capacity.
const MAX_INLINE: usize = kernels::MAX_INLINE_LISTS;

/// Collect `items` — at most `n` of them — without touching the heap: into
/// `buf`, spilling to `spill` only when `n` exceeds [`MAX_INLINE`].
fn gather<'b, T: Copy>(
    buf: &'b mut [T; MAX_INLINE],
    spill: &'b mut Vec<T>,
    n: usize,
    items: impl Iterator<Item = T>,
) -> &'b mut [T] {
    if n > MAX_INLINE {
        spill.extend(items);
        return spill;
    }
    let mut len = 0;
    for (slot, item) in buf.iter_mut().zip(items) {
        *slot = item;
        len += 1;
    }
    &mut buf[..len]
}

#[cfg(test)]
mod tests {
    use super::super::driver::run_cursors;
    use super::*;
    use wcoj_storage::{Relation, Trie};

    /// The whole engine over one cursor per trie, through the serial driver.
    fn join<S: InteriorStep>(
        tries: &[Trie],
        participants: &[Vec<usize>],
        counter: &WorkCounter,
    ) -> Vec<Vec<Value>> {
        let ctx = JoinCtx {
            counter,
            trace: None,
        };
        let mut cursors: Vec<_> = tries.iter().map(Trie::cursor).collect();
        run_cursors::<S>(&mut cursors, participants, ctx, None)
            .expect("serial runs cannot fail")
            .into_columns()
    }

    fn triangle_relations() -> [Relation; 3] {
        [
            Relation::from_pairs("A", "B", vec![(1, 2), (2, 3), (1, 3), (4, 5)]),
            Relation::from_pairs("B", "C", vec![(2, 3), (3, 1), (3, 4), (5, 6)]),
            Relation::from_pairs("A", "C", vec![(1, 3), (2, 1), (1, 4), (4, 6)]),
        ]
    }

    // global order A, B, C: R binds levels {0,1}, S {1,2}, T {0,2}
    fn triangle_participants() -> Vec<Vec<usize>> {
        vec![vec![0, 2], vec![0, 1], vec![1, 2]]
    }

    fn tries(rels: &[Relation; 3]) -> [Trie; 3] {
        [
            Trie::build(&rels[0], &["A", "B"]).unwrap(),
            Trie::build(&rels[1], &["B", "C"]).unwrap(),
            Trie::build(&rels[2], &["A", "C"]).unwrap(),
        ]
    }

    // one column per level: (1,2,3), (1,3,4), (2,3,1), (4,5,6)
    fn triangle_columns() -> Vec<Vec<Value>> {
        vec![vec![1, 1, 2, 4], vec![2, 3, 3, 5], vec![3, 4, 1, 6]]
    }

    #[test]
    fn leapfrog_matches_generic_join() {
        let tries = tries(&triangle_relations());
        let parts = triangle_participants();
        let w = WorkCounter::new();
        let lf = join::<LeapfrogRing>(&tries, &parts, &w);
        let gj = join::<KernelExtension>(&tries, &parts, &w);
        assert_eq!(lf, triangle_columns());
        assert_eq!(gj, lf);
    }

    #[test]
    fn empty_input_short_circuits() {
        let r = Relation::from_pairs("A", "B", Vec::<(u64, u64)>::new());
        let s = Relation::from_pairs("B", "C", vec![(1, 2)]);
        let tries = [
            Trie::build(&r, &["A", "B"]).unwrap(),
            Trie::build(&s, &["B", "C"]).unwrap(),
        ];
        let parts = [vec![0], vec![0, 1], vec![1]];
        let w = WorkCounter::new();
        let empty = vec![Vec::<Value>::new(); 3];
        assert_eq!(join::<KernelExtension>(&tries, &parts, &w), empty);
        assert_eq!(join::<LeapfrogRing>(&tries, &parts, &w), empty);
        assert_eq!(w.output_tuples(), 0);
    }

    #[test]
    fn single_atom_query_enumerates_relation() {
        let r = Relation::from_pairs("A", "B", vec![(3, 4), (1, 2)]);
        let tries = [Trie::build(&r, &["A", "B"]).unwrap()];
        let parts = [vec![0], vec![0]];
        let w = WorkCounter::new();
        let expected = vec![vec![1, 3], vec![2, 4]];
        assert_eq!(join::<KernelExtension>(&tries, &parts, &w), expected);
        assert_eq!(join::<LeapfrogRing>(&tries, &parts, &w), expected);
    }
}
