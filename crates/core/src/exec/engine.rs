//! The one WCOJ engine skeleton: Generic Join (Algorithm 2 of the paper) and
//! Leapfrog Triejoin (Veldhuizen 2014) are the same recursion — open the
//! participating relations one level deeper, enumerate the values they agree
//! on, bind each, recurse — and differ only in *how an interior level's values
//! are enumerated*. That difference is the [`InteriorStep`]; everything else is
//! written once, generically against [`TrieAccess`], so each hot loop
//! monomorphizes per step and per cursor type (no `dyn`, no closure).
//!
//! Variables are bound in the fixed global order. The **first** variable's
//! extension set is computed up front by one multi-way sorted intersection of the
//! root sibling groups ([`first_extension_set`]) — the natural parallelization
//! seam: its values can be processed independently, so the morsel scheduler in
//! [`crate::exec::parallel`] partitions exactly this set, and serial execution is
//! the one-morsel special case (which is what makes serial and merged parallel
//! work counters *identical*). [`join_extensions`] processes a slice of it.
//!
//! Every kernel-layer intersection ([`level_extension_into`]) honors the
//! "intersection in time proportional to the smallest set" discipline whose
//! per-level cost telescopes into the AGM bound `O(N^{ρ*})` (Theorem 4.3 / the
//! analysis of Section 4.2); the leapfrog ring pays the same
//! `O(k · m · log(M/m))` per level through adaptive seeks and is worst-case
//! optimal up to a log factor by the same fractional-cover argument
//! (Section 1.2). At the **deepest** level nothing remains to bind below, so for
//! both engines the extension set *is* the tuple tail — Algorithm 2's
//! `{a_I} × Q[a_I]` with `Q[a_I]` one intersection: the kernel appends it
//! straight into the [`ColumnSink`]'s deepest column, under the prefix runs the
//! levels above have bound. No scratch copy, no per-value cursor movement.

use super::trace::trace_kernel;
use super::ColumnSink;
use wcoj_obs::LevelRecorder;
use wcoj_storage::{kernels, KernelPolicy, TrieAccess, Value, WorkCounter};

/// What every engine body reads while it runs: the kernel policy, the counter
/// it charges (a morsel worker swaps in its private one), and the per-level
/// trace recorder when the execution is traced.
#[derive(Clone, Copy)]
pub(crate) struct JoinCtx<'a> {
    pub(crate) policy: KernelPolicy,
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
    /// [`descend`] below it. Returns how many values were bound.
    fn bind_each<C: TrieAccess>(
        cursors: &mut [C],
        participants: &[Vec<usize>],
        level: usize,
        sink: &mut ColumnSink,
        scratch: &mut [Vec<Value>],
        ctx: JoinCtx<'_>,
    ) -> u64;
}

/// Generic Join's step: materialize the level's extension set through the
/// adaptive kernel layer, then walk it.
pub(crate) struct KernelExtension;

/// Leapfrog Triejoin's step: keep the cursors sorted by key in a circular
/// array and let the least one `seek` to the current maximum until all keys
/// coincide (a match) or one cursor is exhausted. The ring runs no kernel, so
/// its trace rows report only matches — no candidates, no kernel choice.
pub(crate) struct LeapfrogRing;

impl InteriorStep for KernelExtension {
    #[inline]
    fn bind_each<C: TrieAccess>(
        cursors: &mut [C],
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
        for &v in &ext {
            // ext is ascending, so the forward-only uncounted advance suffices
            // (the kernel already paid for the value's discovery)
            for &ci in parts {
                let found = cursors[ci].advance_to(v);
                debug_assert!(found, "extension values occur in every participant");
            }
            sink.bind(level, v);
            descend::<Self, C>(cursors, participants, level + 1, sink, scratch, ctx);
        }
        let bound = ext.len() as u64;
        scratch[level] = ext;
        bound
    }
}

impl InteriorStep for LeapfrogRing {
    #[inline]
    fn bind_each<C: TrieAccess>(
        cursors: &mut [C],
        participants: &[Vec<usize>],
        level: usize,
        sink: &mut ColumnSink,
        scratch: &mut [Vec<Value>],
        ctx: JoinCtx<'_>,
    ) -> u64 {
        // leapfrog_init: circular order sorted by current key; p points at the least
        let mut ring: Vec<usize> = participants[level].clone();
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
                descend::<Self, C>(cursors, participants, level + 1, sink, scratch, ctx);
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
/// open at their root group. This is the engine body both the serial driver
/// and every morsel worker run, on their own cursor sets and their own
/// `scratch` — one extension-set buffer per interior level
/// ([`level_scratch`]), kept across slices so a sliced run grows each buffer
/// once.
///
/// `participants[l]` lists the cursor indices whose relations contain the
/// variable bound at level `l` of the global order; every cursor's own attribute
/// order must be sorted by global position. Tuples land in `sink` sorted and
/// distinct in level order and are tallied in `ctx.counter`. With `ctx.trace`
/// present, per-level statistics go to that [`LevelRecorder`], which this
/// thread of execution must be the only writer of — a morsel worker records
/// into a private one the scheduler absorbs afterwards (commutative sums, so
/// parallel traced runs report the same deterministic totals as serial ones).
pub(crate) fn join_extensions<S: InteriorStep, C: TrieAccess>(
    cursors: &mut [C],
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
            // the slice ascends, so after the first (bidirectional) reposition —
            // morsels arrive in arbitrary order — forward advances suffice
            let found = if i == 0 {
                cursors[ci].reposition(v)
            } else {
                cursors[ci].advance_to(v)
            };
            debug_assert!(found, "extension-set values occur in every participant");
        }
        sink.bind(0, v);
        descend::<S, C>(cursors, participants, 1, sink, scratch, ctx);
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

/// One level of the recursion: open every participating cursor one level deeper
/// (undoing the opens and returning if any has no children), emit at the deepest
/// level or let the [`InteriorStep`] bind and recurse, then close them again.
fn descend<S: InteriorStep, C: TrieAccess>(
    cursors: &mut [C],
    participants: &[Vec<usize>],
    level: usize,
    sink: &mut ColumnSink,
    scratch: &mut [Vec<Value>],
    ctx: JoinCtx<'_>,
) {
    let parts = &participants[level];
    let mut opened = 0;
    while opened < parts.len() && cursors[parts[opened]].open() {
        opened += 1;
    }
    if opened < parts.len() {
        for &ci in &parts[..opened] {
            cursors[ci].up();
        }
        return;
    }

    let emitted = if level + 1 == participants.len() {
        // deepest variable: the extension set is the tuple tail — the kernel
        // appends it to the sink's deepest column, no per-value repositioning
        let emitted =
            sink.emit_with(|tails| level_extension_into(tails, cursors, parts, ctx, level)) as u64;
        ctx.counter.add_output(emitted);
        emitted
    } else {
        S::bind_each(cursors, participants, level, sink, scratch, ctx)
    };
    if let Some(rec) = ctx.trace {
        rec.record_emitted(level, emitted);
    }

    for &ci in parts {
        cursors[ci].up();
    }
}

/// Open the level-0 participant cursors and intersect their root sibling groups —
/// the first join variable's extension set, charged to `ctx.counter` exactly once
/// per execution (the driver's charge; workers re-position without re-counting).
/// Leaves the participant cursors open. Returns empty if any participant has no
/// values.
pub(crate) fn first_extension_set<C: TrieAccess>(
    cursors: &mut [C],
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
/// own column). This is the single intersection seam of the skeleton: every
/// candidate set flows through the kernel layer —
/// [`wcoj_storage::kernels::intersect_layouts_into`] when every participant's
/// group carries a prebuilt set layout (static structures build one per dense
/// group) and the policy allows bitmaps,
/// [`wcoj_storage::kernels::intersect_into_at`] over the sorted lists otherwise
/// — so the policy and the per-kernel work/choice tallies apply
/// uniformly, at level 0, interior and deepest levels alike. The SIMD level is
/// the process-wide detected one — it never changes output or counters, only
/// the instruction mix.
///
/// With `ctx.trace` present the kernel's choice and its charged work (diffed
/// from `ctx.counter` around the call — the counter is private to this thread
/// of execution, so the diff attributes exactly this intersection) are recorded
/// against join level `level`, with the appended count as its candidates: a
/// traced run takes the same fused path as an untraced one. Tracing reads the
/// counter and appends to relaxed atomics; it never changes what the kernel
/// computes.
pub(crate) fn level_extension_into<C: TrieAccess>(
    ext: &mut Vec<Value>,
    cursors: &[C],
    parts: &[usize],
    ctx: JoinCtx<'_>,
    level: usize,
) {
    let JoinCtx {
        policy,
        counter,
        trace,
    } = ctx;
    let simd = wcoj_storage::simd::active_level();
    let charged = || {
        [
            counter.intersect_steps(),
            counter.comparisons(),
            counter.probes(),
        ]
    };
    let before = trace.map(|_| (ext.len(), charged()));
    let (mut list_buf, mut list_spill) = ([&[][..]; MAX_INLINE], Vec::new());
    let remaining = parts.iter().map(|&ci| cursors[ci].remaining());
    let lists = gather(&mut list_buf, &mut list_spill, parts.len(), remaining);
    // The dense path: every participant's group carries a prebuilt layout, so
    // the intersection is a word-parallel AND. A forced list kernel never reads
    // a layout (the "all kernels agree" differentials keep exercising them),
    // and a single participant is an enumeration, not an intersection.
    let dense = parts.len() >= 2 && matches!(policy, KernelPolicy::Adaptive | KernelPolicy::Bitmap);
    let (mut layout_buf, mut layout_spill) = ([(0, &[][..]); MAX_INLINE], Vec::new());
    let layouts = if dense {
        // stops at the first participant without one
        let found = parts.iter().map_while(|&ci| cursors[ci].layout());
        gather(&mut layout_buf, &mut layout_spill, parts.len(), found)
    } else {
        &[]
    };
    let chosen = if dense && layouts.len() == parts.len() {
        kernels::intersect_layouts_into(simd, ext, lists, layouts, counter)
    } else {
        kernels::intersect_into_at(simd, ext, lists, policy, counter)
    };
    if let (Some(rec), Some((start, before))) = (trace, before) {
        let after = charged();
        let work = std::array::from_fn(|i| after[i] - before[i]);
        let candidates = (ext.len() - start) as u64;
        rec.record_intersection(level, candidates, chosen.map(trace_kernel), work);
    }
}

/// Sized against the kernel layer's own inline-bookkeeping capacity.
const MAX_INLINE: usize = kernels::MAX_INLINE_LISTS;

/// Collect `items` — at most `n` of them — without touching the heap: into
/// `buf`, spilling to `spill` only when `n` exceeds [`MAX_INLINE`].
fn gather<'b, T: Copy>(
    buf: &'b mut [T; MAX_INLINE],
    spill: &'b mut Vec<T>,
    n: usize,
    items: impl Iterator<Item = T>,
) -> &'b [T] {
    if n > MAX_INLINE {
        spill.extend(items);
        return spill;
    }
    let mut len = 0;
    for (slot, item) in buf.iter_mut().zip(items) {
        *slot = item;
        len += 1;
    }
    &buf[..len]
}

#[cfg(test)]
mod tests {
    use super::super::driver::run_cursors;
    use super::*;
    use wcoj_storage::{Relation, Trie};

    /// The whole engine over one cursor per atom, through the serial driver.
    fn join<S: InteriorStep, C: TrieAccess>(
        make_cursors: impl Fn() -> Vec<C> + Sync,
        participants: &[Vec<usize>],
        counter: &WorkCounter,
    ) -> Vec<Vec<Value>> {
        let ctx = JoinCtx {
            policy: KernelPolicy::Adaptive,
            counter,
            trace: None,
        };
        run_cursors::<S, C, _>(make_cursors, participants, 1, ctx, None, None)
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
        let cursors = || tries.iter().map(|t| t.cursor()).collect::<Vec<_>>();
        let parts = triangle_participants();
        let w = WorkCounter::new();
        let lf = join::<LeapfrogRing, _>(cursors, &parts, &w);
        let gj = join::<KernelExtension, _>(cursors, &parts, &w);
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
        let cursors = || tries.iter().map(|t| t.cursor()).collect::<Vec<_>>();
        let parts = [vec![0], vec![0, 1], vec![1]];
        let w = WorkCounter::new();
        let empty = vec![Vec::<Value>::new(); 3];
        assert_eq!(join::<KernelExtension, _>(cursors, &parts, &w), empty);
        assert_eq!(join::<LeapfrogRing, _>(cursors, &parts, &w), empty);
        assert_eq!(w.output_tuples(), 0);
    }

    #[test]
    fn single_atom_query_enumerates_relation() {
        let r = Relation::from_pairs("A", "B", vec![(3, 4), (1, 2)]);
        let tries = [Trie::build(&r, &["A", "B"]).unwrap()];
        let cursors = || tries.iter().map(|t| t.cursor()).collect::<Vec<_>>();
        let parts = [vec![0], vec![0]];
        let w = WorkCounter::new();
        let expected = vec![vec![1, 3], vec![2, 4]];
        assert_eq!(join::<KernelExtension, _>(cursors, &parts, &w), expected);
        assert_eq!(join::<LeapfrogRing, _>(cursors, &parts, &w), expected);
    }
}
