//! Generic Join (Algorithm 2 of the paper), written generically against
//! [`TrieAccess`] so the hot loop monomorphizes per cursor backend.
//!
//! Variables are bound in the fixed global order. The **first** variable's extension
//! set is computed up front by one multi-way sorted intersection of the root sibling
//! groups — that set is the natural parallelization seam: its values can be processed
//! independently, so the morsel scheduler in [`crate::exec::parallel`] partitions
//! exactly this set, and serial execution is simply the one-morsel special case
//! (which is what makes serial and merged parallel work counters *identical*).
//!
//! At each deeper level the cursors of the atoms containing the current variable are
//! opened one level deeper and their sorted candidate groups are intersected through
//! the **adaptive kernel layer** ([`wcoj_storage::kernels`], via
//! `crate::exec::level_extension_into`): branchless merge, smallest-driven
//! galloping, or a small-domain bitmap kernel, chosen per intersection by the
//! [`wcoj_storage::KernelPolicy`] in force. Every kernel honors the "intersection in
//! time proportional to the smallest set" discipline whose per-level cost telescopes
//! into the AGM bound `O(N^{ρ*})` (Theorem 4.3 / the analysis of Section 4.2).
//! Matched values re-position the participant cursors (uncounted — the kernel
//! already paid for their discovery) before the engine recurses; at the **deepest**
//! level the extension set *is* the tuple tail, so results are emitted straight from
//! the kernel output into the [`ColumnSink`] — one slice append on the last
//! column, one constant fill per prefix column, no per-value cursor movement.

use super::{first_extension_set, flush_cursor_work, level_extension_into, ColumnSink, JoinCtx};
use wcoj_storage::{KernelCalibration, KernelPolicy, TrieAccess, Value, WorkCounter};

/// Run Generic Join over one cursor per atom.
///
/// `participants[l]` lists the cursor indices whose relations contain the variable
/// bound at level `l` of the global order; every cursor's own attribute order must be
/// sorted by global position (see `wcoj_query::plan::atom_attr_order`). Returns the
/// result tuples as a [`ColumnSink`] — one column per level of the global order,
/// rows sorted and distinct in that order, no per-row allocation; output tuples
/// are tallied in `counter`.
pub fn generic_join<C: TrieAccess>(
    cursors: &mut [C],
    participants: &[Vec<usize>],
    policy: KernelPolicy,
    cal: &KernelCalibration,
    counter: &WorkCounter,
) -> ColumnSink {
    let ctx = JoinCtx {
        policy,
        cal,
        counter,
        trace: None,
    };
    let mut sink = ColumnSink::new(participants.len());
    let e0 = first_extension_set(cursors, &participants[0], ctx);
    join_extensions(cursors, participants, &e0, ctx, &mut sink);
    for &ci in &participants[0] {
        cursors[ci].up();
    }
    sink
}

/// Process a slice of the first variable's extension set: for each value, re-position
/// the level-0 participant cursors (uncounted — the intersection already paid for the
/// discovery) and recurse over the remaining levels, emitting into `sink`. The
/// level-0 participant cursors must already be open at their root group. This is the
/// serial engine body that morsel workers run on their private cursor sets.
///
/// With `ctx.trace` present, per-level extension statistics are recorded into the
/// shared [`wcoj_obs::LevelRecorder`] (relaxed atomic sums — commutative, so
/// parallel traced runs report the same deterministic totals as serial ones).
pub(crate) fn join_extensions<C: TrieAccess>(
    cursors: &mut [C],
    participants: &[Vec<usize>],
    values: &[Value],
    ctx: JoinCtx<'_>,
    sink: &mut ColumnSink,
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
    let mut scratch: Vec<Vec<Value>> = vec![Vec::new(); participants.len()];
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
        descend(cursors, participants, 1, sink, &mut scratch, ctx);
    }
    flush_cursor_work(cursors, ctx.counter);
}

fn descend<C: TrieAccess>(
    cursors: &mut [C],
    participants: &[Vec<usize>],
    level: usize,
    sink: &mut ColumnSink,
    scratch: &mut [Vec<Value>],
    ctx: JoinCtx<'_>,
) {
    let parts = &participants[level];

    // open every participating cursor one level deeper
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

    // this level's extension set, through the adaptive kernel layer (the scratch
    // buffer is reused across all visits of this level)
    let mut ext = std::mem::take(&mut scratch[level]);
    level_extension_into(&mut ext, cursors, parts, ctx, level);
    if let Some(rec) = ctx.trace {
        // Generic Join binds every candidate, so this level emits all of them
        rec.record_emitted(level, ext.len() as u64);
    }

    if level + 1 == participants.len() {
        // deepest variable: the extension set is the tuple tail — emit directly,
        // no per-value cursor repositioning
        ctx.counter.add_output(ext.len() as u64);
        sink.emit(&ext);
    } else {
        for &v in &ext {
            // ext is ascending, so the forward-only uncounted advance suffices
            for &ci in parts.iter() {
                let found = cursors[ci].advance_to(v);
                debug_assert!(found, "extension values occur in every participant");
            }
            sink.bind(level, v);
            descend(cursors, participants, level + 1, sink, scratch, ctx);
        }
    }
    scratch[level] = ext;

    for &ci in parts.iter() {
        cursors[ci].up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::{CursorKind, PrefixIndex, Relation, Trie};

    /// Triangle query over tries and prefix indexes must agree.
    #[test]
    fn triangle_over_both_backends() {
        let r = Relation::from_pairs("A", "B", vec![(1, 2), (2, 3), (1, 3)]);
        let s = Relation::from_pairs("B", "C", vec![(2, 3), (3, 1), (3, 4)]);
        let t = Relation::from_pairs("A", "C", vec![(1, 3), (2, 1), (1, 4)]);
        // global order A, B, C: R binds levels {0,1}, S {1,2}, T {0,2}
        let participants = vec![vec![0, 2], vec![0, 1], vec![1, 2]];

        let tries = [
            Trie::build(&r, &["A", "B"]).unwrap(),
            Trie::build(&s, &["B", "C"]).unwrap(),
            Trie::build(&t, &["A", "C"]).unwrap(),
        ];
        let w = WorkCounter::new();
        let mut cursors: Vec<_> = tries.iter().map(|t| t.cursor()).collect();
        let from_tries = generic_join(
            &mut cursors,
            &participants,
            KernelPolicy::Adaptive,
            &KernelCalibration::fixed(),
            &w,
        );

        let indexes = [
            PrefixIndex::build(&r, &["A", "B"]).unwrap(),
            PrefixIndex::build(&s, &["B", "C"]).unwrap(),
            PrefixIndex::build(&t, &["A", "C"]).unwrap(),
        ];
        let mut cursors: Vec<_> = indexes.iter().map(|ix| ix.cursor()).collect();
        let from_indexes = generic_join(
            &mut cursors,
            &participants,
            KernelPolicy::Adaptive,
            &KernelCalibration::fixed(),
            &w,
        );

        // one column per level: (1,2,3), (1,3,4), (2,3,1)
        let expected = vec![vec![1, 1, 2], vec![2, 3, 3], vec![3, 4, 1]];
        assert_eq!(from_tries.into_columns(), expected);
        assert_eq!(from_indexes.into_columns(), expected);
        assert_eq!(w.output_tuples(), 6); // both runs tallied
    }

    /// Mixed trie/index backends compose through [`CursorKind`] without `dyn`.
    #[test]
    fn triangle_over_mixed_backends() {
        let r = Relation::from_pairs("A", "B", vec![(1, 2), (2, 3), (1, 3)]);
        let s = Relation::from_pairs("B", "C", vec![(2, 3), (3, 1), (3, 4)]);
        let t = Relation::from_pairs("A", "C", vec![(1, 3), (2, 1), (1, 4)]);
        let trie_r = Trie::build(&r, &["A", "B"]).unwrap();
        let index_s = PrefixIndex::build(&s, &["B", "C"]).unwrap();
        let trie_t = Trie::build(&t, &["A", "C"]).unwrap();
        let w = WorkCounter::new();
        let mut cursors: Vec<CursorKind> = vec![
            trie_r.cursor().into(),
            index_s.cursor().into(),
            trie_t.cursor().into(),
        ];
        let participants = vec![vec![0, 2], vec![0, 1], vec![1, 2]];
        let out = generic_join(
            &mut cursors,
            &participants,
            KernelPolicy::Adaptive,
            &KernelCalibration::fixed(),
            &w,
        );
        assert_eq!(
            out.into_columns(),
            vec![vec![1, 1, 2], vec![2, 3, 3], vec![3, 4, 1]]
        );
        assert!(w.probes() > 0);
    }

    #[test]
    fn empty_input_short_circuits() {
        let r = Relation::from_pairs("A", "B", Vec::<(u64, u64)>::new());
        let s = Relation::from_pairs("B", "C", vec![(1, 2)]);
        let tries = [
            Trie::build(&r, &["A", "B"]).unwrap(),
            Trie::build(&s, &["B", "C"]).unwrap(),
        ];
        let w = WorkCounter::new();
        let mut cursors: Vec<_> = tries.iter().map(|t| t.cursor()).collect();
        let out = generic_join(
            &mut cursors,
            &[vec![0], vec![0, 1], vec![1]],
            KernelPolicy::Adaptive,
            &KernelCalibration::fixed(),
            &w,
        );
        assert!(out.is_empty());
    }
}
