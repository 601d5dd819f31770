//! The engines' single emission seam: a **column sink** that stores the join
//! result the way Algorithm 2 of the paper states it — `⋃ {a_I} × Q[a_I]`, a
//! union of (bound prefix) × (extension set) products — instead of flattening
//! it tuple by tuple.
//!
//! Every engine body — Generic Join, Leapfrog Triejoin, serial or morsel —
//! writes through one [`ColumnSink`], which keeps
//!
//! * the **deepest column**: one value per result tuple. The last level's
//!   intersection appends its extension set straight into it
//!   ([`ColumnSink::emit_with`]), so a tuple tail is written exactly once;
//! * per level above it, a list of **prefix runs** `(value, first_row)`: binding
//!   a level opens a run at the current row, and a run under which nothing was
//!   emitted is overwritten by the next bind. The join loop therefore has one
//!   write stream, and each prefix column is expanded **once**, into an
//!   exactly-sized allocation, when the columns are taken
//!   ([`ColumnSink::into_columns`]).
//!
//! # Canonical order is proved at emission
//!
//! The recursion enumerates every level ascending, so the rows come out
//! strictly ascending in join-level order — a [`wcoj_storage::Relation`]'s
//! canonical layout. The sink does not take that on trust, and does not re-read
//! the finished columns to find out: every emission checks its appended tails
//! (strictly ascending, still in L1) and its first row against the row before
//! it (the shallowest level re-bound at that row decides; equal values defer to
//! the next level, and last to the tails), and morsel [`ColumnSink::concat`]
//! checks each part boundary. [`ColumnSink::is_canonical`] is the conjunction —
//! equal to "the expanded rows are sorted and distinct", which the property
//! test in this module proves against the full scan — and is what lets
//! `rows_to_relation` adopt a verified identity-order result without a second
//! pass over it.

use wcoj_storage::Value;

/// Prefix runs × deepest column: the result buffer of one engine body (see the
/// module docs).
#[derive(Debug)]
pub struct ColumnSink {
    /// The deepest level's column: one value per emitted tuple.
    tails: Vec<Value>,
    /// Per level above the deepest: `(value, first_row)` runs, `first_row`
    /// strictly ascending from 0; a run covers the rows up to the next run's
    /// first (the last one up to `tails.len()`, possibly none yet).
    runs: Vec<Vec<(Value, usize)>>,
    /// Whether every row emitted so far is strictly above its predecessor.
    canonical: bool,
}

impl ColumnSink {
    /// An empty sink for a join over `levels` variables (`levels >= 1`). Every
    /// prefix level starts bound to `0`.
    pub fn new(levels: usize) -> Self {
        // room for a few runs up front: a point lookup binds each level a
        // handful of times and should not pay a regrowth for the second
        let seeded = |_| {
            let mut runs = Vec::with_capacity(4);
            runs.push((0, 0));
            runs
        };
        ColumnSink {
            tails: Vec::new(),
            runs: (1..levels).map(seeded).collect(),
            canonical: true,
        }
    }

    /// Bind `level` (any but the deepest) to `v` for the tuples emitted next.
    #[inline]
    pub(crate) fn bind(&mut self, level: usize, v: Value) {
        let row = self.tails.len();
        let runs = &mut self.runs[level];
        match runs.last_mut() {
            // the previous binding emitted nothing: its run is this one's
            Some(last) if last.1 == row => last.0 = v,
            _ => runs.push((v, row)),
        }
    }

    /// Emit one tuple per value `fill` appends to the deepest column it is
    /// handed — the bound prefix followed by that value — and verify the new
    /// rows' order. `fill` must only append. Returns how many tuples that was.
    #[inline]
    pub(crate) fn emit_with(&mut self, fill: impl FnOnce(&mut Vec<Value>)) -> usize {
        let from = self.tails.len();
        fill(&mut self.tails);
        debug_assert!(self.tails.len() >= from, "emission only appends");
        if self.tails.len() > from {
            let ascending = self.tails[from..]
                .windows(2)
                .fold(true, |asc, pair| asc & (pair[0] < pair[1]));
            self.canonical &= ascending && (from == 0 || self.above_predecessor(from));
        }
        self.tails.len() - from
    }

    /// Emit one tuple per value of `tails` under the bound prefix.
    #[inline]
    pub(crate) fn emit(&mut self, tails: &[Value]) {
        self.emit_with(|out| out.extend_from_slice(tails));
    }

    /// Whether row `row` (the first of an emission, `row >= 1`) is strictly
    /// above row `row - 1`: the two agree at every level whose current run
    /// started earlier, so the shallowest level re-bound at `row` with a
    /// different value decides, and the tails decide when none did.
    #[inline]
    fn above_predecessor(&self, row: usize) -> bool {
        for runs in &self.runs {
            if let [.., (before, _), (now, first)] = runs[..] {
                if first == row && now != before {
                    return now > before;
                }
            }
        }
        self.tails[row - 1] < self.tails[row]
    }

    /// Whether the rows emitted so far are strictly ascending in level order —
    /// sorted and distinct, a relation's canonical layout (see the module docs).
    pub fn is_canonical(&self) -> bool {
        self.canonical
    }

    /// All tuples of `parts`, in order, in one sink over `levels` variables (the
    /// per-morsel merge): the deepest columns are appended into one
    /// exactly-sized allocation and the run lists are spliced with their rows
    /// shifted. The result is canonical when every part is and each non-empty
    /// part's first row is above the last row before it.
    pub(crate) fn concat(levels: usize, parts: Vec<ColumnSink>) -> Self {
        let mut all = ColumnSink::new(levels);
        all.tails
            .reserve_exact(parts.iter().map(ColumnSink::len).sum());
        for part in parts.iter().filter(|part| !part.is_empty()) {
            let base = all.tails.len();
            all.canonical &= part.canonical && (base == 0 || all.last_row().lt(part.first_row()));
            all.tails.extend_from_slice(&part.tails);
            for (runs, more) in all.runs.iter_mut().zip(&part.runs) {
                // a trailing run that covers no row goes; the part's first
                // run starts at its row 0 and takes over from here
                if runs.last().is_some_and(|&(_, first)| first == base) {
                    runs.pop();
                }
                runs.extend(more.iter().map(|&(v, first)| (v, first + base)));
            }
        }
        all
    }

    /// The first emitted row (of a non-empty sink), level by level.
    fn first_row(&self) -> impl Iterator<Item = Value> + '_ {
        let prefix = self.runs.iter().map(|runs| runs[0].0);
        prefix.chain(self.tails.first().copied())
    }

    /// The last emitted row (of a non-empty sink), level by level.
    fn last_row(&self) -> impl Iterator<Item = Value> + '_ {
        let rows = self.tails.len();
        let prefix = self.runs.iter().map(move |runs| {
            let covering = runs.partition_point(|&(_, first)| first < rows);
            runs[covering - 1].0
        });
        prefix.chain(self.tails.last().copied())
    }

    /// Number of tuples emitted so far.
    pub fn len(&self) -> usize {
        self.tails.len()
    }

    /// Whether no tuple has been emitted.
    pub fn is_empty(&self) -> bool {
        self.tails.is_empty()
    }

    /// The emitted tuples as one column per join level: each prefix column is
    /// expanded from its runs into an exactly-sized allocation, and the deepest
    /// column is handed over as it was written.
    pub fn into_columns(self) -> Vec<Vec<Value>> {
        let rows = self.tails.len();
        let mut columns: Vec<Vec<Value>> = Vec::with_capacity(self.runs.len() + 1);
        for runs in &self.runs {
            let mut col = Vec::with_capacity(rows);
            let ends = runs.iter().skip(1).map(|&(_, first)| first);
            for (&(v, _), end) in runs.iter().zip(ends.chain([rows])) {
                col.resize(end, v);
            }
            columns.push(col);
        }
        columns.push(self.tails);
        columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_workloads::SplitMix64;

    /// A sink beside the per-tuple fill it replaced: every tuple assembled from
    /// the bound prefix, row-major.
    struct Checked {
        sink: ColumnSink,
        prefix: Vec<Value>,
        rows: Vec<Vec<Value>>,
    }

    impl Checked {
        fn new(levels: usize) -> Self {
            Checked {
                sink: ColumnSink::new(levels),
                prefix: vec![0; levels - 1],
                rows: Vec::new(),
            }
        }

        fn bind(&mut self, level: usize, v: Value) {
            self.sink.bind(level, v);
            self.prefix[level] = v;
        }

        fn emit(&mut self, tails: &[Value]) {
            self.sink.emit(tails);
            for &t in tails {
                self.rows
                    .push(self.prefix.iter().copied().chain([t]).collect());
            }
        }
    }

    /// The full scan the incremental check replaces: sorted and distinct.
    fn strictly_ascending(rows: &[Vec<Value>]) -> bool {
        rows.windows(2).all(|pair| pair[0] < pair[1])
    }

    fn transposed(rows: &[Vec<Value>], levels: usize) -> Vec<Vec<Value>> {
        (0..levels)
            .map(|l| rows.iter().map(|row| row[l]).collect())
            .collect()
    }

    /// Anything goes: binds at random levels (so some emit nothing, some repeat
    /// the value), empty emits, tails that descend or repeat.
    fn random_ops(rng: &mut SplitMix64, levels: usize, ops: u64) -> Checked {
        let mut c = Checked::new(levels);
        for _ in 0..ops {
            if levels > 1 && rng.below(2) == 0 {
                c.bind(rng.below(levels as u64 - 1) as usize, rng.below(4));
            } else {
                let mut tails: Vec<Value> = (0..rng.below(4)).map(|_| rng.below(8)).collect();
                if rng.below(3) > 0 {
                    tails.sort_unstable();
                    tails.dedup();
                }
                c.emit(&tails);
            }
        }
        c
    }

    /// What an engine does, noise included: a sorted, distinct row set emitted
    /// group by group — a group split across emits (the prefix repeats), levels
    /// re-bound to the value they hold, binds whose subtree turns out empty,
    /// empty emits.
    fn engine_like_ops(rng: &mut SplitMix64, levels: usize, rows: u64) -> Checked {
        let mut sorted: Vec<Vec<Value>> = (0..rows)
            .map(|_| (0..levels).map(|_| rng.below(4)).collect())
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut c = Checked::new(levels);
        let mut at = 0;
        while at < sorted.len() {
            let prefix = sorted[at][..levels - 1].to_vec();
            let group = sorted[at..]
                .iter()
                .take_while(|row| row[..levels - 1] == prefix[..])
                .count();
            let take = 1 + rng.below(group as u64) as usize;
            let changed = (0..levels - 1)
                .find(|&l| at == 0 || c.prefix[l] != prefix[l])
                .unwrap_or(levels - 1);
            let from = if rng.below(3) == 0 { 0 } else { changed };
            for (l, &v) in prefix.iter().enumerate().skip(from) {
                if rng.below(4) == 0 {
                    c.bind(l, rng.below(9)); // a dead end first
                    c.emit(&[]);
                }
                c.bind(l, v);
            }
            let tails: Vec<Value> = sorted[at..at + take]
                .iter()
                .map(|r| r[levels - 1])
                .collect();
            c.emit(&tails);
            at += take;
        }
        c
    }

    #[test]
    fn the_incremental_check_is_the_full_scan_and_expansion_is_the_per_tuple_fill() {
        let mut rng = SplitMix64::new(0x51_4B);
        let (mut canonical, mut unsorted) = (0, 0);
        for case in 0..6_000u64 {
            let levels = 1 + rng.below(4) as usize;
            let c = if case % 2 == 0 {
                let ops = rng.below(12);
                random_ops(&mut rng, levels, ops)
            } else {
                let c = engine_like_ops(&mut rng, levels, case % 40);
                assert!(c.sink.is_canonical(), "engine-shaped emission, case {case}");
                c
            };
            assert_eq!(c.sink.len(), c.rows.len());
            assert_eq!(c.sink.is_empty(), c.rows.is_empty());
            let expected = strictly_ascending(&c.rows);
            assert_eq!(c.sink.is_canonical(), expected, "case {case}: {:?}", c.rows);
            assert_eq!(
                c.sink.into_columns(),
                transposed(&c.rows, levels),
                "case {case}"
            );
            if case % 2 == 0 {
                canonical += expected as u32;
                unsorted += !expected as u32;
            }
        }
        assert!(
            canonical > 500 && unsorted > 500,
            "{canonical} / {unsorted}"
        );
    }

    #[test]
    fn concat_verifies_each_part_boundary() {
        let mut rng = SplitMix64::new(0xC0_4C);
        let (mut canonical, mut unsorted) = (0, 0);
        for case in 0..3_000u64 {
            let levels = 1 + rng.below(3) as usize;
            // morsels: the sorted rows of disjoint ascending ranges of level 0,
            // some empty — or, every fourth case, anything at all
            let parts: Vec<Checked> = (0..rng.below(5))
                .map(|m| {
                    if case % 4 == 0 {
                        let ops = rng.below(6);
                        return random_ops(&mut rng, levels, ops);
                    }
                    let rows = rng.below(6);
                    let mut part = engine_like_ops(&mut rng, levels, rows);
                    let shifted: Vec<Vec<Value>> = part
                        .rows
                        .iter()
                        .map(|row| {
                            let mut row = row.clone();
                            row[0] += 4 * m;
                            row
                        })
                        .collect();
                    part.sink = ColumnSink::new(levels);
                    for row in &shifted {
                        for (l, &v) in row[..levels - 1].iter().enumerate() {
                            part.sink.bind(l, v);
                        }
                        part.sink.emit(&row[levels - 1..]);
                    }
                    part.rows = shifted;
                    part
                })
                .collect();
            let rows: Vec<Vec<Value>> = parts.iter().flat_map(|p| p.rows.clone()).collect();
            let all = ColumnSink::concat(levels, parts.into_iter().map(|p| p.sink).collect());
            let expected = strictly_ascending(&rows);
            assert!(expected || case % 4 == 0, "morsel-shaped parts are ordered");
            assert_eq!(all.is_canonical(), expected, "case {case}: {rows:?}");
            assert_eq!(all.len(), rows.len());
            assert_eq!(all.into_columns(), transposed(&rows, levels), "case {case}");
            canonical += expected as u32;
            unsorted += !expected as u32;
        }
        assert!(
            canonical > 500 && unsorted > 100,
            "{canonical} / {unsorted}"
        );
    }

    #[test]
    fn an_out_of_order_part_clears_the_flag() {
        let part = |a: Value, tails: &[Value]| {
            let mut sink = ColumnSink::new(2);
            sink.bind(0, a);
            sink.emit(tails);
            sink
        };
        let ordered = ColumnSink::concat(2, vec![part(1, &[5, 6]), part(2, &[0]), part(2, &[1])]);
        assert!(ordered.is_canonical());
        assert_eq!(ordered.into_columns(), [vec![1, 1, 2, 2], vec![5, 6, 0, 1]]);
        // each part verified on its own, the sequence not: a swapped morsel ...
        let swapped = ColumnSink::concat(2, vec![part(2, &[0]), part(1, &[5, 6])]);
        assert!(!swapped.is_canonical());
        assert_eq!(swapped.into_columns(), [vec![2, 1, 1], vec![0, 5, 6]]);
        // ... a row repeated across the boundary ...
        assert!(!ColumnSink::concat(2, vec![part(1, &[5]), part(1, &[5])]).is_canonical());
        // ... and one part that failed its own check
        let parts = vec![part(1, &[6, 5]), part(2, &[0])];
        assert!(!ColumnSink::concat(2, parts).is_canonical());
        // empty parts are no boundary
        let gaps = vec![part(9, &[]), part(1, &[5]), part(0, &[]), part(1, &[6])];
        assert!(ColumnSink::concat(2, gaps).is_canonical());
        assert!(ColumnSink::concat(3, Vec::new()).is_canonical());
    }
}
