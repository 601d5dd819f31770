//! The engines' single emission seam: a **column sink** that stores the join
//! result the way Algorithm 2 of the paper states it — `⋃ {a_I} × Q[a_I]`, a
//! union of (bound prefix) × (extension set) products — instead of flattening
//! it tuple by tuple.
//!
//! Every engine body — Generic Join and Leapfrog Triejoin — writes through
//! one [`ColumnSink`], which keeps
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
//! # Canonical order is proved by counting descents
//!
//! The recursion enumerates every level ascending, so the rows come out
//! strictly ascending in join-level order — a [`wcoj_storage::Relation`]'s
//! canonical layout. The sink does not take that on trust, and proves it
//! without comparing rows one by one. Call a row a **descent** when its tail
//! is not above the tail of the row before it. Inside one emission the prefix
//! is the same for every row, so there the tails alone decide. At an
//! emission's first row, the sink records the **prefix verdict**: the
//! shallowest level re-bound at that row with a different value decides
//! (equal values defer to the next level). If that level went down, the rows
//! are out of order; if it went up, a descent at that row is **allowed**; if
//! no level decided, the tails do. [`ColumnSink::is_canonical`] then makes one
//! branch-free pass that counts the descents in the deepest column: the rows
//! are strictly ascending exactly when no prefix went down and that count
//! equals the allowed count. This is equal to "the expanded rows are sorted
//! and distinct", which the property test in this module proves against the
//! full scan, and is what lets `rows_to_relation` adopt a verified
//! identity-order result without expanding or sorting it.

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
    /// Whether no emission's first row had its prefix below its predecessor's.
    prefixes_ascend: bool,
    /// How many descents of `tails` sit at an emission's first row whose
    /// prefix went up (see the module docs).
    allowed_descents: usize,
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
            prefixes_ascend: true,
            allowed_descents: 0,
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
    /// handed — the bound prefix followed by that value — and record the first
    /// new row's prefix verdict. `fill` must only append. Returns how many
    /// tuples that was.
    #[inline]
    pub(crate) fn emit_with(&mut self, fill: impl FnOnce(&mut Vec<Value>)) -> usize {
        let from = self.tails.len();
        fill(&mut self.tails);
        debug_assert!(self.tails.len() >= from, "emission only appends");
        if from > 0 && self.tails.len() > from {
            match self.prefix_verdict(from) {
                Some(true) => {
                    let descent = self.tails[from - 1] >= self.tails[from];
                    self.allowed_descents += descent as usize;
                }
                Some(false) => self.prefixes_ascend = false,
                None => {}
            }
        }
        self.tails.len() - from
    }

    /// Emit one tuple per value of `tails` under the bound prefix.
    #[inline]
    pub(crate) fn emit(&mut self, tails: &[Value]) {
        self.emit_with(|out| out.extend_from_slice(tails));
    }

    /// How row `row`'s prefix (the first of an emission, `row >= 1`) compares
    /// with row `row - 1`'s: the two agree at every level whose current run
    /// started earlier, so the shallowest level re-bound at `row` with a
    /// different value decides — `Some(true)` when it went up — and `None`
    /// when no level did, leaving the verdict to the tails.
    #[inline]
    fn prefix_verdict(&self, row: usize) -> Option<bool> {
        for runs in &self.runs {
            if let [.., (before, _), (now, first)] = runs[..] {
                if first == row && now != before {
                    return Some(now > before);
                }
            }
        }
        None
    }

    /// Whether the rows emitted so far are strictly ascending in level order —
    /// sorted and distinct, a relation's canonical layout: one pass that counts
    /// the deepest column's descents against the allowed ones (see the module
    /// docs).
    pub fn is_canonical(&self) -> bool {
        let next = self.tails.get(1..).unwrap_or_default();
        let descents: usize = self
            .tails
            .iter()
            .zip(next)
            .map(|(before, now)| (before >= now) as usize)
            .sum();
        self.prefixes_ascend && descents == self.allowed_descents
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

    /// One step of a named case.
    #[derive(Debug, Clone, Copy)]
    enum Op<'a> {
        Bind(usize, Value),
        Emit(&'a [Value]),
    }

    /// Run `ops` on a three-level sink; assert its verdict is the full scan's
    /// and return it.
    fn verdict(ops: &[Op<'_>]) -> bool {
        let mut c = Checked::new(3);
        for &op in ops {
            match op {
                Op::Bind(level, v) => c.bind(level, v),
                Op::Emit(tails) => c.emit(tails),
            }
        }
        let expected = strictly_ascending(&c.rows);
        assert_eq!(c.sink.is_canonical(), expected, "{ops:?}");
        expected
    }

    /// Named cases of the counted proof: a prefix that rises allows a descent
    /// of the tails at its first row, and nothing else does.
    #[test]
    fn the_counted_proof_on_named_cases() {
        use Op::{Bind, Emit};
        // an empty sink, and a sink with one row
        assert!(verdict(&[]));
        assert!(verdict(&[Bind(0, 1), Emit(&[]), Bind(1, 2)]));
        assert!(verdict(&[Bind(0, 1), Emit(&[5])]));
        // a descent inside one emission, and a repeat
        assert!(!verdict(&[Emit(&[1, 3, 2])]));
        assert!(!verdict(&[Bind(1, 4), Emit(&[1, 1])]));
        // a group split across emissions: the tails decide at the split
        assert!(verdict(&[Emit(&[1, 2]), Emit(&[3])]));
        assert!(!verdict(&[Emit(&[1, 2]), Emit(&[2])]));
        // a rising prefix allows the descent at its first row, and only there;
        // over rising tails it allows nothing
        assert!(verdict(&[Emit(&[1]), Bind(1, 1), Emit(&[5])]));
        assert!(verdict(&[Emit(&[5, 6]), Bind(1, 1), Emit(&[0, 9])]));
        assert!(!verdict(&[Emit(&[5, 6]), Bind(1, 1), Emit(&[0, 9, 3])]));
        assert!(verdict(&[Emit(&[5]), Bind(0, 1), Bind(1, 0), Emit(&[0])]));
        // a descent at a row rebound to the same prefix value: no level
        // decided, so the tails do
        assert!(!verdict(&[Emit(&[5]), Bind(0, 0), Emit(&[4])]));
        assert!(!verdict(&[Emit(&[5]), Bind(0, 0), Bind(1, 0), Emit(&[5])]));
        assert!(verdict(&[Emit(&[5]), Bind(1, 0), Emit(&[6])]));
        // a prefix level that goes down, with the tails rising or not
        assert!(!verdict(&[Bind(1, 3), Emit(&[1]), Bind(1, 2), Emit(&[7])]));
        assert!(!verdict(&[Bind(1, 3), Emit(&[1]), Bind(1, 2), Emit(&[0])]));
        // a deeper level goes down under a shallower one that rose: allowed
        let ops = [Bind(1, 3), Emit(&[1]), Bind(0, 1), Bind(1, 2), Emit(&[0])];
        assert!(verdict(&ops));
        // a shallower level goes down over a deeper one that rose: not
        let ops = [Bind(0, 2), Emit(&[1]), Bind(0, 1), Bind(1, 5), Emit(&[9])];
        assert!(!verdict(&ops));
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
}
