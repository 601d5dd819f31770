//! Sorted, deduplicated, **columnar** relations.
//!
//! A relation stores one contiguous `Vec<Value>` per attribute; row `i` is the tuple
//! `(columns[0][i], …, columns[k-1][i])`. Rows are kept lexicographically sorted and
//! deduplicated, which gives set semantics and O(log n) membership, and lets [`crate::Trie::build`] run as a single fused pass over the
//! columns (an argsort of row indices — no row materialization).
//!
//! The columnar layout is the storage half of the PR's performance story: scans touch
//! one cache-friendly array per attribute instead of chasing one heap allocation per
//! row, and access-path construction sorts 4-byte/8-byte indices instead of moving
//! `Vec<u64>` rows around.

use crate::error::StorageError;
use crate::schema::Schema;
use crate::Value;
use std::cmp::Ordering;

/// A tuple is a row of dictionary-encoded values, one per schema attribute.
///
/// Tuples are a *materialization* format (query outputs, test fixtures); the relation
/// itself stores columns.
pub type Tuple = Vec<Value>;

/// An in-memory relation: a [`Schema`] plus a lexicographically sorted, deduplicated
/// set of rows stored column-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    /// One sorted-by-row column per attribute; all columns share the same length.
    columns: Vec<Vec<Value>>,
    /// Number of rows (kept explicitly so 0-arity edge cases stay well-defined).
    len: usize,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let arity = schema.arity();
        Relation {
            schema,
            columns: vec![Vec::new(); arity],
            len: 0,
        }
    }

    /// Build a relation from rows, sorting and deduplicating. Panics if any row's
    /// arity does not match the schema; use [`Relation::try_from_rows`] for a fallible
    /// version.
    pub fn from_rows(schema: Schema, rows: Vec<Tuple>) -> Self {
        Self::try_from_rows(schema, rows).expect("row arity must match schema arity")
    }

    /// Build a relation from rows, sorting and deduplicating.
    pub fn try_from_rows(schema: Schema, rows: Vec<Tuple>) -> Result<Self, StorageError> {
        for row in &rows {
            if row.len() != schema.arity() {
                return Err(StorageError::ArityMismatch {
                    expected: schema.arity(),
                    found: row.len(),
                });
            }
        }
        let mut rows = rows;
        rows.sort_unstable();
        rows.dedup();
        let len = rows.len();
        let mut columns: Vec<Vec<Value>> = (0..schema.arity())
            .map(|_| Vec::with_capacity(len))
            .collect();
        for row in &rows {
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        Ok(Relation {
            schema,
            columns,
            len,
        })
    }

    /// Build a relation directly from columns (all of equal length) — the bulk-load
    /// path, and the join engines' result path under a non-identity variable
    /// order; it never touches a row representation.
    ///
    /// Columns whose rows are already canonical (strictly ascending) are
    /// **adopted as they are** after one linear check: no copy, no sort, no
    /// allocation (a caller that has verified the order itself skips even the
    /// check: [`Relation::try_from_canonical_columns`]). Anything else is
    /// sorted lexicographically and deduplicated: when the per-column bit
    /// widths fit, each row is squeezed into one `u64`/`u128` key
    /// (lexicographic order is preserved because each field occupies a
    /// disjoint, more-significant bit range), the keys are sorted — an LSD
    /// radix sort for `u64` keys — and unpacked back into the input's own
    /// column allocations; wider rows fall back to an argsort of row indices.
    pub fn try_from_columns(
        schema: Schema,
        mut columns: Vec<Vec<Value>>,
    ) -> Result<Self, StorageError> {
        let n = check_shape(&schema, &columns)?;
        if !is_canonical(&columns, n) {
            let widths: Vec<u32> = columns
                .iter()
                .map(|col| 64 - col.iter().fold(0, |acc, &v| acc | v).leading_zeros())
                .collect();
            match widths.iter().sum::<u32>() {
                0..=64 => canonicalize_packed::<u64>(&mut columns, &widths),
                65..=128 => canonicalize_packed::<u128>(&mut columns, &widths),
                _ => {
                    let all: Vec<usize> = (0..columns.len()).collect();
                    let mut perm = argsort_columns(&columns, &all, n);
                    perm.dedup_by(|a, b| all.iter().all(|&c| columns[c][*a] == columns[c][*b]));
                    for col in columns.iter_mut() {
                        *col = perm.iter().map(|&i| col[i]).collect();
                    }
                }
            }
        }
        Ok(Self::from_canonical_columns(schema, columns))
    }

    /// Adopt columns whose rows the caller has **already verified** canonical —
    /// strictly ascending in lexicographic order, i.e. sorted and distinct — as
    /// they are: [`Relation::try_from_columns`] without its linear re-read. This
    /// is the join engines' result path: their sink checks every row against
    /// its predecessor as it is emitted, while the data is in L1, so a second
    /// pass over the finished columns would only re-prove it cold.
    ///
    /// **Precondition:** the rows are canonical. Only the shape (arity, equal
    /// column lengths) is checked here; debug builds additionally re-scan and
    /// panic on a violation. Breaking the precondition in a release build is
    /// memory-safe but yields a relation whose lookups, merges and equality
    /// are wrong — when in doubt, call [`Relation::try_from_columns`].
    pub fn try_from_canonical_columns(
        schema: Schema,
        columns: Vec<Vec<Value>>,
    ) -> Result<Self, StorageError> {
        let n = check_shape(&schema, &columns)?;
        debug_assert!(is_canonical(&columns, n), "caller-verified row order");
        Ok(Self::from_canonical_columns(schema, columns))
    }

    /// Internal constructor for columns already in canonical (sorted, deduplicated)
    /// row order — used by operators that filter or merge canonical inputs. The
    /// checked public spelling is [`Relation::try_from_columns`].
    pub(crate) fn from_canonical_columns(schema: Schema, columns: Vec<Vec<Value>>) -> Self {
        debug_assert_eq!(columns.len(), schema.arity());
        let len = columns.first().map_or(0, |c| c.len());
        debug_assert!(columns.iter().all(|c| c.len() == len));
        Relation {
            schema,
            columns,
            len,
        }
    }

    /// Build a binary relation over attributes `(a, b)` from `(Value, Value)` pairs —
    /// the common case of edge relations in graph workloads.
    pub fn from_pairs(a: &str, b: &str, pairs: impl IntoIterator<Item = (Value, Value)>) -> Self {
        let iter = pairs.into_iter();
        let (lo, _) = iter.size_hint();
        let mut ca = Vec::with_capacity(lo);
        let mut cb = Vec::with_capacity(lo);
        for (x, y) in iter {
            ca.push(x);
            cb.push(y);
        }
        Self::try_from_columns(Schema::new(&[a, b]), vec![ca, cb])
            .expect("two columns match binary schema")
    }

    /// The schema of this relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arity (number of attributes).
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The column of attribute position `pos` (length [`Relation::len`]).
    pub fn column(&self, pos: usize) -> &[Value] {
        &self.columns[pos]
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Vec<Value>] {
        &self.columns
    }

    /// The column of the named attribute.
    pub fn column_of(&self, attr: &str) -> Result<&[Value], StorageError> {
        Ok(&self.columns[self.schema.require(attr)?])
    }

    /// Materialize row `i` as a tuple.
    pub fn row(&self, i: usize) -> Tuple {
        self.columns.iter().map(|c| c[i]).collect()
    }

    /// Materialize all rows, in sorted order.
    pub fn rows(&self) -> Vec<Tuple> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Iterator over the sorted rows (each materialized as a [`Tuple`]).
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Compare row `i` against `tuple` lexicographically over the leading
    /// `tuple.len()` attributes.
    fn cmp_row_prefix(&self, i: usize, tuple: &[Value]) -> Ordering {
        for (c, &v) in tuple.iter().enumerate() {
            match self.columns[c][i].cmp(&v) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Argsort of the rows by the given column positions (ties broken by row index,
    /// i.e. by the canonical lexicographic order — deterministic).
    pub fn sort_perm(&self, positions: &[usize]) -> Vec<usize> {
        argsort_columns(&self.columns, positions, self.len)
    }

    /// Insert a single tuple, keeping the relation sorted.
    ///
    /// # Cost model
    ///
    /// **O(n) per call** (every column shifts its tail to make room), i.e.
    /// O(n log n)-per-tuple workloads when access structures are rebuilt per
    /// change — fine for test fixtures and occasional patches, quadratic for
    /// sustained ingest. Live, continuously-mutating relations should go through
    /// the delta-log path instead: [`crate::delta::DeltaRelation::insert`] appends
    /// to an unsorted buffer in O(arity) expected plus its share of the seal
    /// that merges the buffer into the log's one run, and queries read that
    /// run — see the [`crate::delta`] module docs for the full cost table.
    /// Bulk loads should use [`Relation::from_rows`].
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool, StorageError> {
        if tuple.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                found: tuple.len(),
            });
        }
        let pos = self.partition_point(|r, i| r.cmp_row_prefix(i, &tuple) == Ordering::Less);
        if pos < self.len && self.cmp_row_prefix(pos, &tuple) == Ordering::Equal {
            return Ok(false);
        }
        for (c, &v) in tuple.iter().enumerate() {
            self.columns[c].insert(pos, v);
        }
        self.len += 1;
        Ok(true)
    }

    /// First row index for which `pred(self, i)` is false (rows are assumed
    /// partitioned: all `true` rows precede all `false` rows).
    fn partition_point<F: Fn(&Self, usize) -> bool>(&self, pred: F) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(self, mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Membership test (binary search).
    pub fn contains(&self, tuple: &[Value]) -> bool {
        if tuple.len() != self.arity() {
            return false;
        }
        let lo = self.partition_point(|r, i| r.cmp_row_prefix(i, tuple) == Ordering::Less);
        lo < self.len && self.cmp_row_prefix(lo, tuple) == Ordering::Equal
    }

    /// Projection `π_{attrs}` (deduplicating).
    pub fn project(&self, attrs: &[&str]) -> Result<Relation, StorageError> {
        let schema = self.schema.project(attrs)?;
        let positions = self.schema.positions(attrs)?;
        let columns: Vec<Vec<Value>> = positions.iter().map(|&p| self.columns[p].clone()).collect();
        Relation::try_from_columns(schema, columns)
    }

    /// Rename the attributes (positionally), keeping each attribute's type. The new
    /// schema must have the same arity.
    pub fn rename(&self, new_attrs: &[&str]) -> Result<Relation, StorageError> {
        let schema = self.schema.renamed(new_attrs)?;
        Ok(Relation {
            schema,
            columns: self.columns.clone(),
            len: self.len,
        })
    }

    /// Reorder columns to the order given by `attrs` (which must be a permutation of
    /// the schema) — used to build tries over a global variable order.
    pub fn reorder(&self, attrs: &[&str]) -> Result<Relation, StorageError> {
        if attrs.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                found: attrs.len(),
            });
        }
        self.project(attrs)
    }

    /// Maximum degree `deg(A_Y | A_X)` of Definition 1 in the paper: the maximum over
    /// bindings `t` of the `X` attributes of the number of distinct `Y`-projections of
    /// tuples matching `t`. With `x_attrs` empty this is simply the number of distinct
    /// `Y`-projections (a cardinality).
    pub fn max_degree(&self, x_attrs: &[&str], y_attrs: &[&str]) -> Result<u64, StorageError> {
        let y_pos = self.schema.positions(y_attrs)?;
        if x_attrs.is_empty() {
            let mut ys: Vec<Tuple> = (0..self.len)
                .map(|i| y_pos.iter().map(|&p| self.columns[p][i]).collect())
                .collect();
            ys.sort_unstable();
            ys.dedup();
            return Ok(ys.len() as u64);
        }
        let x_pos = self.schema.positions(x_attrs)?;
        use std::collections::HashMap;
        let mut groups: HashMap<Tuple, Vec<Tuple>> = HashMap::new();
        for i in 0..self.len {
            let x: Tuple = x_pos.iter().map(|&p| self.columns[p][i]).collect();
            let y: Tuple = y_pos.iter().map(|&p| self.columns[p][i]).collect();
            groups.entry(x).or_default().push(y);
        }
        let mut max = 0u64;
        for (_, mut ys) in groups {
            ys.sort_unstable();
            ys.dedup();
            max = max.max(ys.len() as u64);
        }
        Ok(max)
    }
}

/// The strict total row order behind [`Relation::sort_perm`] and the delta-log
/// merges: lexicographic on the permuted columns, ties broken by row index (so
/// rows duplicated across concatenated runs keep their run order).
#[inline]
pub(crate) fn cmp_columns_at(
    columns: &[Vec<Value>],
    positions: &[usize],
    a: usize,
    b: usize,
) -> Ordering {
    for &p in positions {
        match columns[p][a].cmp(&columns[p][b]) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    a.cmp(&b)
}

/// The common length of `columns` once they are known to fit `schema`: one per
/// attribute, all equally long.
fn check_shape(schema: &Schema, columns: &[Vec<Value>]) -> Result<usize, StorageError> {
    if columns.len() != schema.arity() {
        return Err(StorageError::ArityMismatch {
            expected: schema.arity(),
            found: columns.len(),
        });
    }
    let n = columns.first().map_or(0, |c| c.len());
    match columns.iter().find(|c| c.len() != n) {
        Some(bad) => Err(StorageError::ArityMismatch {
            expected: n,
            found: bad.len(),
        }),
        None => Ok(n),
    }
}

/// Whether `n` column-major rows are strictly ascending in lexicographic order —
/// sorted and duplicate-free, i.e. already a [`Relation`]'s canonical layout.
/// Rows are compared with their predecessors a block at a time, one column at a
/// time from the least significant (the most significant column in which two
/// rows differ has the last word): branch-free streaming loops, and unsorted
/// bulk loads are turned away by their first block.
pub(crate) fn is_canonical(columns: &[Vec<Value>], n: usize) -> bool {
    const BLOCK: usize = 1024;
    let mut ascending = [0u8; BLOCK];
    (1..n).step_by(BLOCK).all(|lo| {
        let hi = (lo + BLOCK).min(n);
        let ascending = &mut ascending[..hi - lo];
        ascending.fill(0);
        for col in columns.iter().rev() {
            let (prev, cur) = (&col[lo - 1..hi - 1], &col[lo..hi]);
            // three equal-length slices under one index: the form the
            // optimizer turns into straight-line compares (zips cost 1.5x)
            for i in 0..ascending.len() {
                let (p, c) = (prev[i], cur[i]);
                ascending[i] = (p < c) as u8 | ((p == c) as u8 & ascending[i]);
            }
        }
        ascending.iter().all(|&asc| asc == 1)
    })
}

/// Scalar sort keys that rows can be squeezed into: fields are shifted in and
/// extracted with per-field widths summing to at most `Self::BITS`.
trait PackedKey: Copy + Ord {
    /// One key per value of the most significant column. `u64` keys take over
    /// the column's own allocation; nothing is copied.
    fn from_first(col: &mut Vec<Value>) -> Vec<Self>;
    /// `self` with a `width`-bit field appended at the least-significant end.
    fn push_field(self, width: u32, v: Value) -> Self;
    /// The `width`-bit field that has `shift` bits to its right.
    fn field(self, shift: u32, width: u32) -> Value;
    /// Sort keys that all fit in their low `bits` bits; `spare` is a dead
    /// buffer the sort may use as scratch space.
    fn sort_keys(keys: &mut Vec<Self>, bits: u32, spare: &mut Vec<Value>);
}

impl PackedKey for u64 {
    fn from_first(col: &mut Vec<Value>) -> Vec<Self> {
        std::mem::take(col)
    }

    fn push_field(self, width: u32, v: Value) -> Self {
        // width == 64 implies every other width is 0 and `self` is still 0
        if width == 64 {
            v
        } else {
            (self << width) | v
        }
    }

    fn field(self, shift: u32, width: u32) -> Value {
        if width == 0 {
            0
        } else {
            (self >> shift) & (u64::MAX >> (64 - width))
        }
    }

    fn sort_keys(keys: &mut Vec<Self>, bits: u32, spare: &mut Vec<Value>) {
        if keys.len() < RADIX_MIN_KEYS || bits > RADIX_MAX_BITS {
            keys.sort_unstable();
        } else {
            radix_sort(keys, bits, spare);
        }
    }
}

impl PackedKey for u128 {
    fn from_first(col: &mut Vec<Value>) -> Vec<Self> {
        col.iter().map(|&v| v as u128).collect()
    }

    fn push_field(self, width: u32, v: Value) -> Self {
        (self << width) | v as u128
    }

    fn field(self, shift: u32, width: u32) -> Value {
        if width == 0 {
            0
        } else {
            ((self >> shift) as u64) & (u64::MAX >> (64 - width))
        }
    }

    fn sort_keys(keys: &mut Vec<Self>, _bits: u32, _spare: &mut Vec<Value>) {
        keys.sort_unstable();
    }
}

/// Sort + dedup column-major rows in place through packed scalar keys (field 0
/// most significant): pack column by column, sort, dedup, and unpack into the
/// same column allocations. With `u64` keys nothing is allocated at all — the
/// keys live in the first column's buffer and the sort borrows the second's.
fn canonicalize_packed<T: PackedKey>(columns: &mut [Vec<Value>], widths: &[u32]) {
    let (first, rest) = columns
        .split_first_mut()
        .expect("rows out of order have at least one column");
    let bits: u32 = widths.iter().sum();
    let mut keys = T::from_first(first);
    for (col, &w) in rest.iter().zip(&widths[1..]) {
        for (k, &v) in keys.iter_mut().zip(col) {
            *k = k.push_field(w, v);
        }
    }
    // every input value now lives in a key, so the columns are dead buffers
    let mut none = Vec::new();
    T::sort_keys(&mut keys, bits, rest.first_mut().unwrap_or(&mut none));
    keys.dedup();
    let (first_shift, first_width) = (bits - widths[0], widths[0]);
    let mut shift = first_shift;
    for (col, &w) in rest.iter_mut().zip(&widths[1..]) {
        shift -= w;
        col.clear();
        col.extend(keys.iter().map(|k| k.field(shift, w)));
    }
    *first = keys
        .into_iter()
        .map(|k| k.field(first_shift, first_width))
        .collect();
}

/// Below this many keys `sort_unstable` beats the radix passes' fixed cost.
const RADIX_MIN_KEYS: usize = 1024;

/// Above this many key bits (more than four passes) `sort_unstable` wins again.
const RADIX_MAX_BITS: u32 = 4 * RADIX_MAX_DIGIT_BITS;

/// Widest radix digit: 2^11 counters of 8 bytes stay within the L1 data cache.
const RADIX_MAX_DIGIT_BITS: u32 = 11;

/// LSD radix sort of keys that all fit in their low `bits` bits: as few
/// counting passes as [`RADIX_MAX_DIGIT_BITS`] allows, `bits` spread evenly over
/// them, every pass's histogram taken in one read of the keys, passes whose
/// digit is constant skipped. Keys ping-pong between their own buffer and
/// `spare`, which is left holding garbage.
fn radix_sort(keys: &mut Vec<u64>, bits: u32, spare: &mut Vec<u64>) {
    let passes = bits.div_ceil(RADIX_MAX_DIGIT_BITS);
    if passes == 0 {
        return; // every key is 0
    }
    let digit_bits = bits.div_ceil(passes);
    let buckets = 1usize << digit_bits;
    let digit = |k: u64, pass: usize| (k >> (pass as u32 * digit_bits)) as usize & (buckets - 1);
    let mut counts = vec![0usize; buckets * passes as usize];
    for &k in keys.iter() {
        for (pass, hist) in counts.chunks_exact_mut(buckets).enumerate() {
            hist[digit(k, pass)] += 1;
        }
    }
    spare.resize(keys.len(), 0);
    for (pass, hist) in counts.chunks_exact_mut(buckets).enumerate() {
        if hist.contains(&keys.len()) {
            continue; // all keys share this digit: the pass would move nothing
        }
        let mut start = 0usize;
        for slot in hist.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
        for &k in keys.iter() {
            let slot = &mut hist[digit(k, pass)];
            spare[*slot] = k;
            *slot += 1;
        }
        std::mem::swap(keys, spare);
    }
}

/// Argsort of `len` rows of column-major `columns` by `positions` — the core
/// of [`Relation::sort_perm`], shared with the delta-log subsystem (whose
/// run concatenations are *not* canonical relations, so this works on raw
/// columns).
pub(crate) fn argsort_columns(
    columns: &[Vec<Value>],
    positions: &[usize],
    len: usize,
) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    perm.sort_unstable_by(|&a, &b| cmp_columns_at(columns, positions, a, b));
    perm
}

impl std::fmt::Display for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for t in self.iter().take(20) {
            writeln!(f, "  {t:?}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  ... ({} more)", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r_ab() -> Relation {
        Relation::from_rows(
            Schema::new(&["A", "B"]),
            vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![1, 2]],
        )
    }

    #[test]
    fn from_rows_sorts_and_dedups() {
        let r = r_ab();
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows(), vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
        assert_eq!(r.arity(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn columnar_layout_is_exposed() {
        let r = r_ab();
        assert_eq!(r.column(0), &[1, 1, 2]);
        assert_eq!(r.column(1), &[2, 3, 3]);
        assert_eq!(r.column_of("B").unwrap(), &[2, 3, 3]);
        assert!(r.column_of("Z").is_err());
        assert_eq!(r.columns().len(), 2);
        assert_eq!(r.row(1), vec![1, 3]);
    }

    #[test]
    fn from_columns_sorts_and_dedups() {
        let r = Relation::try_from_columns(
            Schema::new(&["A", "B"]),
            vec![vec![2, 1, 1, 1], vec![3, 3, 2, 3]],
        )
        .unwrap();
        assert_eq!(r, r_ab());
        // ragged columns are rejected, naming both lengths
        assert_eq!(
            Relation::try_from_columns(Schema::new(&["A", "B"]), vec![vec![1], vec![]])
                .unwrap_err(),
            StorageError::ArityMismatch {
                expected: 1,
                found: 0
            }
        );
        // wrong column count rejected
        assert_eq!(
            Relation::try_from_columns(Schema::new(&["A", "B"]), vec![vec![1]]).unwrap_err(),
            StorageError::ArityMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn canonical_columns_are_adopted_without_copying() {
        // what the join engines hand over under the identity order
        let columns = vec![vec![1, 1, 2, 2], vec![5, 6, 0, 9], vec![7, 7, 7, 7]];
        let ptrs: Vec<*const Value> = columns.iter().map(|c| c.as_ptr()).collect();
        let r = Relation::try_from_columns(Schema::new(&["A", "B", "C"]), columns).unwrap();
        assert_eq!(r.len(), 4);
        for (pos, ptr) in ptrs.into_iter().enumerate() {
            assert_eq!(r.column(pos).as_ptr(), ptr, "column {pos} was copied");
        }
        // one duplicate or one descent anywhere and the input is re-canonicalized
        let dup = Relation::try_from_columns(
            Schema::new(&["A", "B"]),
            vec![vec![1, 1, 2], vec![5, 5, 0]],
        )
        .unwrap();
        assert_eq!(dup.rows(), vec![vec![1, 5], vec![2, 0]]);
        let descent = Relation::try_from_columns(
            Schema::new(&["A", "B"]),
            vec![vec![1, 1, 2], vec![6, 5, 0]],
        )
        .unwrap();
        assert_eq!(descent.rows(), vec![vec![1, 5], vec![1, 6], vec![2, 0]]);
        // a violation past the first check block is still seen
        let mut long: Vec<Value> = (0..3000).collect();
        long[2500] = 7;
        let sorted = Relation::try_from_columns(Schema::new(&["A"]), vec![long]).unwrap();
        assert_eq!(sorted.len(), 2999);
        assert!(sorted.column(0).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn verified_columns_are_adopted_as_they_are() {
        // what the join engines hand over under the identity order, verified
        // row by row as it was emitted
        let columns = vec![vec![1, 1, 2, 2], vec![5, 6, 0, 9], vec![7, 7, 7, 7]];
        let ptrs: Vec<*const Value> = columns.iter().map(|c| c.as_ptr()).collect();
        let schema = Schema::new(&["A", "B", "C"]);
        let checked = Relation::try_from_columns(schema.clone(), columns.clone()).unwrap();
        let adopted = Relation::try_from_canonical_columns(schema.clone(), columns).unwrap();
        assert_eq!(adopted, checked);
        for (pos, ptr) in ptrs.into_iter().enumerate() {
            assert_eq!(adopted.column(pos).as_ptr(), ptr, "column {pos} was copied");
        }
        // the shape is still checked
        for bad in [vec![vec![1], vec![2]], vec![vec![1], vec![2], vec![]]] {
            assert!(matches!(
                Relation::try_from_canonical_columns(schema.clone(), bad),
                Err(StorageError::ArityMismatch { .. })
            ));
        }
    }

    /// Debug builds re-scan at adoption: a caller that broke the precondition
    /// is told, not believed.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "caller-verified row order")]
    fn debug_builds_recheck_the_canonical_precondition() {
        let _ = Relation::try_from_canonical_columns(
            Schema::new(&["A", "B"]),
            vec![vec![1, 1, 2], vec![6, 5, 0]],
        );
    }

    #[test]
    fn from_columns_arity_zero_and_one() {
        let nullary = Relation::try_from_columns(Schema::new(&[]), vec![]).unwrap();
        assert_eq!((nullary.arity(), nullary.len()), (0, 0));
        let unary = Relation::try_from_columns(Schema::new(&["A"]), vec![vec![3, 1, 3, 2]]);
        assert_eq!(unary.unwrap().column(0), &[1, 2, 3]);
        let canonical = vec![1, 2, 3];
        let ptr = canonical.as_ptr();
        let adopted = Relation::try_from_columns(Schema::new(&["A"]), vec![canonical]).unwrap();
        assert_eq!(adopted.column(0).as_ptr(), ptr);
        let empty = Relation::try_from_columns(Schema::new(&["A"]), vec![vec![]]).unwrap();
        assert!(empty.is_empty());
    }

    /// A small deterministic generator for the randomized tests below.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn from_columns_agrees_with_from_rows_on_every_key_width() {
        // per-column bit widths that exercise the u64 keys (with and without
        // the radix sort), the u128 keys, and the argsort fallback
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for (widths, n) in [
            (vec![0u32, 0], 50),
            (vec![9, 9, 9], 3000),
            (vec![9, 9, 9], 200),
            (vec![64], 2000),
            (vec![0, 64, 0], 1500),
            (vec![30, 30], 2000),
            (vec![40, 40, 40], 500),
            (vec![60, 60, 60], 500),
            (vec![3, 3, 3, 3, 3], 2000),
        ] {
            let rows: Vec<Tuple> = (0..n)
                .map(|_| {
                    widths
                        .iter()
                        .map(|&w| match w {
                            0 => 0,
                            w => xorshift(&mut state) >> (64 - w),
                        })
                        .collect()
                })
                .collect();
            let names: Vec<String> = (0..widths.len()).map(|c| format!("c{c}")).collect();
            let schema = Schema::try_new(names).unwrap();
            let mut columns = vec![Vec::with_capacity(n); widths.len()];
            for row in &rows {
                for (col, &v) in columns.iter_mut().zip(row) {
                    col.push(v);
                }
            }
            let from_columns = Relation::try_from_columns(schema.clone(), columns).unwrap();
            let from_rows = Relation::try_from_rows(schema, rows).unwrap();
            assert_eq!(from_columns, from_rows, "widths {widths:?}, {n} rows");
        }
    }

    #[test]
    fn radix_sort_agrees_with_sort_unstable() {
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let n = 2 * RADIX_MIN_KEYS + 77;
        let mut random = |bits: u32, n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| match bits {
                    0 => 0,
                    bits => xorshift(&mut state) >> (64 - bits),
                })
                .collect()
        };
        let mut inputs: Vec<(u32, Vec<u64>)> = Vec::new();
        for bits in [0, 1, 8, 11, 12, 27, 33, 44, 45, 64] {
            inputs.push((bits, random(bits, n)));
        }
        inputs.push((27, random(27, RADIX_MIN_KEYS - 1))); // below the cutoff
        inputs.push((27, vec![0x5A5_A5A5; n])); // all keys equal
        inputs.push((20, (0..n as u64).collect())); // already sorted
        inputs.push((20, (0..n as u64).rev().collect())); // and reversed
        inputs.push((27, Vec::new()));
        for (bits, keys) in inputs {
            let mut expected = keys.clone();
            expected.sort_unstable();
            // the dispatching entry point, with and without a lent buffer
            let mut dispatched = keys.clone();
            <u64 as PackedKey>::sort_keys(&mut dispatched, bits, &mut Vec::new());
            assert_eq!(dispatched, expected, "{bits}-bit keys, n = {}", keys.len());
            // the radix passes themselves, whatever the cutoffs say
            let mut sorted = keys.clone();
            let mut spare = vec![u64::MAX; keys.len()];
            radix_sort(&mut sorted, bits, &mut spare);
            assert_eq!(
                sorted,
                expected,
                "radix, {bits}-bit keys, n = {}",
                keys.len()
            );
            assert_eq!(spare.len(), keys.len());
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = Relation::try_from_rows(Schema::new(&["A", "B"]), vec![vec![1]]).unwrap_err();
        assert_eq!(
            err,
            StorageError::ArityMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn from_pairs_builds_edge_relation() {
        let r = Relation::from_pairs("A", "B", vec![(3, 4), (1, 2), (3, 4)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().attrs(), &["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn insert_keeps_sorted_and_reports_novelty() {
        let mut r = Relation::empty(Schema::new(&["A"]));
        assert!(r.insert(vec![5]).unwrap());
        assert!(r.insert(vec![1]).unwrap());
        assert!(!r.insert(vec![5]).unwrap());
        assert_eq!(r.rows(), vec![vec![1], vec![5]]);
        assert!(r.insert(vec![1, 2]).is_err());
    }

    #[test]
    fn contains_is_exact_membership() {
        let r = r_ab();
        assert!(r.contains(&[1, 3]));
        assert!(!r.contains(&[3, 1]));
        assert!(!r.contains(&[1])); // arity mismatch is simply absent
        assert!(!r.contains(&[]));
    }

    #[test]
    fn project_dedups() {
        let r = r_ab();
        let p = r.project(&["A"]).unwrap();
        assert_eq!(p.rows(), vec![vec![1], vec![2]]);
        let p2 = r.project(&["B", "A"]).unwrap();
        assert_eq!(p2.schema().attrs(), &["B".to_string(), "A".to_string()]);
        assert!(p2.contains(&[2, 1]));
    }

    #[test]
    fn rename_and_reorder() {
        let r = r_ab();
        let rn = r.rename(&["X", "Y"]).unwrap();
        assert_eq!(rn.schema().attrs(), &["X".to_string(), "Y".to_string()]);
        assert_eq!(rn.len(), r.len());
        assert!(r.rename(&["X"]).is_err());
        let ro = r.reorder(&["B", "A"]).unwrap();
        assert!(ro.contains(&[2, 1]));
        assert!(r.reorder(&["A"]).is_err());
    }

    #[test]
    fn degrees_and_fds() {
        // A=1 has B in {2,3}; A=2 has B in {3}
        let r = r_ab();
        assert_eq!(r.max_degree(&["A"], &["B"]).unwrap(), 2);
        assert_eq!(r.max_degree(&["B"], &["A"]).unwrap(), 2);
        assert_eq!(r.max_degree(&[], &["A"]).unwrap(), 2);
        assert_eq!(r.max_degree(&[], &["A", "B"]).unwrap(), 3);
        // a functional dependency K -> V is a degree of at most 1
        let key = Relation::from_rows(Schema::new(&["K", "V"]), vec![vec![1, 10], vec![2, 20]]);
        assert_eq!(key.max_degree(&["K"], &["V"]).unwrap(), 1);
    }

    #[test]
    fn sort_perm_orders_by_requested_columns() {
        let r = Relation::from_rows(
            Schema::new(&["A", "B"]),
            vec![vec![1, 9], vec![2, 3], vec![3, 3]],
        );
        // sort by B then A: rows (2,3)=idx1, (3,3)=idx2, (1,9)=idx0
        assert_eq!(r.sort_perm(&[1, 0]), vec![1, 2, 0]);
        // identity prefix: already canonical
        assert_eq!(r.sort_perm(&[0, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn rename_preserves_types() {
        use crate::schema::AttrType;
        let schema = Schema::with_types(&["name", "n"], &[AttrType::Str, AttrType::Int]);
        let r = Relation::from_rows(schema, vec![vec![0, 10], vec![1, 20]]);
        let rn = r.rename(&["X", "Y"]).unwrap();
        assert_eq!(rn.schema().types(), &[AttrType::Str, AttrType::Int]);
    }

    #[test]
    fn display_truncates() {
        let rows: Vec<Tuple> = (0..30).map(|i| vec![i]).collect();
        let r = Relation::from_rows(Schema::new(&["A"]), rows);
        let s = format!("{r}");
        assert!(s.contains("30 tuples"));
        assert!(s.contains("more"));
    }

    #[test]
    fn empty_relation_behaves() {
        let r = Relation::empty(Schema::new(&["A", "B"]));
        assert!(r.is_empty());
        assert_eq!(r.max_degree(&["A"], &["B"]).unwrap(), 0);
        assert_eq!(r.max_degree(&[], &["A"]).unwrap(), 0);
        assert!(!r.contains(&[1, 2]));
    }
}
