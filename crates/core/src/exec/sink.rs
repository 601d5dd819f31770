//! The engines' single emission seam: a **column sink**.
//!
//! Every engine body — Generic Join, Leapfrog Triejoin, serial or morsel —
//! writes result tuples through one [`ColumnSink`]: one `Vec<Value>` per join
//! level, plus the values currently bound at the levels above the deepest one.
//! At the deepest level the kernel's extension set *is* the tuple tail, so
//! emitting `k` tuples is one `extend_from_slice` on the last column and one
//! constant fill of `k` values on each prefix column — no row is ever
//! assembled. The columns come out in join-level order, rows sorted and
//! distinct in that order, which is what lets `rows_to_relation` hand them to
//! [`wcoj_storage::Relation`] untouched when the join order is the identity.

use wcoj_storage::Value;

/// Column-major result buffer of one engine body (see the module docs).
#[derive(Debug)]
pub struct ColumnSink {
    /// One output column per join level; all the same length.
    columns: Vec<Vec<Value>>,
    /// The value bound at each level but the deepest.
    prefix: Vec<Value>,
}

impl ColumnSink {
    /// An empty sink for a join over `levels` variables (`levels >= 1`).
    pub fn new(levels: usize) -> Self {
        ColumnSink {
            columns: vec![Vec::new(); levels],
            prefix: vec![0; levels.saturating_sub(1)],
        }
    }

    /// Bind `level` (any but the deepest) to `v` for the tuples emitted next.
    #[inline]
    pub(crate) fn bind(&mut self, level: usize, v: Value) {
        self.prefix[level] = v;
    }

    /// Emit one tuple per value of `tails`: the bound prefix followed by that
    /// value at the deepest level.
    #[inline]
    pub(crate) fn emit(&mut self, tails: &[Value]) {
        if let Some((last, above)) = self.columns.split_last_mut() {
            for (col, &v) in above.iter_mut().zip(&self.prefix) {
                col.resize(col.len() + tails.len(), v);
            }
            last.extend_from_slice(tails);
        }
    }

    /// All tuples of `parts`, in order, in one sink over `levels` variables (the
    /// per-morsel merge): one exactly-sized allocation and one append per part
    /// for each column.
    pub(crate) fn concat(levels: usize, parts: Vec<ColumnSink>) -> Self {
        let mut all = ColumnSink::new(levels);
        let total: usize = parts.iter().map(ColumnSink::len).sum();
        for (level, col) in all.columns.iter_mut().enumerate() {
            col.reserve_exact(total);
            for part in &parts {
                col.extend_from_slice(&part.columns[level]);
            }
        }
        all
    }

    /// Number of tuples emitted so far.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Whether no tuple has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The emitted tuples as one column per join level.
    pub fn into_columns(self) -> Vec<Vec<Value>> {
        self.columns
    }
}
