//! String interning: maps external string values to dense [`crate::Value`] codes.
//!
//! Dictionaries are the bridge between external typed data and the pure-`u64` join
//! engines: strings are interned **once per database domain** (see
//! `wcoj_query::Database`), joins run over the dense codes, and results decode back
//! through the same dictionary. Per-relation dictionaries can be unified into a
//! shared one with [`Dictionary::merge`], which returns the code remap to rewrite
//! already-encoded columns ([`crate::Relation::remap_columns`]).

use crate::error::StorageError;
use crate::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A bidirectional string ↔ code dictionary.
///
/// Codes are assigned densely in insertion order starting from 0, which keeps the
/// dictionary-encoded domains small — important because worst-case optimal joins
/// iterate and intersect sorted code sets.
///
/// Each interned string is stored **once**: the code table and the lookup map share
/// one `Arc<str>` allocation per distinct string (merging dictionaries shares the
/// allocations across dictionaries, too).
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    by_string: HashMap<Arc<str>, Value>,
    by_code: Vec<Arc<str>>,
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its code (allocating a new one if unseen).
    pub fn intern(&mut self, s: &str) -> Value {
        if let Some(&c) = self.by_string.get(s) {
            return c;
        }
        let shared: Arc<str> = Arc::from(s);
        self.push_shared(shared)
    }

    /// Intern an already-shared string, avoiding the copy (and sharing the
    /// allocation with the caller — the primitive behind [`Dictionary::merge`]).
    fn push_shared(&mut self, shared: Arc<str>) -> Value {
        let code = self.by_code.len() as Value;
        self.by_code.push(shared.clone());
        self.by_string.insert(shared, code);
        code
    }

    /// Intern every string of `strs` in order, returning one code per input — the
    /// column-at-a-time loading primitive behind
    /// [`crate::typed::encode_column`].
    pub fn intern_batch<'s>(&mut self, strs: impl IntoIterator<Item = &'s str>) -> Vec<Value> {
        let iter = strs.into_iter();
        let mut codes = Vec::with_capacity(iter.size_hint().0);
        for s in iter {
            codes.push(self.intern(s));
        }
        codes
    }

    /// Look up the code of `s` without allocating.
    pub fn code(&self, s: &str) -> Option<Value> {
        self.by_string.get(s).copied()
    }

    /// Look up the string of `code`.
    pub fn string(&self, code: Value) -> Option<&str> {
        self.by_code.get(code as usize).map(|s| s.as_ref())
    }

    /// Look up the string of `code`, failing with [`StorageError::UnknownCode`] for
    /// codes this dictionary never assigned — the decode primitive of the typed
    /// result path.
    pub fn try_string(&self, code: Value) -> Result<&str, StorageError> {
        self.string(code).ok_or(StorageError::UnknownCode(code))
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.by_code.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.by_code.is_empty()
    }

    /// A read-only lookup handle over this dictionary — what decode paths hold so
    /// the type system guarantees they cannot intern (and thus cannot perturb
    /// codes) mid-decode.
    pub fn reader(&self) -> DictReader<'_> {
        DictReader { dict: self }
    }

    /// Intern a whole tuple of strings.
    pub fn intern_row(&mut self, row: &[&str]) -> Vec<Value> {
        row.iter().map(|s| self.intern(s)).collect()
    }

    /// Decode a tuple of codes back to strings, failing on the first code this
    /// dictionary never assigned.
    pub fn try_decode_row(&self, row: &[Value]) -> Result<Vec<String>, StorageError> {
        row.iter()
            .map(|&c| self.try_string(c).map(str::to_string))
            .collect()
    }

    /// Merge `other` into `self`, interning every string of `other` that `self` has
    /// not seen. Returns the remap table `m` with `m[other_code] = self_code`, the
    /// input to [`crate::Relation::remap_columns`] — together they unify
    /// per-relation dictionaries into one shared per-domain dictionary. String
    /// allocations are shared between the two dictionaries, not copied.
    pub fn merge(&mut self, other: &Dictionary) -> Vec<Value> {
        other
            .by_code
            .iter()
            .map(|s| match self.by_string.get(s.as_ref()) {
                Some(&c) => c,
                None => self.push_shared(s.clone()),
            })
            .collect()
    }
}

/// A read-only lookup handle borrowed from a [`Dictionary`].
///
/// `Copy`, so decode loops can pass it around freely; exposes only the non-mutating
/// half of the dictionary API.
#[derive(Debug, Clone, Copy)]
pub struct DictReader<'a> {
    dict: &'a Dictionary,
}

impl<'a> DictReader<'a> {
    /// Look up the code of `s`.
    pub fn code(&self, s: &str) -> Option<Value> {
        self.dict.code(s)
    }

    /// Look up the string of `code`.
    pub fn string(&self, code: Value) -> Option<&'a str> {
        self.dict.by_code.get(code as usize).map(|s| s.as_ref())
    }

    /// Checked lookup: [`StorageError::UnknownCode`] for unassigned codes.
    pub fn try_string(&self, code: Value) -> Result<&'a str, StorageError> {
        self.string(code).ok_or(StorageError::UnknownCode(code))
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut d = Dictionary::new();
        let a = d.intern("alice");
        let b = d.intern("bob");
        let a2 = d.intern("alice");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn round_trip() {
        let mut d = Dictionary::new();
        let codes = d.intern_row(&["x", "y", "x"]);
        assert_eq!(codes, vec![0, 1, 0]);
        assert_eq!(d.try_decode_row(&codes).unwrap(), vec!["x", "y", "x"]);
        assert_eq!(d.code("y"), Some(1));
        assert_eq!(d.code("z"), None);
        assert_eq!(d.string(99), None);
        assert_eq!(d.try_string(99).unwrap_err(), StorageError::UnknownCode(99));
        assert_eq!(
            d.try_decode_row(&[0, 99]).unwrap_err(),
            StorageError::UnknownCode(99)
        );
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn strings_are_stored_once() {
        // the map key and the code-table entry must share one allocation
        let mut d = Dictionary::new();
        d.intern("shared");
        let arc = d.by_code[0].clone();
        // 3 = by_code entry + by_string key + our clone
        assert_eq!(Arc::strong_count(&arc), 3);
    }

    #[test]
    fn batch_intern_matches_sequential() {
        let mut a = Dictionary::new();
        let mut b = Dictionary::new();
        let words = ["cat", "dog", "cat", "emu", "dog"];
        let batch = a.intern_batch(words.iter().copied());
        let seq: Vec<Value> = words.iter().map(|w| b.intern(w)).collect();
        assert_eq!(batch, seq);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn reader_is_read_only_view() {
        let mut d = Dictionary::new();
        d.intern("x");
        let r = d.reader();
        assert_eq!(r.code("x"), Some(0));
        assert_eq!(r.string(0), Some("x"));
        assert_eq!(r.try_string(1).unwrap_err(), StorageError::UnknownCode(1));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn merge_returns_remap_and_shares_allocations() {
        let mut shared = Dictionary::new();
        shared.intern_row(&["a", "b"]); // a=0, b=1
        let mut local = Dictionary::new();
        local.intern_row(&["b", "c", "a"]); // b=0, c=1, a=2
        let map = shared.merge(&local);
        // local codes remap: b(0)->1, c(1)->2 (new), a(2)->0
        assert_eq!(map, vec![1, 2, 0]);
        assert_eq!(shared.len(), 3);
        assert_eq!(shared.string(2), Some("c"));
        // merging again is a no-op on the table, same remap
        assert_eq!(shared.merge(&local), vec![1, 2, 0]);
        assert_eq!(shared.len(), 3);
        // the merged entry shares its allocation with `local`'s
        assert!(Arc::ptr_eq(&shared.by_code[2], &local.by_code[1]));
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let mut local = Dictionary::new();
        local.intern_row(&["x", "y"]);
        let mut shared = Dictionary::new();
        let map = shared.merge(&local);
        assert_eq!(map, vec![0, 1]);
        assert_eq!(shared.len(), 2);
    }
}
