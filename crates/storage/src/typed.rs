//! The typed-value layer over the pure-`u64` columns.
//!
//! The join engines never see this module: they run on dense [`Value`] codes. Typed
//! values exist only at the two boundaries of an execution —
//!
//! * **encode** (loading): external rows of [`TypedValue`]s are turned into `u64`
//!   columns, interning strings through per-domain [`Dictionary`]s
//!   ([`encode_column`]);
//! * **decode** (result emission): a [`TypedRows`] view decodes a result
//!   [`Relation`]'s columns back to typed rows through the same dictionaries,
//!   failing loudly ([`StorageError::UnknownCode`]) on codes the dictionaries never
//!   assigned.
//!
//! Keeping both conversions columnar (one dictionary lookup stream per attribute)
//! preserves the storage layer's column-at-a-time discipline.

use crate::dictionary::Dictionary;
use crate::error::StorageError;
use crate::relation::Relation;
use crate::schema::{AttrType, Schema};
use crate::Value;

/// An external (pre-encoding / post-decoding) attribute value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TypedValue {
    /// A plain integer value (stored as-is in the `u64` columns).
    Int(Value),
    /// A string value (stored as a dictionary code).
    Str(String),
}

impl TypedValue {
    /// The [`AttrType`] this value belongs to.
    pub fn kind(&self) -> AttrType {
        match self {
            TypedValue::Int(_) => AttrType::Int,
            TypedValue::Str(_) => AttrType::Str,
        }
    }

    /// The integer payload, if this is an [`TypedValue::Int`].
    pub fn as_int(&self) -> Option<Value> {
        match self {
            TypedValue::Int(v) => Some(*v),
            TypedValue::Str(_) => None,
        }
    }

    /// The string payload, if this is a [`TypedValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TypedValue::Int(_) => None,
            TypedValue::Str(s) => Some(s.as_str()),
        }
    }
}

impl From<Value> for TypedValue {
    fn from(v: Value) -> Self {
        TypedValue::Int(v)
    }
}

impl From<&str> for TypedValue {
    fn from(s: &str) -> Self {
        TypedValue::Str(s.to_string())
    }
}

impl From<String> for TypedValue {
    fn from(s: String) -> Self {
        TypedValue::Str(s)
    }
}

impl std::fmt::Display for TypedValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypedValue::Int(v) => write!(f, "{v}"),
            TypedValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A row of external values, one per schema attribute.
pub type TypedRow = Vec<TypedValue>;

/// Encode one attribute's value stream into a `u64` column.
///
/// `attr`/`ty` describe the attribute; `dict` must be `Some` exactly when
/// `ty == AttrType::Str` (the attribute's domain dictionary, mutated by interning).
/// Values of the wrong kind fail with [`StorageError::TypeMismatch`]. This is the
/// column-builder primitive the catalog's typed loader is made of.
pub fn encode_column<'v>(
    attr: &str,
    ty: AttrType,
    values: impl IntoIterator<Item = &'v TypedValue>,
    dict: Option<&mut Dictionary>,
) -> Result<Vec<Value>, StorageError> {
    let type_error = |found: AttrType| StorageError::TypeMismatch {
        attr: attr.to_string(),
        expected: ty,
        found,
    };
    match (ty, dict) {
        (AttrType::Str, None) => Err(StorageError::MissingDictionary(attr.to_string())),
        // a dictionary for a non-encoded column is a misaligned argument list;
        // reject it here so the off-by-one surfaces at the offending column
        (AttrType::Int, Some(_)) => Err(type_error(AttrType::Str)),
        (AttrType::Int, None) => values
            .into_iter()
            .map(|v| v.as_int().ok_or_else(|| type_error(v.kind())))
            .collect(),
        (AttrType::Str, Some(dict)) => {
            let strs: Vec<&str> = values
                .into_iter()
                .map(|v| v.as_str().ok_or_else(|| type_error(v.kind())))
                .collect::<Result<_, _>>()?;
            Ok(dict.intern_batch(strs))
        }
    }
}

/// A typed decode view over a [`Relation`]: the relation's `u64` rows, decoded
/// through one optional [`Dictionary`] per column (present exactly for the
/// [`AttrType::Str`] columns).
///
/// This is how callers get strings back out of a join result without the engines'
/// inner loops ever leaving `u64` — the view borrows the relation and holds
/// read-only [`crate::DictReader`] handles (so decoding can never intern and
/// perturb codes), decodes lazily, and surfaces [`StorageError::UnknownCode`]
/// instead of guessing.
#[derive(Debug, Clone)]
pub struct TypedRows<'a> {
    rel: &'a Relation,
    dicts: Vec<Option<crate::DictReader<'a>>>,
}

impl<'a> TypedRows<'a> {
    /// Build the view, checking that `dicts` lines up with the schema: one entry
    /// per attribute, `Some` for every [`AttrType::Str`] attribute.
    pub fn new(
        rel: &'a Relation,
        dicts: Vec<Option<&'a Dictionary>>,
    ) -> Result<Self, StorageError> {
        if dicts.len() != rel.arity() {
            return Err(StorageError::ArityMismatch {
                expected: rel.arity(),
                found: dicts.len(),
            });
        }
        for (pos, attr) in rel.schema().attrs().iter().enumerate() {
            if rel.schema().attr_type(pos) == AttrType::Str && dicts[pos].is_none() {
                return Err(StorageError::MissingDictionary(attr.clone()));
            }
        }
        let dicts = dicts.into_iter().map(|d| d.map(|d| d.reader())).collect();
        Ok(TypedRows { rel, dicts })
    }

    /// The underlying relation.
    pub fn relation(&self) -> &'a Relation {
        self.rel
    }

    /// The schema (shared with the underlying relation).
    pub fn schema(&self) -> &'a Schema {
        self.rel.schema()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Whether the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// Decode row `i`.
    pub fn row(&self, i: usize) -> Result<TypedRow, StorageError> {
        let mut row = Vec::with_capacity(self.dicts.len());
        for (col, dict) in self.rel.columns().iter().zip(&self.dicts) {
            row.push(match dict {
                None => TypedValue::Int(col[i]),
                Some(d) => TypedValue::Str(d.try_string(col[i])?.to_string()),
            });
        }
        Ok(row)
    }

    /// Iterator over decoded rows, in the relation's canonical (code) order.
    pub fn iter(&self) -> impl Iterator<Item = Result<TypedRow, StorageError>> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Materialize every decoded row (fails on the first unknown code).
    pub fn to_rows(&self) -> Result<Vec<TypedRow>, StorageError> {
        // collecting through `Result` has no size hint: presize instead
        let mut rows = Vec::with_capacity(self.len());
        for row in self.iter() {
            rows.push(row?);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_schema() -> Schema {
        Schema::with_types(&["name", "score"], &[AttrType::Str, AttrType::Int])
    }

    #[test]
    fn typed_value_accessors_and_display() {
        let i = TypedValue::from(7u64);
        let s = TypedValue::from("x");
        assert_eq!(i.kind(), AttrType::Int);
        assert_eq!(s.kind(), AttrType::Str);
        assert_eq!(i.as_int(), Some(7));
        assert_eq!(i.as_str(), None);
        assert_eq!(s.as_str(), Some("x"));
        assert_eq!(s.as_int(), None);
        assert_eq!(i.to_string(), "7");
        assert_eq!(s.to_string(), "x");
        assert_eq!(
            TypedValue::from("y".to_string()),
            TypedValue::Str("y".into())
        );
    }

    #[test]
    fn encode_column_interns_and_type_checks() {
        let mut dict = Dictionary::new();
        let vals = vec![TypedValue::from("b"), TypedValue::from("a"), "b".into()];
        let codes = encode_column("name", AttrType::Str, &vals, Some(&mut dict)).unwrap();
        assert_eq!(codes, vec![0, 1, 0]);
        assert_eq!(dict.len(), 2);

        let ints = vec![TypedValue::from(5u64)];
        assert_eq!(
            encode_column("score", AttrType::Int, &ints, None).unwrap(),
            vec![5]
        );
        // wrong kind for the declared type
        let err = encode_column("score", AttrType::Int, &vals, None).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        let err = encode_column("name", AttrType::Str, &ints, Some(&mut dict)).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        // a Str column without a dictionary is rejected up front
        assert_eq!(
            encode_column("name", AttrType::Str, &vals, None).unwrap_err(),
            StorageError::MissingDictionary("name".into())
        );
        // ... and so is a dictionary for an Int column (misaligned arguments)
        assert!(matches!(
            encode_column("score", AttrType::Int, &ints, Some(&mut dict)).unwrap_err(),
            StorageError::TypeMismatch { .. }
        ));
        // a failed Str encode interns nothing (values validated before interning)
        let before = dict.len();
        let mixed = vec![TypedValue::from("new1"), TypedValue::from(1u64)];
        assert!(encode_column("name", AttrType::Str, &mixed, Some(&mut dict)).is_err());
        assert_eq!(dict.len(), before);
    }

    #[test]
    fn typed_rows_round_trip() {
        let mut dict = Dictionary::new();
        let names = vec![TypedValue::from("bob"), TypedValue::from("alice")];
        let name_col = encode_column("name", AttrType::Str, &names, Some(&mut dict)).unwrap();
        let rel = Relation::try_from_columns(str_schema(), vec![name_col, vec![10, 20]]).unwrap();
        let view = TypedRows::new(&rel, vec![Some(&dict), None]).unwrap();
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.schema(), rel.schema());
        assert_eq!(view.relation().len(), 2);
        let rows = view.to_rows().unwrap();
        // canonical order is by code: bob=0 first
        assert_eq!(
            rows,
            vec![
                vec![TypedValue::from("bob"), TypedValue::from(10u64)],
                vec![TypedValue::from("alice"), TypedValue::from(20u64)],
            ]
        );
    }

    #[test]
    fn typed_rows_validation_and_unknown_code() {
        let rel = Relation::try_from_columns(str_schema(), vec![vec![0, 7], vec![1, 2]]).unwrap();
        // wrong dict count
        assert!(matches!(
            TypedRows::new(&rel, vec![None]).unwrap_err(),
            StorageError::ArityMismatch { .. }
        ));
        // missing dictionary for the Str column
        assert_eq!(
            TypedRows::new(&rel, vec![None, None]).unwrap_err(),
            StorageError::MissingDictionary("name".into())
        );
        // code 7 was never interned: the typed path fails instead of guessing
        let mut dict = Dictionary::new();
        dict.intern("only");
        let view = TypedRows::new(&rel, vec![Some(&dict), None]).unwrap();
        assert!(view.row(0).is_ok());
        assert_eq!(view.row(1).unwrap_err(), StorageError::UnknownCode(7));
        assert_eq!(view.to_rows().unwrap_err(), StorageError::UnknownCode(7));
    }
}
