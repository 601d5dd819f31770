//! Relation schemas: ordered lists of typed attribute names.

use crate::error::StorageError;

/// The external type of an attribute's values.
///
/// The join engines always operate on dictionary-encoded `u64` codes; the attribute
/// type records how those codes map back to external values — directly
/// ([`AttrType::Int`]) or through a per-domain [`crate::Dictionary`]
/// ([`AttrType::Str`]). The hot path never inspects this: types only matter at the
/// encode (load) and decode (result emission) boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AttrType {
    /// The `u64` value *is* the external value (the pre-encoded regime).
    #[default]
    Int,
    /// The `u64` value is a code into a string dictionary.
    Str,
}

impl std::fmt::Display for AttrType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrType::Int => write!(f, "Int"),
            AttrType::Str => write!(f, "Str"),
        }
    }
}

/// The schema of a relation: an ordered list of distinct attribute names, each with
/// an [`AttrType`].
///
/// Attribute names double as query variables when relations are used as atoms of a
/// conjunctive query; `wcoj-query` maps them onto variable ids. Every
/// schema-producing operation (projection, join schema, positional rename) carries
/// the attribute types along, so result relations stay decodable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    attrs: Vec<String>,
    types: Vec<AttrType>,
}

impl Schema {
    /// Create an all-[`AttrType::Int`] schema from attribute names. Panics on
    /// duplicates (use [`Schema::try_new`] for a fallible version).
    pub fn new(attrs: &[&str]) -> Self {
        Self::try_new(attrs.iter().map(|s| s.to_string()).collect()).expect("duplicate attribute")
    }

    /// Create a schema with explicit per-attribute types. Panics on duplicate names
    /// or a length mismatch (use [`Schema::try_new_typed`] for a fallible version).
    pub fn with_types(attrs: &[&str], types: &[AttrType]) -> Self {
        Self::try_new_typed(
            attrs.iter().map(|s| s.to_string()).collect(),
            types.to_vec(),
        )
        .expect("valid typed schema")
    }

    /// Create an all-[`AttrType::Int`] schema from owned attribute names, checking
    /// for duplicates.
    pub fn try_new(attrs: Vec<String>) -> Result<Self, StorageError> {
        let types = vec![AttrType::Int; attrs.len()];
        Self::try_new_typed(attrs, types)
    }

    /// Create a schema from owned attribute names and their types, checking for
    /// duplicates and a name/type length match.
    pub fn try_new_typed(attrs: Vec<String>, types: Vec<AttrType>) -> Result<Self, StorageError> {
        if types.len() != attrs.len() {
            return Err(StorageError::ArityMismatch {
                expected: attrs.len(),
                found: types.len(),
            });
        }
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].contains(a) {
                return Err(StorageError::DuplicateAttribute(a.clone()));
            }
        }
        Ok(Schema { attrs, types })
    }

    /// Number of attributes (the arity of relations with this schema).
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The attribute names in order.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// The attribute types, parallel to [`Schema::attrs`].
    pub fn types(&self) -> &[AttrType] {
        &self.types
    }

    /// The type of the attribute at position `pos`.
    pub fn attr_type(&self, pos: usize) -> AttrType {
        self.types[pos]
    }

    /// Whether any attribute is dictionary-encoded ([`AttrType::Str`]).
    pub fn has_strings(&self) -> bool {
        self.types.contains(&AttrType::Str)
    }

    /// Position of attribute `name`, if present.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a == name)
    }

    /// Position of attribute `name`, or an error naming the missing attribute.
    pub fn require(&self, name: &str) -> Result<usize, StorageError> {
        self.position(name)
            .ok_or_else(|| StorageError::UnknownAttribute(name.to_string()))
    }

    /// Whether the schema contains attribute `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.position(name).is_some()
    }

    /// Positions of each of `names`, in the given order.
    pub fn positions(&self, names: &[&str]) -> Result<Vec<usize>, StorageError> {
        names.iter().map(|n| self.require(n)).collect()
    }

    /// Attributes shared with `other`, in this schema's order.
    pub fn common_attrs(&self, other: &Schema) -> Vec<String> {
        self.attrs
            .iter()
            .filter(|a| other.contains(a))
            .cloned()
            .collect()
    }

    /// Attributes of this schema not present in `other`, in this schema's order.
    pub fn attrs_not_in(&self, other: &Schema) -> Vec<String> {
        self.attrs
            .iter()
            .filter(|a| !other.contains(a))
            .cloned()
            .collect()
    }

    /// Schema of the natural join of `self` and `other`: this schema's attributes
    /// followed by `other`'s attributes that are not shared. Attribute types carry
    /// over from the schema each attribute is drawn from.
    pub fn join_schema(&self, other: &Schema) -> Schema {
        let mut attrs = self.attrs.clone();
        let mut types = self.types.clone();
        for (a, &t) in other.attrs.iter().zip(&other.types) {
            if !self.contains(a) {
                attrs.push(a.clone());
                types.push(t);
            }
        }
        Schema { attrs, types }
    }

    /// Schema restricted to `names` (in the order of `names`), carrying types.
    pub fn project(&self, names: &[&str]) -> Result<Schema, StorageError> {
        if names.is_empty() {
            return Err(StorageError::EmptyAttributeList);
        }
        let mut attrs = Vec::with_capacity(names.len());
        let mut types = Vec::with_capacity(names.len());
        for n in names {
            let pos = self.require(n)?;
            if attrs.contains(&n.to_string()) {
                return Err(StorageError::DuplicateAttribute(n.to_string()));
            }
            attrs.push(n.to_string());
            types.push(self.types[pos]);
        }
        Ok(Schema { attrs, types })
    }

    /// The same attribute names with `types` substituted positionally.
    pub fn retyped(&self, types: Vec<AttrType>) -> Result<Schema, StorageError> {
        Self::try_new_typed(self.attrs.clone(), types)
    }

    /// A positional rename of this schema: new names, same types.
    pub fn renamed(&self, new_attrs: &[&str]) -> Result<Schema, StorageError> {
        if new_attrs.len() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                found: new_attrs.len(),
            });
        }
        Self::try_new_typed(
            new_attrs.iter().map(|s| s.to_string()).collect(),
            self.types.clone(),
        )
    }
}

impl std::fmt::Display for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({})", self.attrs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_positions() {
        let s = Schema::new(&["A", "B", "C"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position("B"), Some(1));
        assert_eq!(s.position("Z"), None);
        assert!(s.contains("C"));
        assert_eq!(s.require("A").unwrap(), 0);
        assert_eq!(
            s.require("Z").unwrap_err(),
            StorageError::UnknownAttribute("Z".to_string())
        );
        assert_eq!(s.positions(&["C", "A"]).unwrap(), vec![2, 0]);
    }

    #[test]
    fn duplicates_rejected() {
        assert_eq!(
            Schema::try_new(vec!["A".into(), "A".into()]).unwrap_err(),
            StorageError::DuplicateAttribute("A".to_string())
        );
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn new_panics_on_duplicates() {
        let _ = Schema::new(&["A", "A"]);
    }

    #[test]
    fn common_and_difference() {
        let r = Schema::new(&["A", "B"]);
        let s = Schema::new(&["B", "C"]);
        assert_eq!(r.common_attrs(&s), vec!["B".to_string()]);
        assert_eq!(r.attrs_not_in(&s), vec!["A".to_string()]);
        assert_eq!(
            r.join_schema(&s).attrs(),
            &["A".to_string(), "B".to_string(), "C".to_string()]
        );
    }

    #[test]
    fn projection_schema() {
        let s = Schema::new(&["A", "B", "C"]);
        let p = s.project(&["C", "A"]).unwrap();
        assert_eq!(p.attrs(), &["C".to_string(), "A".to_string()]);
        assert_eq!(
            s.project(&[]).unwrap_err(),
            StorageError::EmptyAttributeList
        );
        assert_eq!(
            s.project(&["A", "A"]).unwrap_err(),
            StorageError::DuplicateAttribute("A".to_string())
        );
        assert!(matches!(
            s.project(&["D"]).unwrap_err(),
            StorageError::UnknownAttribute(_)
        ));
    }

    #[test]
    fn display() {
        let s = Schema::new(&["A", "B"]);
        assert_eq!(s.to_string(), "(A, B)");
    }

    #[test]
    fn untyped_schemas_default_to_int() {
        let s = Schema::new(&["A", "B"]);
        assert_eq!(s.types(), &[AttrType::Int, AttrType::Int]);
        assert!(!s.has_strings());
        assert_eq!(s.attr_type(1), AttrType::Int);
        assert_eq!(s.attr_type(s.position("A").unwrap()), AttrType::Int);
        assert!(s.position("Z").is_none());
    }

    #[test]
    fn typed_construction_and_accessors() {
        let s = Schema::with_types(&["name", "age"], &[AttrType::Str, AttrType::Int]);
        assert!(s.has_strings());
        assert_eq!(s.attr_type(0), AttrType::Str);
        assert_eq!(s.attr_type(s.position("age").unwrap()), AttrType::Int);
        assert_eq!(AttrType::Str.to_string(), "Str");
        assert_eq!(AttrType::Int.to_string(), "Int");
        // length mismatch rejected
        assert!(Schema::try_new_typed(vec!["A".into()], vec![]).is_err());
        // typed and untyped schemas over the same names are distinct
        assert_ne!(s, Schema::new(&["name", "age"]));
    }

    #[test]
    fn types_flow_through_join_project_rename() {
        let r = Schema::with_types(&["A", "B"], &[AttrType::Str, AttrType::Int]);
        let s = Schema::with_types(&["B", "C"], &[AttrType::Int, AttrType::Str]);
        let j = r.join_schema(&s);
        assert_eq!(j.types(), &[AttrType::Str, AttrType::Int, AttrType::Str]);
        let p = j.project(&["C", "A"]).unwrap();
        assert_eq!(p.types(), &[AttrType::Str, AttrType::Str]);
        let rn = r.renamed(&["X", "Y"]).unwrap();
        assert_eq!(rn.attrs(), &["X".to_string(), "Y".to_string()]);
        assert_eq!(rn.types(), r.types());
        assert!(r.renamed(&["X"]).is_err());
        let rt = r.retyped(vec![AttrType::Int, AttrType::Int]).unwrap();
        assert!(!rt.has_strings());
        assert!(r.retyped(vec![AttrType::Int]).is_err());
    }
}
