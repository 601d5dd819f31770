//! Error type for the storage layer.

use crate::schema::AttrType;
use std::fmt;

/// Errors produced by relation construction and relational operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An attribute name was not found in the relation's schema.
    UnknownAttribute(String),
    /// A tuple's arity did not match the schema arity.
    ArityMismatch {
        /// Arity declared by the schema.
        expected: usize,
        /// Arity of the offending tuple.
        found: usize,
    },
    /// Two relations that were expected to share a schema (e.g. for union/difference)
    /// did not.
    SchemaMismatch {
        /// Schema of the left operand.
        left: Vec<String>,
        /// Schema of the right operand.
        right: Vec<String>,
    },
    /// A join was requested on attributes that do not exist on both sides.
    NoJoinAttributes,
    /// An operation required a non-empty attribute list but got an empty one.
    EmptyAttributeList,
    /// A duplicate attribute name appeared where attribute names must be unique.
    DuplicateAttribute(String),
    /// A code had no entry in the dictionary it was decoded through.
    UnknownCode(crate::Value),
    /// A typed value did not match the attribute's declared type.
    TypeMismatch {
        /// The attribute whose type was violated.
        attr: String,
        /// The type declared by the schema.
        expected: AttrType,
        /// The type of the offending value.
        found: AttrType,
    },
    /// A dictionary-encoded attribute was decoded without a dictionary.
    MissingDictionary(String),
    /// A write-ahead-log file operation failed at the OS level. The message is
    /// the rendered `std::io::Error` (kept as a string so the error stays
    /// `Clone + Eq` like every other variant).
    Io(String),
    /// The write-ahead log contains bytes that are neither a complete valid
    /// record nor a clean end-of-file **before** the last commit marker —
    /// corruption that recovery cannot repair by truncating a torn tail.
    WalCorrupt {
        /// Byte offset of the unreadable record.
        offset: u64,
        /// What failed to parse or verify.
        reason: String,
    },
    /// An injected fault fired (see `wal::FaultPlan`): the operation behaved
    /// as if the corresponding real failure had happened.
    FaultInjected(String),
    /// A relation constructor requires at least one column.
    EmptySchema,
    /// A relation name's byte length or a tuple's arity does not fit the
    /// `u16` field the log and checkpoint formats store it in; nothing was
    /// written.
    TooLongForLog {
        /// What was too long (`"relation name"` or `"tuple"`).
        what: &'static str,
        /// Its length: bytes of a name, values of a tuple.
        len: usize,
    },
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            StorageError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "tuple arity {found} does not match schema arity {expected}"
                )
            }
            StorageError::SchemaMismatch { left, right } => {
                write!(f, "schema mismatch: {left:?} vs {right:?}")
            }
            StorageError::NoJoinAttributes => write!(f, "relations share no join attributes"),
            StorageError::EmptyAttributeList => write!(f, "attribute list must be non-empty"),
            StorageError::DuplicateAttribute(a) => write!(f, "duplicate attribute `{a}`"),
            StorageError::UnknownCode(c) => write!(f, "code {c} is not in the dictionary"),
            StorageError::TypeMismatch {
                attr,
                expected,
                found,
            } => write!(
                f,
                "attribute `{attr}` expects {expected} values, got {found}"
            ),
            StorageError::MissingDictionary(a) => {
                write!(f, "no dictionary for string attribute `{a}`")
            }
            StorageError::Io(e) => write!(f, "wal i/o error: {e}"),
            StorageError::WalCorrupt { offset, reason } => {
                write!(f, "wal corrupt at byte {offset}: {reason}")
            }
            StorageError::FaultInjected(what) => write!(f, "injected fault: {what}"),
            StorageError::EmptySchema => {
                write!(f, "relations need at least one column")
            }
            StorageError::TooLongForLog { what, len } => write!(
                f,
                "{what} of length {len} exceeds the log's limit of {}",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(StorageError::UnknownAttribute("X".into())
            .to_string()
            .contains("X"));
        assert!(StorageError::ArityMismatch {
            expected: 2,
            found: 3
        }
        .to_string()
        .contains('3'));
        assert!(StorageError::DuplicateAttribute("A".into())
            .to_string()
            .contains('A'));
        assert!(!StorageError::NoJoinAttributes.to_string().is_empty());
        assert!(!StorageError::EmptyAttributeList.to_string().is_empty());
        let e = StorageError::SchemaMismatch {
            left: vec!["A".into()],
            right: vec!["B".into()],
        };
        assert!(e.to_string().contains('A') && e.to_string().contains('B'));
        assert!(StorageError::UnknownCode(42).to_string().contains("42"));
        let e = StorageError::TypeMismatch {
            attr: "name".into(),
            expected: AttrType::Str,
            found: AttrType::Int,
        };
        assert!(e.to_string().contains("name"));
        assert!(e.to_string().contains("Str") && e.to_string().contains("Int"));
        assert!(StorageError::MissingDictionary("name".into())
            .to_string()
            .contains("name"));
        let io: StorageError = std::io::Error::other("disk gone").into();
        assert!(io.to_string().contains("disk gone"));
        let e = StorageError::WalCorrupt {
            offset: 17,
            reason: "bad checksum".into(),
        };
        assert!(e.to_string().contains("17") && e.to_string().contains("bad checksum"));
        assert!(StorageError::FaultInjected("fsync".into())
            .to_string()
            .contains("fsync"));
        assert!(!StorageError::EmptySchema.to_string().is_empty());
        let e = StorageError::TooLongForLog {
            what: "tuple",
            len: 70_000,
        };
        assert!(e.to_string().contains("tuple") && e.to_string().contains("70000"));
    }
}
