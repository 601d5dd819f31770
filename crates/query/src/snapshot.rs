//! MVCC snapshots: pin a database's visible state for lock-free readers.
//!
//! A [`Snapshot`] is a frozen view of a [`Database`] taken at one instant:
//! every relation's log — sealed-run list, append buffer, live-set — and every
//! dictionary is pinned by `Arc` refcounts, **not copied** (see
//! [`Database#snapshots`](Database#snapshots)). Taking one is O(catalog
//! size); holding one costs nothing beyond keeping the pinned allocations
//! alive. Writers on the live database proceed concurrently: appends, seals,
//! compactions and rebinds copy-on-write exactly the structures they touch, so
//! a reader executing against the snapshot observes a stable state and
//! produces **bit-identical** rows and work counters to a run against the
//! database at pin time, no matter what the writer does in between.
//!
//! Snapshots share the origin database's access-structure cache. That is safe
//! by construction — every cache key carries the id of one immutable sealed
//! run, and a reader only ever asks for the runs it holds, so a snapshot
//! can never surface a structure built over state it does not have — and it
//! is what makes repeated reads cheap: a snapshot and the live database find
//! and seed the same entries for every run they have in common, whichever of
//! them is ahead, and neither can displace the other's. The entry of a run
//! that only a snapshot still holds goes away after the snapshot does.
//!
//! `Snapshot` derefs to [`Database`], so every read-only API — and the
//! execution layer, which takes `&Database` — works on a snapshot unchanged:
//!
//! ```
//! use wcoj_query::Database;
//! use wcoj_storage::Relation;
//!
//! let mut db = Database::new();
//! db.insert("R", Relation::from_pairs("A", "B", vec![(1, 2)]));
//! let snap = db.snapshot();
//! db.insert_delta("R", vec![3, 4]).unwrap(); // invisible to `snap`
//! assert_eq!(snap.delta("R").unwrap().len(), 1);
//! assert_eq!(db.delta("R").unwrap().len(), 2);
//! ```

use crate::database::Database;
use std::collections::HashMap;
use std::ops::Deref;

/// A pinned, read-only view of a [`Database`] at one instant. See the
/// [module docs](crate::snapshot). Obtained from [`Database::snapshot`];
/// cheap to take, cheap to clone, safe to send to reader threads.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The pinned catalog: a copy-on-write clone of the origin database.
    /// Private and never mutated — `Snapshot` only hands out `&Database`.
    db: Database,
    /// Every relation's modification epoch at pin time, for optimistic
    /// concurrency (compare-and-set writes validate against these).
    epochs: HashMap<String, u64>,
}

impl Snapshot {
    /// Pin `db`'s current state (see [`Database::snapshot`]).
    pub(crate) fn pin(db: &Database) -> Self {
        let epochs = db
            .relation_names()
            .into_iter()
            .filter_map(|name| db.relation_epoch(name).map(|e| (name.to_string(), e)))
            .collect();
        Snapshot {
            db: db.clone(),
            epochs,
        }
    }

    /// All pinned `(relation, epoch)` pairs, unsorted.
    pub fn epochs(&self) -> impl Iterator<Item = (&str, u64)> {
        self.epochs.iter().map(|(n, &e)| (n.as_str(), e))
    }
}

impl Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

impl AsRef<Database> for Snapshot {
    fn as_ref(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::Relation;

    fn seeded() -> Database {
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_pairs("A", "B", vec![(1, 2), (2, 3), (1, 3)]),
        );
        db.insert("S", Relation::from_pairs("B", "C", vec![(2, 3), (3, 1)]));
        db
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut db = seeded();
        let snap = db.snapshot();
        db.insert_delta("R", vec![9, 9]).unwrap();
        db.delete("R", &[1, 2]).unwrap();
        db.seal("R").unwrap();
        db.compact("R").unwrap();
        db.insert("S", Relation::from_pairs("B", "C", vec![(7, 7)]));
        // the snapshot still sees pin-time state, bit-identically
        assert_eq!(
            snap.delta("R").unwrap().snapshot().rows(),
            vec![vec![1, 2], vec![1, 3], vec![2, 3]]
        );
        assert_eq!(snap.delta("S").unwrap().len(), 2);
        assert_eq!(db.delta("R").unwrap().len(), 3);
        assert_eq!(db.delta("S").unwrap().len(), 1);
    }

    #[test]
    fn epochs_detect_conflicting_writers() {
        let mut db = seeded();
        let snap = db.snapshot();
        let epoch_of = |name| snap.epochs().find(|&(n, _)| n == name).map(|(_, e)| e);
        assert_eq!(epoch_of("R"), db.relation_epoch("R"));
        assert_eq!(epoch_of("S"), db.relation_epoch("S"));
        assert_eq!(epoch_of("nope"), None);
        assert_eq!(snap.epochs().count(), 2);
        db.insert_delta("R", vec![9, 9]).unwrap();
        assert_ne!(epoch_of("R"), db.relation_epoch("R"), "R diverged");
        assert_eq!(epoch_of("S"), db.relation_epoch("S"), "S untouched");
    }

    #[test]
    fn snapshot_pins_dictionaries() {
        use wcoj_storage::{AttrType, Schema, TypedValue};
        let mut db = Database::new();
        let schema = Schema::with_types(&["A", "B"], &[AttrType::Str, AttrType::Str]);
        db.insert_typed_rows(
            "R",
            schema.clone(),
            &[vec![TypedValue::from("x"), TypedValue::from("y")]],
        )
        .unwrap();
        let snap = db.snapshot();
        db.insert_typed_rows(
            "R",
            schema,
            &[vec![TypedValue::from("p"), TypedValue::from("q")]],
        )
        .unwrap();
        assert_eq!(snap.dictionary("A").unwrap().len(), 1, "pinned dict");
        assert_eq!(db.dictionary("A").unwrap().len(), 2);
    }
}
