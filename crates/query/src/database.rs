//! Databases: a catalog of named relations bound to the atoms of a query, shared
//! per-domain string dictionaries behind a typed loader, plus verification that a
//! database satisfies a set of degree constraints (`D ⊨ DC`).

use crate::constraints::{ConstraintSet, DegreeConstraint};
use crate::query::{ConjunctiveQuery, QueryError};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use wcoj_storage::typed::{encode_column, TypedRow};
use wcoj_storage::{
    AttrType, CacheCounters, DeltaRelation, Dictionary, Relation, Schema, StorageError, Tuple,
};

/// Errors raised when binding a database to a query or verifying constraints.
#[derive(Debug, Clone, PartialEq)]
pub enum DatabaseError {
    /// No relation is stored under the given atom name.
    MissingRelation(String),
    /// The stored relation's arity does not match the atom's arity.
    ArityMismatch {
        /// The atom (relation) name.
        atom: String,
        /// Arity expected by the query atom.
        expected: usize,
        /// Arity of the stored relation.
        found: usize,
    },
    /// A degree constraint has no candidate guard atom in the query.
    NoGuard {
        /// Index of the constraint within its [`ConstraintSet`].
        constraint: usize,
    },
    /// Two atoms bind the same query variable to attributes whose types (or, for
    /// string attributes, dictionary domains) disagree — the join would compare
    /// codes from different value spaces.
    VarTypeMismatch {
        /// The query variable's name.
        var: String,
        /// How the variable is typed where it was first bound (e.g. `Str[user]`).
        first: String,
        /// The conflicting typing, with the atom that introduced it.
        conflict: String,
    },
    /// A storage-level error.
    Storage(StorageError),
    /// A query-level error.
    Query(QueryError),
}

impl fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatabaseError::MissingRelation(r) => write!(f, "missing relation `{r}`"),
            DatabaseError::ArityMismatch {
                atom,
                expected,
                found,
            } => write!(
                f,
                "relation `{atom}` has arity {found}, the query atom expects {expected}"
            ),
            DatabaseError::NoGuard { constraint } => {
                write!(f, "degree constraint #{constraint} has no guard atom")
            }
            DatabaseError::VarTypeMismatch {
                var,
                first,
                conflict,
            } => write!(
                f,
                "variable `{var}` is bound to {first} in one atom and {conflict} in another"
            ),
            DatabaseError::Storage(e) => write!(f, "storage error: {e}"),
            DatabaseError::Query(e) => write!(f, "query error: {e}"),
        }
    }
}

impl std::error::Error for DatabaseError {}

impl From<StorageError> for DatabaseError {
    fn from(e: StorageError) -> Self {
        DatabaseError::Storage(e)
    }
}

impl From<QueryError> for DatabaseError {
    fn from(e: QueryError) -> Self {
        DatabaseError::Query(e)
    }
}

/// How one query variable is typed by the stored relations bound to it: its
/// [`AttrType`] and, for string variables, the dictionary domain its codes live in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarBinding {
    /// The variable's value type.
    pub ty: AttrType,
    /// The shared-dictionary domain (`Some` exactly when `ty == AttrType::Str`).
    pub domain: Option<String>,
}

impl VarBinding {
    fn describe(&self) -> String {
        match &self.domain {
            Some(d) => format!("{}[{d}]", self.ty),
            None => self.ty.to_string(),
        }
    }
}

/// A database instance: a catalog of named relations plus one shared string
/// [`Dictionary`] per attribute *domain*.
///
/// There is one kind of stored relation, the [`DeltaRelation`] log, and a
/// relation enters the catalog one of three ways: [`Database::insert`]
/// (already encoded), [`Database::insert_delta_relation`] (a log), or
/// [`Database::insert_typed_rows`] (typed rows, interned once). A loaded
/// [`Relation`] becomes a log whose one run is its rows, whose
/// access structure is exactly the relation's trie; from then on the relation
/// changes only through its log ([`Database::insert_delta`] /
/// [`Database::delete`]), and a log is read back whole through
/// [`DeltaRelation::snapshot`].
///
/// Relations are matched to query atoms *by name and positionally*: the atom
/// `R(A, C)` binds the first column of the stored relation `R` to variable `A` and the
/// second to `C`, regardless of the stored attribute names. This is what allows
/// self-joins such as the clique query `E(X0,X1), E(X0,X2), E(X1,X2)` over a single
/// stored edge relation.
///
/// # Domains and dictionaries
///
/// String attributes are interned **once per database** into per-domain
/// dictionaries. By default an attribute's domain is its own name, so relations
/// sharing attribute names (the natural-join convention used throughout the
/// workspace) automatically share a dictionary — `R(A,B)` and `S(B,C)` intern `B`
/// values into the same table, which is what makes their codes joinable. When
/// differently-named attributes hold the same kind of value (e.g. the `src` and
/// `dst` endpoints of a graph's edge relation, self-joined by clique queries), map
/// them onto one domain with [`Database::set_domain`] **before** loading.
/// # Snapshots
///
/// `Database` is `Clone`, and cloning **is** the snapshot mechanism: logs and
/// dictionaries are held behind [`Arc`]s, so a clone pins the current visible
/// state of every relation in O(catalog) refcount bumps without copying tuple
/// data. Mutating either side afterwards copies-on-write (`Arc::make_mut`)
/// only what it touches — a log's header, then (inside the log) its live set;
/// its run stays shared. [`Database::snapshot`] wraps a clone as a read-only
/// [`crate::snapshot::Snapshot`].
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// Every stored relation, by name. See [`wcoj_storage::delta`].
    relations: HashMap<String, Arc<DeltaRelation>>,
    /// One shared dictionary per domain name (behind `Arc` so snapshots pin
    /// the interned table without copying it; loads copy-on-write).
    dicts: HashMap<String, Arc<Dictionary>>,
    /// Attribute-name → domain-name overrides (attributes default to themselves).
    domains: HashMap<String, String>,
    /// For relations loaded through [`Database::insert_typed_rows`]: the domain
    /// each column's codes were **actually interned into** (per column; `None`
    /// for Int columns). [`Database::var_bindings`] validates against these, so
    /// remapping an attribute's domain *after* loading cannot misrepresent where
    /// existing codes live. The record lasts while the relation changes through
    /// its log; storing a relation or a log under the name
    /// ([`Database::insert`], [`Database::insert_delta_relation`]) drops it.
    loaded_domains: HashMap<String, Vec<Option<String>>>,
    /// The cumulative trie-reuse counters, shared across clones and
    /// snapshots of this database, so every execution over any of them folds
    /// in. The tries themselves live on the runs.
    cache: Arc<CacheCounters>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) the relation stored under `name`, already encoded:
    /// it is stored as a log of one sealed run ([`DeltaRelation::from_relation`];
    /// an empty relation is a log with no run). Any intern-time domain record
    /// of a previously loaded `name` is dropped: the caller owns the encoding
    /// of raw inserts.
    ///
    /// # Panics
    ///
    /// On a nullary relation (no columns): no query atom can bind one, and a
    /// log needs a column to key its tuples. Store one fallibly with
    /// [`DeltaRelation::try_from_relation`] and
    /// [`Database::insert_delta_relation`].
    pub fn insert(&mut self, name: impl Into<String>, relation: Relation) {
        self.insert_delta_relation(name, DeltaRelation::from_relation(relation));
    }

    /// Insert (or replace) the log stored under `name` (already encoded, like
    /// [`Database::insert`]).
    pub fn insert_delta_relation(&mut self, name: impl Into<String>, delta: DeltaRelation) {
        let name = name.into();
        self.loaded_domains.remove(&name);
        self.relations.insert(name, Arc::new(delta));
    }

    /// The cumulative trie-reuse counters shared by executions over this
    /// database (and its clones and snapshots). See [`wcoj_storage::cache`].
    pub fn cache_counters(&self) -> &CacheCounters {
        &self.cache
    }

    /// Pin the current visible state of every relation as a read-only
    /// [`crate::snapshot::Snapshot`]. O(catalog): tuple data, runs, live-sets,
    /// and dictionaries are `Arc`-shared, not copied — see the
    /// [struct docs](Database#snapshots). The snapshot shares this database's
    /// runs, so reads through it hit (and seed) the tries memoized on them,
    /// and its [`Database::cache_counters`].
    pub fn snapshot(&self) -> crate::snapshot::Snapshot {
        crate::snapshot::Snapshot::pin(self)
    }

    /// The modification epoch ([`DeltaRelation::epoch`]) of the relation
    /// stored under `name`, `None` for unknown names. Equal epochs imply
    /// identical visible state — the optimistic-concurrency check used by
    /// compare-and-set writers.
    pub fn relation_epoch(&self, name: &str) -> Option<u64> {
        self.delta(name).map(DeltaRelation::epoch)
    }

    /// The log stored under `name`.
    pub fn delta(&self, name: &str) -> Option<&DeltaRelation> {
        self.relations.get(name).map(Arc::as_ref)
    }

    /// Mutable access to the log stored under `name` — copied on write (its
    /// header and buffer, not its run's rows) if a snapshot still shares it.
    pub fn delta_mut(&mut self, name: &str) -> Option<&mut DeltaRelation> {
        self.relations.get_mut(name).map(Arc::make_mut)
    }

    /// [`Database::delta_mut`], failing with [`DatabaseError::MissingRelation`]
    /// — the lookup the ingest path pays per tuple (no key is allocated).
    fn log_mut(&mut self, name: &str) -> Result<&mut DeltaRelation, DatabaseError> {
        let missing = || DatabaseError::MissingRelation(name.to_string());
        self.delta_mut(name).ok_or_else(missing)
    }

    /// Insert one (already-encoded) tuple into relation `name` through its
    /// log — O(arity) expected plus a share of the next seal, versus the O(n)
    /// of rebuilding a sorted [`Relation`]. Returns whether the tuple was
    /// newly inserted.
    pub fn insert_delta(&mut self, name: &str, tuple: Tuple) -> Result<bool, DatabaseError> {
        Ok(self.log_mut(name)?.insert(tuple)?)
    }

    /// Delete one (already-encoded) tuple from relation `name` (a tombstone
    /// append; same cost shape as [`Database::insert_delta`]). Returns whether
    /// the tuple was live.
    pub fn delete(&mut self, name: &str, tuple: &[u64]) -> Result<bool, DatabaseError> {
        Ok(self.log_mut(name)?.delete(tuple)?)
    }

    /// Seal relation `name`'s append buffer: merge it into the log's one
    /// sorted run. Queries work without sealing — the buffer is collapsed and
    /// merged into the run at access-build time — but a sealed log's tries
    /// are built once per order and memoized on the run instead of per query.
    /// Errors only if `name` is unknown.
    pub fn seal(&mut self, name: &str) -> Result<(), DatabaseError> {
        self.log_mut(name)?.seal();
        Ok(())
    }

    /// Map attribute `attr` onto dictionary domain `domain` for all **subsequent**
    /// typed loads. Attributes not remapped use their own name as the domain.
    /// Relations already loaded keep the domains their codes were interned into
    /// (recorded per column at load time), so a late remap cannot silently change
    /// what existing codes mean.
    pub fn set_domain(&mut self, attr: impl Into<String>, domain: impl Into<String>) {
        self.domains.insert(attr.into(), domain.into());
    }

    /// The dictionary domain of attribute `attr`.
    pub fn domain_of<'a>(&'a self, attr: &'a str) -> &'a str {
        self.domains.get(attr).map(|s| s.as_str()).unwrap_or(attr)
    }

    /// The shared dictionary of `domain`, if any strings were interned into it.
    pub fn dictionary(&self, domain: &str) -> Option<&Dictionary> {
        self.dicts.get(domain).map(|d| d.as_ref())
    }

    /// Load external typed rows as relation `name`, interning every string value
    /// through the shared per-domain dictionaries (strings are interned once per
    /// database: values already seen by this attribute's domain reuse their code).
    /// Encoding is columnar — one dictionary stream per attribute. Returns the
    /// number of stored tuples (after sort + dedup).
    ///
    /// The load is all-or-nothing: every row is validated against the schema
    /// (arity and value kinds) **before** any string reaches a shared dictionary,
    /// so a rejected load leaves the catalog untouched. A nullary schema is
    /// rejected with [`StorageError::EmptySchema`].
    pub fn insert_typed_rows(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        rows: &[TypedRow],
    ) -> Result<usize, DatabaseError> {
        for row in rows {
            if row.len() != schema.arity() {
                return Err(StorageError::ArityMismatch {
                    expected: schema.arity(),
                    found: row.len(),
                }
                .into());
            }
            for (pos, value) in row.iter().enumerate() {
                if value.kind() != schema.attr_type(pos) {
                    return Err(StorageError::TypeMismatch {
                        attr: schema.attrs()[pos].clone(),
                        expected: schema.attr_type(pos),
                        found: value.kind(),
                    }
                    .into());
                }
            }
        }
        let mut columns = Vec::with_capacity(schema.arity());
        let mut col_domains = Vec::with_capacity(schema.arity());
        for (pos, attr) in schema.attrs().iter().enumerate() {
            let ty = schema.attr_type(pos);
            let (dict, domain) = match ty {
                AttrType::Int => (None, None),
                AttrType::Str => {
                    let domain = self.domain_of(attr).to_string();
                    (
                        Some(Arc::make_mut(self.dicts.entry(domain.clone()).or_default())),
                        Some(domain),
                    )
                }
            };
            columns.push(encode_column(attr, ty, rows.iter().map(|r| &r[pos]), dict)?);
            col_domains.push(domain);
        }
        let log = DeltaRelation::try_from_relation(Relation::try_from_columns(schema, columns)?)?;
        let stored = log.len();
        let name = name.into();
        self.insert_delta_relation(name.clone(), log);
        self.loaded_domains.insert(name, col_domains);
        Ok(stored)
    }

    /// Derive (and validate) each query variable's typing from the stored relations
    /// bound to the query's atoms: every atom binding a variable must agree on the
    /// attribute type **and**, for string attributes, the dictionary domain —
    /// otherwise the join would compare codes from different value spaces. Returns
    /// one [`VarBinding`] per variable, in variable-id order.
    ///
    /// For relations loaded through [`Database::insert_typed_rows`], the domain
    /// compared is the one each column's codes were **interned into at load
    /// time** — not the current [`Database::set_domain`] mapping — so remapping
    /// a domain after loading cannot smuggle two unrelated dictionaries past
    /// this check.
    pub fn var_bindings(&self, query: &ConjunctiveQuery) -> Result<Vec<VarBinding>, DatabaseError> {
        // variable ids are assigned in order of first appearance, atom by
        // atom, so an unseen variable is always the next id
        let mut out: Vec<VarBinding> = Vec::with_capacity(query.num_vars());
        for (ai, atom) in query.atoms().iter().enumerate() {
            let stored = self.atom_source(query, ai)?.schema();
            let load_record = self.loaded_domains.get(&atom.name);
            for (pos, &v) in atom.vars.iter().enumerate() {
                let ty = stored.attr_type(pos);
                let attr = &stored.attrs()[pos];
                let binding = VarBinding {
                    ty,
                    domain: (ty == AttrType::Str).then(|| {
                        load_record
                            .and_then(|cols| cols[pos].clone())
                            .unwrap_or_else(|| self.domain_of(attr).to_string())
                    }),
                };
                match out.get(v) {
                    None => {
                        debug_assert_eq!(v, out.len(), "ids follow first appearance");
                        out.push(binding);
                    }
                    Some(first) if *first != binding => {
                        return Err(DatabaseError::VarTypeMismatch {
                            var: query.var_name(v).to_string(),
                            first: first.describe(),
                            conflict: format!(
                                "{} (atom #{ai} `{}`)",
                                binding.describe(),
                                atom.name
                            ),
                        });
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(out)
    }

    /// Names of the stored relations (unsorted).
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Number of stored relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Heap bytes of the tries memoized on the stored relations' runs
    /// ([`wcoj_storage::delta::Run::trie_bytes`]).
    pub fn trie_bytes(&self) -> usize {
        let runs = self.relations.values().filter_map(|d| d.fold());
        runs.map(|run| run.trie_bytes()).sum()
    }

    /// Size of the largest stored relation (the `N` of the AGM bound `N^{ρ*}`).
    pub fn max_relation_size(&self) -> usize {
        self.relations.values().map(|d| d.len()).max().unwrap_or(0)
    }

    /// The relation for atom `i` of `query`, with its columns renamed (positionally)
    /// to the atom's variable names, **materialized** from its log
    /// ([`DeltaRelation::snapshot`]) — the path of the binary baseline and the
    /// test references; the WCOJ engines instead run live over
    /// [`Database::atom_source`] without rebuilding.
    pub fn relation_for_atom(
        &self,
        query: &ConjunctiveQuery,
        atom_index: usize,
    ) -> Result<Relation, DatabaseError> {
        let snapshot = self.atom_source(query, atom_index)?.snapshot();
        Ok(snapshot.rename(&query.atom_var_names(atom_index))?)
    }

    /// The (live) tuple count of the relation bound to atom `i` — the
    /// cardinality the AGM planner needs, without materializing the log.
    /// Validates the binding (relation exists, arity matches) like
    /// [`Database::relation_for_atom`], so standalone bound computations reject
    /// invalid bindings instead of producing a meaningless bound.
    pub fn atom_size(
        &self,
        query: &ConjunctiveQuery,
        atom_index: usize,
    ) -> Result<usize, DatabaseError> {
        Ok(self.atom_source(query, atom_index)?.len())
    }

    /// The log bound to atom `i` of `query`: its stored columns map to the
    /// atom's variables positionally, with no per-query rename or copy. This is
    /// what lets the execution layer run live over logs and reuse the tries
    /// memoized on their runs across queries. Fails if the relation is missing
    /// or its arity is not the atom's.
    pub fn atom_source(
        &self,
        query: &ConjunctiveQuery,
        atom_index: usize,
    ) -> Result<&DeltaRelation, DatabaseError> {
        let atom = query.atom(atom_index);
        let delta = self
            .delta(&atom.name)
            .ok_or_else(|| DatabaseError::MissingRelation(atom.name.clone()))?;
        if delta.arity() != atom.vars.len() {
            return Err(DatabaseError::ArityMismatch {
                atom: atom.name.clone(),
                expected: atom.vars.len(),
                found: delta.arity(),
            });
        }
        Ok(delta)
    }

    /// All atom sources of `query`, in atom order (see
    /// [`Database::atom_source`]).
    pub fn atom_sources(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<Vec<&DeltaRelation>, DatabaseError> {
        (0..query.atoms().len())
            .map(|i| self.atom_source(query, i))
            .collect()
    }

    /// All atom relations of `query`, in atom order, renamed to atom variables.
    pub fn atom_relations(&self, query: &ConjunctiveQuery) -> Result<Vec<Relation>, DatabaseError> {
        (0..query.atoms().len())
            .map(|i| self.relation_for_atom(query, i))
            .collect()
    }

    /// Whether a single constraint is satisfied (`D ⊨ {c}`): some guard atom's
    /// relation has degree at most `c.bound`.
    pub fn satisfies_constraint(
        &self,
        query: &ConjunctiveQuery,
        c: &DegreeConstraint,
        constraint_index: usize,
    ) -> Result<bool, DatabaseError> {
        let guards = match c.guard {
            Some(g) => vec![g],
            None => c.candidate_guards(query),
        };
        if guards.is_empty() {
            return Err(DatabaseError::NoGuard {
                constraint: constraint_index,
            });
        }
        for g in guards {
            let rel = self.relation_for_atom(query, g)?;
            let x_names: Vec<&str> = c.x.iter().map(|&v| query.var_name(v)).collect();
            let y_names: Vec<&str> = c.y.iter().map(|&v| query.var_name(v)).collect();
            let deg = rel.max_degree(&x_names, &y_names)?;
            if deg <= c.bound {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Whether the database satisfies every constraint in `dc` (`D ⊨ DC`).
    pub fn satisfies(
        &self,
        query: &ConjunctiveQuery,
        dc: &ConstraintSet,
    ) -> Result<bool, DatabaseError> {
        for (i, c) in dc.iter().enumerate() {
            if !self.satisfies_constraint(query, c, i)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Derive the tightest cardinality constraints this database satisfies for
    /// `query`: one `|R_F| ≤ |R_F(D)|` constraint per atom. This is the standard way
    /// experiments construct the `DC` set in the AGM regime.
    pub fn cardinality_constraints(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<ConstraintSet, DatabaseError> {
        let mut dc = ConstraintSet::new();
        for i in 0..query.atoms().len() {
            let rel = self.relation_for_atom(query, i)?;
            dc.push(
                DegreeConstraint::cardinality(query.atom_var_set(i), rel.len() as u64)
                    .with_guard(i),
            );
        }
        Ok(dc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::examples;
    use wcoj_storage::{Schema, TypedValue};

    fn triangle_db() -> Database {
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_pairs("A", "B", vec![(1, 2), (2, 3), (1, 3)]),
        );
        db.insert(
            "S",
            Relation::from_pairs("B", "C", vec![(2, 3), (3, 1), (3, 4)]),
        );
        db.insert(
            "T",
            Relation::from_pairs("A", "C", vec![(1, 3), (2, 1), (1, 4)]),
        );
        db
    }

    fn live_tuples(db: &Database) -> usize {
        db.relation_names()
            .into_iter()
            .map(|n| db.delta(n).unwrap().len())
            .sum()
    }

    #[test]
    fn basic_accessors() {
        let db = triangle_db();
        assert_eq!(db.num_relations(), 3);
        assert_eq!(live_tuples(&db), 9);
        assert_eq!(db.max_relation_size(), 3);
        // a loaded relation is a log of one clean run: its rows, unchanged
        let r = db.delta("R").unwrap();
        assert_eq!((r.run_ids().len(), r.buffered()), (1, 0));
        assert_eq!(
            r.snapshot().rows(),
            vec![vec![1, 2], vec![1, 3], vec![2, 3]]
        );
        assert!(db.delta("Z").is_none());
        let mut names = db.relation_names();
        names.sort_unstable();
        assert_eq!(names, vec!["R", "S", "T"]);
        // an empty relation is a log with no run
        let mut db = db;
        db.insert("E", Relation::empty(Schema::new(&["A", "B"])));
        assert!(db.delta("E").unwrap().run_ids().is_empty());
        assert_eq!(live_tuples(&db), 9);
    }

    #[test]
    fn nullary_relations_are_refused() {
        let mut db = Database::new();
        assert_eq!(
            db.insert_typed_rows("N", Schema::new(&[]), &[])
                .unwrap_err(),
            DatabaseError::Storage(StorageError::EmptySchema)
        );
        assert_eq!(db.num_relations(), 0, "nothing was stored");
        // the raw loader has no error to return: it panics, as documented
        let raw =
            std::panic::catch_unwind(move || db.insert("N", Relation::empty(Schema::new(&[]))));
        assert!(raw.is_err());
    }

    #[test]
    fn relation_for_atom_renames_positionally() {
        let q = examples::clique(3); // E(X0,X1), E(X0,X2), E(X1,X2)
        let mut db = Database::new();
        db.insert(
            "E",
            Relation::from_pairs("src", "dst", vec![(1, 2), (2, 3)]),
        );
        let r0 = db.relation_for_atom(&q, 0).unwrap();
        assert_eq!(r0.schema().attrs(), &["X0".to_string(), "X1".to_string()]);
        let r2 = db.relation_for_atom(&q, 2).unwrap();
        assert_eq!(r2.schema().attrs(), &["X1".to_string(), "X2".to_string()]);
        assert_eq!(db.atom_relations(&q).unwrap().len(), 3);
    }

    #[test]
    fn missing_relation_and_arity_mismatch() {
        let q = examples::triangle();
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs("A", "B", vec![(1, 2)]));
        assert_eq!(
            db.relation_for_atom(&q, 1).unwrap_err(),
            DatabaseError::MissingRelation("S".to_string())
        );
        db.insert(
            "S",
            Relation::from_rows(Schema::new(&["B", "C", "D"]), vec![vec![1, 2, 3]]),
        );
        assert!(matches!(
            db.relation_for_atom(&q, 1).unwrap_err(),
            DatabaseError::ArityMismatch {
                expected: 2,
                found: 3,
                ..
            }
        ));
    }

    #[test]
    fn satisfies_cardinality_constraints() {
        let q = examples::triangle();
        let db = triangle_db();
        let dc = ConstraintSet::all_cardinalities(&q, &[("R", 3), ("S", 3), ("T", 3)]).unwrap();
        assert!(db.satisfies(&q, &dc).unwrap());
        let too_tight =
            ConstraintSet::all_cardinalities(&q, &[("R", 2), ("S", 3), ("T", 3)]).unwrap();
        assert!(!db.satisfies(&q, &too_tight).unwrap());
    }

    #[test]
    fn satisfies_degree_constraints() {
        let q = examples::triangle();
        let db = triangle_db();
        // deg_R(B | A): A=1 has 2 neighbours, A=2 has 1 -> max 2
        let mut dc = ConstraintSet::new();
        dc.push_named(&q, &["A"], &["B"], 2).unwrap();
        assert!(db.satisfies(&q, &dc).unwrap());
        let mut dc_tight = ConstraintSet::new();
        dc_tight.push_named(&q, &["A"], &["B"], 1).unwrap();
        assert!(!db.satisfies(&q, &dc_tight).unwrap());
    }

    #[test]
    fn no_guard_is_an_error() {
        let q = examples::triangle();
        let db = triangle_db();
        // {A, B, C} is not contained in any atom
        let c = DegreeConstraint::cardinality(vec![0, 1, 2], 100);
        let dc = ConstraintSet::from_constraints(vec![c]);
        assert_eq!(
            db.satisfies(&q, &dc).unwrap_err(),
            DatabaseError::NoGuard { constraint: 0 }
        );
    }

    #[test]
    fn derived_cardinality_constraints_are_satisfied_and_tight() {
        let q = examples::triangle();
        let db = triangle_db();
        let dc = db.cardinality_constraints(&q).unwrap();
        assert_eq!(dc.len(), 3);
        assert!(db.satisfies(&q, &dc).unwrap());
        assert!(dc.iter().all(|c| c.bound == 3));
    }

    #[test]
    fn error_display() {
        let e = DatabaseError::MissingRelation("R".into());
        assert!(e.to_string().contains('R'));
        let e = DatabaseError::NoGuard { constraint: 2 };
        assert!(e.to_string().contains('2'));
        let e: DatabaseError = StorageError::NoJoinAttributes.into();
        assert!(e.to_string().contains("storage"));
        let e: DatabaseError = QueryError::EmptyQuery.into();
        assert!(e.to_string().contains("query"));
        let e = DatabaseError::ArityMismatch {
            atom: "R".into(),
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("arity 3"));
        let e = DatabaseError::VarTypeMismatch {
            var: "B".into(),
            first: "Str[user]".into(),
            conflict: "Int (atom #1 `S`)".into(),
        };
        assert!(e.to_string().contains("Str[user]") && e.to_string().contains('B'));
    }

    fn str_pair_schema(a: &str, b: &str) -> Schema {
        Schema::with_types(&[a, b], &[AttrType::Str, AttrType::Str])
    }

    fn typed_pairs(pairs: &[(&str, &str)]) -> Vec<Vec<TypedValue>> {
        pairs
            .iter()
            .map(|&(a, b)| vec![TypedValue::from(a), TypedValue::from(b)])
            .collect()
    }

    #[test]
    fn typed_rows_share_domain_dictionaries_across_relations() {
        let mut db = Database::new();
        let r = typed_pairs(&[("ann", "bob"), ("bob", "cat")]);
        let s = typed_pairs(&[("bob", "dan"), ("cat", "ann")]);
        db.insert_typed_rows("R", str_pair_schema("A", "B"), &r)
            .unwrap();
        db.insert_typed_rows("S", str_pair_schema("B", "C"), &s)
            .unwrap();
        // A, B, C are separate domains by default, but B is shared across R and S:
        // "bob"/"cat" must have interned once into domain B
        let b = db.dictionary("B").unwrap();
        assert_eq!(b.len(), 2); // bob, cat — interned once, shared by R and S
        assert_eq!(
            b.code("bob"),
            db.dictionary(db.domain_of("B")).unwrap().code("bob")
        );
        // codes in R's B-column and S's B-column agree, so the join is meaningful
        let column_b = |name| {
            db.delta(name)
                .unwrap()
                .snapshot()
                .column_of("B")
                .unwrap()
                .to_vec()
        };
        let (r_b, s_b) = (column_b("R"), column_b("S"));
        assert!(r_b.contains(&b.code("bob").unwrap()));
        assert!(s_b.contains(&b.code("bob").unwrap()));
        // arity-checked
        assert!(db
            .insert_typed_rows("T", str_pair_schema("A", "C"), &[vec!["x".into()]])
            .is_err());
    }

    #[test]
    fn domain_override_unifies_attribute_names() {
        let mut db = Database::new();
        db.set_domain("src", "user");
        db.set_domain("dst", "user");
        assert_eq!(db.domain_of("src"), "user");
        assert_eq!(db.domain_of("other"), "other");
        let e = typed_pairs(&[("ann", "bob"), ("bob", "ann")]);
        db.insert_typed_rows("E", str_pair_schema("src", "dst"), &e)
            .unwrap();
        let user = db.dictionary("user").unwrap();
        assert_eq!(user.len(), 2);
        assert!(db.dictionary("src").is_none());
        // both columns carry the same code space
        let rel = db.delta("E").unwrap().snapshot();
        let ann = user.code("ann").unwrap();
        assert!(rel.column_of("src").unwrap().contains(&ann));
        assert!(rel.column_of("dst").unwrap().contains(&ann));
    }

    #[test]
    fn var_bindings_validate_types_and_domains() {
        let q = examples::triangle(); // R(A,B), S(B,C), T(A,C)
        let mut db = Database::new();
        db.insert_typed_rows("R", str_pair_schema("A", "B"), &typed_pairs(&[("x", "y")]))
            .unwrap();
        db.insert_typed_rows("S", str_pair_schema("B", "C"), &typed_pairs(&[("y", "z")]))
            .unwrap();
        db.insert_typed_rows("T", str_pair_schema("A", "C"), &typed_pairs(&[("x", "z")]))
            .unwrap();
        let bindings = db.var_bindings(&q).unwrap();
        assert_eq!(bindings.len(), 3);
        assert!(bindings
            .iter()
            .all(|b| b.ty == AttrType::Str && b.domain.is_some()));
        assert_eq!(bindings[1].domain.as_deref(), Some("B"));

        // rebind S with an Int B-column: variable B now disagrees across atoms
        db.insert("S", Relation::from_pairs("B", "C", vec![(1, 2)]));
        assert!(matches!(
            db.var_bindings(&q).unwrap_err(),
            DatabaseError::VarTypeMismatch { .. }
        ));
    }

    #[test]
    fn late_domain_remap_cannot_fool_var_bindings() {
        // load E(src,dst) WITHOUT a domain override: src and dst intern into
        // separate dictionaries; remapping the domains afterwards must not make
        // the already-loaded codes look unified
        let q = examples::clique(3);
        let mut db = Database::new();
        db.insert_typed_rows(
            "E",
            str_pair_schema("src", "dst"),
            &typed_pairs(&[("a", "b"), ("b", "a")]),
        )
        .unwrap();
        db.set_domain("src", "user");
        db.set_domain("dst", "user");
        // the load-time record (src / dst) wins over the current mapping
        assert!(matches!(
            db.var_bindings(&q).unwrap_err(),
            DatabaseError::VarTypeMismatch { .. }
        ));
        // a RELOAD under the new mapping is unified (and re-validated)
        db.insert_typed_rows(
            "E",
            str_pair_schema("src", "dst"),
            &typed_pairs(&[("a", "b"), ("b", "a")]),
        )
        .unwrap();
        assert!(db.var_bindings(&q).is_ok());
        // a raw insert drops the load record: bind-time domains apply again
        db.insert("E", Relation::from_pairs("src", "dst", vec![(0, 1)]));
        assert!(db.var_bindings(&q).is_ok()); // Int columns, no domains involved
    }

    #[test]
    fn failed_loads_leave_shared_dictionaries_untouched() {
        let mut db = Database::new();
        let schema = Schema::with_types(&["name", "age"], &[AttrType::Str, AttrType::Int]);
        // second column's kind is wrong: nothing may reach the `name` dictionary
        let bad = vec![vec![TypedValue::from("ann"), TypedValue::from("oops")]];
        assert!(matches!(
            db.insert_typed_rows("P", schema.clone(), &bad).unwrap_err(),
            DatabaseError::Storage(StorageError::TypeMismatch { .. })
        ));
        assert!(db.dictionary("name").is_none());
        assert!(db.delta("P").is_none());
    }

    #[test]
    fn delta_routing_converts_and_applies_ops() {
        let q = examples::triangle();
        let mut db = triangle_db();
        // unknown names fail cleanly
        assert!(matches!(
            db.insert_delta("Z", vec![1, 2]).unwrap_err(),
            DatabaseError::MissingRelation(_)
        ));
        // delta ops append to the loaded relation's log (its rows are the base run)
        assert!(db.insert_delta("R", vec![9, 9]).unwrap());
        assert!(!db.insert_delta("R", vec![1, 2]).unwrap()); // base row is live
        assert!(db.delete("R", &[1, 2]).unwrap());
        assert_eq!(db.delta("R").unwrap().len(), 3);
        assert_eq!(db.delta("R").unwrap().buffered(), 2);
        assert_eq!(db.num_relations(), 3);
        assert_eq!(live_tuples(&db), 9);
        assert!(db.relation_names().contains(&"R"));
        // sizes and schemas flow without materializing
        assert_eq!(db.atom_size(&q, 0).unwrap(), 3);
        assert!(db.var_bindings(&q).is_ok());
        // the materialized view applies the ops
        let r = db.relation_for_atom(&q, 0).unwrap();
        assert_eq!(r.rows(), vec![vec![1, 3], vec![2, 3], vec![9, 9]]);
        assert_eq!(r.schema().attrs(), &["A".to_string(), "B".to_string()]);
        // atom sources expose the live log, arity-checked
        assert_eq!(db.atom_source(&q, 0).unwrap().buffered(), 2);
        assert_eq!(db.atom_source(&q, 1).unwrap().run_ids().len(), 1);
        // a seal merges the buffer into the one run
        db.seal("R").unwrap();
        assert_eq!(db.delta("R").unwrap().run_ids().len(), 1);
        assert_eq!(db.delta("R").unwrap().buffered(), 0);
        // raw insert replaces the log
        db.insert("R", Relation::from_pairs("A", "B", vec![(7, 7)]));
        assert_eq!(db.delta("R").unwrap().snapshot().rows(), vec![vec![7, 7]]);
    }

    #[test]
    fn relation_epochs_track_rebinding() {
        let mut db = triangle_db();
        let e0 = db.relation_epoch("R").unwrap();
        assert_ne!(
            db.relation_epoch("S"),
            Some(e0),
            "epochs are unique per log"
        );
        assert_eq!(db.relation_epoch("nope"), None);
        // replacement under the same name takes a fresh epoch
        db.insert("R", Relation::from_pairs("A", "B", vec![(7, 7)]));
        let e1 = db.relation_epoch("R").unwrap();
        assert_ne!(e1, e0);
        // clones keep the epoch (identical content), divergence refreshes it
        let mut clone = db.clone();
        assert_eq!(clone.relation_epoch("R"), Some(e1));
        clone.insert("R", Relation::from_pairs("A", "B", vec![(8, 8)]));
        assert_ne!(clone.relation_epoch("R"), Some(e1));
        assert_eq!(db.relation_epoch("R"), Some(e1));
        // a write to a shared log copies it: the clone's stays as it was
        let clone = db.clone();
        db.insert_delta("R", vec![9, 9]).unwrap();
        assert_ne!(db.relation_epoch("R"), Some(e1));
        assert_eq!(clone.relation_epoch("R"), Some(e1));
        assert_eq!(clone.delta("R").unwrap().len(), 1);
        // the cumulative cache counters are shared across clones
        assert!(std::ptr::eq(db.cache_counters(), clone.cache_counters()));
    }

    #[test]
    fn rejected_delta_batch_leaves_the_log_untouched() {
        let mut db = Database::new();
        db.insert_typed_rows("R", str_pair_schema("A", "B"), &typed_pairs(&[("x", "y")]))
            .unwrap();
        let epoch = db.relation_epoch("R");
        // a seal of a log with nothing buffered changes nothing
        db.seal("R").unwrap();
        assert_eq!(db.relation_epoch("R"), epoch);
        assert_eq!(db.delta("R").unwrap().run_ids().len(), 1);
        assert!(matches!(
            db.seal("Z").unwrap_err(),
            DatabaseError::MissingRelation(_)
        ));
    }

    #[test]
    fn var_bindings_catch_domain_splits_on_self_joins() {
        // clique(3) over E(src,dst): without a domain override, src and dst are
        // different dictionaries and the self-join is rejected
        let q = examples::clique(3);
        let mut db = Database::new();
        db.insert_typed_rows(
            "E",
            str_pair_schema("src", "dst"),
            &typed_pairs(&[("a", "b")]),
        )
        .unwrap();
        assert!(matches!(
            db.var_bindings(&q).unwrap_err(),
            DatabaseError::VarTypeMismatch { .. }
        ));

        // with src/dst mapped onto one domain, the same data binds cleanly
        let mut db2 = Database::new();
        db2.set_domain("src", "node");
        db2.set_domain("dst", "node");
        db2.insert_typed_rows(
            "E",
            str_pair_schema("src", "dst"),
            &typed_pairs(&[("a", "b")]),
        )
        .unwrap();
        let bindings = db2.var_bindings(&q).unwrap();
        assert!(bindings.iter().all(|b| b.domain.as_deref() == Some("node")));
        // pre-encoded u64 databases bind as Int with no domain
        let db3 = triangle_db();
        let bindings = db3.var_bindings(&examples::triangle()).unwrap();
        assert!(bindings
            .iter()
            .all(|b| b.ty == AttrType::Int && b.domain.is_none()));
    }
}
