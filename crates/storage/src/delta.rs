//! Incremental maintenance: delta-log relations, read as one folded trie.
//!
//! A [`crate::Trie`] is built over an immutable, canonically sorted
//! [`Relation`] — and [`Relation::insert`] pays O(n) per tuple to keep that
//! order. This module is the LSM-style storage layout that makes the engines'
//! worst-case-optimal guarantees usable over a *live, continuously-ingesting*
//! database, and it is the one way a catalog stores a relation: a loaded
//! relation is a log of one sealed run ([`DeltaRelation::from_relation`]).
//!
//! * a [`DeltaRelation`] is a **base run + ordered delta runs** — each run an
//!   immutable, sorted, canonicalized mini-relation whose rows carry a sign
//!   (+1 insert, −1 **tombstone** for a delete) — plus an unsorted **append
//!   buffer** in arrival order;
//! * [`DeltaRelation::insert`] / [`DeltaRelation::delete`] append to the buffer
//!   after an O(arity)-expected liveness probe of an incrementally-maintained
//!   live-tuple hash index (which keeps each tuple's history an alternating +/−
//!   sequence — the invariant that makes signed merging exact — at the price
//!   of one extra copy of each live tuple; unary/binary tuples pack into
//!   `u128` keys there). The buffer is columnar at every arity — one column
//!   per attribute plus one sign per op — so an append allocates nothing of
//!   its own. When the buffer reaches the seal threshold it is **sealed**:
//!   collapsed into a new sorted run by the one signed collapse, followed by
//!   **size-tiered compaction** (adjacent runs of comparable size merge in
//!   linear two-pointer passes, the one run merge); [`DeltaRelation::compact`]
//!   merges everything back into a single tombstone-free base;
//! * query-side, a log is read as **one tombstone-free run**: its sealed runs
//!   folded by the same run merge ([`DeltaRelation::fold`]), memoized in the
//!   log for its current run list and dropped whenever a seal, a tier merge or
//!   a compaction changes that list — a log of one run folds to that run, id
//!   included — with a non-empty unsealed buffer collapsed and merged into it
//!   per query ([`DeltaRelation::live_run`]). Either way the result is a plain
//!   canonical relation and [`Run::trie`] the one trie builder over it, set
//!   layouts included: the sorted set of values extending a prefix exists
//!   *before* the join, as Generic Join and Leapfrog Triejoin assume
//!   (Section 2), and a query over a log runs the static path on its
//!   snapshot, bit for bit, work counters included.
//!
//! # Cost model
//!
//! | operation | full rebuild ([`Relation`]) | delta log |
//! | --- | --- | --- |
//! | single insert/delete | O(n) shift | O(arity) expected + amortized O(log B) seal sort |
//! | seal (per `B` buffered ops) | — | O(B log B) |
//! | compaction (amortized per op) | — | O(log(n/B)) linear merge touches |
//! | extra memory | — | live-tuple hash index (packed `u128`s for arity ≤ 2), plus the fold of a log of several runs |
//! | fold (once per run list) | — | linear merges over the runs, newest pair first |
//! | access-structure build | O(n log n) argsort + scan | the same builder over the fold, once per order and run list, cached; identity orders skip the argsort |
//! | query with `B` ops buffered | — | O(B log B) collapse + one O(n) merge into the fold + the build, per relation and order |
//! | cursor `open` of a prefix | one `child_start` lookup | the same: the fold's trie is a trie |
//! | query result | — | **bit-identical**, rows and work counters, to rebuilding from [`DeltaRelation::snapshot`] |
//!
//! The alternating-history invariant (each live tuple contributes net +1
//! across its history, each dead tuple net 0) is what makes a merge of signed
//! runs exact: two rows of one tuple annihilate, and the merge of a log's
//! whole history — its fold — holds exactly the live tuples, each once, with
//! no tombstone left.

use crate::error::StorageError;
use crate::fxhash::FxHasher;
use crate::relation::{argsort_columns, is_canonical, Relation, Tuple};
use crate::schema::Schema;
use crate::trie::Trie;
use crate::wal::PayloadReader;
use crate::Value;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, OnceLock};

/// The live-tuple membership index: one entry per live tuple, maintained
/// incrementally by `insert`/`delete` (hashed with the in-tree [`FxHasher`];
/// the keys are dense codes). This is the LSM "memtable filter" that makes the
/// per-operation liveness check O(arity) expected instead of O(runs · log n)
/// binary searches — at the cost of one extra copy of each live tuple. Unary
/// and binary tuples (the streaming graph case) pack into `u128` keys, so the
/// hot ingest path neither allocates nor hashes a heap tuple.
#[derive(Debug, Clone)]
enum LiveSet {
    /// Arity ≤ 2: tuples packed as `(t[0] << 64) | t[1]` (resp. `t[0]`).
    Packed(std::collections::HashSet<u128, BuildHasherDefault<FxHasher>>),
    /// Arity ≥ 3: owned tuples.
    General(std::collections::HashSet<Tuple, BuildHasherDefault<FxHasher>>),
}

/// Pack an arity-≤-2 tuple into its order-preserving `u128` key.
#[inline]
fn pack2(tuple: &[Value]) -> u128 {
    match tuple {
        [a] => *a as u128,
        [a, b] => ((*a as u128) << 64) | *b as u128,
        _ => unreachable!("packed keys are for arity <= 2"),
    }
}

impl LiveSet {
    fn for_arity(arity: usize) -> LiveSet {
        if arity <= 2 {
            LiveSet::Packed(Default::default())
        } else {
            LiveSet::General(Default::default())
        }
    }

    fn len(&self) -> usize {
        match self {
            LiveSet::Packed(s) => s.len(),
            LiveSet::General(s) => s.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn contains(&self, tuple: &[Value]) -> bool {
        match self {
            LiveSet::Packed(s) => s.contains(&pack2(tuple)),
            LiveSet::General(s) => s.contains(tuple),
        }
    }

    /// Returns whether the tuple was newly added.
    fn insert(&mut self, tuple: &[Value]) -> bool {
        match self {
            LiveSet::Packed(s) => s.insert(pack2(tuple)),
            LiveSet::General(s) => s.insert(tuple.to_vec()),
        }
    }

    /// Returns whether the tuple was present.
    fn remove(&mut self, tuple: &[Value]) -> bool {
        match self {
            LiveSet::Packed(s) => s.remove(&pack2(tuple)),
            LiveSet::General(s) => s.remove(tuple),
        }
    }
}

/// Buffered operations before an automatic [`DeltaRelation::seal`].
pub const DEFAULT_SEAL_THRESHOLD: usize = 1024;

/// Size-tiering growth factor: a freshly sealed run merges into its predecessor
/// while the predecessor is smaller than `GROWTH` times the new run.
const GROWTH: usize = 2;

/// One immutable sorted run of a [`DeltaRelation`]: a canonical mini-relation
/// plus one sign per row. Opaque outside this module except as a build input:
/// the execution layer fetches or builds [`Run::trie`] of a log's fold, and
/// the access cache holds a `Weak` to the fold so the entry dies with it.
/// Cloning a run is cheap — its rows and signs are shared — and keeps its id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Process-unique identity stamp ([`crate::cache::next_stamp`]): runs are
    /// immutable, so equal ids imply identical content — the stamp of the
    /// access-structure cache's key for a fold's tries.
    id: u64,
    /// The run's rows: sorted, distinct tuples (each tuple occurs at most once
    /// per run, with its net sign).
    rel: Arc<Relation>,
    /// Per row: whether it is a tombstone (sign −1) rather than an insert (+1).
    dead: Arc<[bool]>,
}

impl Run {
    /// A run of pure inserts (the base-run shape).
    fn all_insert(rel: Relation) -> Run {
        Run {
            id: crate::cache::next_stamp(),
            dead: vec![false; rel.len()].into(),
            rel: Arc::new(rel),
        }
    }

    /// Build a run from canonical columns plus per-row net signs.
    fn from_parts(schema: Schema, cols: Vec<Vec<Value>>, signs: &[i64]) -> Run {
        let rel = Relation::from_canonical_columns(schema, cols);
        debug_assert_eq!(rel.len(), signs.len());
        debug_assert!(signs.iter().all(|&s| s == 1 || s == -1));
        Run {
            id: crate::cache::next_stamp(),
            rel: Arc::new(rel),
            dead: signs.iter().map(|&s| s < 0).collect(),
        }
    }

    /// The run's identity stamp ([`DeltaRelation::run_ids`]; a one-run log's
    /// fold keeps its run's).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Rows in the run — the rebuild-cost proxy for cache eviction priorities.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Whether the run has no rows (a sealed run never is).
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// The run's access structure for the column order `positions`: the one
    /// trie builder over the run's rows. Queries read tombstone-free runs only
    /// — a log's fold, or the fold with its buffer merged in
    /// ([`DeltaRelation::live_run`]) — whose rows are all live.
    pub fn trie(&self, positions: &[usize]) -> Result<Trie, StorageError> {
        debug_assert_eq!(self.tombstones(), 0, "a run with tombstones is no set");
        Trie::build_positions(&self.rel, positions)
    }

    /// The sign of row `i` (+1 insert, −1 tombstone).
    fn sign(&self, i: usize) -> i64 {
        1 - 2 * self.dead[i] as i64
    }

    /// Number of tombstone rows.
    fn tombstones(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }
}

/// Sort the rows of column-major `cols` (with parallel `signs`) lexicographically
/// and collapse equal-tuple groups to their net sign, dropping net-zero groups.
/// Concatenated runs keep chronological order within a group (the argsort breaks
/// ties by row index), though the net sum does not depend on it. Returns
/// canonical (sorted, distinct) columns plus per-row net signs — always ±1 under
/// the alternating-history invariant.
fn collapse_signed(cols: &[Vec<Value>], signs: &[i64]) -> (Vec<Vec<Value>>, Vec<i64>) {
    let len = signs.len();
    let positions: Vec<usize> = (0..cols.len()).collect();
    let perm = argsort_columns(cols, &positions, len);
    let mut out_cols: Vec<Vec<Value>> = vec![Vec::new(); cols.len()];
    let mut out_signs = Vec::new();
    let mut i = 0;
    while i < len {
        let a = perm[i];
        let mut net = signs[a];
        let mut j = i + 1;
        while j < len && cols.iter().all(|c| c[perm[j]] == c[a]) {
            net += signs[perm[j]];
            j += 1;
        }
        debug_assert!(
            (-1..=1).contains(&net),
            "a tuple's +/− history must alternate"
        );
        if net != 0 {
            for (col, src) in out_cols.iter_mut().zip(cols) {
                col.push(src[a]);
            }
            out_signs.push(net);
        }
        i = j;
    }
    (out_cols, out_signs)
}

/// Linear two-pointer merge of two sorted runs (`a` older, `b` newer): rows in
/// exactly one run pass through with their sign; rows in both annihilate to
/// their net (0 drops the tuple — under the alternating-history invariant the
/// signs are opposite). O(|a| + |b|), the serial tier-merge primitive.
fn merge_two(a: &Run, b: &Run) -> (Vec<Vec<Value>>, Vec<i64>) {
    use std::cmp::Ordering;
    let arity = a.rel.arity();
    let (an, bn) = (a.len(), b.len());
    let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(an + bn)).collect();
    let mut signs: Vec<i64> = Vec::with_capacity(an + bn);
    let cmp = |i: usize, j: usize| -> Ordering {
        for c in 0..arity {
            match a.rel.column(c)[i].cmp(&b.rel.column(c)[j]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < an && j < bn {
        match cmp(i, j) {
            Ordering::Less => {
                for (c, col) in cols.iter_mut().enumerate() {
                    col.push(a.rel.column(c)[i]);
                }
                signs.push(a.sign(i));
                i += 1;
            }
            Ordering::Greater => {
                for (c, col) in cols.iter_mut().enumerate() {
                    col.push(b.rel.column(c)[j]);
                }
                signs.push(b.sign(j));
                j += 1;
            }
            Ordering::Equal => {
                let net = a.sign(i) + b.sign(j);
                debug_assert_eq!(net, 0, "a tuple's +/− history must alternate");
                if net != 0 {
                    for (c, col) in cols.iter_mut().enumerate() {
                        col.push(a.rel.column(c)[i]);
                    }
                    signs.push(net.signum());
                }
                i += 1;
                j += 1;
            }
        }
    }
    while i < an {
        for (c, col) in cols.iter_mut().enumerate() {
            col.push(a.rel.column(c)[i]);
        }
        signs.push(a.sign(i));
        i += 1;
    }
    while j < bn {
        for (c, col) in cols.iter_mut().enumerate() {
            col.push(b.rel.column(c)[j]);
        }
        signs.push(b.sign(j));
        j += 1;
    }
    (cols, signs)
}

/// Merge `runs[start..]` into at most one run by [`merge_two`], newest pair
/// first — the cheapest order under tiered sizes; a pair that annihilates
/// leaves nothing behind. Returns the rows the merges wrote.
fn merge_from(schema: &Schema, runs: &mut Vec<Arc<Run>>, start: usize) -> usize {
    let mut written = 0;
    while let [.., a, b] = &runs[start..] {
        let (cols, signs) = merge_two(a, b);
        written += signs.len();
        runs.truncate(runs.len() - 2);
        if !signs.is_empty() {
            runs.push(Arc::new(Run::from_parts(schema.clone(), cols, &signs)));
        }
    }
    written
}

/// A relation stored as a delta log: base run + ordered delta runs + append
/// buffer. See the [module docs](crate::delta) for the layout and cost model.
///
/// Runs are immutable and `Arc`-shared, and the live-tuple index is
/// copy-on-write, so **cloning is cheap**: O(runs) refcount bumps plus one
/// copy of the (threshold-bounded) append buffer. That is what MVCC snapshots
/// (`wcoj_query`'s `Database::snapshot`) pin — a clone freezes the
/// `(base, sealed-run-list, buffer)` state by refcount while the original
/// keeps ingesting; the first post-clone `insert`/`delete` pays a one-time
/// O(live) copy of the shared live-tuple index. Clones that list the same
/// runs share one memoized fold.
#[derive(Debug, Clone)]
pub struct DeltaRelation {
    schema: Schema,
    /// `runs[0]` is the oldest (the base after a [`DeltaRelation::compact`])
    /// and never carries a tombstone; later runs are newer and shadow earlier
    /// ones by their signs. `Arc`-shared: snapshot clones pin runs by
    /// refcount, never by copying.
    runs: Vec<Arc<Run>>,
    /// The memoized [`DeltaRelation::fold`] of `runs`, computed on the first
    /// read: shared by the clones that list the same runs, and replaced by an
    /// empty cell whenever the list changes.
    fold: Arc<OnceLock<Arc<Run>>>,
    /// Unsealed operations in arrival order, one column per attribute...
    buffer: Vec<Vec<Value>>,
    /// ...and one sign per operation (+1 insert, −1 tombstone).
    buffer_signs: Vec<i64>,
    /// Exactly the live tuples, maintained incrementally — O(1) liveness and
    /// the alternating-history guard, without per-op run searches.
    /// Copy-on-write (`Arc::make_mut`): queries never read it beyond `len()`,
    /// so snapshot clones share it until the writer's next mutation.
    live_set: Arc<LiveSet>,
    seal_threshold: usize,
    /// Modification epoch: a fresh process-unique stamp
    /// ([`crate::cache::next_stamp`]) on every mutation, so equal epochs imply
    /// identical visible state — what compare-and-set writers validate
    /// against. (The access-structure cache never reads it: it keys by run.)
    epoch: u64,
    /// [`DeltaRelation::values_written`]; not part of the state codec.
    values_written: u64,
}

impl DeltaRelation {
    /// An empty delta relation with the given schema. Panics on a zero-arity
    /// schema (use [`DeltaRelation::try_new`] for a fallible version).
    pub fn new(schema: Schema) -> Self {
        Self::try_new(schema).expect("delta relations need at least one column")
    }

    /// An empty delta relation with the given schema, rejecting zero-arity
    /// schemas with [`StorageError::EmptySchema`].
    pub fn try_new(schema: Schema) -> Result<Self, StorageError> {
        if schema.arity() == 0 {
            return Err(StorageError::EmptySchema);
        }
        let live_set = Arc::new(LiveSet::for_arity(schema.arity()));
        Ok(DeltaRelation {
            buffer: vec![Vec::new(); schema.arity()],
            buffer_signs: Vec::new(),
            schema,
            runs: Vec::new(),
            fold: Arc::default(),
            live_set,
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            epoch: crate::cache::next_stamp(),
            values_written: 0,
        })
    }

    /// Wrap an existing relation as the base run of a new delta log. Panics on
    /// a zero-arity relation (use [`DeltaRelation::try_from_relation`]).
    pub fn from_relation(rel: Relation) -> Self {
        Self::try_from_relation(rel).expect("delta relations need at least one column")
    }

    /// Wrap an existing relation as the base run of a new delta log (an empty
    /// relation is a log with no run), rejecting zero-arity relations with
    /// [`StorageError::EmptySchema`]. This is how every loaded relation is
    /// stored, so the live set is filled straight from the columns: packed
    /// keys for arity ≤ 2, one tuple per row only above that.
    pub fn try_from_relation(rel: Relation) -> Result<Self, StorageError> {
        if rel.arity() == 0 {
            return Err(StorageError::EmptySchema);
        }
        let schema = rel.schema().clone();
        let live_set = match rel.columns() {
            [a] => LiveSet::Packed(a.iter().map(|&x| pack2(&[x])).collect()),
            [a, b] => LiveSet::Packed(a.iter().zip(b).map(|(&x, &y)| pack2(&[x, y])).collect()),
            _ => LiveSet::General(rel.iter().collect()),
        };
        let runs = if rel.is_empty() {
            Vec::new()
        } else {
            vec![Arc::new(Run::all_insert(rel))]
        };
        Ok(DeltaRelation {
            buffer: vec![Vec::new(); schema.arity()],
            buffer_signs: Vec::new(),
            schema,
            runs,
            fold: Arc::default(),
            live_set: Arc::new(live_set),
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            epoch: crate::cache::next_stamp(),
            values_written: 0,
        })
    }

    /// Take a fresh epoch stamp; called on every visible mutation (ingest,
    /// seal, tier merge). Over-stamping is harmless — a changed epoch only
    /// makes an optimistic writer retry.
    fn touch(&mut self) {
        self.epoch = crate::cache::next_stamp();
    }

    /// The modification epoch: refreshed from the process-global stamp source
    /// on every mutation. Because stamps are process-unique, **equal epochs
    /// imply identical visible state**, even across clones of the log; an
    /// unequal epoch says nothing more than "something was written" — the
    /// optimistic-concurrency check of `Database::relation_epoch`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Values this log has written since it was created (a clone carries the
    /// count on): `arity` per buffered operation, plus `arity` per row that a
    /// seal, a tier merge or a compaction writes into a run. The ingest cost
    /// `core/tests/delta.rs` compares with sorted rows' shifted values.
    pub fn values_written(&self) -> u64 {
        self.values_written
    }

    /// The sealed runs' unique identity stamps, oldest first. Runs are
    /// immutable, so an id names one run's content for as long as the process
    /// lives: a seal appends an id, a tier merge or compaction replaces the
    /// ids of the runs it rewrote with one fresh id, and clones of the log
    /// (snapshots) keep the ids of the runs they share.
    pub fn run_ids(&self) -> Vec<u64> {
        self.runs.iter().map(|r| r.id).collect()
    }

    /// The sealed runs folded into one tombstone-free run — the live tuples
    /// as of the last seal — or `None` for a log with no sealed run. The runs
    /// merge newest pair first, once per run list: the fold is memoized in the
    /// log (and its clones that list the same runs) until a seal, a tier merge
    /// or a compaction changes the list. A log of one run folds to that run,
    /// its id included, behind a handle of the log's own: an access-cache
    /// entry keyed by the fold dies once no log holds the fold, not when the
    /// run is finally merged away.
    pub fn fold(&self) -> Option<Arc<Run>> {
        if self.runs.is_empty() {
            return None;
        }
        let fold = self.fold.get_or_init(|| {
            let mut runs = self.runs.clone();
            merge_from(&self.schema, &mut runs, 0);
            let run = runs
                .pop()
                .map_or_else(|| self.empty_run(), |run| Run::clone(&run));
            debug_assert_eq!(
                run.tombstones(),
                0,
                "a full history nets to its live tuples"
            );
            Arc::new(run)
        });
        Some(Arc::clone(fold))
    }

    /// The live tuples as one tombstone-free run — what a query reads: the
    /// [`DeltaRelation::fold`] when nothing is buffered, else the unsealed
    /// buffer collapsed and merged into it, a fresh run per call (the log is
    /// not touched — queries take `&DeltaRelation`). A log with neither is an
    /// empty run.
    pub fn live_run(&self) -> Arc<Run> {
        let fold = self.fold();
        if self.buffer_signs.is_empty() {
            return fold.unwrap_or_else(|| Arc::new(self.empty_run()));
        }
        let (cols, signs) = collapse_signed(&self.buffer, &self.buffer_signs);
        let buffered = Run::from_parts(self.schema.clone(), cols, &signs);
        let Some(fold) = fold else {
            // with no run, a buffered delete can only cancel a buffered insert
            return Arc::new(buffered);
        };
        let (cols, signs) = merge_two(&fold, &buffered);
        debug_assert!(
            signs.iter().all(|&s| s > 0),
            "full-history nets are 0 or +1"
        );
        Arc::new(Run::from_parts(self.schema.clone(), cols, &signs))
    }

    /// A run of no rows in this log's schema.
    fn empty_run(&self) -> Run {
        Run::all_insert(Relation::empty(self.schema.clone()))
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Arity (number of attributes).
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of **live** tuples (inserts minus effective deletes).
    pub fn len(&self) -> usize {
        self.live_set.len()
    }

    /// Whether no tuple is live.
    pub fn is_empty(&self) -> bool {
        self.live_set.is_empty()
    }

    /// Number of sealed runs (the delta depth a fold merges over).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Sizes of the sealed runs, oldest first.
    pub fn run_sizes(&self) -> Vec<usize> {
        self.runs.iter().map(|r| r.len()).collect()
    }

    /// Number of buffered (unsealed) operations.
    pub fn buffered(&self) -> usize {
        self.buffer_signs.len()
    }

    /// Total tombstone rows across the sealed runs.
    pub fn tombstones(&self) -> usize {
        self.runs.iter().map(|r| r.tombstones()).sum()
    }

    /// Override the automatic seal threshold (buffered operations before
    /// [`DeltaRelation::seal`] runs implicitly). Lower values mean more, smaller
    /// runs — useful for testing deep run stacks.
    pub fn set_seal_threshold(&mut self, threshold: usize) {
        self.seal_threshold = threshold.max(1);
    }

    /// Whether `tuple` is currently live. O(arity) expected — one probe of the
    /// live-tuple membership index.
    pub fn is_live(&self, tuple: &[Value]) -> bool {
        tuple.len() == self.arity() && self.live_set.contains(tuple)
    }

    fn check_arity(&self, found: usize) -> Result<(), StorageError> {
        if found != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                found,
            });
        }
        Ok(())
    }

    /// Insert a tuple. Returns whether it was newly inserted (`false` if already
    /// live). Amortized O(arity) expected per call: one membership-index update
    /// plus a buffer append, with each operation's share of the seal sort
    /// (O(log B)) and its O(log(n/B)) lifetime tier merges. For unary/binary
    /// relations the whole path is allocation-free (see [`DeltaRelation::insert_ref`]).
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool, StorageError> {
        self.insert_ref(&tuple)
    }

    /// [`DeltaRelation::insert`] from a borrowed tuple — the zero-copy ingest
    /// entry: for arity ≤ 2 the tuple is packed into integer keys and never
    /// heap-allocated.
    pub fn insert_ref(&mut self, tuple: &[Value]) -> Result<bool, StorageError> {
        self.check_arity(tuple.len())?;
        if Arc::strong_count(&self.live_set) > 1 && self.live_set.contains(tuple) {
            return Ok(false); // no-op while snapshot-shared: skip the copy-on-write
        }
        if !Arc::make_mut(&mut self.live_set).insert(tuple) {
            return Ok(false); // already live: blind re-insert is a no-op
        }
        self.push_op(tuple, 1);
        self.values_written += tuple.len() as u64;
        self.touch();
        self.maybe_seal();
        Ok(true)
    }

    /// Delete a tuple (a tombstone append). Returns whether it was live. Same
    /// amortized cost as [`DeltaRelation::insert`].
    pub fn delete(&mut self, tuple: &[Value]) -> Result<bool, StorageError> {
        self.check_arity(tuple.len())?;
        if Arc::strong_count(&self.live_set) > 1 && !self.live_set.contains(tuple) {
            return Ok(false); // no-op while snapshot-shared: skip the copy-on-write
        }
        if !Arc::make_mut(&mut self.live_set).remove(tuple) {
            return Ok(false); // not live: blind delete is a no-op
        }
        self.push_op(tuple, -1);
        self.values_written += tuple.len() as u64;
        self.touch();
        self.maybe_seal();
        Ok(true)
    }

    /// Append one operation to the buffer, in arrival order.
    fn push_op(&mut self, tuple: &[Value], sign: i64) {
        for (col, &v) in self.buffer.iter_mut().zip(tuple) {
            col.push(v);
        }
        self.buffer_signs.push(sign);
    }

    fn maybe_seal(&mut self) {
        if self.buffered() >= self.seal_threshold {
            self.seal();
        }
    }

    /// Seal the append buffer into a new sorted run, then apply size-tiered
    /// compaction: while the previous run is smaller than twice the newest, the
    /// two merge (annihilating matched insert/tombstone pairs).
    ///
    /// Sealing an **empty** buffer is a complete no-op: no run is pushed, the
    /// epoch is not bumped, and — because the run list is untouched — every
    /// cached run trie keeps hitting. The tiering invariant is
    /// re-established by the seals that actually add runs.
    pub fn seal(&mut self) {
        if self.buffer_signs.is_empty() {
            return;
        }
        let (cols, signs) = collapse_signed(&self.buffer, &self.buffer_signs);
        self.buffer.iter_mut().for_each(Vec::clear);
        self.buffer_signs.clear();
        self.touch();
        self.values_written += (signs.len() * self.arity()) as u64;
        if !signs.is_empty() {
            self.runs
                .push(Arc::new(Run::from_parts(self.schema.clone(), cols, &signs)));
            self.fold = Arc::default();
        }
        while self.runs.len() >= 2
            && self.runs[self.runs.len() - 2].len() < GROWTH * self.runs[self.runs.len() - 1].len()
        {
            self.merge_tail(self.runs.len() - 2);
        }
    }

    /// Serialize the log's full state — run partitioning, per-row signs,
    /// unsealed buffer (arrival order), seal threshold — as an opaque blob for
    /// a WAL checkpoint. [`DeltaRelation::decode_state`] reconstructs a log
    /// that is **bit-exact** for recovery: same run sizes, same tombstones,
    /// same buffered ops, so replaying the same WAL tail yields the same seal
    /// and tier-merge decisions as the original process would have made.
    /// (Run ids and the epoch are process-local identities and are *not*
    /// persisted; decode mints fresh ones.)
    pub fn encode_state(&self) -> Vec<u8> {
        let arity = self.arity();
        let mut out = Vec::new();
        out.extend_from_slice(&(self.seal_threshold as u64).to_le_bytes());
        out.extend_from_slice(&(self.runs.len() as u32).to_le_bytes());
        for run in &self.runs {
            let rows = run.len();
            out.extend_from_slice(&(rows as u64).to_le_bytes());
            for c in 0..arity {
                for &v in run.rel.column(c) {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            out.extend(run.dead.iter().map(|&d| !d as u8));
        }
        out.extend_from_slice(&(self.buffered() as u64).to_le_bytes());
        for (i, &sign) in self.buffer_signs.iter().enumerate() {
            out.push(if sign == 1 { 1 } else { 0 });
            for col in &self.buffer {
                out.extend_from_slice(&col[i].to_le_bytes());
            }
        }
        out
    }

    /// Reconstruct a delta log from [`DeltaRelation::encode_state`] bytes. The
    /// live-tuple index is rebuilt by replaying the runs (oldest first) and
    /// then the buffer in arrival order — tombstones in newer runs cancel
    /// inserts in older ones exactly as they did live. Fails with
    /// [`StorageError::WalCorrupt`] on any truncation or malformed content
    /// (a CRC-valid checkpoint should never produce this; it guards against
    /// version skew).
    pub fn decode_state(schema: Schema, bytes: &[u8]) -> Result<DeltaRelation, StorageError> {
        let mut log = DeltaRelation::try_new(schema)?;
        let mut r = PayloadReader::new(bytes);
        match log.decode_from(&mut r) {
            Ok(()) => Ok(log),
            Err(reason) => Err(StorageError::WalCorrupt {
                offset: (bytes.len() - r.rest().len()) as u64,
                reason: format!("delta state: {reason}"),
            }),
        }
    }

    /// [`DeltaRelation::decode_state`] into a fresh log. Every count in the
    /// bytes is untrusted: nothing is allocated before the reader has proved
    /// the bytes are there, a run must be canonical, a sign byte 0 or 1.
    fn decode_from(&mut self, r: &mut PayloadReader<'_>) -> Result<(), String> {
        fn values(r: &mut PayloadReader<'_>, n: usize) -> Result<Vec<Value>, String> {
            let raw = r.take(n.checked_mul(8).ok_or("row count overflows")?)?;
            let words = raw.chunks_exact(8).filter_map(|c| c.first_chunk());
            Ok(words.map(|c| Value::from_le_bytes(*c)).collect())
        }
        fn sign(byte: u8) -> Result<i64, String> {
            match byte {
                0 => Ok(-1),
                1 => Ok(1),
                other => Err(format!("sign byte {other}")),
            }
        }
        let arity = self.arity();
        self.seal_threshold = (r.u64()? as usize).max(1);
        let mut live = LiveSet::for_arity(arity);
        for _ in 0..r.u32()? {
            let rows = r.u64()? as usize;
            let cols: Vec<Vec<Value>> = (0..arity)
                .map(|_| values(r, rows))
                .collect::<Result<_, _>>()?;
            let signs: Vec<i64> = r
                .take(rows)?
                .iter()
                .map(|&b| sign(b))
                .collect::<Result<_, _>>()?;
            if !is_canonical(&cols, rows) {
                return Err("run rows are not strictly ascending".into());
            }
            let run = Run::from_parts(self.schema.clone(), cols, &signs);
            let mut row = Vec::with_capacity(arity);
            for i in 0..rows {
                row.clear();
                row.extend(run.rel.columns().iter().map(|c| c[i]));
                if !run.dead[i] {
                    live.insert(&row);
                } else if !live.remove(&row) {
                    return Err("tombstone for a tuple that is not live".into());
                }
            }
            self.runs.push(Arc::new(run));
        }
        for _ in 0..r.u64()? {
            let sign = sign(r.take(1)?[0])?;
            let tuple = values(r, arity)?;
            if sign == 1 {
                if !live.insert(&tuple) {
                    return Err("buffered insert of a live tuple".into());
                }
            } else if !live.remove(&tuple) {
                return Err("buffered delete of a dead tuple".into());
            }
            self.push_op(&tuple, sign);
        }
        r.done()?;
        self.live_set = Arc::new(live);
        Ok(())
    }

    /// Merge `runs[start..]` into one run ([`merge_from`]); when `start == 0`
    /// the result is the new base and must carry no tombstones.
    fn merge_tail(&mut self, start: usize) {
        if self.runs.len() - start < 2 {
            return;
        }
        self.touch();
        self.fold = Arc::default();
        let rows = merge_from(&self.schema, &mut self.runs, start);
        self.values_written += (rows * self.arity()) as u64;
        debug_assert!(
            start > 0 || self.runs.get(start).is_none_or(|r| r.tombstones() == 0),
            "a merged base cannot carry tombstones"
        );
    }

    /// One compaction step: merge the two **newest** runs. Returns `false` when
    /// fewer than two sealed runs exist (nothing to do).
    pub fn compact_step(&mut self) -> bool {
        if self.runs.len() < 2 {
            return false;
        }
        let start = self.runs.len() - 2;
        self.merge_tail(start);
        true
    }

    /// Full compaction: seal the buffer, then merge every run into a single
    /// tombstone-free base.
    pub fn compact(&mut self) {
        self.seal();
        self.merge_tail(0);
    }

    /// Materialize the live tuples as a canonical [`Relation`] — the "full
    /// rebuild" a query over the log is differential-tested against: the rows
    /// of [`DeltaRelation::live_run`], so the fold, with anything buffered
    /// merged in. Does not mutate the log.
    pub fn snapshot(&self) -> Relation {
        let run = Arc::unwrap_or_clone(self.live_run());
        Arc::unwrap_or_clone(run.rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::TrieAccess;
    use crate::trie::TrieCursor;

    fn schema_ab() -> Schema {
        Schema::new(&["A", "B"])
    }

    fn enumerate(c: &mut TrieCursor<'_>, arity: usize) -> Vec<Tuple> {
        fn walk(c: &mut TrieCursor<'_>, arity: usize, prefix: &mut Tuple, out: &mut Vec<Tuple>) {
            if !c.open() {
                return;
            }
            while !c.at_end() {
                prefix.push(c.key());
                if prefix.len() == arity {
                    out.push(prefix.clone());
                } else {
                    walk(c, arity, prefix, out);
                }
                prefix.pop();
                if !c.next() {
                    break;
                }
            }
            c.up();
        }
        let mut out = Vec::new();
        walk(c, arity, &mut Vec::new(), &mut out);
        out
    }

    /// The trie a query reads must be the snapshot's, bit for bit, and
    /// enumerate exactly its rows, in the schema's order and in its reverse.
    fn assert_trie_matches_snapshot(d: &DeltaRelation) {
        let snap = d.snapshot();
        let order: Vec<usize> = (0..d.arity()).collect();
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        for positions in [order, reversed] {
            let trie = d.live_run().trie(&positions).unwrap();
            assert_eq!(trie, Trie::build_positions(&snap, &positions).unwrap());
            let names: Vec<&str> = positions
                .iter()
                .map(|&p| d.schema().attrs()[p].as_str())
                .collect();
            let expected = snap.reorder(&names).unwrap();
            assert_eq!(
                enumerate(&mut trie.cursor(), d.arity()),
                expected.rows(),
                "order {positions:?}"
            );
        }
        assert_eq!(d.len(), snap.len());
    }

    #[test]
    fn encode_decode_state_is_bit_exact() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(8);
        // a mixed history: sealed runs with tombstones plus a partial buffer
        for i in 0..40u64 {
            d.insert(vec![i % 10, i / 2]).unwrap();
            if i % 3 == 0 {
                d.delete(&[i % 10, i / 2]).unwrap();
            }
        }
        assert!(d.num_runs() >= 1);
        assert!(d.buffered() > 0 || d.tombstones() > 0);
        let bytes = d.encode_state();
        let d2 = DeltaRelation::decode_state(schema_ab(), &bytes).unwrap();
        assert_eq!(d2.run_sizes(), d.run_sizes(), "run partitioning preserved");
        assert_eq!(d2.tombstones(), d.tombstones());
        assert_eq!(d2.buffered(), d.buffered());
        assert_eq!(d2.len(), d.len(), "live set rebuilt");
        assert_eq!(d2.snapshot().rows(), d.snapshot().rows());
        assert_trie_matches_snapshot(&d2);
        // future mutations behave identically: same seal decisions
        let (mut a, mut b) = (d, d2);
        for i in 100..140u64 {
            a.insert(vec![i, i + 1]).unwrap();
            b.insert(vec![i, i + 1]).unwrap();
        }
        assert_eq!(a.run_sizes(), b.run_sizes());
        assert_eq!(a.buffered(), b.buffered());
        // every truncation is rejected, never a panic or silent success
        for cut in 0..bytes.len() {
            assert!(
                DeltaRelation::decode_state(schema_ab(), &bytes[..cut]).is_err(),
                "prefix {cut} must not decode"
            );
        }
    }

    /// A fixed log of the given arity: a base run, a run carrying
    /// tombstones, and an unsealed buffer that holds inserts and deletes.
    fn golden_log(arity: usize) -> DeltaRelation {
        let mut d = DeltaRelation::new(Schema::new(&["A", "B", "C"][..arity]));
        d.set_seal_threshold(usize::MAX);
        let tuple =
            |i: u64| -> Tuple { (0..arity as u64).map(|c| (i * (c + 3) + c) % 29).collect() };
        for i in 0..24 {
            d.insert(tuple(i)).unwrap();
        }
        d.seal();
        for i in 0..3 {
            d.delete(&tuple(i * 5)).unwrap();
            d.insert(tuple(24 + i)).unwrap();
        }
        d.seal(); // 24 >= 2 * 6: tiering keeps the two runs apart
        d.delete(&tuple(24)).unwrap();
        d.insert(tuple(27)).unwrap();
        d.delete(&tuple(1)).unwrap();
        d.insert(tuple(1)).unwrap();
        d
    }

    #[test]
    fn encode_state_bytes_are_pinned() {
        // (arity, byte length, CRC-32 of the bytes) of `golden_log`'s state:
        // the checkpoint format a recovering process reads back
        let pinned = [
            (1, 342, 0x4635_77f4),
            (2, 614, 0x5a27_0be2),
            (3, 886, 0x671a_e7b2),
        ];
        for (arity, len, crc) in pinned {
            let d = golden_log(arity);
            assert_eq!(
                (d.run_sizes(), d.tombstones(), d.buffered()),
                (vec![24, 6], 3, 4)
            );
            let bytes = d.encode_state();
            assert_eq!(
                (bytes.len(), crate::wal::crc32(&bytes)),
                (len, crc),
                "arity {arity}"
            );
            let back = DeltaRelation::decode_state(d.schema().clone(), &bytes).unwrap();
            assert_eq!(back.encode_state(), bytes, "arity {arity}");
        }
    }

    #[test]
    fn insert_delete_roundtrip_and_liveness() {
        let mut d = DeltaRelation::new(schema_ab());
        assert!(d.insert(vec![1, 2]).unwrap());
        assert!(!d.insert(vec![1, 2]).unwrap());
        assert!(d.insert(vec![2, 1]).unwrap());
        assert!(d.is_live(&[1, 2]));
        assert!(d.delete(&[1, 2]).unwrap());
        assert!(!d.delete(&[1, 2]).unwrap());
        assert!(!d.is_live(&[1, 2]));
        assert_eq!(d.len(), 1);
        assert!(d.insert(vec![1, 2]).unwrap(), "re-insert after delete");
        assert_eq!(d.snapshot().rows(), vec![vec![1, 2], vec![2, 1]]);
        assert!(d.insert(vec![1]).is_err());
        assert!(d.delete(&[1]).is_err());
    }

    #[test]
    fn seal_collapses_and_annihilates() {
        let mut d = DeltaRelation::new(schema_ab());
        d.insert(vec![1, 2]).unwrap();
        d.insert(vec![3, 4]).unwrap();
        d.delete(&[1, 2]).unwrap(); // cancels within the buffer
        assert_eq!(d.buffered(), 3);
        d.seal();
        assert_eq!(d.buffered(), 0);
        assert_eq!(d.num_runs(), 1);
        assert_eq!(d.run_sizes(), vec![1]); // only (3,4) survives
        assert_eq!(d.tombstones(), 0);
        assert_eq!(d.snapshot().rows(), vec![vec![3, 4]]);
    }

    #[test]
    fn tombstones_cross_runs_and_compact_annihilates() {
        let mut d = DeltaRelation::from_relation(Relation::from_rows(
            schema_ab(),
            vec![vec![1, 2], vec![1, 3], vec![2, 2], vec![3, 3], vec![4, 4]],
        ));
        d.delete(&[1, 3]).unwrap();
        d.insert(vec![5, 5]).unwrap();
        d.seal();
        // base (5 rows) >= 2 x the new run (2 rows): tiering keeps both runs
        assert_eq!(d.num_runs(), 2);
        assert_eq!(d.tombstones(), 1);
        assert_trie_matches_snapshot(&d);
        let expected = vec![vec![1, 2], vec![2, 2], vec![3, 3], vec![4, 4], vec![5, 5]];
        assert_eq!(d.snapshot().rows(), expected);
        d.compact();
        assert_eq!(d.num_runs(), 1);
        assert_eq!(d.tombstones(), 0);
        assert_eq!(d.snapshot().rows(), expected);
        assert_trie_matches_snapshot(&d);
    }

    #[test]
    fn interior_value_fully_tombstoned_is_suppressed() {
        // base holds both tuples under A=1; delete BOTH -> the fold must
        // not present A=1 at depth 1 even though base rows still exist
        let mut d = DeltaRelation::from_relation(Relation::from_rows(
            schema_ab(),
            vec![vec![1, 10], vec![1, 11], vec![2, 20]],
        ));
        d.delete(&[1, 10]).unwrap();
        d.delete(&[1, 11]).unwrap();
        d.seal();
        let trie = d.live_run().trie(&[0, 1]).unwrap();
        let mut c = trie.cursor();
        assert!(c.open());
        assert_eq!(TrieAccess::remaining(&c), &[2]);
        assert_trie_matches_snapshot(&d);
    }

    #[test]
    fn unsealed_buffer_is_visible_to_queries() {
        let mut d = DeltaRelation::new(schema_ab());
        d.insert(vec![7, 8]).unwrap();
        assert_eq!(d.num_runs(), 0);
        assert_eq!(d.buffered(), 1);
        assert_trie_matches_snapshot(&d); // the buffer with no run to merge into
        assert_eq!(d.snapshot().rows(), vec![vec![7, 8]]);
    }

    #[test]
    fn size_tiered_sealing_bounds_run_count() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(8);
        for i in 0..512u64 {
            d.insert(vec![i / 16, i % 16]).unwrap();
        }
        d.seal();
        // factor-2 tiering keeps the run count logarithmic in n / threshold
        assert!(d.num_runs() <= 8, "tiering failed: {:?}", d.run_sizes());
        // sizes are (weakly) tiered: each run at least GROWTH x its successor
        let sizes = d.run_sizes();
        for w in sizes.windows(2) {
            assert!(w[0] >= GROWTH * w[1], "not tiered: {sizes:?}");
        }
        assert_eq!(d.len(), 512);
        assert_trie_matches_snapshot(&d);
    }

    #[test]
    fn compact_step_walks_to_single_run() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        // decreasing chunk sizes survive the tiering check, leaving a deep stack
        for (chunk, size) in [(0u64, 64u64), (1, 16), (2, 4), (3, 1)] {
            for i in 0..size {
                d.insert(vec![chunk, i]).unwrap();
            }
            d.seal();
        }
        assert_eq!(d.num_runs(), 4, "{:?}", d.run_sizes());
        let expected = d.snapshot();
        let mut steps = 0;
        while d.compact_step() {
            steps += 1;
            assert_eq!(d.snapshot(), expected, "after compaction step {steps}");
            assert_trie_matches_snapshot(&d);
        }
        assert_eq!(steps, 3);
        assert_eq!(d.num_runs(), 1);
        assert_eq!(d.tombstones(), 0);
    }

    #[test]
    fn values_written_counts_appends_seals_and_merges() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        d.insert(vec![1, 1]).unwrap();
        d.insert(vec![2, 2]).unwrap();
        assert!(!d.insert(vec![2, 2]).unwrap(), "a no-op writes nothing");
        assert_eq!(d.values_written(), 4);
        d.seal(); // one run of two rows
        assert_eq!(d.values_written(), 8);
        d.delete(&[1, 1]).unwrap();
        d.seal(); // a one-row tombstone run; 2 < 2 · 1 keeps it apart
        assert_eq!((d.num_runs(), d.values_written()), (2, 12));
        d.compact(); // the merge annihilates (1, 1) and writes (2, 2)
        assert_eq!((d.num_runs(), d.values_written()), (1, 14));
    }

    #[test]
    fn random_ops_match_reference_set() {
        use std::collections::BTreeSet;
        for arity in 1..=3 {
            let schema = Schema::new(&["A", "B", "C"][..arity]);
            let mut d = DeltaRelation::new(schema.clone());
            d.set_seal_threshold(16);
            let mut reference: BTreeSet<Tuple> = BTreeSet::new();
            let mut rng = SplitMix64(0xD17A + arity as u64);
            // every check also round-trips the checkpoint codec
            let check = |d: &DeltaRelation, reference: &BTreeSet<Tuple>, step: usize| {
                let rows: Vec<Tuple> = reference.iter().cloned().collect();
                assert_eq!(d.snapshot().rows(), rows, "arity {arity} step {step}");
                assert_trie_matches_snapshot(d);
                let bytes = d.encode_state();
                let back = DeltaRelation::decode_state(schema.clone(), &bytes).unwrap();
                assert_eq!(back.encode_state(), bytes, "arity {arity} step {step}");
                assert_eq!(back.snapshot(), d.snapshot(), "arity {arity} step {step}");
            };
            for step in 0..600 {
                let t: Tuple = (0..arity).map(|_| rng.below(12)).collect();
                if rng.below(3) == 0 {
                    assert_eq!(d.delete(&t).unwrap(), reference.remove(&t));
                } else {
                    assert_eq!(d.insert(t.clone()).unwrap(), reference.insert(t));
                }
                if step % 97 == 0 {
                    check(&d, &reference, step);
                }
            }
            d.compact();
            check(&d, &reference, 600);
            assert_eq!(d.len(), reference.len());
        }
    }

    /// The whole history — every run and the buffered ops — concatenated,
    /// argsorted and collapsed to its net signs: the snapshot by definition.
    fn collapse(d: &DeltaRelation) -> Relation {
        let mut cols: Vec<Vec<Value>> = d.buffer.clone();
        let mut signs = d.buffer_signs.clone();
        for run in &d.runs {
            for (col, src) in cols.iter_mut().zip(run.rel.columns()) {
                col.extend_from_slice(src);
            }
            signs.extend((0..run.len()).map(|i| run.sign(i)));
        }
        let (cols, signs) = collapse_signed(&cols, &signs);
        assert!(
            signs.iter().all(|&s| s > 0),
            "full-history nets are 0 or +1"
        );
        Relation::from_canonical_columns(d.schema.clone(), cols)
    }

    #[test]
    fn a_clean_single_run_snapshot_equals_the_collapse_path() {
        let mut state = 0x5EEDu64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..24u64 {
            let arity = 1 + (round % 3) as usize;
            let names = ["A", "B", "C"];
            let rows: Vec<Tuple> = (0..rng() % 200)
                .map(|_| (0..arity).map(|_| rng() % 16).collect())
                .collect();
            let rel = Relation::from_rows(Schema::new(&names[..arity]), rows);
            // a loaded relation: one clean run, its live set packed from columns
            let mut d = DeltaRelation::from_relation(rel.clone());
            assert_eq!(d.len(), rel.len(), "round {round}");
            assert!(rel.iter().all(|t| d.is_live(&t)), "round {round}");
            assert_eq!(d.snapshot(), collapse(&d), "round {round}");
            assert_eq!(d.snapshot(), rel, "round {round}");
            // churned, sealed and compacted back to one clean run
            for _ in 0..rng() % 40 {
                let t: Tuple = (0..arity).map(|_| rng() % 16).collect();
                if rng() % 2 == 0 {
                    d.delete(&t).unwrap();
                } else {
                    d.insert(t).unwrap();
                }
            }
            assert_eq!(d.snapshot(), collapse(&d), "round {round}: churned");
            d.compact();
            assert!(d.num_runs() <= 1 && d.tombstones() == 0);
            assert_eq!(d.snapshot(), collapse(&d), "round {round}: compacted");
        }
    }

    #[test]
    fn cursor_navigation_and_work() {
        let mut d = DeltaRelation::new(schema_ab());
        for i in 0..100u64 {
            d.insert(vec![i % 4, i]).unwrap();
        }
        d.seal();
        d.delete(&[0, 0]).unwrap();
        d.seal();
        assert_eq!((d.num_runs(), d.tombstones()), (2, 1));
        let trie = d.live_run().trie(&[0, 1]).unwrap();
        let mut c = trie.cursor();
        assert_eq!(TrieAccess::arity(&c), 2);
        assert!(TrieAccess::at_end(&c)); // root
        assert!(c.open());
        assert_eq!(TrieAccess::remaining(&c), &[0, 1, 2, 3]);
        assert!(c.seek(2));
        assert_eq!(c.key(), 2);
        assert!(c.reposition(0));
        assert!(c.open()); // B under A=0: 4, 8, ... (0 was deleted)
        assert_eq!(c.key(), 4);
        assert!(c.advance_to(8));
        let w = c.take_work();
        assert!(!w.is_zero(), "the seek was charged");
        assert_eq!(
            w.delta_merge, 0,
            "a log's trie is a trie: nothing is merged"
        );
        c.up();
        c.up();
        assert_eq!(TrieAccess::depth(&c), 0);
    }

    #[test]
    fn reopening_a_prefix_charges_identical_work() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        for i in 0..64u64 {
            d.insert(vec![i % 2, i]).unwrap();
        }
        d.seal();
        for i in 0..8u64 {
            d.delete(&[i % 2, i]).unwrap();
            d.insert(vec![i % 2, 100 + i]).unwrap();
        }
        d.seal();
        assert_eq!(d.num_runs(), 2);
        let trie = d.live_run().trie(&[0, 1]).unwrap();
        let mut c = trie.cursor();
        assert!(c.open());
        c.take_work();
        assert!(c.open());
        assert_eq!(TrieAccess::remaining(&c).len(), 32, "4 dead, 4 fresh");
        assert!(c.seek(40));
        let first = c.take_work();
        assert!(!first.is_zero());
        c.up();
        assert!(c.open()); // the same group again: the same work charged
        assert!(c.seek(40));
        assert_eq!(c.take_work(), first);
    }

    #[test]
    fn build_rejects_bad_orders_and_cursors_are_send_clone() {
        let d = DeltaRelation::new(schema_ab());
        assert!(d.fold().is_none(), "no run, no fold");
        let live = d.live_run();
        assert!(live.is_empty());
        assert!(live.trie(&[0]).is_err());
        assert!(live.trie(&[0, 0]).is_err());
        assert!(live.trie(&[0, 2]).is_err());
        assert!(live.trie(&[1, 0]).is_ok());
        fn assert_send_clone<T: Send + Clone>() {}
        fn assert_sync<T: Sync>() {}
        assert_send_clone::<TrieCursor<'_>>();
        assert_send_clone::<Arc<Run>>();
        assert_sync::<DeltaRelation>();
    }

    #[test]
    fn epoch_advances_on_every_visible_mutation() {
        let mut d = DeltaRelation::new(schema_ab());
        let e0 = d.epoch();
        assert!(d.insert(vec![1, 2]).unwrap());
        let e1 = d.epoch();
        assert!(e1 > e0, "insert bumps");
        assert!(!d.insert(vec![1, 2]).unwrap());
        assert_eq!(d.epoch(), e1, "no-op re-insert does not bump");
        d.delete(&[1, 2]).unwrap();
        let e2 = d.epoch();
        assert!(e2 > e1, "delete bumps");
        assert!(!d.delete(&[1, 2]).unwrap());
        assert_eq!(d.epoch(), e2, "no-op delete does not bump");
        d.insert(vec![3, 4]).unwrap();
        let e3 = d.epoch();
        d.seal();
        assert!(d.epoch() > e3, "seal bumps");
        // distinct logs never share an epoch (stamps are process-unique)
        let other = DeltaRelation::new(schema_ab());
        assert_ne!(other.epoch(), d.epoch());
    }

    #[test]
    fn run_ids_are_stable_until_a_structural_rewrite() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        for i in 0..64u64 {
            d.insert(vec![i, i]).unwrap();
        }
        d.seal();
        let base = d.run_ids();
        assert_eq!(base.len(), 1);
        // a small second seal survives tiering: old ids stay a prefix
        d.insert(vec![100, 100]).unwrap();
        d.insert(vec![101, 101]).unwrap();
        d.seal();
        let extended = d.run_ids();
        assert_eq!(extended.len(), 2);
        assert_eq!(
            extended[0], base[0],
            "old run untouched by append-only seal"
        );
        // compaction rewrites: a fresh id, not a prefix of the old list
        d.compact();
        let compacted = d.run_ids();
        assert_eq!(compacted.len(), 1);
        assert!(!extended.contains(&compacted[0]));
    }

    /// SplitMix64 (Steele et al. 2014) — the workspace's seeded generator
    /// (`wcoj_workloads::SplitMix64`), copied so this crate's tests stay
    /// dependency-free.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound.max(1)
        }
    }

    /// A ternary log grown by a seeded op stream over a small domain that
    /// includes `Value::MAX`, sealed at random points so runs stack up with
    /// tombstones, plus one interior value (`A = 3`) inserted and then fully
    /// deleted in a later run.
    fn random_log(seed: u64) -> DeltaRelation {
        let mut rng = SplitMix64(seed);
        let mut d = DeltaRelation::new(Schema::new(&["A", "B", "C"]));
        d.set_seal_threshold(usize::MAX);
        let value = |rng: &mut SplitMix64| match rng.below(7) {
            6 => Value::MAX,
            v => v,
        };
        let doomed: Vec<Tuple> = (0..5).map(|i| vec![3, value(&mut rng), i]).collect();
        for t in &doomed {
            d.insert(t.clone()).unwrap();
        }
        for _ in 0..60 + rng.below(200) {
            let t = vec![value(&mut rng), value(&mut rng), value(&mut rng)];
            if t[0] == 3 {
                continue;
            }
            if rng.below(3) == 0 {
                d.delete(&t).unwrap();
            } else {
                d.insert(t).unwrap();
            }
            if rng.below(40) == 0 {
                d.seal();
            }
        }
        d.seal();
        for t in &doomed {
            assert!(d.delete(t).unwrap());
        }
        if rng.below(2) == 0 {
            d.seal(); // else the tombstones ride in the buffer
        }
        d
    }

    #[test]
    fn the_fold_trie_enumerates_the_snapshot_in_every_order() {
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut buffered_somewhere = false;
        for seed in 0..40u64 {
            let d = random_log(0x7A1E ^ seed);
            let snap = d.snapshot();
            assert!(snap.iter().all(|t| t[0] != 3), "seed {seed}");
            assert_eq!(snap, collapse(&d), "seed {seed}");
            buffered_somewhere |= d.buffered() > 0;
            for positions in orders {
                let names: Vec<&str> = positions.iter().map(|&p| ["A", "B", "C"][p]).collect();
                let expected = snap.reorder(&names).unwrap().rows();
                let trie = d.live_run().trie(&positions).unwrap();
                assert_eq!(
                    enumerate(&mut trie.cursor(), 3),
                    expected,
                    "seed {seed} order {positions:?}"
                );
                // the static path's trie, bit for bit: layouts, counters and all
                let rebuilt = Trie::build_positions(&snap, &positions).unwrap();
                assert_eq!(trie, rebuilt, "seed {seed} order {positions:?}");
            }
        }
        assert!(buffered_somewhere);
    }

    #[test]
    fn the_fold_is_memoized_per_run_list_and_dies_with_it() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        for i in 0..200u64 {
            d.insert(vec![i % 13, i / 13]).unwrap();
        }
        d.seal();
        // one run: the fold is that run — its rows and its id — behind a
        // handle of the log's own, read once and then memoized
        let one = d.fold().unwrap();
        assert_eq!(one.id(), d.run_ids()[0]);
        assert!(Arc::ptr_eq(&one.rel, &d.runs[0].rel), "no row is copied");
        assert!(!Arc::ptr_eq(&one, &d.runs[0]));
        assert!(Arc::ptr_eq(&one, &d.fold().unwrap()));
        assert!(Arc::ptr_eq(&one, &d.live_run()), "nothing is buffered");
        // a clone that lists the same runs shares the memo, computed or not
        let pinned = d.clone();
        assert!(Arc::ptr_eq(&one, &pinned.fold().unwrap()));
        // buffered ops leave the fold alone; the query's run is merged per call
        d.insert(vec![999, 1]).unwrap();
        d.delete(&[3, 3]).unwrap();
        assert!(Arc::ptr_eq(&one, &d.fold().unwrap()));
        let live = d.live_run();
        assert_ne!(live.id(), one.id());
        assert_eq!((live.len(), live.tombstones()), (200, 0));
        // a seal changes the run list and with it the fold: several runs fold
        // into a fresh tombstone-free run, the snapshot's rows
        d.seal();
        assert_eq!((d.num_runs(), d.tombstones()), (2, 1));
        let two = d.fold().unwrap();
        assert_ne!(two.id(), one.id());
        assert_eq!(*two.rel, d.snapshot());
        assert_eq!(two.tombstones(), 0);
        assert!(Arc::ptr_eq(&two, &d.fold().unwrap()));
        // the old fold lives as long as a log that lists its runs holds it
        let weak = (Arc::downgrade(&one), Arc::downgrade(&two));
        drop((one, two, live));
        let (one, two) = (weak.0, weak.1);
        assert!(two.strong_count() > 0, "`d` holds it");
        assert!(one.strong_count() > 0, "`pinned` holds it");
        drop(pinned);
        assert_eq!(one.strong_count(), 0);
        // compacting a log that is already one clean run changes nothing
        d.compact();
        assert_eq!(d.num_runs(), 1);
        assert_eq!(two.strong_count(), 0, "the compaction rewrote the list");
        let base = d.fold().unwrap();
        d.compact();
        assert!(Arc::ptr_eq(&base, &d.fold().unwrap()));
    }

    #[test]
    fn decode_state_rejects_what_it_used_to_trust() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        for t in [[1u64, 2], [1, 3], [2, 1]] {
            d.insert(t.to_vec()).unwrap();
        }
        d.seal();
        d.delete(&[1, 3]).unwrap();
        d.seal();
        let good = d.encode_state();
        assert!(DeltaRelation::decode_state(schema_ab(), &good).is_ok());
        // layout: threshold u64, runs u32, then per run rows u64, columns, signs
        let (rows_at, col0_at) = (12, 20);
        let corrupt =
            |bytes: &[u8], what: &str| match DeltaRelation::decode_state(schema_ab(), bytes) {
                Err(StorageError::WalCorrupt { reason, .. }) => {
                    assert!(reason.contains(what), "{reason}")
                }
                other => panic!("{what}: {other:?}"),
            };
        // an out-of-order run: swap the first two A values' rows (1,2) <-> (2,1)
        let mut swapped = good.clone();
        swapped[col0_at..col0_at + 8].copy_from_slice(&2u64.to_le_bytes());
        swapped[col0_at + 16..col0_at + 24].copy_from_slice(&1u64.to_le_bytes());
        corrupt(&swapped, "not strictly ascending");
        // a duplicated row is not canonical either
        let mut dup = good.clone();
        let b_at = col0_at + 24;
        dup[b_at + 8..b_at + 16].copy_from_slice(&2u64.to_le_bytes());
        corrupt(&dup, "not strictly ascending");
        // a row count whose byte length overflows
        let mut huge = good.clone();
        huge[rows_at..rows_at + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
        corrupt(&huge, "overflows");
        // a sign byte that is neither 0 nor 1
        let mut sign = good.clone();
        let sign_at = col0_at + 48;
        assert_eq!(sign[sign_at], 1);
        sign[sign_at] = 2;
        corrupt(&sign, "sign byte 2");
    }

    #[test]
    fn decode_state_survives_byte_mutations() {
        let mut rng = SplitMix64(0xDEC0DE);
        let mut oks = 0;
        for seed in 0..2400u64 {
            let mut d = DeltaRelation::new(schema_ab());
            d.set_seal_threshold(4 + rng.below(12) as usize);
            for _ in 0..rng.below(48) {
                let t = vec![rng.below(6), rng.below(6)];
                if rng.below(3) == 0 {
                    d.delete(&t).unwrap();
                } else {
                    d.insert(t).unwrap();
                }
            }
            let mut bytes = d.encode_state();
            let at = |rng: &mut SplitMix64, len: usize| rng.below(len as u64 + 1) as usize;
            match seed % 3 {
                0 => {
                    let i = at(&mut rng, bytes.len() - 1);
                    bytes[i] ^= 1 << rng.below(8);
                }
                1 => bytes.truncate(at(&mut rng, bytes.len())),
                _ => {
                    let (from, to) = (at(&mut rng, bytes.len()), at(&mut rng, bytes.len()));
                    let len = at(&mut rng, 24).min(bytes.len() - from);
                    let chunk = bytes[from..from + len].to_vec();
                    bytes.splice(to..to, chunk);
                }
            }
            match DeltaRelation::decode_state(schema_ab(), &bytes) {
                Ok(log) => {
                    oks += 1;
                    // every value stored was read from the input, once
                    let stored = log.run_sizes().iter().sum::<usize>() + log.buffered();
                    assert!(stored * 16 <= bytes.len(), "seed {seed}");
                    for run in &log.runs {
                        assert!(is_canonical(run.rel.columns(), run.len()), "seed {seed}");
                    }
                    assert_trie_matches_snapshot(&log);
                }
                Err(StorageError::WalCorrupt { .. }) => {}
                Err(other) => panic!("seed {seed}: {other:?}"),
            }
        }
        assert!(
            oks > 0,
            "some mutations (a flipped threshold bit) stay valid"
        );
    }
}
