//! Incremental maintenance: delta-log relations with mergeable access structures.
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
//!   sequence — the invariant that makes signed counting exact — at the price
//!   of one extra copy of each live tuple); unary/binary tuples pack into
//!   `u128` keys, so the hot ingest path never allocates. When the buffer
//!   reaches the seal threshold it is **sealed**: collapsed into a new sorted
//!   run, followed by **size-tiered compaction** (adjacent runs of comparable
//!   size merge in linear two-pointer passes); [`DeltaRelation::compact`]
//!   merges everything back into a single tombstone-free base;
//! * query-side, a sealed run's access structure **is a [`Trie`]**: a run is a
//!   canonical relation plus signs, so [`Run::trie`] is the one trie builder
//!   — layouts included for a run of inserts, which is its relation's trie bit
//!   for bit; a run that carries tombstones is not a set of live values, so it
//!   gets no set layouts and instead one flag bit per leaf with a running
//!   count per word, which makes the signed tuple count under any node two
//!   popcounts (a quarter of a byte per row). It is built once per
//!   `(run, order)` and cached. [`DeltaAccess`] is the list of a log's run tries for
//!   one order and its [`DeltaCursor`] implements [`crate::TrieAccess`] by
//!   k-way-merging the runs' sorted, *distinct* sibling groups **and
//!   suppressing values whose signed subtree count is not positive** — so both
//!   Generic Join and Leapfrog Triejoin run unmodified over live data,
//!   bit-identical to a full rebuild. A prefix that lives in one run with no
//!   tombstone under it is not merged at all: the cursor hands out that trie's
//!   own group and — from a run of inserts — its set layout. Merge work is
//!   attributed to the `delta_merge` tally of [`crate::CursorWork`]/[`crate::WorkCounter`].
//!
//! # Cost model
//!
//! | operation | full rebuild ([`Relation`]) | delta log |
//! | --- | --- | --- |
//! | single insert/delete | O(n) shift | O(arity) expected + amortized O(log B) seal sort |
//! | seal (per `B` buffered ops) | — | O(B log B) |
//! | compaction (amortized per op) | — | O(log(n/B)) linear merge touches |
//! | extra memory | — | live-tuple hash index (packed `u128`s for arity ≤ 2) |
//! | access-structure build | O(n log n) argsort + scan | the same builder once per `(run, order)`, cached; identity orders skip the argsort |
//! | cursor `open` of a prefix | one `child_start` lookup | one lookup per run holding the prefix, plus one merge step per `(value, run)` when more than one does (or a tombstone lies under it) |
//! | query result | — | **bit-identical** to rebuilding from [`DeltaRelation::snapshot`] |
//!
//! The signed-count discipline (each live tuple contributes net +1 across its
//! history, each dead tuple net 0) is what lets the cursor decide liveness of an
//! *interior* trie value with one rank subtraction per run instead of
//! exploring the subtree: a value extends the current prefix iff the summed
//! signed count of the tuples under prefix·value is positive. A log with one
//! run and no tombstones — a loaded relation — needs none of this: its trie
//! *is* the relation's trie, and the execution layer runs it on the plain
//! [`crate::TrieCursor`].

use crate::error::StorageError;
use crate::fxhash::FxHasher;
use crate::relation::{argsort_columns, is_canonical, Relation, Tuple};
use crate::schema::Schema;
use crate::stats::CursorWork;
use crate::trie::{Trie, TrieCursor};
use crate::wal::PayloadReader;
use crate::Value;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

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

    fn reserve(&mut self, n: usize) {
        match self {
            LiveSet::Packed(s) => s.reserve(n),
            LiveSet::General(s) => s.reserve(n),
        }
    }
}

/// The append buffer: operations in arrival order, each a tuple plus its sign
/// (+1 insert, −1 tombstone). Like [`LiveSet`], unary/binary tuples are packed
/// into `u128`s so the hot ingest path performs no heap allocation at all.
#[derive(Debug, Clone)]
enum OpBuffer {
    /// Arity ≤ 2: `(packed tuple, sign)`.
    Packed(Vec<(u128, i64)>),
    /// Arity ≥ 3: `(owned tuple, sign)`.
    General(Vec<(Tuple, i64)>),
}

impl OpBuffer {
    fn for_arity(arity: usize) -> OpBuffer {
        if arity <= 2 {
            OpBuffer::Packed(Vec::new())
        } else {
            OpBuffer::General(Vec::new())
        }
    }

    fn len(&self) -> usize {
        match self {
            OpBuffer::Packed(v) => v.len(),
            OpBuffer::General(v) => v.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn clear(&mut self) {
        match self {
            OpBuffer::Packed(v) => v.clear(),
            OpBuffer::General(v) => v.clear(),
        }
    }

    fn push(&mut self, tuple: &[Value], sign: i64) {
        match self {
            OpBuffer::Packed(v) => v.push((pack2(tuple), sign)),
            OpBuffer::General(v) => v.push((tuple.to_vec(), sign)),
        }
    }
}

/// Unpack an order-preserving `u128` key back into `arity` column values.
#[inline]
fn unpack2(key: u128, arity: usize, out: &mut [Vec<Value>]) {
    if arity == 1 {
        out[0].push(key as Value);
    } else {
        out[0].push((key >> 64) as Value);
        out[1].push(key as Value);
    }
}

/// Buffered operations before an automatic [`DeltaRelation::seal`].
pub const DEFAULT_SEAL_THRESHOLD: usize = 1024;

/// Size-tiering growth factor: a freshly sealed run merges into its predecessor
/// while the predecessor is smaller than `GROWTH` times the new run.
const GROWTH: usize = 2;

/// One immutable sorted run of a [`DeltaRelation`]: a canonical mini-relation
/// plus one sign per row. Opaque outside this module except as a build input:
/// the execution layer fetches or builds [`Run::trie`] per run, and the access
/// cache holds a `Weak` to it so the entry dies with the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Process-unique identity stamp ([`crate::cache::next_stamp`]): runs are
    /// immutable, so equal ids imply identical content — the stamp of the
    /// access-structure cache's key for this run's tries.
    id: u64,
    /// The run's rows: sorted, distinct tuples (each tuple occurs at most once
    /// per run, with its net sign).
    rel: Relation,
    /// Per row: whether it is a tombstone (sign −1) rather than an insert (+1).
    dead: Vec<bool>,
}

impl Run {
    /// A run of pure inserts (the base-run shape).
    fn all_insert(rel: Relation) -> Run {
        Run {
            id: crate::cache::next_stamp(),
            dead: vec![false; rel.len()],
            rel,
        }
    }

    /// Build a run from canonical columns plus per-row net signs.
    fn from_parts(schema: Schema, cols: Vec<Vec<Value>>, signs: &[i64]) -> Run {
        let rel = Relation::from_canonical_columns(schema, cols);
        debug_assert_eq!(rel.len(), signs.len());
        debug_assert!(signs.iter().all(|&s| s == 1 || s == -1));
        Run {
            id: crate::cache::next_stamp(),
            rel,
            dead: signs.iter().map(|&s| s < 0).collect(),
        }
    }

    /// The run's identity stamp ([`DeltaRelation::run_ids`]).
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
    /// trie builder over the run's rows — `threads` parallelizes it,
    /// bit-identically — keeping tombstone flags only if a row is a tombstone.
    pub fn trie(&self, positions: &[usize], threads: usize) -> Result<Trie, StorageError> {
        let dead = self.dead.contains(&true).then_some(&self.dead[..]);
        Trie::build_signed(&self.rel, positions, threads, dead)
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
    if arity <= 2 {
        return merge_two_packed(a, b, arity);
    }
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

/// [`merge_two`] over order-preserving packed `u128` keys — single-word
/// comparisons and pushes for the unary/binary (streaming graph) case; columns
/// are unpacked once at the end.
fn merge_two_packed(a: &Run, b: &Run, arity: usize) -> (Vec<Vec<Value>>, Vec<i64>) {
    let pack_run = |r: &Run| -> Vec<u128> {
        match arity {
            1 => r.rel.column(0).iter().map(|&v| v as u128).collect(),
            _ => r
                .rel
                .column(0)
                .iter()
                .zip(r.rel.column(1))
                .map(|(&x, &y)| ((x as u128) << 64) | y as u128)
                .collect(),
        }
    };
    let (ka, kb) = (pack_run(a), pack_run(b));
    let mut keys: Vec<u128> = Vec::with_capacity(ka.len() + kb.len());
    let mut signs: Vec<i64> = Vec::with_capacity(ka.len() + kb.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ka.len() && j < kb.len() {
        if ka[i] < kb[j] {
            keys.push(ka[i]);
            signs.push(a.sign(i));
            i += 1;
        } else if ka[i] > kb[j] {
            keys.push(kb[j]);
            signs.push(b.sign(j));
            j += 1;
        } else {
            let net = a.sign(i) + b.sign(j);
            debug_assert_eq!(net, 0, "a tuple's +/− history must alternate");
            if net != 0 {
                keys.push(ka[i]);
                signs.push(net.signum());
            }
            i += 1;
            j += 1;
        }
    }
    keys.extend_from_slice(&ka[i..]);
    signs.extend((i..ka.len()).map(|k| a.sign(k)));
    keys.extend_from_slice(&kb[j..]);
    signs.extend((j..kb.len()).map(|k| b.sign(k)));
    let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(keys.len())).collect();
    for &k in &keys {
        unpack2(k, arity, &mut cols);
    }
    (cols, signs)
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
/// O(live) copy of the shared live-tuple index.
#[derive(Debug, Clone)]
pub struct DeltaRelation {
    schema: Schema,
    /// `runs[0]` is the oldest (the base after a [`DeltaRelation::compact`]);
    /// later runs are newer and shadow earlier ones via signed counting.
    /// `Arc`-shared: snapshot clones pin runs by refcount, never by copying.
    runs: Vec<Arc<Run>>,
    /// Unsealed operations in arrival order: (tuple, +1 insert / −1 tombstone).
    buffer: OpBuffer,
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
        let buffer = OpBuffer::for_arity(schema.arity());
        Ok(DeltaRelation {
            schema,
            runs: Vec::new(),
            buffer,
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
        let buffer = OpBuffer::for_arity(schema.arity());
        Ok(DeltaRelation {
            schema,
            runs,
            buffer,
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

    /// The sealed runs themselves, oldest first — the immutable inputs the
    /// execution layer fetches or builds one [`Run::trie`] each for.
    pub fn runs(&self) -> &[Arc<Run>] {
        &self.runs
    }

    /// The unsealed buffer collapsed into an ephemeral run (the log is not
    /// touched — queries take `&DeltaRelation`) and built like any other;
    /// `None` when nothing is buffered or it all cancels. Never cached.
    pub fn buffer_trie(&self, positions: &[usize]) -> Result<Option<Trie>, StorageError> {
        if self.buffer.is_empty() {
            return Ok(None);
        }
        let (cols, signs) = self.buffer_parts();
        let run = Run::from_parts(self.schema.clone(), cols, &signs);
        (!run.is_empty())
            .then(|| run.trie(positions, 1))
            .transpose()
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

    /// Number of sealed runs (the delta depth the union cursor merges over).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Sizes of the sealed runs, oldest first.
    pub fn run_sizes(&self) -> Vec<usize> {
        self.runs.iter().map(|r| r.len()).collect()
    }

    /// Number of buffered (unsealed) operations.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
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

    /// Pre-size the live-tuple index for `n` expected live tuples (avoids
    /// rehash pauses during bulk ingest).
    pub fn reserve(&mut self, n: usize) {
        Arc::make_mut(&mut self.live_set).reserve(n);
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
        self.buffer.push(tuple, 1);
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
        self.buffer.push(tuple, -1);
        self.values_written += tuple.len() as u64;
        self.touch();
        self.maybe_seal();
        Ok(true)
    }

    fn maybe_seal(&mut self) {
        if self.buffer.len() >= self.seal_threshold {
            self.seal();
        }
    }

    /// Collapse the buffered operations (arrival order) into canonical columns
    /// plus net signs — the seal sort. Unary/binary tuples (the streaming graph
    /// case) sort as packed integers with no heap access at all; wider tuples
    /// take the generic lexicographic path. (Order within an equal-tuple group
    /// does not matter: only the net sign is kept.)
    fn buffer_parts(&self) -> (Vec<Vec<Value>>, Vec<i64>) {
        let arity = self.arity();
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(); arity];
        let mut signs = Vec::new();
        match &self.buffer {
            OpBuffer::Packed(ops) => {
                let mut keyed = ops.clone();
                keyed.sort_unstable_by_key(|&(k, _)| k);
                let n = keyed.len();
                let mut i = 0;
                while i < n {
                    let (key, mut net) = keyed[i];
                    let mut j = i + 1;
                    while j < n && keyed[j].0 == key {
                        net += keyed[j].1;
                        j += 1;
                    }
                    debug_assert!(
                        (-1..=1).contains(&net),
                        "a tuple's +/− history must alternate"
                    );
                    if net != 0 {
                        unpack2(key, arity, &mut cols);
                        signs.push(net);
                    }
                    i = j;
                }
            }
            OpBuffer::General(ops) => {
                let n = ops.len();
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_unstable_by(|&a, &b| ops[a as usize].0.cmp(&ops[b as usize].0));
                let mut i = 0;
                while i < n {
                    let a = order[i] as usize;
                    let mut net = ops[a].1;
                    let mut j = i + 1;
                    while j < n && ops[order[j] as usize].0 == ops[a].0 {
                        net += ops[order[j] as usize].1;
                        j += 1;
                    }
                    debug_assert!(
                        (-1..=1).contains(&net),
                        "a tuple's +/− history must alternate"
                    );
                    if net != 0 {
                        for (c, col) in cols.iter_mut().enumerate() {
                            col.push(ops[a].0[c]);
                        }
                        signs.push(net);
                    }
                    i = j;
                }
            }
        }
        (cols, signs)
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
        if self.buffer.is_empty() {
            return;
        }
        let (cols, signs) = self.buffer_parts();
        self.buffer.clear();
        self.touch();
        self.values_written += (signs.len() * self.arity()) as u64;
        if !signs.is_empty() {
            self.runs
                .push(Arc::new(Run::from_parts(self.schema.clone(), cols, &signs)));
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
        out.extend_from_slice(&(self.buffer.len() as u64).to_le_bytes());
        let mut push_op = |tuple: &[Value], sign: i64| {
            out.push(if sign == 1 { 1 } else { 0 });
            for &v in tuple {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        match &self.buffer {
            OpBuffer::Packed(ops) => {
                let mut cols: Vec<Vec<Value>> = vec![Vec::new(); arity];
                for &(key, sign) in ops {
                    cols.iter_mut().for_each(|c| c.clear());
                    unpack2(key, arity, &mut cols);
                    let tuple: Vec<Value> = cols.iter().map(|c| c[0]).collect();
                    push_op(&tuple, sign);
                }
            }
            OpBuffer::General(ops) => {
                for (tuple, sign) in ops {
                    push_op(tuple, *sign);
                }
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
            self.buffer.push(&tuple, sign);
        }
        r.done()?;
        self.live_set = Arc::new(live);
        Ok(())
    }

    /// Merge `runs[start..]` into one run (signed annihilation); when `start ==
    /// 0` the result is the new base and must carry no tombstones. The merge is
    /// pairwise linear two-pointer passes over the sorted runs, newest pair
    /// first — the cheapest order under tiered sizes.
    fn merge_tail(&mut self, start: usize) {
        if self.runs.len() - start < 2 {
            return;
        }
        self.touch();
        // a pair that annihilates leaves nothing behind
        while let [.., a, b] = &self.runs[start..] {
            let (cols, signs) = merge_two(a, b);
            self.values_written += (signs.len() * self.arity()) as u64;
            self.runs.truncate(self.runs.len() - 2);
            if !signs.is_empty() {
                self.runs
                    .push(Arc::new(Run::from_parts(self.schema.clone(), cols, &signs)));
            }
        }
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
    /// rebuild" the union cursor is differential-tested against. Does not mutate
    /// the log (the buffer is collapsed into a temporary copy). A log that is
    /// one run of inserts with nothing buffered — a loaded relation — *is* that
    /// run's relation, returned as it is without a sort.
    pub fn snapshot(&self) -> Relation {
        match (&self.runs[..], self.buffer.is_empty()) {
            ([run], true) if run.tombstones() == 0 => run.rel.clone(),
            _ => self.collapse(),
        }
    }

    /// [`DeltaRelation::snapshot`]'s general path: every run and the buffer
    /// concatenated, argsorted and collapsed to their net signs.
    fn collapse(&self) -> Relation {
        let arity = self.arity();
        let total: usize = self.runs.iter().map(|r| r.len()).sum::<usize>() + self.buffer.len();
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(total)).collect();
        let mut signs = Vec::with_capacity(total);
        for run in &self.runs {
            for (col, src) in cols.iter_mut().zip(run.rel.columns()) {
                col.extend_from_slice(src);
            }
            signs.extend((0..run.len()).map(|i| run.sign(i)));
        }
        let (bcols, bsigns) = self.buffer_parts();
        for (col, src) in cols.iter_mut().zip(&bcols) {
            col.extend_from_slice(src);
        }
        signs.extend_from_slice(&bsigns);
        let (cols, signs) = collapse_signed(&cols, &signs);
        debug_assert!(
            signs.iter().all(|&s| s > 0),
            "full-history nets are 0 or +1"
        );
        Relation::from_canonical_columns(self.schema.clone(), cols)
    }
}

/// A [`DeltaRelation`]'s access structure for one attribute order: the tries
/// of its sealed runs, oldest first, then the collapsed unsealed buffer's —
/// each a plain [`Trie`] ([`Run::trie`]), shared with the access cache by
/// refcount. Obtain cursors with [`DeltaAccess::cursor`].
#[derive(Debug, Clone)]
pub struct DeltaAccess {
    arity: usize,
    tries: Vec<Arc<Trie>>,
}

impl DeltaAccess {
    /// The one place a log's access structure is put together: every sealed
    /// run's trie from `run_trie`, oldest first — [`Run::trie`] for a fresh
    /// build, the execution layer's fetch-or-build through the access cache —
    /// then the collapsed unsealed buffer's. `positions` is a permutation of
    /// `0..arity`, checked here.
    pub fn assemble<E: From<StorageError>>(
        delta: &DeltaRelation,
        positions: &[usize],
        run_trie: impl FnMut(&Arc<Run>) -> Result<Arc<Trie>, E>,
    ) -> Result<Self, E> {
        crate::trie::check_positions(delta.arity(), positions)?;
        let mut tries = delta
            .runs
            .iter()
            .map(run_trie)
            .collect::<Result<Vec<_>, E>>()?;
        tries.extend(delta.buffer_trie(positions)?.map(Arc::new));
        let arity = delta.arity();
        Ok(DeltaAccess { arity, tries })
    }

    /// Build every run's trie afresh, with the attribute order given as
    /// **column positions**; `threads` parallelizes each build.
    pub fn build_positions(
        delta: &DeltaRelation,
        positions: &[usize],
        threads: usize,
    ) -> Result<Self, StorageError> {
        Self::assemble(delta, positions, |run| {
            run.trie(positions, threads).map(Arc::new)
        })
    }

    /// The tries being merged, in run order — a single one without tombstones
    /// needs no union cursor.
    pub fn tries(&self) -> &[Arc<Trie>] {
        &self.tries
    }

    /// [`DeltaAccess::build_positions`] with the order given by attribute names.
    pub fn build(
        delta: &DeltaRelation,
        attr_order: &[&str],
        threads: usize,
    ) -> Result<Self, StorageError> {
        Self::build_positions(delta, &delta.schema.positions(attr_order)?, threads)
    }

    /// Number of levels (the relation's arity).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// A [`DeltaCursor`] positioned at the root. Its per-level frames are
    /// allocated here and reused for every group opened at that level.
    pub fn cursor(&self) -> DeltaCursor<'_> {
        DeltaCursor {
            runs: self.tries.iter().map(|t| t.cursor()).collect(),
            frames: vec![Frame::default(); self.arity],
            depth: 0,
            work: CursorWork::default(),
            simd: crate::simd::active_level(),
        }
    }
}

/// "This run does not hold the value" in [`Frame::offsets`].
const ABSENT: usize = usize::MAX;

/// One level of the union: the sibling group open there — the sorted live
/// values extending the current prefix — and where each value sits in the runs
/// that hold it.
#[derive(Debug, Clone, Default)]
struct Frame<'a> {
    /// The group, when one run alone holds the prefix and no tombstone lies
    /// under it: that run's trie's own slice.
    borrowed: Option<&'a [Value]>,
    /// The group otherwise: the merge of the runs' groups.
    merged: Vec<Value>,
    pos: usize,
    /// The runs holding the prefix — each one's cursor is open at its group.
    active: Vec<usize>,
    /// Merged groups only: `offsets[i * active.len() + k]` is where value `i`
    /// sits in the group of run `active[k]`, or [`ABSENT`]. (A borrowed
    /// group's value `i` sits at offset `i` of its one run.)
    offsets: Vec<usize>,
    /// How many groups this level has held (at least one once it has any),
    /// and the parent's `(fills, pos)` the present one was opened under:
    /// while the parent has not moved, a re-`open` finds the group still here
    /// and only re-charges its `steps`, so the tallies stay a pure function
    /// of the visited values.
    fills: u64,
    under: Option<(u64, usize)>,
    steps: u64,
    /// [`Frame::merge`]'s scratch: the runs' groups and its position in each.
    groups: Vec<&'a [Value]>,
    heads: Vec<usize>,
}

impl<'a> Frame<'a> {
    fn values(&self) -> &[Value] {
        self.borrowed.unwrap_or(&self.merged)
    }

    /// Where the current value sits in the group of run `active[k]`.
    fn offset_in(&self, k: usize) -> usize {
        match self.borrowed {
            Some(_) => self.pos,
            None => self.offsets[self.pos * self.active.len() + k],
        }
    }

    /// Merge the open groups of the `active` runs into `merged`/`offsets`,
    /// keeping a value iff its signed subtree count is positive. Returns the
    /// merge steps taken: one per (value, run).
    fn merge(&mut self, runs: &[TrieCursor<'a>]) -> u64 {
        let signed = self
            .active
            .iter()
            .any(|&r| !runs[r].prefix_is_tombstone_free());
        self.groups.clear();
        self.groups
            .extend(self.active.iter().map(|&r| runs[r].remaining()));
        self.heads.clear();
        self.heads.resize(self.groups.len(), 0);
        let mut steps = 0u64;
        loop {
            let heads = self.groups.iter().zip(&self.heads);
            let Some(v) = heads.filter_map(|(g, &h)| g.get(h)).min().copied() else {
                return steps;
            };
            let row = self.offsets.len();
            let mut net = 0i64;
            for (k, head) in self.heads.iter_mut().enumerate() {
                if self.groups[k].get(*head) != Some(&v) {
                    self.offsets.push(ABSENT);
                    continue;
                }
                if signed {
                    net += runs[self.active[k]].signed_count_at(*head);
                }
                self.offsets.push(*head);
                *head += 1;
                steps += 1;
            }
            if !signed || net > 0 {
                self.merged.push(v);
            } else {
                self.offsets.truncate(row);
            }
        }
    }
}

/// A [`crate::TrieAccess`] cursor over a [`DeltaAccess`] — the **union cursor**: one
/// [`TrieCursor`] per run, kept in lockstep along the union's path. `open` is
/// one `child_start` lookup per run holding the current value; when a single
/// run holds the prefix with no tombstone under it the group is that trie's
/// own slice (with the layout it has), otherwise the runs' distinct sibling groups
/// are k-way merged, keeping a value iff its signed subtree count is positive.
/// The root group is uncounted (each parallel worker opens it once per
/// private cursor); deeper opens charge `delta_merge` work that depends only
/// on the prefix, which is what keeps parallel merged counters bit-identical
/// to serial execution.
#[derive(Debug, Clone)]
pub struct DeltaCursor<'a> {
    runs: Vec<TrieCursor<'a>>,
    /// One frame per level; `frames[..depth]` are open.
    frames: Vec<Frame<'a>>,
    depth: usize,
    work: CursorWork,
    simd: crate::simd::SimdLevel,
}

impl<'a> DeltaCursor<'a> {
    fn top(&self) -> Option<&Frame<'a>> {
        self.frames[..self.depth].last()
    }

    /// The open frame, if it has values left from its position.
    fn live_top(&mut self) -> Option<&mut Frame<'a>> {
        let top = self.frames[..self.depth].last_mut()?;
        (top.pos < top.values().len()).then_some(top)
    }
}

impl crate::access::TrieAccess for DeltaCursor<'_> {
    fn arity(&self) -> usize {
        self.frames.len()
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn open(&mut self) -> bool {
        let (open, rest) = self.frames.split_at_mut(self.depth);
        let Some(frame) = rest.first_mut() else {
            return false;
        };
        frame.pos = 0;
        frame.active.clear();
        // one child_start lookup per run that holds the current value
        match open.last() {
            None => {
                let opened = (0..self.runs.len()).filter(|&r| self.runs[r].open());
                frame.active.extend(opened);
            }
            Some(parent) if parent.pos >= parent.values().len() => return false,
            Some(parent) => {
                for (k, &r) in parent.active.iter().enumerate() {
                    let at = parent.offset_in(k);
                    if at != ABSENT && self.runs[r].open_at(at) {
                        frame.active.push(r);
                    }
                }
                self.work.delta_merge += frame.active.len() as u64;
            }
        }
        // the root group is always the same one: (0, 0) is no parent's key
        let under = open.last().map_or((0, 0), |p| (p.fills, p.pos));
        if frame.under != Some(under) {
            (frame.under, frame.fills) = (Some(under), frame.fills + 1);
            frame.borrowed = None;
            frame.merged.clear();
            frame.offsets.clear();
            frame.steps = match frame.active[..] {
                [r] if self.runs[r].prefix_is_tombstone_free() => {
                    frame.borrowed = Some(self.runs[r].remaining());
                    0
                }
                _ => frame.merge(&self.runs),
            };
        }
        // the root merge is uncounted: parallel workers each do it once per
        // private cursor, so charging it would make merged counters depend on
        // the worker count
        if self.depth > 0 {
            self.work.delta_merge += frame.steps;
        }
        if frame.values().is_empty() {
            frame.active.iter().for_each(|&r| self.runs[r].up());
            return false;
        }
        self.depth += 1;
        true
    }

    fn up(&mut self) {
        if let Some(depth) = self.depth.checked_sub(1) {
            self.depth = depth;
            let closed = &self.frames[depth];
            closed.active.iter().for_each(|&r| self.runs[r].up());
        }
    }

    fn key(&self) -> Value {
        let f = self.top().expect("cursor is at the root");
        f.values()[f.pos]
    }

    fn at_end(&self) -> bool {
        self.top().is_none_or(|f| f.pos >= f.values().len())
    }

    fn next(&mut self) -> bool {
        self.work.intersect_steps += 1;
        let Some(f) = self.live_top() else {
            return false;
        };
        f.pos += 1;
        f.pos < f.values().len()
    }

    fn seek(&mut self, target: Value) -> bool {
        let simd = self.simd;
        let Some(f) = self.live_top() else {
            return false;
        };
        let values = f.values();
        let (pos, probes, cmps) = crate::ops::seek_lub(simd, values, f.pos, values.len(), target);
        let found = pos < values.len();
        f.pos = pos;
        self.work.probes += probes;
        self.work.comparisons += cmps;
        found
    }

    fn reposition(&mut self, target: Value) -> bool {
        let Some(f) = self.frames[..self.depth].last_mut() else {
            return false;
        };
        let found = f.values().binary_search(&target);
        f.pos = found.unwrap_or_else(|i| i);
        found.is_ok()
    }

    fn advance_to(&mut self, target: Value) -> bool {
        let simd = self.simd;
        let Some(f) = self.live_top() else {
            return false;
        };
        let values = f.values();
        if values[f.pos] < target {
            f.pos = crate::ops::advance_lub(simd, values, f.pos, values.len(), target);
        }
        f.values().get(f.pos) == Some(&target)
    }

    fn remaining(&self) -> &[Value] {
        self.top().map_or(&[], |f| &f.values()[f.pos..])
    }

    fn layout(&self) -> Option<crate::kernels::Layout<'_>> {
        // a borrowed group is its run's own: so is the layout the trie built
        let f = self.top()?;
        f.borrowed.and(self.runs[*f.active.first()?].layout())
    }

    fn take_work(&mut self) -> CursorWork {
        std::mem::take(&mut self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::TrieAccess;

    fn schema_ab() -> Schema {
        Schema::new(&["A", "B"])
    }

    fn enumerate(c: &mut DeltaCursor<'_>, arity: usize) -> Vec<Tuple> {
        fn walk(c: &mut DeltaCursor<'_>, arity: usize, prefix: &mut Tuple, out: &mut Vec<Tuple>) {
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

    /// The union cursor must enumerate exactly the snapshot, for every order.
    fn assert_cursor_matches_snapshot(d: &DeltaRelation) {
        let snap = d.snapshot();
        for order in [vec!["A", "B"], vec!["B", "A"]] {
            let access = DeltaAccess::build(d, &order, 1).unwrap();
            let mut cursor = access.cursor();
            let got = enumerate(&mut cursor, 2);
            let expected = snap.reorder(&order).unwrap();
            assert_eq!(got, expected.rows(), "order {order:?}");
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
        assert_cursor_matches_snapshot(&d2);
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
        assert_cursor_matches_snapshot(&d);
        let expected = vec![vec![1, 2], vec![2, 2], vec![3, 3], vec![4, 4], vec![5, 5]];
        assert_eq!(d.snapshot().rows(), expected);
        d.compact();
        assert_eq!(d.num_runs(), 1);
        assert_eq!(d.tombstones(), 0);
        assert_eq!(d.snapshot().rows(), expected);
        assert_cursor_matches_snapshot(&d);
    }

    #[test]
    fn interior_value_fully_tombstoned_is_suppressed() {
        // base holds both tuples under A=1; delete BOTH -> the union cursor must
        // not present A=1 at depth 1 even though base rows still exist
        let mut d = DeltaRelation::from_relation(Relation::from_rows(
            schema_ab(),
            vec![vec![1, 10], vec![1, 11], vec![2, 20]],
        ));
        d.delete(&[1, 10]).unwrap();
        d.delete(&[1, 11]).unwrap();
        d.seal();
        let access = DeltaAccess::build(&d, &["A", "B"], 1).unwrap();
        let mut c = access.cursor();
        assert!(c.open());
        assert_eq!(TrieAccess::remaining(&c), &[2]);
        assert_cursor_matches_snapshot(&d);
    }

    #[test]
    fn unsealed_buffer_is_visible_to_queries() {
        let mut d = DeltaRelation::new(schema_ab());
        d.insert(vec![7, 8]).unwrap();
        assert_eq!(d.num_runs(), 0);
        assert_eq!(d.buffered(), 1);
        assert_cursor_matches_snapshot(&d); // ephemeral run path
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
        assert_cursor_matches_snapshot(&d);
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
            assert_cursor_matches_snapshot(&d);
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
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(16);
        let mut reference: BTreeSet<Tuple> = BTreeSet::new();
        let mut state = 0xD17Au64;
        let mut rng = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..600 {
            let t = vec![rng() % 12, rng() % 12];
            if rng() % 3 == 0 {
                assert_eq!(d.delete(&t).unwrap(), reference.remove(&t));
            } else {
                assert_eq!(d.insert(t.clone()).unwrap(), reference.insert(t));
            }
            if step % 97 == 0 {
                let rows: Vec<Tuple> = reference.iter().cloned().collect();
                assert_eq!(d.snapshot().rows(), rows, "step {step}");
                assert_cursor_matches_snapshot(&d);
            }
        }
        d.compact();
        let rows: Vec<Tuple> = reference.iter().cloned().collect();
        assert_eq!(d.snapshot().rows(), rows);
        assert_eq!(d.len(), rows.len());
        assert_cursor_matches_snapshot(&d);
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
            assert_eq!(d.snapshot(), d.collapse(), "round {round}");
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
            assert_eq!(d.snapshot(), d.collapse(), "round {round}: churned");
            d.compact();
            assert!(d.num_runs() <= 1 && d.tombstones() == 0);
            assert_eq!(d.snapshot(), d.collapse(), "round {round}: compacted");
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
        let access = DeltaAccess::build(&d, &["A", "B"], 1).unwrap();
        let mut c = access.cursor();
        assert_eq!(c.arity(), 2);
        assert!(c.at_end()); // root
        assert!(c.open());
        assert!(c.take_work().is_zero(), "root merge is uncounted");
        assert_eq!(TrieAccess::remaining(&c), &[0, 1, 2, 3]);
        assert!(c.seek(2));
        assert_eq!(c.key(), 2);
        assert!(c.reposition(0));
        assert!(c.open()); // B under A=0: 4, 8, ... (0 was deleted)
        let w = c.take_work();
        assert!(w.delta_merge > 0, "deep opens charge delta_merge");
        assert_eq!(c.key(), 4);
        assert!(c.advance_to(8));
        c.up();
        c.up();
        assert_eq!(c.depth(), 0);
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
        let access = DeltaAccess::build(&d, &["A", "B"], 1).unwrap();
        let mut c = access.cursor();
        assert!(c.open());
        c.take_work();
        assert!(c.open());
        let first = c.take_work();
        // two child_start lookups, then one merge step per (value, run)
        assert_eq!(first.delta_merge, 2 + 32 + 8);
        assert_eq!(TrieAccess::remaining(&c).len(), 32, "4 dead, 4 fresh");
        c.up();
        assert!(c.open()); // the group is still in the level's frame: same work charged
        assert_eq!(c.take_work().delta_merge, first.delta_merge);
        c.up();
        assert!(c.next());
        assert!(c.open());
        assert_eq!(c.take_work().delta_merge, first.delta_merge);
    }

    #[test]
    fn build_rejects_bad_orders_and_cursors_are_send_clone() {
        let d = DeltaRelation::new(schema_ab());
        assert!(DeltaAccess::build(&d, &["A"], 1).is_err());
        assert!(DeltaAccess::build(&d, &["A", "A"], 1).is_err());
        assert!(DeltaAccess::build(&d, &["A", "Z"], 1).is_err());
        assert!(DeltaAccess::build_positions(&d, &[0, 0], 1).is_err());
        fn assert_send_clone<T: Send + Clone>() {}
        fn assert_sync<T: Sync>() {}
        assert_send_clone::<DeltaCursor<'_>>();
        assert_sync::<DeltaAccess>();
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

    /// Depth-first rows of a fresh cursor of `access`, with the work the walk
    /// charged — what "cursor for cursor" compares.
    fn walk(access: &DeltaAccess) -> (Vec<Tuple>, CursorWork) {
        let mut c = access.cursor();
        let rows = enumerate(&mut c, access.arity());
        (rows, c.take_work())
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
            d.seal(); // else the tombstones ride in the ephemeral run
        }
        d
    }

    #[test]
    fn the_union_cursor_over_signed_run_tries_enumerates_the_snapshot() {
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut merged_somewhere = false;
        for seed in 0..40u64 {
            let d = random_log(0x7A1E ^ seed);
            let snap = d.snapshot();
            assert!(snap.iter().all(|t| t[0] != 3), "seed {seed}");
            for positions in orders {
                let names: Vec<&str> = positions.iter().map(|&p| ["A", "B", "C"][p]).collect();
                let expected = snap.reorder(&names).unwrap().rows();
                let fresh = DeltaAccess::build_positions(&d, &positions, 1).unwrap();
                let (rows, work) = walk(&fresh);
                assert_eq!(rows, expected, "seed {seed} order {positions:?}");
                merged_somewhere |= work.delta_merge > 0;
                // four build workers, and tries kept from an earlier build
                // (what the access cache hands back): same rows, same work
                let par = DeltaAccess::build_positions(&d, &positions, 4).unwrap();
                assert_eq!(par.tries, fresh.tries);
                assert_eq!(walk(&par), (rows.clone(), work));
                let mut held = fresh.tries().iter().cloned();
                let next = |_: &Arc<Run>| Ok::<_, StorageError>(held.next().unwrap());
                let kept = DeltaAccess::assemble(&d, &positions, next).unwrap();
                assert_eq!(walk(&kept), (rows, work), "seed {seed} order {positions:?}");
            }
        }
        assert!(merged_somewhere);
    }

    #[test]
    fn run_tries_are_built_per_run_shared_and_die_with_the_run() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        for (chunk, size) in [(0u64, 200u64), (1, 40), (2, 8)] {
            for i in 0..size {
                d.insert(vec![i % 13 + 100 * chunk, i / 13 * 3 + chunk])
                    .unwrap();
            }
            // a tombstone for a chunk-0 row in every run after the first
            assert!(d.delete(&[chunk, 0]).unwrap());
            d.seal();
        }
        assert_eq!(d.num_runs(), 3, "{:?}", d.run_sizes());
        assert_eq!(
            d.runs().iter().map(|r| r.id()).collect::<Vec<_>>(),
            d.run_ids()
        );
        for positions in [[0usize, 1], [1, 0]] {
            let tries: Vec<Arc<Trie>> = d
                .runs()
                .iter()
                .map(|r| Arc::new(r.trie(&positions, 1).unwrap()))
                .collect();
            let mut shed_a_layout = false;
            for ((trie, run), rows) in tries.iter().zip(d.runs()).zip(d.run_sizes()) {
                assert_eq!((trie.num_tuples(), run.len()), (rows, rows));
                // without tombstones a run's trie is the static relation's,
                // bit for bit; with them it is the CSR arrays and the flags (a
                // bit a leaf plus a count a word) — it is not a set of live
                // values, so it carries no set layouts
                assert_eq!(trie.has_tombstones(), run.tombstones() > 0);
                let plain = Trie::build_positions(&run.rel, &positions).unwrap();
                if trie.has_tombstones() {
                    let csr = 8 * (rows + 2 * trie.nodes_at(0) + 1) + "AB".len();
                    assert_eq!(trie.heap_bytes(), csr + 16 * (rows / 64 + 1));
                    shed_a_layout |= plain.heap_bytes() > csr;
                    let mut cursor = trie.cursor();
                    assert!(cursor.open() && cursor.layout().is_none());
                } else {
                    assert_eq!(**trie, plain);
                }
            }
            assert!(!tries[0].has_tombstones() && tries[1].has_tombstones());
            assert!(
                shed_a_layout,
                "the fixture has a dense group under tombstones"
            );
            // unsealed ops ride on the kept tries through the ephemeral run
            let mut d2 = d.clone();
            d2.insert(vec![999, 1]).unwrap();
            d2.delete(&[3, 3]).unwrap();
            let mut with_buffer = tries.clone();
            with_buffer.extend(d2.buffer_trie(&positions).unwrap().map(Arc::new));
            assert_eq!(with_buffer.len(), 4);
            let fresh = DeltaAccess::build_positions(&d2, &positions, 1).unwrap();
            let kept = DeltaAccess {
                arity: 2,
                tries: with_buffer,
            };
            assert_eq!(walk(&kept), walk(&fresh));
        }
        // a run is held by the logs that list it and by nothing else
        let weak: Vec<_> = d.runs().iter().map(Arc::downgrade).collect();
        let mut head = d.clone();
        head.compact();
        assert!(weak.iter().all(|w| w.strong_count() > 0), "`d` pins them");
        drop(d);
        assert!(weak.iter().all(|w| w.strong_count() == 0));
        assert!(head.buffer_trie(&[0, 1]).unwrap().is_none());
        assert!(DeltaAccess::build_positions(&head, &[0, 0], 1).is_err());
        assert!(DeltaAccess::build_positions(&head, &[0], 1).is_err());
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
                    for run in log.runs() {
                        assert!(is_canonical(run.rel.columns(), run.len()), "seed {seed}");
                    }
                    assert_cursor_matches_snapshot(&log);
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

    #[test]
    fn parallel_access_build_matches_serial() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(1024);
        for i in 0..6000u64 {
            d.insert(vec![i % 97, (i * 7) % 89]).unwrap();
        }
        d.seal();
        for threads in [2, 4] {
            for order in [vec!["A", "B"], vec!["B", "A"]] {
                let serial = DeltaAccess::build(&d, &order, 1).unwrap();
                let par = DeltaAccess::build(&d, &order, threads).unwrap();
                let mut cs = serial.cursor();
                let mut cp = par.cursor();
                assert_eq!(enumerate(&mut cs, 2), enumerate(&mut cp, 2), "x{threads}");
            }
        }
    }
}
