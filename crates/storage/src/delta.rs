//! Incremental maintenance: delta-log relations, read as one tombstone-free run.
//!
//! A [`crate::Trie`] is built over an immutable, canonically sorted
//! [`Relation`] — and [`Relation::insert`] pays O(n) per tuple to keep that
//! order. This module is the storage layout that makes the engines'
//! worst-case-optimal guarantees usable over a *live, continuously-ingesting*
//! database, and it is the one way a catalog stores a relation: a loaded
//! relation is a log whose run is its rows ([`DeltaRelation::from_relation`]).
//!
//! * a [`DeltaRelation`] is **at most one run** — an immutable, sorted,
//!   canonical relation holding the live tuples as of the last seal, with no
//!   tombstone — plus an unsorted **append buffer** of toggles in arrival
//!   order;
//! * [`DeltaRelation::insert`] / [`DeltaRelation::delete`] append to the buffer
//!   after an O(arity)-expected liveness probe of an incrementally-maintained
//!   live-tuple hash index, at the price of one extra copy of each live tuple
//!   (unary/binary tuples pack into `u128` keys there). The buffer is
//!   columnar at every arity — one column per attribute — so an append
//!   allocates nothing of its own. When the buffer reaches the seal
//!   threshold it is **sealed**: merged into the run by one linear merge,
//!   which writes a new run with a fresh id;
//! * query-side, a log is read as that run ([`DeltaRelation::fold`]), with a
//!   non-empty buffer merged into it per query by the same merge
//!   ([`DeltaRelation::live_run`]). Either way the result is a plain canonical
//!   relation and [`Run::trie`] the one trie builder over it, set layouts
//!   included: the sorted set of values extending a prefix exists *before* the
//!   join, as Generic Join and Leapfrog Triejoin assume (Section 2), and a
//!   query over a log runs the static path on its snapshot, bit for bit, work
//!   counters included.
//!
//! # Cost model
//!
//! | operation | full rebuild ([`Relation`]) | delta log |
//! | --- | --- | --- |
//! | single insert/delete | O(n) shift | O(arity) expected + amortized O(log B) seal sort + O(n/B) seal merge |
//! | seal (per `B` buffered ops) | — | O(B log B) sort of the buffer + one O(n + B) linear merge into the run |
//! | extra memory | — | live-tuple hash index (packed `u128`s for arity ≤ 2) |
//! | access-structure build | O(n log n) argsort + scan | the same builder over the run, once per order and run, memoized on the run; identity orders skip the argsort |
//! | query with `B` ops buffered | — | O(B log B) sort of the buffer + one O(n + B) merge into the run + the build, per relation and order |
//! | cursor `open` of a prefix | one `child_start` lookup | the same: the run's trie is a trie |
//! | query result | — | **bit-identical**, rows and work counters, to rebuilding from [`DeltaRelation::snapshot`] |
//!
//! The trade: a seal writes O(n + B) values, n the live rows. A stack of
//! size-tiered runs would amortize a seal's writes to O(log(n/B)) per op, but
//! a query reads a log as one run, so the first read after a seal would fold
//! the stack at O(n) anyway — and every workload here reads between seals.
//! On the gated ingest stream (`edge_stream_ops(16384, 8192)`, seal threshold
//! 4096) the log writes 126 908 values, where a tiered stack wrote 148 896.
//!
//! A buffered op is a **toggle**. The live set admits only an insert of a
//! dead tuple and a delete of a live one, so every op the buffer holds flips
//! its tuple's liveness, and no op carries a sign. A tuple buffered an odd
//! number of times changed; one buffered an even number did not. A seal and
//! a query's merge take the odd ones (sorted, distinct) and merge them into
//! the run as a **symmetric difference**: a row found in both was live and is
//! now deleted, so both drop; a row found in one passes. The result holds
//! exactly the live tuples, each once, with no tombstone, and every
//! (run, buffer) pair is a valid state — which is what lets the checkpoint
//! decoder trust any canonical run and any buffer.

use crate::error::StorageError;
use crate::fxhash::FxHasher;
use crate::relation::{argsort_columns, is_canonical, Relation, Tuple};
use crate::schema::Schema;
use crate::trie::Trie;
use crate::wal::PayloadReader;
use crate::Value;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The live-tuple membership index: one entry per live tuple, maintained
/// incrementally by `insert`/`delete` (hashed with the in-tree [`FxHasher`];
/// the keys are dense codes). This is the LSM "memtable filter" that makes the
/// per-operation liveness check O(arity) expected instead of an O(log n)
/// binary search of the run — at the cost of one extra copy of each live
/// tuple. Unary and binary tuples (the streaming graph case) pack into `u128`
/// keys, so the hot ingest path neither allocates nor hashes a heap tuple.
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

/// The first 8 bytes of every [`DeltaRelation::encode_state`] blob. A blob of
/// the earlier layout began with its seal threshold, so it fails this check.
const STATE_TAG: [u8; 8] = *b"wcojdlt2";

/// The immutable sorted run of a [`DeltaRelation`]: a canonical relation of
/// live tuples, no tombstone among them. Opaque outside this module except as
/// a build input: the execution layer reads [`Run::shared_trie`] of a log's
/// run, which memoizes the run's tries per column order, so they die with it.
#[derive(Debug)]
pub struct Run {
    /// Process-unique identity stamp ([`crate::cache::next_stamp`]): runs are
    /// immutable, so equal ids imply identical content.
    id: u64,
    /// The run's rows: sorted, distinct, live tuples.
    rel: Relation,
    /// The tries built over the rows, one per column order read. Builds
    /// happen outside the lock; when two race, the first insert wins.
    tries: Mutex<Vec<(Vec<usize>, Arc<Trie>)>>,
}

impl Run {
    /// A run over canonical rows, under a fresh id.
    fn new(rel: Relation) -> Arc<Run> {
        Arc::new(Run {
            id: crate::cache::next_stamp(),
            rel,
            tries: Mutex::default(),
        })
    }

    /// The run's identity stamp ([`DeltaRelation::run_ids`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Rows in the run.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Whether the run has no rows (a sealed run never is).
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// The run's access structure for the column order `positions`: the one
    /// trie builder over the run's rows, built fresh.
    pub fn trie(&self, positions: &[usize]) -> Result<Trie, StorageError> {
        Trie::build_positions(&self.rel, positions)
    }

    /// The run's trie for `positions`, memoized on the run, and whether it
    /// already was (a hit) or this call built it (a miss). A memoized trie is
    /// the one [`Run::trie`] builds, bit for bit, and lives as long as the run.
    pub fn shared_trie(&self, positions: &[usize]) -> Result<(Arc<Trie>, bool), StorageError> {
        let find = |tries: &[(Vec<usize>, Arc<Trie>)]| {
            let (_, trie) = tries.iter().find(|(p, _)| p == positions)?;
            Some(Arc::clone(trie))
        };
        if let Some(trie) = find(&self.lock_tries()) {
            return Ok((trie, true));
        }
        let built = Arc::new(self.trie(positions)?);
        let mut tries = self.lock_tries();
        let trie = find(&tries).unwrap_or_else(|| {
            tries.push((positions.to_vec(), Arc::clone(&built)));
            built
        });
        Ok((trie, false))
    }

    /// Heap bytes of the tries memoized on the run.
    pub fn trie_bytes(&self) -> usize {
        self.lock_tries().iter().map(|(_, t)| t.heap_bytes()).sum()
    }

    /// The memo, whole even if a holder panicked: it is only ever pushed to.
    fn lock_tries(&self) -> MutexGuard<'_, Vec<(Vec<usize>, Arc<Trie>)>> {
        self.tries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The tuples of column-major `cols` that occur an odd number of times, as
/// canonical (sorted, distinct) columns: the buffered tuples whose liveness
/// the buffer flipped. Equal tuples are adjacent after the argsort, so one
/// pass counts each group's parity.
fn odd_tuples(cols: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let len = cols[0].len();
    let positions: Vec<usize> = (0..cols.len()).collect();
    let perm = argsort_columns(cols, &positions, len);
    let mut out: Vec<Vec<Value>> = vec![Vec::new(); cols.len()];
    let mut i = 0;
    while i < len {
        let a = perm[i];
        let mut j = i + 1;
        while j < len && cols.iter().all(|c| c[perm[j]] == c[a]) {
            j += 1;
        }
        if (j - i) % 2 == 1 {
            for (col, src) in out.iter_mut().zip(cols) {
                col.push(src[a]);
            }
        }
        i = j;
    }
    out
}

/// The one merge: the symmetric difference of the tombstone-free `run`
/// (canonical columns; none for no run) and `toggles` (canonical columns of
/// [`odd_tuples`]), by a linear two-pointer pass. A row found in both drops —
/// a buffered delete met its row — and a row found in one passes.
/// O(|run| + |toggles|); returns the live tuples' canonical columns.
fn symmetric_difference(run: &[Vec<Value>], toggles: &[Vec<Value>]) -> Vec<Vec<Value>> {
    use std::cmp::Ordering;
    let (an, bn) = (run.first().map_or(0, Vec::len), toggles[0].len());
    let mut out: Vec<Vec<Value>> = (0..toggles.len())
        .map(|_| Vec::with_capacity(an + bn))
        .collect();
    let push = |out: &mut [Vec<Value>], from: &[Vec<Value>], i: usize| {
        for (col, src) in out.iter_mut().zip(from) {
            col.push(src[i]);
        }
    };
    let (mut i, mut j) = (0, 0);
    while i < an && j < bn {
        let mut cmp = run.iter().zip(toggles).map(|(a, b)| a[i].cmp(&b[j]));
        match cmp.find(|o| o.is_ne()) {
            Some(Ordering::Less) => {
                push(&mut out, run, i);
                i += 1;
            }
            Some(_) => {
                push(&mut out, toggles, j);
                j += 1;
            }
            None => {
                i += 1;
                j += 1;
            }
        }
    }
    for (col, src) in out.iter_mut().zip(run) {
        col.extend_from_slice(&src[i..]);
    }
    for (col, src) in out.iter_mut().zip(toggles) {
        col.extend_from_slice(&src[j..]);
    }
    out
}

/// A relation stored as a delta log: at most one tombstone-free run plus an
/// append buffer. See the [module docs](crate::delta) for the layout and cost
/// model.
///
/// The run is immutable and `Arc`-shared, and the live-tuple index is
/// copy-on-write, so **cloning is cheap**: a refcount bump plus one copy of
/// the (threshold-bounded) append buffer. That is what MVCC snapshots
/// (`wcoj_query`'s `Database::snapshot`) pin — a clone freezes the
/// `(run, buffer)` state by refcount while the original keeps ingesting; the
/// first post-clone `insert`/`delete` pays a one-time O(live) copy of the
/// shared live-tuple index.
#[derive(Debug, Clone)]
pub struct DeltaRelation {
    schema: Schema,
    /// The live tuples as of the last seal, or `None` when there are none.
    /// `Arc`-shared: snapshot clones pin it by refcount, never by copying.
    run: Option<Arc<Run>>,
    /// Unsealed operations in arrival order, one column per attribute. Each
    /// op toggles its tuple's liveness (see the [module docs](crate::delta)).
    buffer: Vec<Vec<Value>>,
    /// Exactly the live tuples, maintained incrementally — O(1) liveness, and
    /// the guard that admits only ops that flip it, without per-op run
    /// searches.
    /// Copy-on-write (`Arc::make_mut`): queries never read it beyond `len()`,
    /// so snapshot clones share it until the writer's next mutation.
    live_set: Arc<LiveSet>,
    seal_threshold: usize,
    /// Modification epoch: a fresh process-unique stamp
    /// ([`crate::cache::next_stamp`]) on every mutation, so equal epochs imply
    /// identical visible state — what compare-and-set writers validate
    /// against. (Trie reuse never reads it: tries are memoized on the run.)
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
            schema,
            run: None,
            live_set,
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            epoch: crate::cache::next_stamp(),
            values_written: 0,
        })
    }

    /// Wrap an existing relation as the run of a new delta log. Panics on a
    /// zero-arity relation (use [`DeltaRelation::try_from_relation`]).
    pub fn from_relation(rel: Relation) -> Self {
        Self::try_from_relation(rel).expect("delta relations need at least one column")
    }

    /// Wrap an existing relation as the run of a new delta log (an empty
    /// relation is a log with no run), rejecting zero-arity relations with
    /// [`StorageError::EmptySchema`]. This is how every loaded relation is
    /// stored, so the live set is filled straight from the columns: packed
    /// keys for arity ≤ 2, one tuple per row only above that.
    pub fn try_from_relation(rel: Relation) -> Result<Self, StorageError> {
        let mut log = DeltaRelation::try_new(rel.schema().clone())?;
        log.live_set = Arc::new(match rel.columns() {
            [a] => LiveSet::Packed(a.iter().map(|&x| pack2(&[x])).collect()),
            [a, b] => LiveSet::Packed(a.iter().zip(b).map(|(&x, &y)| pack2(&[x, y])).collect()),
            _ => LiveSet::General(rel.iter().collect()),
        });
        log.run = (!rel.is_empty()).then(|| Run::new(rel));
        Ok(log)
    }

    /// Take a fresh epoch stamp; called on every visible mutation (ingest,
    /// seal). Over-stamping is harmless — a changed epoch only makes an
    /// optimistic writer retry.
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
    /// count on): `arity` per buffered operation, plus `arity` per row of the
    /// run each seal writes (its sort of the buffer is scratch). The ingest cost
    /// `core/tests/delta.rs` compares with sorted rows' shifted values.
    pub fn values_written(&self) -> u64 {
        self.values_written
    }

    /// The run's identity stamp, if the log has a run: `[]` or `[id]`. Runs
    /// are immutable, so an id names one run's content for as long as the
    /// process lives: a seal that changes the live tuples replaces the id,
    /// and clones of the log (snapshots) keep the id of the run they share.
    pub fn run_ids(&self) -> Vec<u64> {
        self.run.iter().map(|r| r.id).collect()
    }

    /// The log's run — the live tuples as of the last seal — or `None` for a
    /// log with no sealed live tuple. Its memoized tries
    /// ([`Run::shared_trie`]) die once no log holds it.
    pub fn fold(&self) -> Option<Arc<Run>> {
        self.run.clone()
    }

    /// The live tuples as one tombstone-free run — what a query reads: the
    /// [`DeltaRelation::fold`] when nothing is buffered, else the unsealed
    /// buffer's toggles merged into it, a fresh run per call (the log is not
    /// touched — queries take `&DeltaRelation`). A log with neither is an
    /// empty run.
    pub fn live_run(&self) -> Arc<Run> {
        match &self.run {
            Some(run) if self.buffered() == 0 => Arc::clone(run),
            _ => Run::new(self.merged(&odd_tuples(&self.buffer))),
        }
    }

    /// The run with `toggles` merged in, by [`symmetric_difference`].
    fn merged(&self, toggles: &[Vec<Value>]) -> Relation {
        let run = self.run.as_ref().map_or(&[][..], |r| r.rel.columns());
        Relation::from_canonical_columns(self.schema.clone(), symmetric_difference(run, toggles))
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

    /// Number of buffered (unsealed) operations.
    pub fn buffered(&self) -> usize {
        self.buffer[0].len()
    }

    /// Override the automatic seal threshold (buffered operations before
    /// [`DeltaRelation::seal`] runs implicitly). Lower values mean more
    /// frequent, smaller seals.
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
    /// (O(log B)) and of the seal's merge (O(n/B)). For unary/binary
    /// relations the append is allocation-free (see [`DeltaRelation::insert_ref`]).
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
        self.push_op(tuple);
        self.values_written += tuple.len() as u64;
        self.touch();
        self.maybe_seal();
        Ok(true)
    }

    /// Delete a tuple (a toggle of a live tuple). Returns whether it was live. Same
    /// amortized cost as [`DeltaRelation::insert`].
    pub fn delete(&mut self, tuple: &[Value]) -> Result<bool, StorageError> {
        self.check_arity(tuple.len())?;
        if Arc::strong_count(&self.live_set) > 1 && !self.live_set.contains(tuple) {
            return Ok(false); // no-op while snapshot-shared: skip the copy-on-write
        }
        if !Arc::make_mut(&mut self.live_set).remove(tuple) {
            return Ok(false); // not live: blind delete is a no-op
        }
        self.push_op(tuple);
        self.values_written += tuple.len() as u64;
        self.touch();
        self.maybe_seal();
        Ok(true)
    }

    /// Append one toggle to the buffer, in arrival order.
    fn push_op(&mut self, tuple: &[Value]) {
        for (col, &v) in self.buffer.iter_mut().zip(tuple) {
            col.push(v);
        }
    }

    fn maybe_seal(&mut self) {
        if self.buffered() >= self.seal_threshold {
            self.seal();
        }
    }

    /// Seal the append buffer: merge the tuples it toggled an odd number of
    /// times into the run, which becomes a new run (a fresh id; no run at all
    /// if nothing stays live).
    ///
    /// Sealing an **empty** buffer is a complete no-op: the epoch is not
    /// bumped and the run is untouched, so every memoized trie of it keeps
    /// hitting. Nor does a buffer whose ops cancel out touch the run.
    pub fn seal(&mut self) {
        if self.buffered() == 0 {
            return;
        }
        let toggles = odd_tuples(&self.buffer);
        self.buffer.iter_mut().for_each(Vec::clear);
        self.touch();
        if toggles[0].is_empty() {
            return;
        }
        let merged = self.merged(&toggles);
        self.values_written += (merged.len() * self.arity()) as u64;
        self.run = (!merged.is_empty()).then(|| Run::new(merged));
    }

    /// Serialize the log's full state — its seal threshold, run and unsealed
    /// buffer — as an opaque blob for a WAL checkpoint.
    /// [`DeltaRelation::decode_state`] reconstructs a log that is **bit-exact**
    /// for recovery: the same run, the same buffered ops, so replaying the
    /// same WAL tail makes the same seals as the original process would have.
    /// (Run ids and the epoch are process-local identities and are *not*
    /// persisted; decode mints fresh ones.)
    ///
    /// The layout, every integer little-endian: the 8-byte tag `wcojdlt2`, the
    /// threshold (u64), then two blocks of a row count (u64) followed by that
    /// many values per column, column by column — the run's rows (0 for no
    /// run), and the buffered tuples in arrival order. No op carries a sign:
    /// each toggles its tuple.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = STATE_TAG.to_vec();
        out.extend_from_slice(&(self.seal_threshold as u64).to_le_bytes());
        let run = self.run.as_ref().map_or(&[][..], |r| r.rel.columns());
        for cols in [run, &self.buffer] {
            let rows = cols.first().map_or(0, Vec::len);
            out.extend_from_slice(&(rows as u64).to_le_bytes());
            for col in cols {
                out.extend(col.iter().flat_map(|v| v.to_le_bytes()));
            }
        }
        out
    }

    /// Reconstruct a delta log from [`DeltaRelation::encode_state`] bytes:
    /// the run is installed as read, and the live-tuple index is its rows
    /// with each buffered tuple toggled in arrival order. Any canonical run
    /// and any buffer make a valid log, so the only errors are malformed
    /// bytes: [`StorageError::WalCorrupt`] on a wrong format tag (every
    /// state an earlier layout wrote, signed ops and run stacks included, is
    /// refused here, never misread), a truncation, a count whose byte length
    /// overflows, a run that is not strictly ascending, or trailing bytes.
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
    /// the bytes are there.
    fn decode_from(&mut self, r: &mut PayloadReader<'_>) -> Result<(), String> {
        fn columns(r: &mut PayloadReader<'_>, arity: usize) -> Result<Vec<Vec<Value>>, String> {
            let len = (r.u64()? as usize)
                .checked_mul(8)
                .ok_or("row count overflows")?;
            let column = |raw: &[u8]| {
                let words = raw.chunks_exact(8).filter_map(|c| c.first_chunk());
                words.map(|c| Value::from_le_bytes(*c)).collect()
            };
            (0..arity).map(|_| Ok(column(r.take(len)?))).collect()
        }
        let arity = self.arity();
        if r.take(STATE_TAG.len())? != STATE_TAG {
            return Err("unknown format tag".into());
        }
        self.seal_threshold = (r.u64()? as usize).max(1);
        let run = columns(r, arity)?;
        let rows = run[0].len();
        if !is_canonical(&run, rows) {
            return Err("run rows are not strictly ascending".into());
        }
        self.buffer = columns(r, arity)?;
        r.done()?;
        let live = Arc::make_mut(&mut self.live_set);
        let mut tuple = Vec::with_capacity(arity);
        for cols in [&run, &self.buffer] {
            for i in 0..cols[0].len() {
                tuple.clear();
                tuple.extend(cols.iter().map(|c| c[i]));
                if !live.insert(&tuple) {
                    live.remove(&tuple);
                }
            }
        }
        self.run = (rows > 0)
            .then(|| Run::new(Relation::from_canonical_columns(self.schema.clone(), run)));
        Ok(())
    }

    /// Materialize the live tuples as a canonical [`Relation`] — the "full
    /// rebuild" a query over the log is differential-tested against: the rows
    /// of [`DeltaRelation::live_run`], so the run with anything buffered
    /// merged in. Does not mutate the log.
    pub fn snapshot(&self) -> Relation {
        match Arc::try_unwrap(self.live_run()) {
            Ok(run) => run.rel,
            Err(shared) => shared.rel.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // a mixed history: seals that merged deletes plus a partial buffer
        // holding inserts and deletes
        for i in 0..40u64 {
            d.insert(vec![i % 10, i / 2]).unwrap();
            if i % 3 == 0 {
                d.delete(&[i % 10, i / 2]).unwrap();
            }
        }
        assert!(d.fold().is_some() && d.buffered() > 0);
        let bytes = d.encode_state();
        let d2 = DeltaRelation::decode_state(schema_ab(), &bytes).unwrap();
        assert_eq!(
            d2.fold().unwrap().rel,
            d.fold().unwrap().rel,
            "run preserved"
        );
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
        assert_eq!(a.fold().unwrap().rel, b.fold().unwrap().rel);
        assert_eq!(a.buffered(), b.buffered());
        // every truncation is rejected, never a panic or silent success
        for cut in 0..bytes.len() {
            assert!(
                DeltaRelation::decode_state(schema_ab(), &bytes[..cut]).is_err(),
                "prefix {cut} must not decode"
            );
        }
    }

    /// Tuple `i` of [`golden_log`] at the given arity (distinct for `i < 29`).
    fn golden_tuple(arity: usize, i: u64) -> Tuple {
        (0..arity as u64).map(|c| (i * (c + 3) + c) % 29).collect()
    }

    /// A fixed log of the given arity: 24 inserts sealed, then three deletes
    /// and three inserts sealed, and an unsealed buffer that holds inserts and
    /// deletes.
    fn golden_log(arity: usize) -> DeltaRelation {
        let mut d = DeltaRelation::new(Schema::new(&["A", "B", "C"][..arity]));
        d.set_seal_threshold(usize::MAX);
        let tuple = |i| golden_tuple(arity, i);
        for i in 0..24 {
            d.insert(tuple(i)).unwrap();
        }
        d.seal();
        for i in 0..3 {
            d.delete(&tuple(i * 5)).unwrap();
            d.insert(tuple(24 + i)).unwrap();
        }
        d.seal();
        d.delete(&tuple(24)).unwrap();
        d.insert(tuple(27)).unwrap();
        d.delete(&tuple(1)).unwrap();
        d.insert(tuple(1)).unwrap();
        d
    }

    /// [`golden_log`]'s unsealed buffer as `(sign byte, tuple)`: a sign byte 0
    /// for a delete, 1 for an insert.
    fn golden_signed_buffer(arity: usize) -> Vec<(u8, Tuple)> {
        let ops = [(0u8, 24), (1, 27), (0, 1), (1, 1)];
        ops.iter()
            .map(|&(s, i)| (s, golden_tuple(arity, i)))
            .collect()
    }

    /// A state in the layout the codec wrote before ops became toggles:
    /// threshold `usize::MAX` (u64), a run count (u32), per run its row count
    /// (u64), columns and one sign byte per row (1 insert, 0 tombstone), then
    /// the buffer's op count (u64) and per op a sign byte and its tuple. No
    /// decoder reads this layout any more.
    fn signed_layout_bytes(runs: &[Vec<(Tuple, u8)>], buffer: &[(u8, Tuple)]) -> Vec<u8> {
        let mut out = (usize::MAX as u64).to_le_bytes().to_vec();
        out.extend((runs.len() as u32).to_le_bytes());
        for run in runs {
            let mut run = run.clone();
            run.sort();
            out.extend((run.len() as u64).to_le_bytes());
            for c in 0..run.first().map_or(0, |(t, _)| t.len()) {
                out.extend(run.iter().flat_map(|(t, _)| t[c].to_le_bytes()));
            }
            out.extend(run.iter().map(|&(_, s)| s));
        }
        out.extend((buffer.len() as u64).to_le_bytes());
        for (s, t) in buffer {
            out.push(*s);
            out.extend(t.iter().flat_map(|v| v.to_le_bytes()));
        }
        out
    }

    /// [`golden_log`]'s state as a log that kept its seals as a stack of
    /// signed runs checkpointed it, in the signed layout: the 24-row base
    /// run, a run of the three tombstones and three inserts, then the buffer.
    fn golden_stack_bytes(arity: usize) -> Vec<u8> {
        let tuple = |i| golden_tuple(arity, i);
        let signed = [(0, 0u8), (5, 0), (10, 0), (24, 1), (25, 1), (26, 1)];
        let runs = [
            (0..24).map(|i| (tuple(i), 1)).collect(),
            signed.iter().map(|&(i, s)| (tuple(i), s)).collect(),
        ];
        signed_layout_bytes(&runs, &golden_signed_buffer(arity))
    }

    #[test]
    fn encode_state_bytes_are_pinned() {
        // (arity, byte length, CRC-32) of `golden_log`'s state — the
        // checkpoint format a recovering process reads back. The length is
        // tag 8 + threshold 8 + run rows 8 + 24 rows · arity · 8 + op count 8
        // + 4 ops · arity · 8 = 32 + 224 · arity: 256, 480, 704. The signed
        // layout wrote 24 bytes more at each arity (280, 504, 728): a run
        // count (4) and 24 run sign bytes and 4 op sign bytes, less the tag.
        let pinned = [
            (1, (256, 0x5c2f_c4e0)),
            (2, (480, 0x8adf_8d62)),
            (3, (704, 0xf4c5_8ea3)),
        ];
        let sum = |bytes: &[u8]| (bytes.len(), crate::wal::crc32(bytes));
        for (arity, pin) in pinned {
            let d = golden_log(arity);
            assert_eq!((d.fold().map(|r| r.len()), d.buffered()), (Some(24), 4));
            let bytes = d.encode_state();
            assert_eq!(sum(&bytes), pin, "arity {arity}");
            let back = DeltaRelation::decode_state(d.schema().clone(), &bytes).unwrap();
            assert_eq!(back.encode_state(), bytes, "arity {arity}");
            assert_eq!(back.snapshot(), d.snapshot(), "arity {arity}");
            assert_eq!(back.len(), d.len(), "arity {arity}");
        }
    }

    #[test]
    fn a_hand_built_state_decodes_to_its_replayed_ops() {
        // run (1,10) (2,20) (3,30); buffer (5,50) three times — absent from
        // the run, so insert, delete, insert — then the run row (2,20) twice
        // (delete, insert) and the run row (1,10) once (delete)
        let run = vec![vec![1u64, 2, 3], vec![10, 20, 30]];
        let ops = vec![vec![5u64, 5, 5, 2, 2, 1], vec![50, 50, 50, 20, 20, 10]];
        let mut bytes = b"wcojdlt2".to_vec();
        bytes.extend(64u64.to_le_bytes());
        for block in [&run, &ops] {
            bytes.extend((block[0].len() as u64).to_le_bytes());
            bytes.extend(block.iter().flatten().flat_map(|v| v.to_le_bytes()));
        }
        let decoded = DeltaRelation::decode_state(schema_ab(), &bytes).unwrap();
        let mut replayed = DeltaRelation::from_relation(Relation::from_rows(
            schema_ab(),
            vec![vec![1, 10], vec![2, 20], vec![3, 30]],
        ));
        replayed.set_seal_threshold(64);
        assert!(replayed.insert(vec![5, 50]).unwrap());
        assert!(replayed.delete(&[5, 50]).unwrap());
        assert!(replayed.insert(vec![5, 50]).unwrap());
        assert!(replayed.delete(&[2, 20]).unwrap());
        assert!(replayed.insert(vec![2, 20]).unwrap());
        assert!(replayed.delete(&[1, 10]).unwrap());
        assert_eq!(replayed.encode_state(), bytes, "the same layout");
        assert_eq!(decoded.buffered(), 6);
        assert_eq!(decoded.len(), 3, "live set rebuilt by toggling");
        for t in [[1u64, 10], [2, 20], [3, 30], [5, 50]] {
            assert_eq!(decoded.is_live(&t), replayed.is_live(&t), "{t:?}");
        }
        let rows = vec![vec![2, 20], vec![3, 30], vec![5, 50]];
        assert_eq!(decoded.snapshot().rows(), rows);
        assert_eq!(decoded.snapshot(), replayed.snapshot());
        assert_trie_matches_snapshot(&decoded);
        // the next ops and the seal behave the same on both
        let (mut a, mut b) = (decoded, replayed);
        for d in [&mut a, &mut b] {
            assert!(!d.insert(vec![5, 50]).unwrap());
            assert!(d.delete(&[2, 20]).unwrap());
            d.seal();
        }
        assert_eq!(a.fold().unwrap().rel.rows(), vec![vec![3, 30], vec![5, 50]]);
        assert_eq!(a.encode_state(), b.encode_state());
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
        assert_eq!(d.run_ids().len(), 1);
        assert_eq!(d.fold().unwrap().len(), 1); // only (3,4) survives
        assert_eq!(d.snapshot().rows(), vec![vec![3, 4]]);
        // a buffer that cancels out leaves the run as it was
        let id = d.run_ids();
        d.insert(vec![5, 6]).unwrap();
        d.delete(&[5, 6]).unwrap();
        d.seal();
        assert_eq!((d.run_ids(), d.buffered()), (id, 0));
    }

    #[test]
    fn a_sealed_tombstone_annihilates_its_row_in_the_run() {
        let mut d = DeltaRelation::from_relation(Relation::from_rows(
            schema_ab(),
            vec![vec![1, 2], vec![1, 3], vec![2, 2], vec![3, 3], vec![4, 4]],
        ));
        let base = d.run_ids();
        d.delete(&[1, 3]).unwrap();
        d.insert(vec![5, 5]).unwrap();
        assert_trie_matches_snapshot(&d); // merged per query, tombstone included
        d.seal();
        // one merge: the deleted row meets its run row and both drop, the
        // insert joins
        let expected = vec![vec![1, 2], vec![2, 2], vec![3, 3], vec![4, 4], vec![5, 5]];
        assert_eq!(d.fold().unwrap().rel.rows(), expected);
        assert_eq!(d.run_ids().len(), 1);
        assert_ne!(d.run_ids(), base, "a new run");
        assert_trie_matches_snapshot(&d);
        // deleting every row leaves no run at all
        for t in expected {
            d.delete(&t).unwrap();
        }
        d.seal();
        assert!(d.fold().is_none() && d.is_empty());
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
        assert_eq!(c.remaining(), &[2]);
        assert_trie_matches_snapshot(&d);
    }

    #[test]
    fn unsealed_buffer_is_visible_to_queries() {
        let mut d = DeltaRelation::new(schema_ab());
        d.insert(vec![7, 8]).unwrap();
        assert!(d.run_ids().is_empty());
        assert_eq!(d.buffered(), 1);
        assert_trie_matches_snapshot(&d); // the buffer with no run to merge into
        assert_eq!(d.snapshot().rows(), vec![vec![7, 8]]);
    }

    #[test]
    fn every_seal_leaves_at_most_one_run() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(8);
        let mut seals = 0;
        let mut check = |d: &DeltaRelation, i: u64| {
            if d.buffered() == 0 {
                // an automatic seal just ran: its one run is the live set
                assert_eq!(d.fold().map_or(0, |r| r.len()), d.len(), "op {i}");
                seals += 1;
            }
        };
        for i in 0..512u64 {
            d.insert(vec![i / 16, i % 16]).unwrap();
            check(&d, i);
            if i % 3 == 0 {
                d.delete(&[i / 48, i % 16]).unwrap();
                check(&d, i);
            }
        }
        assert!(seals > 8 && d.buffered() > 0);
        assert_trie_matches_snapshot(&d);
        d.seal();
        assert_eq!(d.fold().unwrap().len(), d.len());
        assert_trie_matches_snapshot(&d);
    }

    #[test]
    fn values_written_counts_appends_seals_and_merges() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        d.insert(vec![1, 1]).unwrap();
        d.insert(vec![2, 2]).unwrap();
        assert!(!d.insert(vec![2, 2]).unwrap(), "a no-op writes nothing");
        assert_eq!(d.values_written(), 4);
        d.seal(); // a run of two rows
        assert_eq!(d.values_written(), 8);
        d.delete(&[1, 1]).unwrap();
        d.seal(); // the merge annihilates (1, 1) and writes (2, 2)
        assert_eq!((d.run_ids().len(), d.values_written()), (1, 12));
        d.insert(vec![3, 3]).unwrap();
        d.delete(&[3, 3]).unwrap();
        d.seal(); // (3, 3) is toggled twice: no run is written
        assert_eq!(d.values_written(), 16);
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
            d.seal();
            check(&d, &reference, 600);
            assert_eq!(d.len(), reference.len());
        }
    }

    /// The whole history — the run's rows, each the toggle that made it
    /// live, then the buffered ops — concatenated, and the tuples in it an
    /// odd number of times: the snapshot by definition.
    fn collapse(d: &DeltaRelation) -> Relation {
        let mut cols: Vec<Vec<Value>> = d.buffer.clone();
        if let Some(run) = &d.run {
            for (col, src) in cols.iter_mut().zip(run.rel.columns()) {
                col.extend_from_slice(src);
            }
        }
        Relation::from_canonical_columns(d.schema.clone(), odd_tuples(&cols))
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
            // churned, then sealed back to one clean run
            for _ in 0..rng() % 40 {
                let t: Tuple = (0..arity).map(|_| rng() % 16).collect();
                if rng() % 2 == 0 {
                    d.delete(&t).unwrap();
                } else {
                    d.insert(t).unwrap();
                }
            }
            assert_eq!(d.snapshot(), collapse(&d), "round {round}: churned");
            d.seal();
            assert_eq!(d.buffered(), 0);
            assert_eq!(d.snapshot(), collapse(&d), "round {round}: sealed");
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
        assert_eq!(d.run_ids().len(), 1);
        let trie = d.live_run().trie(&[0, 1]).unwrap();
        let mut c = trie.cursor();
        assert_eq!(c.arity(), 2);
        assert!(c.at_end()); // root
        assert!(c.open());
        assert_eq!(c.remaining(), &[0, 1, 2, 3]);
        assert!(c.seek(2));
        assert_eq!(c.key(), 2);
        assert!(c.reposition(0));
        assert!(c.open()); // B under A=0: 4, 8, ... (0 was deleted)
        assert_eq!(c.key(), 4);
        assert!(c.advance_to(8));
        let w = c.take_work();
        assert!(!w.is_zero(), "the seek was charged");
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
        assert_eq!(d.run_ids().len(), 1);
        let trie = d.live_run().trie(&[0, 1]).unwrap();
        let mut c = trie.cursor();
        assert!(c.open());
        c.take_work();
        assert!(c.open());
        assert_eq!(c.remaining().len(), 32, "4 dead, 4 fresh");
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
        // nothing buffered, or a buffer that cancels out: the run stays
        d.seal();
        d.insert(vec![100, 100]).unwrap();
        d.delete(&[100, 100]).unwrap();
        d.seal();
        assert_eq!(d.run_ids(), base);
        // a clone shares the run, id included, until the head seals past it
        let pinned = d.clone();
        d.insert(vec![101, 101]).unwrap();
        assert_eq!(d.run_ids(), base, "buffered ops leave the run alone");
        d.seal();
        let rewritten = d.run_ids();
        assert_eq!(rewritten.len(), 1);
        assert_ne!(rewritten, base, "a seal that merges writes a new run");
        assert_eq!(pinned.run_ids(), base);
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
    /// includes `Value::MAX`, sealed at random points so seals merge
    /// tombstones into the run, plus one interior value (`A = 3`) inserted and
    /// then fully deleted after a later seal.
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
        // the fold is the log's run itself — its rows and its id — written
        // once by the seal and read back as often as asked, never recomputed
        let one = d.fold().unwrap();
        assert_eq!(one.id(), d.run_ids()[0]);
        assert!(Arc::ptr_eq(&one, &d.fold().unwrap()));
        assert!(Arc::ptr_eq(&one, &d.live_run()), "nothing is buffered");
        // a clone shares the run
        let pinned = d.clone();
        assert!(Arc::ptr_eq(&one, &pinned.fold().unwrap()));
        // buffered ops leave the run alone; the query's run is merged per call
        d.insert(vec![999, 1]).unwrap();
        d.delete(&[3, 3]).unwrap();
        assert!(Arc::ptr_eq(&one, &d.fold().unwrap()));
        let live = d.live_run();
        assert_ne!(live.id(), one.id());
        assert_eq!(live.len(), 200);
        // a seal merges them in: a fresh run, the snapshot's rows
        d.seal();
        let two = d.fold().unwrap();
        assert_ne!(two.id(), one.id());
        assert_eq!(two.rel, d.snapshot());
        assert_eq!(two.rel, live.rel, "the seal's merge is the query's");
        assert!(Arc::ptr_eq(&two, &d.fold().unwrap()));
        // the old run lives as long as a log holds it
        let weak = (Arc::downgrade(&one), Arc::downgrade(&two));
        drop((one, two, live));
        let (one, two) = (weak.0, weak.1);
        assert!(two.strong_count() > 0, "`d` holds it");
        assert!(one.strong_count() > 0, "`pinned` holds it");
        drop(pinned);
        assert_eq!(one.strong_count(), 0);
        d.insert(vec![1000, 1]).unwrap();
        d.seal();
        assert_eq!(two.strong_count(), 0, "the seal replaced it");
    }

    #[test]
    fn a_runs_tries_are_memoized_per_order_and_die_with_it() {
        let d = random_log(0x5EED);
        let run = d.live_run();
        let mut memoized = Vec::new();
        for positions in [[0, 1, 2], [2, 0, 1], [0, 1, 2], [2, 0, 1]] {
            let (trie, hit) = run.shared_trie(&positions).unwrap();
            assert_eq!(*trie, run.trie(&positions).unwrap(), "{positions:?}");
            let first = memoized.iter().find(|(p, _)| *p == positions);
            assert_eq!(hit, first.is_some(), "{positions:?}");
            if let Some((_, t)) = first {
                assert!(Arc::ptr_eq(t, &trie), "{positions:?}");
            }
            memoized.push((positions, trie));
        }
        let bytes = memoized[..2].iter().map(|(_, t)| t.heap_bytes()).sum();
        assert_eq!(run.trie_bytes(), bytes);
        let weak = Arc::downgrade(&memoized[0].1);
        drop(memoized);
        assert!(weak.upgrade().is_some(), "the run holds its tries");
        drop((run, d));
        assert!(weak.upgrade().is_none(), "and they go with it");
    }

    #[test]
    fn decode_state_rejects_what_it_used_to_trust() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        for t in [[1u64, 2], [1, 3], [2, 1]] {
            d.insert(t.to_vec()).unwrap();
        }
        d.seal();
        let good = d.encode_state();
        assert!(DeltaRelation::decode_state(schema_ab(), &good).is_ok());
        // layout: tag 8, threshold u64, then the run's rows u64 and columns,
        // and the buffer's op count last
        let (rows_at, col0_at, run_end) = (16, 24, 24 + 48);
        assert_eq!(good.len(), run_end + 8);
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
        // a wrong tag, and a trailing byte
        let mut tag = good.clone();
        tag[0] ^= 1;
        corrupt(&tag, "unknown format tag");
        corrupt(&[&good[..], &[0]].concat(), "trailing");
        // the signed layout is refused, never misread: the two-run stack and
        // the one-run blob that layout's encoder wrote for `golden_log` (its
        // length and CRC-32 are the ones that encoder was pinned to)
        let earlier = [
            (1, (342, 0x4635_77f4), (280, 0x20ad_9b7c)),
            (2, (614, 0x5a27_0be2), (504, 0x294d_b23d)),
            (3, (886, 0x671a_e7b2), (728, 0x1c16_a2a9)),
        ];
        for (arity, stack_pin, pin) in earlier {
            let d = golden_log(arity);
            let run: Vec<(Tuple, u8)> = d.fold().unwrap().rel.iter().map(|t| (t, 1)).collect();
            let one_run = signed_layout_bytes(&[run], &golden_signed_buffer(arity));
            let stack = golden_stack_bytes(arity);
            for (bytes, pin) in [(one_run, pin), (stack, stack_pin)] {
                assert_eq!(
                    (bytes.len(), crate::wal::crc32(&bytes)),
                    pin,
                    "arity {arity}"
                );
                match DeltaRelation::decode_state(d.schema().clone(), &bytes) {
                    Err(StorageError::WalCorrupt { reason, .. }) => {
                        assert!(reason.contains("unknown format tag"), "{reason}")
                    }
                    other => panic!("arity {arity}: {other:?}"),
                }
            }
        }
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
                    let stored = log.fold().map_or(0, |r| r.len()) + log.buffered();
                    assert!(stored * 16 <= bytes.len(), "seed {seed}");
                    if let Some(run) = &log.run {
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
