//! The long-lived query service: a [`Database`] behind a reader/writer lock,
//! fronted by WAL durability, MVCC snapshot reads, bounded admission, and
//! per-query deadlines.
//!
//! # Read path
//!
//! A query is admitted through the [`AdmissionGate`], takes the catalog read
//! lock **only long enough to clone an MVCC snapshot** (O(catalog) `Arc`
//! bumps), then executes lock-free against the frozen view with a
//! [`CancelToken`] carrying its deadline. Writers never block behind a slow
//! query and a query never observes a half-applied batch.
//!
//! # Write path
//!
//! Mutations travel in [`WriteBatch`]es, and every service — in-memory or
//! durable — commits them through one routine. A batch built
//! [`against`](WriteBatch::against) a snapshot records every epoch the
//! snapshot pinned; the commit re-checks those of the relations the batch
//! **writes** under the write lock (optimistic CAS) and returns a typed
//! [`ServiceError::Conflict`] if another writer got there first —
//! [`QueryService::apply_with_retry`] rebases and retries with exponential
//! backoff. A relation the batch only read may move without a conflict: this
//! is snapshot isolation, so two batches that each write what the other read
//! both commit (write skew). The rule lives in one function, the private
//! `WriteBatch::validate`.
//!
//! Writes flow through the **group-commit coordinator** (the private `group`
//! module): concurrent `apply` callers enqueue their batches, one leader
//! drains the queue, validates every member under the write lock, and applies
//! the accepted ones in memory. A durable service **logs and fsyncs before
//! touching memory**: the leader appends all payloads and commit markers and
//! issues a **single fsync** for the whole group — so the per-batch fsync cost
//! is amortized across however many writers piled up during the previous
//! group's barrier — and a WAL failure (real or injected via [`FaultPlan`])
//! fails *every* member atomically with memory untouched, so the in-memory
//! state never runs ahead of the durable log. An in-memory service skips only
//! that step. An optional coalescing window
//! ([`ServiceConfig::group_commit_window`]) grows groups at the cost of
//! latency; a solo writer is a group of one — one append, one marker, one
//! fsync.
//!
//! # Configuration
//!
//! Everything the service does is a function of its [`ServiceConfig`] and
//! the calls made on it: the library reads no environment variable, and
//! [`ServiceConfig::default`] is a constant. A process that wants a knob on
//! its command line parses it where the process starts (`crash_harness
//! --fault/--segment-bytes/--group-commit-us`).
//!
//! # Recovery
//!
//! The log is a **directory**: rotated segments (`wal.000001`, …) plus a
//! **checkpoint** (`ckpt.000047`) after every rotation, holding every
//! relation's serialized state
//! ([`wcoj_storage::DeltaRelation::encode_state`]), taken from an MVCC
//! snapshot so the writer is never stalled, and followed by deletion of
//! fully-covered segments. [`QueryService::open`] loads the
//! newest valid checkpoint (base), replays only the **tail** — batches after
//! the checkpoint — through the same public mutation API the writer used, and
//! resumes the writer with a contiguous commit sequence. Recovery cost is
//! bounded by the tail length, not total history. Replay is deterministic,
//! and the checkpoint codec is bit-exact (the same run, the same buffered
//! ops in arrival order, the same seal threshold), so a recovered catalog is
//! bit-identical to one that applied the same committed prefix live — the
//! crash harness differential-checks exactly this. A relation state the
//! codec cannot read — one written in an earlier layout — fails `open` with
//! [`StorageError::WalCorrupt`] and leaves the checkpoint on disk: it is
//! neither misread nor discarded.

use crate::admission::{AdmissionGate, Permit};
use crate::error::ServiceError;
use crate::group::{GroupQueue, Pending};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use wcoj_core::{execute_cancellable, CancelToken, ExecOptions, ExecOutput, QueryTrace, TraceSink};
use wcoj_obs::unpoison;
use wcoj_obs::{Counter, Gauge, Histogram, Registry};
use wcoj_query::database::DatabaseError;
use wcoj_query::{ConjunctiveQuery, Database, Snapshot};
use wcoj_storage::wal::log_len;
use wcoj_storage::{
    gc_checkpoint, recover_dir, write_checkpoint, DeltaRelation, FaultPlan, SegmentedWal,
    StorageError, Value, WalOp, DEFAULT_SEGMENT_BYTES,
};

/// Tuning knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queries executing concurrently before new arrivals queue.
    pub max_concurrent: usize,
    /// Queries allowed to wait; arrivals beyond this are shed with
    /// [`ServiceError::Overloaded`].
    pub max_queued: usize,
    /// The engine and cache mode every query executes with.
    pub exec: ExecOptions,
    /// Conflict retries in [`QueryService::apply_with_retry`] before the
    /// conflict is surfaced.
    pub write_retries: u32,
    /// Base backoff between conflict retries (doubles per attempt).
    pub retry_backoff: Duration,
    /// Injected faults for the durability path (seal delay is honored here;
    /// fsync/torn faults inside the WAL writer, checkpoint tears inside
    /// [`write_checkpoint`]).
    pub fault: FaultPlan,
    /// How long a group-commit leader waits after claiming leadership before
    /// draining the queue, letting more batches coalesce into its fsync.
    /// Zero (the default) relies on the self-clocking batching alone.
    pub group_commit_window: Duration,
    /// WAL segment-rotation threshold in bytes (default
    /// [`DEFAULT_SEGMENT_BYTES`], 64 MiB). Every rotation is followed by a
    /// checkpoint.
    pub segment_bytes: u64,
    /// Slow-query threshold: queries at or above it run with a per-query
    /// [`TraceSink`] and deposit their [`QueryTrace`] into the bounded ring
    /// behind [`QueryService::slow_queries`]. `Duration::ZERO` traces every
    /// query; `None` (the default) disables tracing entirely.
    pub slow_query: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrent: 4,
            max_queued: 16,
            exec: ExecOptions::default(),
            write_retries: 3,
            retry_backoff: Duration::from_millis(1),
            fault: FaultPlan::default(),
            group_commit_window: Duration::ZERO,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            slow_query: None,
        }
    }
}

impl ServiceConfig {
    /// Override the admission bounds.
    pub fn with_admission(mut self, max_concurrent: usize, max_queued: usize) -> Self {
        self.max_concurrent = max_concurrent;
        self.max_queued = max_queued;
        self
    }

    /// Override the execution options.
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Override the injected fault plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Override the group-commit coalescing window.
    pub fn with_group_commit_window(mut self, window: Duration) -> Self {
        self.group_commit_window = window;
        self
    }

    /// Override the WAL segment-rotation threshold.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Override the slow-query threshold (`Duration::ZERO` traces everything).
    pub fn with_slow_query(mut self, threshold: Duration) -> Self {
        self.slow_query = Some(threshold);
        self
    }
}

/// The `batches_per_fsync` histogram's bucket upper bounds (inclusive); the
/// last bucket is open-ended.
pub const GROUP_SIZE_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, u64::MAX];

/// Log-bucketed microsecond latency histogram: `1 µs … ~1 s` plus `+Inf`.
fn latency_histogram() -> Histogram {
    Histogram::log2(22)
}

/// How many slow-query traces [`QueryService::slow_queries`] retains (oldest
/// evicted first).
const SLOW_LOG_CAP: usize = 16;

/// A durable service takes a checkpoint once this many segments have rotated
/// out since the last one.
const CHECKPOINT_AFTER_SEGMENTS: u64 = 1;

/// Registry-backed service metrics. The service owns `Arc` handles so the hot
/// paths update lock-free atomics directly (no name lookups); the same
/// primitives are visible by name through [`QueryService::registry`] under
/// `service.*` (admission/query), `wal.*` (durability), and `recovery.*`
/// (startup).
#[derive(Debug)]
struct ServiceStats {
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    canceled: Arc<Counter>,
    slow_queries: Arc<Counter>,
    query_us: Arc<Histogram>,
    batches_committed: Arc<Counter>,
    ops_committed: Arc<Counter>,
    conflicts: Arc<Counter>,
    write_retries: Arc<Counter>,
    recovered_batches: Arc<Counter>,
    recovery_replay_ops: Arc<Counter>,
    recovery_checkpoint_seq: Arc<Gauge>,
    recovery_tail_batches: Arc<Gauge>,
    recovery_install_us: Arc<Gauge>,
    recovery_replay_us: Arc<Gauge>,
    recovery_torn_tail: Arc<Gauge>,
    group_commits: Arc<Counter>,
    batches_per_fsync: Arc<Histogram>,
    fsync_us: Arc<Histogram>,
    apply_us: Arc<Histogram>,
    commit_wait_us: Arc<Histogram>,
    checkpoint_us: Arc<Histogram>,
    checkpoints: Arc<Counter>,
    segments_deleted: Arc<Counter>,
    wal_bytes: Arc<Gauge>,
    wal_poisoned: Arc<Gauge>,
}

impl ServiceStats {
    fn new(registry: &Registry) -> ServiceStats {
        ServiceStats {
            admitted: registry.counter("service.admitted"),
            shed: registry.counter("service.shed"),
            deadline_exceeded: registry.counter("service.deadline_exceeded"),
            canceled: registry.counter("service.canceled"),
            slow_queries: registry.counter("service.slow_queries"),
            query_us: registry.histogram("service.query_us", latency_histogram),
            batches_committed: registry.counter("wal.batches_committed"),
            ops_committed: registry.counter("wal.ops_committed"),
            conflicts: registry.counter("wal.conflicts"),
            write_retries: registry.counter("wal.write_retries"),
            recovered_batches: registry.counter("recovery.batches"),
            recovery_replay_ops: registry.counter("recovery.replay_ops"),
            recovery_checkpoint_seq: registry.gauge("recovery.checkpoint_seq"),
            recovery_tail_batches: registry.gauge("recovery.tail_batches"),
            recovery_install_us: registry.gauge("recovery.checkpoint_install_us"),
            recovery_replay_us: registry.gauge("recovery.replay_us"),
            recovery_torn_tail: registry.gauge("recovery.torn_tail"),
            group_commits: registry.counter("wal.group_commits"),
            batches_per_fsync: registry.histogram("wal.batches_per_fsync", || {
                Histogram::with_bounds(&GROUP_SIZE_BUCKETS)
            }),
            fsync_us: registry.histogram("wal.fsync_us", latency_histogram),
            apply_us: registry.histogram("wal.apply_us", latency_histogram),
            commit_wait_us: registry.histogram("wal.commit_wait_us", latency_histogram),
            checkpoint_us: registry.histogram("wal.checkpoint_us", latency_histogram),
            checkpoints: registry.counter("wal.checkpoints"),
            segments_deleted: registry.counter("wal.segments_deleted"),
            wal_bytes: registry.gauge("wal.bytes"),
            wal_poisoned: registry.gauge("wal.poisoned"),
        }
    }
}

/// A batch of catalog mutations applied atomically: validated, WAL-logged and
/// fsynced (on a durable service), then applied in memory under the write
/// lock.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    ops: Vec<WalOp>,
    /// Every epoch the snapshot pinned, per relation, for a batch built
    /// [`against`](WriteBatch::against) one (`None`: blind); the commit
    /// validates those of the relations the batch writes.
    expected: Option<HashMap<String, u64>>,
}

/// What the commit leader does with one member of its group.
enum Decision {
    Accept,
    /// Requeue for the leader's next round (see [`QueryService::apply`]).
    Defer,
    Reject(ServiceError),
}

impl WriteBatch {
    /// A blind batch: no conflict detection, last writer wins (the semantics
    /// of raw `insert`/`delete` — idempotent against the live-set).
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// A batch that conflicts if any relation it writes has moved past the
    /// epoch `snapshot` pinned. It records every epoch the snapshot pinned,
    /// but a relation the batch only read is not validated: snapshot
    /// isolation, not serializability.
    pub fn against(snapshot: &Snapshot) -> WriteBatch {
        WriteBatch {
            expected: Some(
                snapshot
                    .epochs()
                    .map(|(name, epoch)| (name.to_string(), epoch))
                    .collect(),
            ),
            ..WriteBatch::default()
        }
    }

    /// Queue an insert.
    pub fn insert(mut self, relation: impl Into<String>, tuple: Vec<Value>) -> Self {
        self.ops.push(WalOp::Insert {
            relation: relation.into(),
            tuple,
        });
        self
    }

    /// Queue a delete (tombstone).
    pub fn delete(mut self, relation: impl Into<String>, tuple: Vec<Value>) -> Self {
        self.ops.push(WalOp::Delete {
            relation: relation.into(),
            tuple,
        });
        self
    }

    /// Queue a seal of the relation's append buffer.
    pub fn seal(mut self, relation: impl Into<String>) -> Self {
        self.ops.push(WalOp::Seal {
            relation: relation.into(),
        });
        self
    }

    /// The queued ops, in application order.
    pub fn ops(&self) -> &[WalOp] {
        &self.ops
    }

    /// Whether the batch carries no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The distinct relations the batch touches, in first-touch order.
    fn touched(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for op in &self.ops {
            if let Some(rel) = op.relation() {
                if !seen.contains(&rel) {
                    seen.push(rel);
                }
            }
        }
        seen
    }

    /// The service's one validation rule, checked under the write lock.
    /// Every relation the batch touches must exist, and every tuple it
    /// inserts or deletes must have that relation's arity — refused here, a
    /// tuple of another length would reach the log and fail only at apply,
    /// and then fail every replay of the log. A batch built `against` a
    /// snapshot must find each of them at the epoch the snapshot pinned
    /// (snapshot isolation: a relation only read is not checked) — unless an
    /// earlier member of its group, which has not applied yet, writes it
    /// (`written`): then the batch is deferred, since its epoch is about to
    /// move for a reason the batch had no chance to observe.
    fn validate(&self, db: &Database, written: &HashSet<String>) -> Decision {
        for rel in self.touched() {
            let Some(found) = db.relation_epoch(rel) else {
                return Decision::Reject(ServiceError::UnknownRelation(rel.to_string()));
            };
            let Some(expected) = &self.expected else {
                continue;
            };
            if written.contains(rel) {
                return Decision::Defer;
            }
            let Some(&expected) = expected.get(rel) else {
                return Decision::Reject(ServiceError::UnknownRelation(rel.to_string()));
            };
            if expected != found {
                return Decision::Reject(ServiceError::Conflict {
                    relation: rel.to_string(),
                    expected,
                    found,
                });
            }
        }
        for op in &self.ops {
            let (WalOp::Insert { relation, tuple } | WalOp::Delete { relation, tuple }) = op else {
                continue;
            };
            let expected = db.delta(relation).map_or(0, DeltaRelation::arity);
            if tuple.len() != expected {
                let e = StorageError::ArityMismatch {
                    expected,
                    found: tuple.len(),
                };
                return Decision::Reject(ServiceError::Database(DatabaseError::Storage(e)));
            }
        }
        Decision::Accept
    }
}

/// Apply `batches` (as recovered from the log) to `db` through the public
/// mutation API — the deterministic replay shared by [`QueryService::open`]
/// and the crash harness's oracle.
pub fn replay_into(db: &mut Database, batches: &[Vec<WalOp>]) -> Result<(), ServiceError> {
    for batch in batches {
        for op in batch {
            apply_op(db, op, &FaultPlan::default())?;
        }
    }
    Ok(())
}

fn apply_op(db: &mut Database, op: &WalOp, fault: &FaultPlan) -> Result<(), ServiceError> {
    match op {
        WalOp::Insert { relation, tuple } => {
            db.insert_delta(relation, tuple.clone())?;
        }
        WalOp::Delete { relation, tuple } => {
            db.delete(relation, tuple)?;
        }
        WalOp::Seal { relation } => {
            if let Some(ms) = fault.seal_delay_ms {
                // injected scheduling delay: widens the writer/reader race
                // window so chaos tests can overlap seals with snapshot reads
                std::thread::sleep(Duration::from_millis(ms));
            }
            db.seal(relation)?;
        }
        WalOp::Commit { .. } => {
            // commit markers delimit batches in the log; replay_into receives
            // batches already split, so a marker here is a caller bug
            return Err(ServiceError::Wal(wcoj_storage::StorageError::Io(
                "commit marker inside a batch".into(),
            )));
        }
    }
    Ok(())
}

/// What [`QueryService::open`] recovered from the log directory.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The sequence the newest valid checkpoint covers (`0` = no checkpoint;
    /// everything was replayed from segments).
    pub checkpoint_seq: u64,
    /// The **replayed tail**: committed batches after the checkpoint, in
    /// sequence order (batch `checkpoint_seq + 1` first). Pre-checkpoint
    /// batches are *not* here — their effect came from the checkpoint state.
    pub tail: Vec<Vec<WalOp>>,
    /// The last durable batch sequence (`checkpoint_seq` + tail length); the
    /// writer resumes at `committed + 1`.
    pub committed: u64,
    /// Whether recovery dropped anything: a torn segment tail, a discarded
    /// torn/corrupt checkpoint, or a sequence gap.
    pub torn: bool,
    /// Why (first drop wins); `None` for a clean log.
    pub tail_reason: Option<String>,
    /// Segment files surviving recovery.
    pub segments: usize,
    /// On-disk segment bytes after recovery.
    pub wal_bytes: u64,
}

impl RecoveryReport {
    /// Whether recovery dropped anything (see [`RecoveryReport::torn`]).
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// Ops across the replayed tail batches.
    pub fn num_ops(&self) -> usize {
        self.tail.iter().map(Vec::len).sum()
    }
}

/// A durable service's log: the segmented WAL writer, its directory, and the
/// checkpoint bookkeeping.
#[derive(Debug)]
struct Log {
    wal: Mutex<SegmentedWal>,
    dir: PathBuf,
    /// Last WAL sequence whose effects are applied in memory. Written under
    /// the db **write** lock, read under the read lock — so a checkpoint's
    /// `(state, seq)` pair is always consistent.
    applied_seq: AtomicU64,
    /// Single-flight guard for [`QueryService::checkpoint`].
    checkpoint_active: AtomicBool,
    /// Sequence of the last durable checkpoint (skip no-progress repeats).
    last_checkpoint_seq: AtomicU64,
    /// Cumulative segment bytes freed by GC (the `wal_bytes` gauge is
    /// `SegmentedWal::total_bytes() - this`).
    gc_segment_bytes: AtomicU64,
}

/// The long-lived service: shared catalog, optional segmented WAL, group-
/// commit queue, admission gate, and counters. All methods take `&self`; the
/// service is `Sync` and meant to be shared across request threads.
#[derive(Debug)]
pub struct QueryService {
    db: RwLock<Database>,
    /// `None` for in-memory services.
    log: Option<Log>,
    group: GroupQueue,
    gate: AdmissionGate,
    registry: Arc<Registry>,
    stats: ServiceStats,
    /// Bounded ring of slow-query traces (newest last); see
    /// [`ServiceConfig::slow_query`].
    slow_log: Mutex<VecDeque<QueryTrace>>,
    config: ServiceConfig,
}

impl QueryService {
    /// A service over `db` with no durability (tests, ephemeral catalogs).
    pub fn in_memory(db: Database, config: ServiceConfig) -> QueryService {
        QueryService::new(db, config, None)
    }

    fn new(db: Database, config: ServiceConfig, log: Option<Log>) -> QueryService {
        let registry = Arc::new(Registry::new());
        db.cache_counters().register_metrics(&registry);
        QueryService {
            db: RwLock::new(db),
            log,
            group: GroupQueue::default(),
            gate: AdmissionGate::new(config.max_concurrent, config.max_queued),
            stats: ServiceStats::new(&registry),
            registry,
            slow_log: Mutex::new(VecDeque::new()),
            config,
        }
    }

    /// Open a durable service over the log **directory** at `dir`: pick the
    /// newest valid checkpoint, install its relation states into `base`
    /// ([`DeltaRelation::decode_state`]), replay the post-checkpoint tail
    /// (truncating any torn end), and resume the writer with a contiguous
    /// commit sequence. `base` must contain the same catalog the original
    /// writer started from — schemas are not logged — and recovery cost is
    /// bounded by the tail length, not total history.
    ///
    /// A catalog the log cannot name — a relation name over 65 535 bytes or
    /// an arity over 65 535 ([`StorageError::TooLongForLog`]) — is refused
    /// before the directory is touched: the catalog is fixed from here on, so
    /// no later write can then fail the encoder halfway through a group.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        mut base: Database,
        config: ServiceConfig,
    ) -> Result<(QueryService, RecoveryReport), ServiceError> {
        for name in base.relation_names() {
            log_len("relation name", name.len())?;
            log_len("tuple", base.delta(name).map_or(0, DeltaRelation::arity))?;
        }
        let dir = dir.as_ref().to_path_buf();
        let mut recovery = recover_dir(&dir)?;
        let checkpoint_seq = recovery.checkpoint_seq();
        let install_started = Instant::now();
        if let Some(ckpt) = recovery.checkpoint.take() {
            // in place: a typed relation keeps its intern-time domain record;
            // each blob is dropped once it is installed
            for (name, bytes) in ckpt.relations {
                let log = base
                    .delta_mut(&name)
                    .ok_or(ServiceError::UnknownRelation(name))?;
                *log = DeltaRelation::decode_state(log.schema().clone(), &bytes)?;
            }
        }
        let install_us = install_started.elapsed().as_micros() as u64;
        let tail = std::mem::take(&mut recovery.tail);
        let replay_started = Instant::now();
        replay_into(&mut base, &tail)?;
        let replay_us = replay_started.elapsed().as_micros() as u64;
        // opened last, so a checkpoint or tail that fails above leaves no
        // fresh segment behind
        let writer = SegmentedWal::open(&dir, &recovery, config.segment_bytes, config.fault)?;
        let report = RecoveryReport {
            checkpoint_seq,
            tail,
            committed: recovery.committed,
            torn: recovery.torn,
            tail_reason: recovery.tail_reason,
            segments: recovery.segments,
            wal_bytes: recovery.wal_bytes,
        };
        let log = Log {
            wal: Mutex::new(writer),
            dir,
            applied_seq: AtomicU64::new(recovery.committed),
            checkpoint_active: AtomicBool::new(false),
            last_checkpoint_seq: AtomicU64::new(checkpoint_seq),
            gc_segment_bytes: AtomicU64::new(0),
        };
        let service = QueryService::new(base, config, Some(log));
        // a fresh registry starts at zero, so `add` seeds the recovery view
        let stats = &service.stats;
        stats.recovered_batches.add(recovery.committed);
        stats.recovery_replay_ops.add(report.num_ops() as u64);
        stats.recovery_checkpoint_seq.set(checkpoint_seq);
        stats.recovery_tail_batches.set(report.tail.len() as u64);
        stats.recovery_install_us.set(install_us);
        stats.recovery_replay_us.set(replay_us);
        stats.recovery_torn_tail.set(report.torn as u64);
        stats.wal_bytes.set(recovery.wal_bytes);
        Ok((service, report))
    }

    /// Pin an MVCC snapshot of the current catalog (O(catalog) `Arc` bumps;
    /// the read lock is held only for the clone).
    pub fn snapshot(&self) -> Snapshot {
        unpoison(self.db.read()).snapshot()
    }

    /// The metrics registry behind the service: every `service.*`, `wal.*`,
    /// `recovery.*`, and `cache.*` primitive, snapshottable as stable JSON
    /// ([`QueryService::metrics_json`]) or Prometheus text
    /// ([`QueryService::metrics_prometheus`]).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The registry snapshot rendered as a stable JSON document.
    pub fn metrics_json(&self) -> String {
        self.registry.snapshot().to_json()
    }

    /// The registry snapshot in the Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.registry.snapshot().to_prometheus()
    }

    /// The retained slow-query traces, oldest first (at most 16; older
    /// entries are evicted). Populated only when
    /// [`ServiceConfig::slow_query`] is set.
    pub fn slow_queries(&self) -> Vec<QueryTrace> {
        unpoison(self.slow_log.lock()).iter().cloned().collect()
    }

    /// `(running, queued)` admission load right now.
    pub fn load(&self) -> (usize, usize) {
        self.gate.load()
    }

    /// Batches committed through the WAL so far (`0` for in-memory services).
    pub fn committed(&self) -> u64 {
        self.log
            .as_ref()
            .map_or(0, |log| unpoison(log.wal.lock()).committed())
    }

    /// Execute `query` against a fresh snapshot, with no deadline.
    pub fn query(&self, query: &ConjunctiveQuery) -> Result<ExecOutput, ServiceError> {
        self.query_with(query, &CancelToken::new())
    }

    /// Execute `query` with a caller-held [`CancelToken`] (keep a clone to
    /// cancel from another thread, or make it with
    /// [`CancelToken::expiring_in`] for a deadline).
    pub fn query_with(
        &self,
        query: &ConjunctiveQuery,
        token: &CancelToken,
    ) -> Result<ExecOutput, ServiceError> {
        let _permit: Permit<'_> = self.gate.admit().inspect_err(|_| {
            self.stats.shed.inc();
        })?;
        self.stats.admitted.inc();
        // hold the read lock only for the snapshot clone; execution runs
        // against the frozen view while writers proceed
        let snap = self.snapshot();
        // slow-query tracing: run with a per-query sink (trace-neutral by the
        // core crate's property suite) and keep the trace only if the query
        // breaches the threshold
        let sink = self.config.slow_query.map(|_| Arc::new(TraceSink::new()));
        let exec = match &sink {
            Some(sink) => self.config.exec.with_trace(Arc::clone(sink)),
            None => self.config.exec.clone(),
        };
        let started = Instant::now();
        let result = execute_cancellable(query, &snap, &exec, None, token);
        let elapsed = started.elapsed();
        self.stats.query_us.observe(elapsed.as_micros() as u64);
        if let (Some(threshold), Some(sink)) = (self.config.slow_query, sink) {
            if elapsed >= threshold {
                if let Some(trace) = sink.take() {
                    self.stats.slow_queries.inc();
                    let mut log = unpoison(self.slow_log.lock());
                    if log.len() == SLOW_LOG_CAP {
                        log.pop_front();
                    }
                    log.push_back(trace);
                }
            }
        }
        match result {
            Ok(out) => Ok(out),
            Err(wcoj_core::ExecError::Canceled) => {
                let by_deadline = token.deadline().is_some_and(|d| Instant::now() >= d);
                if by_deadline {
                    self.stats.deadline_exceeded.inc();
                    Err(ServiceError::DeadlineExceeded)
                } else {
                    self.stats.canceled.inc();
                    Err(ServiceError::Canceled)
                }
            }
            Err(e) => Err(ServiceError::Exec(e)),
        }
    }

    /// Apply `batch`: validate its epoch expectations under the write lock,
    /// log + fsync it (durable services), then mutate the catalog. Returns the
    /// WAL commit sequence number (`0` for in-memory services; an empty batch
    /// returns the last committed one).
    ///
    /// Every service commits through the **group-commit coordinator**: the
    /// batch joins the shared queue, and either this caller becomes the
    /// leader (drains the queue, commits the whole group, answers every
    /// member) or it blocks until a concurrent leader delivers its outcome. A
    /// solo writer is a group of one — on a durable service one append, one
    /// marker, one fsync — behind two uncontended mutex hops.
    ///
    /// **Deferral rule:** a non-blind member whose touched relations were
    /// already written by an *earlier member of the same group* cannot be
    /// CAS-validated against honest epochs (they move when the group
    /// applies), so it is requeued at the front for the leader's next round
    /// instead of being rejected with a conflict it never had a chance to
    /// observe. Blind batches are exempt. Each round resolves at least its
    /// first member, so rounds terminate.
    pub fn apply(&self, batch: &WriteBatch) -> Result<u64, ServiceError> {
        if batch.is_empty() {
            return Ok(self.committed());
        }
        let enqueued = Instant::now();
        let (slot, outcome) = mpsc::sync_channel(1);
        let leader = self.group.enqueue(Pending {
            batch: batch.clone(),
            slot,
        });
        if leader {
            // bounded coalescing window: arrivals during the sleep join this
            // group (self-clocking batching needs no window at all —
            // followers pile up while the leader is inside the *previous*
            // fsync — so zero is the default)
            if !self.config.group_commit_window.is_zero() {
                std::thread::sleep(self.config.group_commit_window);
            }
            loop {
                self.commit_group(self.group.drain());
                if !self.group.step_down_or_continue() {
                    break;
                }
            }
            self.maybe_checkpoint();
        }
        // every drained member is answered before its leader moves on; a
        // closed channel means a leader unwound mid-group
        let outcome = outcome.recv().unwrap_or_else(|_| {
            Err(ServiceError::Wal(StorageError::Io(
                "the commit leader exited without an outcome".into(),
            )))
        });
        // enqueue → ack: group-formation wait plus the group's validate/
        // append/fsync/apply, as the committer experiences it
        self.stats
            .commit_wait_us
            .observe(enqueued.elapsed().as_micros() as u64);
        outcome
    }

    /// Commit one drained group (leader only): validate every member under
    /// the write lock, make the accepted ones durable (durable services:
    /// append all payloads + commit markers, then a **single fsync**), apply
    /// them in memory, then answer every member. A WAL failure anywhere in
    /// the group fails *every* accepted member atomically with memory
    /// untouched — the log may run ahead of acknowledgement, memory never
    /// runs ahead of the log.
    fn commit_group(&self, group: Vec<Pending>) {
        let mut outcomes = Vec::new();
        let mut accepted: Vec<Pending> = Vec::new();
        let mut deferred = Vec::new();
        let mut db = unpoison(self.db.write());
        // 1. validation: relations an earlier member of this group writes
        let mut written: HashSet<String> = HashSet::new();
        for pending in group {
            match pending.batch.validate(&db, &written) {
                Decision::Accept => {
                    written.extend(pending.batch.touched().into_iter().map(str::to_string));
                    accepted.push(pending);
                }
                Decision::Defer => deferred.push(pending),
                Decision::Reject(e) => {
                    if matches!(e, ServiceError::Conflict { .. }) {
                        self.stats.conflicts.inc();
                    }
                    outcomes.push((pending.slot, Err(e)));
                }
            }
        }
        // 2. durability first, one fsync for the whole group
        let seqs = match &self.log {
            Some(log) if !accepted.is_empty() => self.append_and_sync(log, &accepted),
            _ => Ok(vec![0; accepted.len()]),
        };
        match seqs {
            // group atomicity: no member's effects reach memory; the writer
            // is poisoned, so deferred members fail next round
            Err(e) => {
                if let Some(log) = &self.log {
                    let poisoned = unpoison(log.wal.lock()).is_poisoned();
                    self.stats.wal_poisoned.set(poisoned as u64);
                }
                outcomes.extend(
                    accepted
                        .into_iter()
                        .map(|pending| (pending.slot, Err(ServiceError::Wal(e.clone())))),
                )
            }
            // 3. apply in memory under the still-held write lock; an apply
            //    error fails only that member (its ops are durable and replay
            //    deterministically)
            Ok(seqs) if !accepted.is_empty() => {
                let apply_started = Instant::now();
                let mut last_seq = 0;
                for (pending, seq) in accepted.into_iter().zip(seqs) {
                    let outcome = pending
                        .batch
                        .ops
                        .iter()
                        .try_for_each(|op| apply_op(&mut db, op, &self.config.fault))
                        .map(|()| seq);
                    if outcome.is_ok() {
                        self.stats.batches_committed.inc();
                        self.stats.ops_committed.add(pending.batch.ops.len() as u64);
                    }
                    last_seq = seq;
                    outcomes.push((pending.slot, outcome));
                }
                self.stats
                    .apply_us
                    .observe(apply_started.elapsed().as_micros() as u64);
                // stored under the write lock: a checkpoint's (state, seq)
                // pair read under the read lock is consistent
                if let Some(log) = &self.log {
                    log.applied_seq.store(last_seq, Ordering::Release);
                }
            }
            Ok(_) => {}
        }
        drop(db);
        self.group.requeue_front(deferred);
        for (slot, outcome) in outcomes {
            // a member whose caller is gone has nobody to tell
            let _ = slot.send(outcome);
        }
    }

    /// Append `accepted` to the log and make it durable with one fsync;
    /// returns each member's commit sequence. The leader holds the db write
    /// lock, so nothing else appends in between.
    fn append_and_sync(&self, log: &Log, accepted: &[Pending]) -> Result<Vec<u64>, StorageError> {
        let mut w = unpoison(log.wal.lock());
        // one buffered write per batch (ops + marker in a single syscall):
        // with the fsync amortized across the group, the leader's serial
        // write-path CPU is what bounds ingest
        let seqs = accepted
            .iter()
            .map(|pending| w.commit_batch_unsynced(&pending.batch.ops))
            .collect::<Result<Vec<u64>, _>>()?;
        let fsync_started = Instant::now();
        let synced = w.sync();
        self.stats
            .fsync_us
            .observe(fsync_started.elapsed().as_micros() as u64);
        synced?;
        // rotation only ever happens on a durable batch boundary; a rotation
        // failure leaves the current segment as append target
        let _ = w.maybe_rotate();
        self.stats.group_commits.inc();
        self.stats.batches_per_fsync.observe(accepted.len() as u64);
        let gc_bytes = log.gc_segment_bytes.load(Ordering::Relaxed);
        self.stats
            .wal_bytes
            .set(w.total_bytes().saturating_sub(gc_bytes));
        Ok(seqs)
    }

    /// Take a checkpoint if enough segments rotated out since the last one.
    /// Best-effort: a failed attempt (e.g. an injected tear) just leaves
    /// recovery on the previous checkpoint plus a longer tail.
    fn maybe_checkpoint(&self) {
        let Some(log) = &self.log else { return };
        if unpoison(log.wal.lock()).segments_since_checkpoint() >= CHECKPOINT_AFTER_SEGMENTS {
            let _ = self.checkpoint();
        }
    }

    /// Persist a checkpoint of every relation's state at the current
    /// applied sequence, then delete the segments (and older checkpoints) it
    /// makes redundant. The state is cloned from an MVCC read — **the writer
    /// is never stalled**: encoding and file I/O happen outside all locks.
    /// Returns the covered sequence, or `None` when skipped (in-memory
    /// service, no progress since the last checkpoint, or another checkpoint
    /// in flight).
    pub fn checkpoint(&self) -> Result<Option<u64>, ServiceError> {
        let Some(log) = &self.log else {
            return Ok(None);
        };
        if log.checkpoint_active.swap(true, Ordering::AcqRel) {
            return Ok(None); // single-flight; the in-flight one covers us
        }
        let result = self.checkpoint_inner(log);
        log.checkpoint_active.store(false, Ordering::Release);
        result
    }

    fn checkpoint_inner(&self, log: &Log) -> Result<Option<u64>, ServiceError> {
        // consistent (state, seq) pair: applied_seq is stored under the db
        // write lock, so one read-lock hold sees both atomically
        let (seq, pinned) = {
            let db = unpoison(self.db.read());
            (log.applied_seq.load(Ordering::Acquire), db.clone())
        };
        if seq == 0 || seq == log.last_checkpoint_seq.load(Ordering::Acquire) {
            return Ok(None);
        }
        let checkpoint_started = Instant::now();
        let mut names = pinned.relation_names();
        names.sort_unstable();
        let encoded: Vec<(String, Vec<u8>)> = names
            .into_iter()
            .filter_map(|name| Some((name.to_string(), pinned.delta(name)?.encode_state())))
            .collect();
        write_checkpoint(&log.dir, seq, &encoded, &self.config.fault)?;
        // the checkpoint is durable (file + directory fsynced) — only now is
        // it safe to delete the segments it covers
        let gc = gc_checkpoint(&log.dir, seq)?;
        log.last_checkpoint_seq.store(seq, Ordering::Release);
        self.stats.checkpoints.inc();
        self.stats.segments_deleted.add(gc.segments_deleted);
        let gc_total = log
            .gc_segment_bytes
            .fetch_add(gc.segment_bytes_freed, Ordering::AcqRel)
            + gc.segment_bytes_freed;
        let mut w = unpoison(log.wal.lock());
        w.checkpoint_taken();
        let total_bytes = w.total_bytes();
        drop(w);
        self.stats
            .wal_bytes
            .set(total_bytes.saturating_sub(gc_total));
        self.stats
            .checkpoint_us
            .observe(checkpoint_started.elapsed().as_micros() as u64);
        Ok(Some(seq))
    }

    /// [`QueryService::apply`] with rebase-and-retry on conflict: `make` is
    /// called with a fresh snapshot per attempt and builds the batch (so it
    /// can re-read whatever state its writes depend on); conflicts back off
    /// exponentially from [`ServiceConfig::retry_backoff`] and retry up to
    /// [`ServiceConfig::write_retries`] times before surfacing.
    pub fn apply_with_retry(
        &self,
        make: impl Fn(&Snapshot) -> Result<WriteBatch, ServiceError>,
    ) -> Result<u64, ServiceError> {
        let mut backoff = self.config.retry_backoff;
        let mut retries = 0;
        loop {
            let batch = make(&self.snapshot())?;
            match self.apply(&batch) {
                Err(ServiceError::Conflict { .. }) if retries < self.config.write_retries => {
                    retries += 1;
                    self.stats.write_retries.inc();
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                outcome => return outcome,
            }
        }
    }

    /// Run `f` with read access to the live catalog (monitoring, tests). For
    /// query execution prefer [`QueryService::query`], which snapshots and
    /// releases the lock.
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        let db = unpoison(self.db.read());
        f(&db)
    }
}
