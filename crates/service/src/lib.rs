//! `wcoj-service` — the crash-safe, concurrent front end of the workspace.
//!
//! The lower crates model the paper's *algorithms*; this crate wraps them into
//! a long-lived **service** with the robustness a real deployment needs:
//!
//! * **one write path, WAL durability with group commit** — every write
//!   batch, on an in-memory or a durable service, commits through the
//!   leader-based group-commit coordinator; on a durable service it is logged
//!   and fsynced through [`wcoj_storage::wal`] *before* it touches memory,
//!   and concurrent committers share one fsync; the log is a directory of
//!   rotated segments plus a checkpoint after every rotation, so
//!   [`QueryService::open`] recovers committed batches after a crash in time
//!   bounded by the post-checkpoint tail, truncating torn tails;
//! * **MVCC snapshot reads** — queries execute lock-free against a pinned
//!   [`wcoj_query::Snapshot`] while writers append and seal concurrently,
//!   with bit-identical rows *and* work counters;
//! * **admission control** — a bounded [`AdmissionGate`] runs at most
//!   `max_concurrent` queries, queues at most `max_queued`, and sheds the
//!   rest with a typed [`ServiceError::Overloaded`];
//! * **deadlines & cancellation** — the [`wcoj_core::CancelToken`] a caller
//!   passes to [`QueryService::query_with`] is polled at the engines' chunk
//!   boundaries, surfacing [`ServiceError::DeadlineExceeded`] with partial
//!   output discarded;
//! * **optimistic write concurrency** — [`WriteBatch::against`] a snapshot
//!   records relation epochs, [`QueryService::apply`] CAS-validates those of
//!   the relations the batch writes (snapshot isolation), and
//!   [`QueryService::apply_with_retry`] rebases with exponential backoff on
//!   [`ServiceError::Conflict`];
//! * **fault injection** — a [`wcoj_storage::FaultPlan`] in the
//!   [`ServiceConfig`] deterministically fails fsyncs, tears writes, and
//!   delays seals, so the crash harness (`--fault`) can drive recovery
//!   through real failure shapes;
//! * **nothing ambient** — the crate reads no environment variable:
//!   [`ServiceConfig::default`] is a constant and behaviour is a function of
//!   the config and the calls.
//!
//! # Example
//!
//! ```
//! use wcoj_query::{query::examples, Database};
//! use wcoj_service::{QueryService, ServiceConfig, WriteBatch};
//! use wcoj_storage::{DeltaRelation, Schema};
//!
//! let mut db = Database::new();
//! db.insert_delta_relation("R", DeltaRelation::new(Schema::new(&["a", "b"])));
//! db.insert_delta_relation("S", DeltaRelation::new(Schema::new(&["b", "c"])));
//! db.insert_delta_relation("T", DeltaRelation::new(Schema::new(&["a", "c"])));
//! let service = QueryService::in_memory(db, ServiceConfig::default());
//!
//! let batch = WriteBatch::new()
//!     .insert("R", vec![1, 2]).insert("S", vec![2, 3]).insert("T", vec![1, 3])
//!     .seal("R").seal("S").seal("T");
//! service.apply(&batch).unwrap();
//!
//! let out = service.query(&examples::triangle()).unwrap();
//! assert_eq!(out.result.len(), 1); // the (1,2,3) triangle
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod error;
mod group;
pub mod service;

pub use admission::{AdmissionGate, Permit};
pub use error::ServiceError;
pub use service::{
    replay_into, QueryService, RecoveryReport, ServiceConfig, WriteBatch, GROUP_SIZE_BUCKETS,
};
pub use wcoj_obs::{MetricValue, MetricsSnapshot, Registry};
