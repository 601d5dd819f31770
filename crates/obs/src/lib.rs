//! Observability substrate for the workspace: a dependency-free metrics
//! registry (counters, gauges, log-bucketed histograms with JSON and
//! Prometheus-style exposition) and a query-trace model (per-level join
//! statistics, cache outcomes, phase timings) rendered by EXPLAIN ANALYZE.
//!
//! This crate sits at the bottom of the dependency graph — storage, core,
//! service, and bench all build on it — so it depends on nothing and defines
//! its own tiny JSON reader/writer instead of pulling in serde.
//!
//! Two invariants shape the design:
//!
//! - **Tracing never perturbs execution.** A [`TraceSink`] records *about* a
//!   query; the rows and deterministic work counters are bit-identical with
//!   tracing on or off (property-tested in `wcoj-core`). Trace fields are
//!   split into deterministic ones (candidates, emitted, kernel picks, work)
//!   and explicitly nondeterministic ones (wall-clock times), so tests can
//!   assert the former across runs.
//! - **Snapshots are stable.** [`Registry::snapshot`] renders metrics in
//!   sorted name order to a stable JSON document, so diffs across runs show
//!   value changes, never ordering noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

use std::sync::{LockResult, PoisonError};

pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, MetricValue, MetricsSnapshot, Registry};
pub use trace::{AtomTrace, LevelRecorder, LevelTrace, QueryTrace, TraceKernel, TraceSink};

/// The workspace's one lock rule: take the guard out of a poisoned lock. Every
/// lock it is used on guards state that is whole between statements — a
/// registry's name map (a kind-mismatch panic fires after the lookup, with the
/// map untouched), a trace sink's slot, and the service's catalog, WAL writer,
/// group queue, admission counters and slow-query ring — so a panic on one
/// thread must not wedge every later caller.
pub fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}
