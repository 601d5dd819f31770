//! `wcoj-storage` — the in-memory relational substrate used by every join algorithm in
//! this workspace.
//!
//! The worst-case optimal join algorithms of Ngo (PODS 2018) make exactly one
//! assumption about the storage layer (Section 2 of the paper): *the intersection of
//! two sets can be enumerated in time proportional to the smaller set* (up to a log
//! factor). This crate provides data structures that satisfy that assumption and
//! expose it explicitly:
//!
//! * [`Relation`] — a sorted, deduplicated, **columnar** relation over
//!   dictionary-encoded [`Value`]s (one contiguous array per attribute) with
//!   projection, renaming, membership and degree statistics, plus the binary
//!   hash join the baseline runs and the nested-loop join the differential
//!   tests trust ([`ops`]), all operating column-at-a-time;
//! * [`kernels`] — the adaptive multi-way intersection layer: branchless merge,
//!   smallest-driven galloping, and a small-domain bitmap kernel, selected per
//!   intersection by a span/size-ratio heuristic ([`kernels::KernelPolicy`]) and
//!   recorded in the [`stats::WorkCounter`] breakdown — plus the **set layouts**
//!   the static access structures prebuild for their dense sibling groups
//!   ([`kernels::Layout`]), which turn dense∩dense into a word-parallel AND;
//! * [`trie::Trie`] — a CSR-flattened prefix trie over a chosen attribute order,
//!   built by a single fused argsort-and-scan pass over the relation's columns,
//!   on the calling thread, and the **one** access structure: Generic Join's
//!   "sorted extensions of a bound prefix" is one `child_start` offset of the
//!   same trie Leapfrog walks. Its seekable [`trie::TrieCursor`] is the one
//!   cursor the join engines in `wcoj-core` take;
//! * [`delta`] — incremental maintenance: [`delta::DeltaRelation`] stores a live
//!   relation as at most one tombstone-free sorted run plus an append buffer,
//!   and a seal merges the buffer into that run by one symmetric difference
//!   (each buffered op toggles its tuple, so no op carries a sign); a query
//!   reads the run ([`delta::DeltaRelation::fold`]), the unsealed buffer
//!   merged in per query, and its access structure is a plain [`trie::Trie`]
//!   ([`delta::Run::trie`]), so both engines run unmodified (and
//!   bit-identically to a full rebuild) over live data;
//! * [`cache`] — trie reuse: one built trie per log run and column
//!   permutation, memoized on the run ([`delta::Run::shared_trie`]) and dropped
//!   with it — there is no map and no budget; a loaded relation's run is its
//!   rows, and a seal gives the log a new run, built once per order. The
//!   module keeps the run-id stamps, the per-query [`cache::CacheStats`] and
//!   the cumulative [`cache::CacheCounters`] a service registers;
//! * [`wal`] — write-ahead logging for the ingest path: every write batch is
//!   appended as length-prefixed, CRC32-checksummed [`wal::WalOp`] records
//!   closed by a commit marker, by the one writer ([`SegmentedWal`]) of a log
//!   directory of rotated segments and checkpoints; [`recover_dir`] replays
//!   the committed-batch prefix after the newest checkpoint and truncates any
//!   torn tail, and a deterministic [`wal::FaultPlan`] injects fsync failures
//!   and torn writes for crash testing;
//! * [`typed`] / [`dictionary`] — the typed-value layer over the `u64` columns:
//!   [`Schema`]s carry per-attribute [`AttrType`]s, [`typed::TypedValue`] rows
//!   encode through per-domain [`Dictionary`]s (batch interning, single-storage
//!   `Arc<str>` tables), and [`typed::TypedRows`] decodes result relations back
//!   to typed rows — the join engines themselves never leave `u64`;
//! * [`stats::WorkCounter`] / [`stats::CursorWork`] — instrumentation counting
//!   comparisons, probes, and intermediate tuples so that tests and benchmarks can
//!   check the *work* bounds the paper proves, not just wall-clock time;
//! * [`simd`] / [`topology`] — host *detection*, which never moves a result or a
//!   counter: runtime-dispatched SIMD intersection, seek and set-layout decode
//!   primitives (AVX2 / NEON with a scalar fallback, selected once at startup;
//!   a VBMI2 decode inside the AVX2 level), and the process's CPU count with
//!   the one pin a host's own threads use. All SIMD paths are
//!   bit-identical to scalar in both output **and** recorded work: the counters
//!   replay the scalar algorithm's tally arithmetically from the landing
//!   position, so recorded work baselines stay machine-independent. There is
//!   no host tuning: the kernel-selection and seek thresholds are constants
//!   ([`tune::KernelCalibration::fixed`] names them), nothing in this crate
//!   times the machine, and work counters are a function of the data and the
//!   kernel policy.
//!
//! # Quick example
//!
//! ```
//! use wcoj_storage::{Relation, Schema};
//!
//! let r = Relation::from_rows(
//!     Schema::new(&["A", "B"]),
//!     vec![vec![1, 2], vec![1, 3], vec![2, 3]],
//! );
//! assert_eq!(r.len(), 3);
//! assert!(r.contains(&[1, 3]));
//! let p = r.project(&["B"]).unwrap();
//! assert_eq!(p.len(), 2); // {2, 3}
//! assert!(p.contains(&[3]));
//! ```

// Unsafe is denied crate-wide and allowed back in exactly two leaf modules:
// `simd` (target_feature intrinsics, each `unsafe fn` guarded by runtime
// feature detection) and `topology` (one raw `sched_setaffinity` syscall).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod delta;
pub mod dictionary;
pub mod error;
mod fxhash;
pub mod kernels;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod simd;
pub mod stats;
pub mod topology;
pub mod trie;
pub mod tune;
pub mod typed;
pub mod wal;

pub use cache::{next_stamp, CacheCounters, CacheStats};
pub use delta::DeltaRelation;
pub use dictionary::{DictReader, Dictionary};
pub use error::StorageError;
pub use kernels::{KernelKind, KernelPolicy};
pub use ops::{hash_join, nested_loop_join};
pub use relation::{Relation, Tuple};
pub use schema::{AttrType, Schema};
pub use simd::SimdLevel;
pub use stats::{CursorWork, WorkCounter};
pub use trie::{Trie, TrieCursor};
pub use tune::KernelCalibration;
pub use typed::{encode_column, TypedRow, TypedRows, TypedValue};
pub use wal::segmented::{
    gc_checkpoint, recover_dir, write_checkpoint, Checkpoint, DirRecovery, GcReport, SegmentedWal,
    DEFAULT_SEGMENT_BYTES,
};
pub use wal::{FaultPlan, WalOp, WalReplay};

/// A dictionary-encoded attribute value.
///
/// All algorithms in the workspace operate on `u64` values; strings and other external
/// types are interned through [`Dictionary`]. This mirrors how production WCOJ engines
/// (LogicBlox, EmptyHeaded, Umbra) execute joins over dense dictionary codes.
pub type Value = u64;
