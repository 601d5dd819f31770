//! `wcoj-bench` — experiment harness shared code (the benchmark matrix, table
//! printing, machine-readable benchmark records).
//!
//! The experiment binaries live in `src/bin/` — see `EXPERIMENTS.md` at the
//! repository root for the index. `perf_gate --record` measures the serial
//! matrix ([`bench_matrix`]) and writes `BENCH_joins.json` (see
//! [`report::render_bench_json`]); `perf_gate` without it re-measures the
//! matrix and diffs it against that record.

pub mod report;
pub mod suite;

pub use report::{BenchRecord, ExperimentTable, Row};
pub use suite::bench_matrix;
