//! The serial join matrix's one recorder, and the CI perf-regression gate
//! that reads what it recorded.
//!
//! `BENCH_joins.json` at the workspace root holds one row per workload ×
//! engine of [`bench_matrix`] at its full sizes, all serial: the median
//! wall-clock of the timed iterations, the output size, the AGM bound and ten
//! work tallies, under a `"host"` line naming the CPUs, SIMD level and layout
//! decoder they were measured with ([`host_json`]).
//!
//! * `perf_gate --record` measures the full matrix and rewrites the file.
//! * `perf_gate` re-measures the matrix at smoke-scale sizes (`--full`: all of
//!   it) and diffs every row against the file, matched on workload/engine.
//!
//! Every check is on counters or rows:
//!
//! * **work** — the deterministic `total_work` tally must not exceed the
//!   record by more than [`WORK_FACTOR`]. Work counters are exactly
//!   reproducible, so this catches algorithmic regressions on any machine.
//! * **kernel breakdown** — the per-kernel tallies (`kernel_merge`,
//!   `kernel_gallop`, `kernel_bitmap`) and the `delta_merge` column (always 0:
//!   a log is read through its run's trie) must match the record **exactly**. The adaptive policy's choices
//!   are a pure function of the data and the constant thresholds: any drift means the kernel-selection logic (or
//!   a counted kernel's accounting) changed, and the record must be re-recorded
//!   deliberately rather than absorbed silently.
//! * **wall-clock** — printed, not gated: each row's `time_ratio` is the fresh
//!   time (the **minimum** of the timed iterations, since noise only ever adds
//!   time) over the recorded median. A wall-clock ratio against a record from
//!   other hardware, or another phase of a shared host, says nothing a counter
//!   does not say more precisely.
//! * **cache differential** — every row is additionally executed once with the
//!   access-structure cache off ([`CacheMode::Off`]), and the output relation
//!   plus the **entire** work counter — including the exact per-kernel
//!   breakdown — must be bit-identical to the cached run. Caching may only
//!   change *when* structures are built, never *what* the join does; any
//!   divergence here means a stale or mispermuted structure leaked out of the
//!   cache. The timed iterations run with the cache enabled (the default), so
//!   `fresh_ms` is the warm repeated-query path; the `off_ms` / `warm_ratio`
//!   columns report the uncached time alongside it for visibility (informative,
//!   not gated — cold builds dominate small smoke sizes unevenly across hosts).
//! * **trace differential** — every row is executed once more with a
//!   [`TraceSink`] installed, and the output relation plus the entire work
//!   counter must again be bit-identical: observability may watch the join but
//!   never steer it. The timed iterations run trace-off, so `time_ratio` also
//!   shows any residual cost of the disabled trace path.
//!
//! `--record` makes the two differentials too, compares with the record it
//! replaces only in the printed table, and writes nothing if a differential
//! fails. Exits non-zero if any check fails — wire as a CI step:
//! `cargo run --release -p wcoj-bench --bin perf_gate`.

use std::sync::Arc;
use std::time::Instant;
use wcoj_bench::report::{host_json, parse_bench_json, render_bench_json, BenchRecord};
use wcoj_bench::{bench_matrix, ExperimentTable};
use wcoj_core::exec::{run, CacheMode, Engine, ExecOptions};
use wcoj_core::planner::plan;
use wcoj_core::TraceSink;

/// How far a row's `total_work` may exceed the record's before the gate fails.
const WORK_FACTOR: f64 = 1.10;

/// Timed iterations per measurement, after one untimed run.
const ITERS: usize = 5;

/// The wall-clock milliseconds of [`ITERS`] runs of `f`, ascending.
fn sorted_times_ms<F: FnMut()>(mut f: F) -> Vec<f64> {
    let mut samples: Vec<f64> = (0..ITERS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let record = args.iter().any(|a| a == "--record");
    let full = record || args.iter().any(|a| a == "--full");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_joins.json");

    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|doc| parse_bench_json(&doc));
    let baseline = match baseline {
        Some(rows) => rows,
        // a record being replaced is read only for the printed comparison
        None if record => Vec::new(),
        None => {
            eprintln!(
                "perf_gate: {} is missing or not a bench document",
                path.display()
            );
            std::process::exit(2);
        }
    };

    let (sizes, clique_sizes): (&[usize], &[usize]) = if full {
        (&[1_024, 4_096, 16_384], &[1_024, 4_096])
    } else {
        (&[1_024, 4_096], &[1_024])
    };

    let mut table = ExperimentTable::new(
        format!(
            "perf gate: fresh serial minima vs {} (work x{WORK_FACTOR:.2}; time_ratio printed, not gated)",
            path.display()
        ),
        &[
            "base_ms",
            "fresh_ms",
            "time_ratio",
            "base_work",
            "fresh_work",
            "work_ratio",
            "off_ms",
            "warm_ratio",
        ],
    );
    let mut records = Vec::new();
    let mut failures = Vec::new();
    let mut compared = 0usize;

    for (label, w) in bench_matrix(sizes, clique_sizes) {
        let plan = plan(&w.query, &w.db, None).expect("planner");
        let agm = plan.agm.tuple_bound();
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let engine_name = format!("{engine:?}");
            let base = baseline
                .iter()
                .find(|r| r.workload == label && r.engine == engine_name);
            if base.is_none() && !record {
                continue; // workload/engine not in the committed record yet
            }
            let opts = ExecOptions::new(engine);
            let out = run(&w.query, &w.db, &plan, &opts, None).expect("execute");
            let times = sorted_times_ms(|| {
                let _ = run(&w.query, &w.db, &plan, &opts, None).unwrap();
            });
            // cache differential: the uncached execution must be bit-identical
            // in output rows and in the full work counter — caching can only
            // move structure *builds* around, never change what the join does
            let off_opts = opts.with_cache(CacheMode::Off);
            let off = run(&w.query, &w.db, &plan, &off_opts, None).expect("execute off");
            if off.result != out.result {
                failures.push(format!(
                    "{label}/{engine_name}: cache-off output diverges from cache-on ({} vs {} rows)",
                    off.result.len(),
                    out.result.len()
                ));
            }
            for (tally, on_value, off_value) in [
                ("total_work", out.work.total_work(), off.work.total_work()),
                (
                    "kernel_merge",
                    out.work.kernel_merge(),
                    off.work.kernel_merge(),
                ),
                (
                    "kernel_gallop",
                    out.work.kernel_gallop(),
                    off.work.kernel_gallop(),
                ),
                (
                    "kernel_bitmap",
                    out.work.kernel_bitmap(),
                    off.work.kernel_bitmap(),
                ),
                (
                    "delta_merge",
                    out.work.delta_merge(),
                    off.work.delta_merge(),
                ),
            ] {
                if on_value != off_value {
                    failures.push(format!(
                        "{label}/{engine_name}: {tally} differs under caching ({off_value} off vs {on_value} on — breakdown must be exactly unchanged)"
                    ));
                }
            }
            if off.work != out.work {
                failures.push(format!(
                    "{label}/{engine_name}: work counters differ under caching (must be bit-identical)"
                ));
            }
            let off_ms = sorted_times_ms(|| {
                let _ = run(&w.query, &w.db, &plan, &off_opts, None).unwrap();
            })[0];
            // trace differential: a traced run must not drift a single counter
            let sink = Arc::new(TraceSink::new());
            let traced_opts = opts.with_trace(Arc::clone(&sink));
            let traced = run(&w.query, &w.db, &plan, &traced_opts, None).expect("execute traced");
            if traced.result != out.result || traced.work != out.work {
                failures.push(format!(
                    "{label}/{engine_name}: tracing perturbed execution (rows or work \
                     counters differ from the untraced run)"
                ));
            }
            match sink.take() {
                Some(trace) => {
                    if trace.work_value("total_work") != Some(out.work.total_work()) {
                        failures.push(format!(
                            "{label}/{engine_name}: trace work tally disagrees with the counter"
                        ));
                    }
                }
                None => failures.push(format!(
                    "{label}/{engine_name}: traced run deposited no trace"
                )),
            }
            let fresh_ms = times[0];
            let fresh_work = out.work.total_work();
            let base_ms = base.map_or(f64::NAN, |b| b.median_ms);
            let base_work = base.map(|b| b.work_value("total_work").unwrap_or(0));
            let work_ratio = match base_work {
                None => f64::NAN, // a row the record does not hold yet
                // a zero/missing baseline tally must not silently disable the
                // deterministic gate: any fresh work over a zero base fails below
                Some(0) if fresh_work == 0 => 1.0,
                Some(0) => f64::INFINITY,
                Some(base_work) => fresh_work as f64 / base_work as f64,
            };
            table.push(
                format!("{label}/{engine_name}"),
                vec![
                    base_ms,
                    fresh_ms,
                    fresh_ms / base_ms,
                    base_work.map_or(f64::NAN, |w| w as f64),
                    fresh_work as f64,
                    work_ratio,
                    off_ms,
                    fresh_ms / off_ms.max(f64::MIN_POSITIVE),
                ],
            );
            if record {
                let work = &out.work;
                records.push(BenchRecord {
                    workload: label.clone(),
                    engine: engine_name,
                    threads: 1,
                    median_ms: times[ITERS / 2],
                    out_tuples: out.result.len() as u64,
                    agm_bound: agm,
                    work: [
                        ("intersect_steps", work.intersect_steps()),
                        ("probes", work.probes()),
                        ("intermediate_tuples", work.intermediate_tuples()),
                        ("output_tuples", work.output_tuples()),
                        ("comparisons", work.comparisons()),
                        ("delta_merge", work.delta_merge()),
                        ("total_work", work.total_work()),
                        ("kernel_merge", work.kernel_merge()),
                        ("kernel_gallop", work.kernel_gallop()),
                        ("kernel_bitmap", work.kernel_bitmap()),
                    ]
                    .map(|(name, value)| (name.to_string(), value))
                    .into(),
                });
                continue;
            }
            let (Some(base), Some(base_work)) = (base, base_work) else {
                continue;
            };
            compared += 1;
            if work_ratio > WORK_FACTOR {
                failures.push(format!(
                    "{label}/{engine_name}: total_work {base_work} -> {fresh_work} (x{work_ratio:.3} > x{WORK_FACTOR:.2})"
                ));
            }
            // deterministic per-kernel breakdown: exact match required (see module
            // docs) — skipped per tally when the record predates the tally
            for (tally, fresh_value) in [
                ("kernel_merge", out.work.kernel_merge()),
                ("kernel_gallop", out.work.kernel_gallop()),
                ("kernel_bitmap", out.work.kernel_bitmap()),
                ("delta_merge", out.work.delta_merge()),
            ] {
                let Some(base_value) = base.work_value(tally) else {
                    continue;
                };
                if fresh_value != base_value {
                    failures.push(format!(
                        "{label}/{engine_name}: {tally} {base_value} -> {fresh_value} (breakdown must match exactly)"
                    ));
                }
            }
        }
    }

    table.print();
    if !failures.is_empty() {
        let rows = if record { records.len() } else { compared };
        eprintln!("perf gate FAILED ({} of {rows} rows):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if record {
        let doc = render_bench_json(
            "cargo run --release -p wcoj-bench --bin perf_gate -- --record",
            &host_json(),
            &records,
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("perf_gate: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("recorded {} rows into {}", records.len(), path.display());
    } else if compared == 0 {
        eprintln!("perf_gate: no overlapping rows between the fresh matrix and the baseline");
        std::process::exit(2);
    } else {
        println!("perf gate PASSED: {compared} rows within budget");
    }
}
