//! E11: end-to-end observability — EXPLAIN ANALYZE output, the cost of
//! tracing, and the service metrics surface. The measurements behind the
//! `EXPERIMENTS.md` E11 writeup.
//!
//! Three sections:
//!
//! 1. **EXPLAIN ANALYZE** — the acceptance scenario: a triangle query over a
//!    delta-backed relation, profiled with [`execute_explain`]; prints the
//!    per-level tree (kernel choice, cache outcome, time/work split) and
//!    round-trips the JSON form through the crate's own parser.
//! 2. **Tracing overhead** — the honest negative: a traced run is *not* free.
//!    Median wall time with the sink installed vs without, across engines, at
//!    a size where per-level bookkeeping is visible. Work counters and rows
//!    stay bit-identical either way (asserted); only the off-path is
//!    zero-cost.
//! 3. **Service metrics** — a durable service under writes and traced queries;
//!    snapshots the registry as JSON (schema-checked with the dependency-free
//!    parser) and as a Prometheus exposition.
//!
//! `--smoke` shrinks sizes for CI (correctness asserts stay on); the full run
//! records `e11_*` rows into `BENCH_joins.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use wcoj_bench::report::{parse_bench_json, write_bench_json, BenchRecord};
use wcoj_core::exec::{execute_explain, execute_opts_with_order, CacheMode, Engine, ExecOptions};
use wcoj_core::planner::agm_variable_order;
use wcoj_core::TraceSink;
use wcoj_obs::Json;
use wcoj_query::query::examples;
use wcoj_query::Database;
use wcoj_service::{QueryService, ServiceConfig, WriteBatch};
use wcoj_storage::{DeltaRelation, Relation, Schema};
use wcoj_workloads::triangle;

/// Median wall-clock milliseconds of `f` over `reps` runs.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// The delta-backed triangle catalog from the acceptance criterion: one edge
/// relation `E`, built from plain inserts, mutated, and sealed, so every
/// clique atom is a view of the same delta log.
fn delta_triangle_db() -> Database {
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            "src",
            "dst",
            (0..600u64).flat_map(|i| [(i % 31, (i * 7) % 29), ((i * 3) % 31, (i * 11) % 29)]),
        ),
    );
    db.set_cache_budget(64 << 20);
    db.insert_delta("E", vec![100, 101]).unwrap();
    db.delete("E", &[100, 101]).unwrap();
    db.insert_delta("E", vec![1, 2]).unwrap();
    db.seal("E").unwrap();
    db
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trailing = if smoke { " (smoke)" } else { "" };
    println!("E11: observability — EXPLAIN ANALYZE, tracing cost, metrics{trailing}\n");
    let mut e11_records: Vec<BenchRecord> = Vec::new();

    // ---- 1. EXPLAIN ANALYZE on a delta-backed triangle -------------------
    println!("E11.1 EXPLAIN ANALYZE (triangle over a delta-backed relation):");
    let db = delta_triangle_db();
    let q = examples::clique(3);
    let opts = ExecOptions::new(Engine::GenericJoin);
    let (out, trace) = execute_explain(&q, &db, &opts).expect("explain");
    println!("{}", trace.render_tree());
    let json = Json::parse(&trace.to_json()).expect("trace JSON parses");
    assert_eq!(
        json.get("rows").and_then(Json::as_u64),
        Some(out.result.len() as u64),
        "trace JSON round-trips"
    );
    assert_eq!(trace.levels.len(), 3, "one level per variable");
    assert!(
        trace.levels.iter().any(|l| l.candidates > 0),
        "levels report candidates"
    );
    println!(
        "  => {} rows, AGM tuple bound {:.0}, JSON round-trip OK\n",
        out.result.len(),
        trace.agm_tuples
    );

    // ---- 2. tracing overhead (the honest negative) -----------------------
    println!("E11.2 tracing overhead (trace ON vs OFF, median wall ms):");
    let n = if smoke { 20_000 } else { 120_000 };
    let reps = if smoke { 5 } else { 15 };
    let w = triangle(n, 97);
    let order = agm_variable_order(&w.query, &w.db).expect("planner");
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let base = ExecOptions::new(engine).with_cache(CacheMode::Off);
        let plain = execute_opts_with_order(&w.query, &w.db, &base, &order).expect("plain");
        let off_ms = median_ms(reps, || {
            let out = execute_opts_with_order(&w.query, &w.db, &base, &order).expect("off");
            assert_eq!(out.result.len(), plain.result.len());
        });
        let on_ms = median_ms(reps, || {
            let sink = Arc::new(TraceSink::new());
            let traced = base.with_trace(Arc::clone(&sink));
            let out = execute_opts_with_order(&w.query, &w.db, &traced, &order).expect("on");
            // tracing must never perturb results or deterministic counters
            assert_eq!(out.result, plain.result);
            assert_eq!(out.work, plain.work);
            let trace = sink.take().expect("trace deposited");
            assert_eq!(trace.rows, plain.result.len() as u64);
        });
        let overhead = (on_ms / off_ms - 1.0) * 100.0;
        println!(
            "  {engine:?}: off {off_ms:>8.3} ms, on {on_ms:>8.3} ms => {overhead:+.1}% \
             (rows and work counters bit-identical)"
        );
        e11_records.push(BenchRecord {
            workload: format!("e11_trace_overhead_{engine:?}"),
            engine: format!("{engine:?}"),
            threads: 1,
            median_ms: on_ms,
            out_tuples: plain.result.len() as u64,
            agm_bound: 0.0,
            work: vec![
                ("off_us".into(), (off_ms * 1e3) as u64),
                ("on_us".into(), (on_ms * 1e3) as u64),
                ("total_work".into(), plain.work.total_work()),
            ],
        });
    }
    println!(
        "  => the honest negative: with the sink installed the per-level atomics and\n\
         \x20    timestamps are real work — tracing is opt-in per query, only the\n\
         \x20    trace-OFF path is zero-cost (a single Option check per query)\n"
    );

    // ---- 3. service metrics surface --------------------------------------
    println!("E11.3 service metrics (durable writes + traced queries):");
    let mut wal = std::env::temp_dir();
    wal.push(format!("wcoj-e11-{}", std::process::id()));
    std::fs::remove_dir_all(&wal).ok();
    let mut sdb = Database::new();
    for (name, cols) in [("R", ["a", "b"]), ("S", ["b", "c"]), ("T", ["a", "c"])] {
        let mut delta = DeltaRelation::new(Schema::new(&cols));
        delta.set_seal_threshold(usize::MAX);
        sdb.insert_delta_relation(name, delta);
    }
    let config = ServiceConfig::default().with_slow_query(Duration::ZERO);
    let (service, _) = QueryService::open(&wal, sdb, config).expect("open service");
    for i in 0..40u64 {
        let mut batch = WriteBatch::new();
        for name in ["R", "S", "T"] {
            batch = batch.insert(name, vec![i % 17, (i * 5) % 17]);
        }
        if i % 8 == 7 {
            batch = batch.seal("R").seal("S").seal("T");
        }
        service.apply(&batch).expect("apply");
    }
    let queries = if smoke { 4 } else { 20 };
    for _ in 0..queries {
        service.query(&examples::triangle()).expect("query");
    }

    // schema sanity: every entry is typed and carries the fields its type
    // promises — the check release-smoke runs in CI
    let doc = service.metrics_json();
    let parsed = Json::parse(&doc).expect("metrics JSON parses");
    for name in [
        "service.admitted",
        "service.slow_queries",
        "wal.batches_committed",
        "wal.group_commits",
    ] {
        let entry = parsed.get(name).unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(entry.get("type").and_then(Json::as_str), Some("counter"));
        assert!(entry.get("value").and_then(Json::as_u64).is_some());
    }
    for name in ["wal.fsync_us", "wal.batches_per_fsync", "service.query_us"] {
        let entry = parsed.get(name).unwrap_or_else(|| panic!("missing {name}"));
        assert_eq!(entry.get("type").and_then(Json::as_str), Some("histogram"));
        assert!(entry.get("count").and_then(Json::as_u64).is_some());
    }
    assert_eq!(
        parsed
            .get("wal.bytes")
            .and_then(|m| m.get("type"))
            .and_then(Json::as_str),
        Some("gauge")
    );
    assert_eq!(
        parsed
            .get("service.admitted")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_u64),
        service
            .registry()
            .snapshot()
            .counter_value("service.admitted"),
        "the JSON rendering and the registry agree"
    );
    let slow = service.slow_queries();
    assert!(!slow.is_empty(), "threshold zero traces every query");
    println!(
        "  {} metrics registered; {} queries traced into the slow-query ring",
        service.registry().snapshot().entries().len(),
        slow.len()
    );
    let prom = service.metrics_prometheus();
    assert!(prom.contains("# TYPE wal_fsync_us histogram"));
    for line in prom.lines().filter(|l| {
        l.starts_with("wal_fsync_us_count")
            || l.starts_with("wal_batches_per_fsync_count")
            || l.starts_with("service_admitted")
            || l.starts_with("service_slow_queries")
    }) {
        println!("  {line}");
    }
    std::fs::remove_dir_all(&wal).ok();

    // ---- record E11 rows into BENCH_joins.json (full runs only) ----------
    if !smoke {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_joins.json");
        let mut records: Vec<BenchRecord> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|doc| parse_bench_json(&doc))
            .unwrap_or_default();
        records.retain(|r| !r.workload.starts_with("e11_"));
        records.extend(e11_records);
        match write_bench_json(
            &path,
            "cargo bench -p wcoj-bench (+ e8_view_cache, e10_group_commit, e11_observability)",
            &records,
        ) {
            Ok(()) => println!("\nwrote E11 rows into {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    println!("\nE11 PASSED");
}
