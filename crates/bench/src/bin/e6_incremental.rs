//! E6: incremental maintenance — streaming-ingest throughput and query latency
//! vs delta depth, against the naive full-rebuild baseline.
//!
//! Two measurements over the `edge_stream` workload (sliding-window graph
//! stream, interleaved inserts/deletes, triangle self-join):
//!
//! 1. **Ingest** — apply the same operation stream to (a) a [`Relation`]'s
//!    sorted columns kept sorted in place (binary search, then
//!    `Vec::insert`/`remove` per column — O(n) per op: the full-rebuild
//!    discipline every pre-delta layer assumed; the baseline's delete lives
//!    here, the storage crate has none) and (b) a
//!    [`DeltaRelation`] (buffer append + amortized seal/tier merges). Reports
//!    ops/ms and values moved per effective op for both; both replicas must
//!    agree tuple-for-tuple at the end. Every run, `--smoke` included,
//!    **asserts the delta path moves ≥ 10× fewer values at n = 16384**: the
//!    naive path's shifted tail values × arity against the values the log
//!    writes by buffer appends, seals and tier merges
//!    ([`DeltaRelation::values_written`]). Both counts are exact, so the gate
//!    does not depend on the host. The wall-clock ratio is printed beside it,
//!    ungated: it read 8.8–11.8× on a shared 2-vCPU VM.
//!
//! 2. **Query latency vs delta depth** — load the stream at several seal
//!    thresholds (deeper run stacks for smaller thresholds), then time the
//!    triangle query per engine over (a) the live delta log, (b) the same data
//!    after `compact()`, and (c) a statically rebuilt twin. Reports wall-clock,
//!    `total_work`, and the `delta_merge` share, asserting all paths return the
//!    same rows.
//!
//! Run with `cargo run --release -p wcoj-bench --bin e6_incremental
//! [-- --smoke]` (smoke trims the latency matrix; the ingest itself runs at
//! full size either way — about a second).

use std::time::Instant;
use wcoj_bench::ExperimentTable;
use wcoj_core::exec::{execute_opts_with_order, Engine, ExecOptions};
use wcoj_core::planner::agm_variable_order;
use wcoj_query::query::examples;
use wcoj_query::Database;
use wcoj_storage::{DeltaRelation, Relation, Schema};
use wcoj_workloads::edge_stream_ops;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn median_ms<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(ms(t));
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Apply the op stream to a delta log with the given seal threshold.
fn load_delta(ops: &[(bool, (u64, u64))], threshold: usize) -> DeltaRelation {
    let mut delta = DeltaRelation::new(Schema::new(&["src", "dst"]));
    delta.set_seal_threshold(threshold);
    delta.reserve(ops.len() / 2);
    for &(insert, (a, b)) in ops {
        if insert {
            delta.insert_ref(&[a, b]).expect("stream insert");
        } else {
            delta.delete(&[a, b]).expect("stream delete");
        }
    }
    delta.seal();
    delta
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = 0xE6;

    // ── Part 1: ingest throughput, naive O(n)-per-op vs delta log ──────────
    let n = 16_384usize;
    let ops = edge_stream_ops(n, n / 2, seed);

    // best-of-3 for both paths: scheduler noise only ever *adds* time (the
    // perf_gate estimator argument), and the first pass doubles as warm-up
    let mut naive = Relation::empty(Schema::new(&["src", "dst"]));
    let mut naive_ms = f64::INFINITY;
    // per pass: effective ops, and values shifted (tail length × arity)
    let (mut effective, mut naive_moves) = (0u64, 0u64);
    for _ in 0..3 {
        let t = Instant::now();
        (effective, naive_moves) = (0, 0);
        // the relation's own layout — one sorted column per attribute
        let (mut src, mut dst): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
        for &(insert, (a, b)) in &ops {
            let (mut pos, mut hi) = (0, src.len());
            while pos < hi {
                let mid = (pos + hi) / 2;
                if (src[mid], dst[mid]) < (a, b) {
                    pos = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let present = pos < src.len() && (src[pos], dst[pos]) == (a, b);
            // an effective op shifts the tail behind `pos` in both columns
            let tail = (src.len() - pos) as u64;
            if insert && !present {
                src.insert(pos, a);
                dst.insert(pos, b);
                (effective, naive_moves) = (effective + 1, naive_moves + 2 * tail);
            } else if !insert && present {
                src.remove(pos);
                dst.remove(pos);
                (effective, naive_moves) = (effective + 1, naive_moves + 2 * (tail - 1));
            }
        }
        naive_ms = naive_ms.min(ms(t));
        naive = Relation::try_from_columns(naive.schema().clone(), vec![src, dst])
            .expect("two equal-length columns");
    }

    let mut delta = load_delta(&ops, 4096);
    let mut delta_ms = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let fresh = load_delta(&ops, 4096);
        delta_ms = delta_ms.min(ms(t));
        delta = fresh;
    }

    assert_eq!(
        delta.snapshot(),
        naive,
        "delta and naive replicas must agree tuple-for-tuple"
    );
    let speedup = naive_ms / delta_ms;
    let delta_moves = delta.values_written();
    let moves_ratio = naive_moves as f64 / delta_moves as f64;
    let mut ingest = ExperimentTable::new(
        format!(
            "E6a: ingest {} ops, {effective} effective (n = {n} sliding-window stream)",
            ops.len()
        ),
        &[
            "total_ms",
            "ops_per_ms",
            "wall_speedup",
            "moves_per_op",
            "moves_ratio",
        ],
    );
    for (name, ms, moves) in [
        ("naive_sorted_relation", naive_ms, naive_moves),
        ("delta_log", delta_ms, delta_moves),
    ] {
        let (per_op, ratio) = (
            moves as f64 / effective as f64,
            naive_moves as f64 / moves as f64,
        );
        ingest.push(
            name,
            vec![ms, ops.len() as f64 / ms, naive_ms / ms, per_op, ratio],
        );
    }
    ingest.print();
    assert!(
        moves_ratio >= 10.0,
        "acceptance criterion: the delta log must move >= 10x fewer values than the naive path \
         at n = {n} (got {moves_ratio:.1}x)"
    );
    println!(
        "ingest acceptance PASSED: {moves_ratio:.1}x fewer values moved >= 10x at n = {n} \
         (wall clock {speedup:.1}x, not gated)\n"
    );

    // ── Part 2: query latency vs delta depth ───────────────────────────────
    let (qn, iters) = if smoke { (4_096usize, 2) } else { (16_384, 5) };
    let qops = edge_stream_ops(qn, qn / 2, seed ^ 0x77);
    let query = examples::clique(3);
    let mut table = ExperimentTable::new(
        format!("E6b: triangle query over the live log, n = {qn} stream (t = serial)"),
        &[
            "runs",
            "median_ms",
            "total_work",
            "delta_merge",
            "out_tuples",
        ],
    );

    // the statically rebuilt twin: the best case every query paid O(n log n)
    // maintenance for
    let reference = load_delta(&qops, 1024).snapshot();
    let mut static_db = Database::new();
    static_db.insert("E", reference.clone());
    let order = agm_variable_order(&query, &static_db).expect("planner");

    let thresholds: &[usize] = if smoke {
        &[1_024, 64]
    } else {
        &[4_096, 1_024, 256, 64]
    };
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let opts = ExecOptions::new(engine);
        let static_out =
            execute_opts_with_order(&query, &static_db, &opts, &order).expect("static query");
        let static_ms = median_ms(
            || {
                let _ = execute_opts_with_order(&query, &static_db, &opts, &order).unwrap();
            },
            iters,
        );
        table.push(
            format!("static_rebuild/{engine:?}"),
            vec![
                1.0,
                static_ms,
                static_out.work.total_work() as f64,
                0.0,
                static_out.result.len() as f64,
            ],
        );

        for &threshold in thresholds {
            let delta = load_delta(&qops, threshold);
            let mut db = Database::new();
            db.insert_delta_relation("E", delta);
            let runs = db.delta("E").unwrap().num_runs();
            let out = execute_opts_with_order(&query, &db, &opts, &order).expect("delta query");
            assert_eq!(
                out.result, static_out.result,
                "{engine:?} seal={threshold}: live result diverges from rebuild"
            );
            let live_ms = median_ms(
                || {
                    let _ = execute_opts_with_order(&query, &db, &opts, &order).unwrap();
                },
                iters,
            );
            table.push(
                format!("depth_seal{threshold}/{engine:?}"),
                vec![
                    runs as f64,
                    live_ms,
                    out.work.total_work() as f64,
                    out.work.delta_merge() as f64,
                    out.result.len() as f64,
                ],
            );

            // compacted: one run, tombstones annihilated — converges on static
            db.compact("E").unwrap();
            let out = execute_opts_with_order(&query, &db, &opts, &order).expect("compacted");
            assert_eq!(
                out.result, static_out.result,
                "{engine:?}: compaction changed rows"
            );
        }
    }
    table.print();
    println!("all live/compacted/rebuilt results agree");
}
