//! E8: the epoch-keyed access-structure cache — the measurements behind the
//! `EXPERIMENTS.md` E8 writeup.
//!
//! Four sections:
//!
//! 1. **Cold / warm / off** — per-query latency of repeated identical queries
//!    with the cache bypassed (fresh builds every execution), cold (first
//!    cached run), and warm (every structure reused). Results and work
//!    counters are asserted bit-identical across all three; in full mode the
//!    warm path must be ≥ 2× faster than cache-off on at least one workload
//!    (the PR's acceptance criterion), and the winning rows are recorded as
//!    `e8_*` entries in `BENCH_joins.json`. The workload list spans the whole
//!    build-to-join cost spectrum: symmetric triangles (join-dominated, modest
//!    wins), the streaming replay mix, and the selective `needle` shape
//!    (build-dominated — large wins, and the regime the cache is *for*).
//! 2. **Incremental merge vs full rebuild** — seal one small batch into a
//!    large delta log and compare reusing the cached tries of the runs that
//!    are still there (build only the new run's) against rebuilding from
//!    scratch; in full mode the
//!    incremental path must win.
//! 3. **Hit-rate sweep** — Zipf-distributed replay over a pool of variable
//!    orders under shrinking byte budgets: hit rate degrades and evictions
//!    rise as the budget starves, correctness never changes.
//! 4. **Honest negatives** — the one-shot (cold) query pays for cache
//!    bookkeeping and `Arc` indirection without reusing anything; the
//!    cold-vs-off ratio is reported rather than hidden.
//!
//! `--smoke` shrinks sizes/iterations for CI (correctness asserts stay on,
//! wall-clock asserts are full-run only); the full run backs the numbers
//! quoted in `EXPERIMENTS.md`.

use std::time::Instant;
use wcoj_bench::report::{parse_bench_json, write_bench_json, BenchRecord};
use wcoj_bounds::agm::agm_bound;
use wcoj_core::exec::{
    execute_opts_with_order, CacheMode, CacheStats, Engine, ExecOptions, ExecOutput,
};
use wcoj_core::planner::agm_variable_order;
use wcoj_query::query::examples;
use wcoj_query::Database;
use wcoj_storage::{DeltaRelation, Relation, Schema};
use wcoj_workloads::{needle, query_replay, random_pairs, triangle, triangle_skewed, SplitMix64};

fn min_time_ms<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn bench_record(workload: &str, engine: &str, ms: f64, agm: f64, out: &ExecOutput) -> BenchRecord {
    BenchRecord {
        workload: workload.to_string(),
        engine: engine.to_string(),
        threads: 1,
        median_ms: ms,
        out_tuples: out.result.len() as u64,
        agm_bound: agm,
        work: vec![
            ("total_work".into(), out.work.total_work()),
            ("probes".into(), out.work.probes()),
            ("comparisons".into(), out.work.comparisons()),
            ("kernel_merge".into(), out.work.kernel_merge()),
            ("kernel_gallop".into(), out.work.kernel_gallop()),
            ("kernel_bitmap".into(), out.work.kernel_bitmap()),
            ("delta_merge".into(), out.work.delta_merge()),
        ],
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, iters, replays) = if smoke {
        (2_048, 3, 60)
    } else {
        (16_384, 15, 400)
    };

    // ---- 1. cold / warm / off -------------------------------------------
    println!("E8.1 repeated-query latency: cache off vs cold vs warm (min of {iters})");
    let workloads = [
        (format!("uniform_n{n}"), triangle(n, 0xC0FFEE)),
        (
            format!("zipf_n{n}"),
            triangle_skewed(n, (n / 4) as u64, 1.1, 0xBEEF),
        ),
        (format!("replay_n{n}"), query_replay(n, 0xCACE)),
        (format!("needle_n{n}"), needle(n, 0xD1D1)),
    ];
    let mut e8_records: Vec<BenchRecord> = Vec::new();
    let mut best_speedup = 0.0f64;
    for (name, w) in &workloads {
        let agm = agm_bound(&w.query, &w.db).expect("agm").tuple_bound();
        let order = agm_variable_order(&w.query, &w.db).expect("planner");
        println!("  {name}: planned order {order:?}");
        if name.starts_with("needle") {
            // the probe relation R(A, B) is bound first: the join's work is
            // bounded by R's rows, not by S ⋈ T (EXPERIMENTS E17)
            assert!(order[0] < 2, "{name}: {order:?} binds C before the needle");
        }
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let base = ExecOptions::new(engine);
            let off_opts = base.with_cache(CacheMode::Off);
            let off_out = execute_opts_with_order(&w.query, &w.db, &off_opts, &order).expect("off");
            let off_ms = min_time_ms(
                || {
                    let _ = execute_opts_with_order(&w.query, &w.db, &off_opts, &order).unwrap();
                },
                iters,
            );
            // cold: every structure misses (one-shot timing, see E8.4)
            w.db.access_cache().clear();
            let t = Instant::now();
            let cold_out = execute_opts_with_order(&w.query, &w.db, &base, &order).expect("cold");
            let cold_ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(cold_out.cache_stats.misses > 0, "{name}: cold run misses");
            // warm: every structure is reused
            let warm_out = execute_opts_with_order(&w.query, &w.db, &base, &order).expect("warm");
            assert_eq!(warm_out.cache_stats.misses, 0, "{name}: warm run is pure");
            assert!(warm_out.cache_stats.hits > 0, "{name}: warm run hits");
            let warm_ms = min_time_ms(
                || {
                    let _ = execute_opts_with_order(&w.query, &w.db, &base, &order).unwrap();
                },
                iters,
            );
            // the cache may never change results or execution counters
            assert_eq!(warm_out.result, off_out.result, "{name}/{engine:?} rows");
            assert_eq!(warm_out.work, off_out.work, "{name}/{engine:?} counters");
            assert_eq!(cold_out.result, off_out.result);
            assert_eq!(cold_out.work, off_out.work);
            let speedup = off_ms / warm_ms;
            best_speedup = best_speedup.max(speedup);
            println!(
                "  {name}/{engine:?}: off {off_ms:.3}ms, cold {cold_ms:.3}ms, warm {warm_ms:.3}ms (warm x{speedup:.2}, counters identical)"
            );
            e8_records.push(bench_record(
                &format!("e8_{name}"),
                &format!("{engine:?}[off]"),
                off_ms,
                agm,
                &off_out,
            ));
            e8_records.push(bench_record(
                &format!("e8_{name}"),
                &format!("{engine:?}[warm]"),
                warm_ms,
                agm,
                &warm_out,
            ));
        }
    }
    if !smoke {
        assert!(
            best_speedup >= 2.0,
            "acceptance: warm must be >= 2x off somewhere, best was x{best_speedup:.2}"
        );
    }

    // ---- 2. incremental merge vs full rebuild ----------------------------
    println!("\nE8.2 after one seal: incremental view merge vs full rebuild (min of {iters})");
    let query = examples::triangle();
    let d = 2 * ((n as f64).sqrt().ceil() as u64) + 1;
    let mut db = Database::new();
    let mut delta = DeltaRelation::new(Schema::new(&["A", "B"]));
    delta.set_seal_threshold(usize::MAX);
    for (a, b) in random_pairs(n, d, 0xE821) {
        delta.insert(vec![a, b]).expect("base insert");
    }
    delta.seal();
    db.insert_delta_relation("R", delta);
    db.insert(
        "S",
        Relation::from_pairs("B", "C", random_pairs(64, d, 0xE822)),
    );
    db.insert(
        "T",
        Relation::from_pairs("A", "C", random_pairs(64, d, 0xE823)),
    );
    // non-native order: each run of R is argsorted once, then its trie is cached
    let order = vec![2usize, 1, 0];
    let opts = ExecOptions::new(Engine::GenericJoin);
    let db_old = db.clone(); // shares the access cache with db
    let batch = (n / 64).max(16);
    let mut rng = SplitMix64::new(0xE824);
    for _ in 0..batch {
        db.insert_delta("R", vec![rng.below(d), rng.below(d)])
            .expect("batch insert");
    }
    db.seal("R").expect("seal");
    // rebuild: cold cache, every structure from scratch
    let rebuild_ms = min_time_ms(
        || {
            db.access_cache().clear();
            let out = execute_opts_with_order(&query, &db, &opts, &order).unwrap();
            assert_eq!(out.cache_stats.misses, 3);
        },
        iters,
    );
    // incremental: prime the pre-seal runs' tries (the db clone shares the
    // cache), then time only the post-seal query, which builds the new run's
    let incremental_ms = {
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            db.access_cache().clear();
            let _ = execute_opts_with_order(&query, &db_old, &opts, &order).unwrap();
            let t = Instant::now();
            let out = execute_opts_with_order(&query, &db, &opts, &order).unwrap();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                out.cache_stats.incremental_merges, 1,
                "only the new run is built"
            );
            assert_eq!(out.cache_stats.misses, 0, "nothing rebuilt");
        }
        best
    };
    let rebuilt = {
        db.access_cache().clear();
        execute_opts_with_order(&query, &db, &opts, &order).unwrap()
    };
    let merged = execute_opts_with_order(&query, &db, &opts, &order).unwrap();
    assert_eq!(merged.result, rebuilt.result, "merge is bit-identical");
    assert_eq!(merged.work, rebuilt.work);
    println!(
        "  {n}-row base + {batch}-row sealed batch: full rebuild {rebuild_ms:.3}ms, incremental merge {incremental_ms:.3}ms (x{:.2})",
        rebuild_ms / incremental_ms
    );
    if !smoke {
        assert!(
            incremental_ms < rebuild_ms,
            "acceptance: incremental merge must beat the full rebuild"
        );
    }

    // ---- 3. hit-rate sweep under byte pressure ---------------------------
    println!("\nE8.3 Zipf replay of {replays} queries over 6 variable orders, shrinking budgets");
    let mut w = query_replay(n.min(4096), 0xE83);
    let orders: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    // reference outputs per order, computed cache-off once
    let opts = ExecOptions::new(Engine::GenericJoin);
    let refs: Vec<Relation> = orders
        .iter()
        .map(|o| {
            execute_opts_with_order(&w.query, &w.db, &opts.with_cache(CacheMode::Off), o)
                .expect("reference")
                .result
        })
        .collect();
    // measure the full working set once to scale the budgets meaningfully
    for o in &orders {
        let _ = execute_opts_with_order(&w.query, &w.db, &opts, o).expect("warm-up");
    }
    let full_bytes = w.db.access_cache().bytes();
    println!(
        "  full working set: {} entries, {full_bytes} bytes",
        w.db.access_cache().len()
    );
    for (label, budget) in [
        ("unbounded", full_bytes * 4),
        ("full", full_bytes),
        ("half", full_bytes / 2),
        ("eighth", full_bytes / 8),
    ] {
        w.db.set_cache_budget(budget.max(1));
        let mut rng = SplitMix64::new(0xE832);
        let mut total = CacheStats::default();
        for _ in 0..replays {
            // Zipf-ish query popularity: order k drawn with weight ~ 1/2^k
            let k = (rng.next_u64().trailing_ones() as usize).min(orders.len() - 1);
            let out = execute_opts_with_order(&w.query, &w.db, &opts, &orders[k])
                .expect("replayed query");
            assert_eq!(out.result, refs[k], "budget {label}: order {k} diverged");
            total.absorb(&out.cache_stats);
            assert!(w.db.access_cache().bytes() <= budget.max(1));
        }
        let lookups = total.hits + total.misses + total.incremental_merges;
        println!(
            "  budget {label:>9} ({budget:>9}B): hit rate {:>5.1}% ({} hits / {lookups} lookups), {} evictions, resident {}B",
            100.0 * total.hits as f64 / lookups as f64,
            total.hits,
            total.evictions,
            total.bytes,
        );
    }

    // ---- 4. honest negatives ---------------------------------------------
    println!("\nE8.4 honest negatives");
    let w = triangle(n, 0xC0FFEE);
    let order = agm_variable_order(&w.query, &w.db).expect("planner");
    let opts = ExecOptions::new(Engine::GenericJoin);
    let off_ms = min_time_ms(
        || {
            let _ =
                execute_opts_with_order(&w.query, &w.db, &opts.with_cache(CacheMode::Off), &order)
                    .unwrap();
        },
        iters,
    );
    let cold_ms = min_time_ms(
        || {
            w.db.access_cache().clear();
            let _ = execute_opts_with_order(&w.query, &w.db, &opts, &order).unwrap();
        },
        iters,
    );
    println!(
        "  one-shot cold query pays for caching it never uses: off {off_ms:.3}ms vs cold {cold_ms:.3}ms (x{:.2} overhead)",
        cold_ms / off_ms
    );
    println!("  a sealed run's trie is resident per (run, order), the native order included: a stream read in k column orders keeps k tries per run, where the native order used to borrow the log for free");

    // ---- record E8 rows into BENCH_joins.json (full runs only) -----------
    if !smoke {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_joins.json");
        let mut records: Vec<BenchRecord> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|doc| parse_bench_json(&doc))
            .unwrap_or_default();
        // replace any previous E8 rows, keep everything else untouched
        records.retain(|r| !r.workload.starts_with("e8_"));
        records.extend(e8_records);
        match write_bench_json(
            &path,
            "cargo bench -p wcoj-bench (+ e8_view_cache)",
            &records,
        ) {
            Ok(()) => println!("\nwrote E8 rows into {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    println!("\nE8 PASSED");
}
