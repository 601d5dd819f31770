//! Differential property test of the columnar result path.
//!
//! Every engine body emits through one `ColumnSink`, and `rows_to_relation`
//! either adopts its columns (identity order) or re-sorts them (any other
//! order). So for random small databases × query shapes × **every** variable
//! order × both WCOJ engines × threads {1, 2, 4} × {plain, cancellable, traced}:
//!
//! 1. the result equals the binary hash-join baseline's relation, and
//! 2. the work counters are identical across all nine (threads, mode) runs of
//!    one (engine, order).
//!
//! The two `dense_*` shapes — the small-domain triangle whose sibling groups
//! carry set layouts, alone and beside a delta-backed atom that has none — run
//! all of that with the access cache on and off as well: the word-parallel path
//! and its fall-through give the same rows, and counters that depend on nothing
//! but (engine, order).

use std::sync::Arc;
use wcoj_core::exec::{
    execute_cancellable, execute_opts, run, CacheMode, CancelToken, Engine, ExecOptions, ExecOutput,
};
use wcoj_core::planner::{plan, Plan};
use wcoj_obs::TraceSink;
use wcoj_query::{ConjunctiveQuery, Database};
use wcoj_storage::{Relation, Schema};
use wcoj_workloads::{
    four_cycle, k_path, kclique, star, triangle, triangle_live, SplitMix64, Workload,
};

/// `Q(A) ← R(A), S(A)`: the one shape whose level 0 is also its deepest level.
fn single_variable(n: usize, seed: u64) -> Workload {
    let mut rng = SplitMix64::new(seed);
    let mut unary = |name: &str| {
        let rows = (0..n).map(|_| vec![rng.below(n as u64)]).collect();
        (
            name.to_string(),
            Relation::from_rows(Schema::new(&["A"]), rows),
        )
    };
    let mut db = Database::new();
    for (name, rel) in [unary("R"), unary("S")] {
        db.insert(name, rel);
    }
    let query = ConjunctiveQuery::builder()
        .atom("R", &["A"])
        .atom("S", &["A"])
        .build()
        .expect("valid query");
    Workload {
        name: format!("single_variable_n{n}"),
        query,
        db,
    }
}

/// A triangle whose `S` is empty: every order must come back empty-handed.
fn empty_relation(n: usize, seed: u64) -> Workload {
    let mut w = triangle(n, seed);
    w.db.insert(
        "S",
        Relation::from_pairs("B", "C", Vec::<(u64, u64)>::new()),
    );
    w.name = format!("empty_relation_n{n}");
    w
}

/// `w` under a `dense_` name: at 256 rows over ~33 values most sibling groups
/// are dense, and the name asks the sweep below for its storage axes.
fn dense(mut w: Workload) -> Workload {
    w.name = format!("dense_{}", w.name);
    w
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut orders: Vec<Vec<usize>> = vec![vec![]];
    for _ in 0..n {
        orders = orders
            .iter()
            .flat_map(|o| {
                (0..n).filter(|v| !o.contains(v)).map(|v| {
                    let mut longer = o.clone();
                    longer.push(v);
                    longer
                })
            })
            .collect();
    }
    orders
}

/// One execution of `plan` in each of the three serial/parallel driver modes.
fn run_mode(w: &Workload, opts: &ExecOptions, plan: &Plan, mode: &str) -> ExecOutput {
    let order = &plan.order;
    let out = match mode {
        "plain" => run(&w.query, &w.db, plan, opts, None),
        "cancellable" => {
            execute_cancellable(&w.query, &w.db, opts, Some(order), &CancelToken::new())
        }
        "traced" => {
            let traced = opts.with_trace(Arc::new(TraceSink::new()));
            run(&w.query, &w.db, plan, &traced, None)
        }
        other => unreachable!("unknown mode {other}"),
    };
    out.unwrap_or_else(|e| panic!("{}: {mode} under {order:?} failed: {e}", w.name))
}

#[test]
fn every_order_engine_thread_count_and_mode_agrees_with_the_baseline() {
    let mut executions = 0usize;
    for seed in [0xC01u64, 0xC02, 0xC03] {
        let n = 24 + (seed as usize % 3) * 8;
        let shapes = [
            triangle(n, seed),
            kclique(4, n + 16, seed),
            four_cycle(n, seed),
            k_path(3, n, seed),
            star(3, n, seed),
            single_variable(n, seed),
            empty_relation(n, seed),
            dense(triangle(256, seed)),
            dense(triangle_live(256, seed)),
        ];
        for w in &shapes {
            let expected = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::BinaryHash))
                .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name))
                .result;
            let must_be_empty = w.name.starts_with("empty_relation");
            assert_eq!(expected.is_empty(), must_be_empty, "{}: vacuous", w.name);
            let caches: &[CacheMode] = if w.name.starts_with("dense_") {
                &[CacheMode::On, CacheMode::Off]
            } else {
                &[CacheMode::On]
            };
            for order in permutations(w.query.num_vars()) {
                let plan = plan(&w.query, &w.db, Some(&order)).expect("plan");
                for engine in [Engine::GenericJoin, Engine::Leapfrog] {
                    let mut work = None;
                    for &cache in caches {
                        for threads in [1, 2, 4] {
                            let opts = ExecOptions::new(engine)
                                .with_cache(cache)
                                .with_threads(threads);
                            for mode in ["plain", "cancellable", "traced"] {
                                let out = run_mode(w, &opts, &plan, mode);
                                let at = format!(
                                    "{} {engine:?} order {order:?} cache {cache:?} x{threads} \
                                     {mode}",
                                    w.name
                                );
                                assert_eq!(out.result, expected, "{at}: rows");
                                let first = work.get_or_insert_with(|| out.work.clone());
                                assert_eq!(&out.work, first, "{at}: work counters");
                                executions += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    // 3 seeds × ((6 + 24·4 + 1 + 6) + 2·6·2) orders × 2 engines × 9 modes
    assert_eq!(executions, 3 * (109 + 24) * 18);
}
