//! Differential suite for Generic Join's last two levels run as one loop
//! (`exec/engine.rs`, `bind_above_deepest`), over the shapes that reach it:
//!
//! * the request benchmark's uniform triangle at its smoke size — 2048
//!   distinct pairs per relation over a `2√n + 1` domain — where every
//!   sibling group is dense, so the loop seats by running rank and ANDs
//!   layouts;
//! * `clique(4)` and Loomis–Whitney `LW(4)`, whose deepest level has both
//!   fixed participants (atoms without the second-to-last variable, opened
//!   once per loop) and moving ones;
//! * the 4-cycle and `star(4)`, whose deepest level can be all fixed;
//! * `path(5)` under the orders that end at an endpoint, whose deepest level
//!   has one participant — an enumeration;
//! * a Zipf-skewed triangle, whose groups are dense for the frequent values
//!   and sparse for the rare ones, so its levels run both the AND of layouts
//!   and the list kernels, and the loop takes both its dense and its sparse
//!   branch.
//!
//! For every variable order (of `path(5)`, those 240), both WCOJ engines,
//! threads {1, 2, 4}, and plain, cancellable and traced runs: the rows are the
//! `BinaryHash` baseline's, and the work counters (and, when traced, the
//! per-level trace rows) are equal across threads and modes.
//!
//! The last test pins the numbers the per-value recursion produced before
//! the loop replaced it, so the loop must reproduce them bit for bit.

use std::sync::Arc;
use wcoj_core::exec::{execute_opts, run, CancelToken, Engine, ExecOptions, ExecOutput};
use wcoj_core::planner::{plan, Plan};
use wcoj_core::{LevelTrace, QueryTrace, TraceSink};
use wcoj_query::query::examples;
use wcoj_query::Database;
use wcoj_storage::{Relation, Value, WorkCounter};
use wcoj_workloads::{
    four_cycle, k_path, kclique, lw4, random_pairs, star, triangle_skewed, Workload,
};

/// `count` distinct uniform pairs over `[0, domain)²`, in the order the
/// seeded generator first draws them — the request benchmark's relations.
fn distinct_pairs(count: usize, domain: u64, seed: u64) -> Vec<(Value, Value)> {
    let mut pairs: Vec<(Value, Value)> = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::with_capacity(count);
    for round in 0u64.. {
        let salt = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for pair in random_pairs(count, domain, seed ^ salt) {
            if seen.insert(pair) {
                pairs.push(pair);
                if pairs.len() == count {
                    return pairs;
                }
            }
        }
    }
    unreachable!("the loop returns once `count` pairs are drawn")
}

/// The request benchmark's `triangle_join` instance at its smoke size: three
/// relations of exactly 2048 distinct pairs over a `2√n + 1` domain.
fn dense_triangle() -> Workload {
    const N: usize = 2048;
    let domain = (2.0 * (N as f64).sqrt()).ceil() as u64 + 1;
    let rel = |a, b, salt: u64| Relation::from_pairs(a, b, distinct_pairs(N, domain, 1 ^ salt));
    let mut db = Database::new();
    db.insert("R", rel("A", "B", 0));
    db.insert("S", rel("B", "C", 0x5151));
    db.insert("T", rel("A", "C", 0xA3A3));
    Workload {
        name: "dense_triangle_n2048".into(),
        query: examples::triangle(),
        db,
    }
}

/// Every permutation of `0..n`.
fn orders(n: usize) -> Vec<Vec<usize>> {
    let mut orders = vec![Vec::new()];
    for _ in 0..n {
        let mut longer = Vec::new();
        for order in &orders {
            for v in (0..n).filter(|v| !order.contains(v)) {
                let mut next: Vec<usize> = order.clone();
                next.push(v);
                longer.push(next);
            }
        }
        orders = longer;
    }
    orders
}

/// How a run is issued: every mode takes the same engine body.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Plain,
    Cancellable,
    Traced,
}

/// Run `w` under `plan` as `opts` and `mode` say; the trace when traced.
fn run_as(
    w: &Workload,
    plan: &Plan,
    opts: &ExecOptions,
    mode: Mode,
) -> (ExecOutput, Option<QueryTrace>) {
    let fail = |e| panic!("{}: {:?} {mode:?}: {e}", w.name, plan.order);
    match mode {
        Mode::Plain => (
            run(&w.query, &w.db, plan, opts, None).unwrap_or_else(fail),
            None,
        ),
        Mode::Cancellable => {
            let token = CancelToken::new();
            let out = run(&w.query, &w.db, plan, opts, Some(&token)).unwrap_or_else(fail);
            (out, None)
        }
        Mode::Traced => {
            let sink = Arc::new(TraceSink::new());
            let opts = opts.with_trace(Arc::clone(&sink));
            let out = run(&w.query, &w.db, plan, &opts, None).unwrap_or_else(fail);
            (out, Some(sink.take().expect("trace deposited")))
        }
    }
}

/// Every order of `w` that `keep` keeps × engine, each at threads {1, 2, 4}
/// and plain, cancellable and traced: rows equal `BinaryHash`'s, and per order
/// and engine the work counters and trace rows agree.
fn agrees_with_binary_hash(w: Workload, keep: impl Fn(&[usize]) -> bool) {
    let binary = ExecOptions::new(Engine::BinaryHash);
    let baseline = execute_opts(&w.query, &w.db, &binary)
        .expect("baseline")
        .result;
    assert!(!baseline.is_empty(), "{}: a shape with rows", w.name);
    for order in orders(w.query.num_vars()).into_iter().filter(|o| keep(o)) {
        let plan = plan(&w.query, &w.db, Some(&order)).expect("plan");
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let mut work: Option<WorkCounter> = None;
            let mut levels: Option<Vec<LevelTrace>> = None;
            for threads in [1, 2, 4] {
                let opts = ExecOptions::new(engine).with_threads(threads);
                for mode in [Mode::Plain, Mode::Cancellable, Mode::Traced] {
                    let label = format!("{}: {order:?} {engine:?} t{threads} {mode:?}", w.name);
                    let (out, trace) = run_as(&w, &plan, &opts, mode);
                    assert_eq!(out.result, baseline, "{label}: rows");
                    match &work {
                        Some(work) => assert_eq!(&out.work, work, "{label}: work"),
                        None => work = Some(out.work),
                    }
                    let Some(trace) = trace else { continue };
                    match &levels {
                        Some(levels) => assert_eq!(&trace.levels, levels, "{label}"),
                        None => levels = Some(trace.levels),
                    }
                }
            }
        }
    }
}

#[test]
fn the_dense_triangle_agrees_everywhere() {
    agrees_with_binary_hash(dense_triangle(), |_| true);
}

#[test]
fn clique4_agrees_everywhere() {
    agrees_with_binary_hash(kclique(4, 300, 0x4C1), |_| true);
}

#[test]
fn lw4_agrees_everywhere() {
    agrees_with_binary_hash(lw4(300, 0x1A4), |_| true);
}

#[test]
fn four_cycle_agrees_everywhere() {
    agrees_with_binary_hash(four_cycle(120, 0x4C7), |_| true);
}

#[test]
fn star4_agrees_everywhere() {
    agrees_with_binary_hash(star(4, 12, 0x57A), |_| true);
}

#[test]
fn path5_agrees_where_the_deepest_level_is_one_atom() {
    // the orders that end at an endpoint, X0 or X5, whose one atom is then the
    // deepest level's only participant (the other 480 reach the loop with two,
    // as the shapes above do)
    let endpoint = |order: &[usize]| matches!(order.last(), Some(0 | 5));
    agrees_with_binary_hash(k_path(5, 10, 0x9A7), endpoint);
}

#[test]
fn the_skewed_triangle_agrees_everywhere() {
    let w = triangle_skewed(600, 64, 1.1, 0x5E);
    let plan = plan(&w.query, &w.db, None).expect("planner");
    let opts = ExecOptions::new(Engine::GenericJoin);
    let (out, trace) = run_as(&w, &plan, &opts, Mode::Traced);
    assert_eq!(out.result.len(), 1045, "{}: rows", w.name);
    // below the first level, some intersections AND layouts and some run a
    // list kernel: both of the loop's branches are taken
    for l in &trace.expect("traced").levels[1..] {
        let listed = l.kernel_merge + l.kernel_gallop;
        assert!(l.kernel_bitmap > 0 && listed > 0, "{}: {l:?}", w.name);
    }
    agrees_with_binary_hash(w, |_| true);
}

/// One level's trace row: candidates, emitted, the merge / gallop / bitmap
/// kernel tallies, intersect steps, comparisons and probes.
type Row = [u64; 8];

/// The work counter, field by field: intersect steps, probes, intermediate
/// tuples, output tuples, comparisons, delta merges, and the merge / gallop /
/// bitmap kernel tallies.
type Work = [u64; 9];

fn row(l: &LevelTrace) -> Row {
    [
        l.candidates,
        l.emitted,
        l.kernel_merge,
        l.kernel_gallop,
        l.kernel_bitmap,
        l.intersect_steps,
        l.comparisons,
        l.probes,
    ]
}

fn work(w: &WorkCounter) -> Work {
    [
        w.intersect_steps(),
        w.probes(),
        w.intermediate_tuples(),
        w.output_tuples(),
        w.comparisons(),
        w.delta_merge(),
        w.kernel_merge(),
        w.kernel_gallop(),
        w.kernel_bitmap(),
    ]
}

/// Generic Join's numbers under the planner's order: the order, the
/// per-level trace rows and the work counter. Computed at commit 6b33eb5 by
/// the per-value recursion the loop replaced (a `descend` into the deepest
/// level under every value of the level above it).
struct Pinned {
    order: &'static [usize],
    rows: &'static [Row],
    work: Work,
}

const DENSE_TRIANGLE: Pinned = Pinned {
    order: &[0, 1, 2],
    rows: &[
        [92, 92, 0, 0, 1, 0, 0, 4],
        [2048, 2048, 0, 0, 92, 0, 0, 368],
        [11147, 11147, 0, 0, 2048, 0, 0, 8192],
    ],
    work: [0, 8564, 0, 11147, 0, 0, 0, 0, 2141],
};

const CLIQUE4: Pinned = Pinned {
    order: &[0, 1, 2, 3],
    rows: &[
        [50, 50, 0, 0, 1, 0, 0, 3],
        [531, 531, 0, 0, 50, 0, 0, 150],
        [1379, 1379, 0, 0, 531, 0, 0, 1593],
        [1515, 1515, 0, 0, 1379, 0, 0, 4137],
    ],
    work: [0, 5883, 0, 1515, 0, 0, 0, 0, 1961],
};

#[test]
fn the_loop_reproduces_the_per_value_recursions_numbers() {
    for (w, pinned) in [
        (dense_triangle(), DENSE_TRIANGLE),
        (kclique(4, 600, 0x4C1), CLIQUE4),
    ] {
        let plan = plan(&w.query, &w.db, None).expect("planner");
        assert_eq!(plan.order, pinned.order, "{}: order", w.name);
        let opts = ExecOptions::new(Engine::GenericJoin);
        let (out, trace) = run_as(&w, &plan, &opts, Mode::Traced);
        let trace = trace.expect("traced");
        let levels: Vec<Row> = trace.levels.iter().map(row).collect();
        assert_eq!(levels, pinned.rows, "{}: per-level rows", w.name);
        assert_eq!(work(&out.work), pinned.work, "{}: work", w.name);
    }
}
