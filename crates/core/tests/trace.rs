//! Trace-neutrality property suite — the observability PR's acceptance
//! criterion:
//!
//! installing a [`TraceSink`] must not perturb execution. For every engine ×
//! cache mode, rows AND work counters must be **bit-identical** with tracing
//! on or off; two traced runs of the same plan must agree on every
//! deterministic trace field (only wall-clock fields may differ —
//! [`QueryTrace::strip_nondeterministic`] removes exactly those); and the
//! per-level extension statistics must not depend on how a cancellable run
//! slices level 0.

use std::sync::Arc;
use wcoj_core::exec::cancel::CANCEL_CHUNK;
use wcoj_core::exec::{
    execute_cancellable, execute_opts, run, CacheMode, CancelToken, Engine, ExecOptions,
};
use wcoj_core::planner::plan;
use wcoj_core::{ExecOutput, QueryTrace, TraceSink};
use wcoj_obs::Json;
use wcoj_query::query::examples;
use wcoj_query::Database;
use wcoj_storage::{DeltaRelation, Relation, Schema};
use wcoj_workloads::{four_cycle, triangle};

const ENGINES: [Engine; 3] = [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog];

/// Run one configuration under `order` traced and return `(output, trace)`.
fn run_traced(
    query: &wcoj_query::ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
    order: &[usize],
) -> (ExecOutput, QueryTrace) {
    let sink = Arc::new(TraceSink::new());
    let plan = plan(query, db, Some(order)).expect("plan");
    let out = run(query, db, &plan, &opts.with_trace(Arc::clone(&sink)), None).expect("traced run");
    (out, sink.take().expect("trace deposited"))
}

/// `EXPLAIN ANALYZE`: plan and run traced, and return `(output, trace)`.
fn explain(
    query: &wcoj_query::ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
) -> (ExecOutput, QueryTrace) {
    let sink = Arc::new(TraceSink::new());
    let out = execute_opts(query, db, &opts.with_trace(Arc::clone(&sink))).expect("traced run");
    (out, sink.take().expect("trace deposited"))
}

#[test]
fn tracing_never_perturbs_rows_or_counters() {
    for w in [triangle(300, 7), four_cycle(200, 11)] {
        let plan = plan(&w.query, &w.db, None).expect("planner");
        for engine in ENGINES {
            for cache in [CacheMode::Off, CacheMode::On] {
                let base = ExecOptions::new(engine).with_cache(cache);
                let label = format!("{engine:?}/{cache:?}");
                let plain = run(&w.query, &w.db, &plan, &base, None).expect("plain");
                let (traced, trace) = run_traced(&w.query, &w.db, &base, &plan.order);
                assert_eq!(traced.result, plain.result, "{label}: rows perturbed");
                assert_eq!(traced.work, plain.work, "{label}: counters perturbed");
                // the trace's work pairs are the counter, re-spelled
                assert_eq!(
                    trace.work_value("total_work"),
                    Some(plain.work.total_work()),
                    "{label}"
                );
                assert_eq!(
                    trace.work_value("kernel_merge"),
                    Some(plain.work.kernel_merge()),
                    "{label}"
                );
                assert_eq!(
                    trace.work_value("output_tuples"),
                    Some(plain.work.output_tuples()),
                    "{label}"
                );
                assert_eq!(trace.rows, plain.result.len() as u64, "{label}");
                // both WCOJ engines build one trie per atom; the baseline
                // builds nothing
                let built = match engine {
                    Engine::BinaryHash => 0,
                    _ => w.query.atoms().len(),
                };
                assert_eq!(trace.atoms.len(), built, "{label}");
                assert_eq!(trace.cache_hits, traced.cache_stats.hits, "{label}");
                assert_eq!(trace.cache_misses, traced.cache_stats.misses, "{label}");
                // two traced runs agree on every deterministic field
                let (traced2, trace2) = run_traced(&w.query, &w.db, &base, &plan.order);
                assert_eq!(traced2.result, plain.result, "{label}: rerun rows");
                assert_eq!(traced2.work, plain.work, "{label}: rerun counters");
                let mut a = trace.clone();
                let mut b = trace2.clone();
                a.strip_nondeterministic();
                b.strip_nondeterministic();
                // cache mode On: the second traced run may hit where the
                // first missed, so compare cache-independent forms
                for t in [&mut a, &mut b] {
                    t.cache_hits = 0;
                    t.cache_misses = 0;
                }
                for t in [&mut a, &mut b] {
                    for atom in &mut t.atoms {
                        atom.outcome.clear();
                    }
                }
                assert_eq!(a, b, "{label}: deterministic trace fields diverge");
            }
        }
    }
}

/// The per-level statistics do not depend on how level 0 is sliced: a
/// cancellable run, which polls its token every [`CANCEL_CHUNK`] values of
/// level 0, traces the levels a plain run traces.
#[test]
fn per_level_statistics_are_slicing_independent() {
    let w = triangle(4096, 21);
    let plan = plan(&w.query, &w.db, None).expect("planner");
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let base = ExecOptions::new(engine).with_cache(CacheMode::Off);
        let (_, whole) = run_traced(&w.query, &w.db, &base, &plan.order);
        assert!(
            whole.levels[0].candidates > CANCEL_CHUNK as u64,
            "{engine:?}: level 0 spans more than one slice"
        );
        let sink = Arc::new(TraceSink::new());
        let opts = base.with_trace(Arc::clone(&sink));
        execute_cancellable(
            &w.query,
            &w.db,
            &opts,
            Some(&plan.order),
            &CancelToken::new(),
        )
        .expect("cancellable run");
        let sliced = sink.take().expect("trace deposited");
        assert_eq!(
            whole.levels, sliced.levels,
            "{engine:?}: per-level stats depend on the slicing"
        );
        // the deepest level emits exactly the output rows
        let deepest = whole.levels.last().expect("triangle has levels");
        assert_eq!(deepest.emitted, whole.rows);
    }
}

#[test]
fn explain_analyze_profiles_a_delta_backed_triangle() {
    // triangle over one delta-backed edge relation: the EXPLAIN ANALYZE
    // acceptance scenario — per-level tree with kernel choice and cache
    // outcome, JSON that round-trips through the parser
    let q = examples::clique(3);
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            "src",
            "dst",
            (0..400u64).flat_map(|i| [(i % 25, (i * 7) % 23), ((i * 3) % 25, (i * 11) % 23)]),
        ),
    );
    db.insert_delta("E", vec![100, 101]).unwrap();
    db.delete("E", &[100, 101]).unwrap();
    db.insert_delta("E", vec![1, 99]).unwrap();
    db.seal("E").unwrap();
    assert!(db.delta("E").is_some(), "E must stay delta-backed");

    let opts = ExecOptions::new(Engine::GenericJoin);
    let (out, trace) = explain(&q, &db, &opts);
    let (out2, trace2) = explain(&q, &db, &opts);
    assert_eq!(out.result, out2.result);
    assert_eq!(out.work, out2.work, "explain never perturbs counters");

    assert_eq!(trace.engine, "generic_join");
    assert_eq!(trace.order.len(), 3);
    assert!(trace.agm_log2.is_finite(), "AGM estimate recorded");
    assert_eq!(trace.atoms.len(), 3, "one build record per atom");
    assert_eq!(trace.levels.len(), 3, "one level record per variable");
    assert!(
        trace.levels.iter().any(|l| l.candidates > 0),
        "kernel-layer levels report candidates"
    );
    // the planner's order keeps every atom in the relation's native column
    // order; a run's trie is cached per (run, order) whatever the order, so
    // the cold run built E's trie once — the other two atoms share it — and
    // the warm run hits
    let outcomes: Vec<&str> = trace.atoms.iter().map(|a| a.outcome.as_str()).collect();
    assert_eq!(outcomes, ["miss", "hit", "hit"]);
    assert!(
        trace2.atoms.iter().all(|a| a.outcome == "hit"),
        "identity-order run tries are cached like any other: {:?}",
        trace2.atoms
    );

    // a reversed order permutes every atom's columns: the cold run builds the
    // run's permuted trie once, the warm run hits throughout
    let rev = vec![2usize, 1, 0];
    let (_, cold) = run_traced(&q, &db, &opts, &rev);
    assert!(
        cold.atoms.iter().any(|a| a.outcome == "miss"),
        "cold reversed-order run builds a permuted trie: {:?}",
        cold.atoms
    );
    let (_, warm) = run_traced(&q, &db, &opts, &rev);
    assert!(
        warm.atoms.iter().all(|a| a.outcome == "hit"),
        "warm reversed-order run hits the access cache: {:?}",
        warm.atoms
    );

    // a log with nothing sealed yet has no run to key a trie by: its atoms
    // bypass the cache under any order, cold and warm alike
    let mut unsealed = Database::new();
    unsealed.insert_delta_relation("E", DeltaRelation::new(Schema::new(&["src", "dst"])));
    for (a, b) in [(1, 2), (2, 3), (1, 3)] {
        unsealed.insert_delta("E", vec![a, b]).unwrap();
    }
    for pass in ["cold", "warm"] {
        let (out, buffered) = run_traced(&q, &unsealed, &opts, &rev);
        assert_eq!(out.result.len(), 1, "{pass}: the one triangle");
        assert!(
            buffered.atoms.iter().all(|a| a.outcome == "bypass"),
            "{pass}: buffer-only atoms bypass the cache: {:?}",
            buffered.atoms
        );
    }
    assert_eq!(unsealed.trie_bytes(), 0, "nothing is memoized");

    // the human tree names the phases, levels, and kernels
    let tree = trace.render_tree();
    for needle in ["plan", "build", "join", "level 0", "cache", "work"] {
        assert!(tree.contains(needle), "tree missing {needle:?}:\n{tree}");
    }

    // the JSON form round-trips through the crate's own parser
    let json = Json::parse(&trace.to_json()).expect("trace JSON parses");
    assert_eq!(
        json.get("rows").and_then(Json::as_u64),
        Some(out.result.len() as u64)
    );
    assert_eq!(
        json.get("levels").and_then(Json::as_arr).map(|a| a.len()),
        Some(3)
    );
    assert_eq!(
        json.get("engine").and_then(Json::as_str),
        Some("generic_join")
    );
}
