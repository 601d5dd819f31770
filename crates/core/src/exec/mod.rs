//! The unified join-execution layer: **one entry, one engine skeleton, one
//! builder loop** — and nothing ambient. Rows and work counters are a function
//! of `(query, database, options)`: no environment variable, file, wall-clock
//! probe or process-global setting is consulted anywhere below this module
//! (the SIMD level is host *detection* that never moves a row or a
//! counter), and an execution runs on the calling thread.
//!
//! # One entry
//!
//! The executor's one input is a [`Plan`]: a variable order with the bounds
//! that cost it (Section 4.2's prefix AGM bounds, and the whole query's bound of
//! Corollary 4.2). [`crate::planner::plan`] makes one — searching for the order,
//! or costing one the caller gives — and [`run`] executes it: validates,
//! dispatches on [`Engine`] **once**, and deposits the trace (when
//! [`ExecOptions::trace`] carries a sink) where everything it reports is known.
//! Two wrappers plan and run in one call, through the same internal function:
//!
//! * [`execute_opts`] — full [`ExecOptions`], planner-chosen order (the binary
//!   baseline, which ignores the order, keeps the identity);
//! * [`execute_cancellable`] — under a [`CancelToken`], with an optional order.
//!
//! `EXPLAIN ANALYZE` is any of the three with [`ExecOptions::with_trace`]: the
//! sink's [`wcoj_obs::TraceSink::take`] hands back the [`wcoj_obs::QueryTrace`].
//!
//! # One engine skeleton
//!
//! [`Engine::GenericJoin`] (Algorithm 2 of the paper) and [`Engine::Leapfrog`]
//! (Leapfrog Triejoin) are one recursion (`engine`) parameterized by how an
//! *interior* level's values are enumerated — a materialized kernel
//! intersection, or the leapfrog ring of mutual seeks, and monomorphized per
//! step. Both run on the one access structure, the CSR [`wcoj_storage::Trie`],
//! through its one cursor, [`wcoj_storage::TrieCursor`], which the engines
//! take directly — Generic Join's "sorted extensions of a bound prefix" is a
//! `child_start` offset of the same trie Leapfrog walks. A delta log is read
//! as a trie as well: it holds one tombstone-free run, its buffer merged in
//! before the join, so a log *is* the static case (same cursor, kernels and counters as
//! its snapshot). [`Engine::BinaryHash`] is the classical left-deep binary hash-join baseline
//! the paper measures them against; it has no cursor path.
//!
//! The first level and every deepest level — and every level of Generic Join —
//! compute their extension set through the **adaptive intersection kernel
//! layer** ([`wcoj_storage::kernels`]): where every participating sibling
//! group is dense enough to carry the bitset its trie prebuilt, the
//! intersection is a word-parallel AND of those; otherwise branchless merge,
//! galloping or small-domain bitmap, chosen per intersection by
//! [`KernelPolicy::Adaptive`] from the lists' sizes and spans. Which kernel
//! runs depends on the data alone — no option selects one — and each choice
//! is recorded in the [`WorkCounter`] kernel breakdown.
//!
//! # Prefix runs × deepest column
//!
//! Algorithm 2 returns `⋃ {a_I} × Q[a_I]`: the output *is* a union of (bound
//! prefix) × (extension set) products, and the one [`ColumnSink`] every engine
//! body emits through stores it that way. Binding a level opens a **run**
//! `(value, first_row)`; the deepest level's intersection appends `Q[a_I]`
//! straight into the sink's **deepest column** (the kernels append, so there is
//! no scratch copy); and each prefix column is expanded once, into an
//! exactly-sized allocation, when the join is over. A result value is written
//! once. Rows come out strictly ascending in level order, and the sink
//! **verifies that as it goes** — each emission against its predecessor while
//! the rows are in L1 — so when the join order is the identity the columns become the result [`Relation`] with no
//! copy, no sort and no second pass
//! ([`wcoj_storage::Relation::try_from_canonical_columns`]); any other order,
//! or a result that failed the check, is canonicalized by
//! [`wcoj_storage::Relation::try_from_columns`].
//!
//! The skeleton is one serial recursion, as Algorithm 2 is: the level-0
//! intersection, then the engine body over that set — whole, or in
//! [`cancel::CANCEL_CHUNK`]-value slices with a token poll between them —
//! on the calling thread. The library spawns no thread.
//!
//! # One builder loop
//!
//! Access structures are built by one per-atom loop (`access`) with one
//! fetch-or-build that asks the atom's run: a log's one run
//! ([`wcoj_storage::DeltaRelation::fold`]) permuted to one column order is
//! one trie, memoized on the run ([`wcoj_storage::delta::Run::shared_trie`])
//! and dropped with it. A repeated query hits; a seal gives the log a new
//! run, built once per order (a miss); a log with buffered ops merges them
//! into its run and builds that per query, unmemoized. Within one execution
//! an atom that reads a relation in an order an earlier atom read shares
//! that atom's trie.
//! [`CacheMode`] switches reuse off for one execution, and
//! [`ExecOutput::cache_stats`] reports the activity — builds record no
//! [`WorkCounter`] work, so results and work counters are bit-identical with
//! the cache on, off, or cold.
//!
//! **Typed data** never reaches the engines: string columns are
//! dictionary-encoded at load time (`wcoj_query::Database::insert_typed_rows`),
//! execution runs pure `u64`, and [`ExecOutput::typed_rows`] decodes results back
//! through the shared per-domain dictionaries. Every execution validates up front
//! that every atom binding a variable agrees on its type and dictionary domain
//! ([`Database::var_bindings`]).
//!
//! [`KernelPolicy::Adaptive`]: wcoj_storage::KernelPolicy::Adaptive
//! [`WorkCounter`]: wcoj_storage::WorkCounter
//! [`Relation`]: wcoj_storage::Relation

mod access;
mod binary;
pub mod cancel;
mod driver;
mod engine;
mod options;
mod sink;
mod trace;

pub use cancel::CancelToken;
pub use options::{CacheMode, Engine, ExecOptions, ExecOutput};
pub use sink::ColumnSink;
pub use wcoj_storage::{CacheStats, KernelCalibration};

use crate::error::ExecError;
use crate::planner::Plan;
use wcoj_query::{ConjunctiveQuery, Database, VarId};

/// Execute `query` over `db` under `plan` (from [`crate::planner::plan`]) with
/// full [`ExecOptions`], polling `token` if there is one: the engines poll it
/// cooperatively (between slices of the first variable's extension set — see
/// [`cancel`]) and return [`ExecError::Canceled`],
/// discarding partial output, once it fires. Rows and work counters do not
/// depend on the token while it has not fired, nor on tracing.
pub fn run(
    query: &ConjunctiveQuery,
    db: &Database,
    plan: &Plan,
    opts: &ExecOptions,
    token: Option<&CancelToken>,
) -> Result<ExecOutput, ExecError> {
    let rec = trace::Recording::new(opts.trace.is_some());
    driver::run(query, db, plan, opts, token, rec)
}

/// Plan and [`run`] `query` over `db` with full [`ExecOptions`], letting the
/// planner pick the variable order.
pub fn execute_opts(
    query: &ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
) -> Result<ExecOutput, ExecError> {
    driver::plan_and_run(query, db, opts, None, None)
}

/// Plan and [`run`] `query` over `db` under a [`CancelToken`]: `order` is
/// costed when given; `None` asks the planner, like [`execute_opts`].
pub fn execute_cancellable(
    query: &ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
    order: Option<&[VarId]>,
    token: &CancelToken,
) -> Result<ExecOutput, ExecError> {
    driver::plan_and_run(query, db, opts, order, Some(token))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_query::query::examples;
    use wcoj_storage::{AttrType, Relation, Schema};

    fn triangle_db() -> Database {
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_pairs("x", "y", vec![(1, 2), (2, 3), (1, 3)]),
        );
        db.insert(
            "S",
            Relation::from_pairs("x", "y", vec![(2, 3), (3, 1), (3, 4)]),
        );
        db.insert(
            "T",
            Relation::from_pairs("x", "y", vec![(1, 3), (2, 1), (1, 4)]),
        );
        db
    }

    #[test]
    fn all_engines_agree_on_the_triangle() {
        let q = examples::triangle();
        let db = triangle_db();
        let outs: Vec<_> = [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog]
            .into_iter()
            .map(|e| execute_opts(&q, &db, &ExecOptions::new(e)).unwrap())
            .collect();
        assert_eq!(outs[0].result, outs[1].result);
        assert_eq!(outs[1].result, outs[2].result);
        assert_eq!(outs[0].result.len(), 3);
        // WCOJ engines record kernel work, the baseline records intermediates
        assert!(outs[0].work.intermediate_tuples() > 0);
        assert!(outs[1].work.kernel_calls() > 0);
        assert!(outs[1].work.total_work() > 0);
        assert!(outs[2].work.kernel_calls() > 0);
        assert!(outs[2].work.total_work() > 0);
    }

    #[test]
    fn every_variable_order_gives_the_same_result() {
        let q = examples::triangle();
        let db = triangle_db();
        let reference = execute_opts(&q, &db, &ExecOptions::new(Engine::Leapfrog))
            .unwrap()
            .result;
        for order in [
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ] {
            for engine in [Engine::GenericJoin, Engine::Leapfrog] {
                let plan = crate::planner::plan(&q, &db, Some(&order)).unwrap();
                let out = run(&q, &db, &plan, &ExecOptions::new(engine), None).unwrap();
                assert_eq!(out.result, reference, "order {order:?} engine {engine:?}");
                assert_eq!(out.order, order);
            }
        }
    }

    #[test]
    fn self_join_clique_query() {
        // clique(3) over one edge relation: triangles in a single graph
        let q = examples::clique(3);
        let mut db = Database::new();
        db.insert(
            "E",
            Relation::from_pairs(
                "src",
                "dst",
                vec![(1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (1, 4)],
            ),
        );
        let gj = execute_opts(&q, &db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
        let lf = execute_opts(&q, &db, &ExecOptions::new(Engine::Leapfrog)).unwrap();
        let bh = execute_opts(&q, &db, &ExecOptions::new(Engine::BinaryHash)).unwrap();
        assert_eq!(gj.result, lf.result);
        assert_eq!(gj.result, bh.result);
        // K4 minus nothing: every 3-subset of {1,2,3,4} with increasing edges = 4
        assert_eq!(gj.result.len(), 4);
    }

    #[test]
    fn invalid_order_rejected() {
        let q = examples::triangle();
        let db = triangle_db();
        assert!(matches!(
            crate::planner::plan(&q, &db, Some(&[0, 1])).unwrap_err(),
            ExecError::InvalidOrder(_)
        ));
        // a hand-made plan is checked where it runs
        let mut plan = crate::planner::plan(&q, &db, None).unwrap();
        plan.order = vec![0, 1, 1];
        assert!(matches!(
            run(&q, &db, &plan, &ExecOptions::new(Engine::Leapfrog), None).unwrap_err(),
            ExecError::InvalidOrder(_)
        ));
    }

    #[test]
    fn empty_relation_gives_empty_output() {
        let q = examples::triangle();
        let mut db = triangle_db();
        db.insert(
            "S",
            Relation::from_pairs("x", "y", Vec::<(u64, u64)>::new()),
        );
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let out = execute_opts(&q, &db, &ExecOptions::new(engine)).unwrap();
            assert!(out.result.is_empty(), "{engine:?}");
        }
    }

    #[test]
    fn typed_pipeline_encodes_joins_and_decodes() {
        use wcoj_storage::TypedValue;
        // string-keyed triangle: intern once per database, join on codes, decode back
        let q = examples::triangle();
        let mut db = Database::new();
        let pair_schema =
            |a: &str, b: &str| Schema::with_types(&[a, b], &[AttrType::Str, AttrType::Str]);
        let rows = |pairs: &[(&str, &str)]| -> Vec<Vec<TypedValue>> {
            pairs
                .iter()
                .map(|&(x, y)| vec![TypedValue::from(x), TypedValue::from(y)])
                .collect()
        };
        db.insert_typed_rows(
            "R",
            pair_schema("A", "B"),
            &rows(&[("ann", "bob"), ("bob", "cat"), ("ann", "cat")]),
        )
        .unwrap();
        db.insert_typed_rows(
            "S",
            pair_schema("B", "C"),
            &rows(&[("bob", "cat"), ("cat", "ann"), ("cat", "dan")]),
        )
        .unwrap();
        db.insert_typed_rows(
            "T",
            pair_schema("A", "C"),
            &rows(&[("ann", "cat"), ("bob", "ann"), ("ann", "dan")]),
        )
        .unwrap();

        let mut decoded_by_engine = Vec::new();
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let out = execute_opts(&q, &db, &ExecOptions::new(engine)).unwrap();
            assert_eq!(out.result.len(), 3);
            assert!(out.result.schema().has_strings());
            let typed = out.typed_rows(&q, &db).unwrap();
            let mut strs: Vec<Vec<String>> = typed
                .to_rows()
                .unwrap()
                .into_iter()
                .map(|r| r.into_iter().map(|v| v.to_string()).collect())
                .collect();
            strs.sort();
            decoded_by_engine.push(strs);
        }
        assert_eq!(decoded_by_engine[0], decoded_by_engine[1]);
        assert_eq!(decoded_by_engine[1], decoded_by_engine[2]);
        assert_eq!(
            decoded_by_engine[0],
            vec![
                vec!["ann".to_string(), "bob".into(), "cat".into()],
                vec!["ann".to_string(), "cat".into(), "dan".into()],
                vec!["bob".to_string(), "cat".into(), "ann".into()],
            ]
        );
    }

    #[test]
    fn mismatched_var_types_are_rejected_up_front() {
        use wcoj_storage::TypedValue;
        let q = examples::triangle();
        let mut db = triangle_db();
        // rebind S's columns as strings: variable B is Int in R but Str in S
        db.insert_typed_rows(
            "S",
            Schema::with_types(&["x", "y"], &[AttrType::Str, AttrType::Str]),
            &[vec![TypedValue::from("u"), TypedValue::from("v")]],
        )
        .unwrap();
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let err = execute_opts(&q, &db, &ExecOptions::new(engine)).unwrap_err();
            assert!(err.to_string().contains("bound to"), "{engine:?}: {err}");
        }
    }

    #[test]
    fn delta_backed_atoms_run_live_and_match_static() {
        let q = examples::triangle();
        let mut db = triangle_db();
        let expected = execute_opts(&q, &db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
        // make R delta-backed and mutate it: delete one edge, add another that
        // completes a triangle with the existing S and T tuples
        db.insert_delta("R", vec![2, 3]).unwrap(); // already present: no-op
        db.delete("R", &[1, 2]).unwrap(); // kills triangle (1,2,3)... via R
        db.insert_delta("R", vec![1, 2]).unwrap(); // re-add it
        assert!(db.delta("R").is_some());
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let out = execute_opts(&q, &db, &ExecOptions::new(engine)).unwrap();
            assert_eq!(
                out.result, expected.result,
                "{engine:?} over the delta path"
            );
        }
        // the buffered ops cancel, so sealing leaves one run with no tombstone:
        // that log's trie is the loaded relation's
        db.seal("R").unwrap();
        let out = execute_opts(&q, &db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
        assert_eq!(out.result, expected.result);
        assert_eq!(out.work, expected.work, "one clean run is the static case");
        // so is a log with buffered ops: they merge into its run before the
        // join, and nothing is merged during it
        db.delete("R", &[1, 2]).unwrap();
        db.insert_delta("R", vec![1, 9]).unwrap();
        db.seal("R").unwrap();
        db.insert_delta("R", vec![1, 2]).unwrap();
        db.delete("R", &[1, 9]).unwrap();
        assert_eq!(db.delta("R").unwrap().buffered(), 2);
        let out = execute_opts(&q, &db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
        assert_eq!(out.result, expected.result);
        assert_eq!(out.work, expected.work, "a merged log is the static case");
        assert_eq!(out.work.delta_merge(), 0);
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let q = examples::triangle();
        let db = triangle_db();
        let cold = execute_opts(&q, &db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
        assert_eq!(cold.cache_stats.misses, 3, "three atoms built cold");
        assert_eq!(cold.cache_stats.hits, 0);
        let warm = execute_opts(&q, &db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
        assert_eq!(warm.cache_stats.hits, 3, "three atoms reused warm");
        assert_eq!(warm.cache_stats.misses, 0);
        assert_eq!(warm.result, cold.result);
        assert_eq!(warm.work, cold.work, "caching never changes work counters");
        // Off bypasses the runs' memoized tries: no hits, no misses recorded
        let off = execute_opts(
            &q,
            &db,
            &ExecOptions::new(Engine::GenericJoin).with_cache(CacheMode::Off),
        )
        .unwrap();
        assert_eq!(off.cache_stats, CacheStats::default());
        assert_eq!(off.result, cold.result);
        assert_eq!(off.work, cold.work);
        // the binary baseline builds no access structures
        let bh = execute_opts(&q, &db, &ExecOptions::new(Engine::BinaryHash)).unwrap();
        assert_eq!(bh.cache_stats, CacheStats::default());
    }

    #[test]
    fn cancellable_execution_matches_plain_and_honors_the_token() {
        let q = examples::triangle();
        let db = triangle_db();
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let opts = ExecOptions::new(engine);
            let plain = execute_opts(&q, &db, &opts).unwrap();
            // a token that never fires: rows AND counters bit-identical
            let token = CancelToken::new();
            let out = execute_cancellable(&q, &db, &opts, None, &token).unwrap();
            assert_eq!(out.result, plain.result, "{engine:?}");
            assert_eq!(out.work, plain.work, "{engine:?} counters");
            // explicit order passes through unchanged
            let ordered = execute_cancellable(&q, &db, &opts, Some(&plain.order), &token).unwrap();
            assert_eq!(ordered.result, plain.result);
            // a pre-fired token cancels before any engine work
            let fired = CancelToken::new();
            fired.cancel();
            assert_eq!(
                execute_cancellable(&q, &db, &opts, None, &fired).unwrap_err(),
                ExecError::Canceled
            );
            // an expired deadline behaves like an explicit cancel
            let expired = CancelToken::with_deadline(
                std::time::Instant::now() - std::time::Duration::from_millis(1),
            );
            assert_eq!(
                execute_cancellable(&q, &db, &opts, None, &expired).unwrap_err(),
                ExecError::Canceled
            );
        }
    }
}
