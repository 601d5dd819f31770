//! Differential and property tests for the join-execution layer.
//!
//! For every generated workload:
//!
//! 1. Generic Join and Leapfrog Triejoin must produce exactly the tuples of the
//!    `nested_loop_join` reference (and of the binary hash-join baseline);
//! 2. the output size must never exceed the AGM `tuple_bound()`;
//! 3. on the canonical triangle instance, the cursor work (probes + intersection
//!    steps) of both WCOJ engines must stay within a constant factor of the AGM
//!    bound `N^{3/2}` — the guarantee of Theorem 4.3 made checkable.
//!
//! Every forced kernel policy runs this suite too (`tests/kernels.rs`).

use wcoj_bounds::agm::agm_bound;
use wcoj_core::exec::{execute_opts, run, Engine, ExecOptions};
use wcoj_core::planner::plan;
use wcoj_query::Database;
use wcoj_storage::ops::nested_loop_join;
use wcoj_storage::Relation;
use wcoj_workloads::{differential_suite, triangle, Workload};

/// The nested-loop ground truth, with columns in the query's variable order.
fn reference(w: &Workload) -> Relation {
    let rels = w.db.atom_relations(&w.query).expect("atoms bound");
    let refs: Vec<&Relation> = rels.iter().collect();
    let joined = nested_loop_join(&refs).expect("reference join");
    let var_refs: Vec<&str> = w.query.var_names().iter().map(|s| s.as_str()).collect();
    joined.project(&var_refs).expect("project to query vars")
}

#[test]
fn wcoj_engines_match_nested_loop_reference() {
    for w in differential_suite(0xD1FF) {
        let expected = reference(&w);
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let out = execute_opts(&w.query, &w.db, &ExecOptions::new(engine))
                .unwrap_or_else(|e| panic!("{}: {engine:?} failed: {e}", w.name));
            assert_eq!(
                out.result, expected,
                "{}: {engine:?} diverges from nested-loop reference",
                w.name
            );
        }
    }
}

#[test]
fn output_size_never_exceeds_agm_bound() {
    for w in differential_suite(0xA6B) {
        let bound = agm_bound(&w.query, &w.db).expect("agm bound").tuple_bound();
        let out =
            execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::Leapfrog)).expect("leapfrog");
        assert!(
            out.result.len() as f64 <= bound + 1e-6,
            "{}: |Q| = {} exceeds AGM bound {bound}",
            w.name,
            out.result.len()
        );
    }
}

#[test]
fn every_order_agrees_across_engines_on_four_cycle() {
    // exhaustively check order-insensitivity on a 4-variable cyclic query
    let w = wcoj_workloads::four_cycle(48, 77);
    let expected = reference(&w);
    let n = w.query.num_vars();
    // all 24 permutations
    let mut orders: Vec<Vec<usize>> = vec![vec![]];
    for _ in 0..n {
        let mut extended = Vec::new();
        for o in &orders {
            for v in 0..n {
                if !o.contains(&v) {
                    let mut o2 = o.clone();
                    o2.push(v);
                    extended.push(o2);
                }
            }
        }
        orders = extended;
    }
    for order in orders {
        let plan = plan(&w.query, &w.db, Some(&order)).unwrap();
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let opts = ExecOptions::new(engine);
            let out = run(&w.query, &w.db, &plan, &opts, None).unwrap();
            assert_eq!(out.result, expected, "order {order:?} engine {engine:?}");
        }
    }
}

/// The acceptance-criteria instance: triangle over three 1024-tuple random
/// relations. Both WCOJ engines must match the reference and keep their probe +
/// intersection-step work within a constant factor of `N^{3/2}`.
#[test]
fn triangle_1024_work_stays_within_constant_factor_of_agm() {
    let w = triangle(1024, 0x7EA);
    let n = w.db.max_relation_size().max(1) as f64;
    let agm = agm_bound(&w.query, &w.db).expect("agm").tuple_bound();
    // with |R| = |S| = |T| <= 1024 the bound is at most 1024^{3/2} = 32768
    assert!(agm <= 1024f64.powf(1.5) + 1e-6);

    let expected = reference(&w);
    let plan = plan(&w.query, &w.db, None).expect("planner");
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let out = run(&w.query, &w.db, &plan, &ExecOptions::new(engine), None).unwrap();
        assert_eq!(out.result, expected, "{engine:?} diverges at N=1024");

        let cursor_work = (out.work.probes() + out.work.intersect_steps()) as f64;
        // Theorem 4.3 shape: O(N^{3/2} log N); assert a concrete constant factor of
        // the AGM bound itself (log2 1024 = 10, so 16x leaves ample slack — measured
        // values sit well below 4x).
        let budget = 16.0 * n.powf(1.5);
        assert!(
            cursor_work <= budget,
            "{engine:?}: work {cursor_work} exceeds 16 * N^1.5 = {budget}"
        );
        // sanity: the engines did real work
        assert!(cursor_work > 0.0);
    }
}

#[test]
fn adversarial_triangle_binary_plan_blows_up_but_wcoj_does_not() {
    // Section 1.1's lower-bound instance: every pairwise join materializes m^2
    // intermediates while the output is 3m - 2 tuples; the WCOJ engines must do
    // near-linear work.
    let m = 128;
    let w = wcoj_workloads::triangle_adversarial(m);
    let binary = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::BinaryHash)).unwrap();
    let leapfrog = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::Leapfrog)).unwrap();
    let generic = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
    assert_eq!(binary.result, leapfrog.result);
    assert_eq!(binary.result, generic.result);
    assert_eq!(binary.result.len() as u64, 3 * m - 2);
    assert!(
        binary.work.intermediate_tuples() >= m * m,
        "bowtie instance must force a quadratic intermediate, got {}",
        binary.work.intermediate_tuples()
    );
    for out in [&leapfrog, &generic] {
        let wcoj_work = out.work.probes() + out.work.intersect_steps();
        assert!(
            wcoj_work * 4 < binary.work.intermediate_tuples(),
            "WCOJ work {wcoj_work} should be far below the binary blow-up {}",
            binary.work.intermediate_tuples()
        );
    }
}

#[test]
fn planner_order_is_no_worse_than_default_on_skew() {
    // the planned order must not lose to the appearance order by more than a
    // small factor on the skewed instance (it usually wins)
    let w = wcoj_workloads::triangle_skewed(1_000, 48, 1.3, 0xFACE);
    let planned = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
    let opts = ExecOptions::new(Engine::GenericJoin);
    let identity = plan(&w.query, &w.db, Some(&[0, 1, 2])).unwrap();
    let default = run(&w.query, &w.db, &identity, &opts, None).unwrap();
    assert_eq!(planned.result, default.result);
    let planned_work = planned.work.probes() + planned.work.intersect_steps();
    let default_work = default.work.probes() + default.work.intersect_steps();
    assert!(
        planned_work as f64 <= 2.0 * default_work as f64,
        "planned {planned_work} vs default {default_work}"
    );
}

#[test]
fn missing_relation_fails_cleanly_for_all_engines() {
    let q = wcoj_query::query::examples::triangle();
    let db = Database::new();
    for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
        assert!(
            execute_opts(&q, &db, &ExecOptions::new(engine)).is_err(),
            "{engine:?}"
        );
    }
}
