//! Tests of the intersection-kernel layer at the engine level: the engines'
//! output is the same over loaded relations and over churned logs, serial and
//! parallel; the adaptive choice records its per-kernel picks in the
//! `WorkCounter` breakdown; dense groups intersect word-parallel; and a sibling
//! group spanning all of `u64` matches the baseline. Forcing one kernel is a
//! kernel-layer question: `wcoj_storage::kernels`'s own tests check every
//! policy against a naive intersection.

use std::sync::Arc;
use wcoj_core::exec::{execute_opts, Engine, ExecOptions};
use wcoj_core::{QueryTrace, TraceSink};
use wcoj_query::{ConjunctiveQuery, Database};
use wcoj_storage::{DeltaRelation, Relation, Schema};
use wcoj_workloads::differential_suite;

/// The trace of one planned and traced execution.
fn traced(query: &ConjunctiveQuery, db: &Database, opts: &ExecOptions) -> QueryTrace {
    let sink = Arc::new(TraceSink::new());
    execute_opts(query, db, &opts.with_trace(Arc::clone(&sink))).unwrap();
    sink.take().expect("trace deposited")
}

/// `db` with every relation rebuilt as a log sealed three times — the last
/// seal a tombstone for a tuple the second one inserted — so every atom is
/// served by a run that seals merged, never by a loaded run.
fn churned_twin(db: &Database) -> Database {
    let mut live = db.clone();
    for name in db.relation_names() {
        let rel = db.delta(name).expect("listed relation").snapshot();
        let rows = rel.rows();
        let extra = vec![rel.columns().iter().flatten().max().expect("rows") + 1; rel.arity()];
        let (base, tail) = rows.split_at(rows.len() - 2);
        let mut log = DeltaRelation::new(rel.schema().clone());
        log.set_seal_threshold(usize::MAX);
        // the seals: all but two rows | those two and `extra` | `extra`'s tombstone
        let tail = [tail, std::slice::from_ref(&extra)].concat();
        for batch in [base, &tail] {
            for t in batch {
                log.insert(t.clone()).unwrap();
            }
            log.seal();
        }
        log.delete(&extra).unwrap();
        log.seal();
        assert_eq!(log.run_ids().len(), 1, "{name}");
        assert_eq!(log.snapshot(), rel, "{name}");
        live.insert_delta_relation(name, log);
    }
    live
}

#[test]
fn kernel_policies_agree_on_both_backends_and_threads() {
    // the kernels' output is storage- and schedule-independent: check a
    // representative cyclic and a wide-atom workload over loaded relations and
    // over a churned twin (each log read through its run), serial and parallel
    for w in [
        wcoj_workloads::hub_spoke(128, 0xB17),
        wcoj_workloads::kclique(4, 64, 0xB18),
        wcoj_workloads::lw4(64, 0xB19),
    ] {
        let live = churned_twin(&w.db);
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let reference = execute_opts(&w.query, &w.db, &ExecOptions::new(engine)).unwrap();
            // a churned log is read as its snapshot: the static path's counters
            let churned = execute_opts(&w.query, &live, &ExecOptions::new(engine)).unwrap();
            assert_eq!(churned.work, reference.work, "{}: {engine:?}", w.name);
            for (backend, db) in [("loaded", &w.db), ("churned", &live)] {
                for threads in [1usize, 4] {
                    let opts = ExecOptions::new(engine).with_threads(threads);
                    let out = execute_opts(&w.query, db, &opts).unwrap();
                    assert_eq!(
                        out.result, reference.result,
                        "{}: {engine:?}/{backend} x{threads}",
                        w.name
                    );
                }
            }
        }
    }
}

#[test]
fn adaptive_policy_records_kernel_breakdown() {
    // the small dense hub-and-spoke domain must trigger the bitmap kernel, and
    // every workload must record at least one kernel invocation per WCOJ run
    let w = wcoj_workloads::hub_spoke(4096, 0xAB);
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let out = execute_opts(&w.query, &w.db, &ExecOptions::new(engine)).unwrap();
        assert!(out.work.kernel_calls() > 0, "{engine:?} ran no kernels");
        assert!(
            out.work.kernel_bitmap() > 0,
            "{engine:?} never chose the bitmap kernel on a dense small domain"
        );
    }
    for w in differential_suite(0x6E13) {
        // single-atom levels are plain enumerations (no kernel), and empty
        // results can short-circuit before any multi-way intersection runs —
        // only a non-empty Generic Join result over a genuinely joined variable
        // guarantees a kernel invocation (Leapfrog kernels only level 0 and the
        // deepest level, which on path-shaped queries are single-atom)
        let joined_var = (0..w.query.num_vars()).any(|v| w.query.atoms_containing(v).len() >= 2);
        let out = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
        if joined_var && !out.result.is_empty() {
            assert!(out.work.kernel_calls() > 0, "{}", w.name);
        }
    }
}

/// Every sibling group of this triangle is dense, so every intersection ANDs
/// prebuilt layouts — nothing is scanned.
#[test]
fn dense_groups_intersect_word_parallel() {
    let pairs = |skip: u64| {
        let all = (0..32u64).flat_map(|a| (0..32u64).map(move |b| (a, b)));
        all.filter(move |(a, b)| (a + b) % 3 != skip)
    };
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs("x", "y", pairs(0)));
    db.insert("S", Relation::from_pairs("x", "y", pairs(1)));
    db.insert("T", Relation::from_pairs("x", "y", pairs(2)));
    let q = wcoj_query::query::examples::triangle();
    let expected = execute_opts(&q, &db, &ExecOptions::new(Engine::BinaryHash))
        .unwrap()
        .result;
    assert!(!expected.is_empty());
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let base = ExecOptions::new(engine);
        let at = format!("{engine:?}");
        let out = execute_opts(&q, &db, &base).unwrap();
        assert_eq!(out.result, expected, "{at}");
        assert_eq!(out.work.kernel_calls(), out.work.kernel_bitmap(), "{at}");
        if engine == Engine::GenericJoin {
            // (the leapfrog ring's own short seeks do compare)
            assert_eq!(out.work.comparisons(), 0, "{at} scanned a list");
        }
        // the trace charges a level's ANDs what the counter does: word
        // probes, and nothing else (the leapfrog ring's interior level
        // calls no kernel)
        let trace = traced(&q, &db, &base);
        for (i, l) in trace.levels.iter().enumerate() {
            let anded = engine == Engine::GenericJoin || i != 1;
            assert_eq!(
                (l.kernel_bitmap > 0, l.probes > 0),
                (anded, anded),
                "{at}: {l:?}"
            );
            assert_eq!((l.kernel_merge, l.kernel_gallop, l.comparisons), (0, 0, 0));
        }
    }
}

/// Values at both ends of `u64` in one sibling group: the common span is 2^64
/// wide, which used to overflow the kernel choice (debug: panic; release: a
/// 2^58-word bitmap allocation that aborted the process).
#[test]
fn a_query_spanning_all_of_u64_matches_the_baseline() {
    let unary = |values: &[u64]| {
        Relation::from_rows(
            Schema::new(&["v"]),
            values.iter().map(|&v| vec![v]).collect(),
        )
    };
    let mut db = Database::new();
    db.insert("R", unary(&[0, 1, 2, 3, 4, 5, u64::MAX]));
    db.insert("S", unary(&[0, 2, 4, 6, 8, 10, u64::MAX]));
    // the same two sets again as the B-groups under one A value
    let under_seven =
        |values: &[u64]| Relation::from_pairs("a", "b", values.iter().map(|&v| (7, v)));
    db.insert("P", under_seven(&[0, 1, 2, 3, 4, 5, u64::MAX]));
    db.insert("Q", under_seven(&[0, 2, 4, 6, 8, 10, u64::MAX]));
    let roots = ConjunctiveQuery::builder()
        .atom("R", &["A"])
        .atom("S", &["A"])
        .build()
        .unwrap();
    let children = ConjunctiveQuery::builder()
        .atom("P", &["A", "B"])
        .atom("Q", &["A", "B"])
        .build()
        .unwrap();
    for (q, arity) in [(&roots, 1), (&children, 2)] {
        let expected = execute_opts(q, &db, &ExecOptions::new(Engine::BinaryHash))
            .unwrap()
            .result;
        let last: Vec<u64> = expected.iter().map(|row| row[arity - 1]).collect();
        assert_eq!(last, [0, 2, 4, u64::MAX]);
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let out = execute_opts(q, &db, &ExecOptions::new(engine)).unwrap();
            assert_eq!(out.result, expected, "{engine:?}");
        }
    }
}
