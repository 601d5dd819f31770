//! Differential and property tests for the incremental-maintenance (delta-log)
//! subsystem — the PR's acceptance criterion:
//!
//! querying **base + delta runs + tombstones** through the union cursor must be
//! bit-identical to querying a **fully rebuilt** static database, across engines
//! × threads {1, 4}; the delta path's merged work counters must be
//! deterministic (parallel ≡ serial for every configuration); and both
//! properties must survive **every** compaction step down to a single run.

use wcoj_core::exec::{run, Engine, ExecOptions};
use wcoj_core::planner::plan;
use wcoj_query::Database;
use wcoj_storage::{DeltaRelation, Relation, Schema};
use wcoj_workloads::{edge_stream, edge_stream_ops, SplitMix64, Workload};

const ENGINES: [Engine; 3] = [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog];

/// Replace every delta-backed relation with its materialized snapshot — the
/// "full rebuild" twin of a live database.
fn rebuilt(db: &Database) -> Database {
    let mut out = db.clone();
    for name in db.relation_names() {
        if let Some(delta) = db.delta(name) {
            out.insert(name.to_string(), delta.snapshot());
        }
    }
    out
}

/// Assert the acceptance property on one live database: for every engine ×
/// threads {1, 4}, the delta path's rows equal the rebuilt path's,
/// and the delta path's merged counters are thread-count independent. Then
/// compact every log — one run, no tombstones — and assert that the live
/// database has *become* the rebuilt one: a sealed run's access structure is
/// the static trie, so both WCOJ engines charge the same `WorkCounter` bit for
/// bit, kernel tallies included, and no union-cursor work at all.
fn assert_delta_matches_rebuild(w: &Workload, label: &str) {
    let static_db = rebuilt(&w.db);
    let plan = plan(&w.query, &static_db, None).expect("planner");
    for engine in ENGINES {
        let mut serial_work = None;
        for threads in [1usize, 4] {
            let opts = ExecOptions::new(engine).with_threads(threads);
            let live = run(&w.query, &w.db, &plan, &opts, None)
                .unwrap_or_else(|e| panic!("{label}: live {engine:?} failed: {e}"));
            let full = run(&w.query, &static_db, &plan, &opts, None)
                .unwrap_or_else(|e| panic!("{label}: rebuilt {engine:?} failed: {e}"));
            assert_eq!(
                live.result, full.result,
                "{label}: {engine:?}/t{threads}: delta path diverges from rebuild"
            );
            // the rebuilt path never runs the union cursor
            assert_eq!(
                full.work.delta_merge(),
                0,
                "{label}: static path charged delta work"
            );
            match &serial_work {
                None => serial_work = Some(live.work),
                Some(w1) => assert_eq!(
                    w1, &live.work,
                    "{label}: {engine:?}: delta-path counters depend on threads"
                ),
            }
        }
    }
    let mut compacted = w.db.clone();
    for name in w.db.relation_names() {
        compacted.compact(name).expect("compact");
        if let Some(delta) = compacted.delta(name) {
            assert!(delta.num_runs() <= 1 && delta.tombstones() == 0);
        }
    }
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        for threads in [1usize, 4] {
            let opts = ExecOptions::new(engine).with_threads(threads);
            let live = run(&w.query, &compacted, &plan, &opts, None)
                .unwrap_or_else(|e| panic!("{label}: compacted {engine:?} failed: {e}"));
            let full = run(&w.query, &static_db, &plan, &opts, None)
                .unwrap_or_else(|e| panic!("{label}: rebuilt {engine:?} failed: {e}"));
            assert_eq!(live.result, full.result, "{label}: {engine:?}/t{threads}");
            assert_eq!(
                live.work, full.work,
                "{label}: {engine:?}/t{threads}: a compacted log is not the static path"
            );
            assert_eq!(live.work.delta_merge(), 0, "{label}: {engine:?}/t{threads}");
        }
    }
}

/// A triangle database whose `R` and `T` logs are mutated by a seeded op
/// stream (inserts and deletes, small seal threshold → several runs with
/// tombstones); `S` stays as loaded, one clean run served by its plain trie,
/// so the query mixes both access structures.
fn mutated_triangle(seed: u64, ops: usize) -> Workload {
    let mut w = wcoj_workloads::triangle(96, seed);
    for name in ["R", "T"] {
        w.db.delta_mut(name).unwrap().set_seal_threshold(16);
    }
    let mut rng = SplitMix64::new(seed ^ 0xD317);
    for _ in 0..ops {
        let name = if rng.below(2) == 0 { "R" } else { "T" };
        let t = vec![rng.below(24), rng.below(24)];
        if rng.below(3) == 0 {
            w.db.delete(name, &t).unwrap();
        } else {
            w.db.insert_delta(name, t).unwrap();
        }
    }
    w.name = format!("mutated_triangle_s{seed}");
    w
}

#[test]
fn delta_path_is_bit_identical_to_full_rebuild() {
    // sliding-window streams at two sizes/seeds (self-join, all-delta) ...
    for (n, seed) in [(96usize, 0xA11CEu64), (256, 0xB0B)] {
        let w = edge_stream(n, seed);
        let delta = w.db.delta("E").unwrap();
        assert!(delta.num_runs() > 1, "fixture must stack runs");
        assert!(delta.tombstones() > 0, "fixture must carry tombstones");
        assert_delta_matches_rebuild(&w, &w.name.clone());
    }
    // ... and mutated triangles mixing delta-backed and static atoms
    for seed in [1u64, 7] {
        let w = mutated_triangle(seed, 300);
        assert_delta_matches_rebuild(&w, &w.name.clone());
    }
}

#[test]
fn delta_path_survives_every_compaction_step() {
    let mut w = edge_stream(192, 0xC0DE);
    assert!(w.db.delta("E").unwrap().num_runs() >= 2);
    let mut step = 0;
    loop {
        assert_delta_matches_rebuild(&w, &format!("edge_stream after {step} compaction steps"));
        if !w.db.delta_mut("E").unwrap().compact_step() {
            break;
        }
        step += 1;
    }
    assert!(step >= 1, "at least one compaction step must have run");
    assert_eq!(w.db.delta("E").unwrap().num_runs(), 1);
    assert_eq!(w.db.delta("E").unwrap().tombstones(), 0);
    // keep streaming after full compaction: new runs stack on the new base
    for (insert, (a, b)) in edge_stream_ops(64, 32, 0xFEED) {
        if insert {
            w.db.insert_delta("E", vec![a, b]).unwrap();
        } else {
            w.db.delete("E", &[a, b]).unwrap();
        }
    }
    assert_delta_matches_rebuild(&w, "edge_stream re-grown after compaction");
}

/// EXPERIMENTS E6's ingest gate, as exact counts: a sliding-window edge stream
/// replayed into rows kept sorted in place — the full-rebuild discipline,
/// where every effective op shifts the rows behind its position, `arity`
/// values each — and into a delta log. The two replicas agree tuple for
/// tuple, and the sorted rows move at least 10× the values the log writes
/// (933.7× on this stream).
#[test]
fn a_delta_log_moves_at_least_10x_fewer_values_than_sorted_rows_on_ingest() {
    let ops = edge_stream_ops(16_384, 8_192, 0xE6);
    let mut rows: Vec<(u64, u64)> = Vec::new();
    let mut shifted = 0u64;
    for &(insert, edge) in &ops {
        let pos = rows.partition_point(|&row| row < edge);
        let present = rows.get(pos) == Some(&edge);
        let tail = (rows.len() - pos) as u64;
        if insert && !present {
            rows.insert(pos, edge);
            shifted += 2 * tail;
        } else if !insert && present {
            rows.remove(pos);
            shifted += 2 * (tail - 1);
        }
    }
    let mut log = DeltaRelation::new(Schema::new(&["src", "dst"]));
    log.set_seal_threshold(4096);
    for &(insert, (a, b)) in &ops {
        if insert {
            log.insert(vec![a, b]).unwrap();
        } else {
            log.delete(&[a, b]).unwrap();
        }
    }
    log.seal();
    assert_eq!(log.snapshot(), Relation::from_pairs("src", "dst", rows));
    let written = log.values_written();
    println!(
        "values moved: sorted rows {shifted}, delta log {written} ({:.1}x)",
        shifted as f64 / written as f64
    );
    assert!(
        shifted >= 10 * written,
        "sorted rows shifted {shifted} values, the log wrote {written}"
    );
}

#[test]
fn unsealed_buffer_queries_match_sealed() {
    // queries must see buffered (unsealed) operations via the ephemeral run
    let mut w = mutated_triangle(3, 40);
    assert!(w.db.delta("R").unwrap().buffered() > 0 || w.db.delta("T").unwrap().buffered() > 0);
    assert_delta_matches_rebuild(&w, "unsealed buffers");
    w.db.seal("R").unwrap();
    w.db.seal("T").unwrap();
    assert_delta_matches_rebuild(&w, "after sealing");
}
