//! Differential and property tests for the incremental-maintenance (delta-log)
//! subsystem:
//!
//! querying **a sealed run + a buffer of inserts and tombstones** — read as
//! the run with the buffer merged in — must be bit-identical, rows AND work
//! counters, to querying a **fully rebuilt** static database, across engines;
//! the property must survive **every** seal, each of which compacts the
//! buffer into the log's one run; and a pinned
//! snapshot keeps hitting its run's trie while the head moves on, with stale
//! entries swept.

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

/// Assert the acceptance property on one live database: for every engine,
/// the delta path's rows AND work counters equal the rebuilt path's — a log
/// is read through the trie of its live run, which is the snapshot's trie bit
/// for bit, kernel tallies included. Then seal every log — one run, nothing
/// buffered — and assert the same again.
fn assert_delta_matches_rebuild(w: &Workload, label: &str) {
    let static_db = rebuilt(&w.db);
    let plan = plan(&w.query, &static_db, None).expect("planner");
    let mut sealed = w.db.clone();
    for name in w.db.relation_names() {
        sealed.seal(name).expect("seal");
        if let Some(delta) = sealed.delta(name) {
            assert!(delta.run_ids().len() <= 1 && delta.buffered() == 0);
        }
    }
    for (state, db) in [("live", &w.db), ("sealed", &sealed)] {
        for engine in ENGINES {
            let opts = ExecOptions::new(engine);
            let live = run(&w.query, db, &plan, &opts, None)
                .unwrap_or_else(|e| panic!("{label}: {state} {engine:?} failed: {e}"));
            let full = run(&w.query, &static_db, &plan, &opts, None)
                .unwrap_or_else(|e| panic!("{label}: rebuilt {engine:?} failed: {e}"));
            let at = format!("{label}: {state} {engine:?}");
            assert_eq!(live.result, full.result, "{at}: rows diverge from rebuild");
            assert_eq!(live.work, full.work, "{at}: the log is not the static path");
            assert_eq!(live.work.delta_merge(), 0, "{at}");
        }
    }
}

/// A triangle database whose `R` and `T` logs are mutated by a seeded op
/// stream (inserts and deletes, small seal threshold → seals that merge
/// tombstones, then a buffered tail); `S` stays as loaded, one clean run, so
/// the query reads logs of both shapes.
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
        assert_eq!(delta.run_ids().len(), 1, "fixture must seal");
        assert_delta_matches_rebuild(&w, &w.name.clone());
    }
    // ... and mutated triangles mixing churned and loaded relations
    for seed in [1u64, 7] {
        let w = mutated_triangle(seed, 300);
        assert_delta_matches_rebuild(&w, &w.name.clone());
    }
}

/// Every seal compacts the buffered ops into the log's one run: keep
/// streaming into a sealed log in chunks, and the delta path matches the
/// rebuild with each chunk buffered and again once it is sealed.
#[test]
fn delta_path_survives_every_compaction_step() {
    let mut w = edge_stream(192, 0xC0DE);
    w.db.delta_mut("E").unwrap().set_seal_threshold(usize::MAX);
    let ops = edge_stream_ops(64, 32, 0xFEED);
    for (step, chunk) in ops.chunks(24).enumerate() {
        let before = w.db.delta("E").unwrap().run_ids();
        for &(insert, (a, b)) in chunk {
            if insert {
                w.db.insert_delta("E", vec![a, b]).unwrap();
            } else {
                w.db.delete("E", &[a, b]).unwrap();
            }
        }
        assert_delta_matches_rebuild(&w, &format!("edge_stream chunk {step}"));
        w.db.seal("E").unwrap();
        let delta = w.db.delta("E").unwrap();
        assert_eq!((delta.run_ids().len(), delta.buffered()), (1, 0));
        assert_ne!(delta.run_ids(), before, "chunk {step} rewrote the run");
    }
}

/// EXPERIMENTS E6's ingest gate, as exact counts: a sliding-window edge stream
/// replayed into rows kept sorted in place — the full-rebuild discipline,
/// where every effective op shifts the rows behind its position, `arity`
/// values each — and into a delta log. The two replicas agree tuple for
/// tuple, and the sorted rows move at least 10× the values the log writes
/// (1095.5× on this stream).
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
    // queries must see buffered (unsealed) operations, merged into the run
    let mut w = mutated_triangle(3, 40);
    assert!(w.db.delta("R").unwrap().buffered() > 0 || w.db.delta("T").unwrap().buffered() > 0);
    assert_delta_matches_rebuild(&w, "unsealed buffers");
    w.db.seal("R").unwrap();
    w.db.seal("T").unwrap();
    assert_delta_matches_rebuild(&w, "after sealing");
}

/// A seeded interleaving of everything that moves a log — inserts and
/// deletes, seals, snapshots pinned across seals, drops — with a query after
/// each step: its rows and counters match a relation rebuilt from a reference
/// set of the live tuples (kept by the test, not read back from the log), a
/// pinned snapshot keeps hitting its run's trie while the head moves on, and
/// the tries of runs no log holds are gone, so residency stays bounded.
#[test]
fn interleaved_mutations_snapshots_and_drops_keep_folds_exact_and_the_cache_bounded() {
    let query = wcoj_query::query::examples::clique(3);
    let mut db = Database::new();
    db.insert_delta_relation("E", DeltaRelation::new(Schema::new(&["src", "dst"])));
    db.delta_mut("E").unwrap().set_seal_threshold(usize::MAX);
    // every atom of the 3-clique binds E's columns swapped under this order
    let order = [2usize, 1, 0];
    let opts = ExecOptions::new(Engine::GenericJoin);
    let mut rng = SplitMix64::new(0x1A7E);
    let mut pinned: Vec<(Database, wcoj_core::ExecOutput)> = Vec::new();
    let mut reference = std::collections::BTreeSet::new();
    // a weak handle on every trie ever memoized on one of E's runs
    let mut built: Vec<std::sync::Weak<wcoj_storage::Trie>> = Vec::new();
    let mut peak = 0;
    for step in 0..240 {
        for _ in 0..1 + rng.below(6) {
            let t = vec![rng.below(20), rng.below(20)];
            if rng.below(3) == 0 {
                assert_eq!(db.delete("E", &t).unwrap(), reference.remove(&t));
            } else {
                assert_eq!(
                    db.insert_delta("E", t.clone()).unwrap(),
                    reference.insert(t)
                );
            }
        }
        match rng.below(8) {
            0..=3 => db.seal("E").unwrap(),
            4 if pinned.len() < 3 => {
                db.seal("E").unwrap();
                if !db.delta("E").unwrap().run_ids().is_empty() {
                    let snap = db.clone();
                    let at = plan(&query, &snap, Some(&order)).unwrap();
                    let first = run(&query, &snap, &at, &opts, None).unwrap();
                    pinned.push((snap, first));
                }
            }
            5 if !pinned.is_empty() => {
                pinned.remove(rng.below(pinned.len() as u64) as usize);
            }
            _ => {}
        }
        let at = plan(&query, &db, Some(&order)).unwrap();
        let live = run(&query, &db, &at, &opts, None).unwrap();
        let mut rebuilt = Database::new();
        let rows = reference.iter().cloned().collect();
        rebuilt.insert("E", Relation::from_rows(Schema::new(&["src", "dst"]), rows));
        let full = run(&query, &rebuilt, &at, &opts, None).unwrap();
        assert_eq!(live.result, full.result, "step {step}");
        assert_eq!(live.work, full.work, "step {step}");
        // what is left alive is one run's trie per holder at most, the head
        // and each snapshot
        built.retain(|t| t.strong_count() > 0);
        if let Some(run) = db.delta("E").unwrap().fold() {
            let trie = std::sync::Arc::downgrade(&run.shared_trie(&[1, 0]).unwrap().0);
            if !built.iter().any(|t| t.ptr_eq(&trie)) {
                built.push(trie);
            }
        }
        let resident = built.len();
        assert!(
            resident <= pinned.len() + 1,
            "step {step}: {resident} tries alive"
        );
        peak = peak.max(resident);
        for (k, (snap, first)) in pinned.iter().enumerate() {
            let at = plan(&query, snap, Some(&order)).unwrap();
            let again = run(&query, snap, &at, &opts, None).unwrap();
            assert_eq!(again.result, first.result, "step {step}: snapshot {k}");
            assert_eq!(again.work, first.work, "step {step}: snapshot {k}");
            assert_eq!(
                (again.cache_stats.hits, again.cache_stats.misses),
                (3, 0),
                "step {step}: snapshot {k} keeps hitting its run"
            );
        }
    }
    assert!((3..=4).contains(&peak), "residency peaked at {peak} tries");
}
