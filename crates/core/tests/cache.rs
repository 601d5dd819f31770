//! Differential and property tests for the tries memoized on log runs:
//!
//! executing with the cache **on** must be bit-identical — output
//! rows AND per-query work counters — to executing with the cache **off**,
//! across engines, interleaved with every kind of
//! log mutation (append, delete, seal, relation rebinding); repeated
//! queries must actually hit; every seal gives the log a new run, built
//! once per order; a pinned snapshot and a head that seals past it must keep
//! each other warm; a run's tries must die with it; and the two WCOJ engines
//! must share one memoized trie per `(relation, order)`.

use std::sync::Arc;
use wcoj_core::exec::{execute_opts, run, CacheMode, Engine, ExecOptions};
use wcoj_core::planner::{plan, Plan};
use wcoj_core::TraceSink;
use wcoj_query::query::examples;
use wcoj_query::{ConjunctiveQuery, Database};
use wcoj_storage::{Relation, Schema};
use wcoj_workloads::{query_replay, random_pairs, Workload};

const ENGINES: [Engine; 3] = [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog];

/// Run one configuration with the cache off (fresh builds, shared state
/// untouched) and assert the cached run is bit-identical in rows and counters.
fn assert_cached_matches_uncached(
    query: &ConjunctiveQuery,
    db: &Database,
    plan: &Plan,
    label: &str,
) {
    for engine in ENGINES {
        let base = ExecOptions::new(engine);
        let off = run(query, db, plan, &base.with_cache(CacheMode::Off), None)
            .unwrap_or_else(|e| panic!("{label}: off {engine:?} failed: {e}"));
        let on = run(query, db, plan, &base.with_cache(CacheMode::On), None)
            .unwrap_or_else(|e| panic!("{label}: on {engine:?} failed: {e}"));
        assert_eq!(on.result, off.result, "{label}: {engine:?}: rows diverge");
        assert_eq!(on.work, off.work, "{label}: {engine:?}: counters diverge");
    }
}

#[test]
fn cache_on_equals_cache_off_under_log_mutations() {
    let Workload { query, mut db, .. } = query_replay(96, 0xE8);
    let plan = plan(&query, &db, None).expect("planner");
    assert_cached_matches_uncached(&query, &db, &plan, "initial");

    // every visibility-changing mutation kind, with queries replayed between:
    // buffered appends, deletes, seals (epoch advance + a new run), a seal
    // that merges a delete, and a rebind (a new log, a new run)
    let mut rng = wcoj_workloads::SplitMix64::new(0xE8E8);
    for step in 0..6 {
        match step {
            0 => {
                for _ in 0..8 {
                    db.insert_delta("R", vec![rng.below(24), rng.below(24)])
                        .expect("append");
                }
            }
            1 => {
                let victim = db.delta("S").expect("delta S").snapshot();
                if !victim.is_empty() {
                    let row: Vec<u64> = victim.row(0);
                    db.delete("S", &row).expect("delete");
                }
            }
            2 => db.seal("R").expect("seal"),
            3 => {
                let row: Vec<u64> = db.delta("R").expect("delta R").snapshot().row(0);
                db.delete("R", &row).expect("delete");
                db.seal("R").expect("seal");
            }
            4 => {
                for _ in 0..8 {
                    db.insert_delta("S", vec![rng.below(24), rng.below(24)])
                        .expect("append");
                }
                db.seal("S").expect("seal");
            }
            _ => {
                // rebind T: its run is new, so cached entries for the old
                // binding can never be returned
                db.insert(
                    "T",
                    Relation::from_pairs("A", "C", random_pairs(64, 24, step)),
                );
            }
        }
        assert_cached_matches_uncached(&query, &db, &plan, &format!("step {step}"));
    }
}

#[test]
fn repeat_hits_seal_and_compaction_rebuild_the_fold() {
    // one delta-backed atom, sealed into one run
    let query = examples::triangle();
    let mut db = Database::new();
    let mut delta = wcoj_storage::DeltaRelation::new(wcoj_storage::Schema::new(&["A", "B"]));
    delta.set_seal_threshold(usize::MAX);
    for (a, b) in random_pairs(512, 48, 0xE811) {
        delta.insert(vec![a, b]).expect("base insert");
    }
    delta.seal();
    db.insert_delta_relation("R", delta);
    db.insert(
        "S",
        Relation::from_pairs("B", "C", random_pairs(512, 48, 0xE812)),
    );
    db.insert(
        "T",
        Relation::from_pairs("A", "C", random_pairs(512, 48, 0xE813)),
    );
    // a deliberately non-native variable order — C, B, A: every atom binds
    // positions [1, 0], so every trie is an argsorted build
    let plan = plan(&query, &db, Some(&[2, 1, 0])).expect("plan");
    let opts = ExecOptions::new(Engine::GenericJoin);

    let cold = run(&query, &db, &plan, &opts, None).expect("cold");
    assert_eq!(cold.cache_stats.hits, 0);
    assert_eq!(cold.cache_stats.misses, 3, "all three atoms built cold");
    assert!(cold.cache_stats.bytes > 0, "built structures are resident");

    let warm = run(&query, &db, &plan, &opts, None).expect("warm");
    assert_eq!(warm.cache_stats.misses, 0);
    assert_eq!(warm.cache_stats.hits, 3, "all three atoms reused warm");
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.work, cold.work);

    // seal a small fresh batch into R: R has a new run, and only its trie
    // is built
    for i in 0..16u64 {
        db.insert_delta("R", vec![i % 48, (i * 7) % 48])
            .expect("append");
    }
    db.seal("R").expect("seal");
    let merged = run(&query, &db, &plan, &opts, None).expect("merged");
    assert_eq!(db.delta("R").unwrap().run_ids().len(), 1);
    assert_eq!(merged.cache_stats.misses, 1, "R's new run builds");
    assert_eq!(merged.cache_stats.hits, 2, "S and T still hit");
    let registry = wcoj_obs::Registry::new();
    db.cache_counters().register_metrics(&registry);
    let off = run(&query, &db, &plan, &opts.with_cache(CacheMode::Off), None).expect("off");
    assert_eq!(merged.result, off.result, "a merged run is bit-identical");
    assert_eq!(merged.work, off.work);
    // a run with reuse off leaves the cumulative counters as they were
    let gauge = registry.snapshot().gauge_value("cache.resident_bytes");
    assert_eq!(gauge, Some(merged.cache_stats.bytes));

    // a seal that deletes compacts the tombstones away: R's run is new again
    for i in 0..8u64 {
        db.delete("R", &[i % 48, (i * 7) % 48]).expect("delete");
    }
    db.seal("R").expect("seal");
    let rebuilt = run(&query, &db, &plan, &opts, None).expect("rebuilt");
    assert_eq!(rebuilt.cache_stats.misses, 1, "resealed R rebuilds");
    assert_eq!(rebuilt.cache_stats.hits, 2);
    let off = run(&query, &db, &plan, &opts.with_cache(CacheMode::Off), None).expect("off");
    assert_eq!(rebuilt.result, off.result);
    assert_eq!(rebuilt.work, off.work);
}

/// EXPERIMENTS E10.3's shape: the head seals past the pinned snapshot, and
/// every seal merges the buffer into a new run, so the two sides share no
/// run. Both sides stay warm because each reads the tries of its own runs,
/// and what only the snapshot held goes with it.
#[test]
fn a_pinned_snapshot_and_a_compacting_head_never_evict_each_other() {
    let query = examples::triangle();
    let mut db = Database::new();
    for (name, cols, seed) in [
        ("R", ["A", "B"], 0xE1031u64),
        ("S", ["B", "C"], 0xE1032),
        ("T", ["A", "C"], 0xE1033),
    ] {
        let mut delta = wcoj_storage::DeltaRelation::new(wcoj_storage::Schema::new(&cols));
        delta.set_seal_threshold(usize::MAX);
        for (a, b) in random_pairs(512, 48, seed) {
            delta.insert(vec![a, b]).expect("base insert");
        }
        delta.seal();
        db.insert_delta_relation(name, delta);
    }
    // every atom binds positions [1, 0]
    let plan = plan(&query, &db, Some(&[2, 1, 0])).expect("plan");
    let opts = ExecOptions::new(Engine::GenericJoin);
    let run =
        |db: &Database, opts: &ExecOptions| run(&query, db, &plan, opts, None).expect("query");
    // small batches of fresh tuples, each sealed into a new run
    let seal_batch = |db: &mut Database, salt: u64| {
        for name in ["R", "S", "T"] {
            for i in 0..4u64 {
                db.insert_delta(name, vec![100 + salt, i]).expect("append");
            }
            db.seal(name).expect("seal");
        }
    };

    let snap = db.snapshot();
    seal_batch(&mut db, 0);
    for name in ["R", "S", "T"] {
        assert!(!snap
            .delta(name)
            .unwrap()
            .run_ids()
            .contains(&db.delta(name).unwrap().run_ids()[0]));
    }
    // one alternation builds both sides…
    let live0 = run(&db, &opts);
    let snap0 = run(&snap, &opts);
    assert_eq!(live0.cache_stats.misses + snap0.cache_stats.misses, 6);
    assert_ne!(live0.result, snap0.result);
    for (side, out) in [(&db, &live0), (&*snap, &snap0)] {
        let off = run(side, &opts.with_cache(CacheMode::Off));
        assert_eq!(out.result, off.result);
        assert_eq!(out.work, off.work);
    }
    // …and from then on both are warm, on the very tries they built
    let trie = |db: &Database, name: &str| {
        let run = db.delta(name).unwrap().fold().unwrap();
        let (trie, hit) = run.shared_trie(&[1, 0]).unwrap();
        assert!(hit, "{name}'s trie is memoized on its run");
        trie
    };
    let built: Vec<_> = [&db, &*snap]
        .into_iter()
        .flat_map(|side| ["R", "S", "T"].map(|name| trie(side, name)))
        .collect();
    for round in 0..20 {
        for (side, first) in [(&db, &live0), (&*snap, &snap0)] {
            let out = run(side, &opts);
            assert_eq!(out.result, first.result, "round {round}");
            assert_eq!(out.work, first.work, "round {round}");
            assert_eq!(out.cache_stats.hits, 3, "round {round}");
            assert_eq!(out.cache_stats.misses, 0, "round {round}");
        }
    }
    let again = [&db, &*snap]
        .into_iter()
        .flat_map(|side| ["R", "S", "T"].map(|name| trie(side, name)));
    assert!(again.zip(&built).all(|(a, b)| Arc::ptr_eq(&a, b)));
    let snap_tries: Vec<_> = built[3..].iter().map(Arc::downgrade).collect();
    drop(built);

    // the snapshot goes away, and the tries of the runs only it held with it
    drop(snap);
    assert!(snap_tries.iter().all(|t| t.upgrade().is_none()));
    seal_batch(&mut db, 1);
    let merged = run(&db, &opts);
    assert_eq!(merged.cache_stats.misses, 3, "three new runs");
    // the resident bytes are the head's runs' tries, one per relation: what
    // fresh builds of them take
    let fresh = ["R", "S", "T"].map(|name| {
        let run = db.delta(name).unwrap().fold().unwrap();
        run.trie(&[1, 0]).unwrap().heap_bytes() as u64
    });
    assert_eq!(merged.cache_stats.bytes, fresh.iter().sum::<u64>());
    assert_eq!(merged.cache_stats.bytes, db.trie_bytes() as u64);
}

#[test]
fn empty_seal_is_a_complete_noop_and_cache_still_hits() {
    // Sealing an empty buffer must be a complete no-op: no run pushed, no
    // epoch bump, no cache invalidation. A periodic flush tick on an idle
    // relation must not cost the next query a rebuild.
    let query = examples::triangle();
    let mut db = Database::new();
    let mut delta = wcoj_storage::DeltaRelation::new(wcoj_storage::Schema::new(&["A", "B"]));
    delta.set_seal_threshold(usize::MAX);
    for (a, b) in random_pairs(256, 32, 0xE901) {
        delta.insert(vec![a, b]).expect("base insert");
    }
    delta.seal();
    db.insert_delta_relation("R", delta);
    db.insert(
        "S",
        Relation::from_pairs("B", "C", random_pairs(256, 32, 0xE902)),
    );
    db.insert(
        "T",
        Relation::from_pairs("A", "C", random_pairs(256, 32, 0xE903)),
    );
    // permuted: every trie is an argsorted build
    let plan = plan(&query, &db, Some(&[2, 1, 0])).expect("plan");
    let opts = ExecOptions::new(Engine::GenericJoin);
    let cold = run(&query, &db, &plan, &opts, None).expect("cold");
    assert_eq!(cold.cache_stats.misses, 3);

    let (epoch, runs) = {
        let d = db.delta("R").expect("delta R");
        (d.epoch(), d.run_ids())
    };
    db.seal("R").expect("empty seal");
    let d = db.delta("R").expect("delta R");
    assert_eq!(d.epoch(), epoch, "empty seal must not bump the epoch");
    assert_eq!(d.run_ids(), runs, "empty seal must not touch the run list");

    let warm = run(&query, &db, &plan, &opts, None).expect("warm");
    assert_eq!(
        warm.cache_stats.hits, 3,
        "cache still hits after empty seal"
    );
    assert_eq!(warm.cache_stats.misses, 0);
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.work, cold.work);
}

/// One static structure means one memoized trie per `(relation, order)`
/// whichever WCOJ engine asks: a Leapfrog run after a Generic Join run over
/// the same order rebuilds nothing and adds no bytes.
#[test]
fn generic_join_and_leapfrog_share_one_cached_trie() {
    let Workload { query, db, .. } = wcoj_workloads::triangle(256, 0xE84);
    // the identity order: every atom binds positions [0, 1]
    let plan = plan(&query, &db, Some(&[0, 1, 2])).expect("plan");
    let trie_of_r = || {
        let run = db.delta("R").unwrap().fold().unwrap();
        let (trie, hit) = run.shared_trie(&[0, 1]).unwrap();
        assert!(hit, "R's trie is memoized on its run");
        trie
    };
    let atoms = query.atoms().len() as u64;
    let oracle = execute_opts(&query, &db, &ExecOptions::new(Engine::BinaryHash)).expect("oracle");

    let gj = ExecOptions::new(Engine::GenericJoin);
    let first = run(&query, &db, &plan, &gj, None).expect("generic join");
    assert_eq!(first.cache_stats.misses, atoms, "every atom built cold");
    assert_eq!(first.result, oracle.result);
    let built = trie_of_r();

    let lf = ExecOptions::new(Engine::Leapfrog);
    let second = run(&query, &db, &plan, &lf, None).expect("leapfrog");
    assert_eq!(second.cache_stats.hits, atoms, "every atom reused");
    assert_eq!(second.cache_stats.misses, 0);
    assert_eq!(second.cache_stats.bytes, first.cache_stats.bytes);
    assert_eq!(second.result, oracle.result);
    assert!(
        Arc::ptr_eq(&built, &trie_of_r()),
        "one trie for both engines"
    );
}

/// A rebound name's old log is dropped, and its run with it: the tries
/// memoized on the run go at once, with no further query. A snapshot that
/// still holds the old binding keeps them alive until it goes.
#[test]
fn a_runs_tries_die_with_it() {
    let Workload { query, mut db, .. } = wcoj_workloads::triangle(256, 0xE85);
    // the identity order: every atom binds positions [0, 1] whatever the sizes
    let plan = plan(&query, &db, Some(&[0, 1, 2])).expect("plan");
    let opts = ExecOptions::new(Engine::GenericJoin);
    let run = |db: &Database| run(&query, db, &plan, &opts, None).expect("query");
    let rebind = |db: &mut Database, seed| {
        let pairs = random_pairs(256, 64, seed);
        db.insert("R", Relation::from_pairs("A", "B", pairs));
    };
    let trie_of_r = |db: &Database| {
        let run = db.delta("R").unwrap().fold().unwrap();
        let (trie, hit) = run.shared_trie(&[0, 1]).unwrap();
        assert!(hit, "R's trie is memoized on its run");
        Arc::downgrade(&trie)
    };
    assert_eq!(run(&db).cache_stats.misses, 3);
    for seed in 1..4u64 {
        let old = trie_of_r(&db);
        rebind(&mut db, seed);
        assert!(
            old.upgrade().is_none(),
            "seed {seed}: the old R's trie is gone"
        );
        let out = run(&db);
        assert_eq!(out.cache_stats.misses, 1, "seed {seed}: the new R builds");
        assert_eq!(out.cache_stats.hits, 2, "seed {seed}: S and T hit");
        assert_eq!(out.cache_stats.bytes, db.trie_bytes() as u64);
    }
    let old = trie_of_r(&db);
    let pinned = db.snapshot();
    rebind(&mut db, 4);
    assert!(
        old.upgrade().is_some(),
        "the snapshot still holds the old R"
    );
    drop(pinned);
    assert!(
        old.upgrade().is_none(),
        "the old R's trie went with the snapshot"
    );
}

/// An empty relation is a log with no run: its atom is served by a trie over
/// no rows, built per query, caches nothing and tallies nothing, and the rows
/// and work counters are the ones a loaded empty relation gives.
#[test]
fn an_empty_relation_caches_and_tallies_nothing() {
    let Workload { query, mut db, .. } = wcoj_workloads::triangle(256, 0xE86);
    db.insert("S", Relation::empty(Schema::new(&["B", "C"])));
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let opts = ExecOptions::new(engine);
        let on = execute_opts(&query, &db, &opts).expect("cached");
        let off = execute_opts(&query, &db, &opts.with_cache(CacheMode::Off)).expect("off");
        assert!(on.result.is_empty());
        assert_eq!(on.work, off.work, "{engine:?}");
        // the counters the same query read with S a static empty relation
        let work = &on.work;
        assert_eq!((work.probes(), work.kernel_bitmap()), (2, 1));
        assert_eq!((work.intersect_steps(), work.comparisons()), (0, 0));
        assert_eq!(on.cache_stats.misses + on.cache_stats.hits, 2);
    }
    // R and T only: S has no run to memoize on
    assert!(db.delta("S").unwrap().fold().is_none());
    let memoized = ["R", "T"].map(|name| db.delta(name).unwrap().fold().unwrap().trie_bytes());
    assert!(memoized.iter().all(|&bytes| bytes > 0));
    assert_eq!(memoized.iter().sum::<usize>(), db.trie_bytes());
    let sink = Arc::new(TraceSink::new());
    let opts = ExecOptions::new(Engine::GenericJoin).with_trace(Arc::clone(&sink));
    execute_opts(&query, &db, &opts).expect("traced");
    let trace = sink.take().expect("trace deposited");
    let s = &trace.atoms[1];
    assert_eq!((s.relation.as_str(), s.outcome.as_str()), ("S", "bypass"));
}
