//! Differential and property tests for the stamp-keyed access-structure cache:
//!
//! executing with the cache **on** must be bit-identical — output
//! rows AND per-query work counters — to executing with the cache **off**,
//! across engines × threads {1, 4}, interleaved with every kind of
//! log mutation (append, delete, seal, compact, relation rebinding); repeated
//! queries must actually hit; newly sealed runs must take the incremental-merge
//! path, compaction must force a rebuild; a pinned snapshot and a compacting
//! head must keep each other warm; a byte-starved cache must evict without
//! ever surfacing a stale structure; and the two WCOJ engines must share one
//! cached trie per `(relation, order)`.

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
        for threads in [1usize, 4] {
            let base = ExecOptions::new(engine).with_threads(threads);
            let off = run(query, db, plan, &base.with_cache(CacheMode::Off), None)
                .unwrap_or_else(|e| panic!("{label}: off {engine:?} failed: {e}"));
            let on = run(query, db, plan, &base.with_cache(CacheMode::On), None)
                .unwrap_or_else(|e| panic!("{label}: on {engine:?} failed: {e}"));
            assert_eq!(
                on.result, off.result,
                "{label}: {engine:?}/t{threads}: rows diverge"
            );
            assert_eq!(
                on.work, off.work,
                "{label}: {engine:?}/t{threads}: counters diverge"
            );
        }
    }
}

#[test]
fn cache_on_equals_cache_off_under_log_mutations() {
    let Workload { query, mut db, .. } = query_replay(96, 0xE8);
    let plan = plan(&query, &db, None).expect("planner");
    assert_cached_matches_uncached(&query, &db, &plan, "initial");

    // every visibility-changing mutation kind, with queries replayed between:
    // buffered appends, deletes, seals (epoch advance + new runs), compaction
    // (structural rewrite), and a rebind (a new log, a new run)
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
            3 => db.compact("R").expect("compact"),
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
fn repeat_hits_seal_merges_incrementally_compaction_rebuilds() {
    // one delta-backed atom with a deliberately large base run, so sealing a
    // small batch later cannot trip the size-tiered tail merge (which would
    // legitimately — but nondeterministically — rewrite the run list)
    let query = examples::triangle();
    let mut db = Database::new();
    let mut delta = wcoj_storage::DeltaRelation::new(wcoj_storage::Schema::new(&["A", "B"]));
    delta.set_seal_threshold(usize::MAX);
    for (a, b) in random_pairs(512, 48, 0xE811) {
        delta.insert(vec![a, b]).expect("base insert");
    }
    delta.seal();
    db.insert_delta_relation("R", delta);
    // pin an explicit budget: the hit/miss asserts below must hold even when
    // the environment disables the cache (the WCOJ_CACHE_BYTES=0 CI leg)
    db.set_cache_budget(64 << 20);
    db.insert(
        "S",
        Relation::from_pairs("B", "C", random_pairs(512, 48, 0xE812)),
    );
    db.insert(
        "T",
        Relation::from_pairs("A", "C", random_pairs(512, 48, 0xE813)),
    );
    // a deliberately non-native variable order: every atom's columns must be
    // permuted, so the delta atom flows through a cached view (the native
    // order borrows the log directly and bypasses the cache)
    // C, B, A: every atom binds positions [1, 0]
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

    // seal a small fresh batch into R: only the new run should be permuted
    // (512-row base ≥ 2 × the 16-row batch, so no tail merge fires)
    for i in 0..16u64 {
        db.insert_delta("R", vec![i % 48, (i * 7) % 48])
            .expect("append");
    }
    db.seal("R").expect("seal");
    let merged = run(&query, &db, &plan, &opts, None).expect("merged");
    assert_eq!(
        merged.cache_stats.incremental_merges, 1,
        "R extends incrementally"
    );
    assert_eq!(merged.cache_stats.hits, 2, "S and T still hit");
    assert_eq!(merged.cache_stats.misses, 0);
    let off = run(&query, &db, &plan, &opts.with_cache(CacheMode::Off), None).expect("off");
    assert_eq!(
        merged.result, off.result,
        "incremental merge is bit-identical"
    );
    assert_eq!(merged.work, off.work);

    // compaction rewrites the run list: the view diverges and R rebuilds
    db.compact("R").expect("compact");
    let rebuilt = run(&query, &db, &plan, &opts, None).expect("rebuilt");
    assert_eq!(rebuilt.cache_stats.incremental_merges, 0);
    assert_eq!(rebuilt.cache_stats.misses, 1, "compacted R rebuilds");
    assert_eq!(rebuilt.cache_stats.hits, 2);
    let off = run(&query, &db, &plan, &opts.with_cache(CacheMode::Off), None).expect("off");
    assert_eq!(rebuilt.result, off.result);
    assert_eq!(rebuilt.work, off.work);
}

/// EXPERIMENTS E10.3's shape, made harsher: the head does not merely seal past
/// the pinned snapshot, it compacts, so the two run lists share nothing. Both
/// sides stay warm because neither ever writes a key the other reads, and what
/// only the snapshot held is reclaimed after it is dropped.
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
    db.set_cache_budget(64 << 20);
    // every atom binds positions [1, 0]
    let plan = plan(&query, &db, Some(&[2, 1, 0])).expect("plan");
    let opts = ExecOptions::new(Engine::GenericJoin);
    let run =
        |db: &Database, opts: &ExecOptions| run(&query, db, &plan, opts, None).expect("query");
    // small batches of fresh tuples: never a tier merge against a 512-row base
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
        db.compact(name).expect("compact");
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
    // …and from then on both are warm
    for round in 0..20 {
        for (side, first) in [(&db, &live0), (&*snap, &snap0)] {
            let out = run(side, &opts);
            assert_eq!(out.result, first.result, "round {round}");
            assert_eq!(out.work, first.work, "round {round}");
            assert_eq!(out.cache_stats.hits, 3, "round {round}");
            assert_eq!(out.cache_stats.misses, 0, "round {round}");
            assert_eq!(out.cache_stats.incremental_merges, 0, "round {round}");
        }
    }
    assert_eq!(db.access_cache().len(), 6, "one entry per run per side");

    // the snapshot goes away; the head's next insert for each relation and
    // order leaves no entry for the runs only the snapshot held
    drop(snap);
    seal_batch(&mut db, 1);
    let merged = run(&db, &opts);
    assert_eq!(merged.cache_stats.incremental_merges, 3);
    assert_eq!(merged.cache_stats.evictions, 0, "reclaimed, not evicted");
    let (len, bytes) = (db.access_cache().len(), db.access_cache().bytes());
    assert_eq!(len, 6, "two runs per relation, all the head's");
    assert_eq!(merged.cache_stats.bytes, bytes as u64);
    // exactly what a head-only warm-up from a cleared cache produces
    db.access_cache().clear();
    let cold = run(&db, &opts);
    assert_eq!(cold.cache_stats.misses, 3);
    assert_eq!(cold.result, merged.result);
    assert_eq!(db.access_cache().len(), len);
    assert_eq!(db.access_cache().bytes(), bytes);
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
    db.set_cache_budget(64 << 20);
    db.insert(
        "S",
        Relation::from_pairs("B", "C", random_pairs(256, 32, 0xE902)),
    );
    db.insert(
        "T",
        Relation::from_pairs("A", "C", random_pairs(256, 32, 0xE903)),
    );
    // permuted: the delta atom flows through a cached view
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
    assert_eq!(warm.cache_stats.incremental_merges, 0);
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.work, cold.work);
}

#[test]
fn eviction_under_pressure_never_surfaces_stale_structures() {
    let Workload { query, mut db, .. } = wcoj_workloads::triangle(256, 0xE82);
    let plan = plan(&query, &db, None).expect("planner");
    let opts = ExecOptions::new(Engine::GenericJoin).with_threads(1);
    let off = run(&query, &db, &plan, &opts.with_cache(CacheMode::Off), None).expect("off");

    // measure the full working set (3 tries under each of two variable
    // orders), then starve the cache to 3/4 of it: individual entries still
    // fit, the set does not (explicit budget first, so WCOJ_CACHE_BYTES=0
    // cannot void the warm-up)
    db.set_cache_budget(64 << 20);
    let reversed: Vec<usize> = plan.order.iter().rev().copied().collect();
    let plans = [
        plan,
        wcoj_core::plan(&query, &db, Some(&reversed)).expect("plan"),
    ];
    for plan in &plans {
        run(&query, &db, plan, &opts, None).expect("warm-up");
    }
    assert_eq!(
        db.access_cache().len(),
        6,
        "no trie is shared by the two orders"
    );
    let full_bytes = db.access_cache().bytes();
    assert!(full_bytes > 0);
    let budget = full_bytes * 3 / 4;
    db.set_cache_budget(budget);

    let mut evictions = 0u64;
    for round in 0..4 {
        // alternate orders so the two sets of tries fight over the budget
        for plan in &plans {
            let order = &plan.order;
            let out = run(&query, &db, plan, &opts, None)
                .unwrap_or_else(|e| panic!("round {round}/{order:?}: {e}"));
            assert_eq!(out.result, off.result, "round {round}/{order:?}");
            evictions += out.cache_stats.evictions;
            assert!(
                db.access_cache().bytes() <= budget,
                "round {round}: budget respected"
            );
        }
    }
    assert!(evictions > 0, "the starved cache must actually evict");

    // zero budget disables the cache outright: no hits, no residency
    db.set_cache_budget(0);
    let disabled = run(&query, &db, &plans[0], &opts, None).expect("disabled");
    assert_eq!(disabled.result, off.result);
    assert_eq!(disabled.cache_stats.hits, 0);
    assert_eq!(disabled.cache_stats.misses, 0);
    assert_eq!(disabled.cache_stats.bytes, 0);
    assert!(db.access_cache().is_empty());
}

/// One static structure means one cache entry per `(relation, order)` whichever
/// WCOJ engine asks: a Leapfrog run after a Generic Join run over the same
/// order rebuilds nothing and adds no bytes.
#[test]
fn generic_join_and_leapfrog_share_one_cached_trie() {
    let Workload { query, mut db, .. } = wcoj_workloads::triangle(256, 0xE84);
    db.set_cache_budget(64 << 20);
    let plan = plan(&query, &db, None).expect("planner");
    let atoms = query.atoms().len() as u64;
    let oracle = execute_opts(&query, &db, &ExecOptions::new(Engine::BinaryHash)).expect("oracle");

    let gj = ExecOptions::new(Engine::GenericJoin);
    let first = run(&query, &db, &plan, &gj, None).expect("generic join");
    assert_eq!(first.cache_stats.misses, atoms, "every atom built cold");
    assert_eq!(first.result, oracle.result);

    let lf = ExecOptions::new(Engine::Leapfrog);
    let second = run(&query, &db, &plan, &lf, None).expect("leapfrog");
    assert_eq!(second.cache_stats.hits, atoms, "every atom reused");
    assert_eq!(second.cache_stats.misses, 0);
    assert_eq!(second.cache_stats.bytes, first.cache_stats.bytes);
    assert_eq!(second.result, oracle.result);
}

/// A rebound name's old log is dropped, and its run with it: the old
/// binding's entries die with the run (reclaimed by the next build for that
/// relation and order), not when eviction gets to them. A snapshot that
/// still holds the old binding keeps its entry alive until it goes.
#[test]
fn rebinding_a_name_reclaims_the_old_bindings_entries() {
    let Workload { query, mut db, .. } = wcoj_workloads::triangle(256, 0xE85);
    db.set_cache_budget(64 << 20);
    // the identity order: every atom binds positions [0, 1] whatever the sizes
    let plan = plan(&query, &db, Some(&[0, 1, 2])).expect("plan");
    let opts = ExecOptions::new(Engine::GenericJoin);
    let run = |db: &Database| run(&query, db, &plan, &opts, None).expect("query");
    let rebind = |db: &mut Database, seed| {
        let pairs = random_pairs(256, 64, seed);
        db.insert("R", Relation::from_pairs("A", "B", pairs));
    };
    assert_eq!(run(&db).cache_stats.misses, 3);
    for seed in 1..4u64 {
        rebind(&mut db, seed);
        let out = run(&db);
        assert_eq!(out.cache_stats.misses, 1, "seed {seed}: the new R builds");
        assert_eq!(out.cache_stats.hits, 2, "seed {seed}: S and T hit");
        assert_eq!(out.cache_stats.evictions, 0, "reclaimed, not evicted");
        assert_eq!(
            db.access_cache().len(),
            3,
            "seed {seed}: no entry of an old R"
        );
        let bytes = db.access_cache().bytes();
        db.access_cache().clear();
        assert_eq!(run(&db).result, out.result);
        assert_eq!(
            db.access_cache().bytes(),
            bytes,
            "seed {seed}: a cold build's bytes"
        );
    }
    let pinned = db.snapshot();
    rebind(&mut db, 4);
    run(&db);
    assert_eq!(db.access_cache().len(), 4, "the snapshot's R is still held");
    drop(pinned);
    rebind(&mut db, 5);
    run(&db);
    assert_eq!(db.access_cache().len(), 3, "both old R entries are gone");
}

/// An empty relation is a log with no run: its atom is served by the union
/// cursor over nothing, builds nothing, caches nothing and tallies nothing,
/// and the rows and work counters are the ones a trie over no rows gave.
#[test]
fn an_empty_relation_caches_and_tallies_nothing() {
    let Workload { query, mut db, .. } = wcoj_workloads::triangle(256, 0xE86);
    db.insert("S", Relation::empty(Schema::new(&["B", "C"])));
    db.set_cache_budget(64 << 20);
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        for threads in [1usize, 4] {
            let opts = ExecOptions::new(engine).with_threads(threads);
            let on = execute_opts(&query, &db, &opts).expect("cached");
            let off = execute_opts(&query, &db, &opts.with_cache(CacheMode::Off)).expect("off");
            assert!(on.result.is_empty());
            assert_eq!(on.work, off.work, "{engine:?}/t{threads}");
            // the counters the same query read with S a static empty relation
            let work = &on.work;
            assert_eq!((work.probes(), work.kernel_bitmap()), (2, 1));
            assert_eq!((work.intersect_steps(), work.comparisons()), (0, 0));
            assert_eq!(on.cache_stats.misses + on.cache_stats.hits, 2);
        }
    }
    assert_eq!(db.access_cache().len(), 2, "R and T only");
    let sink = Arc::new(TraceSink::new());
    let opts = ExecOptions::new(Engine::GenericJoin).with_trace(Arc::clone(&sink));
    execute_opts(&query, &db, &opts).expect("traced");
    let trace = sink.take().expect("trace deposited");
    let s = &trace.atoms[1];
    assert_eq!((s.relation.as_str(), s.kind.as_str()), ("S", "delta"));
    assert_eq!(s.outcome, "bypass");
    assert_eq!(trace.backend, "mixed");
}
