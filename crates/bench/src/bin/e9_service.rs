//! E9: the crash-safe concurrent service — the measurements behind the
//! `EXPERIMENTS.md` E9 writeup.
//!
//! Four sections:
//!
//! 1. **Recovery time vs log length** — WAL logs of growing batch counts are
//!    written through the service (one fsync per batch), then recovered with
//!    [`QueryService::open`]; replay throughput (batches/s, ops/s) is
//!    reported alongside the ingest cost of durability.
//! 2. **Snapshot-read throughput vs writer rate** — reader threads hammer
//!    `service.query` while a writer commits batches at increasing rates;
//!    every read must succeed against a consistent snapshot, and the
//!    reader-throughput degradation is reported rather than hidden.
//! 3. **Overload shedding curve** — a burst of concurrent queries against a
//!    2-slot service with growing queue bounds: admitted vs shed counts per
//!    bound, all rejections typed [`ServiceError::Overloaded`].
//! 4. **Honest negatives** — the O(live) copy-on-write an un-pinned writer
//!    never pays: steady-state insert latency vs the first insert after a
//!    snapshot pins the live-set, on growing relation sizes. Plus a note on
//!    how snapshot and live reads share the access cache (see `EXPERIMENTS.md`).
//!
//! `--smoke` shrinks sizes/iterations for CI (correctness asserts stay on);
//! the full run backs the numbers quoted in `EXPERIMENTS.md`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use wcoj_query::query::examples;
use wcoj_query::Database;
use wcoj_service::{QueryService, ServiceConfig, ServiceError, WriteBatch};
use wcoj_storage::{DeltaRelation, Schema};
use wcoj_workloads::{random_pairs, SplitMix64};

fn edge_db() -> Database {
    let mut db = Database::new();
    let mut delta = DeltaRelation::new(Schema::new(&["a", "b"]));
    delta.set_seal_threshold(usize::MAX);
    db.insert_delta_relation("E", delta);
    db
}

fn triangle_service(n: usize, config: ServiceConfig) -> QueryService {
    let mut db = Database::new();
    for (name, cols, salt) in [
        ("R", ["a", "b"], 1u64),
        ("S", ["b", "c"], 2),
        ("T", ["a", "c"], 3),
    ] {
        let mut delta = DeltaRelation::new(Schema::new(&cols));
        delta.set_seal_threshold(usize::MAX);
        for (a, b) in random_pairs(n, (n as u64 / 8).max(16), 0xE9 ^ salt) {
            delta.insert(vec![a, b]).unwrap();
        }
        delta.seal();
        db.insert_delta_relation(name, delta);
    }
    QueryService::in_memory(db, config)
}

fn wal_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wcoj-e9-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trailing = if smoke { " (smoke)" } else { "" };
    println!("E9: crash-safe concurrent service{trailing}\n");

    // ---- 1. recovery time vs log length ---------------------------------
    println!("recovery time vs log length (32 ops/batch, fsync per batch):");
    let lengths: &[usize] = if smoke {
        &[25, 100]
    } else {
        &[100, 1000, 4000]
    };
    for &batches in lengths {
        let path = wal_path(&format!("rec-{batches}"));
        let (service, _) = QueryService::open(&path, edge_db(), ServiceConfig::default()).unwrap();
        let mut rng = SplitMix64::new(0x1091);
        let t = Instant::now();
        for i in 0..batches {
            let mut batch = WriteBatch::new();
            for _ in 0..32 {
                batch = batch.insert("E", vec![rng.next_u64() % 4096, rng.next_u64() % 4096]);
            }
            if i % 8 == 7 {
                batch = batch.seal("E");
            }
            service.apply(&batch).unwrap();
        }
        let ingest_s = t.elapsed().as_secs_f64();
        let rows = service.with_db(|db| db.delta("E").unwrap().len());
        drop(service); // crash
        let t = Instant::now();
        let (recovered, replayed) =
            QueryService::open(&path, edge_db(), ServiceConfig::default()).unwrap();
        let recover_s = t.elapsed().as_secs_f64();
        assert_eq!(replayed.committed as usize, batches);
        recovered.with_db(|db| assert_eq!(db.delta("E").unwrap().len(), rows));
        println!(
            "  {batches:>5} batches: ingest {:>8.1} batches/s, recovery {:>8.3} ms ({:>9.0} ops/s replay)",
            batches as f64 / ingest_s,
            recover_s * 1e3,
            (batches * 32) as f64 / recover_s
        );
        std::fs::remove_dir_all(&path).ok();
    }

    // ---- 2. snapshot-read throughput vs writer rate ----------------------
    println!("\nsnapshot-read throughput vs writer rate (2 readers, triangle query):");
    let n = if smoke { 800 } else { 20_000 };
    let window = Duration::from_millis(if smoke { 60 } else { 400 });
    let q = examples::triangle();
    for (label, writer_delay) in [
        ("no writer        ", None),
        ("throttled writer ", Some(Duration::from_micros(500))),
        ("saturating writer", Some(Duration::from_micros(0))),
    ] {
        let service = triangle_service(n, ServiceConfig::default().with_admission(4, 64));
        let stop = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        let writes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            if let Some(delay) = writer_delay {
                let (service, stop, writes) = (&service, &stop, &writes);
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0x1092);
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let mut batch = WriteBatch::new();
                        for _ in 0..8 {
                            batch =
                                batch.insert("R", vec![rng.next_u64() % 256, rng.next_u64() % 256]);
                        }
                        if i % 16 == 15 {
                            batch = batch.seal("R");
                        }
                        service.apply(&batch).unwrap();
                        writes.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let out = service.query(&q).unwrap();
                        // a snapshot read is internally consistent: the
                        // output is a function of one frozen view
                        assert!(out.result.arity() == 3);
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            std::thread::sleep(window);
            stop.store(true, Ordering::Relaxed);
        });
        let secs = window.as_secs_f64();
        println!(
            "  {label}: {:>7.0} reads/s alongside {:>6.0} write-batches/s",
            reads.load(Ordering::Relaxed) as f64 / secs,
            writes.load(Ordering::Relaxed) as f64 / secs,
        );
    }

    // ---- 3. overload shedding curve --------------------------------------
    println!("\noverload shedding (2 slots, 24-thread burst of one query each):");
    let n = if smoke { 2_000 } else { 30_000 };
    for max_queued in [0usize, 4, 16] {
        let service = triangle_service(n, ServiceConfig::default().with_admission(2, max_queued));
        let shed = AtomicU64::new(0);
        let ok = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..24 {
                scope.spawn(|| match service.query(&q) {
                    Ok(_) => {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ServiceError::Overloaded { .. }) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected error under load: {e}"),
                });
            }
        });
        let (ok, shed) = (ok.load(Ordering::Relaxed), shed.load(Ordering::Relaxed));
        assert_eq!(ok + shed, 24);
        let counted = service.registry().snapshot().counter_value("service.shed");
        assert_eq!(counted, Some(shed));
        println!("  queue {max_queued:>2}: {ok:>2} served, {shed:>2} shed (typed Overloaded)");
    }

    // ---- 4. honest negatives ---------------------------------------------
    println!("\nhonest negatives:");
    let sizes: &[usize] = if smoke {
        &[10_000]
    } else {
        &[100_000, 400_000]
    };
    for &rows in sizes {
        let mut delta = DeltaRelation::new(Schema::new(&["a", "b"]));
        delta.set_seal_threshold(usize::MAX);
        for (a, b) in random_pairs(rows, rows as u64, 0x1094) {
            delta.insert(vec![a, b]).unwrap();
        }
        delta.seal();
        // steady state: no snapshot holds the live-set, inserts are O(1)
        let t = Instant::now();
        delta.insert(vec![u64::MAX, 1]).unwrap();
        let steady = t.elapsed();
        // pin a snapshot: the next effective insert clones the live-set
        let pinned = delta.clone();
        let t = Instant::now();
        delta.insert(vec![u64::MAX, 2]).unwrap();
        let cow = t.elapsed();
        drop(pinned);
        println!(
            "  {rows:>7}-row live-set: steady insert {:>7.1}µs vs first-after-snapshot {:>9.1}µs (x{:.0} — one O(live) copy per pinned snapshot generation)",
            steady.as_secs_f64() * 1e6,
            cow.as_secs_f64() * 1e6,
            (cow.as_secs_f64() / steady.as_secs_f64().max(1e-9)).max(1.0)
        );
    }
    println!("  snapshot and live reads share one access cache keyed by sealed run: they reuse each other's entries for the runs they have in common and never contend for a key (E10.3: 0 misses + 0 re-merges)");

    println!("\nE9 PASSED");
}
