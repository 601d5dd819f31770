//! E10.1: durable ingest vs committers — the measurement behind the
//! `EXPERIMENTS.md` E10 writeup.
//!
//! Concurrent writers drive blind batches through the group-commit
//! coordinator; batches/s at 1–8 committers. The solo row is the E9.1 baseline shape (one fsync per batch); the scaling above
//! it is what the shared fsync buys. Full runs gate batches per fsync at 8
//! committers (≥ 2) — a count, but one that depends on how many committers
//! pile up behind an fsync, so it stays out of the test suite; the batches/s
//! rates are printed, not gated.
//!
//! E10's other sections are retired (see `EXPERIMENTS.md`); the service tests
//! make their assertions: checkpointed recovery replays only the tail
//! (`checkpoints_bound_recovery_to_the_tail_through_the_service`), a pinned
//! snapshot and an advancing head never evict each other
//! (`a_pinned_snapshot_and_a_compacting_head_never_evict_each_other`), and a
//! solo writer is a group of one (`registry_mirrors_stats_and_renders_stable_snapshots`).
//!
//! `--smoke` shrinks the batch counts for CI; the full run backs the numbers
//! quoted in `EXPERIMENTS.md`.

use std::time::Instant;
use wcoj_query::Database;
use wcoj_service::{MetricValue, QueryService, ServiceConfig, WriteBatch};
use wcoj_storage::{DeltaRelation, Schema};
use wcoj_workloads::SplitMix64;

fn edge_db() -> Database {
    let mut db = Database::new();
    let mut delta = DeltaRelation::new(Schema::new(&["a", "b"]));
    delta.set_seal_threshold(usize::MAX);
    db.insert_delta_relation("E", delta);
    db
}

fn wal_dir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wcoj-e10-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// `(wal.group_commits, wal.batches_per_fsync bucket counts)` from the
/// service's registry.
fn group_metrics(service: &QueryService) -> (u64, Vec<u64>) {
    let snap = service.registry().snapshot();
    let groups = snap.counter_value("wal.group_commits").unwrap();
    match snap.get("wal.batches_per_fsync") {
        Some(MetricValue::Histogram { counts, .. }) => (groups, counts.clone()),
        other => panic!("wal.batches_per_fsync missing or wrong kind: {other:?}"),
    }
}

/// `threads` committers push `per_thread` blind batches (`ops` inserts each)
/// through one durable service; returns (batches/s, groups, histogram).
fn ingest_rate(tag: &str, threads: u64, per_thread: u64, ops: u64) -> (f64, u64, Vec<u64>) {
    let path = wal_dir(tag);
    let (service, _) = QueryService::open(&path, edge_db(), ServiceConfig::default()).unwrap();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let service = &service;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xE10 ^ thread);
                for _ in 0..per_thread {
                    let mut batch = WriteBatch::new();
                    for _ in 0..ops {
                        batch =
                            batch.insert("E", vec![rng.next_u64() % 4096, rng.next_u64() % 4096]);
                    }
                    service.apply(&batch).unwrap();
                }
            });
        }
    });
    let secs = t.elapsed().as_secs_f64();
    let committed = service
        .registry()
        .snapshot()
        .counter_value("wal.batches_committed");
    assert_eq!(committed, Some(threads * per_thread));
    let (groups, hist) = group_metrics(&service);
    assert_eq!(hist.iter().sum::<u64>(), groups);
    drop(service);
    std::fs::remove_dir_all(&path).ok();
    ((threads * per_thread) as f64 / secs, groups, hist)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trailing = if smoke { " (smoke)" } else { "" };
    println!("E10: group commit{trailing}\n");
    println!("E10.1 durable ingest (8-op blind batches, batches/s):");
    let per_thread = if smoke { 50 } else { 400 };
    let mut solo_rate = 0.0;
    let mut rate_at_8 = 0.0;
    let mut amortization_at_8 = 0.0;
    for threads in [1u64, 2, 4, 8] {
        let (rate, groups, hist) =
            ingest_rate(&format!("ingest-t{threads}"), threads, per_thread, 8);
        let batches = threads * per_thread;
        println!(
            "  {threads} committer(s): {rate:>9.0} batches/s ({groups:>4} fsyncs for {batches:>4} batches, {:.2} batches/fsync, histogram {hist:?})",
            batches as f64 / groups as f64
        );
        if threads == 1 {
            solo_rate = rate;
        }
        if threads == 8 {
            rate_at_8 = rate;
            amortization_at_8 = batches as f64 / groups as f64;
        }
    }
    println!(
        "  => 8-committer group commit: x{:.2} over the solo one-fsync-per-batch baseline ({:.0} vs {:.0} batches/s), {:.1} batches amortized per fsync",
        rate_at_8 / solo_rate,
        rate_at_8,
        solo_rate,
        amortization_at_8,
    );
    println!(
        "     (vs the E9.1 PR 8 baseline of ~4.5k batches/s: x{:.1}; the wall-clock \
         ceiling on this container is (c+f)/(c+f/8) with fsync f ~ 115us and serial \
         per-batch CPU c ~ 22us — see EXPERIMENTS.md E10 for the honest accounting)",
        rate_at_8 / 4500.0
    );
    if !smoke {
        // what group commit guarantees is a count — batches sharing one
        // fsync; the two rates above are fsync-bound wall clock, printed only
        assert!(
            amortization_at_8 >= 2.0,
            "acceptance: 8 committers must amortize >= 2 batches per fsync \
             (got {amortization_at_8:.2})",
        );
    }

    println!("\nE10 PASSED");
}
