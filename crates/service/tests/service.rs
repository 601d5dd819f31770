//! End-to-end robustness tests for the service layer: crash/recovery
//! differentials, snapshot isolation under a concurrent writer, typed
//! overload/deadline errors, optimistic write conflicts, and injected
//! durability faults.

use std::time::Duration;
use wcoj_core::{execute_cancellable, CancelToken, ExecOptions};
use wcoj_query::database::DatabaseError;
use wcoj_query::{query::examples, Database};
use wcoj_service::{replay_into, QueryService, ServiceConfig, ServiceError, WriteBatch};
use wcoj_storage::wal::crc32;
use wcoj_storage::{
    write_checkpoint, AttrType, DeltaRelation, FaultPlan, Relation, Schema, StorageError, WalOp,
};
use wcoj_workloads::SplitMix64;

/// The suite's base config. The "every service query traced" CI leg runs this
/// binary with `WCOJ_SLOW_QUERY_MS=0`; the variable is read here, at the test
/// binary's edge — `ServiceConfig::default()` is a constant.
fn config() -> ServiceConfig {
    ServiceConfig {
        slow_query: std::env::var("WCOJ_SLOW_QUERY_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .map(Duration::from_millis),
        ..ServiceConfig::default()
    }
}

/// A registry counter of `service`, by name.
fn counter(service: &QueryService, name: &str) -> u64 {
    service.registry().snapshot().counter_value(name).unwrap()
}

/// A registry gauge of `service`, by name.
fn gauge(service: &QueryService, name: &str) -> u64 {
    service.registry().snapshot().gauge_value(name).unwrap()
}

/// A fresh WAL **directory** (segments + checkpoints live inside).
fn temp_wal(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wcoj-service-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// A catalog with one delta relation `E(a, b)` that only seals explicitly.
fn edge_db() -> Database {
    let mut db = Database::new();
    let mut delta = DeltaRelation::new(Schema::new(&["a", "b"]));
    delta.set_seal_threshold(usize::MAX);
    db.insert_delta_relation("E", delta);
    db
}

/// An in-memory and a durable service over the same catalog, in that order,
/// for the write-path tests that must hold on both; the durable one logs to
/// the fresh directory at `path`.
fn in_memory_and_durable(
    path: &std::path::Path,
    db: impl Fn() -> Database,
    config: ServiceConfig,
) -> [QueryService; 2] {
    let (durable, _) = QueryService::open(path, db(), config.clone()).unwrap();
    [QueryService::in_memory(db(), config), durable]
}

/// A triangle-shaped catalog (`R`, `S`, `T` delta relations) seeded with
/// `n` deterministic edges each, sealed.
fn triangle_db(n: u64) -> Database {
    let mut db = Database::new();
    for (name, cols) in [("R", ["a", "b"]), ("S", ["b", "c"]), ("T", ["a", "c"])] {
        let mut delta = DeltaRelation::new(Schema::new(&cols));
        delta.set_seal_threshold(usize::MAX);
        db.insert_delta_relation(name, delta);
    }
    let mut rng = SplitMix64::new(7);
    for i in 0..n {
        for name in ["R", "S", "T"] {
            let a = rng.next_u64() % 40;
            let b = (rng.next_u64() % 40).wrapping_add(i % 3);
            db.insert_delta(name, vec![a, b % 40]).unwrap();
        }
    }
    for name in ["R", "S", "T"] {
        db.seal(name).unwrap();
    }
    db
}

#[test]
fn crash_and_recover_is_bit_identical_to_the_committed_prefix() {
    let path = temp_wal("recover");
    let (service, replayed) = QueryService::open(&path, edge_db(), config()).unwrap();
    assert_eq!(replayed.committed, 0);
    assert!(replayed.tail.is_empty());
    assert_eq!(gauge(&service, "recovery.torn_tail"), 0, "a clean open");
    assert_eq!(gauge(&service, "wal.poisoned"), 0);

    let mut rng = SplitMix64::new(11);
    for batch_no in 0..12 {
        let mut batch = WriteBatch::new();
        for _ in 0..24 {
            let (a, b) = (rng.next_u64() % 50, rng.next_u64() % 50);
            batch = if rng.next_u64().is_multiple_of(5) {
                batch.delete("E", vec![a, b])
            } else {
                batch.insert("E", vec![a, b])
            };
        }
        if batch_no % 3 == 2 || batch_no == 7 {
            batch = batch.seal("E");
        }
        assert_eq!(service.apply(&batch).unwrap(), batch_no + 1);
    }
    let expected_rows: Relation = service.with_db(|db| db.delta("E").unwrap().snapshot());
    let expected_run = service.with_db(|db| db.delta("E").unwrap().fold().map(|r| r.len()));
    assert_eq!(counter(&service, "wal.batches_committed"), 12);
    drop(service); // simulated crash after the last commit

    // splice an uncommitted tail onto the live segment — a crash mid-batch
    // (the default 64 MiB rotation threshold means one segment holds it all)
    let payload = WalOp::Insert {
        relation: "E".into(),
        tuple: vec![999, 999],
    }
    .encode()
    .unwrap();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend(crc32(&payload).to_le_bytes());
    frame.extend(payload); // and no commit marker behind it
    let mut segment = std::fs::OpenOptions::new()
        .append(true)
        .open(path.join("wal.000001"))
        .unwrap();
    std::io::Write::write_all(&mut segment, &frame).unwrap();
    drop(segment);

    let (recovered, replayed) = QueryService::open(&path, edge_db(), config()).unwrap();
    assert_eq!(replayed.committed, 12, "committed batches survive");
    assert_eq!(replayed.tail.len(), 12, "no checkpoint: all replayed");
    assert!(replayed.torn(), "the uncommitted tail was dropped");
    assert_eq!(gauge(&recovered, "recovery.torn_tail"), 1);
    assert_eq!(counter(&recovered, "recovery.batches"), 12);
    recovered.with_db(|db| {
        let delta = db.delta("E").unwrap();
        assert_eq!(delta.snapshot(), expected_rows, "rows are bit-identical");
        assert_eq!(
            delta.fold().map(|r| r.len()),
            expected_run,
            "the run matches"
        );
        assert!(!delta.is_live(&[999, 999]), "torn tail was not applied");
    });
    // the writer resumes with a contiguous sequence
    let seq = recovered
        .apply(&WriteBatch::new().insert("E", vec![1, 1]))
        .unwrap();
    assert_eq!(seq, 13);
    std::fs::remove_dir_all(&path).ok();
}

#[test]
fn snapshot_queries_are_bit_identical_under_a_concurrent_writer() {
    let service = QueryService::in_memory(triangle_db(600), config());
    let q = examples::triangle();
    let opts = ExecOptions::default();
    let token = CancelToken::new();

    // pin a snapshot, then let a writer churn the live catalog while readers
    // re-execute against the pinned view
    let snap0 = service.snapshot();
    let baseline = execute_cancellable(&q, &snap0, &opts, None, &token).unwrap();
    assert!(
        !baseline.result.is_empty(),
        "fixture should yield triangles"
    );

    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut rng = SplitMix64::new(23);
            for i in 0..40 {
                let mut batch = WriteBatch::new();
                for _ in 0..16 {
                    batch = batch.insert("R", vec![rng.next_u64() % 40, rng.next_u64() % 40]);
                }
                if i % 4 == 3 || i == 20 {
                    batch = batch.seal("R");
                }
                service.apply(&batch).unwrap();
            }
        });
        for _ in 0..12 {
            // the pinned snapshot never moves: rows AND work counters match
            let again = execute_cancellable(&q, &snap0, &opts, None, &token).unwrap();
            assert_eq!(again.result, baseline.result, "pinned rows drifted");
            assert_eq!(again.work, baseline.work, "pinned counters drifted");
            // snapshots taken mid-write are internally stable too
            let live = service.snapshot();
            let a = execute_cancellable(&q, &live, &opts, None, &token).unwrap();
            let b = execute_cancellable(&q, &live, &opts, None, &token).unwrap();
            assert_eq!(a.result, b.result, "mid-write snapshot rows unstable");
            assert_eq!(a.work, b.work, "mid-write snapshot counters unstable");
        }
        writer.join().unwrap();
    });

    // after the writer finishes the pinned view still reproduces the baseline
    let last = execute_cancellable(&q, &snap0, &opts, None, &token).unwrap();
    assert_eq!(last.result, baseline.result);
    assert_eq!(last.work, baseline.work);
    assert_eq!(counter(&service, "wal.batches_committed"), 40);
}

#[test]
fn overload_sheds_and_deadlines_expire_with_typed_errors() {
    let service = QueryService::in_memory(triangle_db(2_500), config().with_admission(1, 0));
    let q = examples::triangle();

    // an already-expired deadline cancels at the first check point
    match service.query_with(&q, &CancelToken::expiring_in(Duration::ZERO)) {
        Err(ServiceError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // an explicitly cancelled token is reported as Canceled, not a deadline
    let token = CancelToken::new();
    token.cancel();
    match service.query_with(&q, &token) {
        Err(ServiceError::Canceled) => {}
        other => panic!("expected Canceled, got {other:?}"),
    }

    // saturate the single slot with a long query, then shed a second arrival
    let mut shed = 0;
    std::thread::scope(|scope| {
        let long = scope.spawn(|| service.query(&q));
        // wait until the long query actually holds the slot — or has already
        // released it: an optimized build can finish it between two polls
        while service.load().0 == 0 && !long.is_finished() {
            std::thread::yield_now();
        }
        match service.query(&q) {
            Err(ServiceError::Overloaded { running, queued }) => {
                assert_eq!((running, queued), (1, 0));
                shed += 1;
            }
            Ok(_) => {
                // the long query finished between our load() check and the
                // admit — rare, but not a failure of the shed logic
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        long.join().unwrap().unwrap();
    });

    assert_eq!(counter(&service, "service.deadline_exceeded"), 1);
    assert_eq!(counter(&service, "service.canceled"), 1);
    // the registry counts one shed per typed rejection a caller saw
    assert_eq!(counter(&service, "service.shed"), shed);
}

#[test]
fn conflicting_batches_are_rejected_and_retry_rebases() {
    let path = temp_wal("conflict");
    for service in in_memory_and_durable(&path, edge_db, config()) {
        let snap = service.snapshot();
        let first = WriteBatch::against(&snap).insert("E", vec![1, 2]).seal("E");
        service.apply(&first).unwrap();

        // a second batch against the same (now stale) snapshot must conflict
        let stale = WriteBatch::against(&snap).insert("E", vec![3, 4]);
        match service.apply(&stale) {
            Err(ServiceError::Conflict { relation, .. }) => assert_eq!(relation, "E"),
            other => panic!("expected Conflict, got {other:?}"),
        }
        assert_eq!(counter(&service, "wal.conflicts"), 1);
        service.with_db(|db| assert!(!db.delta("E").unwrap().is_live(&[3, 4])));

        // rebasing on a fresh snapshot succeeds without retries...
        service
            .apply_with_retry(|snap| Ok(WriteBatch::against(snap).insert("E", vec![3, 4])))
            .unwrap();
        service.with_db(|db| assert!(db.delta("E").unwrap().is_live(&[3, 4])));

        // ...and a mid-flight overwrite is retried transparently: the closure's
        // first batch is doomed by a sneaky write squeezed in after the snapshot
        let sneaky = std::sync::atomic::AtomicBool::new(true);
        service
            .apply_with_retry(|snap| {
                let batch = WriteBatch::against(snap).insert("E", vec![7, 8]);
                if sneaky.swap(false, std::sync::atomic::Ordering::SeqCst) {
                    service
                        .apply(&WriteBatch::new().insert("E", vec![9, 9]))
                        .unwrap();
                }
                Ok(batch)
            })
            .unwrap();
        assert_eq!(counter(&service, "wal.write_retries"), 1);
        service.with_db(|db| {
            let delta = db.delta("E").unwrap();
            assert!(delta.is_live(&[7, 8]) && delta.is_live(&[9, 9]));
        });

        // unknown relations are typed, not panics
        match service.apply(&WriteBatch::new().insert("missing", vec![1])) {
            Err(ServiceError::UnknownRelation(name)) => assert_eq!(name, "missing"),
            other => panic!("expected UnknownRelation, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&path).ok();
}

/// What [`WriteBatch::against`] isolates, in the doctors-on-call shape: two
/// clients pin one snapshot, and each goes off call after reading there that
/// the other is on call — each reads one relation and writes the other.
/// `against` records every epoch the snapshot pinned, but `apply` validates
/// only the relations a batch writes, so both batches commit and nobody is
/// left on call: snapshot isolation, write skew included, on the in-memory
/// and the durable write path alike.
#[test]
fn batches_against_one_snapshot_commit_when_each_writes_what_the_other_read() {
    let on_call = || {
        let mut db = Database::new();
        for doctor in ["alice", "bob"] {
            let mut shifts = DeltaRelation::new(Schema::new(&["shift"]));
            shifts.insert(vec![1]).unwrap();
            db.insert_delta_relation(doctor, shifts);
        }
        db
    };
    let path = temp_wal("write-skew");
    for service in in_memory_and_durable(&path, on_call, config()) {
        let snap = service.snapshot();
        let batches: Vec<WriteBatch> = [("alice", "bob"), ("bob", "alice")]
            .into_iter()
            .map(|(me, other)| {
                assert!(snap.delta(other).unwrap().is_live(&[1]), "{other} on call");
                WriteBatch::against(&snap).delete(me, vec![1])
            })
            .collect();
        for batch in &batches {
            service
                .apply(batch)
                .expect("a relation only read is not validated");
        }
        assert_eq!(counter(&service, "wal.conflicts"), 0);
        service.with_db(|db| {
            for doctor in ["alice", "bob"] {
                assert!(!db.delta(doctor).unwrap().is_live(&[1]), "{doctor}");
            }
        });
    }
    std::fs::remove_dir_all(&path).ok();
}

#[test]
fn injected_wal_faults_never_let_memory_run_ahead_of_the_log() {
    // fsync failure: the batch is rejected, memory is untouched, the writer
    // is poisoned until recovery
    let path = temp_wal("fsync-fault");
    let faulty = config().with_fault(FaultPlan::parse("fsync_fail:1").unwrap());
    let (service, _) = QueryService::open(&path, edge_db(), faulty).unwrap();
    assert_eq!(gauge(&service, "wal.poisoned"), 0);
    let batch = WriteBatch::new()
        .insert("E", vec![1, 2])
        .insert("E", vec![3, 4]);
    match service.apply(&batch) {
        Err(ServiceError::Wal(wcoj_storage::StorageError::FaultInjected(_))) => {}
        other => panic!("expected an injected fault, got {other:?}"),
    }
    assert_eq!(
        gauge(&service, "wal.poisoned"),
        1,
        "the writer poisoned itself"
    );
    service.with_db(|db| assert_eq!(db.delta("E").unwrap().len(), 0, "memory unchanged"));
    // the poisoned writer fails fast until the log is recovered
    assert!(matches!(
        service.apply(&WriteBatch::new().insert("E", vec![5, 6])),
        Err(ServiceError::Wal(_))
    ));
    drop(service);

    // recovery truncates whatever the failed-fsync batch left behind (its
    // durability was never acknowledged, so either outcome is legal — what
    // matters is that reopen yields a consistent catalog and a live writer)
    let (service, replayed) = QueryService::open(&path, edge_db(), config()).unwrap();
    let recovered = replayed.committed;
    assert!(recovered <= 1);
    service.with_db(|db| {
        let expect = if recovered == 1 { 2 } else { 0 };
        assert_eq!(db.delta("E").unwrap().len(), expect);
    });
    assert_eq!(service.apply(&batch).unwrap(), recovered + 1);
    std::fs::remove_dir_all(&path).ok();

    // torn write: the record is cut mid-frame, the batch rejected, and
    // recovery truncates back to the last durable commit
    let path = temp_wal("torn-fault");
    let faulty = config().with_fault(FaultPlan::parse("torn:30").unwrap());
    let (service, _) = QueryService::open(&path, edge_db(), faulty).unwrap();
    let big = WriteBatch::new()
        .insert("E", vec![1, 2])
        .insert("E", vec![3, 4])
        .insert("E", vec![5, 6]);
    assert!(matches!(
        service.apply(&big),
        Err(ServiceError::Wal(
            wcoj_storage::StorageError::FaultInjected(_)
        ))
    ));
    service.with_db(|db| assert_eq!(db.delta("E").unwrap().len(), 0));
    drop(service);
    let (service, replayed) = QueryService::open(&path, edge_db(), config()).unwrap();
    assert_eq!(replayed.committed, 0, "no batch ever committed");
    assert!(replayed.torn());
    assert_eq!(gauge(&service, "recovery.torn_tail"), 1);
    assert_eq!(
        gauge(&service, "wal.poisoned"),
        0,
        "a reopened writer is live"
    );
    assert_eq!(service.apply(&big).unwrap(), 1);
    service.with_db(|db| assert_eq!(db.delta("E").unwrap().len(), 3));
    std::fs::remove_dir_all(&path).ok();
}

#[test]
fn tuples_of_the_wrong_arity_are_refused_before_the_log() {
    // a 3-value tuple into an arity-2 relation used to be logged and fsynced,
    // then fail at apply — and fail every later replay; a 70 000-value one
    // would also overflow the record's u16 arity field
    let path = temp_wal("wrong-arity");
    for service in in_memory_and_durable(&path, edge_db, config()) {
        service
            .apply(&WriteBatch::new().insert("E", vec![1, 2]))
            .unwrap();
        let (committed, bytes) = (service.committed(), gauge(&service, "wal.bytes"));
        for found in [3, 70_000] {
            let tuple = vec![7; found];
            for batch in [
                WriteBatch::new()
                    .insert("E", vec![3, 4])
                    .insert("E", tuple.clone()),
                WriteBatch::new().delete("E", tuple.clone()),
            ] {
                match service.apply(&batch) {
                    Err(ServiceError::Database(DatabaseError::Storage(
                        StorageError::ArityMismatch {
                            expected: 2,
                            found: f,
                        },
                    ))) if f == found => {}
                    other => panic!("arity {found}: {other:?}"),
                }
                assert_eq!(
                    (service.committed(), gauge(&service, "wal.bytes")),
                    (committed, bytes)
                );
                assert_eq!(gauge(&service, "wal.poisoned"), 0);
                service
                    .with_db(|db| assert_eq!(db.delta("E").unwrap().len(), 1, "nothing applied"));
            }
        }
    }
    // nothing was logged that a replay would fail on
    let (service, replayed) = QueryService::open(&path, edge_db(), config()).unwrap();
    assert_eq!((replayed.committed, replayed.torn()), (1, false));
    service.with_db(|db| assert!(db.delta("E").unwrap().is_live(&[1, 2])));
    std::fs::remove_dir_all(&path).ok();
}

#[test]
fn a_catalog_the_log_cannot_name_is_refused_at_open() {
    let path = temp_wal("long-name");
    let mut db = edge_db();
    db.insert_delta_relation("n".repeat(70_000), DeltaRelation::new(Schema::new(&["a"])));
    match QueryService::open(&path, db, config()) {
        Err(ServiceError::Wal(StorageError::TooLongForLog {
            what: "relation name",
            len: 70_000,
        })) => {}
        other => panic!("{:?}", other.map(|(_, report)| report)),
    }
    assert!(!path.exists(), "the directory is not touched");
}

/// A checkpoint whose relation state is in the signed layout the codec wrote
/// before buffered ops became toggles is refused, not misread: `open` fails
/// with `WalCorrupt` every time, and leaves the directory as it found it,
/// the checkpoint file included.
#[test]
fn a_checkpoint_in_the_signed_state_layout_fails_open_and_stays_on_disk() {
    let path = temp_wal("signed-layout");
    let (service, _) = QueryService::open(&path, edge_db(), config()).unwrap();
    service
        .apply(&WriteBatch::new().insert("E", vec![1, 2]))
        .unwrap();
    drop(service);
    // threshold, one run of one row (1, 2) with its sign byte, no buffer
    let mut signed = (usize::MAX as u64).to_le_bytes().to_vec();
    signed.extend(1u32.to_le_bytes());
    signed.extend(1u64.to_le_bytes());
    signed.extend([1u64, 2].iter().flat_map(|v| v.to_le_bytes()));
    signed.push(1);
    signed.extend(0u64.to_le_bytes());
    write_checkpoint(&path, 1, &[("E".into(), signed)], &FaultPlan::default()).unwrap();
    // the segment the checkpoint covers is gone, as after a checkpoint's GC,
    // so a writer opened here would have to start a fresh segment
    std::fs::remove_file(path.join("wal.000001")).unwrap();
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&path)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing();
    assert_eq!(before, ["ckpt.000001"]);
    for _ in 0..2 {
        match QueryService::open(&path, edge_db(), config()) {
            Err(ServiceError::Wal(StorageError::WalCorrupt { reason, .. })) => {
                assert!(reason.contains("unknown format tag"), "{reason}")
            }
            other => panic!("{:?}", other.map(|(_, report)| report)),
        }
        assert_eq!(listing(), before);
    }
    std::fs::remove_dir_all(&path).ok();
}

#[test]
fn replay_into_matches_live_application_over_a_random_stream() {
    // the oracle differential at the heart of the crash harness, in-process:
    // apply a seeded stream live, then replay the same ops into a fresh
    // catalog and compare everything observable
    let mut live = edge_db();
    let mut rng = SplitMix64::new(99);
    let mut batches = Vec::new();
    for _ in 0..20 {
        let mut ops = Vec::new();
        for _ in 0..30 {
            let (a, b) = (rng.next_u64() % 64, rng.next_u64() % 64);
            let roll = rng.next_u64() % 10;
            ops.push(if roll < 6 {
                WalOp::Insert {
                    relation: "E".into(),
                    tuple: vec![a, b],
                }
            } else if roll < 8 {
                WalOp::Delete {
                    relation: "E".into(),
                    tuple: vec![a, b],
                }
            } else {
                WalOp::Seal {
                    relation: "E".into(),
                }
            });
        }
        batches.push(ops);
    }
    replay_into(&mut live, &batches).unwrap();

    let mut recovered = edge_db();
    replay_into(&mut recovered, &batches).unwrap();
    let a = live.delta("E").unwrap();
    let b = recovered.delta("E").unwrap();
    assert_eq!(a.snapshot(), b.snapshot());
    assert_eq!(a.fold().map(|r| r.len()), b.fold().map(|r| r.len()));
    assert_eq!(a.buffered(), b.buffered());
}

/// Property: an acknowledged batch never vanishes. Concurrent committers
/// flow through the group-commit coordinator (coalescing window on, so real
/// multi-batch groups form); after a crash, every `Ok(seq)` the service
/// handed out is still durable — `committed >= seq` and the tuple is live.
#[test]
fn group_commit_acked_batches_never_vanish_across_crash() {
    let path = temp_wal("group-acked");
    let windowed = config().with_group_commit_window(Duration::from_millis(1));
    let (service, _) = QueryService::open(&path, edge_db(), windowed).unwrap();

    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 25;
    let mut acked: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..PER_THREAD {
                        let tuple = t * 1_000 + i;
                        let batch = WriteBatch::new().insert("E", vec![tuple, tuple]);
                        let seq = service.apply(&batch).unwrap();
                        mine.push((seq, tuple));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    // sequences are unique and contiguous: every batch got its own marker
    acked.sort_unstable();
    let seqs: Vec<u64> = acked.iter().map(|&(s, _)| s).collect();
    assert_eq!(seqs, (1..=THREADS * PER_THREAD).collect::<Vec<_>>());

    let snap = service.registry().snapshot();
    let group_commits = snap.counter_value("wal.group_commits").unwrap();
    assert_eq!(
        snap.counter_value("wal.batches_committed"),
        Some(THREADS * PER_THREAD)
    );
    assert!(
        group_commits < THREADS * PER_THREAD,
        "one fsync per group, not per batch: the coalescing window formed at \
         least one multi-batch group ({group_commits} groups for {} batches)",
        THREADS * PER_THREAD
    );
    match snap.get("wal.batches_per_fsync") {
        Some(wcoj_service::MetricValue::Histogram { counts, .. }) => assert_eq!(
            counts.iter().sum::<u64>(),
            group_commits,
            "histogram totals the group count"
        ),
        other => panic!("wal.batches_per_fsync missing or wrong kind: {other:?}"),
    }
    assert!(
        snap.gauge_value("wal.bytes").unwrap() > 0,
        "the log-size gauge is maintained"
    );
    drop(service); // crash

    let (recovered, replayed) = QueryService::open(&path, edge_db(), config()).unwrap();
    assert_eq!(replayed.committed, THREADS * PER_THREAD);
    recovered.with_db(|db| {
        let delta = db.delta("E").unwrap();
        for &(seq, tuple) in &acked {
            assert!(replayed.committed >= seq, "acked seq {seq} vanished");
            assert!(
                delta.is_live(&[tuple, tuple]),
                "acked tuple {tuple} vanished"
            );
        }
    });
    std::fs::remove_dir_all(&path).ok();
}

/// Property: an injected fsync failure during a coalesced group fails every
/// member of that group atomically — all callers get `Err`, memory is
/// untouched — and reopening yields exactly the committed prefix the log
/// actually holds.
#[test]
fn failed_group_fsync_fails_every_member_atomically() {
    let path = temp_wal("group-fsync-fault");
    let faulty = config()
        .with_fault(FaultPlan::parse("fsync_fail:1").unwrap())
        .with_group_commit_window(Duration::from_millis(2));
    let (service, _) = QueryService::open(&path, edge_db(), faulty).unwrap();

    const THREADS: u64 = 6;
    let outcomes: Vec<Result<u64, ServiceError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let service = &service;
                scope.spawn(move || service.apply(&WriteBatch::new().insert("E", vec![t, t])))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // the first group's single fsync fails the whole group; later groups hit
    // the poisoned writer — nobody is acknowledged
    for outcome in &outcomes {
        assert!(
            matches!(outcome, Err(ServiceError::Wal(_))),
            "expected a WAL error for every member, got {outcome:?}"
        );
    }
    service.with_db(|db| {
        assert_eq!(
            db.delta("E").unwrap().len(),
            0,
            "no member's effects reached memory"
        );
    });
    drop(service);

    // the log may run ahead of acknowledgement (bytes written before the
    // failed sync can survive the crash) — memory never runs ahead of the
    // log: whatever prefix replays is exactly what the catalog holds
    let (recovered, replayed) = QueryService::open(&path, edge_db(), config()).unwrap();
    assert!(replayed.committed <= THREADS);
    recovered.with_db(|db| {
        assert_eq!(
            db.delta("E").unwrap().len(),
            replayed.committed as usize,
            "recovered state is exactly the replayed prefix"
        );
    });
    std::fs::remove_dir_all(&path).ok();
}

/// Property: a torn checkpoint write is discarded on recovery, falling back
/// to the previous durable checkpoint plus a longer replay tail — never a
/// half-loaded catalog.
#[test]
fn torn_checkpoint_falls_back_to_previous_checkpoint_and_longer_tail() {
    let path = temp_wal("ckpt-torn");
    let tiny = config().with_segment_bytes(1024);

    // phase 1: healthy service rotates segments and checkpoints
    let (service, _) = QueryService::open(&path, edge_db(), tiny.clone()).unwrap();
    let mut rng = SplitMix64::new(0x9);
    let mut apply_batches = |service: &QueryService, n: u64| {
        for _ in 0..n {
            let mut batch = WriteBatch::new();
            for _ in 0..8 {
                batch = batch.insert("E", vec![rng.next_u64() % 64, rng.next_u64() % 64]);
            }
            service.apply(&batch).unwrap();
        }
    };
    apply_batches(&service, 30);
    assert!(
        counter(&service, "wal.checkpoints") >= 1,
        "tiny segments force checkpoints"
    );
    assert!(
        counter(&service, "wal.segments_deleted") >= 1,
        "GC reclaimed covered segments"
    );
    drop(service);
    let good_ckpt = {
        let (_, replayed) = QueryService::open(&path, edge_db(), tiny.clone()).unwrap();
        assert!(replayed.checkpoint_seq > 0);
        replayed.checkpoint_seq
    };

    // phase 2: every checkpoint write tears mid-file; applies keep working
    // (checkpointing is best-effort), no checkpoint lands
    let torn_config = tiny
        .clone()
        .with_fault(FaultPlan::parse("ckpt_torn:8").unwrap());
    let (service, _) = QueryService::open(&path, edge_db(), torn_config).unwrap();
    apply_batches(&service, 30);
    assert_eq!(
        counter(&service, "wal.checkpoints"),
        0,
        "torn checkpoints never count"
    );
    assert_eq!(
        counter(&service, "wal.batches_committed"),
        30,
        "writes unaffected"
    );
    drop(service);

    // phase 3: recovery discards the torn checkpoint file and falls back
    let (recovered, replayed) = QueryService::open(&path, edge_db(), tiny).unwrap();
    assert_eq!(replayed.committed, 60, "every committed batch survives");
    assert!(
        replayed.checkpoint_seq <= good_ckpt,
        "fell back to a checkpoint no newer than the last durable one"
    );
    assert_eq!(
        replayed.tail.len() as u64,
        replayed.committed - replayed.checkpoint_seq,
        "the whole gap is replayed from segments"
    );
    assert!(
        replayed.tail.len() as u64 >= 30,
        "the tail spans at least everything after the torn-checkpoint phase"
    );
    // differential: the recovered catalog equals a clean replay of the stream
    let mut rng = SplitMix64::new(0x9);
    let mut oracle = edge_db();
    let stream: Vec<Vec<WalOp>> = (0..60)
        .map(|_| {
            (0..8)
                .map(|_| WalOp::Insert {
                    relation: "E".into(),
                    tuple: vec![rng.next_u64() % 64, rng.next_u64() % 64],
                })
                .collect()
        })
        .collect();
    replay_into(&mut oracle, &stream).unwrap();
    recovered.with_db(|db| {
        let got = db.delta("E").unwrap();
        let want = oracle.delta("E").unwrap();
        assert_eq!(got.snapshot(), want.snapshot());
        assert_eq!(got.fold().map(|r| r.len()), want.fold().map(|r| r.len()));
        assert_eq!(got.buffered(), want.buffered());
    });
    std::fs::remove_dir_all(&path).ok();
}

/// Rotation + checkpointing keep recovery bounded by the tail, not history:
/// after hundreds of batches through tiny segments, reopen replays only the
/// post-checkpoint remainder and the writer resumes contiguously.
#[test]
fn checkpoints_bound_recovery_to_the_tail_through_the_service() {
    let path = temp_wal("ckpt-bound");
    let config = config().with_segment_bytes(2048);
    let (service, _) = QueryService::open(&path, edge_db(), config.clone()).unwrap();
    let mut rng = SplitMix64::new(0xB0);
    for i in 0..120u64 {
        let mut batch = WriteBatch::new();
        for _ in 0..8 {
            batch = batch.insert("E", vec![rng.next_u64() % 256, rng.next_u64() % 256]);
        }
        if i % 10 == 9 {
            batch = batch.seal("E");
        }
        assert_eq!(service.apply(&batch).unwrap(), i + 1);
    }
    let checkpoints = counter(&service, "wal.checkpoints");
    assert!(checkpoints >= 2);
    assert!(counter(&service, "wal.segments_deleted") >= checkpoints);
    let rows = service.with_db(|db| db.delta("E").unwrap().len());
    drop(service);

    let (recovered, replayed) = QueryService::open(&path, edge_db(), config).unwrap();
    assert_eq!(replayed.committed, 120);
    assert!(replayed.checkpoint_seq > 0);
    assert!(
        replayed.tail.len() < 60,
        "recovery replays the tail, not the {}-batch history (got {})",
        replayed.committed,
        replayed.tail.len()
    );
    assert_eq!(
        counter(&recovered, "recovery.replay_ops"),
        replayed.num_ops() as u64
    );
    recovered.with_db(|db| assert_eq!(db.delta("E").unwrap().len(), rows));
    assert_eq!(
        recovered
            .apply(&WriteBatch::new().insert("E", vec![1, 1]))
            .unwrap(),
        121,
        "the writer resumes with a contiguous sequence"
    );
    std::fs::remove_dir_all(&path).ok();
}

/// A checkpoint installs a relation's recovered state in place, so a typed
/// relation keeps the domains its codes were interned into: a `set_domain`
/// remap after the load must not unify `src` and `dst` across a reopen.
#[test]
fn reopening_from_a_checkpoint_keeps_a_typed_relations_intern_domains() {
    let typed_db = || {
        let mut db = Database::new();
        let str_pair = Schema::with_types(&["src", "dst"], &[AttrType::Str, AttrType::Str]);
        let rows = [("a", "b"), ("b", "a")].map(|(s, d)| vec![s.into(), d.into()]);
        db.insert_typed_rows("E", str_pair, &rows).unwrap();
        db.set_domain("src", "user");
        db.set_domain("dst", "user");
        db
    };
    let clique = examples::clique(3);
    let split = |service: &QueryService| {
        service.with_db(|db| {
            matches!(
                db.var_bindings(&clique),
                Err(DatabaseError::VarTypeMismatch { .. })
            )
        })
    };
    let path = temp_wal("ckpt-domains");
    let (service, _) = QueryService::open(&path, typed_db(), config()).unwrap();
    assert!(split(&service), "src and dst were interned apart");
    service
        .apply(&WriteBatch::new().insert("E", vec![0, 1]))
        .unwrap();
    assert_eq!(service.checkpoint().unwrap(), Some(1));
    drop(service);

    let (reopened, replayed) = QueryService::open(&path, typed_db(), config()).unwrap();
    assert_eq!(replayed.checkpoint_seq, 1);
    reopened.with_db(|db| assert_eq!(db.delta("E").unwrap().len(), 3));
    assert!(
        split(&reopened),
        "the reopen forgot the intern-time domains"
    );
    std::fs::remove_dir_all(&path).ok();
}

/// CAS batches from concurrent writers still converge under group commit:
/// same-group conflicts are deferred (not falsely rejected), cross-group
/// conflicts surface as typed `Conflict` and `apply_with_retry` rebases.
#[test]
fn concurrent_cas_writers_converge_under_group_commit() {
    let path = temp_wal("group-cas");
    let mut windowed = config().with_group_commit_window(Duration::from_micros(200));
    windowed.write_retries = 50;
    windowed.retry_backoff = Duration::from_micros(50);
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10;
    // the durable service comes last and is dropped with its iteration
    for service in in_memory_and_durable(&path, edge_db, windowed) {
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let service = &service;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let tuple = t * 100 + i;
                        service
                            .apply_with_retry(|snap| {
                                Ok(WriteBatch::against(snap).insert("E", vec![tuple, tuple]))
                            })
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(
            counter(&service, "wal.batches_committed"),
            THREADS * PER_THREAD
        );
        service.with_db(|db| {
            let delta = db.delta("E").unwrap();
            assert_eq!(delta.len(), (THREADS * PER_THREAD) as usize);
        });
    }
    let (_, replayed) = QueryService::open(&path, edge_db(), config()).unwrap();
    assert_eq!(replayed.committed, THREADS * PER_THREAD);
    std::fs::remove_dir_all(&path).ok();
}

#[test]
fn registry_mirrors_stats_and_renders_stable_snapshots() {
    // a solo writer is a group of one, with or without a coalescing window
    for window in [Duration::ZERO, Duration::from_micros(200)] {
        let path = temp_wal(&format!("metrics-{}", window.as_micros()));
        let config = ServiceConfig::default().with_group_commit_window(window);
        let (service, _) = QueryService::open(&path, triangle_db(40), config).unwrap();
        for i in 0..6u64 {
            let batch = WriteBatch::new().insert("R", vec![i, i + 1]).seal("R");
            service.apply(&batch).unwrap();
        }
        service.query(&examples::triangle()).unwrap();
        service.query(&examples::triangle()).unwrap();

        // six solo writers: every batch is its own group, under the dotted
        // names a scrape would read
        let snap = service.registry().snapshot();
        assert_eq!(snap.counter_value("wal.batches_committed"), Some(6));
        assert_eq!(snap.counter_value("wal.ops_committed"), Some(12));
        assert_eq!(snap.counter_value("wal.group_commits"), Some(6));
        assert_eq!(snap.counter_value("service.admitted"), Some(2));
        let disk_bytes = std::fs::metadata(path.join("wal.000001")).unwrap().len();
        assert_eq!(snap.gauge_value("wal.bytes"), Some(disk_bytes));
        match snap.get("wal.batches_per_fsync") {
            Some(wcoj_service::MetricValue::Histogram { counts, count, .. }) => {
                assert_eq!(&counts[..], &[6, 0, 0, 0, 0, 0]);
                assert_eq!(*count, 6);
            }
            other => panic!("wal.batches_per_fsync missing or wrong kind: {other:?}"),
        }
        // one fsync-latency observation per coalesced group
        match snap.get("wal.fsync_us") {
            Some(wcoj_service::MetricValue::Histogram { count, .. }) => assert_eq!(*count, 6),
            other => panic!("wal.fsync_us missing or wrong kind: {other:?}"),
        }
        // one query-latency observation per admitted query
        match snap.get("service.query_us") {
            Some(wcoj_service::MetricValue::Histogram { count, .. }) => assert_eq!(*count, 2),
            other => panic!("service.query_us missing or wrong kind: {other:?}"),
        }
        // the catalog's cache counters register their own primitives
        assert!(snap.counter_value("cache.hits").is_some());
        assert!(snap.gauge_value("cache.resident_bytes").is_some());

        // the JSON rendering is stable and parses with the crate's own parser
        let doc = service.metrics_json();
        assert_eq!(doc, service.metrics_json(), "snapshot JSON is stable");
        let json = wcoj_obs::Json::parse(&doc).expect("metrics JSON parses");
        // every entry is tagged with its kind, and carries that kind's fields
        // with the registry's values
        let field = |name: &str, key: &str| json.get(name).and_then(|m| m.get(key));
        let kind = |name: &str| field(name, "type").and_then(wcoj_obs::Json::as_str);
        let number = |name: &str, key: &str| field(name, key).and_then(wcoj_obs::Json::as_u64);
        for name in [
            "service.admitted",
            "service.slow_queries",
            "wal.batches_committed",
            "wal.group_commits",
        ] {
            assert_eq!(kind(name), Some("counter"), "{name}");
            assert_eq!(number(name, "value"), snap.counter_value(name), "{name}");
        }
        assert_eq!(kind("wal.bytes"), Some("gauge"));
        assert_eq!(number("wal.bytes", "value"), Some(disk_bytes));
        for (name, count) in [
            ("wal.fsync_us", 6),
            ("wal.batches_per_fsync", 6),
            ("service.query_us", 2),
        ] {
            assert_eq!(kind(name), Some("histogram"), "{name}");
            assert_eq!(number(name, "count"), Some(count), "{name}");
        }
        // the Prometheus exposition carries the histogram expansion
        let prom = service.metrics_prometheus();
        assert!(prom.contains("# TYPE wal_fsync_us histogram"));
        assert!(prom.contains("wal_batches_per_fsync_bucket{le=\"1\"}"));
        assert!(prom.contains("wal_bytes "));
        std::fs::remove_dir_all(&path).ok();
    }
}

#[test]
fn slow_query_log_captures_traces_without_perturbing_results() {
    let quiet_config = ServiceConfig::default();
    let plain = QueryService::in_memory(triangle_db(60), quiet_config.clone());
    let traced = QueryService::in_memory(
        triangle_db(60),
        quiet_config.clone().with_slow_query(Duration::ZERO),
    );
    let q = examples::triangle();
    let a = plain.query(&q).unwrap();
    let b = traced.query(&q).unwrap();
    assert_eq!(a.result, b.result, "tracing never perturbs rows");
    assert_eq!(a.work, b.work, "tracing never perturbs work counters");
    assert!(plain.slow_queries().is_empty(), "tracing disabled: no log");

    let log = traced.slow_queries();
    assert_eq!(log.len(), 1, "threshold zero traces every query");
    assert_eq!(log[0].rows, b.result.len() as u64);
    assert_eq!(log[0].work_value("total_work"), Some(b.work.total_work()));
    let snap = traced.registry().snapshot();
    assert_eq!(snap.counter_value("service.slow_queries"), Some(1));

    // the ring is bounded: oldest traces fall off
    for _ in 0..20 {
        traced.query(&q).unwrap();
    }
    assert_eq!(traced.slow_queries().len(), 16);

    // an unreachable threshold records latency but keeps no traces
    let lenient = QueryService::in_memory(
        triangle_db(60),
        quiet_config.with_slow_query(Duration::from_secs(3600)),
    );
    lenient.query(&q).unwrap();
    assert!(lenient.slow_queries().is_empty());
    let snap = lenient.registry().snapshot();
    assert_eq!(snap.counter_value("service.slow_queries"), Some(0));
    match snap.get("service.query_us") {
        Some(wcoj_service::MetricValue::Histogram { count, .. }) => assert_eq!(*count, 1),
        other => panic!("service.query_us missing: {other:?}"),
    }
}

#[test]
fn recovery_metrics_report_checkpoint_vs_tail_breakdown() {
    let path = temp_wal("recovery-metrics");
    // tiny segments force rotation, so checkpoints happen under the loop
    let config = config().with_segment_bytes(256);
    let (service, _) = QueryService::open(&path, edge_db(), config.clone()).unwrap();
    for i in 0..30u64 {
        let batch = WriteBatch::new().insert("E", vec![i, i + 1]);
        service.apply(&batch).unwrap();
    }
    assert!(
        counter(&service, "wal.checkpoints") > 0,
        "tiny segments checkpoint"
    );
    drop(service);

    let (recovered, report) = QueryService::open(&path, edge_db(), config).unwrap();
    assert!(
        report.checkpoint_seq > 0,
        "recovery starts from a checkpoint"
    );
    let snap = recovered.registry().snapshot();
    assert_eq!(
        snap.counter_value("recovery.replay_ops"),
        Some(report.num_ops() as u64)
    );
    assert_eq!(
        snap.counter_value("recovery.batches"),
        Some(report.committed)
    );
    assert_eq!(
        snap.gauge_value("recovery.checkpoint_seq"),
        Some(report.checkpoint_seq)
    );
    assert_eq!(
        snap.gauge_value("recovery.tail_batches"),
        Some(report.tail.len() as u64)
    );
    // wall-time gauges exist (values are timing-dependent)
    assert!(snap.gauge_value("recovery.replay_us").is_some());
    assert!(snap.gauge_value("recovery.checkpoint_install_us").is_some());
    std::fs::remove_dir_all(&path).ok();
}

/// The read path the product has — `apply` a batch that seals, `query` on a
/// fresh snapshot — must keep resident tries bounded: each seal gives the
/// log a new run, which costs the next query one trie per column order read,
/// nothing built for a superseded run stays resident, and every answer is
/// what an uncached execution of the same snapshot gives.
#[test]
fn sealing_through_the_service_builds_one_run_and_strands_nothing() {
    use std::collections::{HashSet, VecDeque};
    use wcoj_core::CacheMode;
    const BATCH: usize = 16;
    let mut db = Database::new();
    let mut delta = DeltaRelation::new(Schema::new(&["src", "dst"]));
    delta.set_seal_threshold(usize::MAX);
    db.insert_delta_relation("E", delta);
    let config = ServiceConfig::default();
    let uncached = config.exec.with_cache(CacheMode::Off);
    let service = QueryService::in_memory(db, config);
    // the directed 3-cycle: under any variable order some atom reads E's
    // columns swapped. A run's trie is cached per (run, order), the native
    // order like any other, so E is read in ORDERS = 2 column orders — two
    // atoms share (src, dst), the third reads (dst, src) — and every tally
    // below is the per-order count times two: one trie built per seal
    const ORDERS: u64 = 2;
    let query = wcoj_query::ConjunctiveQuery::builder()
        .atom("E", &["A", "B"])
        .atom("E", &["B", "C"])
        .atom("E", &["C", "A"])
        .build()
        .unwrap();

    // a sliding window of 1024 live edges: every cycle inserts BATCH fresh
    // ones, deletes the BATCH oldest, and seals
    let mut rng = SplitMix64::new(0xE15);
    let mut live: HashSet<(u64, u64)> = HashSet::new();
    let mut window: VecDeque<(u64, u64)> = VecDeque::new();
    let mut fresh_edge = |live: &mut HashSet<(u64, u64)>| loop {
        let edge = (rng.next_u64() % 64, rng.next_u64() % 64);
        if live.insert(edge) {
            return edge;
        }
    };
    let mut prefill = WriteBatch::new();
    for _ in 0..1024 {
        let (a, b) = fresh_edge(&mut live);
        window.push_back((a, b));
        prefill = prefill.insert("E", vec![a, b]);
    }
    service.apply(&prefill.seal("E")).unwrap();

    let counter = |name: &str| service.registry().snapshot().counter_value(name).unwrap();
    let run_ids = || service.with_db(|db| db.delta("E").unwrap().run_ids());
    let mut cached_ids: Vec<u64> = Vec::new();
    let mut resident = Vec::new();
    for cycle in 0..40 {
        if cycle > 0 {
            let mut batch = WriteBatch::new();
            for _ in 0..BATCH {
                let (a, b) = fresh_edge(&mut live);
                window.push_back((a, b));
                batch = batch.insert("E", vec![a, b]);
                let (a, b) = window.pop_front().unwrap();
                live.remove(&(a, b));
                batch = batch.delete("E", vec![a, b]);
            }
            service.apply(&batch.seal("E")).unwrap();
        }
        let ids = run_ids();
        assert_eq!(ids.len(), 1, "cycle {cycle}: one run");
        assert!(
            !cached_ids.contains(&ids[0]),
            "cycle {cycle}: every seal leaves a new run"
        );
        let (misses, merges) = (counter("cache.misses"), counter("cache.incremental_merges"));
        let out = service.query(&query).unwrap();
        let (misses, merges) = (
            counter("cache.misses") - misses,
            counter("cache.incremental_merges") - merges,
        );
        // every seal gives E a new run: one build per order, never a
        // run-by-run merge
        assert_eq!((misses, merges), (ORDERS, 0), "cycle {cycle}: {ids:?}");
        cached_ids = ids;
        resident.push(
            service
                .registry()
                .snapshot()
                .gauge_value("cache.resident_bytes")
                .unwrap(),
        );

        let snap = service.snapshot();
        let off = execute_cancellable(&query, &snap, &uncached, None, &CancelToken::new()).unwrap();
        assert_eq!(out.result, off.result, "cycle {cycle}: rows");
        assert_eq!(out.work, off.work, "cycle {cycle}: work counters");
    }
    assert_eq!(counter("cache.misses"), 40 * ORDERS);
    assert_eq!(counter("cache.incremental_merges"), 0);
    // the live set is a constant 1024 edges, and a run holds exactly the
    // live edges, so residency must stay inside 2x of its first reading (one
    // whole stranded structure per seal used to make it 40x): one run's
    // tries per order, the superseded run's gone with it
    let bound = 2 * resident[0];
    assert!(
        resident.iter().all(|&bytes| bytes > 0 && bytes <= bound),
        "resident bytes per cycle: {resident:?}"
    );
}

/// The through-service read path with trie reuse on and off: two services
/// over the same catalog, one of them with `CacheMode::Off`, answer one
/// apply / seal / snapshot-read schedule with identical rows and work
/// counters, and only the one with reuse on tallies hits and misses.
#[test]
fn services_with_reuse_on_and_off_answer_identically() {
    use wcoj_core::CacheMode;
    let execs = [
        ExecOptions::default().with_cache(CacheMode::Off),
        config().exec,
    ];
    let services = execs
        .each_ref()
        .map(|exec| QueryService::in_memory(triangle_db(200), config().with_exec(exec.clone())));
    let q = examples::triangle();
    let token = CancelToken::new();
    let pinned = services.each_ref().map(QueryService::snapshot);
    let mut rng = SplitMix64::new(0xC0FF);
    for round in 0..12 {
        let mut batch = WriteBatch::new();
        for name in ["R", "S"] {
            for _ in 0..8 {
                batch = batch.insert(name, vec![rng.next_u64() % 40, rng.next_u64() % 40]);
            }
        }
        if round % 3 == 2 {
            batch = batch.seal("R").seal("S");
        }
        let reads = [0, 1].map(|i| {
            let service = &services[i];
            service.apply(&batch).unwrap();
            let queried = service.query(&q).unwrap();
            let snap = service.snapshot();
            let read = execute_cancellable(&q, &snap, &execs[i], None, &token).unwrap();
            assert_eq!(read.result, queried.result, "round {round}");
            assert_eq!(read.work, queried.work, "round {round}");
            queried
        });
        let [off, on] = &reads;
        assert_eq!(off.result, on.result, "round {round}: rows");
        assert_eq!(off.work, on.work, "round {round}: work counters");
        assert_eq!(off.cache_stats.hits + off.cache_stats.misses, 0);
        // T never changes: from the second round on, its trie is a hit
        assert!(round == 0 || on.cache_stats.hits > 0, "round {round}");
        let [off, on] =
            [0, 1].map(|i| execute_cancellable(&q, &pinned[i], &execs[i], None, &token).unwrap());
        assert_eq!(off.result, on.result, "round {round}: pinned rows");
        assert_eq!(off.work, on.work, "round {round}: pinned work counters");
    }
    assert_eq!(counter(&services[0], "cache.hits"), 0);
    assert_eq!(counter(&services[0], "cache.misses"), 0);
    assert!(counter(&services[1], "cache.hits") > 0);
}
