//! Crash-recovery differential harness: `ingest` drives a deterministic,
//! seeded op stream through a durable [`QueryService`] (and is designed to be
//! `kill -9`ed at arbitrary points, or crashed deterministically via
//! `--fault`); `verify` reopens the log, recovers, regenerates the same
//! stream from the seed, and asserts the recovered catalog is **bit-identical
//! to the committed-batch prefix of the oracle** — rows, whether a run is
//! sealed, and the buffered ops.
//!
//! ```text
//! crash_harness ingest|verify --wal DIR --seed S --batches N [--ops-per-batch M]
//!               [--segment-bytes B] [--group-commit-us U] [--fault SPEC]
//! ```
//!
//! `--wal` names a log **directory** (rotated segments plus checkpoints).
//! `--segment-bytes` sizes the segments — small ones force rotation and
//! checkpointing under the kill loop; `--group-commit-us` arms the commit
//! leader's coalescing window; `--fault` takes [`FaultPlan::parse`]
//! directives (`torn:900`, `fsync_fail:5,ckpt_torn:64`), and one that does
//! not parse is an argument error. These flags are the process's whole
//! configuration: the library reads no environment. `ingest` resumes: if the
//! log already holds `k` committed batches it recovers them and continues from
//! batch `k`, so a kill/restart loop converges to the full `N` batches while
//! exercising recovery — checkpoint load plus tail replay — on every
//! iteration.

use std::process::ExitCode;
use std::time::Duration;
use wcoj_query::Database;
use wcoj_service::{replay_into, QueryService, ServiceConfig, ServiceError, WriteBatch};
use wcoj_storage::{DeltaRelation, FaultPlan, Schema, WalOp};
use wcoj_workloads::SplitMix64;

/// The fixed base catalog both sides start from (schemas are not logged).
fn base_db() -> Database {
    let mut db = Database::new();
    let mut delta = DeltaRelation::new(Schema::new(&["a", "b"]));
    // seals come from the op stream, never implicitly mid-batch
    delta.set_seal_threshold(usize::MAX);
    db.insert_delta_relation("E", delta);
    db
}

/// The deterministic op stream: `batches` batches of `ops_per_batch` ops each,
/// a pure function of `seed` and **prefix-stable** (batch `i` is the same for
/// every total count, because the generator is consumed sequentially).
fn gen_batches(seed: u64, batches: usize, ops_per_batch: usize) -> Vec<Vec<WalOp>> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut ops = Vec::with_capacity(ops_per_batch);
        for _ in 0..ops_per_batch {
            let roll = rng.next_u64() % 100;
            let a = rng.next_u64() % 128;
            let b = rng.next_u64() % 128;
            if roll < 70 {
                ops.push(WalOp::Insert {
                    relation: "E".into(),
                    tuple: vec![a, b],
                });
            } else if roll < 90 {
                // deletes draw from the same domain: some hit, some are
                // no-op tombstone paths — both must replay identically
                ops.push(WalOp::Delete {
                    relation: "E".into(),
                    tuple: vec![a, b],
                });
            } else {
                ops.push(WalOp::Seal {
                    relation: "E".into(),
                });
            }
        }
        out.push(ops);
    }
    out
}

fn batch_from_ops(ops: &[WalOp]) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for op in ops {
        batch = match op {
            WalOp::Insert { relation, tuple } => batch.insert(relation.clone(), tuple.clone()),
            WalOp::Delete { relation, tuple } => batch.delete(relation.clone(), tuple.clone()),
            WalOp::Seal { relation } => batch.seal(relation.clone()),
            WalOp::Commit { .. } => unreachable!("generator emits no commit markers"),
        };
    }
    batch
}

struct Args {
    mode: String,
    wal: String,
    seed: u64,
    batches: usize,
    ops_per_batch: usize,
    config: ServiceConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode: ingest | verify")?;
    let mut wal = None;
    let mut seed = 42u64;
    let mut batches = 64usize;
    let mut ops_per_batch = 32usize;
    let mut config = ServiceConfig::default();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--wal" => wal = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed needs a u64")?,
            "--batches" => batches = value.parse().map_err(|_| "--batches needs a usize")?,
            "--ops-per-batch" => {
                ops_per_batch = value.parse().map_err(|_| "--ops-per-batch needs a usize")?
            }
            "--segment-bytes" => {
                config.segment_bytes = value.parse().map_err(|_| "--segment-bytes needs a u64")?
            }
            "--group-commit-us" => {
                let us = value.parse().map_err(|_| "--group-commit-us needs a u64")?;
                config.group_commit_window = Duration::from_micros(us);
            }
            "--fault" => config.fault = FaultPlan::parse(&value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        mode,
        wal: wal.ok_or("--wal PATH is required")?,
        seed,
        batches,
        ops_per_batch,
        config,
    })
}

/// The recovery breakdown, read back from the service's metrics registry —
/// the same numbers any monitoring scrape would see.
fn recovery_line(service: &QueryService) -> String {
    let snap = service.registry().snapshot();
    let gauge = |name| snap.gauge_value(name).unwrap_or(0);
    format!(
        "recovery: checkpoint seq {} ({} us install) + {} tail batches \
         ({} ops replayed in {} us)",
        gauge("recovery.checkpoint_seq"),
        gauge("recovery.checkpoint_install_us"),
        gauge("recovery.tail_batches"),
        snap.counter_value("recovery.replay_ops").unwrap_or(0),
        gauge("recovery.replay_us"),
    )
}

fn ingest(args: &Args) -> Result<(), String> {
    let (service, replayed) = QueryService::open(&args.wal, base_db(), args.config.clone())
        .map_err(|e| format!("open failed: {e}"))?;
    let start = replayed.committed as usize;
    if start > 0 {
        println!(
            "resumed after {start} recovered batches; {}",
            recovery_line(&service)
        );
    }
    let stream = gen_batches(args.seed, args.batches, args.ops_per_batch);
    for (i, ops) in stream.iter().enumerate().skip(start) {
        match service.apply(&batch_from_ops(ops)) {
            Ok(seq) => println!("committed batch {i} (wal seq {seq})"),
            Err(ServiceError::Wal(e)) => {
                // an injected (or real) durability fault is a simulated
                // crash: stop exactly as kill -9 would, verify must pass
                return Err(format!("wal fault at batch {i}: {e}"));
            }
            Err(e) => return Err(format!("apply failed at batch {i}: {e}")),
        }
    }
    println!("ingest complete: {} batches", args.batches);
    Ok(())
}

fn verify(args: &Args) -> Result<(), String> {
    let (service, replayed) = QueryService::open(&args.wal, base_db(), args.config.clone())
        .map_err(|e| format!("recovery failed: {e}"))?;
    let committed = replayed.committed as usize;
    if committed > args.batches {
        return Err(format!(
            "log holds {committed} batches but the stream only has {}",
            args.batches
        ));
    }
    // differential 1: the recovered tail ops — everything after the
    // checkpoint — are bit-identical to the generated stream at the same
    // positions: never a partial batch, never a reordered op
    let stream = gen_batches(args.seed, args.batches, args.ops_per_batch);
    let ckpt = replayed.checkpoint_seq as usize;
    for (offset, (got, want)) in replayed
        .tail
        .iter()
        .zip(&stream[ckpt..committed])
        .enumerate()
    {
        if got != want {
            return Err(format!(
                "recovered batch {} diverges from the oracle stream",
                ckpt + offset
            ));
        }
    }
    // differential 2: applying that prefix to a fresh catalog yields the
    // same relation state the recovered service holds — rows AND run count
    // AND buffered ops
    let mut oracle = base_db();
    replay_into(&mut oracle, &stream[..committed]).map_err(|e| format!("oracle replay: {e}"))?;
    let oracle_delta = oracle.delta("E").expect("oracle catalog has E");
    service.with_db(|db| {
        let got = db.delta("E").expect("recovered catalog has E");
        let shape = |d: &DeltaRelation| (d.run_ids().len(), d.buffered(), d.snapshot());
        if shape(got) != shape(oracle_delta) {
            return Err("recovered log diverges from the oracle".to_string());
        }
        Ok(())
    })?;
    println!(
        "OK: {committed}/{} batches recovered, {} live rows{}; {}",
        args.batches,
        oracle_delta.len(),
        if replayed.torn() {
            " (torn tail truncated)"
        } else {
            ""
        },
        recovery_line(&service)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crash_harness: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode.as_str() {
        "ingest" => ingest(&args),
        "verify" => verify(&args),
        other => Err(format!("unknown mode {other}: use ingest | verify")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("crash_harness {}: {e}", args.mode);
            ExitCode::FAILURE
        }
    }
}
