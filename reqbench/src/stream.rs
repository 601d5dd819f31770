//! `stream_mixed`, the durable workload: a WAL-backed service over a delta
//! relation `E(src, dst)` holding a sliding window of a seeded edge stream.
//! The client alternates sixteen blind write batches with one query whose
//! snapshot it keeps pinned until its next query, so reads and writes meet on
//! the same layers (and the first write after each query pays the live-set
//! copy-on-write).

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use wcoj_obs::MetricsSnapshot;
use wcoj_query::{ConjunctiveQuery, Database, Snapshot};
use wcoj_service::{QueryService, WriteBatch};
use wcoj_storage::{recover_dir, DeltaRelation, FaultPlan, Schema, SegmentedWal, Value, WalOp};
use wcoj_workloads::{edge_stream_ops, StreamOp};

use crate::host::TempDir;
use crate::oracle::{cycle_answer, relation_answer, Answer};
use crate::report::{Metrics, RunResult};
use crate::run::{
    cold_build_us_p50, counter_delta, diagnostics, end_to_end, err, exec_options, histogram_mean,
    host_metrics, layer_metrics, registry_metrics, repeat_setup, service_config, staged_query,
    write_trace, Placement, QuerySums, Tally, Until, Window,
};
use crate::spans::Recorder;
use crate::stats::percentile;
use crate::RunConfig;

const RELATION: &str = "E";
const BATCH_OPS: usize = 16;
const BATCHES_PER_CYCLE: usize = 16;
const CYCLE_OPS: usize = BATCH_OPS * BATCHES_PER_CYCLE;
/// Inserts per batch while the window is filled (set-up, not measured).
const PREFILL_BATCH: usize = 1024;
const WARMUP_CYCLES: u64 = 8;
/// Cycles of stream generated per second of `--seconds`; a pass that uses
/// them up ends early.
const CYCLES_PER_SECOND: f64 = 100.0;
/// Exception 2 of 2 to `ServiceConfig::default()`: 128 KiB WAL segments, so
/// rotation, checkpoint and segment GC complete ten or more cycles inside a
/// run instead of never at the 64 MiB default.
const SEGMENT_BYTES: u64 = 128 << 10;
/// Every n-th query (and the last) is recomputed by the oracle after the run.
const CHECK_EVERY: usize = 50;
const REOPENS: usize = 5;

/// Cycles per second of `--seconds` in each of the two passes of a traced run.
const TRACED_CYCLES_PER_SECOND: f64 = 20.0;

/// Directed 3-cycles `E(A,B), E(B,C), E(C,A)`. Unlike `clique(3)`, whose
/// atoms all read `E` in stored column order and so bypass the cache, the
/// third atom needs `E` permuted: the delta-view cache is on the path.
fn cycle_query() -> ConjunctiveQuery {
    ConjunctiveQuery::builder()
        .atom(RELATION, &["A", "B"])
        .atom(RELATION, &["B", "C"])
        .atom(RELATION, &["C", "A"])
        .build()
        .expect("a well-formed query")
}

/// The catalog a log is opened over: an empty delta relation with the default
/// auto-seal threshold and size-tiered compaction.
fn base_db() -> Database {
    let mut db = Database::new();
    db.insert_delta_relation(RELATION, DeltaRelation::new(Schema::new(&["src", "dst"])));
    db
}

fn batch_of(ops: &[StreamOp]) -> WriteBatch {
    ops.iter()
        .fold(WriteBatch::new(), |batch, &(insert, (a, b))| {
            if insert {
                batch.insert(RELATION, vec![a, b])
            } else {
                batch.delete(RELATION, vec![a, b])
            }
        })
}

/// The seeded op stream: `window` inserts that fill the window, then
/// insert/delete-oldest pairs.
struct Input {
    ops: Vec<StreamOp>,
    window: usize,
}

impl Input {
    fn generate(cfg: &RunConfig) -> Input {
        let window = cfg.n();
        let cycles = (CYCLES_PER_SECOND * cfg.seconds).ceil() as usize + WARMUP_CYCLES as usize;
        let inserts = window + cycles * CYCLE_OPS / 2;
        Input {
            ops: edge_stream_ops(inserts, window, cfg.seed),
            window,
        }
    }
}

/// What one query of the service pass returned, for the oracle to recompute.
struct QueryCheck {
    ops_applied: usize,
    answer: Answer,
}

struct ServicePass {
    cycles: u64,
    /// Every completed request; the queries are the primary ones.
    window: Window,
    /// Writes that were the first after a query pinned a snapshot.
    cow_ns: Vec<u64>,
    /// The other fifteen of each cycle.
    steady_ns: Vec<u64>,
    sums: QuerySums,
    checks: Vec<QueryCheck>,
}

/// What the client does, fixed by the seed.
struct Stream {
    input: Input,
    query: ConjunctiveQuery,
}

struct StreamService {
    svc: QueryService,
    dir: TempDir,
    stream: Stream,
    /// Ops of the stream applied so far.
    pos: usize,
    /// The snapshot the client holds since its last query.
    pin: Option<Snapshot>,
}

impl StreamService {
    /// Generate the stream, open a log in a fresh directory, fill the window
    /// and run a few unmeasured cycles.
    fn setup(cfg: &RunConfig) -> Result<StreamService, String> {
        let input = Input::generate(cfg);
        let dir = TempDir::new("wal").map_err(err)?;
        let config = service_config().with_segment_bytes(SEGMENT_BYTES);
        let (svc, _) = QueryService::open(dir.path(), base_db(), config).map_err(err)?;
        for chunk in input.ops[..input.window].chunks(PREFILL_BATCH) {
            svc.apply(&batch_of(chunk)).map_err(err)?;
        }
        let mut service = StreamService {
            svc,
            dir,
            pos: input.window,
            stream: Stream {
                input,
                query: cycle_query(),
            },
            pin: None,
        };
        let mut tally = Tally::default();
        service.pass(Until::Count(cfg.scaled(WARMUP_CYCLES)), false, &mut tally);
        if tally.failed > 0 {
            return Err(format!("{} warm-up requests failed", tally.failed));
        }
        Ok(service)
    }

    /// Run cycles until `until` (counted in cycles) or the stream ends. Only
    /// `apply` and `query` + pin are timed.
    fn pass(&mut self, until: Until, with_agm: bool, tally: &mut Tally) -> ServicePass {
        let mut pass = ServicePass {
            cycles: 0,
            window: Window::start(until, 1),
            cow_ns: Vec::new(),
            steady_ns: Vec::new(),
            sums: QuerySums::default(),
            checks: Vec::new(),
        };
        let Stream { input, query } = &self.stream;
        while !pass.window.reached(pass.cycles) && self.pos + CYCLE_OPS <= input.ops.len() {
            for k in 0..BATCHES_PER_CYCLE {
                let batch = batch_of(&input.ops[self.pos..self.pos + BATCH_OPS]);
                self.pos += BATCH_OPS;
                pass.window.place();
                let sample = Instant::now();
                let acked = self.svc.apply(&batch);
                let ns = sample.elapsed().as_nanos() as u64;
                tally.record(acked.is_ok());
                match acked {
                    Ok(_) => {
                        pass.window.record(ns, false);
                        if k == 0 && self.pin.is_some() {
                            pass.cow_ns.push(ns);
                        } else {
                            pass.steady_ns.push(ns);
                        }
                    }
                    Err(e) => eprintln!("write failed: {e}"),
                }
            }
            pass.window.place();
            let sample = Instant::now();
            let response = self.svc.query(query);
            let pin = self.svc.snapshot();
            let ns = sample.elapsed().as_nanos() as u64;
            tally.record(response.is_ok());
            match response {
                Ok(out) => {
                    pass.window.record(ns, true);
                    pass.sums.add(&out, query, with_agm.then_some(&*pin));
                    pass.checks.push(QueryCheck {
                        ops_applied: self.pos,
                        answer: relation_answer(&out.result),
                    });
                }
                Err(e) => eprintln!("query failed: {e}"),
            }
            self.pin = Some(pin);
            pass.cycles += 1;
        }
        pass
    }
}

/// The live edge set after `applied` ops, from a plain ordered set —
/// recomputing every [`CHECK_EVERY`]-th query of `checks` (and the last) on
/// the way. Returns the set and the number of answers that differ.
fn replay(applied: &[StreamOp], checks: &[QueryCheck]) -> (BTreeSet<(Value, Value)>, u64) {
    let mut checks = checks
        .iter()
        .enumerate()
        .filter(|(i, _)| i % CHECK_EVERY == 0 || i + 1 == checks.len())
        .map(|(_, check)| check)
        .peekable();
    let mut live = BTreeSet::new();
    let mut mismatches = 0;
    for (i, &(insert, edge)) in applied.iter().enumerate() {
        if insert {
            live.insert(edge);
        } else {
            live.remove(&edge);
        }
        while let Some(check) = checks.next_if(|c| c.ops_applied == i + 1) {
            mismatches += u64::from(cycle_answer(&live) != check.answer);
        }
    }
    (live, mismatches)
}

/// Whether the catalog of `svc` holds exactly the edges of `live`.
fn catalog_matches(svc: &QueryService, live: &BTreeSet<(Value, Value)>) -> bool {
    let rows = svc.with_db(|db| db.delta(RELATION).map(DeltaRelation::snapshot));
    rows.is_some_and(|rel| {
        rel.len() == live.len() && rel.iter().zip(live).all(|(row, &(a, b))| row == [a, b])
    })
}

/// Bytes of every file in `dir`, and of its checkpoint files alone.
fn dir_bytes(dir: &Path) -> Result<(u64, u64), String> {
    let (mut total, mut checkpoints) = (0, 0);
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let entry = entry.map_err(err)?;
        let bytes = entry.metadata().map_err(err)?.len();
        total += bytes;
        if entry.file_name().to_string_lossy().starts_with("ckpt.") {
            checkpoints += bytes;
        }
    }
    Ok((total, checkpoints))
}

/// The traced form of the workload: the same cycles performed in stages from
/// the benchmark's own code over its own catalog and its own log, in the
/// order `QueryService::apply` performs them — append the batch (ops + commit
/// marker in one write), sync, apply in memory — with a span per stage.
/// Returns the spans and the log bytes appended per op.
fn staged_pass(stream: &Stream, cycles: u64) -> Result<(Recorder, f64), String> {
    let input = &stream.input;
    let mut db = base_db();
    for &(_, (a, b)) in &input.ops[..input.window] {
        db.insert_delta(RELATION, vec![a, b]).map_err(err)?;
    }
    let dir = TempDir::new("staged-wal").map_err(err)?;
    let recovery = recover_dir(dir.path()).map_err(err)?;
    let mut wal = SegmentedWal::open(dir.path(), &recovery, SEGMENT_BYTES, FaultPlan::default())
        .map_err(err)?;
    let exec = exec_options();
    let mut rec = Recorder::new();
    let mut pin: Option<Snapshot> = None;
    let mut placement = Placement::start();
    let (mut pos, mut request) = (input.window, 0);
    for _ in 0..cycles {
        if pos + CYCLE_OPS > input.ops.len() {
            break;
        }
        for _ in 0..BATCHES_PER_CYCLE {
            let batch = batch_of(&input.ops[pos..pos + BATCH_OPS]);
            pos += BATCH_OPS;
            request += 1;
            placement.place();
            let root = rec.root("write", request);
            let span = rec.child("storage.wal.append", root);
            wal.commit_batch_unsynced(batch.ops()).map_err(err)?;
            rec.close(span);
            let span = rec.child("storage.wal.fsync", root);
            wal.sync().map_err(err)?;
            rec.close(span);
            let span = rec.child("query.database", root);
            for op in batch.ops() {
                match op {
                    WalOp::Insert { relation, tuple } => {
                        db.insert_delta(relation, tuple.clone()).map_err(err)?;
                    }
                    WalOp::Delete { relation, tuple } => {
                        db.delete(relation, tuple).map_err(err)?;
                    }
                    other => return Err(format!("unexpected op {other:?}")),
                }
            }
            rec.close(span);
            rec.close(root);
        }
        request += 1;
        placement.place();
        let (_, snap, _) = staged_query(
            &mut rec,
            request,
            || db.snapshot(),
            &stream.query,
            &exec,
            false,
        )?;
        pin = Some(snap);
    }
    drop(pin);
    let ops = (pos - input.window).max(1);
    Ok((rec, wal.total_bytes() as f64 / ops as f64))
}

/// What the service's registry says the write path did between two snapshots;
/// returns the checkpoints taken.
fn wal_metrics(metrics: &mut Metrics, before: &MetricsSnapshot, after: &MetricsSnapshot) -> f64 {
    for (histogram, metric) in [
        ("wal.commit_wait_us", "service.group.commit_wait_us_mean"),
        (
            "wal.batches_per_fsync",
            "service.group.batches_per_fsync_mean",
        ),
        ("wal.apply_us", "query.database.apply_us_mean"),
        ("wal.fsync_us", "storage.wal.fsync_us_mean"),
        ("wal.checkpoint_us", "storage.wal.checkpoint_us_mean"),
    ] {
        metrics.set(metric, histogram_mean(before, after, histogram));
    }
    for (counter, metric) in [
        ("wal.group_commits", "storage.wal.fsyncs"),
        ("wal.checkpoints", "storage.wal.checkpoints"),
        ("wal.segments_deleted", "storage.wal.segments_deleted"),
    ] {
        metrics.set(metric, counter_delta(before, after, counter));
    }
    counter_delta(before, after, "wal.checkpoints")
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let (mut service, setups) = repeat_setup(|| StreamService::setup(cfg))?;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();

    let before = service.svc.registry().snapshot();
    let first_op = service.pos;
    let until = Until::untraced(cfg, TRACED_CYCLES_PER_SECOND);
    let mut pass = service.pass(until, cfg.trace, &mut tally);
    let after = service.svc.registry().snapshot();
    let StreamService {
        svc,
        dir,
        stream,
        pos,
        pin,
    } = service;
    drop(pin);
    let (mut query_ns, mut write_ns) = (pass.window.latencies(true), pass.window.latencies(false));
    println!("{}", diagnostics(&mut query_ns));

    // correctness, outside every timed sample: sampled queries and the final
    // catalog against an ordered set, then the reopened catalog against it
    let (live, mismatches) = replay(&stream.input.ops[..pos], &pass.checks);
    tally.failed += mismatches;
    if !catalog_matches(&svc, &live) {
        problems.push("live catalog differs from the replayed op stream".to_string());
    }
    let runs_end = svc.with_db(|db| db.delta(RELATION).map_or(0, |d| d.run_ids().len()));
    let (disk_bytes, checkpoint_bytes) = dir_bytes(dir.path())?;
    drop(svc); // no shutdown hook exists: dropping is the crash
    let config = service_config().with_segment_bytes(SEGMENT_BYTES);
    let mut reopen_ns = Vec::with_capacity(REOPENS);
    let mut recovered = None;
    for _ in 0..REOPENS {
        drop(recovered.take());
        let started = Instant::now();
        let (reopened, _) =
            QueryService::open(dir.path(), base_db(), config.clone()).map_err(err)?;
        reopen_ns.push(started.elapsed().as_nanos() as u64);
        recovered = Some(reopened);
    }
    let recovered = recovered.expect("REOPENS > 0");
    if !catalog_matches(&recovered, &live) {
        tally.failed += 1;
        problems.push("an acknowledged write is missing after reopen".to_string());
    }

    if !cfg.trace {
        end_to_end(&mut metrics, &setups, &mut pass.window);
    } else {
        registry_metrics(&mut metrics, &before, &after);
        pass.sums.report(&mut metrics);
        let us = |samples: &mut [u64], p| percentile(samples, p) as f64 / 1e3;
        metrics.set("service.query_p50_us", us(&mut query_ns, 0.5));
        metrics.set("service.query_p95_us", us(&mut query_ns, 0.95));
        metrics.set("service.write_p50_us", us(&mut write_ns, 0.5));
        metrics.set("service.write_p95_us", us(&mut write_ns, 0.95));
        metrics.set("service.write_steady_us_p50", us(&mut pass.steady_ns, 0.5));
        metrics.set("query.snapshot.cow_write_us_p50", us(&mut pass.cow_ns, 0.5));
        metrics.set("service.reopen_ms", us(&mut reopen_ns, 0.5) / 1e3);
        let checkpoints = wal_metrics(&mut metrics, &before, &after);
        metrics.set("storage.wal.disk_bytes_end", disk_bytes as f64);
        metrics.set("storage.delta.runs_end", runs_end as f64);
        let recovery = recovered.registry().snapshot();
        for (gauge, metric) in [
            (
                "recovery.checkpoint_install_us",
                "storage.wal.recovery_install_us",
            ),
            ("recovery.replay_us", "storage.wal.recovery_replay_us"),
            ("recovery.tail_batches", "storage.wal.recovery_tail_batches"),
        ] {
            metrics.set(metric, recovery.gauge_value(gauge).unwrap_or(0) as f64);
        }

        let cycles = cfg.count(TRACED_CYCLES_PER_SECOND);
        let (rec, log_bytes_per_op) = staged_pass(&stream, cycles)?;
        problems.extend(layer_metrics(
            &mut metrics,
            rec.spans(),
            &mut pass.window.quiet_latencies(true),
            &mut pass.window.quiet_latencies(false),
        ));
        // every op carries two 8-byte values; a checkpoint rewrites the whole
        // window, so its bytes count as written once per checkpoint taken
        let ops = (pos - first_op) as f64;
        let written = log_bytes_per_op * ops + checkpoint_bytes as f64 * checkpoints;
        metrics.set("storage.wal.bytes_per_user_byte", written / (ops * 16.0));
        let cold = cold_build_us_p50(&stream.query, &recovered.snapshot(), &exec_options())?;
        metrics.set("storage.access.cold_build_us_p50", cold);
        host_metrics(&mut metrics, dir.path())?;
        write_trace(cfg, &rec)?;
    }
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        problems,
        metrics,
    })
}
