//! The three read-only workloads: one in-memory service, one query, a warm
//! access-structure cache, and every response checked against an oracle.

use std::collections::HashSet;
use std::time::Instant;

use wcoj_core::{execute_opts, Engine, ExecOptions, ExecOutput};
use wcoj_query::query::examples;
use wcoj_query::{ConjunctiveQuery, Database};
use wcoj_service::QueryService;
use wcoj_storage::{Relation, TypedRow, TypedValue, Value};
use wcoj_workloads::{random_pairs, social_graph, social_graph_pairs, SplitMix64};

use crate::oracle::{relation_answer, typed_answer, Answer};
use crate::report::{Metrics, RunResult};
use crate::run::{
    cold_build_us_p50, diagnostics, end_to_end, err, exec_options, host_metrics, layer_metrics,
    registry_metrics, repeat_setup, service_config, staged_query, write_trace, Placement,
    QuerySums, Tally, Until, Window,
};
use crate::spans::Recorder;
use crate::{RunConfig, Workload};

/// `needle_cached`: rows of the probe relation, and how much smaller than
/// the other workloads' relations the two it probes are (16384 / 256 = 64).
const NEEDLE_ROWS: usize = 4;
const NEEDLE_SHRINK: usize = 256;

/// Warm-up, untraced and staged requests per second of `--seconds`, sized so
/// that warm-up takes ≈0.2 s and a traced run ≈`--seconds` on the 2-vCPU
/// container the baseline was taken on.
struct Rates {
    warmup: u64,
    untraced: f64,
    staged: f64,
    /// Log one latency in this many (see `Window`).
    sample_every: u64,
}

fn rates(workload: Workload) -> Rates {
    match workload {
        Workload::NeedleCached => Rates {
            warmup: 16384,
            untraced: 20000.0,
            staged: 5000.0,
            sample_every: 16,
        },
        Workload::SocialDecode => Rates {
            warmup: 8,
            untraced: 15.0,
            staged: 30.0,
            sample_every: 1,
        },
        _ => Rates {
            warmup: 16,
            untraced: 25.0,
            staged: 45.0,
            sample_every: 1,
        },
    }
}

/// `count` distinct uniform pairs over `[0, domain)²`, in the order the seeded
/// generator first draws them. Exact sizes matter: the planner orders
/// variables by relation size, and the few rows by which deduplicated random
/// relations differ from seed to seed flip its choice — and with it the
/// request's latency by a quarter.
fn distinct_pairs(count: usize, domain: u64, seed: u64) -> Vec<(Value, Value)> {
    assert!(domain * domain >= 2 * count as u64, "domain too small");
    let mut seen = HashSet::with_capacity(count);
    let mut pairs = Vec::with_capacity(count);
    for round in 0u64.. {
        let salt = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for pair in random_pairs(count, domain, seed ^ salt) {
            if seen.insert(pair) {
                pairs.push(pair);
                if pairs.len() == count {
                    return pairs;
                }
            }
        }
    }
    unreachable!("the loop returns once `count` pairs are drawn")
}

/// The triangle query over three independent uniform relations of exactly
/// `n` rows each, over the `~2√n` domain of `wcoj_workloads::triangle`.
fn uniform_triangle(n: usize, seed: u64) -> (ConjunctiveQuery, Database) {
    let domain = (2.0 * (n as f64).sqrt()).ceil() as u64 + 1;
    let mut db = Database::new();
    let rel = |a, b, salt| Relation::from_pairs(a, b, distinct_pairs(n, domain, seed ^ salt));
    db.insert("R", rel("A", "B", 0));
    db.insert("S", rel("B", "C", 0x5151));
    db.insert("T", rel("A", "C", 0xA3A3));
    (examples::triangle(), db)
}

/// The selective shape of experiment E8 — a few probe rows joined with two
/// larger relations, all three access structures cached — shrunk until the
/// join no longer hides the fixed cost of a request. (At E8's own size, 64
/// rows against 16384, the planner binds `C` first and the join walks every
/// `C` of `S ∩ T`: 1.4 ms of a 1.42 ms request.)
///
/// Four probe rows are too few for seeds to average out: over random
/// instances the join's work varies by ±15 % and the latency with it. So the
/// instance is one fixed draw, and the seed permutes the labels of its values:
/// every seed gives different rows with the same join structure.
fn needle(n: usize, seed: u64) -> (ConjunctiveQuery, Database) {
    const INSTANCE: u64 = 0xD1D1;
    let domain = (n as u64 / 4).max(16);
    let mut labels: Vec<Value> = (0..domain).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..labels.len()).rev() {
        labels.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let pairs = |rows, salt| {
        let instance = distinct_pairs(rows, domain, INSTANCE ^ salt);
        instance
            .into_iter()
            .map(|(a, b)| (labels[a as usize], labels[b as usize]))
    };
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs("A", "B", pairs(NEEDLE_ROWS, 0)));
    db.insert("S", Relation::from_pairs("B", "C", pairs(n, 1)));
    db.insert("T", Relation::from_pairs("A", "C", pairs(n, 2)));
    (examples::triangle(), db)
}

struct ReadWorkload {
    svc: QueryService,
    query: ConjunctiveQuery,
    /// The client consumes decoded rows (`social_decode`).
    decode: bool,
}

type Response = (ExecOutput, Option<Vec<TypedRow>>);

impl ReadWorkload {
    /// Generate the inputs, load them into a service, and warm its cache.
    fn setup(cfg: &RunConfig) -> Result<ReadWorkload, String> {
        let (query, db) = match cfg.workload {
            Workload::NeedleCached => needle(cfg.n() / NEEDLE_SHRINK, cfg.seed),
            Workload::SocialDecode => {
                let w = social_graph(cfg.n(), cfg.seed);
                (w.query, w.db)
            }
            _ => uniform_triangle(cfg.n(), cfg.seed),
        };
        let workload = ReadWorkload {
            svc: QueryService::in_memory(db, service_config()),
            query,
            decode: cfg.workload == Workload::SocialDecode,
        };
        for _ in 0..cfg.scaled(rates(cfg.workload).warmup) {
            workload.request()?;
        }
        Ok(workload)
    }

    /// What the client does per request: the public `query` call and, for a
    /// typed consumer, decoding every row against a snapshot's dictionaries.
    fn request(&self) -> Result<Response, String> {
        let out = self.svc.query(&self.query).map_err(err)?;
        let rows = if self.decode {
            let snap = self.svc.snapshot();
            let typed = out.typed_rows(&self.query, &snap).map_err(err)?;
            Some(typed.to_rows().map_err(err)?)
        } else {
            None
        };
        Ok((out, rows))
    }

    /// The expected answer, from the binary hash-join baseline — for
    /// `social_decode` run over the raw integer ids (no dictionary) and
    /// formatted to the strings the client must see.
    fn oracle(&self, cfg: &RunConfig) -> Result<Answer, String> {
        let baseline = ExecOptions::new(Engine::BinaryHash);
        if !self.decode {
            let out = execute_opts(&self.query, &self.svc.snapshot(), &baseline).map_err(err)?;
            return Ok(relation_answer(&out.result));
        }
        let mut raw = Database::new();
        let pairs = social_graph_pairs(cfg.n(), cfg.seed);
        raw.insert("E", Relation::from_pairs("src", "dst", pairs));
        let out = execute_opts(&self.query, &raw, &baseline).map_err(err)?;
        let rows: Vec<TypedRow> = out
            .result
            .iter()
            .map(|row| {
                row.iter()
                    .map(|id| TypedValue::Str(format!("user{id}")))
                    .collect()
            })
            .collect();
        Ok(typed_answer(&rows))
    }

    fn answer(&self, (out, rows): &Response) -> Answer {
        match rows {
            Some(rows) => typed_answer(rows),
            None => relation_answer(&out.result),
        }
    }

    /// The untraced pass: only the client's calls are timed; each response is
    /// checked after its sample is taken.
    fn untraced_pass(
        &self,
        until: Until,
        expect: Answer,
        with_agm: bool,
        tally: &mut Tally,
        sample_every: u64,
    ) -> (Window, QuerySums) {
        let mut sums = QuerySums::default();
        let snap = with_agm.then(|| self.svc.snapshot());
        let (mut window, before) = (Window::start(until, sample_every), tally.attempted);
        while !window.reached(tally.attempted - before) {
            window.place();
            let sample = Instant::now();
            let response = self.request();
            let ns = sample.elapsed().as_nanos() as u64;
            match response {
                Ok(response) => {
                    window.record(ns, true);
                    sums.add(&response.0, &self.query, snap.as_deref());
                    tally.record(self.answer(&response) == expect);
                }
                Err(e) => {
                    eprintln!("request failed: {e}");
                    tally.record(false);
                }
            }
        }
        (window, sums)
    }
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let rates = rates(cfg.workload);
    let (workload, setups) = repeat_setup(|| ReadWorkload::setup(cfg))?;
    let expect = workload.oracle(cfg)?;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();

    let before = workload.svc.registry().snapshot();
    let until = Until::untraced(cfg, rates.untraced);
    let (mut window, sums) =
        workload.untraced_pass(until, expect, cfg.trace, &mut tally, rates.sample_every);
    let mut latencies = window.latencies(true);
    println!("{}", diagnostics(&mut latencies));

    if !cfg.trace {
        end_to_end(&mut metrics, &setups, &mut window);
    } else {
        registry_metrics(&mut metrics, &before, &workload.svc.registry().snapshot());
        sums.report(&mut metrics);

        let exec = exec_options();
        let mut rec = Recorder::new();
        let mut decoded_rows = 0;
        let mut placement = Placement::start();
        for request in 0..cfg.count(rates.staged) {
            placement.place();
            let pin = || workload.svc.snapshot();
            match staged_query(
                &mut rec,
                request,
                pin,
                &workload.query,
                &exec,
                workload.decode,
            ) {
                Ok((out, _, rows)) => {
                    decoded_rows = rows.as_ref().map_or(0, Vec::len);
                    tally.record(workload.answer(&(out, rows)) == expect);
                }
                Err(e) => {
                    eprintln!("staged request failed: {e}");
                    tally.record(false);
                }
            }
        }
        let mut quiet = window.quiet_latencies(true);
        problems = layer_metrics(&mut metrics, rec.spans(), &mut quiet, &mut []);
        if let Some(us) = metrics.get("storage.typed.decode_us_p50") {
            let per_row = us * 1e3 / decoded_rows.max(1) as f64;
            metrics.set("storage.typed.decode_ns_per_row", per_row);
        }
        let mut us = |p| crate::stats::percentile(&mut latencies, p) as f64 / 1e3;
        metrics.set("service.query_p50_us", us(0.5));
        metrics.set("service.query_p95_us", us(0.95));
        let snap = workload.svc.snapshot();
        let cold = cold_build_us_p50(&workload.query, &snap, &exec)?;
        metrics.set("storage.access.cold_build_us_p50", cold);
        let scratch = crate::host::TempDir::new("probe").map_err(err)?;
        host_metrics(&mut metrics, scratch.path())?;
        write_trace(cfg, &rec)?;
    }
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        problems,
        metrics,
    })
}
