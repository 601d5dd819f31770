//! What every workload shares: the configuration exceptions, pass bounds,
//! failure accounting, the staged (traced) form of a query, and the metrics
//! derived from samples, spans and registry snapshots.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wcoj_bounds::agm_bound;
use wcoj_core::{
    execute_cancellable, plan_order, CacheMode, CancelToken, ExecOptions, ExecOutput, TraceSink,
};
use wcoj_obs::{MetricValue, MetricsSnapshot};
use wcoj_query::{ConjunctiveQuery, Database, Snapshot};
use wcoj_service::ServiceConfig;
use wcoj_storage::topology::pin_current_thread;
use wcoj_storage::{KernelCalibration, TypedRow};

use crate::report::Metrics;
use crate::spans::{self, Recorder, Span};
use crate::stats::{faster_half, percentile};
use crate::RunConfig;

/// Set-ups per run, on alternating CPUs; `setup_s` is the median of the
/// faster half.
pub const SETUP_REPS: usize = 8;
/// Cache-bypassing executions behind `storage.access.cold_build_us_p50`.
const COLD_BUILDS: usize = 20;

/// Exception 1 of 2 to `ServiceConfig::default()`: fixed kernel thresholds,
/// so work counters do not depend on the host and `~/.wcoj-tune.json` is
/// neither read nor written.
pub fn exec_options() -> ExecOptions {
    ExecOptions::default().with_calibration(KernelCalibration::fixed())
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig::default().with_exec(exec_options())
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// When a pass stops: end-to-end passes measure for a time, traced passes run
/// a fixed number of requests so that every count repeats exactly.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Duration),
    Count(u64),
}

impl Until {
    /// The bound of the untraced pass of a run: `--seconds` of wall time end
    /// to end, `per_second × --seconds` requests when tracing.
    pub fn untraced(cfg: &RunConfig, per_second: f64) -> Until {
        if cfg.trace {
            Until::Count(cfg.count(per_second))
        } else {
            Until::Deadline(Duration::from_secs_f64(cfg.seconds))
        }
    }
}

/// Requests issued and requests that failed: an error, a shed request, a
/// response the oracle rejects, or an acknowledged write missing after reopen.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Run `make` [`SETUP_REPS`] times, dropping each instance before the next is
/// built; returns the last instance and every set-up time in ns.
pub fn repeat_setup<T>(
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<u64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        pin_current_thread(rep % crate::host::nproc());
        let started = Instant::now();
        last = Some(make()?);
        times.push(started.elapsed().as_nanos() as u64);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// Length of the slices of time a pass is cut into.
const SLICE_NS: u64 = 1_000_000_000;

/// What one slice of a pass saw.
#[derive(Debug, Default)]
struct Slice {
    /// Completed requests of both kinds, and the time the client waited for
    /// them.
    requests: u64,
    busy_ns: u64,
    /// Latencies of the workload's primary request (the one the end-to-end
    /// percentiles describe), every `sample_every`-th of them.
    primary_ns: Vec<u64>,
    /// Latencies of its other requests (the writes of `stream_mixed`).
    secondary_ns: Vec<u64>,
}

/// Where the calling thread runs.
///
/// The host this runs on is shared. For seconds to minutes at a time one of
/// the two vCPUs runs everything up to 1.6× slower (a busy sibling on its
/// core, presumably) while the other does not; a thread the scheduler leaves
/// on the slow one measures the neighbour, not the code. So a measuring thread
/// moves to the next CPU at every slice boundary, which puts half of every
/// pass on the quieter CPU whichever that is, and medians are taken over the
/// quieter half of the slices.
pub struct Placement {
    started: Instant,
    placed: u64,
    cpus: usize,
}

impl Placement {
    pub fn start() -> Placement {
        let cpus = crate::host::nproc();
        pin_current_thread(0);
        Placement {
            started: Instant::now(),
            placed: 0,
            cpus,
        }
    }

    fn slice_now(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64 / SLICE_NS
    }

    /// Call before each request: moves the thread at a slice boundary.
    pub fn place(&mut self) {
        let slice = self.slice_now();
        if slice != self.placed {
            self.placed = slice;
            pin_current_thread(slice as usize % self.cpus);
        }
    }
}

/// The median of the faster half of `values`.
pub fn quiet_half_median(values: &[u64]) -> u64 {
    let mut half = faster_half(values.iter().map(|&v| (v, v)).collect());
    percentile(&mut half, 0.5)
}

/// The clock, the sample log and the thread placement of one untraced pass.
pub struct Window {
    placement: Placement,
    until: Until,
    /// Keep one primary latency in this many: a workload of 10 µs requests
    /// would otherwise log more bytes than the service it measures holds.
    sample_every: u64,
    primaries: u64,
    slices: Vec<Slice>,
}

impl Window {
    pub fn start(until: Until, sample_every: u64) -> Window {
        Window {
            placement: Placement::start(),
            until,
            sample_every,
            primaries: 0,
            slices: Vec::new(),
        }
    }

    /// Whether the pass is over, `done` units of its count in.
    pub fn reached(&self, done: u64) -> bool {
        match self.until {
            Until::Deadline(d) => self.placement.started.elapsed() >= d,
            Until::Count(n) => done >= n,
        }
    }

    /// Call before each request.
    pub fn place(&mut self) {
        self.placement.place();
    }

    /// A request completed now, after `ns`.
    pub fn record(&mut self, ns: u64, primary: bool) {
        let slice = self.placement.slice_now() as usize;
        if self.slices.len() <= slice {
            self.slices.resize_with(slice + 1, Slice::default);
        }
        let slice = &mut self.slices[slice];
        slice.requests += 1;
        slice.busy_ns += ns;
        if !primary {
            slice.secondary_ns.push(ns);
        } else {
            if self.primaries.is_multiple_of(self.sample_every) {
                slice.primary_ns.push(ns);
            }
            self.primaries += 1;
        }
    }

    fn latencies_of<'a>(slices: impl Iterator<Item = &'a Slice>, primary: bool) -> Vec<u64> {
        let of_kind = slices.map(|s| match primary {
            true => &s.primary_ns,
            false => &s.secondary_ns,
        });
        of_kind.flatten().copied().collect()
    }

    /// The logged latencies of the primary or of the other requests.
    pub fn latencies(&self, primary: bool) -> Vec<u64> {
        Self::latencies_of(self.slices.iter(), primary)
    }

    /// The quieter half of the slices, ranked by the median latency of their
    /// primary requests.
    fn quiet_slices(&mut self) -> Vec<&Slice> {
        let with_samples = self.slices.iter_mut().filter(|s| !s.primary_ns.is_empty());
        faster_half(
            with_samples
                .map(|s| (percentile(&mut s.primary_ns, 0.5), &*s))
                .collect(),
        )
    }

    /// [`Window::latencies`] of the quieter half of the slices.
    pub fn quiet_latencies(&mut self, primary: bool) -> Vec<u64> {
        Self::latencies_of(self.quiet_slices().into_iter(), primary)
    }
}

/// The end-to-end metrics of a time-bounded pass: the median and the
/// throughput over the quieter half of its slices (see [`Placement`]).
pub fn end_to_end(metrics: &mut Metrics, setups_ns: &[u64], window: &mut Window) {
    let quiet = window.quiet_slices();
    let mut primary = Window::latencies_of(quiet.iter().copied(), true);
    let requests: u64 = quiet.iter().map(|s| s.requests).sum();
    let busy_ns: u64 = quiet.iter().map(|s| s.busy_ns).sum();
    metrics.set("setup_s", quiet_half_median(setups_ns) as f64 / 1e9);
    metrics.set("request_p50_ms", percentile(&mut primary, 0.5) as f64 / 1e6);
    metrics.set("ops_per_s", requests as f64 / (busy_ns as f64 / 1e9));
    metrics.set("peak_rss_mb", crate::host::peak_rss_mb());
}

/// Whole-window diagnostics of the primary request, printed beside the result
/// and gated by nothing: the sample count says how much each percentile is
/// worth, and the distance of `p50_ms` to the result's quiet-half median says
/// how disturbed the window was.
pub fn diagnostics(primary_ns: &mut [u64]) -> String {
    let [p50, p95, p99, max] =
        [0.5, 0.95, 0.99, 1.0].map(|p| percentile(primary_ns, p) as f64 / 1e6);
    format!(
        "{{\"samples\": {}, \"p50_ms\": {p50}, \"p95_ms\": {p95}, \"p99_ms\": {p99}, \"max_ms\": {max}}}",
        primary_ns.len()
    )
}

/// Exact work and cache tallies summed over the queries of a pass.
#[derive(Debug, Default)]
pub struct QuerySums {
    queries: u64,
    rows: u64,
    total_work: u64,
    merge: u64,
    gallop: u64,
    bitmap: u64,
    delta_merge: u64,
    agm_tuples: f64,
}

impl QuerySums {
    /// `db` is the catalog the query ran against; it is given only by traced
    /// runs, which also report the AGM bound (an LP solve per query).
    pub fn add(&mut self, out: &ExecOutput, query: &ConjunctiveQuery, db: Option<&Database>) {
        self.queries += 1;
        self.rows += out.result.len() as u64;
        self.total_work += out.work.total_work();
        self.merge += out.work.kernel_merge();
        self.gallop += out.work.kernel_gallop();
        self.bitmap += out.work.kernel_bitmap();
        self.delta_merge += out.work.delta_merge();
        if let Some(db) = db {
            self.agm_tuples += agm_bound(query, db).map_or(0.0, |b| b.tuple_bound());
        }
    }

    /// Per-query averages: exact, because a traced pass runs a fixed number
    /// of queries over inputs the seed fixes.
    pub fn report(&self, metrics: &mut Metrics) {
        let per_query = |v: u64| v as f64 / self.queries.max(1) as f64;
        metrics.set("core.exec.total_work", per_query(self.total_work));
        metrics.set(
            "core.exec.work_per_row",
            self.total_work as f64 / self.rows.max(1) as f64,
        );
        if self.agm_tuples > 0.0 {
            metrics.set(
                "core.exec.work_over_agm",
                self.total_work as f64 / self.agm_tuples,
            );
        }
        metrics.set("storage.kernels.merge", per_query(self.merge));
        metrics.set("storage.kernels.gallop", per_query(self.gallop));
        metrics.set("storage.kernels.bitmap", per_query(self.bitmap));
        metrics.set(
            "storage.delta.merge_work_per_query",
            per_query(self.delta_merge),
        );
    }
}

/// One query performed in stages from the benchmark's own code, in the order
/// `QueryService::query` performs them: pin a snapshot, plan, execute under a
/// never-firing token, and (for typed consumers) decode. Each stage is a span
/// under one `query` root; the executor's build and join phases come from the
/// library's `QueryTrace` and are laid out back to back from the start of the
/// `core.exec` span (their durations are measured, their offsets are not).
pub fn staged_query(
    rec: &mut Recorder,
    request: u64,
    pin: impl FnOnce() -> Snapshot,
    query: &ConjunctiveQuery,
    exec: &ExecOptions,
    decode: bool,
) -> Result<(ExecOutput, Snapshot, Option<Vec<TypedRow>>), String> {
    let root = rec.root("query", request);
    let span = rec.child("query.snapshot", root);
    let snap = pin();
    rec.close(span);
    let span = rec.child("core.planner", root);
    let order = plan_order(query, &snap, exec).map_err(err)?;
    rec.close(span);
    let sink = Arc::new(TraceSink::new());
    let traced = exec.with_trace(Arc::clone(&sink));
    let span = rec.child("core.exec", root);
    let out = execute_cancellable(query, &snap, &traced, Some(&order), &CancelToken::new())
        .map_err(err)?;
    rec.close(span);
    let trace = sink.take().ok_or("traced execution left no trace")?;
    rec.measured_child("core.exec.build", span, 0, trace.build_ns);
    rec.measured_child("core.exec.join", span, trace.build_ns, trace.join_ns);
    let rows = if decode {
        let span = rec.child("storage.typed", root);
        let rows = out
            .typed_rows(query, &snap)
            .map_err(err)?
            .to_rows()
            .map_err(err)?;
        rec.close(span);
        Some(rows)
    } else {
        None
    };
    rec.close(root);
    Ok((out, snap, rows))
}

/// Median access-structure build time with the cache bypassed.
pub fn cold_build_us_p50(
    query: &ConjunctiveQuery,
    snap: &Snapshot,
    exec: &ExecOptions,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(COLD_BUILDS);
    for _ in 0..COLD_BUILDS {
        let sink = Arc::new(TraceSink::new());
        let cold = exec
            .with_cache(CacheMode::Off)
            .with_trace(Arc::clone(&sink));
        execute_cancellable(query, snap, &cold, None, &CancelToken::new()).map_err(err)?;
        samples.push(sink.take().ok_or("no trace")?.build_ns);
    }
    Ok(percentile(&mut samples, 0.5) as f64 / 1e3)
}

const QUERY_LAYERS: [(&str, &str); 6] = [
    ("query.snapshot", "query.snapshot.clone_us_p50"),
    ("core.planner", "core.planner.plan_us_p50"),
    ("core.exec", "core.exec.materialize_us_p50"),
    ("core.exec.build", "core.exec.build_us_p50"),
    ("core.exec.join", "core.exec.join_us_p50"),
    ("storage.typed", "storage.typed.decode_us_p50"),
];

const WRITE_LAYERS: [(&str, &str); 3] = [
    ("storage.wal.append", "storage.wal.append_us_p50"),
    ("storage.wal.fsync", "storage.wal.fsync_us_p50"),
    ("query.database", "query.database.apply_us_p50"),
];

/// How well the staged spans of one request kind explain its untraced median.
struct Decomposition {
    /// Σ layer self-time medians / untraced median.
    coverage: f64,
    /// Untraced median − Σ layer self-time medians: what the service adds
    /// around the layers (admission, tokens, group-commit hand-off, stats).
    service_us: f64,
    /// Staged request median / untraced median − 1.
    overhead_frac: f64,
}

fn decompose(
    metrics: &mut Metrics,
    spans: &[Span],
    root: &str,
    layers: &[(&str, &'static str)],
    untraced_ns: &mut [u64],
) -> Option<Decomposition> {
    let mut roots = spans::durations(spans, root);
    if roots.is_empty() || untraced_ns.is_empty() {
        return None;
    }
    let mut by_name = spans::self_times_by_name(spans);
    let mut staged_us = 0.0;
    for &(span, metric) in layers {
        if let Some(samples) = by_name.get_mut(span) {
            let p50_us = percentile(samples, 0.5) as f64 / 1e3;
            metrics.set(metric, p50_us);
            staged_us += p50_us;
        }
    }
    let untraced_us = percentile(untraced_ns, 0.5) as f64 / 1e3;
    Some(Decomposition {
        coverage: staged_us / untraced_us,
        service_us: untraced_us - staged_us,
        overhead_frac: percentile(&mut roots, 0.5) as f64 / 1e3 / untraced_us - 1.0,
    })
}

/// Per-layer medians from the staged spans of the quieter half of the staged
/// pass, and how they add up against the untraced samples (of the quieter
/// half of the untraced pass) of the same run. Returns the problems found.
pub fn layer_metrics(
    metrics: &mut Metrics,
    spans: &[Span],
    untraced_query_ns: &mut [u64],
    untraced_write_ns: &mut [u64],
) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = spans::check_nesting(spans) {
        problems.push(format!("spans are not well nested: {e}"));
    }
    metrics.set(
        "trace.requests",
        spans.iter().filter(|s| s.parent.is_none()).count() as f64,
    );
    let spans = &spans::quiet_half(spans, "query", SLICE_NS);
    let query = decompose(metrics, spans, "query", &QUERY_LAYERS, untraced_query_ns);
    let write = decompose(metrics, spans, "write", &WRITE_LAYERS, untraced_write_ns);
    if let Some(w) = &write {
        metrics.set("service.write_overhead_us_p50", w.service_us);
        metrics.set("trace.write_coverage", w.coverage);
    }
    match query {
        Some(d) => {
            metrics.set("service.overhead_us_p50", d.service_us);
            metrics.set("trace.coverage", d.coverage);
            metrics.set("trace.overhead_frac", d.overhead_frac);
            if !(0.90..=1.10).contains(&d.coverage) {
                // reported, not failed: the responses are still correct, the
                // layer times just do not add up to the untraced request
                eprintln!(
                    "reqbench: decomposition invalid: trace.coverage {:.3} outside [0.90, 1.10]",
                    d.coverage
                );
            }
        }
        None => problems.push("no staged query spans".to_string()),
    }
    problems
}

/// `after − before` of a registry counter.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let get = |s: &MetricsSnapshot| s.counter_value(name).unwrap_or(0);
    (get(after) - get(before)) as f64
}

/// Mean of the observations a registry histogram took between two snapshots.
pub fn histogram_mean(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let get = |s: &MetricsSnapshot| match s.get(name) {
        Some(MetricValue::Histogram { sum, count, .. }) => (*sum, *count),
        _ => (0, 0),
    };
    let ((sum0, count0), (sum1, count1)) = (get(before), get(after));
    if count1 == count0 {
        0.0
    } else {
        (sum1 - sum0) as f64 / (count1 - count0) as f64
    }
}

/// Admission and cache counters of the service between two snapshots.
pub fn registry_metrics(metrics: &mut Metrics, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let delta = |name| counter_delta(before, after, name);
    metrics.set("service.admitted", delta("service.admitted"));
    metrics.set("service.shed", delta("service.shed"));
    let (hits, misses, merges) = (
        delta("cache.hits"),
        delta("cache.misses"),
        delta("cache.incremental_merges"),
    );
    if hits + misses + merges > 0.0 {
        metrics.set("storage.cache.hit_ratio", hits / (hits + misses + merges));
    }
    metrics.set("storage.cache.misses", misses);
    metrics.set("storage.cache.incremental_merges", merges);
    metrics.set("storage.cache.evictions", delta("cache.evictions"));
    metrics.set(
        "storage.cache.resident_bytes",
        after.gauge_value("cache.resident_bytes").unwrap_or(0) as f64,
    );
}

/// Host facts every traced run reports beside its layers.
pub fn host_metrics(metrics: &mut Metrics, dir: &std::path::Path) -> Result<(), String> {
    metrics.set("host.nproc", crate::host::nproc() as f64);
    metrics.set("host.simd_level", crate::host::simd_level_code() as f64);
    metrics.set(
        "host.fsync_probe_us",
        crate::host::fsync_probe_us(dir).map_err(err)?,
    );
    metrics.set(
        "host.tmp_is_tmpfs",
        f64::from(u8::from(crate::host::is_tmpfs(dir))),
    );
    Ok(())
}

/// Write the spans where `--trace-out` says, if it was given.
pub fn write_trace(cfg: &RunConfig, rec: &Recorder) -> Result<(), String> {
    match &cfg.trace_out {
        Some(path) => spans::write_jsonl(rec.spans(), path).map_err(err),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_describes_the_quieter_half_of_the_slices() {
        // four slices of 100 primary requests: two at 1 ms, two disturbed
        // (2 ms), each with one other request of 3 ms
        let mut window = Window::start(Until::Count(0), 1);
        for slice in 0..4 {
            let ns = if slice % 2 == 0 { 1_000_000 } else { 2_000_000 };
            window.slices.push(Slice {
                requests: 101,
                busy_ns: 100 * ns + 3_000_000,
                primary_ns: vec![ns; 100],
                secondary_ns: vec![3_000_000],
            });
        }
        let mut metrics = Metrics::default();
        end_to_end(&mut metrics, &[3, 1, 2], &mut window);
        assert_eq!(
            metrics.get("setup_s"),
            Some(1e-9),
            "median of the faster half"
        );
        assert_eq!(metrics.get("request_p50_ms"), Some(1.0));
        // 202 requests of the quiet slices in 206 ms of waiting
        assert_eq!(metrics.get("ops_per_s"), Some(202.0 / 0.206));
        assert!(metrics.get("peak_rss_mb").unwrap() > 0.0);
        assert_eq!(window.latencies(false), vec![3_000_000; 4]);
    }

    #[test]
    fn window_logs_every_nth_primary_latency_and_counts_all() {
        let mut window = Window::start(Until::Count(10), 4);
        assert!(!window.reached(9) && window.reached(10));
        for i in 0..10 {
            window.place();
            window.record(100 + i, true);
            window.record(7, false);
        }
        assert_eq!(window.latencies(true), [100, 104, 108]);
        assert_eq!(window.latencies(false), [7; 10]);
        let (requests, busy): (u64, u64) = window
            .slices
            .iter()
            .fold((0, 0), |(r, b), s| (r + s.requests, b + s.busy_ns));
        assert_eq!((requests, busy), (20, 1045 + 70));
    }

    #[test]
    fn layer_medians_add_up_against_the_untraced_median() {
        let mut rec = Recorder::new();
        let root = rec.root("query", 1);
        rec.close(root);
        let mut spans = rec.spans().to_vec();
        spans[0].end_ns = spans[0].start_ns + 100_000;
        let exec = Span {
            name: "core.exec",
            request: 1,
            parent: Some(0),
            start_ns: spans[0].start_ns + 10_000,
            end_ns: spans[0].start_ns + 100_000,
        };
        let join = Span {
            name: "core.exec.join",
            parent: Some(1),
            start_ns: exec.start_ns,
            end_ns: exec.start_ns + 60_000,
            ..exec.clone()
        };
        spans.extend([exec, join]);
        let mut metrics = Metrics::default();
        let problems = layer_metrics(&mut metrics, &spans, &mut [120_000], &mut []);
        assert_eq!(problems, Vec::<String>::new());
        assert_eq!(metrics.get("core.exec.join_us_p50"), Some(60.0));
        assert_eq!(metrics.get("core.exec.materialize_us_p50"), Some(30.0));
        assert_eq!(metrics.get("trace.coverage"), Some(90.0 / 120.0));
        assert_eq!(metrics.get("service.overhead_us_p50"), Some(30.0));
        assert_eq!(
            metrics.get("trace.overhead_frac"),
            Some(100.0 / 120.0 - 1.0)
        );
        assert_eq!(metrics.get("trace.requests"), Some(1.0));
        assert_eq!(metrics.get("trace.write_coverage"), None);
    }
}
