//! The query-trace model behind EXPLAIN ANALYZE and the slow-query log.
//!
//! A [`TraceSink`] is the opt-in hook the executor fills in: at the end of a
//! traced query it deposits one [`QueryTrace`] describing the plan choice,
//! per-level join statistics, cache outcomes, phase timings, and (when
//! parallel) morsel scheduling. The [`LevelRecorder`] is the engine-side
//! accumulator: per-level atomic tallies that worker threads add into
//! concurrently, whose *sums* are scheduling-independent — so every
//! deterministic trace field is identical run-to-run and thread-count-to-
//! thread-count, with wall-clock times and per-worker morsel claims the only
//! nondeterministic fields (see [`QueryTrace::strip_nondeterministic`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{json, unpoison};

/// Which intersection kernel handled a level call (the trace-side mirror of
/// the storage crate's kernel kinds, kept separate so this crate stays at the
/// bottom of the dependency graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKernel {
    /// Branchless merge intersection.
    Merge,
    /// Galloping (exponential-search) intersection.
    Gallop,
    /// Span-windowed bitmap intersection.
    Bitmap,
}

/// Deterministic per-variable-level join statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LevelTrace {
    /// Variable bound at this level (in plan order).
    pub var: String,
    /// Total extension-set candidates produced at this level.
    pub candidates: u64,
    /// Bindings pushed past this level (rows emitted, at the deepest level).
    pub emitted: u64,
    /// Intersections dispatched to the merge kernel.
    pub kernel_merge: u64,
    /// Intersections dispatched to the galloping kernel.
    pub kernel_gallop: u64,
    /// Intersections dispatched to the bitmap kernel.
    pub kernel_bitmap: u64,
    /// Intersection steps charged at this level.
    pub intersect_steps: u64,
    /// Comparisons charged at this level.
    pub comparisons: u64,
    /// Kernel probes charged at this level: galloping search probes and bitset
    /// words touched — the only charge of an intersection over prebuilt set
    /// layouts, which scans nothing.
    pub probes: u64,
}

/// Cache outcome for one atom's access structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomTrace {
    /// Relation name.
    pub relation: String,
    /// Structure serving the atom: "trie" (one trie) or "delta" (the union
    /// cursor over a log's runs).
    pub kind: String,
    /// Cache outcome: "hit", "miss", "incremental", or "bypass".
    pub outcome: String,
    /// Wall-clock nanoseconds spent obtaining this structure
    /// (nondeterministic).
    pub build_ns: u64,
}

/// Per-worker morsel scheduling statistics (nondeterministic: which worker
/// claims which morsel depends on thread timing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTrace {
    /// Morsels this worker claimed in total.
    pub claimed: u64,
    /// CPU the worker was pinned to, if pinning was active.
    pub pin: Option<usize>,
}

/// Morsel-level parallelism summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MorselTrace {
    /// Number of morsels the level-0 extension set was chunked into
    /// (deterministic).
    pub morsels: u64,
    /// Per-worker claim statistics, indexed by worker id.
    pub workers: Vec<WorkerTrace>,
}

/// Everything EXPLAIN ANALYZE knows about one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Engine name (e.g. `GenericJoin`).
    pub engine: String,
    /// What was built, over all atoms: `trie`, `delta`, `mixed`, or `none`
    /// (the binary baseline builds no access structure).
    pub backend: String,
    /// Worker thread count (1 = serial).
    pub threads: usize,
    /// Chosen variable order, by name.
    pub order: Vec<String>,
    /// The planner's estimate per level of `order`: `log2` of the AGM bound of
    /// the query restricted to the variables bound so far, which bounds that
    /// level's `candidates` (empty when the bound could not be solved).
    pub prefix_log2: Vec<f64>,
    /// AGM bound exponent: log2 of the output-size bound.
    pub agm_log2: f64,
    /// AGM bound in tuples (`2^agm_log2`).
    pub agm_tuples: f64,
    /// Actual output rows.
    pub rows: u64,
    /// Planning wall-time, ns (nondeterministic).
    pub plan_ns: u64,
    /// Access-structure build wall-time, ns (nondeterministic).
    pub build_ns: u64,
    /// Join wall-time, ns (nondeterministic).
    pub join_ns: u64,
    /// Total wall-time, ns (nondeterministic).
    pub total_ns: u64,
    /// Per-atom access-structure cache outcomes.
    pub atoms: Vec<AtomTrace>,
    /// Per-level join statistics, in plan order.
    pub levels: Vec<LevelTrace>,
    /// Morsel scheduling summary (parallel runs only).
    pub morsels: Option<MorselTrace>,
    /// Work-counter tallies: (name, value) pairs, deterministic.
    pub work: Vec<(String, u64)>,
    /// Access-cache hits during this query.
    pub cache_hits: u64,
    /// Access-cache misses during this query.
    pub cache_misses: u64,
    /// Incremental delta-view merges during this query.
    pub cache_incremental: u64,
    /// Cache evictions triggered by this query's insertions.
    pub cache_evictions: u64,
}

impl QueryTrace {
    /// Zero out every nondeterministic field (wall-clock times, per-worker
    /// claim distribution), leaving exactly the fields that must be identical
    /// across repeated runs of the same plan. The trace-neutrality property
    /// suite compares `strip_nondeterministic` forms of independent runs.
    pub fn strip_nondeterministic(&mut self) {
        self.plan_ns = 0;
        self.build_ns = 0;
        self.join_ns = 0;
        self.total_ns = 0;
        for a in &mut self.atoms {
            a.build_ns = 0;
        }
        if let Some(m) = &mut self.morsels {
            // morsel count and worker count are deterministic; who claimed
            // what is not
            for w in &mut m.workers {
                w.claimed = 0;
            }
        }
    }

    /// The planner's `log2` bound on level `i`'s candidates (NaN when unsolved).
    pub fn level_bound(&self, i: usize) -> f64 {
        self.prefix_log2.get(i).copied().unwrap_or(f64::NAN)
    }

    /// Look up one work tally by name.
    pub fn work_value(&self, name: &str) -> Option<u64> {
        self.work.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Render the trace as a JSON object (hand-rolled, stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"engine\": \"{}\", ", json::escape(&self.engine)));
        out.push_str(&format!(
            "\"backend\": \"{}\", ",
            json::escape(&self.backend)
        ));
        out.push_str(&format!("\"threads\": {}, ", self.threads));
        out.push_str("\"order\": [");
        for (i, v) in self.order.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json::escape(v)));
        }
        out.push_str("], ");
        out.push_str(&format!("\"agm_log2\": {}, ", json::num(self.agm_log2)));
        out.push_str(&format!("\"agm_tuples\": {}, ", json::num(self.agm_tuples)));
        out.push_str(&format!("\"rows\": {}, ", self.rows));
        out.push_str(&format!(
            "\"phases_ns\": {{\"plan\": {}, \"build\": {}, \"join\": {}, \"total\": {}}}, ",
            self.plan_ns, self.build_ns, self.join_ns, self.total_ns
        ));
        out.push_str("\"atoms\": [");
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"relation\": \"{}\", \"kind\": \"{}\", \"outcome\": \"{}\", \"build_ns\": {}}}",
                json::escape(&a.relation),
                json::escape(&a.kind),
                json::escape(&a.outcome),
                a.build_ns
            ));
        }
        out.push_str("], ");
        out.push_str("\"levels\": [");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"var\": \"{}\", \"prefix_log2\": {}, \"candidates\": {}, \"emitted\": {}, \
                 \"kernel_merge\": {}, \"kernel_gallop\": {}, \"kernel_bitmap\": {}, \
                 \"intersect_steps\": {}, \"comparisons\": {}, \"probes\": {}}}",
                json::escape(&l.var),
                json::num(self.level_bound(i)),
                l.candidates,
                l.emitted,
                l.kernel_merge,
                l.kernel_gallop,
                l.kernel_bitmap,
                l.intersect_steps,
                l.comparisons,
                l.probes
            ));
        }
        out.push_str("], ");
        match &self.morsels {
            None => out.push_str("\"morsels\": null, "),
            Some(m) => {
                out.push_str(&format!(
                    "\"morsels\": {{\"count\": {}, \"workers\": [",
                    m.morsels
                ));
                for (i, w) in m.workers.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"claimed\": {}, \"pin\": {}}}",
                        w.claimed,
                        w.pin.map_or("null".to_string(), |p| p.to_string())
                    ));
                }
                out.push_str("]}, ");
            }
        }
        out.push_str("\"work\": {");
        for (i, (name, value)) in self.work.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", json::escape(name), value));
        }
        out.push_str("}, ");
        out.push_str(&format!(
            "\"cache\": {{\"hits\": {}, \"misses\": {}, \"incremental\": {}, \"evictions\": {}}}",
            self.cache_hits, self.cache_misses, self.cache_incremental, self.cache_evictions
        ));
        out.push('}');
        out
    }

    /// Render the trace as the human-readable EXPLAIN ANALYZE tree.
    pub fn render_tree(&self) -> String {
        fn ms(ns: u64) -> String {
            format!("{:.3} ms", ns as f64 / 1e6)
        }
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN ANALYZE — {} backend={} threads={} total {}\n",
            self.engine,
            self.backend,
            self.threads,
            ms(self.total_ns)
        ));
        out.push_str(&format!(
            "├─ plan   {}  order [{}]  AGM ≈ 2^{:.2} ({:.0} tuples)  actual rows {}\n",
            ms(self.plan_ns),
            self.order.join(", "),
            self.agm_log2,
            self.agm_tuples,
            self.rows
        ));
        out.push_str(&format!("├─ build  {}\n", ms(self.build_ns)));
        for a in &self.atoms {
            out.push_str(&format!(
                "│    {} [{}]: cache {} ({})\n",
                a.relation,
                a.kind,
                a.outcome,
                ms(a.build_ns)
            ));
        }
        out.push_str(&format!("├─ join   {}\n", ms(self.join_ns)));
        for (i, l) in self.levels.iter().enumerate() {
            let branch = if i + 1 == self.levels.len() && self.morsels.is_none() {
                "└─"
            } else {
                "├─"
            };
            out.push_str(&format!(
                "│  {} level {} {}: bound 2^{:.2} candidates {} emitted {} | kernels merge={} \
                 gallop={} bitmap={} | steps {} cmp {} probes {}\n",
                branch,
                i,
                l.var,
                self.level_bound(i),
                l.candidates,
                l.emitted,
                l.kernel_merge,
                l.kernel_gallop,
                l.kernel_bitmap,
                l.intersect_steps,
                l.comparisons,
                l.probes
            ));
        }
        if let Some(m) = &self.morsels {
            out.push_str(&format!(
                "│  └─ morsels: {} over {} workers",
                m.morsels,
                m.workers.len()
            ));
            for (i, w) in m.workers.iter().enumerate() {
                let pin = w.pin.map_or("-".to_string(), |p| format!("cpu{p}"));
                out.push_str(&format!(
                    "{} w{}: {} claimed pin={}",
                    if i == 0 { " — " } else { "; " },
                    i,
                    w.claimed,
                    pin
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "├─ cache  hits={} misses={} incremental={} evictions={}\n",
            self.cache_hits, self.cache_misses, self.cache_incremental, self.cache_evictions
        ));
        out.push_str("└─ work   ");
        for (i, (name, value)) in self.work.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{name}={value}"));
        }
        out.push('\n');
        out
    }
}

/// Per-level accumulator the engines add into while a traced query runs. A
/// recorder has **one writer at a time**: an update is a plain load and store
/// (the cells are atomics only so that the recorder can be shared by reference
/// across a thread scope without `unsafe`), because a locked read-modify-write
/// per intersection stalls on the result stores the engine has just issued —
/// tracing a 16 k-intersection triangle join cost 0.5 ms that way. A parallel
/// run gives every worker a private recorder and [`LevelRecorder::absorb`]s
/// them once the workers have joined; all tallies are commutative sums, so the
/// totals equal a serial run's and parallel traces stay deterministic.
#[derive(Debug)]
pub struct LevelRecorder {
    levels: Vec<LevelCells>,
}

#[derive(Debug, Default)]
struct LevelCells {
    candidates: AtomicU64,
    emitted: AtomicU64,
    kernel_merge: AtomicU64,
    kernel_gallop: AtomicU64,
    kernel_bitmap: AtomicU64,
    intersect_steps: AtomicU64,
    comparisons: AtomicU64,
    probes: AtomicU64,
}

impl LevelCells {
    fn all(&self) -> [&AtomicU64; 8] {
        [
            &self.candidates,
            &self.emitted,
            &self.kernel_merge,
            &self.kernel_gallop,
            &self.kernel_bitmap,
            &self.intersect_steps,
            &self.comparisons,
            &self.probes,
        ]
    }
}

/// `cell += n` by its one writer: a plain load and store, not a locked
/// read-modify-write (see [`LevelRecorder`]).
#[inline]
fn add(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

impl LevelRecorder {
    /// A recorder for `n` variable levels.
    pub fn new(n: usize) -> Self {
        LevelRecorder {
            levels: (0..n).map(|_| LevelCells::default()).collect(),
        }
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True if the recorder has no levels.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Record one intersection at `level`: how many candidates it produced,
    /// which kernel handled it (`None` when a short-circuit or seek path
    /// skipped the kernel layer), and the work it charged as
    /// `[intersect_steps, comparisons, probes]`.
    pub fn record_intersection(
        &self,
        level: usize,
        candidates: u64,
        kernel: Option<TraceKernel>,
        [steps, comparisons, probes]: [u64; 3],
    ) {
        let cells = &self.levels[level];
        add(&cells.candidates, candidates);
        match kernel {
            Some(TraceKernel::Merge) => add(&cells.kernel_merge, 1),
            Some(TraceKernel::Gallop) => add(&cells.kernel_gallop, 1),
            Some(TraceKernel::Bitmap) => add(&cells.kernel_bitmap, 1),
            None => {}
        }
        add(&cells.intersect_steps, steps);
        add(&cells.comparisons, comparisons);
        add(&cells.probes, probes);
    }

    /// Record `n` bindings pushed past `level` (rows, at the deepest level).
    pub fn record_emitted(&self, level: usize, n: u64) {
        add(&self.levels[level].emitted, n);
    }

    /// Add everything `other` (over the same levels) recorded to this recorder
    /// — how a morsel worker's private tallies reach the execution's.
    pub fn absorb(&self, other: &LevelRecorder) {
        for (cells, more) in self.levels.iter().zip(&other.levels) {
            for (cell, more) in cells.all().into_iter().zip(more.all()) {
                add(cell, more.load(Ordering::Relaxed));
            }
        }
    }

    /// Fold the recorded tallies into [`LevelTrace`]s, naming each level from
    /// `vars` (plan order).
    pub fn into_levels(self, vars: &[String]) -> Vec<LevelTrace> {
        self.levels
            .into_iter()
            .enumerate()
            .map(|(i, c)| LevelTrace {
                var: vars.get(i).cloned().unwrap_or_else(|| format!("v{i}")),
                candidates: c.candidates.into_inner(),
                emitted: c.emitted.into_inner(),
                kernel_merge: c.kernel_merge.into_inner(),
                kernel_gallop: c.kernel_gallop.into_inner(),
                kernel_bitmap: c.kernel_bitmap.into_inner(),
                intersect_steps: c.intersect_steps.into_inner(),
                comparisons: c.comparisons.into_inner(),
                probes: c.probes.into_inner(),
            })
            .collect()
    }
}

/// The opt-in trace hook carried on `ExecOptions`: the executor deposits one
/// [`QueryTrace`] per traced run; the caller [`take`](TraceSink::take)s it.
/// Shared as `Arc<TraceSink>` so options stay cloneable.
#[derive(Debug, Default)]
pub struct TraceSink {
    slot: Mutex<Option<QueryTrace>>,
}

impl TraceSink {
    /// New empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Deposit a trace (replacing any previous one).
    pub fn record(&self, trace: QueryTrace) {
        *unpoison(self.slot.lock()) = Some(trace);
    }

    /// Remove and return the most recent trace.
    pub fn take(&self) -> Option<QueryTrace> {
        unpoison(self.slot.lock()).take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> QueryTrace {
        QueryTrace {
            engine: "GenericJoin".into(),
            backend: "Trie".into(),
            threads: 4,
            order: vec!["a".into(), "b".into(), "c".into()],
            prefix_log2: vec![7.0, 9.5, 13.4],
            agm_log2: 13.4,
            agm_tuples: 10809.0,
            rows: 2783,
            plan_ns: 10_000,
            build_ns: 450_000,
            join_ns: 770_000,
            total_ns: 1_230_000,
            atoms: vec![AtomTrace {
                relation: "E".into(),
                kind: "delta".into(),
                outcome: "hit".into(),
                build_ns: 123,
            }],
            levels: vec![LevelTrace {
                var: "a".into(),
                candidates: 128,
                emitted: 128,
                kernel_merge: 5,
                kernel_gallop: 0,
                kernel_bitmap: 1,
                intersect_steps: 1234,
                comparisons: 567,
                probes: 89,
            }],
            morsels: Some(MorselTrace {
                morsels: 32,
                workers: vec![WorkerTrace {
                    claimed: 9,
                    pin: Some(0),
                }],
            }),
            work: vec![("total_work".into(), 4567), ("output_tuples".into(), 2783)],
            cache_hits: 2,
            cache_misses: 1,
            cache_incremental: 0,
            cache_evictions: 0,
        }
    }

    #[test]
    fn json_parses_and_exposes_fields() {
        let t = sample();
        let v = Json::parse(&t.to_json()).expect("trace JSON parses");
        assert_eq!(v.get("engine").unwrap().as_str(), Some("GenericJoin"));
        assert_eq!(v.get("rows").unwrap().as_u64(), Some(2783));
        let levels = v.get("levels").unwrap().as_arr().unwrap();
        assert_eq!(levels[0].get("kernel_merge").unwrap().as_u64(), Some(5));
        assert_eq!(levels[0].get("probes").unwrap().as_u64(), Some(89));
        // the planner's estimate beside the actual
        assert_eq!(levels[0].get("prefix_log2").unwrap().as_f64(), Some(7.0));
        let morsels = v.get("morsels").unwrap();
        assert_eq!(morsels.get("count").unwrap().as_u64(), Some(32));
        assert_eq!(
            v.get("work").unwrap().get("total_work").unwrap().as_u64(),
            Some(4567)
        );
    }

    #[test]
    fn tree_mentions_kernels_cache_and_time() {
        let t = sample();
        let tree = t.render_tree();
        assert!(tree.contains("EXPLAIN ANALYZE"));
        assert!(tree.contains("level 0 a: bound 2^7.00 candidates 128"));
        assert!(tree.contains("merge=5"));
        assert!(tree.contains("cache hit"));
        assert!(tree.contains("hits=2"));
        assert!(tree.contains("32 over 1 workers"));
    }

    #[test]
    fn strip_nondeterministic_equalizes_timing_variants() {
        let mut a = sample();
        let mut b = sample();
        b.plan_ns = 999;
        b.atoms[0].build_ns = 7;
        b.morsels.as_mut().unwrap().workers[0].claimed = 3;
        assert_ne!(a, b);
        a.strip_nondeterministic();
        b.strip_nondeterministic();
        assert_eq!(a, b);
    }

    #[test]
    fn recorder_sums_are_order_independent() {
        let r = LevelRecorder::new(2);
        r.record_intersection(0, 10, Some(TraceKernel::Merge), [20, 5, 0]);
        r.record_intersection(0, 7, Some(TraceKernel::Gallop), [3, 1, 9]);
        r.record_intersection(1, 2, None, [0, 0, 0]);
        r.record_emitted(1, 2);
        let levels = r.into_levels(&["x".to_string(), "y".to_string()]);
        assert_eq!(levels[0].candidates, 17);
        assert_eq!(levels[0].kernel_merge, 1);
        assert_eq!(levels[0].kernel_gallop, 1);
        assert_eq!(levels[0].intersect_steps, 23);
        assert_eq!((levels[0].comparisons, levels[0].probes), (6, 9));
        assert_eq!(levels[1].emitted, 2);
        assert_eq!(levels[1].kernel_merge, 0);
    }

    #[test]
    fn absorbed_workers_sum_to_the_serial_recorder() {
        let names = ["x".to_string(), "y".to_string()];
        let serial = LevelRecorder::new(2);
        let (shared, workers) = (
            LevelRecorder::new(2),
            [LevelRecorder::new(2), LevelRecorder::new(2)],
        );
        shared.record_intersection(0, 4, Some(TraceKernel::Bitmap), [0, 0, 6]);
        serial.record_intersection(0, 4, Some(TraceKernel::Bitmap), [0, 0, 6]);
        for (i, worker) in workers.iter().enumerate() {
            for rec in [worker, &serial] {
                rec.record_intersection(1, 3 + i as u64, Some(TraceKernel::Merge), [1, 2, 3]);
                rec.record_emitted(1, 3 + i as u64);
                rec.record_emitted(0, 1);
            }
        }
        for worker in &workers {
            shared.absorb(worker);
        }
        assert_eq!(shared.into_levels(&names), serial.into_levels(&names));
    }

    #[test]
    fn sink_take_is_one_shot() {
        let sink = TraceSink::new();
        assert!(sink.take().is_none());
        sink.record(sample());
        assert!(sink.take().is_some());
        assert!(sink.take().is_none());
    }
}
