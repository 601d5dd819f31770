//! The unified join-execution layer.
//!
//! Three engines share one entry point, [`execute_opts_with_order`] (with
//! [`execute`] / [`execute_opts`] conveniences on top):
//!
//! * [`Engine::BinaryHash`] — the classical left-deep binary hash-join baseline
//!   ([`binary`]);
//! * [`Engine::GenericJoin`] — Algorithm 2 of the paper ([`generic`]);
//! * [`Engine::Leapfrog`] — Leapfrog Triejoin ([`leapfrog`]).
//!
//! The WCOJ engines are written **generically** over `C: TrieAccess`, so each hot
//! loop monomorphizes per storage backend — CSR [`Trie`] cursors or [`PrefixIndex`]
//! hash cursors, selected by [`Backend`] ([`Backend::Auto`] picks each algorithm's
//! native access path). Mixed backends within one query compose through
//! [`wcoj_storage::CursorKind`] with branch (not vtable) dispatch.
//!
//! Every extension set — level 0 and every deeper variable — is computed through
//! the **adaptive intersection kernel layer** ([`wcoj_storage::kernels`], via
//! `level_extension_into`): branchless merge, galloping, or small-domain
//! bitmap, chosen per intersection by the [`KernelPolicy`] carried in
//! [`ExecOptions`] (forceable for differential testing) and recorded in the
//! [`WorkCounter`] kernel breakdown. Every engine body emits result tuples
//! through one [`ColumnSink`] — one column per join level, no per-row
//! allocation — and at the deepest variable appends the kernel output itself;
//! when the join order is the identity those columns become the result
//! [`Relation`] without being copied or sorted (`rows_to_relation`).
//!
//! Access-structure **builds** flow through the per-database
//! [`wcoj_storage::AccessCache`]: `BuiltAccess::build` keys each trie, prefix
//! index, and permuted delta view by `(relation, column positions, kind, stamp)`
//! and reuses valid entries across executions — transparently for all three
//! engines, both backends, and the morsel scheduler, since builds record no
//! [`WorkCounter`] work. Delta-backed entries revalidate by **run identity**:
//! an unchanged sealed-run list is a hit, newly sealed runs appended are an
//! *incremental merge* (only the new runs get permuted), anything else (tier
//! merge, compaction) rebuilds. [`CacheMode`] on [`ExecOptions`] switches the
//! cache off or pins entries per execution, and [`ExecOutput::cache_stats`]
//! reports hits/misses/incremental merges — results and work counters are
//! bit-identical with the cache on, off, or cold.
//!
//! [`ExecOptions`] carries the full execution configuration — engine, backend,
//! worker **thread count**, kernel policy, and cache mode — through the public
//! API and the planner, so callers (benchmarks, experiment binaries, tests)
//! select serial vs morsel-parallel execution uniformly. With `threads > 1` the WCOJ engines run
//! under the morsel-driven scheduler of [`parallel`], which partitions the first
//! join variable's extension set across `std::thread::scope` workers holding
//! private cursors and private [`WorkCounter`]s — and the access-structure
//! *builds* are partitioned across the same number of scoped workers
//! ([`Trie::build_parallel`] / [`PrefixIndex::build_parallel`]); results,
//! counters, and built structures are deterministic, bit-identical to serial
//! execution.
//!
//! All engines produce the same [`Relation`] (columns in the query's variable order)
//! and thread a [`WorkCounter`] through execution so tests and benchmarks can
//! compare *work* against the AGM bound, not just wall-clock time.
//!
//! **Typed data** never reaches the engines: string columns are dictionary-encoded
//! at load time (`wcoj_query::Database`'s typed loaders), execution runs pure
//! `u64`, and [`ExecOutput::typed_rows`] decodes results back through the shared
//! per-domain dictionaries. [`execute_opts_with_order`] validates up front that
//! every atom binding a variable agrees on its type and dictionary domain
//! ([`Database::var_bindings`]), and threads the variable types into the result
//! schema untouched.

pub mod binary;
pub mod cancel;
pub mod generic;
pub mod leapfrog;
pub mod parallel;
mod sink;

pub use cancel::CancelToken;
pub use sink::ColumnSink;

use crate::error::ExecError;
use crate::planner::plan_order;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use wcoj_bounds::agm::agm_bound;
use wcoj_obs::{AtomTrace, LevelRecorder, MorselTrace, QueryTrace, TraceKernel, TraceSink};
use wcoj_query::database::VarBinding;
use wcoj_query::plan::{atom_attr_order, atom_levels, is_valid_order};
use wcoj_query::{AtomSource, ConjunctiveQuery, Database, VarId};
use wcoj_storage::typed::TypedRows;
use wcoj_storage::{
    kernels, AttrType, CacheKey, CacheKind, CachedValue, CursorKind, DeltaAccess, DeltaRelation,
    DeltaView, KernelPolicy, PrefixIndex, Relation, Schema, Trie, TrieAccess, Value, WorkCounter,
};
pub use wcoj_storage::{CacheStats, KernelCalibration};

/// Which join engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Left-deep binary hash-join plan (the one-pair-at-a-time baseline).
    BinaryHash,
    /// Generic Join (smallest-first set intersection).
    GenericJoin,
    /// Leapfrog Triejoin (mutual leapfrogging).
    Leapfrog,
}

/// Which storage access path to build for the WCOJ engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Each engine's native access path: prefix indexes for Generic Join, CSR tries
    /// for Leapfrog Triejoin.
    Auto,
    /// CSR tries for every atom.
    Trie,
    /// Prefix hash indexes for every atom.
    Hash,
}

/// How one execution uses the per-database access-structure cache
/// ([`wcoj_storage::AccessCache`]). Caching never changes results or work
/// counters — structures are bit-identical however they were obtained — so
/// this only trades build time against memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Bypass the cache entirely: build fresh structures and touch no shared
    /// state (differential baselines, one-shot queries).
    Off,
    /// Reuse valid cached structures, insert whatever gets built, and let the
    /// cost-aware policy evict under byte pressure. The default.
    #[default]
    On,
    /// Like [`CacheMode::On`], but entries this execution inserts are exempt
    /// from eviction (they still revalidate, and stale ones are replaced).
    /// For hot recurring queries that must never lose their structures.
    Pinned,
}

/// Execution configuration threaded through the public API and the planner.
///
/// Equality ignores [`ExecOptions::trace`]: a trace sink observes an execution
/// without configuring it (results and work counters are bit-identical with
/// tracing on or off), so two options differing only in their sink describe
/// the same execution.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// The join engine.
    pub engine: Engine,
    /// The storage access path for the WCOJ engines (ignored by the binary
    /// baseline).
    pub backend: Backend,
    /// Worker threads for the WCOJ engines: `1` runs serially, `n > 1` runs the
    /// morsel-driven scheduler with `n` workers, and `0` asks the OS for the
    /// available parallelism. With `n > 1` the access-structure *builds* are also
    /// partitioned across `n` scoped workers. The binary baseline always runs
    /// serially.
    pub threads: usize,
    /// Intersection-kernel policy for the WCOJ engines' extension sets:
    /// [`KernelPolicy::Adaptive`] (the default) picks merge / gallop / bitmap per
    /// intersection; the other values force one kernel (used by differential
    /// tests and experiments). Ignored by the binary baseline.
    pub kernel: KernelPolicy,
    /// Kernel-selection and seek thresholds. `None` (the default) uses the
    /// host calibration ([`KernelCalibration::host`]: cached micro-benchmark
    /// probe, overridable per-field via environment variables); `Some` pins
    /// explicit thresholds — benchmarks and recorded baselines pin
    /// [`KernelCalibration::fixed`] so their work counters stay
    /// machine-independent. Thresholds change which kernel/tally a given
    /// intersection or seek lands in, never the result.
    pub calibration: Option<KernelCalibration>,
    /// Access-structure cache behavior (see [`CacheMode`]): reuse builds from
    /// the database's shared cache ([`CacheMode::On`], the default), pin them
    /// against eviction, or bypass the cache. Ignored by the binary baseline,
    /// which builds no tries or indexes.
    pub cache: CacheMode,
    /// Optional trace sink: `Some` makes the execution deposit a
    /// [`QueryTrace`] — plan choice, per-level extension-set statistics,
    /// per-atom cache outcomes, morsel scheduling, and wall-time phases —
    /// into the sink ([`TraceSink::take`] retrieves it). `None` (the default)
    /// records nothing and adds no work to the hot path. Tracing never
    /// perturbs execution: rows and work counters are bit-identical with the
    /// sink present or absent (the trace-neutrality property suite asserts
    /// this), only wall-clock fields differ between traced runs.
    pub trace: Option<Arc<TraceSink>>,
}

impl PartialEq for ExecOptions {
    fn eq(&self, other: &Self) -> bool {
        // `trace` is deliberately excluded: it observes, never configures.
        self.engine == other.engine
            && self.backend == other.backend
            && self.threads == other.threads
            && self.kernel == other.kernel
            && self.calibration == other.calibration
            && self.cache == other.cache
    }
}

impl Eq for ExecOptions {}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            engine: Engine::GenericJoin,
            backend: Backend::Auto,
            threads: 1,
            kernel: KernelPolicy::Adaptive,
            calibration: None,
            cache: CacheMode::On,
            trace: None,
        }
    }
}

impl ExecOptions {
    /// Options for `engine` with the native backend, single-threaded.
    pub fn new(engine: Engine) -> Self {
        ExecOptions {
            engine,
            ..Default::default()
        }
    }

    /// Builder-style backend override.
    pub fn with_backend(&self, backend: Backend) -> Self {
        ExecOptions {
            backend,
            ..self.clone()
        }
    }

    /// Builder-style thread-count override (see [`ExecOptions::threads`]).
    pub fn with_threads(&self, threads: usize) -> Self {
        ExecOptions {
            threads,
            ..self.clone()
        }
    }

    /// Builder-style kernel-policy override (see [`ExecOptions::kernel`]).
    pub fn with_kernel(&self, kernel: KernelPolicy) -> Self {
        ExecOptions {
            kernel,
            ..self.clone()
        }
    }

    /// Builder-style calibration pin (see [`ExecOptions::calibration`]).
    pub fn with_calibration(&self, cal: KernelCalibration) -> Self {
        ExecOptions {
            calibration: Some(cal),
            ..self.clone()
        }
    }

    /// Builder-style cache-mode override (see [`ExecOptions::cache`]).
    pub fn with_cache(&self, cache: CacheMode) -> Self {
        ExecOptions {
            cache,
            ..self.clone()
        }
    }

    /// Builder-style trace sink (see [`ExecOptions::trace`]).
    pub fn with_trace(&self, sink: Arc<TraceSink>) -> Self {
        ExecOptions {
            trace: Some(sink),
            ..self.clone()
        }
    }

    /// The concrete worker count: `threads`, with `0` resolved to the OS-reported
    /// available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The concrete thresholds: the pinned calibration if set, else the host
    /// calibration (probed once per process, cached on disk).
    pub fn resolved_calibration(&self) -> KernelCalibration {
        self.calibration
            .unwrap_or_else(|| *KernelCalibration::host())
    }

    /// The concrete backend for `self.engine` after resolving [`Backend::Auto`].
    pub fn resolved_backend(&self) -> Backend {
        match (self.backend, self.engine) {
            (Backend::Auto, Engine::Leapfrog) => Backend::Trie,
            (Backend::Auto, _) => Backend::Hash,
            (b, _) => b,
        }
    }
}

/// The result of executing a query: the output relation (columns in the query's
/// variable order), the work performed, and the variable order that was used.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The query output.
    pub result: Relation,
    /// Elementary-operation tallies recorded during execution (for parallel runs:
    /// the deterministic merge of every worker's tallies).
    pub work: WorkCounter,
    /// The global variable order the engine ran with (identity for the binary
    /// baseline, which is order-insensitive).
    pub order: Vec<VarId>,
    /// Access-structure cache activity during this execution: hits, misses,
    /// incremental delta merges, evictions triggered, and the cache's resident
    /// bytes afterwards. Build work is tallied here — never in
    /// [`ExecOutput::work`] — so caching cannot perturb the work counters.
    /// All-zero for the binary baseline and with [`CacheMode::Off`].
    pub cache_stats: CacheStats,
}

impl ExecOutput {
    /// A typed decode view over [`ExecOutput::result`]: each dictionary-encoded
    /// column decodes back to strings through the shared per-domain dictionary of
    /// `db` that its values were interned into at load time. The engines' inner
    /// loops never touch this — decoding is a lazy view over the already-built
    /// result columns, and unknown codes fail loudly
    /// ([`wcoj_storage::StorageError::UnknownCode`]) instead of guessing.
    pub fn typed_rows<'a>(
        &'a self,
        query: &ConjunctiveQuery,
        db: &'a Database,
    ) -> Result<TypedRows<'a>, ExecError> {
        let bindings = db.var_bindings(query)?;
        let dicts = bindings
            .iter()
            .map(|b| b.domain.as_deref().and_then(|d| db.dictionary(d)))
            .collect();
        Ok(TypedRows::new(&self.result, dicts)?)
    }
}

/// Execute `query` over `db` with the given engine (native backend, serial),
/// letting the AGM-guided planner pick the variable order for the WCOJ engines.
pub fn execute(
    query: &ConjunctiveQuery,
    db: &Database,
    engine: Engine,
) -> Result<ExecOutput, ExecError> {
    execute_opts(query, db, &ExecOptions::new(engine))
}

/// Execute `query` over `db` with the given engine and an explicit global variable
/// order (ignored by the binary baseline).
pub fn execute_with_order(
    query: &ConjunctiveQuery,
    db: &Database,
    engine: Engine,
    order: &[VarId],
) -> Result<ExecOutput, ExecError> {
    execute_opts_with_order(query, db, &ExecOptions::new(engine), order)
}

/// Execute `query` over `db` with full [`ExecOptions`], letting the planner pick
/// the variable order.
pub fn execute_opts(
    query: &ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
) -> Result<ExecOutput, ExecError> {
    let planning = opts.trace.as_ref().map(|_| Instant::now());
    let order = plan_order(query, db, opts)?;
    let plan_ns = planning.map_or(0, |t| t.elapsed().as_nanos() as u64);
    let out = execute_opts_with_order(query, db, opts, &order)?;
    patch_plan_time(opts, plan_ns);
    Ok(out)
}

/// Fold the caller-side planning time into the trace the execution deposited
/// (the engines cannot see planning — it happens before they run).
fn patch_plan_time(opts: &ExecOptions, plan_ns: u64) {
    if let Some(sink) = &opts.trace {
        if let Some(mut trace) = sink.take() {
            trace.plan_ns = plan_ns;
            trace.total_ns += plan_ns;
            sink.record(trace);
        }
    }
}

/// Execute `query` with tracing forced on and return the recorded
/// [`QueryTrace`] alongside the output — the `EXPLAIN ANALYZE` entry point.
/// The trace's [`QueryTrace::render_tree`] is the human-readable profile;
/// [`QueryTrace::to_json`] is the machine-readable one. The execution itself
/// is bit-identical to [`execute_opts`] without the sink: rows and work
/// counters never depend on tracing.
pub fn execute_explain(
    query: &ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
) -> Result<(ExecOutput, QueryTrace), ExecError> {
    let sink = Arc::new(TraceSink::new());
    let traced = opts.with_trace(Arc::clone(&sink));
    let out = execute_opts(query, db, &traced)?;
    let trace = sink
        .take()
        .expect("every successful traced execution deposits a trace");
    Ok((out, trace))
}

/// Execute `query` over `db` with full [`ExecOptions`] and an explicit global
/// variable order (ignored by the binary baseline).
pub fn execute_opts_with_order(
    query: &ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
    order: &[VarId],
) -> Result<ExecOutput, ExecError> {
    execute_inner(query, db, opts, order, None)
}

/// Execute `query` over `db` under a [`CancelToken`]: the engines poll the
/// token cooperatively (between extension-set chunks serially, in the morsel
/// claim loop in parallel — see [`cancel`]) and return
/// [`ExecError::Canceled`], discarding partial output, once it fires. With a
/// token that never fires, rows and work counters are **bit-identical** to
/// [`execute_opts_with_order`]. `order` picks an explicit global variable
/// order; `None` asks the AGM-guided planner, like [`execute_opts`].
pub fn execute_cancellable(
    query: &ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
    order: Option<&[VarId]>,
    token: &CancelToken,
) -> Result<ExecOutput, ExecError> {
    token.check()?;
    let planned;
    let mut plan_ns = 0;
    let order = match order {
        Some(o) => o,
        None => {
            let planning = opts.trace.as_ref().map(|_| Instant::now());
            planned = plan_order(query, db, opts)?;
            plan_ns = planning.map_or(0, |t| t.elapsed().as_nanos() as u64);
            &planned
        }
    };
    let out = execute_inner(query, db, opts, order, Some(token))?;
    patch_plan_time(opts, plan_ns);
    Ok(out)
}

/// The per-execution trace state threaded through the engines when a sink is
/// installed: one [`LevelRecorder`] cell row per join variable (engines record
/// into it with relaxed atomics — per-level sums are commutative, so the
/// deterministic fields are identical for any thread count) and a slot the
/// morsel scheduler fills with its per-worker claim/steal/pin report.
struct TraceCtx {
    levels: LevelRecorder,
    morsels: OnceLock<MorselTrace>,
}

/// What every engine body reads while it runs: the kernel policy and
/// thresholds, the counter it charges (a morsel worker swaps in its private
/// one), and the per-level trace recorder when a sink is installed.
#[derive(Clone, Copy)]
pub(crate) struct JoinCtx<'a> {
    pub(crate) policy: KernelPolicy,
    pub(crate) cal: &'a KernelCalibration,
    pub(crate) counter: &'a WorkCounter,
    pub(crate) trace: Option<&'a LevelRecorder>,
}

/// The stable trace spelling of a work-counter snapshot — every deterministic
/// tally, in a fixed order (bit-identical across traced and untraced runs by
/// the trace-neutrality property).
fn work_pairs(w: &WorkCounter) -> Vec<(String, u64)> {
    [
        ("total_work", w.total_work()),
        ("intersect_steps", w.intersect_steps()),
        ("probes", w.probes()),
        ("comparisons", w.comparisons()),
        ("intermediate_tuples", w.intermediate_tuples()),
        ("output_tuples", w.output_tuples()),
        ("delta_merge", w.delta_merge()),
        ("kernel_merge", w.kernel_merge()),
        ("kernel_gallop", w.kernel_gallop()),
        ("kernel_bitmap", w.kernel_bitmap()),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// The trace spelling of engine and backend choices.
fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::BinaryHash => "binary_hash",
        Engine::GenericJoin => "generic_join",
        Engine::Leapfrog => "leapfrog",
    }
}

fn backend_name(backend: Backend) -> &'static str {
    match backend {
        Backend::Auto => "auto",
        Backend::Trie => "trie",
        Backend::Hash => "hash",
    }
}

fn execute_inner(
    query: &ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
    order: &[VarId],
    token: Option<&CancelToken>,
) -> Result<ExecOutput, ExecError> {
    if !is_valid_order(query, order) {
        return Err(ExecError::InvalidOrder(order.to_vec()));
    }
    // Validate the typed-catalog contract up front: every atom binding a variable
    // must agree on its type and dictionary domain, else the engines would compare
    // codes from different value spaces. Also yields the result schema's types.
    let bindings = db.var_bindings(query)?;
    let counter = WorkCounter::new();
    let mut cache_stats = CacheStats::default();
    let tracing = opts.trace.is_some();
    let started = tracing.then(Instant::now);
    let mut atom_traces: Vec<AtomTrace> = Vec::new();
    let mut build_ns = 0u64;
    let join_ns;
    let mut trace_ctx: Option<TraceCtx> = None;
    let result = match opts.engine {
        Engine::BinaryHash => {
            // the baseline's storage operators have no chunk seam: the token is
            // honored only between whole binary joins (coarse, but bounded)
            let join_started = tracing.then(Instant::now);
            let rel = binary::binary_hash_plan_cancellable(query, db, &counter, token)?;
            join_ns = join_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
            if let Some(t) = token {
                t.check()?;
            }
            rel
        }
        engine => {
            let sources = db.atom_sources(query)?;
            let mut attr_orders = Vec::with_capacity(sources.len());
            for i in 0..sources.len() {
                attr_orders.push(atom_attr_order(query, i, order)?);
            }
            let threads = opts.resolved_threads();
            let build_started = tracing.then(Instant::now);
            let built = BuiltAccess::build(
                query,
                db,
                &sources,
                &attr_orders,
                opts,
                &mut cache_stats,
                tracing.then_some(&mut atom_traces),
            )?;
            build_ns = build_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let parts = participants(query, order);
            let cal = opts.resolved_calibration();
            if tracing {
                trace_ctx = Some(TraceCtx {
                    levels: LevelRecorder::new(order.len()),
                    morsels: OnceLock::new(),
                });
            }
            let ctx = JoinCtx {
                policy: opts.kernel,
                cal: &cal,
                counter: &counter,
                trace: trace_ctx.as_ref().map(|t| &t.levels),
            };
            let join_started = tracing.then(Instant::now);
            let morsels = trace_ctx.as_ref().map(|t| &t.morsels);
            let rows = built.run(engine, &parts, threads, ctx, token, morsels)?;
            join_ns = join_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
            // fold this query's cache activity into the database's cumulative
            // observability counters (guarded so a cache-bypassing run cannot
            // zero the resident-bytes gauge)
            if opts.cache != CacheMode::Off && db.access_cache().is_enabled() {
                db.access_cache().record_query(&cache_stats);
            }
            rows_to_relation(query, order, rows, &bindings)?
        }
    };
    if let Some(sink) = &opts.trace {
        let (agm_log2, agm_tuples) = match agm_bound(query, db) {
            Ok(b) => (b.log2_bound, b.tuple_bound()),
            Err(_) => (f64::NAN, f64::NAN),
        };
        let order_names: Vec<String> = order
            .iter()
            .map(|&v| query.var_name(v).to_string())
            .collect();
        let (levels, morsels) = match trace_ctx {
            Some(ctx) => (
                ctx.levels.into_levels(&order_names),
                ctx.morsels.into_inner(),
            ),
            None => (Vec::new(), None),
        };
        sink.record(QueryTrace {
            engine: engine_name(opts.engine).to_string(),
            backend: backend_name(opts.resolved_backend()).to_string(),
            threads: opts.resolved_threads(),
            order: order_names,
            agm_log2,
            agm_tuples,
            rows: result.len() as u64,
            plan_ns: 0, // the caller that planned patches this in
            build_ns,
            join_ns,
            total_ns: started.map_or(0, |t| t.elapsed().as_nanos() as u64),
            atoms: atom_traces,
            levels,
            morsels,
            work: work_pairs(&counter),
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            cache_incremental: cache_stats.incremental_merges,
            cache_evictions: cache_stats.evictions,
        });
    }
    Ok(ExecOutput {
        result,
        work: counter,
        order: order.to_vec(),
        cache_stats,
    })
}

/// One atom's built access structure when the query mixes storage kinds (any
/// delta-backed atom forces this composition path): cursors dispatch through
/// [`CursorKind`]'s branch, not a vtable. Static structures are `Arc`-shared
/// with the access cache, so a hit costs a refcount, not a rebuild.
enum AtomAccess<'d> {
    Trie(Arc<Trie>),
    Index(Arc<PrefixIndex>),
    Delta(DeltaAccess<'d>),
}

impl AtomAccess<'_> {
    fn cursor(&self) -> CursorKind<'_> {
        match self {
            AtomAccess::Trie(t) => t.cursor().into(),
            AtomAccess::Index(ix) => ix.cursor().into(),
            AtomAccess::Delta(d) => d.cursor().into(),
        }
    }
}

/// The access structures built for one execution: one trie or one prefix index
/// per atom (the monomorphized all-static fast paths), or — as soon as any atom
/// is delta-backed — one [`AtomAccess`] per atom, composing live
/// [`DeltaAccess`] union cursors with static structures through [`CursorKind`].
/// Shared immutably by all workers.
enum BuiltAccess<'d> {
    Tries(Vec<Arc<Trie>>),
    Indexes(Vec<Arc<PrefixIndex>>),
    Mixed(Vec<AtomAccess<'d>>),
}

/// The cache side-channel of one [`BuiltAccess::build`]: the database whose
/// [`wcoj_storage::AccessCache`] (and relation stamps) to consult, and the
/// resolved [`CacheMode`]. `use_cache` is false when the mode is
/// [`CacheMode::Off`] *or* the cache's byte budget is zero — either way every
/// build is fresh and the shared cache is never touched.
struct CacheCtx<'a> {
    db: &'a Database,
    use_cache: bool,
    pinned: bool,
}

/// Fetch-or-build one static relation's CSR trie through the access cache.
/// Keyed by `(name, positions, Trie, insertion stamp)` — rebinding the name
/// changes the stamp, so stale entries can never be returned (they age out).
fn cached_trie(
    ctx: &CacheCtx<'_>,
    name: &str,
    rel: &Relation,
    positions: &[usize],
    threads: usize,
    stats: &mut CacheStats,
) -> Result<Arc<Trie>, ExecError> {
    if !ctx.use_cache {
        return Ok(Arc::new(Trie::build_positions_parallel(
            rel, positions, threads,
        )?));
    }
    let cache = ctx.db.access_cache();
    let key = CacheKey {
        relation: name.to_string(),
        positions: positions.to_vec(),
        kind: CacheKind::Trie,
        stamp: ctx.db.relation_stamp(name),
    };
    if let Some(CachedValue::Trie(t)) = cache.get(&key) {
        stats.hits += 1;
        return Ok(t);
    }
    let built = Arc::new(Trie::build_positions_parallel(rel, positions, threads)?);
    stats.misses += 1;
    stats.evictions += cache.insert(
        key,
        CachedValue::Trie(Arc::clone(&built)),
        rel.len() as u64,
        built.heap_bytes(),
        ctx.pinned,
    );
    Ok(built)
}

/// Fetch-or-build one static relation's prefix hash index through the access
/// cache (same keying and staleness story as [`cached_trie`]).
fn cached_index(
    ctx: &CacheCtx<'_>,
    name: &str,
    rel: &Relation,
    positions: &[usize],
    threads: usize,
    stats: &mut CacheStats,
) -> Result<Arc<PrefixIndex>, ExecError> {
    if !ctx.use_cache {
        return Ok(Arc::new(PrefixIndex::build_positions_parallel(
            rel, positions, threads,
        )?));
    }
    let cache = ctx.db.access_cache();
    let key = CacheKey {
        relation: name.to_string(),
        positions: positions.to_vec(),
        kind: CacheKind::Index,
        stamp: ctx.db.relation_stamp(name),
    };
    if let Some(CachedValue::Index(ix)) = cache.get(&key) {
        stats.hits += 1;
        return Ok(ix);
    }
    let built = Arc::new(PrefixIndex::build_positions_parallel(
        rel, positions, threads,
    )?);
    stats.misses += 1;
    stats.evictions += cache.insert(
        key,
        CachedValue::Index(Arc::clone(&built)),
        rel.len() as u64,
        built.heap_bytes(),
        ctx.pinned,
    );
    Ok(built)
}

/// The epoch-partitioned delta-cache gate: 0 = uninitialized (consult
/// `WCOJ_CACHE_PARTITIONS`), 1 = on (the default), 2 = off (the pre-partition
/// single-slot behavior, kept for A/B measurement — see EXPERIMENTS E10).
static CACHE_PARTITIONS: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Whether delta-view cache entries are **epoch-partitioned** (see
/// [`set_cache_partitions`]). Defaults to on; `WCOJ_CACHE_PARTITIONS=0`
/// disables.
pub fn cache_partitions_enabled() -> bool {
    use std::sync::atomic::Ordering;
    match CACHE_PARTITIONS.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = std::env::var("WCOJ_CACHE_PARTITIONS").map_or(true, |v| v.trim() != "0");
            CACHE_PARTITIONS.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Switch delta-view cache partitioning on or off in-process (overrides
/// `WCOJ_CACHE_PARTITIONS`; benchmarks use this for same-process A/B runs).
/// With partitioning **off**, a pinned snapshot and the live head share one
/// cache slot per `(relation, order)` and evict each other's views on every
/// alternating access — the E9.4 thrash this knob exists to demonstrate.
pub fn set_cache_partitions(on: bool) {
    CACHE_PARTITIONS.store(if on { 1 } else { 2 }, std::sync::atomic::Ordering::Relaxed);
}

/// FNV-1a over the sealed-run identity list — the content fingerprint that
/// keys a delta view to the exact run set it was built over. `| 1` keeps it
/// disjoint from the head slot's reserved stamp 0.
fn run_fingerprint(delta: &DeltaRelation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in delta.run_ids() {
        h ^= id;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h | 1
}

/// Fetch-or-build one delta-backed atom's [`DeltaAccess`] through the access
/// cache. The cached payload is a [`DeltaView`] of the **sealed** runs only —
/// the live unsealed buffer is collapsed per query by
/// [`DeltaAccess::from_view`], exactly like an uncached build — revalidated by
/// run identity: unchanged run list = hit, newly sealed runs appended =
/// incremental merge (permute only the new tail, re-insert the extended view),
/// anything else (tier merge, compaction) = full rebuild. The relation's
/// **native** attribute order borrows the log directly (no permute, nothing
/// worth caching), so identity orders bypass the cache.
///
/// # Epoch partitioning (the E9.4 fix)
///
/// Two slots per `(relation, order)`: the **head slot** (stamp 0), owned by
/// the live database and only ever moved forward (extended, or rebuilt by a
/// non-snapshot reader), and **exact slots** (stamp = run-set fingerprint)
/// that pin a view to the precise run list it matches. A pinned
/// [`wcoj_query::Snapshot`]'s
/// reads fill only its exact slot, so a long-held snapshot and the advancing
/// head stop evicting each other — while a *fresh* snapshot still hits the
/// head slot via run-identity revalidation (same run list at pin time), which
/// is what keeps the service's snapshot-per-query read path cached.
/// `WCOJ_CACHE_PARTITIONS=0` (or [`set_cache_partitions`]) restores the old
/// single-slot behavior for comparison.
fn cached_delta<'d>(
    ctx: &CacheCtx<'_>,
    name: &str,
    delta: &'d DeltaRelation,
    positions: &[usize],
    threads: usize,
    stats: &mut CacheStats,
) -> Result<DeltaAccess<'d>, ExecError> {
    let identity = positions.iter().enumerate().all(|(i, &p)| i == p);
    if identity || !ctx.use_cache {
        return Ok(DeltaAccess::build_positions(delta, positions, threads)?);
    }
    let cache = ctx.db.access_cache();
    let partitioned = cache_partitions_enabled();
    let head_key = CacheKey {
        relation: name.to_string(),
        positions: positions.to_vec(),
        kind: CacheKind::Delta,
        stamp: 0, // the live head's slot; snapshots never write it
    };
    let exact_key = CacheKey {
        stamp: run_fingerprint(delta),
        ..head_key.clone()
    };
    if partitioned {
        if let Some(CachedValue::Delta(view)) = cache.get(&exact_key) {
            if view.matches(delta) {
                stats.hits += 1;
                return Ok(DeltaAccess::from_view(&view, delta));
            }
        }
    }
    if let Some(CachedValue::Delta(view)) = cache.get(&head_key) {
        if view.matches(delta) {
            stats.hits += 1;
            return Ok(DeltaAccess::from_view(&view, delta));
        }
        if let Some(extended) = view.extend(delta, threads) {
            let extended = Arc::new(extended);
            stats.incremental_merges += 1;
            // a snapshot's extension must not move the head slot (its frozen
            // run set may be behind a head another reader already advanced)
            let claim_head = !partitioned || !ctx.db.is_snapshot();
            if claim_head {
                stats.evictions += cache.insert(
                    head_key,
                    CachedValue::Delta(Arc::clone(&extended)),
                    extended.num_rows() as u64,
                    extended.heap_bytes(),
                    ctx.pinned,
                );
            }
            if partitioned {
                stats.evictions += cache.insert(
                    exact_key.clone(),
                    CachedValue::Delta(Arc::clone(&extended)),
                    extended.num_rows() as u64,
                    extended.heap_bytes(),
                    ctx.pinned,
                );
            }
            return Ok(DeltaAccess::from_view(&extended, delta));
        }
    }
    let view = Arc::new(DeltaView::build(delta, positions, threads)?);
    stats.misses += 1;
    if !partitioned || !ctx.db.is_snapshot() {
        stats.evictions += cache.insert(
            head_key,
            CachedValue::Delta(Arc::clone(&view)),
            view.num_rows() as u64,
            view.heap_bytes(),
            ctx.pinned,
        );
    }
    if partitioned {
        stats.evictions += cache.insert(
            exact_key.clone(),
            CachedValue::Delta(Arc::clone(&view)),
            view.num_rows() as u64,
            view.heap_bytes(),
            ctx.pinned,
        );
    }
    Ok(DeltaAccess::from_view(&view, delta))
}

/// Classify one atom's cache interaction by diffing the per-query
/// [`CacheStats`] around its build: exactly one tally moves per cached build,
/// and none on the cache-bypassing paths (identity-order deltas,
/// [`CacheMode::Off`], a disabled cache).
fn atom_outcome(before: &CacheStats, after: &CacheStats) -> &'static str {
    if after.hits > before.hits {
        "hit"
    } else if after.incremental_merges > before.incremental_merges {
        "incremental"
    } else if after.misses > before.misses {
        "miss"
    } else {
        "bypass"
    }
}

/// Append one atom's build record when tracing is on (no-op otherwise).
fn push_atom_trace(
    trace: &mut Option<&mut Vec<AtomTrace>>,
    started: Option<Instant>,
    name: &str,
    kind: &'static str,
    before: &CacheStats,
    after: &CacheStats,
) {
    if let Some(tr) = trace.as_deref_mut() {
        tr.push(AtomTrace {
            relation: name.to_string(),
            kind: kind.to_string(),
            outcome: atom_outcome(before, after).to_string(),
            build_ns: started.map_or(0, |t| t.elapsed().as_nanos() as u64),
        });
    }
}

impl<'d> BuiltAccess<'d> {
    /// Build (or fetch from the database's access cache) one access structure
    /// per atom; with `threads > 1` each fresh build's argsort-and-scan pass
    /// is partitioned across scoped workers
    /// ([`Trie::build_positions_parallel`] /
    /// [`PrefixIndex::build_positions_parallel`] /
    /// [`wcoj_storage::Relation::sort_perm_threads`] for delta runs),
    /// producing bit-identical structures to the serial builds — so cached,
    /// fresh-serial, and fresh-parallel structures are interchangeable.
    /// Delta-backed atoms build a [`DeltaAccess`] over the live runs — no
    /// snapshot materialization. The attribute orders name query variables;
    /// every source's columns bind to its atom's variables positionally, so
    /// each order is resolved to column positions up front (also the cache
    /// key's permutation component).
    /// With `trace` present, one [`AtomTrace`] per atom is appended — its
    /// relation name, structure kind, cache outcome (diffed from `stats`),
    /// and build wall-time. `None` adds no timing calls at all.
    fn build(
        query: &ConjunctiveQuery,
        db: &Database,
        sources: &'d [AtomSource<'d>],
        attr_orders: &[Vec<&str>],
        opts: &ExecOptions,
        stats: &mut CacheStats,
        mut trace: Option<&mut Vec<AtomTrace>>,
    ) -> Result<Self, ExecError> {
        let backend = opts.resolved_backend();
        let threads = opts.resolved_threads();
        let ctx = CacheCtx {
            db,
            use_cache: opts.cache != CacheMode::Off && db.access_cache().is_enabled(),
            pinned: opts.cache == CacheMode::Pinned,
        };
        let atoms = query.atoms();
        let mut positions_per_atom = Vec::with_capacity(sources.len());
        for (i, attrs) in attr_orders.iter().enumerate() {
            let atom_vars = query.atom_var_names(i);
            let positions: Vec<usize> = attrs
                .iter()
                .map(|a| {
                    atom_vars
                        .iter()
                        .position(|v| v == a)
                        .expect("order names come from the atom's variables")
                })
                .collect();
            positions_per_atom.push(positions);
        }
        let any_delta = sources.iter().any(|s| matches!(s, AtomSource::Delta(_)));
        let built = if any_delta {
            let mut accesses = Vec::with_capacity(sources.len());
            for (i, source) in sources.iter().enumerate() {
                let name = &atoms[i].name;
                let positions = &positions_per_atom[i];
                let started = trace.is_some().then(Instant::now);
                let before = *stats;
                let (access, kind) = match source {
                    AtomSource::Static(rel) => match backend {
                        Backend::Trie => (
                            AtomAccess::Trie(cached_trie(
                                &ctx, name, rel, positions, threads, stats,
                            )?),
                            "trie",
                        ),
                        Backend::Hash | Backend::Auto => (
                            AtomAccess::Index(cached_index(
                                &ctx, name, rel, positions, threads, stats,
                            )?),
                            "index",
                        ),
                    },
                    AtomSource::Delta(delta) => (
                        AtomAccess::Delta(cached_delta(
                            &ctx, name, delta, positions, threads, stats,
                        )?),
                        "delta",
                    ),
                };
                push_atom_trace(&mut trace, started, name, kind, &before, stats);
                accesses.push(access);
            }
            BuiltAccess::Mixed(accesses)
        } else {
            let statics: Vec<&Relation> = sources
                .iter()
                .map(|s| match s {
                    AtomSource::Static(rel) => *rel,
                    AtomSource::Delta(_) => unreachable!("any_delta checked above"),
                })
                .collect();
            match backend {
                Backend::Trie => {
                    let mut tries = Vec::with_capacity(statics.len());
                    for (i, rel) in statics.iter().enumerate() {
                        let started = trace.is_some().then(Instant::now);
                        let before = *stats;
                        tries.push(cached_trie(
                            &ctx,
                            &atoms[i].name,
                            rel,
                            &positions_per_atom[i],
                            threads,
                            stats,
                        )?);
                        push_atom_trace(
                            &mut trace,
                            started,
                            &atoms[i].name,
                            "trie",
                            &before,
                            stats,
                        );
                    }
                    BuiltAccess::Tries(tries)
                }
                Backend::Hash | Backend::Auto => {
                    let mut indexes = Vec::with_capacity(statics.len());
                    for (i, rel) in statics.iter().enumerate() {
                        let started = trace.is_some().then(Instant::now);
                        let before = *stats;
                        indexes.push(cached_index(
                            &ctx,
                            &atoms[i].name,
                            rel,
                            &positions_per_atom[i],
                            threads,
                            stats,
                        )?);
                        push_atom_trace(
                            &mut trace,
                            started,
                            &atoms[i].name,
                            "index",
                            &before,
                            stats,
                        );
                    }
                    BuiltAccess::Indexes(indexes)
                }
            }
        };
        if ctx.use_cache {
            stats.bytes = db.access_cache().bytes() as u64;
        }
        Ok(built)
    }

    /// Run the engine over fresh cursor sets — serial for `threads == 1`, morsel
    /// workers otherwise. Monomorphizes per backend. Fails with
    /// [`ExecError::Canceled`] when `token` fires mid-run, or
    /// [`ExecError::WorkerPanicked`] when a morsel worker dies.
    fn run(
        &self,
        engine: Engine,
        participants: &[Vec<usize>],
        threads: usize,
        ctx: JoinCtx<'_>,
        token: Option<&CancelToken>,
        morsels: Option<&OnceLock<MorselTrace>>,
    ) -> Result<ColumnSink, ExecError> {
        match self {
            BuiltAccess::Tries(tries) => run_cursors(
                engine,
                || tries.iter().map(|t| t.cursor()).collect(),
                participants,
                threads,
                ctx,
                token,
                morsels,
            ),
            BuiltAccess::Indexes(indexes) => run_cursors(
                engine,
                || indexes.iter().map(|ix| ix.cursor()).collect(),
                participants,
                threads,
                ctx,
                token,
                morsels,
            ),
            BuiltAccess::Mixed(accesses) => run_cursors(
                engine,
                || accesses.iter().map(|a| a.cursor()).collect(),
                participants,
                threads,
                ctx,
                token,
                morsels,
            ),
        }
    }
}

/// Serial cancellable execution slices the extension set this many values at a
/// time between token polls. Chunk boundaries cannot affect rows or counters —
/// the morsel scheduler's differential tests assert exactly that — so this
/// only bounds cancellation latency (one chunk's subtrees).
const CANCEL_CHUNK: usize = 64;

/// The serial driver is the engines' own decomposition — the driver's level-0
/// intersection, then the engine body over slices of it, all into one
/// [`ColumnSink`]: a single whole-set slice when nothing can cancel the run,
/// [`CANCEL_CHUNK`]-value slices with a token poll between them otherwise. Rows
/// and counters do not depend on the slicing, nor on `ctx.trace`.
fn run_cursors<C, F>(
    engine: Engine,
    make_cursors: F,
    participants: &[Vec<usize>],
    threads: usize,
    ctx: JoinCtx<'_>,
    token: Option<&CancelToken>,
    morsels: Option<&OnceLock<MorselTrace>>,
) -> Result<ColumnSink, ExecError>
where
    C: TrieAccess,
    F: Fn() -> Vec<C> + Sync,
{
    if threads > 1 {
        return parallel::morsel_join(
            engine,
            make_cursors,
            participants,
            threads,
            ctx,
            token,
            morsels,
        );
    }
    let mut cursors = make_cursors();
    for c in cursors.iter_mut() {
        c.set_seek_calibration(ctx.cal.linear_seek_max);
    }
    if let Some(t) = token {
        t.check()?;
    }
    let e0 = first_extension_set(&mut cursors, &participants[0], ctx);
    let mut sink = ColumnSink::new(participants.len());
    let slice_len = match token {
        Some(_) => CANCEL_CHUNK,
        None => e0.len().max(1),
    };
    for slice in e0.chunks(slice_len) {
        if let Some(t) = token {
            t.check()?;
        }
        engine_join_extensions(engine, &mut cursors, participants, slice, ctx, &mut sink);
    }
    Ok(sink)
}

/// Open the level-0 participant cursors and intersect their root sibling groups —
/// the first join variable's extension set, charged to `counter` exactly once per
/// execution (the driver's charge; workers re-position without re-counting). Leaves
/// the participant cursors open. Returns empty if any participant has no values.
pub(crate) fn first_extension_set<C: TrieAccess>(
    cursors: &mut [C],
    parts0: &[usize],
    ctx: JoinCtx<'_>,
) -> Vec<Value> {
    for &ci in parts0 {
        if !cursors[ci].open() {
            return Vec::new();
        }
    }
    let mut out = Vec::new();
    level_extension_into(&mut out, cursors, parts0, ctx, 0);
    out
}

/// Compute the extension set of one join variable — the kernel-layer intersection
/// of the open participant cursors' remaining sibling groups — into `ext`. This is
/// the single intersection seam of both WCOJ engines: every level's candidate set
/// flows through [`wcoj_storage::kernels::intersect_into_cal`], so the policy, the
/// calibrated thresholds, and the per-kernel work/choice tallies apply uniformly.
/// The SIMD level is the process-wide detected one — it never changes output or
/// counters, only the instruction mix.
///
/// With `ctx.trace` present the kernel's choice and its charged work (diffed
/// from `ctx.counter` around the call — the counter is private to this thread
/// of execution, so the diff attributes exactly this intersection) are recorded
/// against join level `level`. Tracing reads the counter and appends to
/// relaxed atomics; it never changes what the kernel computes.
pub(crate) fn level_extension_into<C: TrieAccess>(
    ext: &mut Vec<Value>,
    cursors: &[C],
    parts: &[usize],
    ctx: JoinCtx<'_>,
    level: usize,
) {
    let JoinCtx {
        policy,
        cal,
        counter,
        trace,
    } = ctx;
    let simd = wcoj_storage::simd::active_level();
    // sized against the kernel layer's own inline-bookkeeping capacity
    const MAX_INLINE: usize = kernels::MAX_INLINE_LISTS;
    let before = trace.map(|_| (counter.intersect_steps(), counter.comparisons()));
    let chosen = if parts.len() <= MAX_INLINE {
        let mut buf: [&[Value]; MAX_INLINE] = [&[]; MAX_INLINE];
        for (slot, &ci) in buf.iter_mut().zip(parts) {
            *slot = cursors[ci].remaining();
        }
        kernels::intersect_into_cal(simd, ext, &buf[..parts.len()], policy, cal, counter)
    } else {
        let slices: Vec<&[Value]> = parts.iter().map(|&ci| cursors[ci].remaining()).collect();
        kernels::intersect_into_cal(simd, ext, &slices, policy, cal, counter)
    };
    if let (Some(rec), Some((steps0, cmps0))) = (trace, before) {
        rec.record_intersection(
            level,
            ext.len() as u64,
            chosen.map(trace_kernel),
            counter.intersect_steps() - steps0,
            counter.comparisons() - cmps0,
        );
    }
}

/// The trace spelling of a kernel choice.
fn trace_kernel(kind: kernels::KernelKind) -> TraceKernel {
    match kind {
        kernels::KernelKind::Merge => TraceKernel::Merge,
        kernels::KernelKind::Gallop => TraceKernel::Gallop,
        kernels::KernelKind::Bitmap => TraceKernel::Bitmap,
    }
}

/// Drain every cursor's private work tallies into `counter`.
pub(crate) fn flush_cursor_work<C: TrieAccess>(cursors: &mut [C], counter: &WorkCounter) {
    for c in cursors.iter_mut() {
        counter.absorb(c.take_work());
    }
}

/// Dispatch the per-slice serial engine body by engine kind.
pub(crate) fn engine_join_extensions<C: TrieAccess>(
    engine: Engine,
    cursors: &mut [C],
    participants: &[Vec<usize>],
    values: &[Value],
    ctx: JoinCtx<'_>,
    sink: &mut ColumnSink,
) {
    match engine {
        Engine::GenericJoin => generic::join_extensions(cursors, participants, values, ctx, sink),
        Engine::Leapfrog => leapfrog::join_extensions(cursors, participants, values, ctx, sink),
        Engine::BinaryHash => unreachable!("the binary baseline has no cursor path"),
    }
}

/// `participants[l]` = indices of the atoms containing the variable at level `l`.
fn participants(query: &ConjunctiveQuery, order: &[VarId]) -> Vec<Vec<usize>> {
    let mut parts = vec![Vec::new(); order.len()];
    for atom in 0..query.atoms().len() {
        for level in atom_levels(query, atom, order) {
            parts[level].push(atom);
        }
    }
    parts
}

/// Package the engines' output — one column per level of the join order — as a
/// relation with columns in variable-id order. Only the column *vector* is
/// permuted; no value moves. Under the identity order (the default planner's
/// usual choice) the columns are then already canonical and
/// [`Relation::try_from_columns`] adopts them after one linear check — no copy,
/// no sort; under any other order it packs, radix-sorts and unpacks them in
/// place. Each output column carries the [`AttrType`] of its variable's binding,
/// so dictionary-encoded results stay decodable (and bit-compatible with the
/// binary baseline, whose schemas flow through the storage operators).
fn rows_to_relation(
    query: &ConjunctiveQuery,
    order: &[VarId],
    rows: ColumnSink,
    bindings: &[VarBinding],
) -> Result<Relation, ExecError> {
    let names: Vec<String> = query.var_names().to_vec();
    let types: Vec<AttrType> = (0..names.len() as VarId).map(|v| bindings[v].ty).collect();
    let schema = Schema::try_new_typed(names, types)?;
    let mut columns = vec![Vec::new(); order.len()];
    for (&v, col) in order.iter().zip(rows.into_columns()) {
        columns[v] = col;
    }
    Ok(Relation::try_from_columns(schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_query::query::examples;

    fn triangle_db() -> Database {
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_pairs("x", "y", vec![(1, 2), (2, 3), (1, 3)]),
        );
        db.insert(
            "S",
            Relation::from_pairs("x", "y", vec![(2, 3), (3, 1), (3, 4)]),
        );
        db.insert(
            "T",
            Relation::from_pairs("x", "y", vec![(1, 3), (2, 1), (1, 4)]),
        );
        db
    }

    #[test]
    fn all_engines_agree_on_the_triangle() {
        let q = examples::triangle();
        let db = triangle_db();
        let outs: Vec<_> = [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog]
            .into_iter()
            .map(|e| execute(&q, &db, e).unwrap())
            .collect();
        assert_eq!(outs[0].result, outs[1].result);
        assert_eq!(outs[1].result, outs[2].result);
        assert_eq!(outs[0].result.len(), 3);
        // WCOJ engines record kernel work, the baseline records intermediates
        assert!(outs[0].work.intermediate_tuples() > 0);
        assert!(outs[1].work.kernel_calls() > 0);
        assert!(outs[1].work.total_work() > 0);
        assert!(outs[2].work.kernel_calls() > 0);
        assert!(outs[2].work.total_work() > 0);
    }

    #[test]
    fn every_variable_order_gives_the_same_result() {
        let q = examples::triangle();
        let db = triangle_db();
        let reference = execute(&q, &db, Engine::Leapfrog).unwrap().result;
        for order in [
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ] {
            for engine in [Engine::GenericJoin, Engine::Leapfrog] {
                let out = execute_with_order(&q, &db, engine, &order).unwrap();
                assert_eq!(out.result, reference, "order {order:?} engine {engine:?}");
                assert_eq!(out.order, order);
            }
        }
    }

    #[test]
    fn explicit_backends_agree_with_auto() {
        let q = examples::triangle();
        let db = triangle_db();
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let auto = execute_opts(&q, &db, &ExecOptions::new(engine)).unwrap();
            for backend in [Backend::Trie, Backend::Hash] {
                let opts = ExecOptions::new(engine).with_backend(backend);
                let out = execute_opts(&q, &db, &opts).unwrap();
                assert_eq!(out.result, auto.result, "{engine:?} over {backend:?}");
            }
        }
    }

    #[test]
    fn options_resolve_sensibly() {
        let opts = ExecOptions::default();
        assert_eq!(opts.engine, Engine::GenericJoin);
        assert_eq!(opts.resolved_backend(), Backend::Hash);
        assert_eq!(opts.resolved_threads(), 1);
        assert_eq!(opts.cache, CacheMode::On);
        assert_eq!(
            ExecOptions::default().with_cache(CacheMode::Pinned).cache,
            CacheMode::Pinned
        );
        let lf = ExecOptions::new(Engine::Leapfrog).with_threads(4);
        assert_eq!(lf.resolved_backend(), Backend::Trie);
        assert_eq!(lf.resolved_threads(), 4);
        assert!(
            ExecOptions::new(Engine::GenericJoin)
                .with_threads(0)
                .resolved_threads()
                >= 1
        );
        assert_eq!(
            ExecOptions::new(Engine::GenericJoin)
                .with_backend(Backend::Trie)
                .resolved_backend(),
            Backend::Trie
        );
    }

    #[test]
    fn self_join_clique_query() {
        // clique(3) over one edge relation: triangles in a single graph
        let q = examples::clique(3);
        let mut db = Database::new();
        db.insert(
            "E",
            Relation::from_pairs(
                "src",
                "dst",
                vec![(1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (1, 4)],
            ),
        );
        let gj = execute(&q, &db, Engine::GenericJoin).unwrap();
        let lf = execute(&q, &db, Engine::Leapfrog).unwrap();
        let bh = execute(&q, &db, Engine::BinaryHash).unwrap();
        assert_eq!(gj.result, lf.result);
        assert_eq!(gj.result, bh.result);
        // K4 minus nothing: every 3-subset of {1,2,3,4} with increasing edges = 4
        assert_eq!(gj.result.len(), 4);
    }

    #[test]
    fn invalid_order_rejected() {
        let q = examples::triangle();
        let db = triangle_db();
        assert!(matches!(
            execute_with_order(&q, &db, Engine::Leapfrog, &[0, 1]).unwrap_err(),
            ExecError::InvalidOrder(_)
        ));
    }

    #[test]
    fn empty_relation_gives_empty_output() {
        let q = examples::triangle();
        let mut db = triangle_db();
        db.insert(
            "S",
            Relation::from_pairs("x", "y", Vec::<(u64, u64)>::new()),
        );
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let out = execute(&q, &db, engine).unwrap();
            assert!(out.result.is_empty(), "{engine:?}");
        }
    }

    #[test]
    fn typed_pipeline_encodes_joins_and_decodes() {
        use wcoj_storage::TypedValue;
        // string-keyed triangle: intern once per database, join on codes, decode back
        let q = examples::triangle();
        let mut db = Database::new();
        let pair_schema =
            |a: &str, b: &str| Schema::with_types(&[a, b], &[AttrType::Str, AttrType::Str]);
        let rows = |pairs: &[(&str, &str)]| -> Vec<Vec<TypedValue>> {
            pairs
                .iter()
                .map(|&(x, y)| vec![TypedValue::from(x), TypedValue::from(y)])
                .collect()
        };
        db.insert_typed_rows(
            "R",
            pair_schema("A", "B"),
            &rows(&[("ann", "bob"), ("bob", "cat"), ("ann", "cat")]),
        )
        .unwrap();
        db.insert_typed_rows(
            "S",
            pair_schema("B", "C"),
            &rows(&[("bob", "cat"), ("cat", "ann"), ("cat", "dan")]),
        )
        .unwrap();
        db.insert_typed_rows(
            "T",
            pair_schema("A", "C"),
            &rows(&[("ann", "cat"), ("bob", "ann"), ("ann", "dan")]),
        )
        .unwrap();

        let mut decoded_by_engine = Vec::new();
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let out = execute(&q, &db, engine).unwrap();
            assert_eq!(out.result.len(), 3);
            assert!(out.result.schema().has_strings());
            let typed = out.typed_rows(&q, &db).unwrap();
            let mut strs: Vec<Vec<String>> = typed
                .to_rows()
                .unwrap()
                .into_iter()
                .map(|r| r.into_iter().map(|v| v.to_string()).collect())
                .collect();
            strs.sort();
            decoded_by_engine.push(strs);
        }
        assert_eq!(decoded_by_engine[0], decoded_by_engine[1]);
        assert_eq!(decoded_by_engine[1], decoded_by_engine[2]);
        assert_eq!(
            decoded_by_engine[0],
            vec![
                vec!["ann".to_string(), "bob".into(), "cat".into()],
                vec!["ann".to_string(), "cat".into(), "dan".into()],
                vec!["bob".to_string(), "cat".into(), "ann".into()],
            ]
        );
    }

    #[test]
    fn mismatched_var_types_are_rejected_up_front() {
        use wcoj_storage::TypedValue;
        let q = examples::triangle();
        let mut db = triangle_db();
        // rebind S's columns as strings: variable B is Int in R but Str in S
        db.insert_typed_rows(
            "S",
            Schema::with_types(&["x", "y"], &[AttrType::Str, AttrType::Str]),
            &[vec![TypedValue::from("u"), TypedValue::from("v")]],
        )
        .unwrap();
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let err = execute(&q, &db, engine).unwrap_err();
            assert!(err.to_string().contains("bound to"), "{engine:?}: {err}");
        }
    }

    #[test]
    fn delta_backed_atoms_run_live_and_match_static() {
        let q = examples::triangle();
        let mut db = triangle_db();
        let expected = execute(&q, &db, Engine::GenericJoin).unwrap();
        // make R delta-backed and mutate it: delete one edge, add another that
        // completes a triangle with the existing S and T tuples
        db.insert_delta("R", vec![2, 3]).unwrap(); // already present: no-op
        db.delete("R", &[1, 2]).unwrap(); // kills triangle (1,2,3)... via R
        db.insert_delta("R", vec![1, 2]).unwrap(); // re-add it
        assert!(db.delta("R").is_some());
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            for backend in [Backend::Auto, Backend::Trie, Backend::Hash] {
                for threads in [1, 4] {
                    let opts = ExecOptions::new(engine)
                        .with_backend(backend)
                        .with_threads(threads);
                    let out = execute_opts(&q, &db, &opts).unwrap();
                    assert_eq!(
                        out.result, expected.result,
                        "{engine:?}/{backend:?}/t{threads} over the delta path"
                    );
                }
            }
        }
        // delta work appears in the counters once data actually lives in runs
        db.seal("R").unwrap();
        let out = execute(&q, &db, Engine::GenericJoin).unwrap();
        assert_eq!(out.result, expected.result);
        assert!(
            out.work.delta_merge() > 0,
            "union-cursor work is attributed"
        );
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let q = examples::triangle();
        let mut db = triangle_db();
        // pin an explicit budget so the counter asserts hold even when the
        // environment disables the cache (the WCOJ_CACHE_BYTES=0 CI leg)
        db.set_cache_budget(64 << 20);
        let cold = execute(&q, &db, Engine::GenericJoin).unwrap();
        assert_eq!(cold.cache_stats.misses, 3, "three atoms built cold");
        assert_eq!(cold.cache_stats.hits, 0);
        let warm = execute(&q, &db, Engine::GenericJoin).unwrap();
        assert_eq!(warm.cache_stats.hits, 3, "three atoms reused warm");
        assert_eq!(warm.cache_stats.misses, 0);
        assert_eq!(warm.result, cold.result);
        assert_eq!(warm.work, cold.work, "caching never changes work counters");
        // Off bypasses the shared cache entirely: no hits, no misses recorded
        let off = execute_opts(
            &q,
            &db,
            &ExecOptions::new(Engine::GenericJoin).with_cache(CacheMode::Off),
        )
        .unwrap();
        assert_eq!(off.cache_stats, CacheStats::default());
        assert_eq!(off.result, cold.result);
        assert_eq!(off.work, cold.work);
        // the binary baseline builds no tries or indexes
        let bh = execute(&q, &db, Engine::BinaryHash).unwrap();
        assert_eq!(bh.cache_stats, CacheStats::default());
    }

    #[test]
    fn cancellable_execution_matches_plain_and_honors_the_token() {
        let q = examples::triangle();
        let db = triangle_db();
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            for threads in [1, 4] {
                let opts = ExecOptions::new(engine).with_threads(threads);
                let plain = execute_opts(&q, &db, &opts).unwrap();
                // a token that never fires: rows AND counters bit-identical
                let token = CancelToken::new();
                let out = execute_cancellable(&q, &db, &opts, None, &token).unwrap();
                assert_eq!(out.result, plain.result, "{engine:?}/t{threads}");
                assert_eq!(out.work, plain.work, "{engine:?}/t{threads} counters");
                // explicit order passes through unchanged
                let ordered =
                    execute_cancellable(&q, &db, &opts, Some(&plain.order), &token).unwrap();
                assert_eq!(ordered.result, plain.result);
                // a pre-fired token cancels before any engine work
                let fired = CancelToken::new();
                fired.cancel();
                assert_eq!(
                    execute_cancellable(&q, &db, &opts, None, &fired).unwrap_err(),
                    ExecError::Canceled
                );
                // an expired deadline behaves like an explicit cancel
                let expired = CancelToken::with_deadline(
                    std::time::Instant::now() - std::time::Duration::from_millis(1),
                );
                assert_eq!(
                    execute_cancellable(&q, &db, &opts, None, &expired).unwrap_err(),
                    ExecError::Canceled
                );
            }
        }
    }

    #[test]
    fn parallel_triangle_matches_serial() {
        let q = examples::triangle();
        let db = triangle_db();
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let serial = execute(&q, &db, engine).unwrap();
            for threads in [2, 4] {
                let opts = ExecOptions::new(engine).with_threads(threads);
                let out = execute_opts(&q, &db, &opts).unwrap();
                assert_eq!(out.result, serial.result, "{engine:?} x{threads}");
                assert_eq!(out.work, serial.work, "{engine:?} x{threads} counters");
            }
        }
    }
}
