//! Trace plumbing: what a traced execution records on the side
//! ([`Recording`]) for the [`QueryTrace`] it deposits in [`ExecOptions::trace`],
//! and the stable trace spellings of engines, kernels and counters.
//! Tracing observes, never configures — rows and work counters are
//! bit-identical with it on or off; only wall-clock fields differ.

use super::{Engine, ExecOptions, ExecOutput};
use crate::planner::Plan;
use std::sync::OnceLock;
use std::time::Instant;
use wcoj_obs::{AtomTrace, LevelRecorder, MorselTrace, QueryTrace, TraceKernel};
use wcoj_query::ConjunctiveQuery;
use wcoj_storage::{kernels, CacheStats, WorkCounter};

/// What one execution records on the side. Inert — no clock read, no
/// allocation, no recorder on the hot path — unless the execution is traced.
pub(super) struct Recording {
    /// When the execution started; `Some` iff it is traced.
    started: Option<Instant>,
    pub(super) plan_ns: u64,
    pub(super) build_ns: u64,
    pub(super) join_ns: u64,
    /// One record per atom's access-structure build.
    pub(super) atoms: Vec<AtomTrace>,
    /// One cell row per join variable (engines record into it with relaxed
    /// atomics — per-level sums are commutative, so the deterministic fields are
    /// identical for any thread count); installed by the WCOJ engines only.
    pub(super) levels: Option<LevelRecorder>,
    /// Filled by the morsel scheduler with its per-worker claim/pin report.
    pub(super) morsels: OnceLock<MorselTrace>,
}

impl Recording {
    pub(super) fn new(tracing: bool) -> Self {
        Recording {
            started: tracing.then(Instant::now),
            plan_ns: 0,
            build_ns: 0,
            join_ns: 0,
            atoms: Vec::new(),
            levels: None,
            morsels: OnceLock::new(),
        }
    }

    pub(super) fn tracing(&self) -> bool {
        self.started.is_some()
    }

    /// Start timing a phase (`None`, and no clock read, when not tracing).
    pub(super) fn clock(&self) -> Option<Instant> {
        self.started.map(|_| Instant::now())
    }

    /// Assemble the trace of the execution that produced `out` under `plan`.
    pub(super) fn into_trace(
        self,
        query: &ConjunctiveQuery,
        opts: &ExecOptions,
        out: &ExecOutput,
        plan: &Plan,
    ) -> QueryTrace {
        let order: Vec<String> = out
            .order
            .iter()
            .map(|&v| query.var_name(v).to_string())
            .collect();
        let CacheStats { hits, misses, .. } = out.cache_stats;
        QueryTrace {
            engine: engine_name(opts.engine).to_string(),
            // the binary baseline always runs serially
            threads: match opts.engine {
                Engine::BinaryHash => 1,
                _ => opts.resolved_threads(),
            },
            agm_log2: plan.agm.log2_bound,
            agm_tuples: plan.agm.tuple_bound(),
            rows: out.result.len() as u64,
            plan_ns: self.plan_ns,
            build_ns: self.build_ns,
            join_ns: self.join_ns,
            total_ns: elapsed_ns(self.started),
            atoms: self.atoms,
            levels: self.levels.map_or_else(Vec::new, |l| l.into_levels(&order)),
            morsels: self.morsels.into_inner(),
            order,
            prefix_log2: plan.prefix_log2.clone(),
            work: work_pairs(&out.work),
            cache_hits: hits,
            cache_misses: misses,
        }
    }
}

/// Nanoseconds since a [`Recording::clock`] reading (0 when not tracing).
pub(super) fn elapsed_ns(since: Option<Instant>) -> u64 {
    since.map_or(0, |t| t.elapsed().as_nanos() as u64)
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

fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::BinaryHash => "binary_hash",
        Engine::GenericJoin => "generic_join",
        Engine::Leapfrog => "leapfrog",
    }
}

/// The trace spelling of a kernel choice.
pub(super) fn trace_kernel(kind: kernels::KernelKind) -> TraceKernel {
    match kind {
        kernels::KernelKind::Merge => TraceKernel::Merge,
        kernels::KernelKind::Gallop => TraceKernel::Gallop,
        kernels::KernelKind::Bitmap => TraceKernel::Bitmap,
    }
}

/// Classify one atom's cache interaction by diffing the per-query
/// [`CacheStats`] around its build: exactly one tally moves per cached build,
/// and none on the reuse-bypassing paths (a log with buffered ops or no sealed
/// run, [`super::CacheMode::Off`]).
pub(super) fn atom_outcome(before: &CacheStats, after: &CacheStats) -> &'static str {
    if after.hits > before.hits {
        "hit"
    } else if after.misses > before.misses {
        "miss"
    } else {
        "bypass"
    }
}
