//! What an execution is told and what it hands back: [`Engine`],
//! [`CacheMode`], the [`ExecOptions`] that carry them, and [`ExecOutput`].
//!
//! Rows and work counters are a function of `(query, database, options)` and
//! nothing else: no field here is resolved from the environment, the
//! filesystem or a measurement of the host.

use crate::error::ExecError;
use std::sync::Arc;
use wcoj_obs::TraceSink;
use wcoj_query::{ConjunctiveQuery, Database, VarId};
use wcoj_storage::typed::TypedRows;
use wcoj_storage::{CacheStats, KernelCalibration, Relation, WorkCounter};

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

/// Whether one execution reuses the tries memoized on its logs' runs
/// ([`wcoj_storage::delta::Run::shared_trie`]). Reuse never changes results
/// or work counters — structures are bit-identical however they were
/// obtained — so this only trades build time against memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Bypass reuse entirely: build fresh structures and touch no shared
    /// state (differential baselines, one-shot queries).
    Off,
    /// Reuse the tries memoized on the runs read, and memoize whatever gets
    /// built there; they go when the run does. The default.
    #[default]
    On,
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
    /// Trie reuse (see [`CacheMode`]): reuse the tries memoized on the runs
    /// read ([`CacheMode::On`], the default) or build fresh ones. Ignored by
    /// the binary baseline, which builds no access structures.
    pub cache: CacheMode,
    /// Optional trace sink: `Some` makes the execution deposit a
    /// [`wcoj_obs::QueryTrace`] — plan choice, per-level extension-set statistics,
    /// per-atom cache outcomes, and wall-time phases —
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
        self.engine == other.engine && self.cache == other.cache
    }
}

impl Eq for ExecOptions {}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            engine: Engine::GenericJoin,
            cache: CacheMode::On,
            trace: None,
        }
    }
}

impl ExecOptions {
    /// Options for `engine`, everything else default.
    pub fn new(engine: Engine) -> Self {
        ExecOptions {
            engine,
            ..Default::default()
        }
    }

    /// Kept for callers that compile against it: accepts
    /// [`KernelCalibration::fixed`] only and returns the options unchanged.
    /// The kernel and seek thresholds are constants, not options.
    #[doc(hidden)]
    pub fn with_calibration(&self, calibration: KernelCalibration) -> Self {
        debug_assert_eq!(calibration, KernelCalibration::fixed());
        self.clone()
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
}

/// The result of executing a query: the output relation (columns in the query's
/// variable order), the work performed, and the variable order that was used.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The query output.
    pub result: Relation,
    /// Elementary-operation tallies recorded during execution.
    pub work: WorkCounter,
    /// The global variable order the engine ran with (identity for the binary
    /// baseline, which is order-insensitive).
    pub order: Vec<VarId>,
    /// Trie reuse during this execution: hits, misses, and the bytes of the
    /// tries memoized on the catalog's runs afterwards. Build work is tallied
    /// here — never in [`ExecOutput::work`] — so reuse cannot perturb the
    /// work counters.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_resolve_sensibly() {
        let opts = ExecOptions::default();
        assert_eq!(opts.engine, Engine::GenericJoin);
        assert_eq!(opts.with_calibration(KernelCalibration::fixed()), opts);
        assert_eq!(opts.cache, CacheMode::On);
        assert_eq!(
            ExecOptions::default().with_cache(CacheMode::Off).cache,
            CacheMode::Off
        );
        assert_eq!(ExecOptions::new(Engine::Leapfrog).engine, Engine::Leapfrog);
    }
}
