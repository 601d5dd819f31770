//! Access-structure builds and their cache entries.
//!
//! [`BuiltAccess::build`] produces one access structure per atom — a CSR trie
//! for a static relation (the same one for either WCOJ engine), a live
//! [`DeltaAccess`] union cursor for a delta-backed one — fetching each through
//! the per-database [`wcoj_storage::AccessCache`] keyed by `(relation, column
//! positions, kind, stamp)`. Builds record no [`wcoj_storage::WorkCounter`] work (their activity
//! is tallied in [`CacheStats`]), and cached, fresh-serial and fresh-parallel
//! structures are bit-identical, so results and work counters are the same with
//! the cache on, off, or cold.

use super::driver::run_cursors;
use super::engine::{InteriorStep, JoinCtx};
use super::trace::{atom_outcome, elapsed_ns};
use super::{CacheMode, CancelToken, ColumnSink, ExecOptions};
use crate::error::ExecError;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use wcoj_obs::{AtomTrace, MorselTrace};
use wcoj_query::{AtomSource, ConjunctiveQuery, Database};
use wcoj_storage::{
    CacheKey, CacheKind, CacheStats, CachedValue, CursorKind, DeltaAccess, DeltaRelation, Relation,
    Trie,
};

/// One atom's built access structure. Static structures are `Arc`-shared with
/// the access cache, so a hit costs a refcount, not a rebuild.
pub(super) enum AtomAccess<'d> {
    Trie(Arc<Trie>),
    Delta(DeltaAccess<'d>),
}

impl AtomAccess<'_> {
    fn cursor(&self) -> CursorKind<'_> {
        match self {
            AtomAccess::Trie(t) => t.cursor().into(),
            AtomAccess::Delta(d) => d.cursor().into(),
        }
    }

    /// The trace spelling of the structure kind.
    fn kind(&self) -> &'static str {
        match self {
            AtomAccess::Trie(_) => "trie",
            AtomAccess::Delta(_) => "delta",
        }
    }
}

/// The access structures built for one execution, shared immutably by all
/// workers: all tries (the monomorphized fast path), or — as soon as any atom
/// is delta-backed — one [`AtomAccess`] per atom, composed through
/// [`CursorKind`]'s branch (not vtable) dispatch.
pub(super) enum BuiltAccess<'d> {
    Tries(Vec<Arc<Trie>>),
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
/// Keyed by `(name, positions, kind, insertion stamp)`: rebinding the name
/// changes the stamp, so stale entries can never be returned (they age out).
fn cached_static(
    ctx: &CacheCtx<'_>,
    name: &str,
    rel: &Relation,
    positions: &[usize],
    threads: usize,
    stats: &mut CacheStats,
) -> Result<Arc<Trie>, ExecError> {
    let key = ctx.use_cache.then(|| CacheKey {
        relation: name.to_string(),
        positions: positions.to_vec(),
        kind: CacheKind::Trie,
        stamp: ctx.db.relation_stamp(name),
    });
    let cache = ctx.db.access_cache();
    if let Some(CachedValue::Trie(t)) = key.as_ref().and_then(|key| cache.get(key)) {
        stats.hits += 1;
        return Ok(t);
    }
    let t = Arc::new(Trie::build_positions_parallel(rel, positions, threads)?);
    if let Some(key) = key {
        stats.misses += 1;
        let value = CachedValue::Trie(Arc::clone(&t));
        stats.evictions += cache.insert(key, value, rel.len() as u64, t.heap_bytes(), ctx.pinned);
    }
    Ok(t)
}

/// Fetch-or-build one delta-backed atom's [`DeltaAccess`] through the access
/// cache — [`cached_static`]'s loop, once per sealed run. A run is immutable
/// and its id is never reissued, so the key `(name, positions, kind, run id)`
/// names one permuted [`wcoj_storage::RunView`] for good: the reader looks up
/// the runs of **its own** list (one lock acquisition), the builder permutes
/// the ones that were not there, and those are inserted. Every run found is a
/// hit, some found an incremental merge (after a seal: only the new run is
/// built), none found a miss (cold, or after a compaction) — one tally per
/// atom. The head and any number of pinned snapshots share the entries of the
/// runs they have in common and never write to each other's keys; the entry of
/// a run no log holds any more is dropped by the next insert for this
/// relation and order.
///
/// The live unsealed buffer is collapsed per query, exactly like an uncached
/// build. The relation's **native** attribute order borrows the log directly
/// (no permute, nothing worth caching), and a log with no sealed run has
/// nothing to keep, so both bypass the cache.
fn cached_delta<'d>(
    ctx: &CacheCtx<'_>,
    name: &str,
    delta: &'d DeltaRelation,
    positions: &[usize],
    threads: usize,
    stats: &mut CacheStats,
) -> Result<DeltaAccess<'d>, ExecError> {
    let identity = positions.iter().enumerate().all(|(i, &p)| i == p);
    let run_ids = if identity || !ctx.use_cache {
        Vec::new()
    } else {
        delta.run_ids()
    };
    if run_ids.is_empty() {
        return Ok(DeltaAccess::build_positions(delta, positions, threads)?);
    }
    let key = |run_id: u64| CacheKey {
        relation: name.to_string(),
        positions: positions.to_vec(),
        kind: CacheKind::Delta,
        stamp: run_id,
    };
    let cache = ctx.db.access_cache();
    let found = cache
        .get_many(run_ids.iter().copied().map(key))
        .into_iter()
        .map(|value| match value {
            Some(CachedValue::Run(view)) => Some(view),
            _ => None,
        })
        .collect();
    let (access, built) = DeltaAccess::build_positions_with(delta, positions, threads, found)?;
    match built.len() {
        0 => stats.hits += 1,
        n if n == run_ids.len() => stats.misses += 1,
        _ => stats.incremental_merges += 1,
    }
    for view in built {
        let (id, cost, bytes) = (view.run_id(), view.num_rows() as u64, view.heap_bytes());
        stats.evictions += cache.insert(key(id), CachedValue::Run(view), cost, bytes, ctx.pinned);
    }
    Ok(access)
}

impl<'d> BuiltAccess<'d> {
    /// Build (or fetch from the database's access cache) one access structure
    /// per atom over the column `positions` its join order resolves to (also
    /// the cache key's permutation component); with `threads > 1` each fresh
    /// build's argsort-and-scan pass is partitioned across scoped workers
    /// ([`Trie::build_positions_parallel`] /
    /// [`wcoj_storage::Relation::sort_perm_threads`] for delta runs).
    /// Delta-backed atoms build a [`DeltaAccess`] over the live runs — no
    /// snapshot materialization.
    ///
    /// With `trace` present, one [`AtomTrace`] per atom is appended — its
    /// relation name, structure kind, cache outcome (diffed from `stats`),
    /// and build wall-time. `None` adds no timing calls at all.
    pub(super) fn build(
        query: &ConjunctiveQuery,
        db: &Database,
        sources: &'d [AtomSource<'d>],
        positions: &[Vec<usize>],
        opts: &ExecOptions,
        stats: &mut CacheStats,
        mut trace: Option<&mut Vec<AtomTrace>>,
    ) -> Result<Self, ExecError> {
        let threads = opts.resolved_threads();
        let ctx = CacheCtx {
            db,
            use_cache: opts.cache != CacheMode::Off && db.access_cache().is_enabled(),
            pinned: opts.cache == CacheMode::Pinned,
        };
        let mut atoms = Vec::with_capacity(sources.len());
        for ((atom, source), positions) in query.atoms().iter().zip(sources).zip(positions) {
            let started = trace.is_some().then(Instant::now);
            let before = *stats;
            let access = match source {
                AtomSource::Static(rel) => AtomAccess::Trie(cached_static(
                    &ctx, &atom.name, rel, positions, threads, stats,
                )?),
                AtomSource::Delta(delta) => AtomAccess::Delta(cached_delta(
                    &ctx, &atom.name, delta, positions, threads, stats,
                )?),
            };
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(AtomTrace {
                    relation: atom.name.clone(),
                    kind: access.kind().to_string(),
                    outcome: atom_outcome(&before, stats).to_string(),
                    build_ns: elapsed_ns(started),
                });
            }
            atoms.push(access);
        }
        if ctx.use_cache {
            stats.bytes = db.access_cache().bytes() as u64;
        }
        Ok(Self::from_atoms(atoms))
    }

    /// Pick the monomorphized fast path when every atom is static, the
    /// [`CursorKind`] composition otherwise.
    fn from_atoms(atoms: Vec<AtomAccess<'d>>) -> Self {
        let tries = atoms.iter().map(|a| match a {
            AtomAccess::Trie(t) => Some(Arc::clone(t)),
            AtomAccess::Delta(_) => None,
        });
        match tries.collect() {
            Some(tries) => BuiltAccess::Tries(tries),
            None => BuiltAccess::Mixed(atoms),
        }
    }

    /// Run the engine `S` over fresh cursor sets — serial for `threads == 1`,
    /// morsel workers otherwise. Monomorphizes per cursor type. Fails with
    /// [`ExecError::Canceled`] when `token` fires mid-run, or
    /// [`ExecError::WorkerPanicked`] when a morsel worker dies.
    pub(super) fn run<S: InteriorStep>(
        &self,
        participants: &[Vec<usize>],
        threads: usize,
        ctx: JoinCtx<'_>,
        token: Option<&CancelToken>,
        morsels: Option<&OnceLock<MorselTrace>>,
    ) -> Result<ColumnSink, ExecError> {
        match self {
            BuiltAccess::Tries(tries) => run_cursors::<S, _, _>(
                || tries.iter().map(|t| t.cursor()).collect(),
                participants,
                threads,
                ctx,
                token,
                morsels,
            ),
            BuiltAccess::Mixed(atoms) => run_cursors::<S, _, _>(
                || atoms.iter().map(|a| a.cursor()).collect(),
                participants,
                threads,
                ctx,
                token,
                morsels,
            ),
        }
    }
}
