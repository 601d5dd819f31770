//! Access-structure builds and their cache entries.
//!
//! [`BuiltAccess::build`] produces one access structure per atom, and there is
//! one kind: the CSR [`Trie`], the same for either WCOJ engine. Every stored
//! relation is a log with one trie per sealed run (plus the collapsed unsealed
//! buffer's, built per query), merged on the fly by the [`DeltaAccess`] union
//! cursor — and a log that comes to a single trie with no tombstone, such as a
//! loaded relation, runs on that trie alone. Every run's trie goes through the
//! one [`fetch_or_build`] and the per-database [`wcoj_storage::AccessCache`],
//! keyed `(relation, column positions, run id)`. Builds record no
//! [`wcoj_storage::WorkCounter`] work (their activity is tallied in
//! [`CacheStats`]), and a cached structure is the one a fresh build would
//! produce, bit for bit, so results and work counters are the same with the
//! cache on, off, or cold. Builds run on the calling thread; the only threads
//! an execution spawns are the morsel workers of [`super::parallel`].

use super::driver::run_cursors;
use super::engine::{InteriorStep, JoinCtx};
use super::trace::{atom_outcome, elapsed_ns};
use super::{CacheMode, CancelToken, ColumnSink, ExecOptions};
use crate::error::ExecError;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use wcoj_obs::{AtomTrace, MorselTrace};
use wcoj_query::{ConjunctiveQuery, Database};
use wcoj_storage::delta::Run;
use wcoj_storage::{CacheKey, CacheStats, CursorKind, DeltaAccess, DeltaRelation, Trie};

/// One atom's built access structure. Tries are `Arc`-shared with the access
/// cache, so a hit costs a refcount, not a rebuild.
pub(super) enum AtomAccess {
    Trie(Arc<Trie>),
    Delta(DeltaAccess),
}

impl AtomAccess {
    fn cursor(&self) -> CursorKind<'_> {
        match self {
            AtomAccess::Trie(t) => t.cursor().into(),
            AtomAccess::Delta(d) => d.cursor().into(),
        }
    }

    /// The trace's name for the structure serving the atom.
    fn kind(&self) -> &'static str {
        match self {
            AtomAccess::Trie(_) => "trie",
            AtomAccess::Delta(_) => "delta",
        }
    }
}

/// The access structures built for one execution, shared immutably by all
/// workers: all tries (the monomorphized fast path), or — as soon as any atom
/// needs the union cursor — one [`AtomAccess`] per atom, composed through
/// [`CursorKind`]'s branch (not vtable) dispatch.
pub(super) enum BuiltAccess {
    Tries(Vec<Arc<Trie>>),
    Mixed(Vec<AtomAccess>),
}

/// The cache side-channel of one [`BuiltAccess::build`]: the database whose
/// [`wcoj_storage::AccessCache`] to consult, and the
/// resolved [`CacheMode`]. `use_cache` is false when the mode is
/// [`CacheMode::Off`] *or* the cache's byte budget is zero — either way every
/// build is fresh and the shared cache is never touched.
struct CacheCtx<'a> {
    db: &'a Database,
    use_cache: bool,
}

/// Fetch-or-build the trie of one sealed run through the access cache. `key`
/// names the run by its id (`None`: not caching), which is never reissued, so
/// a stale entry can never be returned. Returns the trie and whether it was
/// built here; a built trie is inserted (the run's rows are its rebuild
/// cost), and the insert drops the entries of this relation and order whose
/// run no log holds any more.
fn fetch_or_build(
    ctx: &CacheCtx<'_>,
    key: Option<&CacheKey>,
    run: &Arc<Run>,
    positions: &[usize],
    stats: &mut CacheStats,
) -> Result<(Arc<Trie>, bool), ExecError> {
    let cache = ctx.db.access_cache();
    if let Some(t) = key.and_then(|key| cache.get(key)) {
        return Ok((t, false));
    }
    let t = Arc::new(run.trie(positions)?);
    if let Some(key) = key {
        let (cost, bytes) = (run.len() as u64, t.heap_bytes());
        let (value, source) = (Arc::clone(&t), Arc::downgrade(run));
        stats.evictions += cache.insert(key.clone(), value, source, cost, bytes);
    }
    Ok((t, true))
}

/// One atom's access structure: its log's sealed runs, each fetched or built
/// through the cache (the reader walks **its own** run list, so the head and
/// any number of pinned snapshots share the entries of the runs they have in
/// common and never write to each other's keys), plus the unsealed buffer
/// collapsed per query, exactly like an uncached build. One tally per atom:
/// every run found is a hit, some found an incremental merge (after a seal:
/// only the new run is built), none found a miss (cold, or after a compaction
/// or a rebind); a log with no sealed run — buffered ops only, or an empty
/// relation — has nothing to keep and tallies nothing. A log that comes to one
/// trie with no tombstone is served as that trie.
fn atom_access(
    ctx: &CacheCtx<'_>,
    name: &str,
    delta: &DeltaRelation,
    positions: &[usize],
    stats: &mut CacheStats,
) -> Result<AtomAccess, ExecError> {
    let mut key = ctx.use_cache.then(|| CacheKey {
        relation: name.to_string(),
        positions: positions.to_vec(),
        stamp: 0,
    });
    let mut built = 0;
    let access = DeltaAccess::assemble(delta, positions, |run| {
        if let Some(key) = key.as_mut() {
            key.stamp = run.id();
        }
        let (trie, fresh) = fetch_or_build(ctx, key.as_ref(), run, positions, stats)?;
        built += fresh as usize;
        Ok::<_, ExecError>(trie)
    })?;
    match built {
        _ if !ctx.use_cache || delta.num_runs() == 0 => {}
        0 => stats.hits += 1,
        n if n == delta.num_runs() => stats.misses += 1,
        _ => stats.incremental_merges += 1,
    }
    Ok(match access.tries() {
        [only] if !only.has_tombstones() => AtomAccess::Trie(Arc::clone(only)),
        _ => AtomAccess::Delta(access),
    })
}

impl BuiltAccess {
    /// Build (or fetch from the database's access cache) one access structure
    /// per atom over the column `positions` its join order resolves to (also
    /// the cache key's permutation component), each fresh one by
    /// [`wcoj_storage::delta::Run::trie`]. An atom whose log needs the union
    /// cursor gets a [`DeltaAccess`] over its runs' tries — no snapshot
    /// materialization.
    ///
    /// With `trace` present, one [`AtomTrace`] per atom is appended — its
    /// relation name, structure kind (`trie` on one trie, `delta` on the union
    /// cursor), cache outcome (diffed from `stats`), and build wall-time.
    /// `None` adds no timing calls at all.
    pub(super) fn build(
        query: &ConjunctiveQuery,
        db: &Database,
        sources: &[&DeltaRelation],
        positions: &[Vec<usize>],
        opts: &ExecOptions,
        stats: &mut CacheStats,
        mut trace: Option<&mut Vec<AtomTrace>>,
    ) -> Result<Self, ExecError> {
        let ctx = CacheCtx {
            db,
            use_cache: opts.cache != CacheMode::Off && db.access_cache().is_enabled(),
        };
        let mut atoms = Vec::with_capacity(sources.len());
        for ((atom, source), positions) in query.atoms().iter().zip(sources).zip(positions) {
            let started = trace.is_some().then(Instant::now);
            let before = *stats;
            let access = atom_access(&ctx, &atom.name, source, positions, stats)?;
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

    /// Pick the monomorphized fast path when every atom is a single trie, the
    /// [`CursorKind`] composition otherwise.
    fn from_atoms(atoms: Vec<AtomAccess>) -> Self {
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
