//! Access-structure builds and their reuse.
//!
//! [`BuiltAccess::build`] produces one access structure per atom, and there is
//! one kind: the CSR [`Trie`], the same for either WCOJ engine. Every stored
//! relation is a log read as one tombstone-free run — its sealed run, any
//! unsealed buffer merged in per query ([`DeltaRelation::live_run`]) — so an
//! atom's trie is built exactly as a loaded relation's is, and runs on the
//! same cursor. A sealed run's trie goes through the one [`fetch_or_build`],
//! which asks the run for it ([`wcoj_storage::delta::Run::shared_trie`]): the
//! run memoizes one trie per column order and drops them with itself. A
//! buffered log's is built per query. One execution fetches or builds
//! once per distinct `(relation, column positions)`: the atoms of a self-join
//! that read a relation in one order share its `Arc<Trie>`. Builds record no
//! [`wcoj_storage::WorkCounter`] work (their activity is tallied in
//! [`CacheStats`]), and a memoized structure is the one a fresh build would
//! produce, bit for bit, so results and work counters are the same with the
//! cache on, off, or cold. Builds and the join run on the calling thread.

use super::driver::run_cursors;
use super::engine::{InteriorStep, JoinCtx};
use super::trace::{atom_outcome, elapsed_ns};
use super::{CacheMode, CancelToken, ColumnSink, ExecOptions};
use crate::error::ExecError;
use std::sync::Arc;
use std::time::Instant;
use wcoj_obs::AtomTrace;
use wcoj_query::{ConjunctiveQuery, Database};
use wcoj_storage::delta::Run;
use wcoj_storage::{CacheStats, DeltaRelation, Trie};

/// The tries built for one execution, one per atom. Tries are `Arc`-shared
/// with the runs that memoize them, so a hit costs a refcount, not a rebuild.
pub(super) struct BuiltAccess(Vec<Arc<Trie>>);

/// The run whose tries `delta`'s atoms reuse: the log's run once nothing is
/// buffered, and only when `reuse` is on. A buffered log's live run is merged
/// per query, and a log with no run has nothing to keep.
fn memo_run(delta: &DeltaRelation, reuse: bool) -> Option<Arc<Run>> {
    delta.fold().filter(|_| reuse && delta.buffered() == 0)
}

/// Fetch-or-build one atom's trie: the trie of its log's live run over the
/// column `positions`. With a `memo` run (see [`memo_run`]) the run's trie is
/// tallied a hit when the run already had it, or built, memoized on the run
/// and tallied a miss — cold, or after a seal or a rebind gave the log a new
/// run. Without one the trie is built fresh and tallies nothing.
fn fetch_or_build(
    memo: Option<&Run>,
    delta: &DeltaRelation,
    positions: &[usize],
    stats: &mut CacheStats,
) -> Result<Arc<Trie>, ExecError> {
    let Some(run) = memo else {
        return Ok(Arc::new(delta.live_run().trie(positions)?));
    };
    let (trie, hit) = run.shared_trie(positions)?;
    if hit {
        stats.hits += 1;
    } else {
        stats.misses += 1;
    }
    Ok(trie)
}

impl BuiltAccess {
    /// Build (or fetch from the atoms' runs) one trie per atom over the column
    /// `positions` its join order resolves to, once per distinct `(relation,
    /// positions)`: an atom that reads a relation in an order an earlier atom
    /// already read shares that atom's trie, and tallies a hit when the trie
    /// is a memoized one.
    ///
    /// With `trace` present, one [`AtomTrace`] per atom is appended — its
    /// relation name, cache outcome (diffed from `stats`), and build
    /// wall-time. `None` adds no timing calls at all.
    pub(super) fn build(
        query: &ConjunctiveQuery,
        db: &Database,
        sources: &[&DeltaRelation],
        positions: &[Vec<usize>],
        opts: &ExecOptions,
        stats: &mut CacheStats,
        mut trace: Option<&mut Vec<AtomTrace>>,
    ) -> Result<Self, ExecError> {
        let reuse = opts.cache != CacheMode::Off;
        let mut tries: Vec<Arc<Trie>> = Vec::with_capacity(sources.len());
        let atoms = query.atoms().iter().zip(sources).zip(positions);
        for (i, ((atom, source), columns)) in atoms.enumerate() {
            let started = trace.is_some().then(Instant::now);
            let before = *stats;
            let memo = memo_run(source, reuse);
            let read = |j: usize| query.atoms()[j].name == atom.name && positions[j] == *columns;
            let trie = match (0..i).find(|&j| read(j)) {
                Some(j) => {
                    stats.hits += memo.is_some() as u64;
                    Arc::clone(&tries[j])
                }
                None => fetch_or_build(memo.as_deref(), source, columns, stats)?,
            };
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(AtomTrace {
                    relation: atom.name.clone(),
                    outcome: atom_outcome(&before, stats).to_string(),
                    build_ns: elapsed_ns(started),
                });
            }
            tries.push(trie);
        }
        if reuse {
            stats.bytes = db.trie_bytes() as u64;
        }
        Ok(BuiltAccess(tries))
    }

    /// Run the engine `S` over one fresh cursor per trie. Fails with
    /// [`ExecError::Canceled`] when `token` fires mid-run.
    pub(super) fn run<S: InteriorStep>(
        &self,
        participants: &[Vec<usize>],
        ctx: JoinCtx<'_>,
        token: Option<&CancelToken>,
    ) -> Result<ColumnSink, ExecError> {
        let mut cursors: Vec<_> = self.0.iter().map(|t| t.cursor()).collect();
        run_cursors::<S>(&mut cursors, participants, ctx, token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::Relation;

    /// The directed 3-cycle `E(A,B), E(B,C), E(C,A)` under the order A, B, C:
    /// the first two atoms read `E` in its native order, the third swapped.
    #[test]
    fn a_self_joins_same_order_atoms_hold_one_trie() {
        let query = ConjunctiveQuery::builder()
            .atom("E", &["A", "B"])
            .atom("E", &["B", "C"])
            .atom("E", &["C", "A"])
            .build()
            .unwrap();
        let positions = [vec![0, 1], vec![0, 1], vec![1, 0]];
        let mut db = Database::new();
        db.insert(
            "E",
            Relation::from_pairs("src", "dst", [(1, 2), (2, 3), (3, 1)]),
        );
        for buffered in [false, true] {
            if buffered {
                db.insert_delta("E", vec![3, 4]).unwrap();
            }
            for cache in [CacheMode::On, CacheMode::Off] {
                let label = format!("buffered {buffered}, cache {cache:?}");
                let opts = ExecOptions::default().with_cache(cache);
                let sources = db.atom_sources(&query).unwrap();
                let mut stats = CacheStats::default();
                let mut atoms = Vec::new();
                let built = BuiltAccess::build(
                    &query,
                    &db,
                    &sources,
                    &positions,
                    &opts,
                    &mut stats,
                    Some(&mut atoms),
                )
                .unwrap();
                let tries = &built.0;
                assert!(Arc::ptr_eq(&tries[0], &tries[1]), "{label}");
                assert!(!Arc::ptr_eq(&tries[0], &tries[2]), "{label}");
                assert_eq!(tries[0].num_tuples(), 3 + buffered as usize, "{label}");
                let outcomes: Vec<&str> = atoms.iter().map(|a| a.outcome.as_str()).collect();
                // the second atom shares the first one's trie: a hit when it is cached
                let expected = match cache == CacheMode::On && !buffered {
                    true => ["miss", "hit", "miss"],
                    false => ["bypass"; 3],
                };
                assert_eq!(outcomes, expected, "{label}");
            }
        }
    }
}
