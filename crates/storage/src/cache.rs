//! Access-structure reuse: run ids, per-query cache tallies, and the
//! cumulative counters a service registers.
//!
//! One rule: **a log's run permuted to one column order is one
//! [`crate::Trie`], memoized on the run and dropped with it**
//! ([`crate::delta::Run::shared_trie`]).
//! There is no cache map, key or budget beside the run: a run is immutable,
//! so its tries can never go stale, and the run lives exactly as long as some
//! log — the head or a pinned snapshot — holds it, so its tries do too.
//!
//! An atom is served by its log's one run ([`crate::DeltaRelation::fold`]):
//! the live tuples as of the last seal, with no tombstone — a loaded
//! relation's run is its rows. The reader asks the run for its trie in the
//! atom's column order, the relation's native one included. A repeated query
//! hits; a seal gives the log a new run, whose trie is built once per order
//! (a miss). A snapshot and the advancing head share the tries of a run they
//! have in common. The unsealed append buffer is never memoized: it is merged
//! into the run per query and the result built as a plain trie, exactly as
//! uncached execution does — and a log with no run has nothing to memoize.
//!
//! The trade: resident trie bytes are bounded by the live runs times the
//! column orders read, not by a budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wcoj_obs::{Counter, Gauge, Registry};

static STAMP: AtomicU64 = AtomicU64::new(1);

/// The process-global monotone stamp source: every call returns a fresh,
/// unique value. Stamps identify immutable build inputs — sealed runs take
/// one per run, and [`crate::DeltaRelation`] epochs are refreshed from it on
/// every mutation — so equal stamps imply identical content even across
/// cloned catalogs.
pub fn next_stamp() -> u64 {
    STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Per-query trie-reuse tallies, surfaced on the execution layer's output.
/// Kept strictly separate from the engine work counters: reuse changes how
/// access structures come to exist, never what execution does with them, so
/// the work tallies stay bit-identical with the cache on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Atoms served by a trie already memoized on their run.
    pub hits: u64,
    /// Atoms whose run had no trie in their order yet: built and memoized.
    pub misses: u64,
    /// Heap bytes of the tries memoized on the runs of the catalog the query
    /// read, after its builds.
    pub bytes: u64,
}

/// The cumulative trie-reuse counters of one catalog, shared by its clones
/// and snapshots (`Arc`), so every execution over any of them folds in. Kept
/// as shared `wcoj-obs` primitives so a service can register them in its
/// metrics [`Registry`] (see [`CacheCounters::register_metrics`]).
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    /// Registered as `cache.incremental_merges` and `cache.evictions` and
    /// never added to: a log's trie is built whole from its one run, and a
    /// memoized trie goes only with its run. They stay, reading 0, because
    /// the request benchmark reads those names from the registry.
    incremental_merges: Arc<Counter>,
    evictions: Arc<Counter>,
    resident_bytes: Arc<Gauge>,
}

impl CacheCounters {
    /// Fold one query's [`CacheStats`] into the cumulative counters. Called
    /// once per query by the execution layer (never inside the join loop).
    pub fn record_query(&self, stats: &CacheStats) {
        self.hits.add(stats.hits);
        self.misses.add(stats.misses);
        self.resident_bytes.set(stats.bytes);
    }

    /// Register the cumulative counters (and the residency gauge) in a
    /// metrics [`Registry`] under `cache.*` names. Idempotent for one
    /// instance; registering two in one registry is a caller error (the
    /// registry will panic on the identity mismatch).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("cache.hits", Arc::clone(&self.hits));
        registry.register_counter("cache.misses", Arc::clone(&self.misses));
        registry.register_counter(
            "cache.incremental_merges",
            Arc::clone(&self.incremental_merges),
        );
        registry.register_counter("cache.evictions", Arc::clone(&self.evictions));
        registry.register_gauge("cache.resident_bytes", Arc::clone(&self.resident_bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_unique_and_monotone() {
        let a = next_stamp();
        let b = next_stamp();
        assert!(b > a);
    }

    #[test]
    fn cumulative_counters_fold_queries_and_register() {
        let counters = CacheCounters::default();
        counters.record_query(&CacheStats {
            hits: 2,
            misses: 1,
            bytes: 512,
        });
        counters.record_query(&CacheStats {
            hits: 1,
            misses: 0,
            bytes: 640,
        });
        let registry = Registry::new();
        counters.register_metrics(&registry);
        counters.register_metrics(&registry); // idempotent for the same instance
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("cache.hits"), Some(3));
        assert_eq!(snap.counter_value("cache.misses"), Some(1));
        assert_eq!(snap.counter_value("cache.incremental_merges"), Some(0));
        assert_eq!(snap.counter_value("cache.evictions"), Some(0));
        assert_eq!(
            snap.gauge_value("cache.resident_bytes"),
            Some(640),
            "residency is a level, not a flow"
        );
    }
}
