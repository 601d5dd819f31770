//! The per-database access-structure cache: built [`Trie`]s, keyed by *what
//! they were built from* and evicted under a byte budget with cost-aware
//! (GreedyDual-Size style) priorities.
//!
//! # Keying and invalidation
//!
//! One rule: **a sealed run permuted to one column order is one entry — a
//! [`Trie`] — and the entry dies with its run.** A cache cannot safely key on
//! relation **names** alone — names are rebound (`Database::insert`
//! replaces), databases are cloned, and logs mutate in place — so every
//! [`CacheKey`] carries a **stamp**: the id of one immutable sealed run of a
//! [`crate::DeltaRelation`], taken from [`next_stamp`] (a process-global
//! monotone counter, never reissued) when the run is created — by a load, a
//! seal, a tier merge or a compaction.
//!
//! An atom is served run by run: the reader walks its own run list
//! ([`crate::DeltaRelation::runs`]) and fetches or builds each run's trie
//! ([`crate::delta::Run::trie`]), whatever the column order, the relation's
//! native one included. There is nothing to revalidate: a key either names a
//! run the reader holds or it does not. Every run found is a hit; after a seal
//! the one new run is the only one built (the **incremental merge**); after a
//! compaction, or a rebind of the name, the reader holds one run nobody has
//! seen, and builds it. A snapshot and the advancing head share the entries of
//! the runs they have in common and never contend for a key, so neither can
//! evict the other by reading. The unsealed append buffer is never cached —
//! it has no identity to key on, and is collapsed into an ephemeral run per
//! query, exactly as uncached execution does — and a log with no run (an
//! empty relation) has nothing to cache.
//!
//! An entry holds its run weakly, and the run lives exactly as long as some
//! log — the head or a snapshot — lists it. Once the last of them has dropped
//! it no reader can present its id again, so the entry is **dead**:
//! [`AccessCache::insert`] removes the dead entries of the `(relation,
//! positions)` it is inserting for, and each byte resident is charged to
//! exactly one entry.
//!
//! # Eviction
//!
//! Entries carry their byte footprint and a build-cost estimate (rows
//! scanned). While the cache exceeds its budget the entry with the lowest
//! priority `L + cost/bytes` is dropped and the clock `L` advances to the
//! victim's priority — the classic GreedyDual-Size rule (in integer
//! arithmetic), which decays to LRU for same-shaped entries but prefers
//! keeping structures that are expensive to rebuild per byte.
//!
//! The budget defaults to 256 MiB and is configurable via the
//! `WCOJ_CACHE_BYTES` environment variable; `0` disables caching entirely.

use crate::delta::Run;
use crate::trie::Trie;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use wcoj_obs::{Counter, Gauge, Registry};

/// Default cache budget (bytes) when `WCOJ_CACHE_BYTES` is unset: 256 MiB.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

static STAMP: AtomicU64 = AtomicU64::new(1);

/// The process-global monotone stamp source: every call returns a fresh,
/// unique value. Stamps identify immutable build inputs — sealed runs take
/// one per run, and [`crate::DeltaRelation`] epochs are refreshed from it on
/// every mutation — so equal stamps imply identical content even across
/// cloned catalogs.
pub fn next_stamp() -> u64 {
    STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Per-query cache activity tallies, surfaced on the execution layer's output.
/// Kept strictly separate from the engine work counters: caching changes how
/// access structures come to exist, never what execution does with them, so
/// the work tallies stay bit-identical with the cache on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a valid entry as-is.
    pub hits: u64,
    /// Lookups that found nothing usable and built from scratch.
    pub misses: u64,
    /// Delta lookups that found some of the reader's runs and built only the
    /// others — newly sealed ones (the incremental path between a hit and a
    /// rebuild).
    pub incremental_merges: u64,
    /// Cache residency in bytes after the query's builds.
    pub bytes: u64,
    /// Entries evicted by this query's insertions.
    pub evictions: u64,
}

impl CacheStats {
    /// Fold another query's tallies into this one (for aggregating sweeps).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.incremental_merges += other.incremental_merges;
        self.evictions += other.evictions;
        self.bytes = other.bytes; // residency is a level, not a flow
    }
}

/// What a cached trie was built from: the relation's catalog name, the column
/// permutation it was built over, and the id of the sealed run (see the
/// [module docs](crate::cache)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Catalog name of the source relation.
    pub relation: String,
    /// Column positions, one per attribute, in the built order.
    pub positions: Vec<usize>,
    /// The sealed run's id ([`crate::delta::Run::id`]).
    pub stamp: u64,
}

#[derive(Debug)]
struct Entry {
    /// Shared by reference count: a hit hands the execution layer an `Arc`
    /// clone, so eviction can never invalidate an in-flight query.
    value: Arc<Trie>,
    /// The sealed run this was built from, held weakly: the entry must not
    /// keep a compacted-away or rebound run's rows alive, and the run's
    /// refcount is how the cache learns that no log (head or snapshot) can
    /// ask for it again.
    source: Weak<Run>,
    bytes: usize,
    cost: u64,
    priority: u64,
}

/// GreedyDual-Size credit: build cost per byte, scaled to integer arithmetic
/// and clamped so pathological ratios cannot starve the clock.
fn credit(cost: u64, bytes: usize) -> u64 {
    (cost.saturating_mul(1024) / (bytes.max(1) as u64)).min(1 << 20) + 1
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// The GreedyDual clock `L`: advances to the victim's priority on
    /// eviction, so long-idle entries age relative to fresh ones.
    clock: u64,
    bytes: usize,
}

/// The shared concurrent access-structure cache — one per `Database`
/// (`Arc`-shared across clones), guarded by a single mutex. Builds happen
/// *outside* the lock: the execution layer looks up, releases, builds, and
/// inserts, so a racing double-build costs duplicated work, never a wrong
/// result (the later insert simply replaces an identical entry).
#[derive(Debug)]
pub struct AccessCache {
    budget: usize,
    inner: Mutex<Inner>,
    /// Cumulative process-lifetime tallies, kept as shared `wcoj-obs`
    /// primitives so a service can register them in its metrics [`Registry`]
    /// (see [`AccessCache::register_metrics`]). Per-query [`CacheStats`] stay
    /// the execution layer's concern; these fold every query in.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    incremental_merges: Arc<Counter>,
    evictions: Arc<Counter>,
    resident_bytes: Arc<Gauge>,
}

impl Default for AccessCache {
    /// Budget from `WCOJ_CACHE_BYTES` (bytes; `0` disables), defaulting to
    /// [`DEFAULT_CACHE_BYTES`].
    fn default() -> Self {
        let budget = std::env::var("WCOJ_CACHE_BYTES")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_CACHE_BYTES);
        AccessCache::with_budget(budget)
    }
}

impl AccessCache {
    /// A cache with an explicit byte budget (`0` disables caching).
    pub fn with_budget(budget: usize) -> Self {
        AccessCache {
            budget,
            inner: Mutex::new(Inner::default()),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            incremental_merges: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
            resident_bytes: Arc::new(Gauge::new()),
        }
    }

    /// Fold one query's [`CacheStats`] into the cumulative counters. Called
    /// once per query by the execution layer (never inside the join loop).
    pub fn record_query(&self, stats: &CacheStats) {
        self.hits.add(stats.hits);
        self.misses.add(stats.misses);
        self.incremental_merges.add(stats.incremental_merges);
        self.evictions.add(stats.evictions);
        self.resident_bytes.set(stats.bytes);
    }

    /// The cumulative process-lifetime tallies as a [`CacheStats`] view —
    /// the same shape callers already consume per query.
    pub fn cumulative_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            incremental_merges: self.incremental_merges.get(),
            bytes: self.resident_bytes.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Register the cumulative counters (and the residency gauge) in a
    /// metrics [`Registry`] under `cache.*` names. Idempotent for one cache
    /// instance; registering two caches in one registry is a caller error
    /// (the registry will panic on the identity mismatch).
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

    /// Lock the cache state, **recovering** from a poisoned mutex: a build
    /// thread that panics while holding the lock must not wedge every
    /// subsequent query on this database. The panicked section may have left
    /// the residency accounting mid-update, so recovery resets the cache to
    /// empty — always sound, because the cache is a pure optimization — and
    /// clears the poison flag so later locks take the fast path again.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.inner.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.map.clear();
                guard.bytes = 0;
                guard.clock = 0;
                guard
            }
        }
    }

    /// The byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether the cache accepts entries at all (`budget > 0`).
    pub fn is_enabled(&self) -> bool {
        self.budget > 0
    }

    /// Current residency in bytes.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (in-flight `Arc` clones stay valid).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    /// Look up `key`, refreshing its eviction priority on a hit. The returned
    /// value is an `Arc` clone.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Trie>> {
        let mut inner = self.lock();
        let clock = inner.clock;
        let entry = inner.map.get_mut(key)?;
        entry.priority = clock + credit(entry.cost, entry.bytes);
        Some(Arc::clone(&entry.value))
    }

    /// Insert (or replace) `key` with `value`, charging `bytes` of residency
    /// and remembering the build-`cost` estimate (rows scanned) for the
    /// eviction priority. Returns how many entries were evicted to fit. A
    /// value larger than the whole budget is not admitted (inserting it could
    /// only thrash). `source` is the sealed run the trie was built from: dead
    /// entries of the same `(relation, positions)` — tries of runs no log
    /// holds any more — are removed first, and are not counted as evictions:
    /// nothing could have hit them.
    pub fn insert(
        &self,
        key: CacheKey,
        value: Arc<Trie>,
        source: Weak<Run>,
        cost: u64,
        bytes: usize,
    ) -> u64 {
        let mut inner = self.lock();
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        let mut reclaimed = 0;
        inner.map.retain(|k, e| {
            let dead = e.source.strong_count() == 0
                && k.relation == key.relation
                && k.positions == key.positions;
            if dead {
                reclaimed += e.bytes;
            }
            !dead
        });
        inner.bytes -= reclaimed;
        if !self.is_enabled() || bytes > self.budget {
            return 0;
        }
        let priority = inner.clock + credit(cost, bytes);
        inner.map.insert(
            key,
            Entry {
                value,
                source,
                bytes,
                cost,
                priority,
            },
        );
        inner.bytes += bytes;
        let mut evicted = 0u64;
        while inner.bytes > self.budget {
            // victim: lowest priority, with a deterministic key tie-break
            // (map iteration order is not)
            let victim = inner
                .map
                .iter()
                .min_by(|(ka, ea), (kb, eb)| {
                    ea.priority
                        .cmp(&eb.priority)
                        .then_with(|| ka.relation.cmp(&kb.relation))
                        .then_with(|| ka.stamp.cmp(&kb.stamp))
                        .then_with(|| ka.positions.cmp(&kb.positions))
                })
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            let gone = inner.map.remove(&victim).expect("victim came from the map");
            inner.bytes -= gone.bytes;
            inner.clock = inner.clock.max(gone.priority);
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaRelation;
    use crate::relation::Relation;
    use crate::schema::Schema;

    fn trie_of(n: u64) -> Arc<Trie> {
        let rel = Relation::from_pairs("A", "B", (0..n).map(|i| (i, i + 1)));
        Arc::new(Trie::build(&rel, &["A", "B"]).unwrap())
    }

    /// The source of entries whose run outlives every test (never dead).
    fn live() -> Weak<Run> {
        static RUN: std::sync::OnceLock<Arc<Run>> = std::sync::OnceLock::new();
        Arc::downgrade(RUN.get_or_init(|| {
            let rel = Relation::from_pairs("A", "B", [(0, 1)]);
            Arc::clone(&DeltaRelation::from_relation(rel).runs()[0])
        }))
    }

    fn key(name: &str, stamp: u64) -> CacheKey {
        CacheKey {
            relation: name.to_string(),
            positions: vec![0, 1],
            stamp,
        }
    }

    #[test]
    fn stamps_are_unique_and_monotone() {
        let a = next_stamp();
        let b = next_stamp();
        assert!(b > a);
    }

    #[test]
    fn insert_get_roundtrip_and_replacement() {
        let cache = AccessCache::with_budget(1 << 20);
        let t = trie_of(10);
        assert!(cache.get(&key("R", 1)).is_none());
        cache.insert(key("R", 1), Arc::clone(&t), live(), 10, 100);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 100);
        let got = cache.get(&key("R", 1)).expect("just inserted");
        assert!(Arc::ptr_eq(&got, &t));
        // different stamp = different relation generation = different entry
        assert!(cache.get(&key("R", 2)).is_none());
        // replacement under the same key swaps bytes, not duplicates
        cache.insert(key("R", 1), trie_of(5), live(), 5, 60);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 60);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_wedging() {
        let cache = AccessCache::with_budget(1 << 20);
        cache.insert(key("R", 1), trie_of(3), live(), 3, 100);
        assert_eq!(cache.len(), 1);
        // A builder thread dies while holding the cache lock.
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.inner.lock().unwrap();
                panic!("builder thread panics under the cache lock");
            })
            .join()
        });
        assert!(died.is_err());
        // Recovery resets to empty (the accounting may be torn mid-insert)
        // and every operation keeps working instead of panicking.
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
        cache.insert(key("R", 1), trie_of(3), live(), 3, 100);
        assert!(cache.get(&key("R", 1)).is_some());
        assert_eq!(cache.bytes(), 100);
    }

    #[test]
    fn eviction_is_cost_aware_and_bounded() {
        let cache = AccessCache::with_budget(250);
        let t = trie_of(4);
        // same bytes, different build costs: the cheap-to-rebuild entry goes first
        cache.insert(key("cheap", 1), Arc::clone(&t), live(), 1, 100);
        cache.insert(key("dear", 1), Arc::clone(&t), live(), 1_000, 100);
        let evicted = cache.insert(key("new", 1), Arc::clone(&t), live(), 10, 100);
        assert_eq!(evicted, 1);
        assert!(cache.get(&key("cheap", 1)).is_none(), "cheap entry evicted");
        assert!(cache.get(&key("dear", 1)).is_some());
        assert!(cache.get(&key("new", 1)).is_some());
        assert!(cache.bytes() <= 250);
    }

    #[test]
    fn oversized_values_are_not_admitted() {
        let cache = AccessCache::with_budget(50);
        let t = trie_of(4);
        assert_eq!(
            cache.insert(key("big", 1), Arc::clone(&t), live(), 1, 100),
            0
        );
        assert!(cache.is_empty(), "over-budget value not admitted");
    }

    fn run_key(id: u64) -> CacheKey {
        CacheKey {
            relation: "E".to_string(),
            positions: vec![1, 0],
            stamp: id,
        }
    }

    /// What the execution layer does for one delta-backed atom: look up the
    /// reader's own runs, build the tries that are missing, keep those.
    /// Returns how many were built.
    fn fetch_or_build(cache: &AccessCache, delta: &DeltaRelation) -> usize {
        let mut built = 0;
        for run in delta.runs() {
            if cache.get(&run_key(run.id())).is_none() {
                let trie = Arc::new(run.trie(&[1, 0]).unwrap());
                let (cost, bytes) = (run.len() as u64, trie.heap_bytes());
                let source = Arc::downgrade(run);
                cache.insert(run_key(run.id()), trie, source, cost, bytes);
                built += 1;
            }
        }
        built
    }

    /// Sum of `heap_bytes()` over the resident tries of `ids`, and how many
    /// of them are resident.
    fn resident(cache: &AccessCache, ids: &[u64]) -> (usize, usize) {
        let tries = ids.iter().filter_map(|&id| cache.get(&run_key(id)));
        tries.fold((0, 0), |(bytes, n), t| (bytes + t.heap_bytes(), n + 1))
    }

    #[test]
    fn each_resident_byte_is_charged_once_and_dead_runs_are_reclaimed() {
        let cache = AccessCache::with_budget(1 << 20);
        let mut head = DeltaRelation::new(Schema::new(&["A", "B"]));
        head.set_seal_threshold(usize::MAX);
        for i in 0..512u64 {
            head.insert(vec![i % 31, i]).unwrap();
        }
        head.seal();
        assert_eq!(fetch_or_build(&cache, &head), 1, "cold: the base");
        // seal-extend: each small seal adds one run and one entry, and the
        // tries every reader shares are charged to exactly one of them
        for round in 0..3u64 {
            for i in 0..(16 >> round) {
                head.insert(vec![round, 1000 + 100 * round + i]).unwrap();
            }
            head.seal();
            assert_eq!(head.num_runs(), round as usize + 2, "no tier merge");
            assert_eq!(fetch_or_build(&cache, &head), 1, "only the new run");
            assert_eq!(fetch_or_build(&cache, &head), 0, "then every run hits");
            let (bytes, n) = resident(&cache, &head.run_ids());
            assert_eq!(n, head.num_runs());
            assert_eq!(cache.len(), n);
            assert_eq!(cache.bytes(), bytes, "round {round}");
        }
        // a snapshot pins the four runs; the head compacts them away
        let snapshot = head.clone();
        head.compact();
        assert_eq!(fetch_or_build(&cache, &head), 1);
        assert_eq!(fetch_or_build(&cache, &snapshot), 0, "shared entries hit");
        let both = [snapshot.run_ids(), head.run_ids()].concat();
        let (bytes, n) = resident(&cache, &both);
        assert_eq!(
            (n, cache.len()),
            (5, 5),
            "the snapshot keeps its runs alive"
        );
        assert_eq!(cache.bytes(), bytes);
        // once it is gone, the next insert for this relation and order
        // reclaims what only it held
        drop(snapshot);
        assert_eq!(cache.len(), 5, "nothing happens until an insert");
        head.insert(vec![77, 7000]).unwrap();
        head.seal();
        assert_eq!(fetch_or_build(&cache, &head), 1);
        let (bytes, n) = resident(&cache, &both);
        assert_eq!(n, 1, "only the compacted base survives of the old five");
        let (tail, _) = resident(&cache, &head.run_ids()[1..]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), bytes + tail);
    }

    #[test]
    fn cumulative_counters_fold_queries_and_register() {
        let cache = AccessCache::with_budget(1 << 20);
        cache.record_query(&CacheStats {
            hits: 2,
            misses: 1,
            incremental_merges: 1,
            bytes: 512,
            evictions: 0,
        });
        cache.record_query(&CacheStats {
            hits: 1,
            misses: 0,
            incremental_merges: 0,
            bytes: 640,
            evictions: 3,
        });
        let total = cache.cumulative_stats();
        assert_eq!(total.hits, 3);
        assert_eq!(total.misses, 1);
        assert_eq!(total.incremental_merges, 1);
        assert_eq!(total.evictions, 3);
        assert_eq!(total.bytes, 640, "residency is a level, not a flow");
        let registry = Registry::new();
        cache.register_metrics(&registry);
        cache.register_metrics(&registry); // idempotent for the same cache
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("cache.hits"), Some(3));
        assert_eq!(snap.gauge_value("cache.resident_bytes"), Some(640));
    }

    #[test]
    fn zero_budget_disables() {
        let cache = AccessCache::with_budget(0);
        assert!(!cache.is_enabled());
        cache.insert(key("R", 1), trie_of(2), live(), 1, 10);
        assert!(cache.is_empty());
    }

    #[test]
    fn recency_breaks_cost_ties() {
        let cache = AccessCache::with_budget(200);
        let t = trie_of(4);
        cache.insert(key("a", 1), Arc::clone(&t), live(), 10, 100);
        cache.insert(key("b", 1), Arc::clone(&t), live(), 10, 100);
        // evicting "a" (priority tie, key tie-break) advances the clock past
        // the survivors; a touched survivor then outlives an untouched one
        cache.insert(key("c", 1), Arc::clone(&t), live(), 10, 100);
        assert!(cache.get(&key("a", 1)).is_none());
        let _ = cache.get(&key("c", 1));
        cache.insert(key("d", 1), Arc::clone(&t), live(), 10, 100);
        assert!(
            cache.get(&key("b", 1)).is_none(),
            "stale entry is the victim"
        );
        assert!(
            cache.get(&key("c", 1)).is_some(),
            "recently touched survives"
        );
        assert!(cache.get(&key("d", 1)).is_some());
    }
}
