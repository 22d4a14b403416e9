//! The reference-profile cache behind the serving layer.
//!
//! Building a pair's evaluation state — its CFG and, above all, its
//! [`ReferenceProfile`] — is the most expensive step of any evaluation
//! (one full extra execution of the workload, untimed). The grid engine
//! ([`crate::grid`]) amortizes it across a *static* grid, one reference
//! per workload; this module amortizes it across *arbitrary request
//! traffic*, one per resident pair:
//!
//! * [`PairParts`] bundles the shareable per-pair state (CFG + reference)
//!   and is the one place sessions over a pair are constructed from —
//!   both [`crate::grid::PairCtx`] and the serving layer
//!   ([`crate::serve`]) go through it;
//! * [`ProfileCache`] is an LRU-bounded, thread-safe map from
//!   catalog-namespaced `(machine, workload)` pair keys ([`PairKey`]) to
//!   [`PairParts`], so a profile is built at most once per pair per cache
//!   residency — and every tenant of a multi-catalog service shares one
//!   cache without key collisions. Per-tenant hit/miss/eviction counters
//!   are surfaced through [`CacheStats::tenants`].
//!
//! Cache contents are pure functions of the pair, so eviction and
//! rebuild change *when* work happens, never *what* a response contains
//! — the determinism contract of the grid engine extends to any cache
//! capacity.

use crate::error::CoreError;
use crate::session::Session;
use crate::store::SnapshotStore;
use ct_instrument::ReferenceProfile;
use ct_isa::{Cfg, Program};
use ct_sim::{MachineModel, RunConfig};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Cache key: a `(machine, workload)` pair *namespaced by its catalog*.
///
/// The serving layer resolves requests through a
/// [`crate::serve::CatalogRegistry`] holding several named catalogs, and
/// every tenant shares one [`ProfileCache`]. Two catalogs may bind the
/// same `(machine, workload)` indices to entirely different programs, so
/// the catalog index is part of the key — without it, tenant B would be
/// handed tenant A's reference profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairKey {
    /// Index of the catalog in the owning registry (`0` for a
    /// single-catalog service).
    pub catalog: usize,
    /// Index of the machine in its catalog.
    pub machine: usize,
    /// Index of the workload in its catalog.
    pub workload: usize,
}

impl PairKey {
    /// A key for the `(machine, workload)` pair of one catalog.
    #[must_use]
    pub fn new(catalog: usize, machine: usize, workload: usize) -> Self {
        Self {
            catalog,
            machine,
            workload,
        }
    }
}

/// The shareable evaluation state of one `(machine, workload)` pair: the
/// workload's CFG plus its exact reference profile.
///
/// Every consumer of a pair — grid cells, serve requests — builds its
/// [`Session`]s from one `PairParts` so the expensive state is collected
/// once and shared, never rebuilt per consumer. The reference does not
/// depend on the machine, so the grid shares one `Arc` among every pair
/// of a workload.
#[derive(Debug, Clone)]
pub struct PairParts {
    /// The workload's control-flow graph.
    pub cfg: Arc<Cfg>,
    /// The workload's exact reference profile.
    pub reference: Arc<ReferenceProfile>,
}

impl PairParts {
    /// Collects the workload's reference profile (one untimed execution)
    /// against a prebuilt CFG, for a pair on `machine`.
    ///
    /// The reference needs no machine, but the pair's sampled runs do:
    /// the machine's cache geometry is validated first, so a machine that
    /// no timed run can use fails here, where its pair attaches, with the
    /// error its first run would raise.
    pub fn collect(
        machine: &MachineModel,
        program: &Program,
        run_config: &RunConfig,
        cfg: Arc<Cfg>,
    ) -> Result<Self, CoreError> {
        machine.cache.validate()?;
        let (reference, _) = ReferenceProfile::collect_with_cfg(program, &cfg, run_config)?;
        Ok(Self {
            cfg,
            reference: Arc::new(reference),
        })
    }

    /// A session over the pair that shares this state (no reference
    /// re-execution, no CFG rebuild).
    #[must_use]
    pub fn session<'a>(
        &self,
        machine: &'a MachineModel,
        program: &'a Program,
        run_config: RunConfig,
    ) -> Session<'a> {
        Session::with_shared_parts(
            machine,
            program,
            run_config,
            self.cfg.clone(),
            Some(self.reference.clone()),
        )
    }
}

/// Cumulative per-catalog (tenant) counters of a shared
/// [`ProfileCache`], one entry per catalog that ever touched the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCacheStats {
    /// The catalog's registry index ([`PairKey::catalog`]).
    pub catalog: usize,
    /// This catalog's lookups satisfied by a resident entry.
    pub hits: u64,
    /// This catalog's lookups that found no resident entry.
    pub misses: u64,
    /// This catalog's entries evicted by the capacity bound.
    pub evictions: u64,
    /// This catalog's entries currently resident.
    pub resident: usize,
}

impl TenantCacheStats {
    /// Fraction of this catalog's lookups served from residency.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Cumulative [`ProfileCache`] counters.
///
/// One lookup is counted per [`ProfileCache::get_or_build`] call (the
/// serving layer performs one per request shard, not one per request —
/// see [`crate::serve::ServeStats`] for per-request accounting).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied by a resident entry.
    pub hits: u64,
    /// Lookups that found no resident entry.
    pub misses: u64,
    /// Successful builds (≤ `misses`; failed builds are not counted).
    pub builds: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub resident: usize,
    /// The cache's configured capacity (`0` = unbounded).
    pub capacity: usize,
    /// Per-catalog breakdown: dense over catalog indices `0..=highest`
    /// catalog that ever looked an entry up (a lower-indexed catalog
    /// that never did appears with all-zero counters), empty for an
    /// untouched cache.
    pub tenants: Vec<TenantCacheStats>,
    /// Whether a [`SnapshotStore`] backing directory is attached.
    pub snapshot_store: bool,
    /// Cold builds avoided by loading a validated snapshot from the
    /// backing store (each still counts in `builds`, preserving the
    /// "one build per miss" accounting — the saving shows up in the
    /// [`ct_instrument::CollectionAudit`] instead).
    pub snapshot_hits: u64,
    /// Snapshots present but rejected (corrupt, truncated, stale
    /// fingerprint, unreadable); each fell back to a cold build that
    /// then rewrote the snapshot.
    pub snapshot_rejects: u64,
}

impl CacheStats {
    /// One-line human summary of the capacity and its outcome; also this
    /// type's `Display` form.
    #[must_use]
    pub fn summary(&self) -> String {
        let capacity = if self.capacity == 0 {
            "unbounded".to_string()
        } else {
            self.capacity.to_string()
        };
        let mut line = format!(
            "capacity {capacity} | resident {} | evictions {}",
            self.resident, self.evictions
        );
        if self.snapshot_store {
            line.push_str(&format!(
                " | snapshots {} hits / {} rejects",
                self.snapshot_hits, self.snapshot_rejects
            ));
        }
        line
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

/// A build in progress: waiters block on the condvar until the builder
/// publishes its result.
struct InFlight {
    result: Mutex<Option<Result<Arc<PairParts>, CoreError>>>,
    ready: Condvar,
}

/// Unwind protection around a registered in-flight build: if the
/// builder panics before publishing, the guard's drop removes the
/// in-flight entry and publishes [`CoreError::BuildPanicked`] — so
/// waiters sharing the doomed build wake with an error instead of
/// blocking forever on a result that will never arrive (and later
/// lookups of the key retry the build instead of queueing behind a
/// ghost). Disarmed on the normal path, where the builder publishes its
/// own result.
struct FlightGuard<'a> {
    cache: &'a ProfileCache,
    key: PairKey,
    flight: &'a Arc<InFlight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        {
            // This drop already runs during an unwind: tolerate a
            // poisoned map lock rather than double-panicking (which
            // would abort the process and defeat the isolation).
            let mut inner = self
                .cache
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            inner.in_flight.retain(|(k, _)| *k != self.key);
        }
        let mut result = self
            .flight
            .result
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *result = Some(Err(CoreError::BuildPanicked));
        self.flight.ready.notify_all();
    }
}

/// An attached [`SnapshotStore`] plus its outcome counters. The counters
/// are atomics because loads and saves happen outside the map lock, in
/// the builder's flight-guarded region.
pub(crate) struct SnapshotBacking {
    store: SnapshotStore,
    hits: AtomicU64,
    rejects: AtomicU64,
}

/// Per-catalog tally of a shared cache (indexed by catalog, grown on
/// demand).
#[derive(Debug, Clone, Copy, Default)]
struct TenantTally {
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Default)]
struct CacheInner {
    /// LRU order: front is least recently used, back is most recent.
    entries: Vec<(PairKey, Arc<PairParts>)>,
    /// Keys currently being built, so concurrent lookups of the same key
    /// share one build instead of each running an instrumented execution.
    in_flight: Vec<(PairKey, Arc<InFlight>)>,
    hits: u64,
    misses: u64,
    builds: u64,
    evictions: u64,
    /// Per-catalog counters, indexed by [`PairKey::catalog`].
    tenants: Vec<TenantTally>,
}

impl CacheInner {
    /// The per-catalog tally for `catalog`, grown on demand.
    fn tally(&mut self, catalog: usize) -> &mut TenantTally {
        if self.tenants.len() <= catalog {
            self.tenants.resize_with(catalog + 1, TenantTally::default);
        }
        &mut self.tenants[catalog]
    }

    /// Evicts least recently used entries while more than `capacity`
    /// are resident (`0` = unbounded), charging each eviction to the
    /// evicted entry's catalog.
    fn evict_over_capacity(&mut self, capacity: usize) {
        while capacity > 0 && self.entries.len() > capacity {
            let (evicted, _) = self.entries.remove(0);
            self.evictions += 1;
            self.tally(evicted.catalog).evictions += 1;
        }
    }
}

/// An LRU-bounded, thread-safe cache of [`PairParts`] keyed by
/// `(machine, workload)` pair.
///
/// One lock guards the map and its counters, and it is held only for
/// bookkeeping — builds run outside it, so distinct pairs build
/// concurrently. Entries handed out are [`Arc`]s: eviction never
/// invalidates state a consumer is still using, it only drops the
/// cache's own reference.
pub struct ProfileCache {
    inner: Mutex<CacheInner>,
    /// Most entries resident at once; `0` means unbounded.
    capacity: usize,
    /// Optional on-disk [`SnapshotStore`] backing: read-through on a
    /// miss, write-behind after a cold build (see
    /// [`Self::attach_snapshot_store`]). The serving layer moves it onto
    /// a rebuilt cache when its capacity changes.
    pub(crate) snapshot: Option<SnapshotBacking>,
}

impl ProfileCache {
    /// A cache that never evicts: every pair is built at most once per
    /// cache lifetime.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::with_capacity(0)
    }

    /// A cache holding at most `capacity` pairs, evicting the least
    /// recently used; `0` means unbounded.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::default(),
            capacity,
            snapshot: None,
        }
    }

    /// Attaches an on-disk [`SnapshotStore`] over `dir`: subsequent
    /// fingerprinted misses read through it before building, and cold
    /// builds write behind into it. Attaching resets the snapshot
    /// counters; the resident set and ordinary counters are untouched.
    pub fn attach_snapshot_store(&mut self, dir: impl Into<PathBuf>) {
        self.snapshot = Some(SnapshotBacking {
            store: SnapshotStore::new(dir),
            hits: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
        });
    }

    /// Whether a snapshot backing directory is attached.
    #[must_use]
    pub fn has_snapshot_store(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Returns the resident entry for `key`, marking it most recently
    /// used, or builds one with `build`, inserting it (and evicting the
    /// least recently used entry when over capacity) on success.
    ///
    /// The boolean is `true` on a hit. Concurrent calls for the same
    /// key share a single build: the first caller builds (outside the
    /// map lock, so distinct pairs still build concurrently) and every
    /// other caller blocks until the result is published, then counts as
    /// a hit — the "at most one build per pair per residency" guarantee
    /// holds even across concurrent batches on one cache. Build errors
    /// are returned to the builder *and* its waiters and cache nothing,
    /// so a later retry re-attempts the build.
    pub fn get_or_build<F>(
        &self,
        key: PairKey,
        build: F,
    ) -> Result<(Arc<PairParts>, bool), CoreError>
    where
        F: FnOnce() -> Result<PairParts, CoreError>,
    {
        self.get_or_build_with_fingerprint(key, None, build)
    }

    /// [`Self::get_or_build`] with an optional pair fingerprint
    /// ([`crate::store::pair_fingerprint`]) enabling the snapshot store.
    ///
    /// On a miss with a fingerprint and an attached store, the builder
    /// first tries to load `<fingerprint>.snap` from the backing
    /// directory: a validated snapshot substitutes for the build (a
    /// *snapshot hit* — no instrumented execution, though it still
    /// counts as a cache build so residency accounting is unchanged); a
    /// corrupt, truncated or stale snapshot is counted as a *snapshot
    /// reject* and the cold build proceeds exactly as without a store,
    /// rewriting the snapshot on success (write-behind, best-effort).
    /// `None` (or no attached store) is byte-for-byte the plain path.
    pub fn get_or_build_with_fingerprint<F>(
        &self,
        key: PairKey,
        fingerprint: Option<u64>,
        build: F,
    ) -> Result<(Arc<PairParts>, bool), CoreError>
    where
        F: FnOnce() -> Result<PairParts, CoreError>,
    {
        let flight: Arc<InFlight> = {
            let mut inner = self.lock();
            if let Some(pos) = inner.entries.iter().position(|(k, _)| *k == key) {
                let parts = inner.entries[pos].1.clone();
                // Move the entry to the back: it is now most recent.
                inner.entries[pos..].rotate_left(1);
                inner.hits += 1;
                inner.tally(key.catalog).hits += 1;
                return Ok((parts, true));
            }
            if let Some(flight) = inner
                .in_flight
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, f)| f.clone())
            {
                // Another thread is already building this key: share its
                // build (a hit — no additional instrumented execution).
                inner.hits += 1;
                inner.tally(key.catalog).hits += 1;
                drop(inner);
                let mut result = flight.result.lock().expect("in-flight lock never poisoned");
                while result.is_none() {
                    result = flight
                        .ready
                        .wait(result)
                        .expect("in-flight lock never poisoned");
                }
                return result
                    .clone()
                    .expect("signaled after publication")
                    .map(|parts| (parts, true));
            }
            inner.misses += 1;
            inner.tally(key.catalog).misses += 1;
            let flight = Arc::new(InFlight {
                result: Mutex::new(None),
                ready: Condvar::new(),
            });
            inner.in_flight.push((key, flight.clone()));
            flight
        };

        // Build outside the map lock so distinct pairs build concurrently;
        // the in-flight entry above keeps same-key callers waiting. The
        // guard is armed only across the builder itself — the one place
        // caller code (and a panic) can run.
        let built = {
            let mut guard = FlightGuard {
                cache: self,
                key,
                flight: &flight,
                armed: true,
            };
            let built = self.load_or_build(fingerprint, build).map(Arc::new);
            guard.armed = false;
            built
        };
        {
            let mut inner = self.lock();
            inner.in_flight.retain(|(k, _)| *k != key);
            if let Ok(parts) = &built {
                inner.builds += 1;
                // No same-key insert can have raced us: they all waited.
                inner.entries.push((key, parts.clone()));
                inner.evict_over_capacity(self.capacity);
            }
        }
        let mut result = flight.result.lock().expect("in-flight lock never poisoned");
        *result = Some(built.clone());
        flight.ready.notify_all();
        drop(result);
        built.map(|parts| (parts, false))
    }

    /// The build step of a miss, routed through the snapshot store when
    /// one is attached and the caller supplied a fingerprint. Runs in
    /// the flight-guarded region, outside the map lock. Cache contents
    /// are pure functions of the pair and equal fingerprints name equal
    /// inputs, so a validated snapshot load is indistinguishable (byte
    /// for byte) from the build it replaces.
    fn load_or_build<F>(&self, fingerprint: Option<u64>, build: F) -> Result<PairParts, CoreError>
    where
        F: FnOnce() -> Result<PairParts, CoreError>,
    {
        let (Some(fp), Some(backing)) = (fingerprint, &self.snapshot) else {
            return build();
        };
        match backing.store.load(fp) {
            Ok(Some(parts)) => {
                backing.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(parts);
            }
            // A cold store is the normal first run: neither hit nor reject.
            Ok(None) => {}
            // Typed rejection (corruption, staleness, I/O): count it and
            // fall back to the cold build, which repairs the file below.
            Err(_) => {
                backing.rejects.fetch_add(1, Ordering::Relaxed);
            }
        }
        let parts = build()?;
        // Write-behind is best-effort: a full disk must not fail the
        // request — the response is already in hand.
        let _ = backing.store.save(fp, &parts);
        Ok(parts)
    }

    /// Whether `key` is currently resident (no LRU touch, no counters).
    #[must_use]
    pub fn contains(&self, key: PairKey) -> bool {
        self.lock().entries.iter().any(|(k, _)| *k == key)
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident entry (counters are kept).
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    /// A snapshot of the cumulative counters, including the per-catalog
    /// breakdown ([`CacheStats::tenants`]).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        let mut tenants: Vec<TenantCacheStats> = inner
            .tenants
            .iter()
            .enumerate()
            .map(|(catalog, tally)| TenantCacheStats {
                catalog,
                hits: tally.hits,
                misses: tally.misses,
                evictions: tally.evictions,
                resident: 0,
            })
            .collect();
        // Every resident entry was a miss first, and the miss grew the
        // tallies through its catalog.
        for (key, _) in &inner.entries {
            tenants[key.catalog].resident += 1;
        }
        let snapshot = self.snapshot.as_ref();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            builds: inner.builds,
            evictions: inner.evictions,
            resident: inner.entries.len(),
            capacity: self.capacity,
            tenants,
            snapshot_store: snapshot.is_some(),
            snapshot_hits: snapshot.map_or(0, |b| b.hits.load(Ordering::Relaxed)),
            snapshot_rejects: snapshot.map_or(0, |b| b.rejects.load(Ordering::Relaxed)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("cache lock never poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_isa::asm::assemble;

    /// Keys in the default catalog namespace, as a single-catalog service
    /// would produce them.
    fn key(machine: usize, workload: usize) -> PairKey {
        PairKey::new(0, machine, workload)
    }

    fn kernel() -> Program {
        assemble(
            "k",
            r#"
            .func main
                movi r1, 5000
            top:
                addi r2, r2, 1
                subi r1, r1, 1
                brnz r1, top
                halt
            .endfunc
        "#,
        )
        .unwrap()
    }

    fn parts_for(program: &Program) -> PairParts {
        let machine = MachineModel::ivy_bridge();
        let cfg = Arc::new(Cfg::build(program));
        PairParts::collect(&machine, program, &RunConfig::default(), cfg).unwrap()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let program = kernel();
        let cache = ProfileCache::with_capacity(2);
        let build = || Ok(parts_for(&program));
        cache.get_or_build(key(0, 0), build).unwrap();
        cache.get_or_build(key(0, 1), build).unwrap();
        // Touch (0,0): it becomes most recently used.
        let (_, hit) = cache.get_or_build(key(0, 0), build).unwrap();
        assert!(hit);
        // Inserting a third pair evicts (0,1), the LRU entry.
        cache.get_or_build(key(0, 2), build).unwrap();
        assert!(cache.contains(key(0, 0)));
        assert!(!cache.contains(key(0, 1)));
        assert!(cache.contains(key(0, 2)));
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.builds, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident, 2);
    }

    #[test]
    fn capacity_one_thrashes_and_unbounded_does_not() {
        let program = kernel();
        let tiny = ProfileCache::with_capacity(1);
        let big = ProfileCache::unbounded();
        for cache in [&tiny, &big] {
            for key in [key(0, 0), key(0, 1), key(0, 0), key(0, 1)] {
                cache.get_or_build(key, || Ok(parts_for(&program))).unwrap();
            }
        }
        assert_eq!(
            tiny.stats().builds,
            4,
            "capacity 1 rebuilds on every alternation"
        );
        assert_eq!(big.stats().builds, 2, "unbounded builds once per pair");
        assert_eq!(big.stats().hits, 2);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = ProfileCache::unbounded();
        let err = cache.get_or_build(key(0, 0), || {
            Err(CoreError::MethodUnavailable {
                method: "injected".to_string(),
                machine: "test".to_string(),
            })
        });
        assert!(err.is_err());
        assert!(!cache.contains(key(0, 0)));
        // A later successful build proceeds normally.
        let program = kernel();
        let (_, hit) = cache
            .get_or_build(key(0, 0), || Ok(parts_for(&program)))
            .unwrap();
        assert!(!hit);
        assert!(cache.contains(key(0, 0)));
    }

    #[test]
    fn concurrent_same_key_lookups_share_one_build() {
        let program = kernel();
        let cache = ProfileCache::unbounded();
        // The barrier keeps the second lookup arriving while the first
        // is still inside its build, exercising the in-flight wait path;
        // if scheduling is unlucky the second simply hits the inserted
        // entry — either way exactly one build must happen.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                cache.get_or_build(key(0, 0), || {
                    barrier.wait();
                    Ok(parts_for(&program))
                })
            });
            let b = scope.spawn(|| {
                barrier.wait();
                cache.get_or_build(key(0, 0), || Ok(parts_for(&program)))
            });
            let (parts_a, hit_a) = a.join().unwrap().unwrap();
            let (parts_b, hit_b) = b.join().unwrap().unwrap();
            assert!(Arc::ptr_eq(&parts_a.reference, &parts_b.reference));
            assert!(!hit_a, "the registering thread is the builder");
            assert!(hit_b, "the concurrent thread shares the build");
        });
        let s = cache.stats();
        assert_eq!(s.builds, 1, "one build despite concurrent lookups");
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn cache_stats_summary_reports_knobs_and_outcome() {
        let stats = CacheStats {
            capacity: 3,
            resident: 2,
            evictions: 4,
            ..CacheStats::default()
        };
        assert_eq!(stats.summary(), "capacity 3 | resident 2 | evictions 4");
        let unbounded = CacheStats::default();
        assert_eq!(
            unbounded.summary(),
            "capacity unbounded | resident 0 | evictions 0"
        );
        assert_eq!(format!("{unbounded}"), unbounded.summary());
        let backed = CacheStats {
            snapshot_store: true,
            snapshot_hits: 5,
            snapshot_rejects: 1,
            ..stats
        };
        assert_eq!(
            backed.summary(),
            "capacity 3 | resident 2 | evictions 4 | snapshots 5 hits / 1 rejects"
        );
    }

    #[test]
    fn a_panicking_build_wakes_its_waiters_and_leaves_the_key_rebuildable() {
        let program = kernel();
        let cache = ProfileCache::unbounded();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            // Thread A registers the in-flight build, lets B join the
            // wait queue, then panics mid-build.
            let a = scope.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_build(key(0, 0), || -> Result<PairParts, CoreError> {
                        barrier.wait();
                        // Give B time to find the in-flight entry and
                        // block on it (worst case it misses the window
                        // and simply builds fresh — also correct).
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        panic!("injected build panic");
                    })
                }))
            });
            let b = scope.spawn(|| {
                barrier.wait();
                cache.get_or_build(key(0, 0), || Ok(parts_for(&program)))
            });
            assert!(
                a.join().unwrap().is_err(),
                "the panic propagates to its caller"
            );
            // The waiter must come back — with the doomed build's error
            // or (if it raced past the cleanup) its own fresh build —
            // never hang on a publication that cannot arrive.
            match b.join().unwrap() {
                Err(e) => assert_eq!(e, CoreError::BuildPanicked),
                Ok((_, hit)) => assert!(hit || cache.contains(key(0, 0))),
            }
        });
        // No ghost in-flight entry survives: a later lookup rebuilds.
        let (_, _) = cache
            .get_or_build(key(0, 0), || Ok(parts_for(&program)))
            .expect("the key is rebuildable after the panic");
        assert!(cache.contains(key(0, 0)));
    }

    #[test]
    fn per_tenant_hits_and_misses_are_attributed_to_their_catalog() {
        let program = kernel();
        let cache = ProfileCache::unbounded();
        let build = || Ok(parts_for(&program));
        cache.get_or_build(PairKey::new(0, 0, 0), build).unwrap();
        cache.get_or_build(PairKey::new(0, 0, 0), build).unwrap();
        cache.get_or_build(PairKey::new(2, 0, 0), build).unwrap();
        let stats = cache.stats();
        assert_eq!(
            stats.tenants.len(),
            3,
            "indexed through the highest catalog"
        );
        assert_eq!((stats.tenants[0].hits, stats.tenants[0].misses), (1, 1));
        assert_eq!((stats.tenants[1].hits, stats.tenants[1].misses), (0, 0));
        assert_eq!((stats.tenants[2].hits, stats.tenants[2].misses), (0, 1));
        assert!(stats.tenants[0].hit_rate() > 0.49);
        assert_eq!(stats.tenants[1].hit_rate(), 0.0);
        assert_eq!(stats.hits, 1, "global counters still aggregate");
        // An eviction is charged to the evicted entry's catalog, not to
        // the catalog whose insert forced it.
        let tiny = ProfileCache::with_capacity(1);
        tiny.get_or_build(PairKey::new(1, 0, 0), build).unwrap();
        tiny.get_or_build(PairKey::new(0, 0, 0), build).unwrap();
        let stats = tiny.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(
            (stats.tenants[0].evictions, stats.tenants[0].resident),
            (0, 1)
        );
        assert_eq!(
            (stats.tenants[1].evictions, stats.tenants[1].resident),
            (1, 0)
        );
    }

    #[test]
    fn cache_counters_are_exact_across_pairs_and_catalogs() {
        let program = kernel();
        let cache = ProfileCache::unbounded();
        let build = || Ok(parts_for(&program));
        // Six distinct pairs across two catalogs, each looked up twice:
        // one miss and one build per pair, then one hit per pair.
        let keys = [
            PairKey::new(0, 0, 0),
            PairKey::new(0, 0, 1),
            PairKey::new(0, 1, 0),
            PairKey::new(1, 0, 0),
            PairKey::new(1, 0, 1),
            PairKey::new(1, 2, 2),
        ];
        for _ in 0..2 {
            for key in keys {
                cache.get_or_build(key, build).unwrap();
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.builds, 6, "one build per distinct pair");
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.hits, 6);
        assert_eq!(stats.resident, 6);
        assert_eq!(cache.len(), 6);
        assert_eq!(stats.evictions, 0);
        for key in keys {
            assert!(cache.contains(key));
        }
        // Each catalog is charged its own lookups and residents.
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!((stats.tenants[0].hits, stats.tenants[0].misses), (3, 3));
        assert_eq!((stats.tenants[1].hits, stats.tenants[1].misses), (3, 3));
        assert_eq!(stats.tenants[0].resident, 3);
        assert_eq!(stats.tenants[1].resident, 3);
        cache.clear();
        assert!(cache.is_empty(), "clear drains every entry");
        assert_eq!(cache.stats().hits, 6, "counters survive a clear");
    }

    #[test]
    fn cache_survives_a_multithread_hammer() {
        let program = kernel();
        let cache = ProfileCache::unbounded();
        // 8 threads × 2 rounds over 4 shared pairs + 3 thread-private
        // pairs each: 28 distinct pairs, 112 lookups. Unbounded never
        // evicts and always admits, so the aggregated counters are
        // EXACT even under contention: one miss (and one build) per
        // distinct pair — concurrent same-key lookups share the
        // in-flight build and count as hits — and everything else hits.
        const THREADS: usize = 8;
        const ROUNDS: usize = 2;
        let shared: Vec<PairKey> = (0..4).map(|w| key(0, w)).collect();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let shared = &shared;
                let program = &program;
                let cache = &cache;
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        for key in shared {
                            cache.get_or_build(*key, || Ok(parts_for(program))).unwrap();
                        }
                        for w in 0..3 {
                            let private = PairKey::new(1, t, w);
                            cache
                                .get_or_build(private, || Ok(parts_for(program)))
                                .unwrap();
                        }
                    }
                });
            }
        });
        let distinct = 4 + THREADS * 3;
        let lookups = (THREADS * ROUNDS * 7) as u64;
        let stats = cache.stats();
        assert_eq!(stats.builds, distinct as u64, "at most one build per pair");
        assert_eq!(stats.misses, distinct as u64);
        assert_eq!(stats.hits, lookups - distinct as u64);
        assert_eq!(stats.resident, distinct);
        assert_eq!(cache.len(), distinct);
        for key in &shared {
            assert!(cache.contains(*key));
        }
        for t in 0..THREADS {
            for w in 0..3 {
                assert!(cache.contains(PairKey::new(1, t, w)));
            }
        }
    }

    #[test]
    fn shared_sessions_reuse_the_reference() {
        let program = kernel();
        let machine = MachineModel::ivy_bridge();
        let cfg = Arc::new(Cfg::build(&program));
        let parts = PairParts::collect(&machine, &program, &RunConfig::default(), cfg).unwrap();
        let mut session = parts.session(&machine, &program, RunConfig::default());
        let total = session.reference().unwrap().total_instructions();
        assert_eq!(total, parts.reference.total_instructions());
    }
}
