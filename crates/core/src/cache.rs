//! The sharded reference-profile cache behind the serving layer.
//!
//! Building a pair's evaluation state — its CFG and, above all, its
//! instrumented [`ReferenceProfile`] — is the most expensive step of any
//! evaluation (one full extra execution of the workload). The grid engine
//! ([`crate::grid`]) amortizes it across a *static* grid; this module
//! amortizes it across *arbitrary request traffic*:
//!
//! * [`PairParts`] bundles the shareable per-pair state (CFG + reference)
//!   and is the one place sessions over a pair are constructed from —
//!   both [`crate::grid::PairCtx`] and the serving layer
//!   ([`crate::serve`]) go through it;
//! * [`ProfileCache`] is an LRU-bounded, thread-safe map from
//!   catalog-namespaced `(machine, workload)` pair keys ([`PairKey`]) to
//!   [`PairParts`], so a profile is built at most once per pair per cache
//!   residency — and every tenant of a multi-catalog service shares one
//!   cache (and one admission policy) without key collisions;
//! * [`AdmissionPolicy`] decides whether a freshly built pair may *enter*
//!   a full cache at all: plain LRU admits everything, while the
//!   frequency-aware variant rejects one-hit wonders so cold or zipfian
//!   request streams cannot thrash the hot working set out of a small
//!   cache;
//! * [`CacheQuotas`] makes the shared cache **tenant-fair**: a quota caps
//!   how many entries each catalog may keep resident, and once a catalog
//!   is at its quota, eviction and admission decisions are taken against
//!   that catalog's own LRU victim — so one hot tenant's churn can never
//!   flush another tenant's working set. Per-tenant
//!   hit/miss/eviction/rejection counters are surfaced through
//!   [`CacheStats::tenants`].
//!
//! Cache contents are pure functions of the pair, so eviction, rebuild,
//! admission and quotas change *when* work happens, never *what* a
//! response contains — the determinism contract of the grid engine
//! extends to any cache capacity, admission policy and quota
//! configuration.

use crate::error::CoreError;
use crate::session::Session;
use crate::store::SnapshotStore;
use ct_instrument::ReferenceProfile;
use ct_isa::{Cfg, Program};
use ct_sim::{MachineModel, RunConfig};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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

/// How a [`ProfileCache`] decides whether a freshly built entry may enter
/// a full cache.
///
/// Admission is a *residency* knob, never a correctness knob: a rejected
/// build is still returned to its caller, so responses are identical
/// under every policy — only build counts differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Admit every successful build, evicting the least recently used
    /// entry to make room (classic LRU — the default).
    #[default]
    Lru,
    /// Frequency-aware admission (TinyLFU-flavored): the cache keeps a
    /// small access-frequency sketch per key (aged by periodic halving),
    /// and a new entry displaces the LRU victim only when it has been
    /// requested at least as often. One-hit wonders in a cold or zipfian
    /// stream bounce off a full cache instead of evicting the hot set.
    Frequency,
}

impl AdmissionPolicy {
    /// The short name of this policy (`lru` / `freq`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Lru => "lru",
            Self::Frequency => "freq",
        }
    }
}

/// Per-catalog residency quotas for a shared [`ProfileCache`].
///
/// The default is **unlimited** (every catalog may use the whole cache —
/// exactly the pre-quota behavior, byte for byte). A quota bounds how
/// many entries one catalog may keep resident at once; when a catalog is
/// at its quota, inserting another of its entries evicts that catalog's
/// **own** least recently used entry instead of a global victim, and the
/// frequency admission policy compares the newcomer against that same
/// tenant-local victim. Quotas are a residency knob like capacity and
/// admission: they change build counts, never response bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheQuotas {
    /// Residency cap applied to every catalog without an override
    /// (`0` = unlimited).
    default_quota: usize,
    /// Per-catalog overrides `(catalog index, quota)`; a quota of `0`
    /// lifts the cap for that catalog.
    overrides: Vec<(usize, usize)>,
}

impl CacheQuotas {
    /// No quotas: every catalog competes for the whole cache (the
    /// default).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// The same residency cap for every catalog (`0` = unlimited).
    #[must_use]
    pub fn per_catalog(quota: usize) -> Self {
        Self {
            default_quota: quota,
            overrides: Vec::new(),
        }
    }

    /// Overrides the cap for one catalog (registry index); `0` lifts the
    /// cap for that catalog.
    #[must_use]
    pub fn with_override(mut self, catalog: usize, quota: usize) -> Self {
        match self.overrides.iter_mut().find(|(c, _)| *c == catalog) {
            Some(slot) => slot.1 = quota,
            None => self.overrides.push((catalog, quota)),
        }
        self
    }

    /// The residency cap for `catalog` (`0` = unlimited).
    #[must_use]
    pub fn quota_for(&self, catalog: usize) -> usize {
        self.overrides
            .iter()
            .find(|(c, _)| *c == catalog)
            .map_or(self.default_quota, |(_, q)| *q)
    }

    /// Whether no catalog is capped at all (the byte-preserving default).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.default_quota == 0 && self.overrides.iter().all(|(_, q)| *q == 0)
    }
}

/// The shareable evaluation state of one `(machine, workload)` pair: the
/// workload's CFG plus the pair's instrumented reference profile.
///
/// Every consumer of a pair — grid cells, serve requests — builds its
/// [`Session`]s from one `PairParts` so the expensive state is collected
/// once and shared, never rebuilt per consumer.
#[derive(Debug, Clone)]
pub struct PairParts {
    /// The workload's control-flow graph.
    pub cfg: Arc<Cfg>,
    /// The pair's exact reference profile.
    pub reference: Arc<ReferenceProfile>,
}

impl PairParts {
    /// Collects the pair's reference profile (one instrumented execution)
    /// against a prebuilt CFG.
    pub fn collect(
        machine: &MachineModel,
        program: &Program,
        run_config: &RunConfig,
        cfg: Arc<Cfg>,
    ) -> Result<Self, CoreError> {
        let mut session = Session::with_shared_parts(
            machine,
            program,
            run_config.clone(),
            cfg.clone(),
            None,
        );
        let reference = session.shared_reference()?;
        Ok(Self { cfg, reference })
    }

    /// A session over the pair that shares this state (no instrumented
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
    /// This catalog's entries evicted (by its own quota or the global
    /// capacity bound).
    pub evictions: u64,
    /// This catalog's builds denied residency by the admission policy.
    pub rejected: u64,
    /// This catalog's entries currently resident.
    pub resident: usize,
    /// This catalog's residency quota (`0` = unlimited).
    pub quota: usize,
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
    /// Successful builds denied residency by the admission policy (the
    /// build result was still handed to its caller).
    pub rejected: u64,
    /// Entries currently resident.
    pub resident: usize,
    /// The cache's configured capacity (`0` = unbounded).
    pub capacity: usize,
    /// The cache's configured admission policy.
    pub policy: AdmissionPolicy,
    /// The cache's configured per-catalog quotas.
    pub quotas: CacheQuotas,
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
    /// One-line human summary of the residency knobs and their outcome;
    /// also this type's `Display` form.
    #[must_use]
    pub fn summary(&self) -> String {
        let capacity = if self.capacity == 0 {
            "unbounded".to_string()
        } else {
            self.capacity.to_string()
        };
        let mut line = format!(
            "capacity {capacity} | policy {} | resident {} | evictions {} | rejected {}",
            self.policy.name(),
            self.resident,
            self.evictions,
            self.rejected
        );
        if !self.quotas.is_unlimited() {
            let caps: Vec<String> = self
                .tenants
                .iter()
                .map(|t| format!("{}:{}/{}", t.catalog, t.resident, t.quota))
                .collect();
            line.push_str(&format!(" | quotas [{}]", caps.join(" ")));
        }
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
                .shard(self.key)
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner.in_flight.retain(|(k, _)| *k != self.key);
        }
        let mut result = self
            .flight
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *result = Some(Err(CoreError::BuildPanicked));
        self.flight.ready.notify_all();
    }
}

/// An attached [`SnapshotStore`] plus its outcome counters. Shared by
/// `Arc` so the serving layer can rebuild its cache (capacity/admission/
/// quota knobs) without losing the backing directory or its counters;
/// counters are atomics because loads and saves happen outside the map
/// lock, in the builder's flight-guarded region.
pub(crate) struct SnapshotBacking {
    pub(crate) store: SnapshotStore,
    hits: AtomicU64,
    rejects: AtomicU64,
}

/// Halve every frequency count after this many lookups, so stale
/// popularity fades instead of pinning an entry forever.
const FREQ_DECAY_INTERVAL: u64 = 1024;

/// Per-catalog tally of a shared cache (indexed by catalog, grown on
/// demand).
#[derive(Debug, Clone, Copy, Default)]
struct TenantTally {
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
}

struct CacheInner {
    /// `0` means unbounded.
    capacity: usize,
    policy: AdmissionPolicy,
    quotas: CacheQuotas,
    /// LRU order: front is least recently used, back is most recent.
    entries: Vec<(PairKey, Arc<PairParts>)>,
    /// Keys currently being built, so concurrent lookups of the same key
    /// share one build instead of each running an instrumented execution.
    in_flight: Vec<(PairKey, Arc<InFlight>)>,
    /// Access-frequency sketch ([`AdmissionPolicy::Frequency`] only):
    /// bumped on every lookup, aged by halving every
    /// [`FREQ_DECAY_INTERVAL`] lookups.
    freq: Vec<(PairKey, u64)>,
    lookups: u64,
    hits: u64,
    misses: u64,
    builds: u64,
    evictions: u64,
    rejected: u64,
    /// Per-catalog counters, indexed by [`PairKey::catalog`].
    tenants: Vec<TenantTally>,
}

impl CacheInner {
    /// Records one lookup of `key` in the frequency sketch (no-op under
    /// plain LRU, which never consults it).
    fn note_access(&mut self, key: PairKey) {
        if self.policy != AdmissionPolicy::Frequency {
            return;
        }
        self.lookups += 1;
        match self.freq.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = entry.1.saturating_add(1),
            None => self.freq.push((key, 1)),
        }
        if self.lookups % FREQ_DECAY_INTERVAL == 0 {
            for entry in &mut self.freq {
                entry.1 /= 2;
            }
            self.freq.retain(|(_, c)| *c > 0);
        }
    }

    /// The sketch frequency of `key` (`0` when never seen or decayed out).
    fn frequency(&self, key: PairKey) -> u64 {
        self.freq
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, c)| *c)
    }

    /// The per-catalog tally for `catalog`, grown on demand.
    fn tally(&mut self, catalog: usize) -> &mut TenantTally {
        if self.tenants.len() <= catalog {
            self.tenants.resize_with(catalog + 1, TenantTally::default);
        }
        &mut self.tenants[catalog]
    }

    /// Resident entries belonging to `catalog`.
    fn resident_of(&self, catalog: usize) -> usize {
        self.entries.iter().filter(|(k, _)| k.catalog == catalog).count()
    }

    /// The least recently used resident entry of `catalog`, if any.
    fn tenant_victim(&self, catalog: usize) -> Option<PairKey> {
        self.entries
            .iter()
            .map(|(k, _)| *k)
            .find(|k| k.catalog == catalog)
    }

    /// Whether a freshly built `key` may enter the cache right now.
    fn admits(&self, key: PairKey) -> bool {
        match self.policy {
            AdmissionPolicy::Lru => true,
            AdmissionPolicy::Frequency => {
                // A catalog at its quota competes against its OWN least
                // recently used entry — tenant-local admission, so a
                // popular newcomer from tenant A can never reason its
                // way into evicting tenant B's entry via quota pressure.
                let quota = self.quotas.quota_for(key.catalog);
                if quota > 0 && self.resident_of(key.catalog) >= quota {
                    let victim = self
                        .tenant_victim(key.catalog)
                        .expect("a catalog at quota has resident entries");
                    return self.frequency(key) >= self.frequency(victim);
                }
                if self.capacity == 0 || self.entries.len() < self.capacity {
                    return true;
                }
                // Full cache: the candidate must be at least as popular
                // as the LRU victim it would displace (ties favor the
                // newcomer — recency breaks frequency ties).
                let victim = self.entries[0].0;
                self.frequency(key) >= self.frequency(victim)
            }
        }
    }

    /// Evicts down to the quota/capacity bounds after inserting `key`:
    /// first the inserting catalog's own LRU entries while it is over
    /// its quota (tenant-local — other catalogs are untouched), then
    /// the global LRU while the cache is over capacity.
    fn evict_over_bounds(&mut self, key: PairKey) {
        let quota = self.quotas.quota_for(key.catalog);
        if quota > 0 {
            // One residency count up front; each eviction decrements it
            // (no full recount per loop iteration).
            let mut resident = self.resident_of(key.catalog);
            while resident > quota {
                let pos = self
                    .entries
                    .iter()
                    .position(|(k, _)| k.catalog == key.catalog)
                    .expect("over-quota catalog has resident entries");
                self.entries.remove(pos);
                resident -= 1;
                self.evictions += 1;
                self.tally(key.catalog).evictions += 1;
            }
        }
        if self.capacity > 0 {
            while self.entries.len() > self.capacity {
                let (evicted, _) = self.entries.remove(0);
                self.evictions += 1;
                self.tally(evicted.catalog).evictions += 1;
            }
        }
    }
}

/// An LRU-bounded, thread-safe cache of [`PairParts`] keyed by
/// `(machine, workload)` pair.
///
/// The map lock is held only for bookkeeping — builds run outside it, so
/// distinct pairs build concurrently. Entries handed out are [`Arc`]s:
/// eviction never invalidates state a consumer is still using, it only
/// drops the cache's own reference.
///
/// # Lock sharding
///
/// An **unbounded, unquoted** cache splits its map across several lock
/// shards ([`PairKey`]-hash partitioned), so lookups of distinct pairs
/// from different serving threads no longer serialize on one mutex. The
/// split is exact, not approximate: with no capacity bound and no quotas
/// the cache never evicts and admits every build, so hit/miss/build
/// counts per key are independent of which shard holds it — the
/// aggregated [`CacheStats`] are identical to the single-lock cache's,
/// and the "at most one build per pair" guarantee holds per shard
/// because a key always maps to the same shard. A bounded or quota'd
/// cache keeps **exactly one shard**: LRU victims, admission contests
/// and quota accounting must see the whole resident set to stay
/// deterministic.
pub struct ProfileCache {
    /// Lock shards; a key's shard is [`Self::shard`]. Bounded or
    /// quota'd configurations always have exactly one.
    shards: Box<[Mutex<CacheInner>]>,
    /// Capacity is unbounded and quotas unlimited: eviction, admission
    /// and the frequency sketch are provably inert, so hits skip the
    /// LRU reorder and sketch bookkeeping (and the map may shard).
    exact_unbounded: bool,
    /// Optional on-disk [`SnapshotStore`] backing: read-through on a
    /// miss, write-behind after a cold build. Interior-mutable so a
    /// served `&ProfileCache` can be given a directory after
    /// construction (see [`Self::attach_snapshot_store`]).
    snapshot: Mutex<Option<Arc<SnapshotBacking>>>,
}

impl ProfileCache {
    /// A cache that never evicts: every pair is built at most once per
    /// cache lifetime.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::with_capacity(0)
    }

    /// A cache holding at most `capacity` pairs (LRU eviction, admit-all
    /// policy); `0` means unbounded.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_policy(capacity, AdmissionPolicy::Lru)
    }

    /// A cache holding at most `capacity` pairs (`0` = unbounded) with
    /// the given [`AdmissionPolicy`] guarding entry into a full cache
    /// and no per-catalog quotas.
    #[must_use]
    pub fn with_policy(capacity: usize, policy: AdmissionPolicy) -> Self {
        Self::with_config(capacity, policy, CacheQuotas::unlimited())
    }

    /// The fully configured cache: capacity (`0` = unbounded), admission
    /// policy, and per-catalog residency quotas ([`CacheQuotas`]).
    ///
    /// An unbounded, unquoted configuration auto-shards its lock by the
    /// machine's available parallelism (see the type-level docs); any
    /// bound or quota pins the cache to a single shard.
    #[must_use]
    pub fn with_config(capacity: usize, policy: AdmissionPolicy, quotas: CacheQuotas) -> Self {
        let shards = if capacity == 0 && quotas.is_unlimited() {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(16)
        } else {
            1
        };
        Self::build(capacity, policy, quotas, shards)
    }

    /// Rebuilds this cache with `shards` lock shards (clamped to one
    /// unless the configuration is unbounded and unquoted — sharding a
    /// bounded cache would make LRU and quota decisions shard-local).
    ///
    /// A configuration knob for construction time: resident entries and
    /// counters of `self` are discarded, so call it before first use.
    #[must_use]
    pub fn with_shard_count(self, shards: usize) -> Self {
        let backing = self.snapshot_backing();
        let rebuilt = {
            let inner = self.lock();
            Self::build(inner.capacity, inner.policy, inner.quotas.clone(), shards)
        };
        rebuilt.set_snapshot_backing(backing);
        rebuilt
    }

    /// Number of lock shards (`1` for any bounded or quota'd cache).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn build(capacity: usize, policy: AdmissionPolicy, quotas: CacheQuotas, shards: usize) -> Self {
        let exact_unbounded = capacity == 0 && quotas.is_unlimited();
        let shards = if exact_unbounded { shards.max(1) } else { 1 };
        let shards = (0..shards)
            .map(|_| {
                Mutex::new(CacheInner {
                    capacity,
                    policy,
                    quotas: quotas.clone(),
                    entries: Vec::new(),
                    in_flight: Vec::new(),
                    freq: Vec::new(),
                    lookups: 0,
                    hits: 0,
                    misses: 0,
                    builds: 0,
                    evictions: 0,
                    rejected: 0,
                    tenants: Vec::new(),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            exact_unbounded,
            snapshot: Mutex::new(None),
        }
    }

    /// Attaches an on-disk [`SnapshotStore`] over `dir`: subsequent
    /// fingerprinted misses read through it before building, and cold
    /// builds write behind into it. Attaching resets the snapshot
    /// counters; the resident set and ordinary counters are untouched.
    /// Takes `&self` so a cache already behind a shared reference can
    /// still be given a store.
    pub fn attach_snapshot_store(&self, dir: impl Into<PathBuf>) {
        self.set_snapshot_backing(Some(Arc::new(SnapshotBacking {
            store: SnapshotStore::new(dir),
            hits: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
        })));
    }

    /// Whether a snapshot backing directory is attached.
    #[must_use]
    pub fn has_snapshot_store(&self) -> bool {
        self.snapshot_backing().is_some()
    }

    /// The attached backing directory, if any.
    #[must_use]
    pub fn snapshot_dir(&self) -> Option<PathBuf> {
        self.snapshot_backing().map(|b| b.store.dir().to_path_buf())
    }

    pub(crate) fn snapshot_backing(&self) -> Option<Arc<SnapshotBacking>> {
        self.snapshot.lock().expect("snapshot lock never poisoned").clone()
    }

    /// Carries an existing backing (with its counters) onto this cache —
    /// how the serving layer's cache-rebuilding builders preserve the
    /// store across capacity/admission/quota changes.
    pub(crate) fn set_snapshot_backing(&self, backing: Option<Arc<SnapshotBacking>>) {
        *self.snapshot.lock().expect("snapshot lock never poisoned") = backing;
    }

    /// The shard owning `key` (FNV-1a over the key's three indices; a
    /// key always maps to the same shard, so in-flight build sharing
    /// stays per-key correct).
    fn shard(&self, key: PairKey) -> &Mutex<CacheInner> {
        if self.shards.len() == 1 {
            return &self.shards[0];
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in [key.catalog as u64, key.machine as u64, key.workload as u64] {
            h ^= part;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// The configured capacity (`0` = unbounded).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// The configured admission policy.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        self.lock().policy
    }

    /// The configured per-catalog quotas.
    #[must_use]
    pub fn quotas(&self) -> CacheQuotas {
        self.lock().quotas.clone()
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
            let mut inner = self.lock_shard(key);
            if !self.exact_unbounded {
                inner.note_access(key);
            }
            if let Some(pos) = inner.entries.iter().position(|(k, _)| *k == key) {
                let parts = if self.exact_unbounded {
                    // Nothing ever evicts: the LRU order is dead state,
                    // so a hit skips the O(n) reorder.
                    inner.entries[pos].1.clone()
                } else {
                    let entry = inner.entries.remove(pos);
                    let parts = entry.1.clone();
                    inner.entries.push(entry);
                    parts
                };
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
                let mut result = flight
                    .result
                    .lock()
                    .expect("in-flight lock never poisoned");
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
            let mut inner = self.lock_shard(key);
            inner.in_flight.retain(|(k, _)| *k != key);
            if let Ok(parts) = &built {
                inner.builds += 1;
                if inner.admits(key) {
                    // No same-key insert can have raced us: they all waited.
                    inner.entries.push((key, parts.clone()));
                    inner.evict_over_bounds(key);
                } else {
                    // Denied residency: the caller still gets the build,
                    // the hot set keeps its cache slots.
                    inner.rejected += 1;
                    inner.tally(key.catalog).rejected += 1;
                }
            }
        }
        let mut result = flight
            .result
            .lock()
            .expect("in-flight lock never poisoned");
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
        let backing = match (fingerprint, self.snapshot_backing()) {
            (Some(fp), Some(backing)) => (fp, backing),
            _ => return build(),
        };
        let (fp, backing) = backing;
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
        self.lock_shard(key).entries.iter().any(|(k, _)| *k == key)
    }

    /// Number of resident entries (summed across shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock_mutex(s).entries.len()).sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident entry (counters are kept).
    pub fn clear(&self) {
        for shard in &*self.shards {
            Self::lock_mutex(shard).entries.clear();
        }
    }

    /// A snapshot of the cumulative counters, including the per-catalog
    /// breakdown ([`CacheStats::tenants`]) — aggregated across shards,
    /// so callers see one cache whatever the shard count.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        if let Some(backing) = self.snapshot_backing() {
            stats.snapshot_store = true;
            stats.snapshot_hits = backing.hits.load(Ordering::Relaxed);
            stats.snapshot_rejects = backing.rejects.load(Ordering::Relaxed);
        }
        let mut tallies: Vec<TenantTally> = Vec::new();
        let mut resident: Vec<usize> = Vec::new();
        for shard in &*self.shards {
            let inner = Self::lock_mutex(shard);
            stats.hits += inner.hits;
            stats.misses += inner.misses;
            stats.builds += inner.builds;
            stats.evictions += inner.evictions;
            stats.rejected += inner.rejected;
            stats.resident += inner.entries.len();
            stats.capacity = inner.capacity;
            stats.policy = inner.policy;
            stats.quotas = inner.quotas.clone();
            if tallies.len() < inner.tenants.len() {
                tallies.resize_with(inner.tenants.len(), TenantTally::default);
            }
            for (catalog, tally) in inner.tenants.iter().enumerate() {
                tallies[catalog].hits += tally.hits;
                tallies[catalog].misses += tally.misses;
                tallies[catalog].evictions += tally.evictions;
                tallies[catalog].rejected += tally.rejected;
            }
            for (key, _) in &inner.entries {
                if resident.len() <= key.catalog {
                    resident.resize(key.catalog + 1, 0);
                }
                resident[key.catalog] += 1;
            }
        }
        stats.tenants = tallies
            .iter()
            .enumerate()
            .map(|(catalog, tally)| TenantCacheStats {
                catalog,
                hits: tally.hits,
                misses: tally.misses,
                evictions: tally.evictions,
                rejected: tally.rejected,
                resident: resident.get(catalog).copied().unwrap_or(0),
                quota: stats.quotas.quota_for(catalog),
            })
            .collect();
        stats
    }

    /// Locks the shard owning `key`.
    fn lock_shard(&self, key: PairKey) -> std::sync::MutexGuard<'_, CacheInner> {
        Self::lock_mutex(self.shard(key))
    }

    fn lock_mutex(shard: &Mutex<CacheInner>) -> std::sync::MutexGuard<'_, CacheInner> {
        shard.lock().expect("cache lock never poisoned")
    }

    /// Shard 0 — the whole cache for every bounded/quota'd
    /// configuration; configuration fields are replicated across shards,
    /// so config reads are valid on any shard. The sketch-boundary unit
    /// tests drive `CacheInner` through this.
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        Self::lock_mutex(&self.shards[0])
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
        assert_eq!(tiny.stats().builds, 4, "capacity 1 rebuilds on every alternation");
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
    fn frequency_admission_protects_hot_entries_from_one_hit_wonders() {
        let program = kernel();
        let cache = ProfileCache::with_policy(1, AdmissionPolicy::Frequency);
        let build = || Ok(parts_for(&program));
        // A becomes hot: three lookups, frequency 3.
        for _ in 0..3 {
            cache.get_or_build(key(0, 0), build).unwrap();
        }
        // A cold scan over B: under LRU each build would evict A; under
        // frequency admission B bounces until it out-ranks A.
        let (_, hit) = cache.get_or_build(key(0, 1), build).unwrap();
        assert!(!hit, "B is built (the caller still gets its parts)");
        assert!(cache.contains(key(0, 0)), "hot entry survives the first scan");
        assert!(!cache.contains(key(0, 1)));
        cache.get_or_build(key(0, 1), build).unwrap();
        assert!(cache.contains(key(0, 0)), "freq(B)=2 < freq(A)=3 still bounces");
        // Third B lookup ties A's frequency — ties favor the newcomer.
        cache.get_or_build(key(0, 1), build).unwrap();
        assert!(cache.contains(key(0, 1)), "B earned its slot");
        assert!(!cache.contains(key(0, 0)));
        let s = cache.stats();
        assert_eq!(s.rejected, 2);
        assert_eq!(s.builds, 4, "one for A, three for B's climb");
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn lru_policy_never_rejects() {
        let program = kernel();
        let cache = ProfileCache::with_capacity(1);
        assert_eq!(cache.policy(), AdmissionPolicy::Lru);
        let build = || Ok(parts_for(&program));
        for key in [key(0, 0), key(0, 1), key(0, 2)] {
            cache.get_or_build(key, build).unwrap();
        }
        assert_eq!(cache.stats().rejected, 0);
        assert!(cache.contains(key(0, 2)), "LRU admits every build");
    }

    #[test]
    fn admission_policy_parses_flag_values() {
        assert_eq!(AdmissionPolicy::Frequency.name(), "freq");
        assert_eq!(AdmissionPolicy::default(), AdmissionPolicy::Lru);
    }

    #[test]
    fn frequency_admission_fills_an_unsaturated_cache() {
        let program = kernel();
        let cache = ProfileCache::with_policy(3, AdmissionPolicy::Frequency);
        let build = || Ok(parts_for(&program));
        for key in [key(0, 0), key(0, 1), key(0, 2)] {
            cache.get_or_build(key, build).unwrap();
        }
        // Below capacity nothing is ever rejected.
        assert_eq!(cache.stats().rejected, 0);
        assert_eq!(cache.len(), 3);
    }

    // The aging-boundary tests below drive `CacheInner` directly: the
    // sketch's interesting transitions sit at the decay interval and at
    // counter saturation, and reaching either through `get_or_build`
    // would cost thousands of instrumented executions.

    #[test]
    fn freq_sketch_halves_at_the_decay_interval_and_drops_zeroed_keys() {
        let cache = ProfileCache::with_policy(2, AdmissionPolicy::Frequency);
        let mut inner = cache.lock();
        // 7 accesses for A, 1 for B, then pad lookups on A up to one
        // short of the interval: counts survive untouched until then.
        for _ in 0..7 {
            inner.note_access(key(0, 0));
        }
        inner.note_access(key(0, 1));
        while inner.lookups < FREQ_DECAY_INTERVAL - 1 {
            inner.note_access(key(0, 0));
        }
        // Every lookup so far except B's single one went to A.
        let a_before = inner.frequency(key(0, 0));
        assert_eq!(a_before, FREQ_DECAY_INTERVAL - 2);
        assert_eq!(inner.frequency(key(0, 1)), 1);

        // Lookup number FREQ_DECAY_INTERVAL triggers the halving: A's
        // count is (a_before + 1) / 2 rounded down, and B — halved from
        // 1 to 0 — is dropped from the sketch entirely (`retain`), so a
        // decayed-out key reads as frequency 0, not a stale 1.
        inner.note_access(key(0, 0));
        assert_eq!(inner.lookups, FREQ_DECAY_INTERVAL);
        assert_eq!(inner.frequency(key(0, 0)), (a_before + 1) / 2);
        assert_eq!(inner.frequency(key(0, 1)), 0);
        assert!(
            !inner.freq.iter().any(|(k, _)| *k == key(0, 1)),
            "a count halved to zero must leave the sketch"
        );
    }

    #[test]
    fn freq_sketch_counters_saturate_instead_of_wrapping() {
        let cache = ProfileCache::with_policy(2, AdmissionPolicy::Frequency);
        let mut inner = cache.lock();
        inner.note_access(key(0, 0));
        // Force the counter to the brink; the next accesses must pin at
        // u64::MAX (saturating_add), never wrap to a tiny frequency that
        // would get the hottest key evicted.
        inner.freq[0].1 = u64::MAX - 1;
        inner.note_access(key(0, 0));
        assert_eq!(inner.frequency(key(0, 0)), u64::MAX);
        inner.note_access(key(0, 0));
        assert_eq!(inner.frequency(key(0, 0)), u64::MAX, "must saturate, not wrap");
        // And a saturated counter still ages: the next interval halving
        // brings it back into comparable range.
        while inner.lookups % FREQ_DECAY_INTERVAL != 0 {
            inner.note_access(key(0, 1));
        }
        assert_eq!(inner.frequency(key(0, 0)), u64::MAX / 2);
    }

    #[test]
    fn freq_sketch_admission_flips_across_a_halving() {
        // A hot key that stops being requested fades: after one halving
        // its count can tie with a steadily climbing newcomer, which then
        // gets admitted (ties favor the newcomer).
        let cache = ProfileCache::with_policy(1, AdmissionPolicy::Frequency);
        let mut inner = cache.lock();
        let program = kernel();
        inner.entries.push((key(0, 0), Arc::new(parts_for(&program))));
        for _ in 0..4 {
            inner.note_access(key(0, 0));
        }
        for _ in 0..3 {
            inner.note_access(key(0, 1));
        }
        assert!(!inner.admits(key(0, 1)), "freq 3 < 4 bounces pre-halving");
        while inner.lookups % FREQ_DECAY_INTERVAL != 0 {
            inner.note_access(key(0, 1));
        }
        // Post-halving, the resident key decayed with everything else
        // while the newcomer kept accumulating — admission flips.
        assert_eq!(inner.frequency(key(0, 0)), 2);
        assert!(inner.frequency(key(0, 1)) >= 2);
        assert!(inner.admits(key(0, 1)), "aged victim must lose its slot");
    }

    #[test]
    fn cache_stats_summary_reports_knobs_and_outcome() {
        let stats = CacheStats {
            capacity: 3,
            policy: AdmissionPolicy::Frequency,
            resident: 2,
            evictions: 4,
            rejected: 5,
            ..CacheStats::default()
        };
        assert_eq!(
            stats.summary(),
            "capacity 3 | policy freq | resident 2 | evictions 4 | rejected 5"
        );
        let unbounded = CacheStats::default();
        assert!(unbounded.summary().starts_with("capacity unbounded | policy lru"));
        assert_eq!(format!("{unbounded}"), unbounded.summary());
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
            assert!(a.join().unwrap().is_err(), "the panic propagates to its caller");
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
    fn cache_quotas_resolve_defaults_and_overrides() {
        let quotas = CacheQuotas::per_catalog(3).with_override(1, 5).with_override(1, 2);
        assert_eq!(quotas.quota_for(0), 3);
        assert_eq!(quotas.quota_for(1), 2, "re-override replaces in place");
        assert_eq!(quotas.quota_for(7), 3);
        assert!(!quotas.is_unlimited());
        assert!(CacheQuotas::unlimited().is_unlimited());
        assert!(CacheQuotas::default().is_unlimited());
        assert_eq!(CacheQuotas::per_catalog(0), CacheQuotas::unlimited());
        let lifted = CacheQuotas::per_catalog(3).with_override(2, 0);
        assert_eq!(lifted.quota_for(2), 0, "a zero override lifts the cap");
        assert!(!lifted.is_unlimited(), "other catalogs stay capped");
    }

    #[test]
    fn quota_eviction_is_tenant_local() {
        let program = kernel();
        // Room for four entries globally, but each catalog may keep only
        // two resident: a churning tenant cycles within its own slots.
        let cache = ProfileCache::with_config(
            4,
            AdmissionPolicy::Lru,
            CacheQuotas::per_catalog(2),
        );
        let build = || Ok(parts_for(&program));
        // Cold tenant (catalog 1) settles two entries first.
        cache.get_or_build(PairKey::new(1, 0, 0), build).unwrap();
        cache.get_or_build(PairKey::new(1, 0, 1), build).unwrap();
        // Hot tenant (catalog 0) churns through three distinct pairs:
        // its third insert evicts ITS OWN oldest entry, never the cold
        // tenant's (under plain capacity-4 LRU it would have evicted
        // cold's (1,0,0)).
        for w in 0..3 {
            cache.get_or_build(PairKey::new(0, 0, w), build).unwrap();
        }
        assert!(!cache.contains(PairKey::new(0, 0, 0)), "hot's own LRU evicted");
        assert!(cache.contains(PairKey::new(0, 0, 1)));
        assert!(cache.contains(PairKey::new(0, 0, 2)));
        assert!(cache.contains(PairKey::new(1, 0, 0)), "cold tenant untouched");
        assert!(cache.contains(PairKey::new(1, 0, 1)));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.tenants[0].evictions, 1);
        assert_eq!(stats.tenants[1].evictions, 0);
        assert_eq!(stats.tenants[0].resident, 2);
        assert_eq!(stats.tenants[1].resident, 2);
        assert_eq!(stats.tenants[0].quota, 2);
    }

    #[test]
    fn frequency_admission_at_quota_competes_against_the_tenant_victim() {
        let program = kernel();
        // Global capacity would still admit (4 slots, 3 entries), but
        // catalog 0 is at its quota of 1 — the newcomer must out-rank
        // catalog 0's own resident, not the global LRU victim (which
        // belongs to catalog 1).
        let cache = ProfileCache::with_config(
            4,
            AdmissionPolicy::Frequency,
            CacheQuotas::per_catalog(1),
        );
        let build = || Ok(parts_for(&program));
        for _ in 0..3 {
            cache.get_or_build(PairKey::new(0, 0, 0), build).unwrap();
        }
        cache.get_or_build(PairKey::new(1, 0, 0), build).unwrap();
        // freq(candidate)=1 < freq(tenant victim)=3: bounced, counted
        // against catalog 0 only.
        cache.get_or_build(PairKey::new(0, 0, 1), build).unwrap();
        assert!(cache.contains(PairKey::new(0, 0, 0)), "hot resident survives");
        assert!(!cache.contains(PairKey::new(0, 0, 1)));
        assert!(cache.contains(PairKey::new(1, 0, 0)), "other tenant untouched");
        let stats = cache.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.tenants[0].rejected, 1);
        assert_eq!(stats.tenants[1].rejected, 0);
        // A second and third lookup of the candidate earn the slot (tie
        // admits), evicting the hot entry — still tenant-local.
        cache.get_or_build(PairKey::new(0, 0, 1), build).unwrap();
        cache.get_or_build(PairKey::new(0, 0, 1), build).unwrap();
        assert!(cache.contains(PairKey::new(0, 0, 1)), "earned its own tenant's slot");
        assert!(!cache.contains(PairKey::new(0, 0, 0)));
        assert!(cache.contains(PairKey::new(1, 0, 0)));
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
        assert_eq!(stats.tenants.len(), 3, "indexed through the highest catalog");
        assert_eq!((stats.tenants[0].hits, stats.tenants[0].misses), (1, 1));
        assert_eq!((stats.tenants[1].hits, stats.tenants[1].misses), (0, 0));
        assert_eq!((stats.tenants[2].hits, stats.tenants[2].misses), (0, 1));
        assert!(stats.tenants[0].hit_rate() > 0.49);
        assert_eq!(stats.tenants[1].hit_rate(), 0.0);
        assert_eq!(stats.hits, 1, "global counters still aggregate");
        // The summary mentions quotas only when one is configured.
        assert!(!stats.summary().contains("quotas"));
        let quoted = ProfileCache::with_config(
            0,
            AdmissionPolicy::Lru,
            CacheQuotas::per_catalog(4),
        );
        quoted.get_or_build(PairKey::new(0, 0, 0), build).unwrap();
        assert!(quoted.stats().summary().contains("quotas [0:1/4]"));
    }

    #[test]
    fn bounded_or_quotad_caches_refuse_to_shard() {
        // Sharding is exact only when eviction/admission are inert, so
        // any bound or quota pins the cache to one shard — whatever the
        // caller asks for.
        assert_eq!(ProfileCache::with_capacity(2).with_shard_count(8).shard_count(), 1);
        let quoted = ProfileCache::with_config(
            0,
            AdmissionPolicy::Lru,
            CacheQuotas::per_catalog(2),
        );
        assert_eq!(quoted.shard_count(), 1);
        assert_eq!(quoted.with_shard_count(8).shard_count(), 1);
        assert_eq!(ProfileCache::unbounded().with_shard_count(4).shard_count(), 4);
        assert!(ProfileCache::unbounded().shard_count() >= 1, "auto-sharding picks >= 1");
        assert_eq!(
            ProfileCache::unbounded().with_shard_count(0).shard_count(),
            1,
            "zero clamps to one shard"
        );
    }

    #[test]
    fn sharded_cache_counters_aggregate_exactly_across_shards() {
        let program = kernel();
        let cache = ProfileCache::unbounded().with_shard_count(4);
        let build = || Ok(parts_for(&program));
        // Six distinct pairs across two catalogs, each looked up twice:
        // the keys land on different shards, yet the aggregated stats
        // must read exactly like the single-lock cache's.
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
        assert_eq!(stats.rejected, 0);
        for key in keys {
            assert!(cache.contains(key));
        }
        // Tenant attribution survives the shard split.
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!((stats.tenants[0].hits, stats.tenants[0].misses), (3, 3));
        assert_eq!((stats.tenants[1].hits, stats.tenants[1].misses), (3, 3));
        assert_eq!(stats.tenants[0].resident, 3);
        assert_eq!(stats.tenants[1].resident, 3);
        cache.clear();
        assert!(cache.is_empty(), "clear drains every shard");
        assert_eq!(cache.stats().hits, 6, "counters survive a clear");
    }

    #[test]
    fn sharded_cache_survives_a_multithread_hammer() {
        let program = kernel();
        let cache = ProfileCache::unbounded().with_shard_count(4);
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
                            cache.get_or_build(private, || Ok(parts_for(program))).unwrap();
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
    fn a_panicking_build_on_the_sharded_path_wakes_waiters() {
        let program = kernel();
        let cache = ProfileCache::unbounded().with_shard_count(4);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_build(key(0, 0), || -> Result<PairParts, CoreError> {
                        barrier.wait();
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        panic!("injected build panic");
                    })
                }))
            });
            let b = scope.spawn(|| {
                barrier.wait();
                cache.get_or_build(key(0, 0), || Ok(parts_for(&program)))
            });
            assert!(a.join().unwrap().is_err());
            // The FlightGuard must clean the in-flight entry out of the
            // KEY'S OWN shard — a stale entry (or one cleaned from the
            // wrong shard) would leave B blocked forever.
            match b.join().unwrap() {
                Err(e) => assert_eq!(e, CoreError::BuildPanicked),
                Ok((_, hit)) => assert!(hit || cache.contains(key(0, 0))),
            }
        });
        let (_, _) = cache
            .get_or_build(key(0, 0), || Ok(parts_for(&program)))
            .expect("the key is rebuildable after the panic");
        assert!(cache.contains(key(0, 0)));
    }

    #[test]
    fn shared_sessions_reuse_the_reference() {
        let program = kernel();
        let machine = MachineModel::ivy_bridge();
        let cfg = Arc::new(Cfg::build(&program));
        let parts =
            PairParts::collect(&machine, &program, &RunConfig::default(), cfg).unwrap();
        let mut session = parts.session(&machine, &program, RunConfig::default());
        let total = session.reference().unwrap().total_instructions();
        assert_eq!(total, parts.reference.total_instructions());
    }
}
