//! Keyed prepared-plan caching: compile once, run many.
//!
//! The paper compiles per query ("since we generate code, we have
//! information about factors such as datasizes at compile time", footnote
//! 1); a serving system re-runs the same queries against the same loaded
//! data, so recompiling per execution is pure waste. The cache maps
//! `(backend, touched-table state, program, backend knobs)` ([`PlanKey`])
//! to the prepared plan. Invalidation is **per table**: the key fingerprints the
//! versions ([`voodoo_storage::Catalog::table_version`]) of exactly the
//! tables the program loads or persists, so mutating table A never evicts
//! plans that only read table B. The program key is the full exhaustive
//! rendering and the knob key ([`crate::Backend::cache_params`]) carries
//! physical tuning flags (parallelism, predication), so two structurally
//! identical plans share one entry and collisions are impossible.
//!
//! [`ShardedPlanCache`] is the one public shape: N lock-striped,
//! capacity-bounded LRU shards behind one `&self` API. Statements hash to
//! a shard by key, so concurrent sessions contend only when they prepare
//! statements that land on the same stripe — and never while *executing*
//! (execution happens outside every cache lock). It has two entry points:
//! [`ShardedPlanCache::get_or_prepare`] keys by the backend's own name,
//! [`ShardedPlanCache::lookup`] by a caller-owned identity and also
//! reports whether the lookup hit.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use voodoo_core::{Program, Result};
use voodoo_storage::Catalog;

use crate::{Backend, PreparedPlan};

/// Default total plan capacity ([`ShardedPlanCache::new`]).
pub const DEFAULT_PLAN_CAPACITY: usize = 256;

/// Default shard count for [`ShardedPlanCache::new`].
pub const DEFAULT_SHARDS: usize = 8;

/// Cache key: backend identity, touched-table state, program text,
/// backend knobs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Backend name the plan was prepared by.
    pub backend: String,
    /// Fingerprint of the per-table versions of exactly the tables the
    /// program touches ([`Catalog::table_state`] over the tables of the
    /// analyzer's live [`voodoo_verify::effects()`]) at preparation time. A
    /// plan can only depend on the shapes of the tables its live
    /// statements load/persist, so keying on their versions — and nothing
    /// else — keeps unrelated mutations from invalidating it.
    pub table_state: String,
    /// The program's exhaustive [`Program::cache_key`] rendering. NOT
    /// the pretty SSA `Display` text: that omits operator parameters
    /// (e.g. `Project` key paths), so two semantically different
    /// programs can share it — the cache-key form carries every
    /// operator field (and skips pretty-printing labels, which carry no
    /// semantics).
    pub program: String,
    /// The backend's physical tuning knobs
    /// ([`crate::Backend::cache_params`]): the partitioning/parallelism
    /// setting, predication, etc. Plans bake these in at prepare time, so
    /// they are part of the identity.
    pub params: String,
}

impl PlanKey {
    /// Build the key for a program on a backend against a catalog state,
    /// under an explicit backend identity (callers without a registry of
    /// their own pass [`Backend::name`]).
    ///
    /// Registries that let callers register *differently configured*
    /// backends of the same type under distinct names (or replace a
    /// backend under one name) must key plans by their own identity —
    /// e.g. `"registry-name#registration-epoch"` — or two backends
    /// reporting the same `name()` would silently share plans.
    pub fn named(
        identity: &str,
        backend: &dyn Backend,
        catalog: &Catalog,
        program: &Program,
    ) -> PlanKey {
        // Freshness is keyed on the analyzer's *exact* effect set (live
        // Load/Persist tables): a plan can only go stale through tables an
        // execution actually touches.
        let effects = voodoo_verify::effects(program);
        PlanKey {
            backend: identity.to_string(),
            table_state: catalog.table_state(effects.tables()),
            program: program.cache_key(),
            params: backend.cache_params(),
        }
    }
}

/// Hit/miss/eviction counters (cumulative since construction or
/// [`ShardedPlanCache::clear`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to prepare.
    pub misses: u64,
    /// Entries dropped — stale catalog versions plus LRU capacity
    /// evictions.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum entries the cache will hold (summed over shards).
    pub capacity: usize,
}

struct Entry {
    plan: Arc<dyn PreparedPlan>,
    /// Logical last-use time for LRU eviction.
    tick: u64,
}

/// A keyed, capacity-bounded LRU cache of prepared plans: one shard's
/// worth of [`ShardedPlanCache`] state.
struct PlanCache {
    map: HashMap<PlanKey, Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// An empty cache bounded to `capacity` plans (minimum 1).
    fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Re-bound the cache, evicting least-recently-used plans if it
    /// currently holds more than the new capacity.
    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.evict_to_capacity();
    }

    /// Fetch the prepared plan under `key`, preparing (and caching) it on
    /// first use; the flag reports whether the lookup hit (`true`) or had
    /// to prepare (`false`).
    ///
    /// Inserting a plan evicts entries for the same `(backend, program,
    /// params)` at other touched-table states: they can never hit again
    /// (table versions are monotonic per catalog), so dropping them
    /// eagerly keeps stale plans from squatting on LRU capacity.
    fn get_or_prepare(
        &mut self,
        key: PlanKey,
        backend: &dyn Backend,
        program: &Program,
        catalog: &Catalog,
    ) -> Result<(Arc<dyn PreparedPlan>, bool)> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.tick = tick;
            self.hits += 1;
            return Ok((Arc::clone(&entry.plan), true));
        }
        let plan = backend.prepare(program, catalog)?;
        self.misses += 1;
        let before = self.map.len();
        self.map.retain(|k, _| {
            k.table_state == key.table_state
                || k.backend != key.backend
                || k.program != key.program
                || k.params != key.params
        });
        self.evictions += (before - self.map.len()) as u64;
        self.map.insert(
            key,
            Entry {
                plan: Arc::clone(&plan),
                tick,
            },
        );
        self.evict_to_capacity();
        Ok((plan, false))
    }

    fn evict_to_capacity(&mut self) {
        while self.map.len() > self.capacity {
            // Capacity-per-shard is small; a min-scan beats maintaining an
            // intrusive LRU list at this size.
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
                .expect("non-empty map above capacity");
            self.map.remove(&lru);
            self.evictions += 1;
        }
    }

    /// Current counters.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }

    /// Drop every entry while preserving the cumulative counters; the
    /// dropped entries are counted as evictions.
    fn evict_all(&mut self) {
        self.evictions += self.map.len() as u64;
        self.map.clear();
    }

    /// Drop every entry and reset the counters (capacity is kept).
    fn clear(&mut self) {
        self.map.clear();
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

/// A thread-safe prepared-plan cache: N lock-striped LRU shards.
///
/// Keys hash to one shard, so concurrent statement preparation contends
/// per-stripe instead of on one global lock. The shard mutex *is* held
/// while the backend compiles a missing plan — that makes preparation
/// single-flight per stripe (two sessions racing on the same cold
/// statement produce one compile, one miss), which keeps the hit/miss
/// accounting exact under concurrency. Execution of the returned plan
/// happens entirely outside the cache.
pub struct ShardedPlanCache {
    shards: Box<[Mutex<PlanCache>]>,
}

impl Default for ShardedPlanCache {
    fn default() -> Self {
        ShardedPlanCache::with_shards(DEFAULT_SHARDS, DEFAULT_PLAN_CAPACITY)
    }
}

impl ShardedPlanCache {
    /// [`DEFAULT_SHARDS`] stripes bounding [`DEFAULT_PLAN_CAPACITY`] plans
    /// in total.
    pub fn new() -> ShardedPlanCache {
        ShardedPlanCache::default()
    }

    /// A cache with an explicit stripe count and *total* capacity (split
    /// evenly across shards, rounding up).
    pub fn with_shards(shards: usize, total_capacity: usize) -> ShardedPlanCache {
        let shards = shards.max(1);
        let per_shard = total_capacity.div_ceil(shards).max(1);
        ShardedPlanCache {
            shards: (0..shards)
                .map(|_| Mutex::new(PlanCache::with_capacity(per_shard)))
                .collect(),
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity summed over shards.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::lock_shard(s).capacity)
            .sum()
    }

    /// Re-bound the total capacity (split evenly across shards, rounding
    /// up), evicting LRU plans from over-full shards.
    pub fn set_capacity(&self, total_capacity: usize) {
        let per_shard = total_capacity.div_ceil(self.shards.len()).max(1);
        for shard in self.shards.iter() {
            Self::lock_shard(shard).set_capacity(per_shard);
        }
    }

    /// Lock a shard, recovering from poisoning: a backend that panicked
    /// mid-`prepare` must not take 1/N of all statements down with it.
    /// The shard's own state is consistent at every panic point (the map
    /// is only touched after a successful prepare), so the poison flag
    /// carries no information here.
    fn lock_shard(shard: &Mutex<PlanCache>) -> std::sync::MutexGuard<'_, PlanCache> {
        shard.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn shard_for(&self, key: &PlanKey) -> &Mutex<PlanCache> {
        // Shard by (backend, program, params) only — NOT the table state
        // — so every version of one statement lands in the same shard and
        // the insert-time stale-state eviction can see (and drop) its
        // predecessors.
        let mut h = DefaultHasher::new();
        key.backend.hash(&mut h);
        key.program.hash(&mut h);
        key.params.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Fetch (or prepare and cache) the plan for `program` on `backend`,
    /// keyed by the backend's self-reported [`Backend::name`].
    pub fn get_or_prepare(
        &self,
        backend: &dyn Backend,
        program: &Program,
        catalog: &Catalog,
    ) -> Result<Arc<dyn PreparedPlan>> {
        self.lookup(backend.name(), backend, program, catalog)
            .map(|(plan, _)| plan)
    }

    /// [`Self::get_or_prepare`] keyed by an explicit backend identity
    /// (see [`PlanKey::named`]), additionally reporting whether the
    /// lookup hit (`true`) or prepared (`false`). Serving layers use the
    /// flag to attribute cache traffic per statement without re-reading
    /// (racy) global counters.
    pub fn lookup(
        &self,
        identity: &str,
        backend: &dyn Backend,
        program: &Program,
        catalog: &Catalog,
    ) -> Result<(Arc<dyn PreparedPlan>, bool)> {
        let key = PlanKey::named(identity, backend, catalog, program);
        Self::lock_shard(self.shard_for(&key)).get_or_prepare(key, backend, program, catalog)
    }

    /// Counters summed over every shard.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            let s = Self::lock_shard(shard).stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
            total.capacity += s.capacity;
        }
        total
    }

    /// Drop every entry and reset all counters (capacity is kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            Self::lock_shard(shard).clear();
        }
    }

    /// Drop every entry while PRESERVING the cumulative counters (the
    /// dropped entries count as evictions). For callers that must
    /// invalidate plans without zeroing an operator dashboard's hit/miss
    /// history — e.g. a backend registry replacing a backend.
    pub fn evict_all(&self) {
        for shard in self.shards.iter() {
            Self::lock_shard(shard).evict_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuBackend, InterpBackend};
    use voodoo_core::KeyPath;

    fn fixture() -> (Catalog, Program) {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[1, 2, 3, 4]);
        let mut p = Program::new();
        let t = p.load("t");
        let s = p.fold_sum_global(t);
        p.ret(s);
        (cat, p)
    }

    /// A distinct single-table sum program per `i` (different constants →
    /// different SSA text → different cache keys).
    fn distinct_program(i: i64) -> Program {
        let mut p = Program::new();
        let t = p.load("t");
        let t = p.add_const(t, i);
        let s = p.fold_sum_global(t);
        p.ret(s);
        p
    }

    #[test]
    fn second_lookup_hits() {
        let (cat, p) = fixture();
        let backend = CpuBackend::single_threaded();
        let cache = ShardedPlanCache::new();
        let a = cache.get_or_prepare(&backend, &p, &cat).unwrap();
        let b = cache.get_or_prepare(&backend, &p, &cat).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same prepared plan instance");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 1));
        let out = b.execute(&cat).unwrap();
        assert_eq!(
            out.returns[0]
                .value_at(0, &KeyPath::val())
                .map(|v| v.as_i64()),
            Some(10)
        );
    }

    #[test]
    fn programs_differing_only_in_keypaths_get_distinct_entries() {
        // Regression: the pretty SSA rendering omits operator parameters
        // like Project key paths, so keying on it conflated "project
        // column a" with "project column b" and served the wrong plan.
        let mut cat = Catalog::in_memory();
        let mut t = voodoo_storage::Table::new("t");
        t.add_column(voodoo_storage::TableColumn::from_buffer(
            "a",
            voodoo_core::Buffer::I64(vec![1, 2]),
        ));
        t.add_column(voodoo_storage::TableColumn::from_buffer(
            "b",
            voodoo_core::Buffer::I64(vec![10, 20]),
        ));
        cat.insert_table(t);
        let prog_for = |col: &str| {
            let mut p = Program::new();
            let t = p.load("t");
            let v = p.project(t, KeyPath::new(col), KeyPath::val());
            let s = p.fold_sum_global(v);
            p.ret(s);
            p
        };
        let backend = InterpBackend::new();
        let cache = ShardedPlanCache::new();
        let sum = |cache: &ShardedPlanCache, col: &str| {
            cache
                .get_or_prepare(&backend, &prog_for(col), &cat)
                .unwrap()
                .execute(&cat)
                .unwrap()
                .returns[0]
                .value_at(0, &KeyPath::val())
                .map(|v| v.as_i64())
                .unwrap()
        };
        assert_eq!(sum(&cache, "a"), 3);
        assert_eq!(sum(&cache, "b"), 30, "must not serve the 'a' plan");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn pretty_printing_labels_do_not_fragment_the_cache() {
        // Labels are documented as pretty-printing only: two programs
        // differing solely in labels are the same program and must share
        // one cache entry.
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[1, 2, 3, 4]);
        let mut plain = Program::new();
        let t = plain.load("t");
        let s = plain.fold_sum_global(t);
        plain.ret(s);
        let mut labeled = plain.clone();
        labeled.label(t, "debugName");
        let backend = InterpBackend::new();
        let cache = ShardedPlanCache::new();
        let a = cache.get_or_prepare(&backend, &plain, &cat).unwrap();
        let b = cache.get_or_prepare(&backend, &labeled, &cat).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "labels must not change the key");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_backends_get_distinct_entries() {
        let (cat, p) = fixture();
        let cpu = CpuBackend::single_threaded();
        let interp = InterpBackend::new();
        let cache = ShardedPlanCache::new();
        cache.get_or_prepare(&cpu, &p, &cat).unwrap();
        cache.get_or_prepare(&interp, &p, &cat).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn catalog_mutation_invalidates() {
        let (mut cat, p) = fixture();
        let backend = CpuBackend::single_threaded();
        let cache = ShardedPlanCache::new();
        cache.get_or_prepare(&backend, &p, &cat).unwrap();
        // Replacing the table changes the version — the old plan is stale.
        cat.put_i64_column("t", &[10, 20, 30, 40, 50]);
        let plan = cache.get_or_prepare(&backend, &p, &cat).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(s.evictions, 1, "the stale-version plan was evicted");
        assert_eq!(s.entries, 1, "stale plan dropped, not retained");
        let out = plan.execute(&cat).unwrap();
        assert_eq!(
            out.returns[0]
                .value_at(0, &KeyPath::val())
                .map(|v| v.as_i64()),
            Some(150)
        );
    }

    #[test]
    fn unrelated_table_mutations_leave_plans_hot() {
        // Invalidation is per table: the fixture program loads only "t",
        // so mutating any other table must not cost it its cached plan.
        let (mut cat, p) = fixture();
        let backend = CpuBackend::single_threaded();
        let cache = ShardedPlanCache::new();
        cache.get_or_prepare(&backend, &p, &cat).unwrap();
        cat.put_i64_column("other", &[1, 2, 3]);
        cache.get_or_prepare(&backend, &p, &cat).unwrap();
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.evictions),
            (1, 1, 0),
            "plan over t must stay hot across an unrelated mutation"
        );
        // Touching t itself (even without changing data) invalidates.
        cat.table_mut("t");
        cache.get_or_prepare(&backend, &p, &cat).unwrap();
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions), (2, 1));
    }

    #[test]
    fn differing_knobs_get_distinct_plans_under_one_name() {
        // The partitioning knob is part of the plan identity: two
        // backends that self-report the same name but carry different
        // parallelism settings must not share a cached plan.
        let (cat, p) = fixture();
        let serial = CpuBackend::single_threaded();
        let parallel = CpuBackend::with_threads(4);
        let cache = ShardedPlanCache::new();
        let a = cache.get_or_prepare(&serial, &p, &cat).unwrap();
        let b = cache.get_or_prepare(&parallel, &p, &cat).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "knobs are part of the key");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn capacity_bounds_entries_with_lru_eviction() {
        let (cat, _) = fixture();
        let backend = CpuBackend::single_threaded();
        let cache = ShardedPlanCache::with_shards(1, 3);
        for i in 0..5 {
            cache
                .get_or_prepare(&backend, &distinct_program(i), &cat)
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.capacity, 3);
        // Plans 0 and 1 were evicted (LRU); 2..5 still hit.
        for i in 2..5 {
            cache
                .get_or_prepare(&backend, &distinct_program(i), &cat)
                .unwrap();
        }
        assert_eq!(cache.stats().hits, 3);
        // A re-prepare of an evicted plan is a miss again.
        cache
            .get_or_prepare(&backend, &distinct_program(0), &cat)
            .unwrap();
        assert_eq!(cache.stats().misses, 6);
    }

    #[test]
    fn lru_favors_recently_used_plans() {
        let (cat, _) = fixture();
        let backend = CpuBackend::single_threaded();
        let cache = ShardedPlanCache::with_shards(1, 2);
        cache
            .get_or_prepare(&backend, &distinct_program(0), &cat)
            .unwrap();
        cache
            .get_or_prepare(&backend, &distinct_program(1), &cat)
            .unwrap();
        // Touch plan 0 so plan 1 becomes the LRU victim.
        cache
            .get_or_prepare(&backend, &distinct_program(0), &cat)
            .unwrap();
        cache
            .get_or_prepare(&backend, &distinct_program(2), &cat)
            .unwrap();
        let hits = cache.stats().hits;
        cache
            .get_or_prepare(&backend, &distinct_program(0), &cat)
            .unwrap();
        assert_eq!(cache.stats().hits, hits + 1, "recently-used plan kept");
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let (cat, _) = fixture();
        let backend = CpuBackend::single_threaded();
        let cache = ShardedPlanCache::with_shards(1, 8);
        for i in 0..4 {
            cache
                .get_or_prepare(&backend, &distinct_program(i), &cat)
                .unwrap();
        }
        cache.set_capacity(2);
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn clear_resets_everything() {
        let (cat, p) = fixture();
        let backend = CpuBackend::single_threaded();
        let cache = ShardedPlanCache::new();
        cache.get_or_prepare(&backend, &p, &cat).unwrap();
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (0, 0, 0, 0));
        assert_eq!(s.capacity, DEFAULT_PLAN_CAPACITY, "capacity survives");
    }

    #[test]
    fn sharded_cache_serves_hits_across_threads() {
        let (cat, _) = fixture();
        let backend = CpuBackend::single_threaded();
        let cache = ShardedPlanCache::new();
        let programs: Vec<Program> = (0..4).map(distinct_program).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for p in &programs {
                        cache.get_or_prepare(&backend, p, &cat).unwrap();
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(
            s.misses, 4,
            "single-flight per stripe: one compile per distinct program"
        );
        assert_eq!(s.hits, 12);
        assert_eq!(s.entries, 4);
    }

    #[test]
    fn distinct_identities_separate_same_named_backends() {
        // Two differently-configured backends both report name() == "cpu";
        // keying by a registry-owned identity keeps their plans apart.
        let (cat, p) = fixture();
        let single = CpuBackend::single_threaded();
        let multi = CpuBackend::with_threads(4);
        let cache = ShardedPlanCache::new();
        let (a, _) = cache.lookup("cpu#0", &single, &p, &cat).unwrap();
        let (b, _) = cache.lookup("cpu-mt#1", &multi, &p, &cat).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "no false sharing across identities");
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (2, 2));
        // Same identity still hits — and says so.
        let (_, hit) = cache.lookup("cpu#0", &single, &p, &cat).unwrap();
        assert!(hit);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn sharded_cache_evicts_stale_versions_across_mutations() {
        let (mut cat, p) = fixture();
        let backend = CpuBackend::single_threaded();
        let cache = ShardedPlanCache::new();
        cache.get_or_prepare(&backend, &p, &cat).unwrap();
        // Bump the catalog version: the re-prepared plan must land in the
        // SAME shard (sharding ignores the version) and replace the stale
        // entry rather than accumulate next to it.
        cat.put_i64_column("t", &[5, 5]);
        cache.get_or_prepare(&backend, &p, &cat).unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 1, "stale version replaced, not retained");
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn evict_all_drops_entries_but_keeps_counter_history() {
        let (cat, p) = fixture();
        let backend = CpuBackend::single_threaded();
        let cache = ShardedPlanCache::new();
        cache.get_or_prepare(&backend, &p, &cat).unwrap();
        cache.get_or_prepare(&backend, &p, &cat).unwrap();
        cache.evict_all();
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!((s.hits, s.misses), (1, 1), "history survives eviction");
        assert_eq!(s.evictions, 1, "dropped entries count as evictions");
    }

    #[test]
    fn sharded_capacity_is_split_and_settable() {
        let cache = ShardedPlanCache::with_shards(4, 16);
        assert_eq!(cache.shard_count(), 4);
        assert_eq!(cache.capacity(), 16);
        cache.set_capacity(4);
        assert_eq!(cache.capacity(), 4);
        // Capacity never drops below one plan per shard.
        cache.set_capacity(0);
        assert_eq!(cache.capacity(), 4);
    }
}
