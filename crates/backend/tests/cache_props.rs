//! Property-based invariant tests for [`voodoo_backend::ShardedPlanCache`]
//! (offline `proptest` shim): random interleavings of lookups, catalog
//! mutations, capacity changes, backend-epoch bumps and evictions must
//! preserve, at every step,
//!
//! 1. **accounting** — `hits + misses == lookups` (and survive
//!    `evict_all`, which keeps counter history),
//! 2. **bounding** — `entries <= capacity`,
//! 3. **freshness** — a returned plan is only ever served for the exact
//!    `(backend identity, touched-table state, program)` it was prepared
//!    under: no stale-version and no stale-epoch plan ever escapes.
//!    Invalidation is per table: every program here loads only `t`, so
//!    freshness keys on `t`'s version and mutations of *other* tables
//!    must keep `t`-plans live (also asserted below).
//!
//! Freshness is checked by pointer identity: every `Arc<dyn PreparedPlan>`
//! the cache hands back is recorded against its key; seeing the same
//! allocation under a different key would be a stale plan. All returned
//! `Arc`s are kept alive for the run so allocator address reuse cannot
//! alias two plans.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use voodoo_backend::{InterpBackend, PreparedPlan, ShardedPlanCache};
use voodoo_core::Program;
use voodoo_storage::Catalog;

fn small_catalog() -> Catalog {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &[1, 2, 3, 4]);
    cat
}

/// A distinct program per `i` (distinct SSA text ⇒ distinct cache key).
fn distinct_program(i: i64) -> Program {
    let mut p = Program::new();
    let t = p.load("t");
    let t = p.add_const(t, i);
    let s = p.fold_sum_global(t);
    p.ret(s);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_interleavings_preserve_cache_invariants(
        ops in collection::vec((0u8..11, 0usize..5, 0usize..3, 1usize..7), 20..80),
    ) {
        let backend = InterpBackend::new();
        let cache = ShardedPlanCache::with_shards(4, 4);
        let mut cat = small_catalog();
        let programs: Vec<Program> = (0..5).map(|i| distinct_program(i as i64)).collect();
        // Registry-style identities: each logical name carries an epoch
        // that bumps when the backend is "replaced".
        let mut epochs = [0u64; 3];
        let mut lookups = 0u64;
        // plan pointer -> the exact key it was prepared under (freshness
        // keys on the version of `t`, the one table every program loads).
        let mut plan_keys: HashMap<usize, (String, u64, usize)> = HashMap::new();
        let mut keepalive: Vec<Arc<dyn PreparedPlan>> = Vec::new();
        let mut version_bumps = 0i64;

        for (kind, prog_idx, ident_idx, cap) in ops {
            match kind {
                // Lookups dominate the op mix.
                0..=5 => {
                    let identity = format!("b{ident_idx}#{}", epochs[ident_idx]);
                    let plan = cache
                        .lookup(&identity, &backend, &programs[prog_idx], &cat)
                        .map_err(|e| format!("prepare failed: {e}"))?
                        .0;
                    lookups += 1;
                    let t_version = cat.table_version("t").expect("t exists");
                    let key = (identity, t_version, prog_idx);
                    let ptr = Arc::as_ptr(&plan) as *const () as usize;
                    if let Some(seen) = plan_keys.get(&ptr) {
                        prop_assert_eq!(
                            seen, &key,
                            "stale plan served: prepared under {:?}, returned for {:?}",
                            seen, key
                        );
                    } else {
                        plan_keys.insert(ptr, key);
                    }
                    keepalive.push(plan);
                }
                // Unrelated-table mutation: bumps the catalog version but
                // NOT `t`'s — per-table invalidation keeps `t`-plans live.
                6 => {
                    version_bumps += 1;
                    cat.put_i64_column("scratch", &[version_bumps]);
                }
                // Capacity change (including shrink-below-current-len).
                7 => cache.set_capacity(cap),
                // Backend replacement: a fresh epoch for this identity.
                8 => epochs[ident_idx] += 1,
                // Mutation of `t` itself: stales every plan.
                9 => {
                    version_bumps += 1;
                    cat.put_i64_column("t", &[1, 2, 3, version_bumps]);
                }
                // Eviction that must keep the counter history.
                _ => cache.evict_all(),
            }
            let s = cache.stats();
            prop_assert_eq!(
                s.hits + s.misses,
                lookups,
                "accounting drifted: {} hits + {} misses != {} lookups",
                s.hits, s.misses, lookups
            );
            prop_assert!(
                s.entries <= s.capacity,
                "over capacity: {} entries > {}",
                s.entries, s.capacity
            );
        }
    }

    #[test]
    fn concurrent_interleavings_keep_accounting_exact(
        seed in 0usize..1000,
        per_thread in 8usize..24,
    ) {
        let seed = seed as u64;
        const THREADS: usize = 3;
        let backend = InterpBackend::new();
        let cache = ShardedPlanCache::with_shards(4, 6);
        let old_cat = small_catalog();
        let mut new_cat = old_cat.clone();
        new_cat.put_i64_column("t", &[9, 9, 9]); // higher version of `t`
        let programs: Vec<Program> = (0..4).map(|i| distinct_program(i as i64)).collect();
        let plan_keys = std::sync::Mutex::new(HashMap::<usize, (u64, usize)>::new());
        let keepalive = std::sync::Mutex::new(Vec::<Arc<dyn PreparedPlan>>::new());

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                let backend = &backend;
                let programs = &programs;
                let cats = [&old_cat, &new_cat];
                let plan_keys = &plan_keys;
                let keepalive = &keepalive;
                scope.spawn(move || {
                    // Thread-local deterministic op stream off the seed.
                    let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) ^ (t as u64);
                    for _ in 0..per_thread {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let prog_idx = (x % programs.len() as u64) as usize;
                        let cat = cats[(x >> 8) as usize % 2];
                        if x.is_multiple_of(11) {
                            cache.set_capacity(2 + (x % 5) as usize);
                            continue;
                        }
                        let plan = cache
                            .get_or_prepare(backend, &programs[prog_idx], cat)
                            .expect("prepare");
                        let key = (cat.table_version("t").expect("t exists"), prog_idx);
                        let ptr = Arc::as_ptr(&plan) as *const () as usize;
                        let mut seen = plan_keys.lock().unwrap();
                        if let Some(prev) = seen.get(&ptr) {
                            assert_eq!(
                                prev, &key,
                                "stale plan served across threads"
                            );
                        } else {
                            seen.insert(ptr, key);
                        }
                        drop(seen);
                        keepalive.lock().unwrap().push(plan);
                    }
                });
            }
        });

        let gets = keepalive.lock().unwrap().len() as u64;
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, gets, "threaded accounting drifted");
        prop_assert!(s.entries <= s.capacity, "threaded over-capacity");
    }
}
