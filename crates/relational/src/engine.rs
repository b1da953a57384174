//! The shared, thread-safe [`Engine`] — one execution core, many
//! concurrent [`crate::Session`] handles.
//!
//! The paper's portability story (one Voodoo program, many targets) meets
//! serving reality here: an `Engine` owns the catalog behind copy-on-write
//! snapshots, the named backend registry, a lock-striped LRU plan cache
//! ([`voodoo_backend::ShardedPlanCache`]) and throughput metrics. Every
//! method takes `&self`; statements pin an immutable
//! [`voodoo_storage::CatalogSnapshot`] at start and hold **no lock during
//! execution**, so any number of threads can prepare/run/profile against
//! one engine.
//!
//! * Readers: [`Engine::snapshot`] — an `Arc` bump under a briefly-held
//!   read lock.
//! * Writers: [`Engine::mutate_catalog`] — clone the (Arc-shared,
//!   O(#tables)) catalog, mutate the copy, publish it. The existing
//!   version counter bumps on mutation, which is what invalidates cached
//!   plans.
//! * Statements: every execution — a [`crate::Statement`] call, a batch
//!   slot, a serve worker, a view build or read — runs inside the one
//!   execution scope, `Engine::scoped`, and is driven by
//!   [`crate::statement`].
//! * Batches: [`Engine::run_batch`] fans a slice of [`StatementSpec`]s
//!   across a transient admission queue.
//!
//! [`run_query_on`] at the bottom predates the engine and survives for
//! callers that hold a bare [`Backend`] and a `&Catalog`.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use voodoo_backend::{
    Backend, CacheStats, CpuBackend, InterpBackend, Parallelism, PreparedPlan, ShardedPlanCache,
    SimGpuBackend,
};
use voodoo_compile::exec::StatementTrace;
use voodoo_compile::MorselPool;
use voodoo_core::{Program, Result, VoodooError};
use voodoo_ivm::view::Exec;
use voodoo_ivm::{MaintainedView, Refresh, RefreshKind, ViewDef};
use voodoo_storage::{Catalog, CatalogSnapshot};
use voodoo_tpch::queries::{Query, QueryResult};

use crate::queries;
use crate::session::backends;
use crate::sql;
use crate::statement::{StatementOutput, StatementSpec};

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// How many latency samples the engine's reservoir retains (a sliding
/// window over the most recent executions).
const RESERVOIR_CAPACITY: usize = 1024;

/// A snapshot of an engine's serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineMetrics {
    /// Statement executions completed (successful or not).
    pub queries_served: u64,
    /// Statement executions that returned an error.
    pub failures: u64,
    /// [`Engine::run_batch`] invocations.
    pub batches_served: u64,
    /// Statements admitted to serving queues and not yet executing
    /// (a gauge, summed over every live [`crate::ServerHandle`]).
    pub queue_depth: u64,
    /// Statements refused admission — queue-full sheds plus admission
    /// deadline expiries, across every server over this engine. Includes
    /// the adaptive and quota sheds broken out below.
    pub sheds: u64,
    /// Of [`EngineMetrics::sheds`], those shed by the CoDel-style
    /// adaptive admission controller before the queue filled
    /// (see [`crate::OverloadConfig`]).
    pub adaptive_sheds: u64,
    /// Of [`EngineMetrics::sheds`], those shed because a session's
    /// service-time quota ran dry (see
    /// [`crate::ServerHandle::session_with_quota`]).
    pub quota_sheds: u64,
    /// Admitted statements dropped at dequeue because their propagated
    /// deadline had already expired — queue slots recovered without
    /// spending service time.
    pub deadline_drops: u64,
    /// Cumulative morsel fan-out: the maximum partition count any
    /// execution unit used, summed over statements (a fully serial
    /// statement contributes 1). `partitions_used / queries_served` is
    /// the mean per-statement fan-out — the engine's parallel-speedup
    /// upper-bound accounting.
    pub partitions_used: u64,
    /// Statements whose execution fanned across more than one partition.
    pub parallel_statements: u64,
    /// Morsel tasks statements of this engine submitted to the
    /// persistent worker pool ([`Engine::morsel_pool`]).
    pub pool_tasks: u64,
    /// Of those, tasks executed by a pool worker other than the one
    /// they were queued on — the work-stealing rebalances that absorbed
    /// skew instead of idling workers. Read alongside
    /// [`EngineMetrics::partitions_used`]: fan-out says how wide
    /// statements *offered* work, steals say how much the scheduler
    /// had to move it.
    pub steals: u64,
    /// Materialized-view reads satisfied from the cached result with no
    /// maintenance work (no dependency version drifted).
    pub view_hits: u64,
    /// Materialized-view refreshes applied from captured row deltas —
    /// the `O(changes)` path.
    pub delta_refreshes: u64,
    /// Materialized-view refreshes that fell back to a full recompute
    /// (initial materialization, a non-capturable rewrite, or a trimmed
    /// change log). A rising rate here means maintenance coverage is
    /// slipping.
    pub full_recomputes: u64,
    /// Rows pushed through view delta pipelines, cumulative. Compare
    /// against [`EngineMetrics::rows_full`]: their ratio is the work
    /// saved by incremental maintenance.
    pub rows_delta: u64,
    /// Rows scanned by view full recomputes, cumulative.
    pub rows_full: u64,
    /// Median execution latency over the reservoir window, in seconds.
    pub p50_seconds: Option<f64>,
    /// 99th-percentile execution latency over the window, in seconds.
    pub p99_seconds: Option<f64>,
    /// Latency samples currently in the reservoir (≤ its capacity).
    pub latency_samples: usize,
    /// Median *sojourn* (admission → completion: queue wait plus
    /// execution) over the sojourn reservoir, in seconds — the open-loop
    /// latency a serving client observes, as opposed to
    /// [`EngineMetrics::p50_seconds`] which times execution only.
    /// Recorded by serve workers; `None` when nothing has been served.
    pub sojourn_p50_seconds: Option<f64>,
    /// 99th-percentile sojourn over the window, in seconds.
    pub sojourn_p99_seconds: Option<f64>,
    /// Sojourn samples currently in the reservoir (≤ its capacity).
    pub sojourn_samples: usize,
}

impl EngineMetrics {
    /// Mean morsel fan-out per served statement (1.0 = fully serial
    /// serving): the idealized intra-statement speedup bound implied by
    /// the partition accounting.
    pub fn mean_partitions(&self) -> f64 {
        if self.queries_served == 0 {
            1.0
        } else {
            self.partitions_used as f64 / self.queries_served as f64
        }
    }

    /// Fraction of all view-maintenance row traffic that went through the
    /// delta path (`1.0` = every refresh was incremental; `0.0` with no
    /// refreshes recorded).
    pub fn delta_row_fraction(&self) -> f64 {
        let total = self.rows_delta + self.rows_full;
        if total == 0 {
            0.0
        } else {
            self.rows_delta as f64 / total as f64
        }
    }
}

/// A fixed-size sliding-window latency reservoir.
struct Reservoir {
    samples: Vec<f64>,
    /// Next slot to overwrite once the window is full.
    next: usize,
}

impl Reservoir {
    fn new() -> Reservoir {
        Reservoir {
            samples: Vec::with_capacity(RESERVOIR_CAPACITY),
            next: 0,
        }
    }

    fn record(&mut self, seconds: f64) {
        if self.samples.len() < RESERVOIR_CAPACITY {
            self.samples.push(seconds);
        } else {
            self.samples[self.next] = seconds;
            self.next = (self.next + 1) % RESERVOIR_CAPACITY;
        }
    }

    fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
        if sorted.is_empty() {
            return None;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }
}

struct Metrics {
    queries: AtomicU64,
    failures: AtomicU64,
    batches: AtomicU64,
    queue_depth: AtomicU64,
    sheds: AtomicU64,
    adaptive_sheds: AtomicU64,
    quota_sheds: AtomicU64,
    deadline_drops: AtomicU64,
    partitions: AtomicU64,
    parallel_statements: AtomicU64,
    pool_tasks: AtomicU64,
    steals: AtomicU64,
    view_hits: AtomicU64,
    delta_refreshes: AtomicU64,
    full_recomputes: AtomicU64,
    rows_delta: AtomicU64,
    rows_full: AtomicU64,
    reservoir: Mutex<Reservoir>,
    /// Admission-to-completion times recorded by serve workers (the
    /// execution reservoir above excludes queue wait).
    sojourns: Mutex<Reservoir>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            queries: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            adaptive_sheds: AtomicU64::new(0),
            quota_sheds: AtomicU64::new(0),
            deadline_drops: AtomicU64::new(0),
            partitions: AtomicU64::new(0),
            parallel_statements: AtomicU64::new(0),
            pool_tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            view_hits: AtomicU64::new(0),
            delta_refreshes: AtomicU64::new(0),
            full_recomputes: AtomicU64::new(0),
            rows_delta: AtomicU64::new(0),
            rows_full: AtomicU64::new(0),
            reservoir: Mutex::new(Reservoir::new()),
            sojourns: Mutex::new(Reservoir::new()),
        }
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// One registered backend: its registry name, the epoch it was
/// (re-)registered at, and the backend itself.
struct Registration {
    name: String,
    epoch: u64,
    backend: Arc<dyn Backend>,
}

/// A backend resolved at statement start: the backend plus the cache
/// identity (`"name#epoch"`) plans prepared through it are keyed under.
/// Keying by registry name + epoch (instead of the backend's
/// self-reported [`Backend::name`]) means (a) two differently-configured
/// backends of one type registered under distinct names never share
/// plans, and (b) replacing a backend starts a fresh epoch, so plans a
/// racing statement prepared through the replaced backend can never be
/// served on behalf of the new one.
struct ResolvedBackend {
    backend: Arc<dyn Backend>,
    cache_identity: String,
}

/// The mutable (lock-guarded) part of an engine: the published catalog
/// snapshot, the backend registry, and the default backend name. Held
/// only long enough to clone an `Arc` or swap a snapshot — never across
/// a statement execution.
struct Shared {
    catalog: CatalogSnapshot,
    registry: Vec<Registration>,
    next_epoch: u64,
    default_backend: String,
    /// The persistent morsel pool this engine's statements execute on
    /// (installed around every execution; see [`Engine::morsel_pool`]).
    pool: MorselPool,
}

impl Shared {
    fn backend(&self, name: &str) -> Result<ResolvedBackend> {
        self.registry
            .iter()
            .find(|r| r.name == name)
            .map(|r| ResolvedBackend {
                backend: Arc::clone(&r.backend),
                cache_identity: format!("{}#{}", r.name, r.epoch),
            })
            .ok_or_else(|| {
                VoodooError::Backend(format!(
                    "unknown backend {name:?} (registered: {})",
                    self.registry
                        .iter()
                        .map(|r| r.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })
    }
}

/// One statement's view of the engine, resolved once at statement start
/// by [`Engine::scoped`]: the backend, the pinned catalog snapshot, and
/// the statement's own plan-cache traffic.
pub(crate) struct ExecCtx<'e> {
    engine: &'e Engine,
    backend: ResolvedBackend,
    snapshot: CatalogSnapshot,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
}

impl<'e> ExecCtx<'e> {
    pub(crate) fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The catalog snapshot this statement executes against.
    pub(crate) fn catalog(&self) -> &Catalog {
        &self.snapshot
    }

    /// The prepared plan for one program of the statement, through the
    /// engine's plan cache; the hit or miss is attributed to the
    /// statement.
    pub(crate) fn plan(
        &self,
        program: &Program,
        catalog: &Catalog,
    ) -> Result<Arc<dyn PreparedPlan>> {
        let (plan, hit) = self.engine.cache.lookup(
            &self.backend.cache_identity,
            &*self.backend.backend,
            program,
            catalog,
        )?;
        let counter = if hit {
            &self.cache_hits
        } else {
            &self.cache_misses
        };
        counter.set(counter.get() + 1);
        Ok(plan)
    }
}

pub(crate) fn unknown_view(name: &str) -> VoodooError {
    VoodooError::Backend(format!("unknown view {name:?}"))
}

/// What one trip through [`Engine::scoped`] produced.
pub(crate) struct Executed<T> {
    /// The body's result; the outer `Err` carries the payload of a panic
    /// that unwound out of it (already recorded as a failure).
    pub(crate) outcome: std::thread::Result<Result<T>>,
    /// Plan-cache hits this statement was served.
    pub(crate) cache_hits: u64,
    /// Plans this statement had to prepare.
    pub(crate) cache_misses: u64,
}

impl<T> Executed<T> {
    /// The result, for callers with no panic boundary of their own: a
    /// caught panic continues unwinding.
    pub(crate) fn into_result(self) -> Result<T> {
        self.outcome.unwrap_or_else(|panic| resume_unwind(panic))
    }

    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> Executed<U> {
        Executed {
            outcome: self.outcome.map(|result| result.map(f)),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
        }
    }
}

/// The shared execution core: catalog snapshots + backend registry +
/// sharded plan cache + serving metrics. Construct one, wrap it in an
/// [`Arc`], and hand [`crate::Session`] clones to as many threads as you
/// like (or call [`Engine::session`] / [`crate::Session::new`], which do
/// the wrapping for you).
pub struct Engine {
    shared: RwLock<Shared>,
    cache: ShardedPlanCache,
    metrics: Metrics,
    /// Registered materialized views. The outer lock is held only to look
    /// up or insert a slot; each view's own lock serializes its refreshes,
    /// so two views never block each other and readers of an up-to-date
    /// view only wait on an in-flight refresh of that same view.
    views: Mutex<HashMap<String, Arc<Mutex<MaintainedView>>>>,
}

impl Engine {
    /// Lock the shared state, recovering from poisoning: a panic in one
    /// serving thread (or in a user closure passed to
    /// [`Engine::mutate_catalog`]) must not take the whole engine down.
    /// Every panic point leaves `Shared` consistent — the catalog
    /// snapshot is only swapped as the final, non-panicking step of a
    /// write — so the poison flag carries no information here.
    fn state_read(&self) -> std::sync::RwLockReadGuard<'_, Shared> {
        self.shared.read().unwrap_or_else(|e| e.into_inner())
    }

    fn state_write(&self) -> std::sync::RwLockWriteGuard<'_, Shared> {
        self.shared.write().unwrap_or_else(|e| e.into_inner())
    }

    /// An engine over a catalog, with the three standard backends
    /// registered (`"interp"`, `"cpu"`, `"gpu"`) and `"cpu"` as default.
    ///
    /// If the catalog holds TPC-H tables, the auxiliary dictionary-flag
    /// tables the Voodoo plans read ([`crate::prepare()`]) are staged
    /// automatically.
    pub fn new(mut catalog: Catalog) -> Engine {
        if catalog.table("part").is_some() && catalog.table("lineitem").is_some() {
            crate::prepare(&mut catalog);
        }
        let defaults: [(&str, Arc<dyn Backend>); 3] = [
            // The interpreter stays strictly serial: it is the reference
            // oracle every partition-parallel result is pinned against.
            (backends::INTERP, Arc::new(InterpBackend::new())),
            // The default CPU backend fans statements across the machine
            // (`Parallelism::Auto`), capped per serving thread by the
            // worker pool's parallelism budget so intra-statement morsels
            // and admission workers never oversubscribe cores together.
            (
                backends::CPU,
                Arc::new(CpuBackend::auto().with_optimize(true)),
            ),
            (backends::GPU, Arc::new(SimGpuBackend::titan_x())),
        ];
        let registry: Vec<Registration> = defaults
            .into_iter()
            .enumerate()
            .map(|(epoch, (name, backend))| Registration {
                name: name.to_string(),
                epoch: epoch as u64,
                backend,
            })
            .collect();
        let next_epoch = registry.len() as u64;
        Engine {
            shared: RwLock::new(Shared {
                catalog: CatalogSnapshot::new(catalog),
                registry,
                next_epoch,
                default_backend: backends::CPU.to_string(),
                // Engines share the machine-sized process pool unless a
                // caller installs a private one (tests, dedicated
                // tenants): morsel workers are a per-machine resource,
                // not a per-engine one.
                pool: MorselPool::global(),
            }),
            cache: ShardedPlanCache::new(),
            metrics: Metrics::new(),
            views: Mutex::new(HashMap::new()),
        }
    }

    // -- morsel pool --------------------------------------------------

    /// The persistent work-stealing pool this engine's statements
    /// execute their morsels on. Installed ([`voodoo_compile::pool::
    /// enter`]) around every statement execution — view builds and reads
    /// included — so serve workers and session threads all lease slots
    /// from the same workers instead of spawning per-unit threads.
    /// Defaults to the process-wide [`MorselPool::global`].
    pub fn morsel_pool(&self) -> MorselPool {
        self.state_read().pool.clone()
    }

    /// Install a different morsel pool (e.g. a smaller private pool for
    /// an isolated tenant, or a fresh one after [`MorselPool::shutdown`]
    /// — "restart" is handing the engine a new pool). In-flight
    /// statements finish on the pool they started with.
    pub fn set_morsel_pool(&self, pool: MorselPool) -> &Self {
        self.state_write().pool = pool;
        self
    }

    /// Generate TPC-H at the given scale factor and open an engine over it.
    pub fn tpch(sf: f64) -> Engine {
        Engine::new(voodoo_tpch::generate(sf))
    }

    /// A cheap, clonable, `Send` session handle onto this engine.
    pub fn session(self: &Arc<Self>) -> crate::Session {
        crate::Session::from_engine(Arc::clone(self))
    }

    // -- catalog ------------------------------------------------------

    /// The current catalog snapshot: an `Arc` bump, immutable, safe to
    /// read for as long as the caller likes.
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.state_read().catalog.clone()
    }

    /// Apply a mutation to a private copy of the catalog and publish the
    /// result (copy-on-write: concurrent readers keep their snapshots).
    /// Mutation bumps the catalog version, invalidating cached plans.
    ///
    /// The private copy is O(#tables) — tables sit behind `Arc`s and
    /// column buffers are themselves copy-on-write — so the cost of a
    /// publication is the mutation itself: an appended batch costs
    /// O(batch), never O(rows resident) (see `voodoo_storage::catalog`,
    /// "Segmented storage & the write path").
    pub fn mutate_catalog<T>(&self, f: impl FnOnce(&mut Catalog) -> T) -> T {
        let mut shared = self.state_write();
        let mut working: Catalog = (*shared.catalog).clone();
        let out = f(&mut working);
        shared.catalog = CatalogSnapshot::new(working);
        out
    }

    /// Append rows to a table and publish the new snapshot: the batched
    /// ingest front door. One `Vec<i64>` per row in column order; values
    /// cast to each column's stored type. O(batch + #tables) regardless
    /// of how many rows are already resident — the batch is sealed into
    /// an `Arc`-shared append segment and concurrent readers keep their
    /// snapshots untouched. Returns `false` for an unknown table.
    pub fn append_rows(&self, table: &str, rows: &[Vec<i64>]) -> bool {
        self.mutate_catalog(|c| c.append_rows(table, rows))
    }

    // -- backends -----------------------------------------------------

    /// Register (or replace) a backend under a name.
    ///
    /// Every (re-)registration gets a fresh epoch, and cached plans are
    /// keyed by `name#epoch`: plans prepared by a replaced backend —
    /// including ones a racing statement inserts *after* the swap —
    /// become unreachable rather than being served on behalf of the new
    /// backend. Replacing additionally evicts every cached plan to
    /// reclaim their memory promptly (correctness does not depend on it);
    /// the cumulative hit/miss/eviction counters survive.
    pub fn register(&self, name: &str, backend: Arc<dyn Backend>) -> &Self {
        let mut shared = self.state_write();
        let epoch = shared.next_epoch;
        shared.next_epoch += 1;
        if let Some(slot) = shared.registry.iter_mut().find(|r| r.name == name) {
            slot.backend = backend;
            slot.epoch = epoch;
            drop(shared);
            self.cache.evict_all();
        } else {
            shared.registry.push(Registration {
                name: name.to_string(),
                epoch,
                backend,
            });
        }
        self
    }

    /// Re-register the `"cpu"` backend with a new intra-statement
    /// [`Parallelism`] setting (`Auto` per machine, `Fixed(n)` morsels,
    /// `Off` for strictly serial execution).
    ///
    /// Replacement starts a fresh cache epoch — and the partitioning knob
    /// is itself part of every plan key ([`Backend::cache_params`]) — so
    /// plans prepared under the old setting are never served under the
    /// new one.
    pub fn set_cpu_parallelism(&self, parallelism: Parallelism) -> &Self {
        self.register(
            backends::CPU,
            Arc::new(CpuBackend::parallel(parallelism).with_optimize(true)),
        )
    }

    /// Set the default backend for [`crate::Statement::run`].
    pub fn set_default_backend(&self, name: &str) -> Result<()> {
        let mut shared = self.state_write();
        shared.backend(name)?;
        shared.default_backend = name.to_string();
        Ok(())
    }

    /// The default backend's name.
    pub fn default_backend(&self) -> String {
        self.state_read().default_backend.clone()
    }

    /// The backend registered under `name`, if any. The primary consumer
    /// is fault-injection harnesses (`voodoo-faults`), which fetch a
    /// backend, wrap it, and [`Engine::register`] the wrapper back under
    /// the same name — the fresh epoch keeps wrapped and unwrapped plans
    /// apart in the cache.
    pub fn backend(&self, name: &str) -> Option<Arc<dyn Backend>> {
        self.state_read().backend(name).ok().map(|r| r.backend)
    }

    /// Registered backend names, in registration order.
    pub fn backend_names(&self) -> Vec<String> {
        self.state_read()
            .registry
            .iter()
            .map(|r| r.name.clone())
            .collect()
    }

    // -- execution scope ----------------------------------------------

    /// The one execution scope: everything that executes programs on
    /// this engine — statements from any front door, view builds, view
    /// reads — runs `body` in here.
    ///
    /// The scope resolves the backend (`backend`, else the default), the
    /// catalog snapshot (`pinned`, else the current one) and the morsel
    /// pool under a single read lock, held only for the resolution;
    /// installs the pool and the scheduling trace around `body`; and
    /// makes exactly one metrics recording per call, whether `body`
    /// returned, failed before it started (an unknown backend), or
    /// panicked. The statement's plan-cache hits and misses come back
    /// with the outcome, so attribution needs no side channel.
    ///
    /// `served` says whether the call is a served statement — counted in
    /// `queries_served`/`failures`, the latency reservoir and the
    /// per-statement fan-out. View builds and dry walks (explain, verify)
    /// are not: they only add the pool work they caused to
    /// `pool_tasks`/`steals`.
    pub(crate) fn scoped<T>(
        &self,
        backend: Option<&str>,
        pinned: Option<&CatalogSnapshot>,
        served: bool,
        body: impl FnOnce(&ExecCtx<'_>) -> Result<T>,
    ) -> Executed<T> {
        let started = Instant::now();
        let (backend, snapshot, pool) = {
            let shared = self.state_read();
            (
                shared.backend(backend.unwrap_or(&shared.default_backend)),
                pinned.unwrap_or(&shared.catalog).clone(),
                shared.pool.clone(),
            )
        };
        let _pool = voodoo_compile::pool::enter(pool);
        voodoo_compile::exec::statement_trace_begin();
        let ctx = backend.map(|backend| ExecCtx {
            engine: self,
            backend,
            snapshot,
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
        });
        let outcome = match &ctx {
            Ok(ctx) => catch_unwind(AssertUnwindSafe(|| body(ctx))),
            Err(e) => Ok(Err(e.clone())),
        };
        let trace = voodoo_compile::exec::statement_trace_end();
        let served = served.then_some((started, matches!(outcome, Ok(Ok(_)))));
        self.record_execution(served, trace);
        let (cache_hits, cache_misses) =
            ctx.map_or((0, 0), |ctx| (ctx.cache_hits.get(), ctx.cache_misses.get()));
        Executed {
            outcome,
            cache_hits,
            cache_misses,
        }
    }

    // -- plan cache ---------------------------------------------------

    /// Prepared-plan cache counters, summed over every cache stripe.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop all cached plans and reset the counters.
    pub fn clear_plan_cache(&self) {
        self.cache.clear();
    }

    /// Re-bound the plan cache's total capacity (default
    /// [`voodoo_backend::DEFAULT_PLAN_CAPACITY`] plans), evicting
    /// least-recently-used plans if it currently holds more.
    pub fn set_cache_capacity(&self, plans: usize) {
        self.cache.set_capacity(plans);
    }

    // -- metrics ------------------------------------------------------

    /// A snapshot of the engine's serving counters: executions, failures,
    /// batches, and p50/p99 latency over the recent-execution reservoir.
    pub fn metrics(&self) -> EngineMetrics {
        let mut sorted = {
            let r = self
                .metrics
                .reservoir
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            r.samples.clone()
        };
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let mut sojourns = {
            let r = self
                .metrics
                .sojourns
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            r.samples.clone()
        };
        sojourns.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        EngineMetrics {
            queries_served: self.metrics.queries.load(Ordering::Relaxed),
            failures: self.metrics.failures.load(Ordering::Relaxed),
            batches_served: self.metrics.batches.load(Ordering::Relaxed),
            queue_depth: self.metrics.queue_depth.load(Ordering::Relaxed),
            sheds: self.metrics.sheds.load(Ordering::Relaxed),
            adaptive_sheds: self.metrics.adaptive_sheds.load(Ordering::Relaxed),
            quota_sheds: self.metrics.quota_sheds.load(Ordering::Relaxed),
            deadline_drops: self.metrics.deadline_drops.load(Ordering::Relaxed),
            partitions_used: self.metrics.partitions.load(Ordering::Relaxed),
            parallel_statements: self.metrics.parallel_statements.load(Ordering::Relaxed),
            pool_tasks: self.metrics.pool_tasks.load(Ordering::Relaxed),
            steals: self.metrics.steals.load(Ordering::Relaxed),
            view_hits: self.metrics.view_hits.load(Ordering::Relaxed),
            delta_refreshes: self.metrics.delta_refreshes.load(Ordering::Relaxed),
            full_recomputes: self.metrics.full_recomputes.load(Ordering::Relaxed),
            rows_delta: self.metrics.rows_delta.load(Ordering::Relaxed),
            rows_full: self.metrics.rows_full.load(Ordering::Relaxed),
            p50_seconds: Reservoir::quantile(&sorted, 0.50),
            p99_seconds: Reservoir::quantile(&sorted, 0.99),
            latency_samples: sorted.len(),
            sojourn_p50_seconds: Reservoir::quantile(&sojourns, 0.50),
            sojourn_p99_seconds: Reservoir::quantile(&sojourns, 0.99),
            sojourn_samples: sojourns.len(),
        }
    }

    /// Record one trip through the execution scope: the pool work its
    /// scheduling trace shows (tasks, steals) and — for a served
    /// statement, `(started, ok)` — latency, outcome and morsel fan-out
    /// (the default trace = fully serial).
    fn record_execution(&self, served: Option<(Instant, bool)>, trace: StatementTrace) {
        self.metrics
            .pool_tasks
            .fetch_add(trace.pool_tasks, Ordering::Relaxed);
        self.metrics
            .steals
            .fetch_add(trace.steals, Ordering::Relaxed);
        let Some((started, ok)) = served else {
            return;
        };
        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.metrics.failures.fetch_add(1, Ordering::Relaxed);
        }
        let partitions = trace.partitions.max(1);
        self.metrics
            .partitions
            .fetch_add(partitions, Ordering::Relaxed);
        if partitions > 1 {
            self.metrics
                .parallel_statements
                .fetch_add(1, Ordering::Relaxed);
        }
        self.metrics
            .reservoir
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(started.elapsed().as_secs_f64());
    }

    pub(crate) fn record_shed(&self) {
        self.metrics.sheds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_adaptive_shed(&self) {
        self.metrics.adaptive_sheds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_quota_shed(&self) {
        self.metrics.quota_sheds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_deadline_drop(&self) {
        self.metrics.deadline_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one served statement's admission-to-completion time.
    pub(crate) fn record_sojourn(&self, sojourn: std::time::Duration) {
        self.metrics
            .sojourns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(sojourn.as_secs_f64());
    }

    pub(crate) fn queue_depth_inc(&self) {
        self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn queue_depth_dec(&self) {
        self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    fn record_view_refresh(&self, r: &Refresh) {
        match r.kind {
            RefreshKind::Hit => {
                self.metrics.view_hits.fetch_add(1, Ordering::Relaxed);
            }
            RefreshKind::Delta => {
                self.metrics.delta_refreshes.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .rows_delta
                    .fetch_add(r.rows_processed, Ordering::Relaxed);
            }
            RefreshKind::Full => {
                self.metrics.full_recomputes.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .rows_full
                    .fetch_add(r.rows_processed, Ordering::Relaxed);
            }
        }
    }

    // -- materialized views -------------------------------------------

    /// Register a materialized view over a SQL statement (the same subset
    /// [`Engine::sql`] accepts) and materialize it eagerly — the initial
    /// build is a counted full recompute. Subsequent [`Engine::read_view`]
    /// calls serve the cached result, refreshing it from captured row
    /// deltas when dependency versions drift.
    ///
    /// Re-creating under an existing name replaces the old view.
    pub fn create_view(&self, name: &str, stmt: &str) -> Result<()> {
        let def = crate::views::view_def_from_sql(&sql::parse(stmt)?)?;
        self.create_view_def(name, def)
    }

    /// Register a materialized view from an explicit [`ViewDef`] — the
    /// route to join views, which the SQL subset cannot express.
    pub fn create_view_def(&self, name: &str, def: ViewDef) -> Result<()> {
        let slot = Mutex::new(MaintainedView::new(def)?);
        // Build before publishing: a failed initial materialization
        // (unknown table) leaves no half-registered view behind, and a
        // racing reader can never observe an unbuilt one. The build runs
        // in the execution scope (the engine's pool, traced) but is not a
        // served statement.
        self.scoped(None, None, false, |ctx| {
            self.refresh_view_slot(&slot, &mut |p, c| ctx.plan(p, c)?.execute(c))
        })
        .into_result()?;
        self.views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), Arc::new(slot));
        Ok(())
    }

    /// Registered view names, sorted.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        names.sort_unstable();
        names
    }

    /// The definition of a registered view, if any.
    pub fn view_def(&self, name: &str) -> Option<ViewDef> {
        let slot = self
            .views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()?;
        let guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        Some(guard.def().clone())
    }

    /// Unregister a view; returns whether it existed.
    pub fn drop_view(&self, name: &str) -> bool {
        self.views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name)
            .is_some()
    }

    /// Read a materialized view on the default backend, refreshing it
    /// first if any dependency changed since the last read. Counts toward
    /// the serving metrics like any statement, plus the view counters
    /// ([`EngineMetrics::view_hits`] / `delta_refreshes` /
    /// `full_recomputes`).
    pub fn read_view(&self, name: &str) -> Result<QueryResult> {
        self.run_spec(&StatementSpec::view(name))
            .into_result()
            .map(StatementOutput::into_rows)
    }

    /// [`Engine::read_view`] with the refresh's stage programs executed
    /// on a named backend.
    pub fn read_view_on(&self, name: &str, backend: &str) -> Result<QueryResult> {
        self.run_spec(&StatementSpec::view(name).on(backend))
            .into_result()
            .map(StatementOutput::into_rows)
    }

    /// Look up + refresh + render a registered view, executing whatever
    /// stage programs the refresh needs through `exec` (the statement
    /// driver's per-program callback).
    pub(crate) fn refresh_view(&self, name: &str, exec: &mut Exec<'_>) -> Result<QueryResult> {
        let slot = self
            .views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| unknown_view(name))?;
        self.refresh_view_slot(&slot, exec)
    }

    /// Refresh one view against the current catalog snapshot. The slot
    /// lock serializes concurrent refreshes, and the snapshot is pinned
    /// *under* it (never the statement's own, possibly older, pin): a
    /// view's versions only move forward, and a writer publishing
    /// mid-refresh is simply picked up by the next read.
    fn refresh_view_slot(
        &self,
        slot: &Mutex<MaintainedView>,
        exec: &mut Exec<'_>,
    ) -> Result<QueryResult> {
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        let snapshot = self.snapshot();
        let refresh = guard.refresh(&snapshot, exec)?;
        self.record_view_refresh(&refresh);
        Ok(QueryResult::new(guard.rows().to_vec()))
    }

    // -- serving ------------------------------------------------------

    /// Start a serving front door over this engine: a bounded admission
    /// queue drained by a fixed worker pool with per-session weighted-
    /// fair scheduling and explicit overload shedding. See
    /// [`crate::serve`].
    pub fn serve(self: &Arc<Self>, config: crate::ServeConfig) -> crate::ServerHandle {
        crate::ServerHandle::start(Arc::clone(self), config)
    }

    /// Execute a batch of statements through a transient admission queue
    /// (capacity = batch size, one worker per available core capped by
    /// the batch size) — the same queue-aware path [`Engine::serve`]
    /// uses, so batch work shows up in the queue-depth gauge and a
    /// panicking statement fails only its own slot.
    ///
    /// The whole batch executes against **one** catalog snapshot, pinned
    /// here before admission: every slot shares the pin instead of
    /// re-taking the engine's read lock (and bumping the snapshot `Arc`)
    /// per statement, and a writer publishing mid-batch cannot make two
    /// slots of one batch see different catalogs.
    ///
    /// Results come back in input order; each statement fails or succeeds
    /// independently, like a serving loop would want.
    pub fn run_batch(self: &Arc<Self>, specs: &[StatementSpec]) -> Vec<Result<StatementOutput>> {
        self.metrics.batches.fetch_add(1, Ordering::Relaxed);
        if specs.is_empty() {
            return Vec::new();
        }
        let snapshot = self.snapshot();
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(specs.len());
        let server = self.serve(
            crate::ServeConfig::default()
                .with_queue_capacity(specs.len())
                .with_workers(workers),
        );
        let receipts: Vec<crate::Receipt> = specs
            .iter()
            .map(|spec| {
                server
                    .submit(spec.clone().pinned_to(snapshot.clone()))
                    .expect("queue sized to the batch cannot shed")
            })
            .collect();
        let results = receipts
            .into_iter()
            .map(|r| r.wait().map_err(crate::ServeError::into_engine_error))
            .collect();
        server.shutdown();
        results
    }
}

// ---------------------------------------------------------------------
// Free function (pre-engine API)
// ---------------------------------------------------------------------

/// Run a TPC-H query on an arbitrary backend (no caching; see
/// [`Engine`] / [`crate::Session`] for the cached path).
pub fn run_query_on(backend: &dyn Backend, cat: &Catalog, q: Query) -> Result<QueryResult> {
    queries::run_query(cat, q, &mut |p: &Program, c: &Catalog| {
        backend.prepare(p, c)?.execute(c)
    })
}
