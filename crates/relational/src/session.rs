//! The `Session` handle: one entry point for every frontend and backend.
//!
//! A [`Session`] is a cheap, clonable handle onto a shared
//! [`crate::Engine`] (the thread-safe core owning the catalog snapshots,
//! the backend registry — by default `"interp"`, `"cpu"`, `"gpu"` — and
//! the sharded prepared-plan cache). Clone a session per thread, or ship
//! [`Statement`]s (they are `Send`) into workers: every handle serves
//! queries against the same engine, shares its plan cache, and never
//! blocks other handles while executing.
//!
//! Statements come from every frontend (raw programs, TPC-H plans, SQL,
//! view reads) and share one handle type, [`Statement`] — a
//! [`StatementSpec`] bound to the engine (see [`crate::statement`]):
//!
//! ```
//! use voodoo_relational::Session;
//! use voodoo_tpch::queries::Query;
//!
//! let session = Session::tpch(0.002);
//! // Named TPC-H query, on the default (compiled CPU) backend …
//! let q6 = session.query(Query::Q6).run().unwrap();
//! // … and the same statement on the simulated GPU: a one-word diff.
//! let q6_gpu = session.query(Query::Q6).run_on("gpu").unwrap();
//! assert_eq!(q6.rows(), q6_gpu.rows());
//! // Ad-hoc SQL through the parser.
//! let sql = session
//!     .sql("SELECT SUM(l_extendedprice) FROM lineitem WHERE l_discount >= 5")
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert_eq!(sql.rows().len(), 1);
//! // Re-running a statement skips recompilation: the prepared plan is
//! // served from the cache.
//! let misses = session.cache_stats().misses;
//! let again = session.query(Query::Q6).run().unwrap();
//! assert_eq!(q6.rows(), again.rows());
//! assert_eq!(session.cache_stats().misses, misses);
//! assert!(session.cache_stats().hits > 0);
//! ```
//!
//! Concurrency is a clone away — every thread drives the same engine:
//!
//! ```
//! use voodoo_relational::Session;
//! use voodoo_tpch::queries::Query;
//!
//! let session = Session::tpch(0.002);
//! let serial = session.query(Query::Q6).run().unwrap();
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let handle = session.clone();
//!         let serial = &serial;
//!         scope.spawn(move || {
//!             let out = handle.query(Query::Q6).run().unwrap();
//!             assert_eq!(out.rows(), serial.rows());
//!         });
//!     }
//! });
//! assert!(session.metrics().queries_served >= 5);
//! ```
//!
//! # Serving
//!
//! For sustained traffic, put the [`crate::serve`] front door in front
//! of the engine instead of spawning a thread per statement: a bounded
//! admission queue (a full queue **sheds** — `submit` never blocks; use
//! `submit_wait` with a deadline for blocking admission), a fixed worker
//! pool, and weighted-fair scheduling across [`crate::ServeSession`]s.
//! Size the queue to your latency budget (worst-case wait ≈ `capacity /
//! workers ×` mean service time); give each tenant a session whose
//! weight sets its saturation share:
//!
//! ```
//! use voodoo_relational::{ServeConfig, Session, StatementSpec};
//! use voodoo_tpch::queries::Query;
//!
//! let session = Session::tpch(0.002);
//! let server = session.serve(ServeConfig::default().with_workers(2));
//! let tenant = server.session(1);
//! let receipt = tenant.submit(StatementSpec::tpch(Query::Q6)).unwrap();
//! assert!(!receipt.wait().unwrap().rows().is_empty());
//! assert_eq!(tenant.stats().served, 1);
//! assert_eq!(session.metrics().sheds, 0);
//! server.shutdown();
//! ```
//!
//! # Materialized views
//!
//! Results that are re-read far more often than the data changes
//! shouldn't be recomputed per read: [`Session::create_view`]
//! materializes a statement's result once, and later reads refresh the
//! cache from captured row deltas in `O(changes)` (see [`crate::views`]
//! for the delta algebra and the SQL→IR bridge):
//!
//! ```
//! use voodoo_core::Buffer;
//! use voodoo_relational::Session;
//! use voodoo_storage::{Catalog, Table, TableColumn};
//!
//! let mut cat = Catalog::in_memory();
//! let mut sales = Table::new("sales");
//! sales.add_column(TableColumn::from_buffer("region", Buffer::I64(vec![0, 1, 0])));
//! sales.add_column(TableColumn::from_buffer("amount", Buffer::I64(vec![10, 20, 30])));
//! cat.insert_table(sales);
//!
//! let session = Session::new(cat);
//! session
//!     .create_view(
//!         "by_region",
//!         "SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region",
//!     )
//!     .unwrap();
//! assert_eq!(
//!     session.read_view("by_region").unwrap(),
//!     vec![vec![0, 40, 2], vec![1, 20, 1]],
//! );
//! // A captured append refreshes the view from the 1-row delta — the
//! // base table is never rescanned.
//! session.mutate_catalog(|c| c.append_rows("sales", &[vec![1, 5]]));
//! assert_eq!(
//!     session.read_view("by_region").unwrap(),
//!     vec![vec![0, 40, 2], vec![1, 25, 2]],
//! );
//! assert_eq!(session.metrics().delta_refreshes, 1);
//! ```

use std::sync::Arc;

use voodoo_backend::{Backend, CacheStats};
use voodoo_core::{Diagnostic, Program, Result};
use voodoo_storage::{Catalog, CatalogSnapshot};
use voodoo_tpch::queries::{Query, QueryResult};

use crate::engine::{Engine, EngineMetrics};
use crate::statement::{Statement, StatementOutput, StatementSpec};

/// The default backend names registered by [`Engine::new`].
pub mod backends {
    /// The reference interpreter.
    pub const INTERP: &str = "interp";
    /// The compiled, multithreaded CPU executor (the default).
    pub const CPU: &str = "cpu";
    /// The simulated TITAN-X-class GPU.
    pub const GPU: &str = "gpu";
}

/// A cheap, clonable handle onto a shared [`Engine`].
///
/// Cloning is an `Arc` bump; every clone (and every [`Statement`] built
/// from one) drives the same engine: same catalog, same backend registry,
/// same plan cache, same metrics. All methods take `&self`, so a session
/// can be shared or sent freely across threads.
#[derive(Clone)]
pub struct Session {
    engine: Arc<Engine>,
}

impl Session {
    /// A session over a fresh engine wrapping the catalog, with the three
    /// standard backends registered (`"interp"`, `"cpu"`, `"gpu"`) and
    /// `"cpu"` as default. See [`Engine::new`].
    pub fn new(catalog: Catalog) -> Session {
        Session {
            engine: Arc::new(Engine::new(catalog)),
        }
    }

    /// Generate TPC-H at the given scale factor and open a session over it.
    pub fn tpch(sf: f64) -> Session {
        Session::new(voodoo_tpch::generate(sf))
    }

    /// A session handle onto an existing shared engine.
    pub fn from_engine(engine: Arc<Engine>) -> Session {
        Session { engine }
    }

    /// The shared engine this session drives.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Register (or replace) a backend under a name. See
    /// [`Engine::register`].
    pub fn register(&self, name: &str, backend: Arc<dyn Backend>) -> &Self {
        self.engine.register(name, backend);
        self
    }

    /// Set the default backend for [`Statement::run`].
    pub fn set_default_backend(&self, name: &str) -> Result<()> {
        self.engine.set_default_backend(name)
    }

    /// Re-register the `"cpu"` backend with a new intra-statement
    /// [`voodoo_backend::Parallelism`] setting. See
    /// [`Engine::set_cpu_parallelism`].
    pub fn set_cpu_parallelism(&self, parallelism: voodoo_backend::Parallelism) -> &Self {
        self.engine.set_cpu_parallelism(parallelism);
        self
    }

    /// The default backend's name.
    pub fn default_backend(&self) -> String {
        self.engine.default_backend()
    }

    /// Registered backend names, in registration order.
    pub fn backend_names(&self) -> Vec<String> {
        self.engine.backend_names()
    }

    /// The current catalog snapshot (immutable, lock-free to read).
    pub fn catalog(&self) -> CatalogSnapshot {
        self.engine.snapshot()
    }

    /// Apply a mutation to a private copy of the catalog and publish the
    /// result (bumping the catalog version, which invalidates cached
    /// plans over the touched tables). See [`Engine::mutate_catalog`].
    pub fn mutate_catalog<T>(&self, f: impl FnOnce(&mut Catalog) -> T) -> T {
        self.engine.mutate_catalog(f)
    }

    /// Append a batch of rows to a table and publish the new snapshot in
    /// O(batch + #tables). See [`Engine::append_rows`].
    pub fn append_rows(&self, table: &str, rows: &[Vec<i64>]) -> bool {
        self.engine.append_rows(table, rows)
    }

    /// Prepared-plan cache counters (summed over every cache stripe).
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Drop all cached plans and reset the counters.
    pub fn clear_plan_cache(&self) {
        self.engine.clear_plan_cache()
    }

    /// Re-bound the plan cache's total capacity, evicting LRU plans if
    /// needed. See [`Engine::set_cache_capacity`].
    pub fn set_cache_capacity(&self, plans: usize) {
        self.engine.set_cache_capacity(plans)
    }

    /// The engine's serving metrics (executions, failures, p50/p99).
    pub fn metrics(&self) -> EngineMetrics {
        self.engine.metrics()
    }

    /// A statement handle from any spec. See [`Engine::statement`].
    pub fn statement(&self, spec: StatementSpec) -> Statement {
        self.engine.statement(spec)
    }

    /// A statement from a raw Voodoo program (the algebra frontend).
    pub fn program(&self, program: Program) -> Statement {
        self.engine.program(program)
    }

    /// A statement from a named TPC-H query (the planner frontend).
    pub fn query(&self, query: Query) -> Statement {
        self.engine.query(query)
    }

    /// A statement from a SQL string (parsed eagerly; lowering happens at
    /// run time against the then-current catalog snapshot).
    pub fn sql(&self, text: &str) -> Result<Statement> {
        self.engine.sql(text)
    }

    /// Execute a batch of statements through a transient admission
    /// queue. See [`Engine::run_batch`].
    pub fn run_batch(&self, specs: &[StatementSpec]) -> Vec<Result<StatementOutput>> {
        self.engine.run_batch(specs)
    }

    /// Static diagnostics for a statement spec. See
    /// [`Engine::verify_spec`]; [`Statement::verify`] is the same check
    /// on an already-built statement handle.
    pub fn verify(&self, spec: &StatementSpec) -> Vec<Diagnostic> {
        self.engine.verify_spec(spec)
    }

    /// Start an admission-controlled serving front door over this
    /// session's engine. See [`Engine::serve`] and [`crate::serve`].
    pub fn serve(&self, config: crate::ServeConfig) -> crate::ServerHandle {
        self.engine.serve(config)
    }

    /// Convenience: run a TPC-H query on the default backend.
    pub fn run_query(&self, query: Query) -> Result<QueryResult> {
        Ok(self.query(query).run()?.into_rows())
    }

    /// Convenience: run a SQL string on the default backend.
    pub fn run_sql(&self, text: &str) -> Result<Vec<Vec<i64>>> {
        Ok(self.sql(text)?.run()?.into_rows().rows)
    }

    /// Register a materialized view over a SQL statement and build it
    /// eagerly. See [`Engine::create_view`].
    pub fn create_view(&self, name: &str, stmt: &str) -> Result<()> {
        self.engine.create_view(name, stmt)
    }

    /// Register a materialized view from an explicit
    /// [`crate::views::ViewDef`] (the route to join views). See
    /// [`Engine::create_view_def`].
    pub fn create_view_def(&self, name: &str, def: crate::views::ViewDef) -> Result<()> {
        self.engine.create_view_def(name, def)
    }

    /// Read a materialized view (refreshed on read when dependencies
    /// changed). See [`Engine::read_view`].
    pub fn read_view(&self, name: &str) -> Result<Vec<Vec<i64>>> {
        Ok(self.engine.read_view(name)?.rows)
    }

    /// [`Session::read_view`] on a named backend.
    pub fn read_view_on(&self, name: &str, backend: &str) -> Result<Vec<Vec<i64>>> {
        Ok(self.engine.read_view_on(name, backend)?.rows)
    }

    /// Unregister a view; returns whether it existed.
    pub fn drop_view(&self, name: &str) -> bool {
        self.engine.drop_view(name)
    }

    /// Registered view names, sorted.
    pub fn view_names(&self) -> Vec<String> {
        self.engine.view_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::tpch(0.002)
    }

    #[test]
    fn one_statement_three_backends() {
        let s = session();
        let stmt = s.query(Query::Q6);
        let cpu = stmt.run().unwrap();
        let interp = stmt.run_on(backends::INTERP).unwrap();
        let gpu = stmt.run_on(backends::GPU).unwrap();
        assert_eq!(cpu.rows(), interp.rows());
        assert_eq!(cpu.rows(), gpu.rows());
        assert!(!cpu.rows().is_empty());
    }

    #[test]
    fn second_run_hits_the_plan_cache() {
        let s = session();
        let stmt = s.query(Query::Q1);
        stmt.run().unwrap();
        let before = s.cache_stats();
        stmt.run().unwrap();
        let after = s.cache_stats();
        assert_eq!(after.misses, before.misses, "no recompilation on re-run");
        assert!(after.hits > before.hits, "re-run served from cache");
    }

    #[test]
    fn raw_program_statements_work() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("input", &[1, 2, 3, 4]);
        let s = Session::new(cat);
        let mut p = Program::new();
        let t = p.load("input");
        let sum = p.fold_sum_global(t);
        p.ret(sum);
        for b in [backends::INTERP, backends::CPU, backends::GPU] {
            let out = s.program(p.clone()).run_on(b).unwrap();
            assert_eq!(
                out.raw().returns[0]
                    .value_at(0, &voodoo_core::KeyPath::val())
                    .map(|v| v.as_i64()),
                Some(10),
                "backend {b}"
            );
        }
    }

    #[test]
    fn sql_statements_run_and_cache() {
        let s = session();
        let sql = "SELECT SUM(l_quantity), COUNT(*) FROM lineitem WHERE l_discount >= 5";
        let first = s.run_sql(sql).unwrap();
        assert_eq!(first.len(), 1);
        let misses = s.cache_stats().misses;
        let second = s.run_sql(sql).unwrap();
        assert_eq!(first, second);
        assert_eq!(s.cache_stats().misses, misses, "SQL re-run reuses the plan");
    }

    #[test]
    fn explain_renders_kernels_on_compiling_backends() {
        let s = session();
        let plan = s.query(Query::Q6).explain().unwrap();
        assert!(plan.contains("fragment"), "{plan}");
        assert!(plan.contains("__kernel"), "{plan}");
        let interp = s.query(Query::Q6).explain_on(backends::INTERP).unwrap();
        assert!(interp.contains("interp"), "{interp}");
    }

    #[test]
    fn profile_prices_the_gpu_and_counts_cpu_events() {
        let s = session();
        let gpu = s.query(Query::Q6).profile_on(backends::GPU).unwrap();
        assert!(gpu.simulated_seconds.unwrap() > 0.0);
        assert_eq!(gpu.programs, 1);
        let cpu = s.query(Query::Q6).profile_on(backends::CPU).unwrap();
        assert!(cpu.events.seq_read_bytes > 0);
        assert!(cpu.simulated_seconds.is_none());
    }

    #[test]
    fn catalog_mutation_invalidates_only_touched_tables() {
        let s = session();
        s.query(Query::Q6).run().unwrap();
        let misses = s.cache_stats().misses;
        // Mutating an UNRELATED table must leave Q6's plans hot — the
        // whole point of per-table versioning (Q6 reads only lineitem).
        s.mutate_catalog(|c| c.put_i64_column("__scratch", &[1, 2, 3]));
        s.query(Query::Q6).run().unwrap();
        assert_eq!(
            s.cache_stats().misses,
            misses,
            "unrelated mutation must not invalidate lineitem plans"
        );
        // Touching lineitem itself invalidates: the statement re-prepares
        // rather than reusing a stale plan.
        s.mutate_catalog(|c| {
            c.table_mut("lineitem");
        });
        s.query(Query::Q6).run().unwrap();
        assert!(s.cache_stats().misses > misses);
    }

    #[test]
    fn run_batch_executes_against_one_pinned_snapshot() {
        // The batch pins its snapshot before admission; a statement-slot
        // execution must use that pin even if the live catalog moved on.
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[1, 2, 3, 4]);
        let s = Session::new(cat);
        let snapshot = s.catalog();
        // Drop the table from the LIVE catalog…
        s.mutate_catalog(|c| c.put_i64_column("t", &[100]));
        // …then run a spec carrying the OLD pin through the engine's
        // spec path: it must see the pinned 4-row table.
        let mut p = Program::new();
        let t = p.load("t");
        let sum = p.fold_sum_global(t);
        p.ret(sum);
        let spec = StatementSpec::program(p).pinned_to(snapshot);
        let out = s.engine().run_spec(&spec).into_result().unwrap();
        assert_eq!(
            out.raw().returns[0]
                .value_at(0, &voodoo_core::KeyPath::val())
                .map(|v| v.as_i64()),
            Some(10),
            "pinned snapshot, not the mutated live catalog"
        );
    }

    #[test]
    fn partition_metrics_track_morsel_fanout() {
        use voodoo_backend::{CpuBackend, Parallelism};
        use voodoo_compile::exec::ExecOptions;
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &(0..10_000).collect::<Vec<_>>());
        let s = Session::new(cat);
        // A deliberately partition-eager backend (tiny min domain).
        s.register(
            "cpu-p4",
            Arc::new(CpuBackend::new(ExecOptions {
                parallelism: Parallelism::Fixed(4),
                min_parallel_domain: 1,
                ..ExecOptions::default()
            })),
        );
        let mut p = Program::new();
        let t = p.load("t");
        let sum = p.fold_sum_global(t);
        p.ret(sum);
        let serial = s.program(p.clone()).run_on(backends::INTERP).unwrap();
        let parallel = s.program(p).run_on("cpu-p4").unwrap();
        assert_eq!(serial.raw().returns[0], parallel.raw().returns[0]);
        let m = s.metrics();
        assert!(
            m.parallel_statements >= 1,
            "the cpu-p4 run must count as parallel: {m:?}"
        );
        assert!(
            m.partitions_used >= m.queries_served + 3,
            "4-way fan-out recorded (partitions {} over {} statements)",
            m.partitions_used,
            m.queries_served
        );
        assert!(m.mean_partitions() > 1.0);
    }

    #[test]
    fn unknown_backend_is_a_clean_error() {
        let s = session();
        let err = s.query(Query::Q6).run_on("tpu").unwrap_err();
        assert!(format!("{err}").contains("unknown backend"), "{err}");
    }

    #[test]
    fn default_backend_is_switchable() {
        let s = session();
        assert_eq!(s.default_backend(), backends::CPU);
        s.set_default_backend(backends::INTERP).unwrap();
        assert!(!s.query(Query::Q6).run().unwrap().rows().is_empty());
        assert!(s.set_default_backend("nope").is_err());
    }

    #[test]
    fn same_type_backends_under_distinct_names_get_distinct_plans() {
        use voodoo_backend::CpuBackend;
        let s = session();
        // Both backends self-report name() == "cpu", but they are keyed by
        // their registry identity, so their plans must not be shared.
        s.register("cpu-st", Arc::new(CpuBackend::single_threaded()));
        s.query(Query::Q6).run_on(backends::CPU).unwrap();
        let misses = s.cache_stats().misses;
        s.query(Query::Q6).run_on("cpu-st").unwrap();
        assert!(
            s.cache_stats().misses > misses,
            "differently-registered backend must prepare its own plan"
        );
    }

    #[test]
    fn replacing_a_backend_starts_a_fresh_cache_epoch() {
        use voodoo_backend::CpuBackend;
        let s = session();
        let stmt = s.query(Query::Q6);
        let before = stmt.run().unwrap();
        // Replace "cpu": cached plans for the old registration must never
        // be served on behalf of the new backend.
        let history = s.cache_stats();
        s.register("cpu", Arc::new(CpuBackend::single_threaded()));
        let misses = s.cache_stats().misses;
        assert_eq!(
            misses, history.misses,
            "replacement must not zero counter history"
        );
        let after = stmt.run().unwrap();
        assert_eq!(before.rows(), after.rows());
        assert!(
            s.cache_stats().misses > misses,
            "replacement backend must re-prepare"
        );
    }

    #[test]
    fn cloned_sessions_share_engine_state() {
        let s = session();
        let clone = s.clone();
        s.query(Query::Q6).run().unwrap();
        let stats = clone.cache_stats();
        assert!(stats.misses > 0, "clone sees the shared cache");
        clone.query(Query::Q6).run().unwrap();
        assert!(clone.cache_stats().hits > 0, "clone hits the shared plans");
        assert_eq!(s.metrics().queries_served, 2);
    }

    #[test]
    fn statements_are_send_and_run_off_thread() {
        let s = session();
        let stmt = s.query(Query::Q6);
        let serial = stmt.run().unwrap();
        let handle = std::thread::spawn(move || stmt.run().unwrap());
        let threaded = handle.join().unwrap();
        assert_eq!(serial.rows(), threaded.rows());
    }

    #[test]
    fn metrics_track_latency_quantiles() {
        let s = session();
        for _ in 0..4 {
            s.query(Query::Q6).run().unwrap();
        }
        let m = s.metrics();
        assert_eq!(m.queries_served, 4);
        assert_eq!(m.failures, 0);
        assert_eq!(m.latency_samples, 4);
        let (p50, p99) = (m.p50_seconds.unwrap(), m.p99_seconds.unwrap());
        assert!(p50 > 0.0 && p99 >= p50, "p50={p50} p99={p99}");
    }

    #[test]
    fn run_batch_fans_out_and_preserves_order() {
        let s = session();
        let specs = [
            StatementSpec::tpch(Query::Q6),
            StatementSpec::tpch(Query::Q6).on(backends::GPU),
            StatementSpec::sql("SELECT COUNT(*) FROM lineitem"),
            StatementSpec::sql("SELECT nonsense FROM"),
        ];
        let results = s.run_batch(&specs);
        assert_eq!(results.len(), 4);
        let q6 = s.query(Query::Q6).run().unwrap();
        assert_eq!(results[0].as_ref().unwrap().rows(), q6.rows());
        assert_eq!(results[1].as_ref().unwrap().rows(), q6.rows());
        assert_eq!(results[2].as_ref().unwrap().rows().rows.len(), 1);
        assert!(results[3].is_err(), "parse error fails only its own slot");
        let m = s.metrics();
        assert_eq!(m.batches_served, 1);
        assert!(
            m.failures >= 1,
            "a parse-failed batch slot counts toward the failure rate"
        );
    }
}
