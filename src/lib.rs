//! # Voodoo — a vector algebra for portable database performance
//!
//! This crate is the umbrella for a full reproduction of
//! *Pirk, Moll, Zaharia, Madden: "Voodoo - A Vector Algebra for Portable
//! Database Performance on Modern Hardware", VLDB 2016*.
//!
//! It re-exports the individual subsystem crates:
//!
//! * [`core`] — the Voodoo algebra: structured vectors, operators, programs
//! * [`interp`] — the reference (bulk) interpreter backend
//! * [`compile`] — the fragment compiler and parallel CPU backend
//! * [`gpusim`] — the simulated GPU device (cost model)
//! * [`backend`] — the unified `Backend`/`PreparedPlan` API over all
//!   executors, plus the keyed prepared-plan cache
//! * [`storage`] — MonetDB-style columnar storage substrate
//! * [`tpch`] — TPC-H data generator and reference answers
//! * [`relational`] — relational frontend (logical plans, SQL subset,
//!   lowering), the shared [`relational::Engine`], the
//!   [`relational::Session`] handles onto it, the
//!   [`relational::serve`] admission-controlled serving front door, and
//!   [`relational::views`] — materialized views over the SQL subset
//! * [`ivm`] — DBSP-style incremental view maintenance: Z-set deltas,
//!   program differentiation, arranged join/aggregate state
//! * [`baselines`] — HyPeR-style and Ocelot-style comparison engines
//! * [`algos`] — cookbook of canonical Voodoo programs (paper listings +
//!   §6 related-work translations: hashing, bounded cuckoo, compaction)
//! * [`opt`] — cost-model-driven plan optimizer (the §7 "automatic
//!   exploration of the design space" future work)
//! * [`faults`] — deterministic fault injection: wrap any backend in a
//!   seeded [`faults::FaultPlan`] that injects scripted errors, panics,
//!   latency spikes, and pool poisonings — the harness behind the serve
//!   layer's robustness tests
//!
//! For the map of how these crates compose — the execution pipeline
//! from SQL/TPC-H text to morsel tasks, the bit-identity and versioning
//! invariants, and the serving/scheduler architecture — see
//! `ARCHITECTURE.md` at the repository root. All code blocks below
//! compile and run as doctests (`cargo test --doc`), so the quickstart
//! cannot rot.
//!
//! ## Quickstart
//!
//! One shared [`relational::Engine`] serves every frontend (raw Voodoo
//! programs, named TPC-H queries, SQL strings) and every backend (the
//! interpreter, the compiled CPU, the simulated GPU) — from as many
//! threads as you like. A [`relational::Session`] is a cheap clonable
//! handle onto an engine; statements are prepared once into a sharded,
//! LRU-bounded plan cache, execute against immutable catalog snapshots
//! (no lock held while running), and re-targeting one to different
//! hardware is a one-word diff — the paper's portability claim as API.
//!
//! ```
//! use voodoo::core::{KeyPath, Program, ScalarValue};
//! use voodoo::relational::Session;
//! use voodoo::storage::Catalog;
//!
//! // Hierarchical summation (paper Figure 3).
//! let mut p = Program::new();
//! let input = p.load("input");
//! let ids = p.range_like(0, input, 1);
//! let part = p.div_const(ids, 4);
//! let psum = p.fold_sum(part, input);
//! let total = p.fold_sum_global(psum);
//! p.ret(total);
//!
//! let mut cat = Catalog::in_memory();
//! cat.put_i64_column("input", &[1, 2, 3, 4, 5, 6, 7, 8]);
//! let session = Session::new(cat);
//!
//! // The same statement on three backends — bit-identical by construction.
//! let stmt = session.program(p);
//! for backend in ["interp", "cpu", "gpu"] {
//!     let out = stmt.run_on(backend).unwrap();
//!     assert_eq!(
//!         out.raw().returns[0].value_at(0, &KeyPath::val()),
//!         Some(ScalarValue::I64(36)),
//!     );
//! }
//! // Re-runs hit the prepared-plan cache instead of recompiling.
//! assert!(session.cache_stats().misses >= 3);
//! let _ = stmt.run().unwrap();
//! assert!(session.cache_stats().hits >= 1);
//! ```
//!
//! The relational frontends ride the same facade, and serving many
//! clients is a `.clone()` per thread — every handle shares the engine's
//! catalog, plan cache and metrics ([`relational::Statement`]s are `Send`
//! too, so they can cross threads themselves):
//!
//! ```
//! use voodoo::relational::{Session, StatementSpec};
//! use voodoo::tpch::queries::Query;
//!
//! let session = Session::tpch(0.002); // generate + prepare TPC-H
//! let q6 = session.run_query(Query::Q6).unwrap();
//! let gpu = session.query(Query::Q6).run_on("gpu").unwrap();
//! assert_eq!(&q6, gpu.rows());
//! let adhoc = session
//!     .run_sql("SELECT MIN(l_quantity), MAX(l_quantity) FROM lineitem")
//!     .unwrap();
//! assert_eq!(adhoc.len(), 1);
//!
//! // Concurrency: cloned handles, one engine, shared plan cache.
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let handle = session.clone();
//!         let q6 = &q6;
//!         scope.spawn(move || {
//!             assert_eq!(&handle.run_query(Query::Q6).unwrap(), q6);
//!         });
//!     }
//! });
//! // Or: fan a whole batch across a scoped thread pool.
//! let batch = session.run_batch(&[
//!     StatementSpec::tpch(Query::Q6),
//!     StatementSpec::tpch(Query::Q6).on("gpu"),
//!     StatementSpec::sql("SELECT COUNT(*) FROM lineitem"),
//! ]);
//! assert!(batch.iter().all(|r| r.is_ok()));
//! // The engine kept score.
//! let m = session.metrics();
//! assert!(m.queries_served >= 9 && m.p99_seconds.is_some());
//! ```
//!
//! ## Static verification
//!
//! No program executes unverified: every `Backend::prepare` runs the
//! [`verify`] analyzer (structure → shape → sentinel → parallel-safety)
//! and ill-formed programs come back as
//! `VoodooError::Rejected` with pointed [`core::Diagnostic`]s instead
//! of panics or wrong answers. [`relational::Session::verify`] (and
//! `Statement::verify` / `ServerHandle::verify`) expose the same
//! pipeline as a pre-admission check — lint a statement on the calling
//! thread before spending a queue slot on it:
//!
//! ```
//! use voodoo::core::{Pass, Program, VRef, VoodooError};
//! use voodoo::relational::{Session, StatementSpec};
//! use voodoo::storage::Catalog;
//!
//! let mut cat = Catalog::in_memory();
//! cat.put_i64_column("t", &[1, 2, 3]);
//! let session = Session::new(cat);
//!
//! // A well-formed program verifies clean.
//! let mut ok = Program::new();
//! let v = ok.load("t");
//! let total = ok.fold_sum_global(v);
//! ok.ret(total);
//! assert!(session.program(ok).verify().is_empty());
//!
//! // A forward reference is caught by the structure pass, with the
//! // diagnostic naming the offending statement.
//! let mut bad = Program::new();
//! let t = bad.load("t");
//! bad.add(t, VRef(9)); // %9 is never defined
//! bad.ret(t);
//! let diags = session.verify(&StatementSpec::program(bad.clone()));
//! assert_eq!(diags[0].stmt, Some(1));
//! assert_eq!(diags[0].pass, Pass::Structure);
//! // e.g. "[structure] %1 Add: operand %9 is not defined ..."
//! assert!(diags[0].to_string().starts_with("[structure] %1"));
//!
//! // Running it anyway surfaces the same diagnostics as an error —
//! // on every backend, before any planning happens.
//! match session.program(bad).run() {
//!     Err(VoodooError::Rejected(ds)) => assert_eq!(ds[0].stmt, Some(1)),
//!     other => panic!("expected rejection, got {other:?}"),
//! }
//! ```
//!
//! ## Parallel execution
//!
//! Statements don't just run concurrently — each statement can fan
//! **across** cores. The storage layer slices an execution domain into
//! aligned morsels ([`storage::Partitioning`]), and the compiled CPU
//! backend executes the hot kernels —
//! selection, folds, grouped aggregation (partial per-partition tables
//! merged in morsel order), the expression side of join builds —
//! partition-parallel, **bit-identical** to the serial interpreter
//! oracle (float sums stay serial: bit-identity beats reassociation).
//! One knob picks the layout: `Parallelism::Off` (serial),
//! `Fixed(n)`, or `Auto` (machine-sized, capped per serving thread).
//!
//! Morsels execute on a **persistent work-stealing pool**
//! ([`compile::pool`]) rather than per-statement thread spawns: a
//! statement's morsels are queued on one long-lived worker's deque
//! (LIFO for locality), and idle workers *steal* the oldest entries
//! (FIFO), so a skewed morsel rebalances across the machine instead of
//! stalling its statement. Domains are over-decomposed
//! ([`storage::DEFAULT_STEAL_GRAIN`], 4 morsels per worker) to leave the
//! scheduler units to move; results still merge in morsel order, so
//! scheduling never changes a bit of output. A panicking morsel task
//! fails only its own statement — the pool keeps serving.
//!
//! ```
//! use voodoo::backend::Parallelism;
//! use voodoo::relational::Session;
//! use voodoo::tpch::queries::Query;
//!
//! let session = Session::tpch(0.002);
//! let serial = session.query(Query::Q1).run_on("interp").unwrap();
//! session.set_cpu_parallelism(Parallelism::Fixed(4));
//! let partitioned = session.query(Query::Q1).run().unwrap();
//! assert_eq!(serial.rows(), partitioned.rows()); // bit-identical
//! // Morsel fan-out and pool scheduling are first-class accounting.
//! let m = session.metrics();
//! assert!(m.partitions_used >= m.queries_served);
//! assert!(m.steals <= m.pool_tasks);
//! ```
//!
//! *Choosing P*: `Auto` is right for dedicated statements (it resolves
//! to the core count, max 8); under the serving front door each worker
//! thread carries a budget of `cores / workers` — the lease it takes
//! on the shared pool — so intra-statement morsels and the admission
//! pool compose to the machine instead of oversubscribing it.
//! `Fixed(n)` pins the offered fan-out regardless (still budget-capped
//! when serving); small domains (< 4096 rows by default) stay serial
//! because even a pool handoff costs more than the scan. Watch
//! [`relational::EngineMetrics`]: `partitions_used` is the fan-out
//! statements *offered*, `pool_tasks`/`steals` are what the scheduler
//! did with it (steals > 0 means skew was absorbed, not suffered). See
//! `examples/scaling.rs` and `repro scaling` for the speedup sweep,
//! including pooled rows at 2 and 8 workers.
//!
//! ## Materialized views
//!
//! Repeated dashboard-style queries shouldn't rescan the data each time.
//! [`relational::Engine::create_view`] caches a SQL query's result;
//! reads serve the cache, and when base tables change the view refreshes
//! from **captured row deltas** in `O(changes)` — the DBSP recipe
//! ([`ivm`]): row-level mutations ([`storage::Catalog::append_rows`] /
//! `update_rows` / `delete_rows`) log signed row images, linear
//! operators apply themselves to the delta, and grouped `MIN`/`MAX`
//! stay exact under retraction via per-group value histograms. Whatever
//! can't be captured (a whole-table rewrite) falls back to a *counted*
//! full recompute — the view is always bit-identical to recomputing
//! from scratch, and the metrics say which path paid for it.
//!
//! ```
//! use voodoo::relational::{Session, StatementSpec};
//! use voodoo::storage::Catalog;
//!
//! let mut cat = Catalog::in_memory();
//! let mut t = voodoo::storage::Table::new("sales");
//! t.add_column(voodoo::storage::TableColumn::from_buffer(
//!     "region", voodoo::core::Buffer::I64(vec![0, 1, 0])));
//! t.add_column(voodoo::storage::TableColumn::from_buffer(
//!     "amount", voodoo::core::Buffer::I64(vec![10, 20, 30])));
//! cat.insert_table(t);
//! let session = Session::new(cat);
//!
//! session
//!     .create_view("by_region",
//!         "SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region")
//!     .unwrap();
//! assert_eq!(session.read_view("by_region").unwrap(),
//!            vec![vec![0, 40, 2], vec![1, 20, 1]]);
//!
//! // A batched append refreshes the view from the delta, not a rescan.
//! session.mutate_catalog(|c| c.append_rows("sales", &[vec![1, 5]]));
//! assert_eq!(session.read_view("by_region").unwrap(),
//!            vec![vec![0, 40, 2], vec![1, 25, 2]]);
//! let m = session.metrics();
//! assert_eq!(m.delta_refreshes, 1);
//! // Maintenance touched the 1-row delta (staged + streamed), not the table.
//! assert_eq!(m.rows_delta, 2);
//! assert_eq!(m.full_recomputes, 1, "only the initial materialization");
//!
//! // Views serve through the admission front door like any statement.
//! let out = session.run_batch(&[StatementSpec::view("by_region")]);
//! assert_eq!(out[0].as_ref().unwrap().rows().rows.len(), 2);
//! assert!(session.metrics().view_hits >= 1);
//! ```
//!
//! ## Batched ingest
//!
//! Sustained appends are the write-path hot loop, and they cost
//! O(batch), not O(table): [`relational::Session::append_rows`] seals
//! the batch into an `Arc`-shared append segment
//! ([`storage::Segment`]) and publishes a snapshot that shares the base
//! buffers and every earlier segment with all live readers — appending
//! one row to a 10M-row table copies one row, never 10M (invariant 8 in
//! `ARCHITECTURE.md`). Readers see the merged view immediately;
//! compaction folds segments back into the base in the background of
//! the write path, without ever changing the logical table.
//!
//! ```
//! use voodoo::relational::Session;
//! use voodoo::storage::Catalog;
//!
//! let mut cat = Catalog::in_memory();
//! cat.put_i64_column("events", &(0..10_000).collect::<Vec<_>>());
//! let session = Session::new(cat);
//!
//! let reader = session.catalog(); // a concurrent reader's snapshot
//! assert!(session.append_rows("events", &[vec![7], vec![8]]));
//! // The reader keeps its view; the new snapshot shares its storage.
//! let published = session.catalog();
//! let (before, after) = (reader.table("events").unwrap(),
//!                        published.table("events").unwrap());
//! assert_eq!((before.len, after.len), (10_000, 10_002));
//! assert!(after.columns[0].data.shares_storage_with(&before.columns[0].data));
//! // Queries observe the appended rows immediately (merged lazily).
//! assert_eq!(
//!     session.run_sql("SELECT COUNT(*), MAX(val) FROM events").unwrap(),
//!     vec![vec![10_002, 9_999]],
//! );
//! ```
//!
//! ## Serving
//!
//! Under real traffic you don't want a thread per statement — you want a
//! **front door**: [`relational::serve`] puts a bounded admission queue
//! and a fixed worker pool in front of the engine. Admission is
//! explicit: `submit` never blocks (a full queue *sheds* the request and
//! bumps the shed counters), `submit_wait` blocks for space with an
//! optional deadline (expiry returns `Timeout`, never a hang). Admitted
//! work comes back through a typed [`relational::Receipt`].
//!
//! *Queue sizing*: capacity bounds worst-case queueing latency —
//! roughly `capacity / workers × mean service time`; size it to the
//! latency budget, not the burst size, and let the shed path absorb
//! overload. *Fairness*: open one weighted
//! [`relational::ServeSession`] per tenant; under saturation each
//! session receives `weight / total_weight` of the pool (FIFO within a
//! session), so one chatty tenant cannot starve the rest. *Shed
//! semantics*: a shed is counted (per session, per server, and on
//! [`relational::EngineMetrics::sheds`]) and reported to the caller —
//! it is never silent, and queued work is never dropped.
//!
//! ```
//! use voodoo::relational::{ServeConfig, Session, StatementSpec};
//! use voodoo::tpch::queries::Query;
//!
//! let session = Session::tpch(0.002);
//! let server = session.serve(
//!     ServeConfig::default().with_queue_capacity(16).with_workers(2),
//! );
//! // Two tenants, 2:1 weighted under saturation.
//! let alice = server.session(2);
//! let bob = server.session(1);
//! let a = alice.submit(StatementSpec::tpch(Query::Q6)).unwrap();
//! let b = bob.submit(StatementSpec::sql("SELECT COUNT(*) FROM lineitem")).unwrap();
//! assert!(!a.wait().unwrap().rows().is_empty());
//! assert_eq!(b.wait().unwrap().rows().rows.len(), 1);
//! assert_eq!(alice.stats().served, 1);
//! // Queue depth and sheds are first-class engine metrics.
//! let m = session.metrics();
//! assert_eq!(m.queue_depth, 0);
//! assert_eq!(m.sheds, 0);
//! server.shutdown();
//! ```
//!
//! ## Overload control & faults
//!
//! The hard queue bound is the blunt defense; production overload wants
//! the adaptive one: [`relational::ServeConfig::with_overload`] runs a
//! CoDel-style controller that sheds *before* the queue fills whenever
//! even the minimum queue wait of an interval exceeds the sojourn
//! target. Shed clients converge with [`relational::Retry`] (seeded
//! decorrelated-jitter backoff) instead of thundering back; deadlines
//! given at submission propagate into execution, so a statement whose
//! caller stopped waiting is dropped at dequeue, not executed. Every
//! admitted statement terminates in exactly one stats bucket —
//! `submitted == served + shed + timed_out` (invariant 9 in
//! `ARCHITECTURE.md`): nothing is ever silently lost.
//!
//! ```
//! use std::time::Instant;
//! use voodoo::relational::{Retry, ServeConfig, ServeError, Session, StatementSpec};
//! use voodoo::tpch::queries::Query;
//!
//! let session = Session::tpch(0.002);
//! let server = session.serve(
//!     ServeConfig::default().with_queue_capacity(8).with_workers(1),
//! );
//! let tenant = server.session(1);
//! // Shed submissions retry on a seeded, decorrelated backoff schedule.
//! let retry = Retry::new().with_attempts(8).with_seed(42);
//! let receipt = retry
//!     .run(|| tenant.submit(StatementSpec::tpch(Query::Q6)))
//!     .unwrap();
//! assert!(!receipt.wait().unwrap().rows().is_empty());
//! // An already-expired propagated deadline is dropped at dequeue —
//! // the statement never executes, and the drop is accounted.
//! let dead = tenant
//!     .submit_deadline(StatementSpec::tpch(Query::Q6), Instant::now())
//!     .unwrap();
//! assert!(matches!(dead.wait(), Err(ServeError::Timeout)));
//! let stats = tenant.stats();
//! assert_eq!(stats.timed_out, 1);
//! assert_eq!(stats.submitted, stats.served + stats.shed + stats.timed_out);
//! server.shutdown();
//! ```
//!
//! And because an untested failure path is a broken one, [`faults`]
//! turns any registered backend into a deterministically faulty one: a
//! seeded [`faults::FaultPlan`] injects errors, panics, latency spikes
//! and morsel-pool poisonings at scripted call indices. Every injected
//! fault surfaces as exactly one failed receipt; the server, pool, and
//! cache keep serving, bit-identically, afterwards.
//!
//! ```
//! use std::sync::Arc;
//! use voodoo::faults::{Fault, FaultPlan};
//! use voodoo::relational::{Engine, ServeConfig, StatementSpec};
//! use voodoo::tpch::queries::Query;
//!
//! let engine = Arc::new(Engine::tpch(0.002));
//! // Wrap the interpreter: its 2nd execution (call index 1, 0-based)
//! // fails, everything else runs.
//! let plan = FaultPlan::fault_execute(1, Fault::Error);
//! let inner = engine.backend("interp").unwrap();
//! engine.register("interp", plan.wrap(inner));
//!
//! let server = engine.serve(ServeConfig::default().with_workers(1));
//! let spec = StatementSpec::tpch(Query::Q6).on("interp");
//! let outcomes: Vec<bool> = (0..3)
//!     .map(|_| server.submit(spec.clone()).unwrap().wait().is_ok())
//!     .collect();
//! assert_eq!(outcomes, [true, false, true], "exactly one failed receipt");
//! server.shutdown();
//! ```

pub use voodoo_algos as algos;
pub use voodoo_backend as backend;
pub use voodoo_baselines as baselines;
pub use voodoo_compile as compile;
pub use voodoo_core as core;
pub use voodoo_faults as faults;
pub use voodoo_gpusim as gpusim;
pub use voodoo_interp as interp;
pub use voodoo_ivm as ivm;
pub use voodoo_opt as opt;
pub use voodoo_relational as relational;
pub use voodoo_storage as storage;
pub use voodoo_tpch as tpch;
pub use voodoo_verify as verify;
