//! # voodoo-relational — the relational frontend
//!
//! The paper integrates Voodoo into MonetDB as "an alternative execution
//! engine", using MonetDB only for "data loading and query parsing" (§4).
//! This crate is that frontend: it turns the evaluation's TPC-H queries
//! into Voodoo programs, exploiting the same metadata the paper's planner
//! does — "identity hashing on open hashtables and derive their size from
//! the input domain (using only min and max)" — plus dictionary-level
//! predicate evaluation (`LIKE` is evaluated once per distinct string and
//! staged as an auxiliary flag column, the MonetDB way).
//!
//! Modules:
//! * [`builder`] — plan-construction helpers over [`voodoo_core::Program`]
//!   (masked predicates, dense-domain grouped aggregation, FK gathers),
//!   padded-result extraction, and [`builder::Lowered`] — one program plus
//!   its row extraction, what the SQL and TPC-H frontends both lower to,
//! * [`mod@prepare`] — auxiliary tables staged at load time (dictionary flag
//!   columns, the day→year lookup) and the planner's own dictionary
//!   resolution,
//! * [`queries`] — one Voodoo program per evaluated TPC-H query,
//! * [`engine`] — the shared, thread-safe [`Engine`]: catalog snapshots
//!   (copy-on-write), the backend registry, the sharded LRU plan cache,
//!   serving metrics, the single execution scope every statement runs
//!   in, and [`Engine::run_batch`]; plus [`engine::run_query_on`],
//! * [`statement`] — the statement pipeline: [`StatementSpec`] (the one
//!   statement description every front door accepts), the driver that
//!   lowers a spec and walks its programs, and the [`Statement`] handle
//!   whose run / explain / profile / verify are four closures over it,
//! * [`serve`] — the admission-controlled serving front door: a bounded
//!   queue over one engine, drained by a fixed worker pool in
//!   weighted-fair session order, shedding explicitly on overload
//!   ([`ServerHandle`], [`ServeSession`], [`Receipt`]),
//! * [`overload`] — adaptive overload control for that front door: the
//!   CoDel-style admission controller ([`OverloadConfig`]), per-tenant
//!   service-time quotas ([`Quota`]), and the seeded client backoff
//!   policy ([`Retry`]),
//! * [`session`] — the [`Session`] handle: a cheap clone onto a shared
//!   engine, one entry point over every frontend (raw programs, TPC-H
//!   queries, SQL, view reads) and every registered
//!   [`voodoo_backend::Backend`]; [`Statement`]s are `Send`, so many
//!   threads can prepare/run/profile concurrently against one engine,
//! * [`sql`] — a small SQL subset parser lowered through the same builder
//!   (single-table `SELECT ... FROM ... WHERE ... GROUP BY`),
//! * [`views`] — materialized views maintained incrementally by the
//!   `voodoo-ivm` delta subsystem: [`Engine::create_view`] caches a
//!   query's result; reads refresh it from captured row deltas in
//!   `O(changes)`, falling back to a counted full recompute when
//!   row-level capture is unavailable.
//!
//! # Parallel execution
//!
//! The engine is parallel on two axes. *Across* statements: any number
//! of sessions/serve workers execute concurrently against immutable
//! catalog snapshots. *Within* a statement: the compiled CPU backend
//! fans hot kernels across storage-layer morsels
//! (`voodoo_storage::Partitioning`), merged in morsel order so results
//! are bit-identical to the serial interpreter oracle. The knob is
//! [`Engine::set_cpu_parallelism`] /
//! [`session::Session::set_cpu_parallelism`]
//! (`Off` | `Fixed(n)` | `Auto`); plan caching keys on it, so switching
//! never serves a plan compiled under another setting.
//!
//! Morsels execute on a **persistent work-stealing pool**
//! ([`voodoo_compile::pool`], reached via [`Engine::morsel_pool`]):
//! long-lived workers with per-worker deques, LIFO-local pops and
//! FIFO steals, so a skewed morsel rebalances onto idle workers
//! instead of stalling the statement — and serving QPS no longer pays
//! a thread spawn per execution unit. Statements over-decompose their
//! domains (`voodoo_storage::DEFAULT_STEAL_GRAIN` morsels per worker)
//! to leave the scheduler units to move. Under [`serve`], each admission worker carries an
//! intra-statement parallelism budget of `cores / workers` — the
//! *lease* it takes on the shared pool — so statement fan-out and the
//! admission pool compose to the machine rather than oversubscribing
//! it (prefer fewer serve workers when statements are big and
//! scan-bound, more when they are small and latency-bound).
//! [`EngineMetrics`] reports `partitions_used` / `parallel_statements`
//! (and [`EngineMetrics::mean_partitions`]) for the offered fan-out,
//! plus `pool_tasks` / `steals` for what the scheduler actually did
//! with it. A panic inside a morsel task fails only its statement; the
//! pool keeps serving.
//!
//! # Batched ingest
//!
//! Writers publish through copy-on-write snapshots, and the cost of a
//! publication is the mutation itself: [`Session::append_rows`]
//! (`session::Session::append_rows` / [`Engine::append_rows`]) seals
//! the batch into an `Arc`-shared append segment, so appending is
//! O(batch + #tables) no matter how many rows are already resident,
//! and concurrent readers keep their snapshots untouched. Views over
//! the appended table refresh from the segment delta, not a rescan.
//!
//! ```
//! use voodoo_relational::Session;
//! use voodoo_storage::Catalog;
//!
//! let mut cat = Catalog::in_memory();
//! cat.put_i64_column("events", &[10, 20, 30]);
//! let session = Session::new(cat);
//!
//! // Ingest a batch; the snapshot published shares all prior storage.
//! assert!(session.append_rows("events", &[vec![40], vec![50]]));
//! assert_eq!(
//!     session.run_sql("SELECT COUNT(*), SUM(val) FROM events").unwrap(),
//!     vec![vec![5, 150]],
//! );
//! ```
//!
//! # Static verification
//!
//! Every statement is analyzed by `voodoo-verify` inside
//! `Backend::prepare` — structure, shape/sentinel domains, effects,
//! parallel safety — so nothing executes unverified, and a malformed
//! program fails with pointed [`voodoo_core::Diagnostic`]s rather than
//! a panic. The same pipeline is exposed as a pre-admission check that
//! takes no queue slot: [`Statement::verify`],
//! [`Session::verify`](session::Session::verify), and
//! [`ServerHandle::verify`] / [`serve::ServeSession::verify`] at the
//! serving front door.
//!
//! ```
//! use voodoo_core::{Pass, Program, VRef};
//! use voodoo_relational::Session;
//! use voodoo_storage::Catalog;
//!
//! let mut cat = Catalog::in_memory();
//! cat.put_i64_column("t", &[1, 2, 3]);
//! let session = Session::new(cat);
//!
//! let mut p = Program::new();
//! let t = p.load("t");
//! p.add(t, VRef(9)); // forward reference: %9 is never defined
//! p.ret(t);
//!
//! let diags = session.program(p).verify();
//! assert_eq!(diags[0].stmt, Some(1));
//! assert_eq!(diags[0].pass, Pass::Structure);
//! ```
//!
//! The repo-level `ARCHITECTURE.md` maps how these pieces — and the
//! other fourteen crates — fit together.

// The serving surface is the public face of the reproduction: every
// exported item carries documentation, enforced at build time.
#![warn(missing_docs)]

pub mod builder;
pub mod engine;
pub mod overload;
pub mod prepare;
pub mod queries;
pub mod serve;
pub mod session;
pub mod sql;
pub mod statement;
pub mod views;

pub use engine::{run_query_on, Engine, EngineMetrics};
pub use overload::{OverloadConfig, Quota, Retry};
pub use prepare::prepare;
pub use serve::{
    Completion, Receipt, ServeConfig, ServeError, ServeResult, ServeSession, ServeStats,
    ServerHandle, SessionServeStats, SubmitError, DEFAULT_QUEUE_CAPACITY,
};
pub use session::Session;
pub use statement::{RunProfile, Statement, StatementOutput, StatementSpec};
pub use views::{
    AggDef, AggFn, AggSpec, JoinDef, MaintainedView, Pred, RefreshKind, SExpr, Source, ViewDef,
};

#[cfg(test)]
mod tests;
