//! Sharded multi-engine serving: N [`Engine`]s behind one handle,
//! routed by table, bit-identical to a single engine.
//!
//! "One process, one engine" was the stack's last scaling wall. This
//! module generalizes the serving surface — statements, batches, views,
//! quotas, deadlines, fault injection — to an N-engine topology: a
//! [`ShardedEngine`] owns one [`Engine`] per shard (each behind its own
//! admission-controlled [`crate::ServerHandle`], labeled `shard-<i>`)
//! plus a [`Router`] assigning every table to exactly one shard (FNV-1a
//! hash over the table name by default; explicit range or manual
//! assignment supported).
//!
//! The paper's portability thesis — one algebra, many targets — extends
//! to many *engines*: a statement does not care whether its tables live
//! on one shard or five, just as it does not care which backend runs it.
//!
//! # Routing
//!
//! A statement's table footprint decides its route, computed statically
//! before any queue slot is spent by the statement pipeline's `footprint`
//! ([`crate::statement`]): raw programs through `voodoo_verify`'s effects
//! pass (the same exact read set plan-cache freshness keys on), TPC-H
//! through [`crate::queries::query_tables`] (host-read dictionaries and
//! auxiliary flag tables included), SQL from the parsed statement's
//! single table. View reads route through the registry built by
//! [`ShardedEngine::create_view`].
//!
//! A footprint owned by **one** shard routes the statement straight
//! through that shard's serve queue. A **cross-shard** footprint runs by
//! scatter-gather: one *probe* statement per owning shard — a program
//! that loads exactly the needed tables, pinned to that shard's
//! snapshot — fans through the shards' serve queues (admission, quota,
//! deadline, fault injection and metrics all apply per sub-request),
//! then the `Arc`-shared tables are gathered zero-copy from the pinned
//! snapshots into a combined catalog and the original statement executes
//! on the coordinator engine against that pin. Gathered tables keep
//! their per-shard versions ([`voodoo_storage::Catalog::
//! insert_table_pinned`]), so the coordinator's plan cache stays hot
//! across repeated cross-shard executions of the same statement.
//!
//! Because the gathered catalog holds exactly the same table contents a
//! single engine would read, sharded results are **bit-identical** to
//! the single-engine oracle — invariant 10, pinned by `tests/shard.rs`
//! across 1/2/4-shard topologies, all three backends, views, mid-run
//! appends and random table→shard assignments.
//!
//! # Partial failure
//!
//! Faults stay shard-local: a `voodoo-faults` `FaultPlan` wrapped around
//! one shard's backend (via [`ShardedEngine::shard_engine`] +
//! [`Engine::backend`] / [`Engine::register`]) fails only the statements
//! whose footprint touches that shard. Errors carry their origin — the
//! serve layer prefixes `[shard-<i>/session-<n>]`, and [`ShardError`]
//! names the failing shard — so a partial failure is debuggable from the
//! error alone.
//!
//! ```
//! use voodoo_relational::shard::ShardedEngine;
//! use voodoo_relational::{Session, StatementSpec};
//! use voodoo_tpch::queries::Query;
//!
//! // The same data behind four engines (tables hash-routed to shards)
//! // and behind one engine (the oracle).
//! let sharded = ShardedEngine::tpch(0.002, 4);
//! let oracle = Session::tpch(0.002);
//!
//! let session = sharded.session(1);
//! // Q6 reads one table: routed straight to its owner's queue.
//! // Q12 reads lineitem + orders: scatter-gather across their owners.
//! for q in [Query::Q6, Query::Q12] {
//!     let got = session.run(StatementSpec::tpch(q)).unwrap();
//!     let want = oracle.query(q).run().unwrap();
//!     assert_eq!(got.rows(), want.rows(), "sharded ≡ single-engine");
//! }
//! sharded.shutdown();
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use voodoo_core::{Diagnostic, Program, VoodooError};
use voodoo_storage::{Catalog, CatalogSnapshot};
use voodoo_tpch::queries::QueryResult;

use crate::engine::{Engine, EngineMetrics};
use crate::overload::Quota;
use crate::serve::{
    ServeConfig, ServeError, ServeSession, ServerHandle, SessionServeStats, SubmitError,
};
use crate::sql;
use crate::statement::{footprint, Footprint, StatementOutput, StatementSpec};
use crate::views::ViewDef;

// ---------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------

/// How tables map to shards. Every policy is **deterministic and pure**
/// in the table name: the same name always routes to the same shard, on
/// every process, so a statement's shard set can be planned statically.
#[derive(Debug, Clone, Default)]
pub enum Router {
    /// FNV-1a hash of the table name modulo the shard count (the
    /// default). Stable across processes — unlike `std`'s randomly
    /// seeded `DefaultHasher`.
    #[default]
    Hash,
    /// Lexicographic ranges: a table routes to the first shard `i` whose
    /// boundary exceeds its name (`name < boundary[i]`); names at or
    /// past the last boundary route to the last shard. `k` boundaries
    /// split a `k+1`-shard topology.
    Range(Vec<String>),
    /// Explicit table→shard assignment; unlisted tables fall back to
    /// [`Router::Hash`]. Out-of-range shard indices clamp to the last
    /// shard.
    Manual(HashMap<String, usize>),
}

/// FNV-1a over the table name: deterministic across processes and runs.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Router {
    /// The shard owning `table` in an `n`-shard topology.
    pub fn route(&self, table: &str, n: usize) -> usize {
        let n = n.max(1);
        match self {
            Router::Hash => (fnv1a(table) % n as u64) as usize,
            Router::Range(bounds) => bounds
                .iter()
                .position(|b| table < b.as_str())
                .unwrap_or(bounds.len())
                .min(n - 1),
            Router::Manual(map) => match map.get(table) {
                Some(&s) => s.min(n - 1),
                None => (fnv1a(table) % n as u64) as usize,
            },
        }
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a sharded statement failed — always naming the failing component
/// (`shard-<i>` or `coordinator`), so multi-shard failures are
/// debuggable from the error alone.
#[derive(Debug)]
pub enum ShardError {
    /// Admission was refused at one component's serve queue.
    Submit {
        /// Which component refused (`shard-<i>` / `coordinator`).
        origin: String,
        /// The shard index, when a shard refused (`None`: coordinator).
        shard: Option<usize>,
        /// The underlying admission refusal.
        err: SubmitError,
    },
    /// An admitted statement (or scatter probe) failed at one component.
    Serve {
        /// Which component failed (`shard-<i>` / `coordinator`).
        origin: String,
        /// The shard index, when a shard failed (`None`: coordinator).
        shard: Option<usize>,
        /// The underlying execution failure.
        err: ServeError,
    },
    /// The statement could not be routed at all (e.g. a view definition
    /// whose dependencies span shards).
    Routing(String),
}

impl ShardError {
    /// The shard the failure is attributed to, if any (`None` for
    /// coordinator failures and routing errors).
    pub fn shard(&self) -> Option<usize> {
        match self {
            ShardError::Submit { shard, .. } | ShardError::Serve { shard, .. } => *shard,
            ShardError::Routing(_) => None,
        }
    }

    /// Collapse into the engine-wide error type.
    pub fn into_engine_error(self) -> VoodooError {
        match self {
            ShardError::Submit { origin, err, .. } => {
                VoodooError::Backend(format!("admission refused at {origin}: {err}"))
            }
            ShardError::Serve { err, .. } => err.into_engine_error(),
            ShardError::Routing(msg) => VoodooError::Backend(msg),
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Submit { origin, err, .. } => {
                write!(f, "admission refused at {origin}: {err}")
            }
            ShardError::Serve { origin, err, .. } => write!(f, "{origin} failed: {err}"),
            ShardError::Routing(msg) => write!(f, "routing: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Serve { err, .. } => Some(err),
            ShardError::Submit { err, .. } => Some(err),
            ShardError::Routing(_) => None,
        }
    }
}

// ---------------------------------------------------------------------
// Core state
// ---------------------------------------------------------------------

/// Where a statement executes.
enum Route {
    /// Its whole footprint lives on one shard: straight through that
    /// shard's queue.
    Shard(usize),
    /// No catalog footprint (pure programs, statements whose frontend
    /// error reproduces anywhere): the coordinator serves it.
    Coordinator,
    /// The footprint spans shards: scatter probes, gather, execute on
    /// the coordinator against the gathered pin.
    Scatter(Vec<String>),
}

struct ShardCore {
    engines: Vec<Arc<Engine>>,
    servers: Vec<ServerHandle>,
    coordinator: Arc<Engine>,
    coord_server: ServerHandle,
    router: Router,
    /// Table → owning shard for every table present at construction;
    /// later names fall back to the router (pure in the name, so the
    /// fallback is just as deterministic).
    assignment: HashMap<String, usize>,
    /// View name → the shard that maintains it.
    views: Mutex<HashMap<String, usize>>,
}

impl ShardCore {
    fn shard_count(&self) -> usize {
        self.engines.len()
    }

    fn owner(&self, table: &str) -> usize {
        match self.assignment.get(table) {
            Some(&s) => s,
            None => self.router.route(table, self.shard_count()),
        }
    }

    /// Group a footprint by owning shard, preserving sorted table order.
    fn by_shard(&self, tables: &[String]) -> BTreeMap<usize, Vec<String>> {
        let mut grouped: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for t in tables {
            grouped.entry(self.owner(t)).or_default().push(t.clone());
        }
        grouped
    }

    fn route_spec(&self, spec: &StatementSpec) -> Route {
        let tables = match footprint(spec) {
            Footprint::Tables(tables) => tables,
            // Views are maintained whole on their owning shard; an
            // unknown view fails on the coordinator with the same
            // "unknown view" error a single engine reports.
            Footprint::View(name) => {
                return match self.view_shard(name) {
                    Some(s) => Route::Shard(s),
                    None => Route::Coordinator,
                }
            }
        };
        // No footprint: a pure program, or a frontend error (a SQL parse
        // error) that reproduces identically on the empty coordinator.
        if tables.is_empty() {
            return Route::Coordinator;
        }
        let grouped = self.by_shard(&tables);
        if grouped.len() == 1 {
            Route::Shard(*grouped.keys().next().expect("non-empty"))
        } else {
            Route::Scatter(tables)
        }
    }

    fn view_shard(&self, name: &str) -> Option<usize> {
        self.views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
    }
}

// ---------------------------------------------------------------------
// ShardedEngine
// ---------------------------------------------------------------------

/// Per-shard and aggregate serving counters for a [`ShardedEngine`].
///
/// The aggregate is the **exact sum** of every per-shard counter plus
/// the coordinator's — each sub-request lands in exactly one component's
/// metrics, so nothing double-counts and nothing is lost (pinned by the
/// `tests/shard.rs` proptest). Latency quantiles combine as the max over
/// components (see [`EngineMetrics::accumulate`]).
#[derive(Debug, Clone)]
pub struct ShardedMetrics {
    /// One snapshot per shard, in shard order.
    pub per_shard: Vec<EngineMetrics>,
    /// The coordinator engine (cross-shard merge executions and pure
    /// statements land here).
    pub coordinator: EngineMetrics,
    /// Exact sum of `per_shard` and `coordinator`.
    pub aggregate: EngineMetrics,
}

/// N engines behind one handle: tables are routed to shards, statements
/// to the shard(s) owning their footprint, and results stay bit-identical
/// to a single engine over the same data. See the [module docs](self)
/// for the routing and scatter-gather contract.
///
/// Cheap to clone (`Arc` inside). [`ShardedEngine::shutdown`] (or drop)
/// drains every shard's serve queue.
#[derive(Clone)]
pub struct ShardedEngine {
    core: Arc<ShardCore>,
    /// Backs the engine-level [`ShardedEngine::run`] helpers, like a
    /// `ServerHandle`'s built-in session 0.
    default_session: ShardedSession,
}

impl ShardedEngine {
    /// Split `catalog` across `shards` engines by `router` and put a
    /// serving front door (default [`ServeConfig`], labeled `shard-<i>`)
    /// over each, plus a coordinator engine for cross-shard merges.
    ///
    /// If the catalog holds TPC-H tables, the auxiliary dictionary-flag
    /// tables ([`crate::prepare()`]) are staged *before* splitting, so
    /// they are routed (and owned) like any other table.
    pub fn new(catalog: Catalog, shards: usize, router: Router) -> ShardedEngine {
        ShardedEngine::with_config(catalog, shards, router, ServeConfig::default())
    }

    /// [`ShardedEngine::new`] with an explicit per-shard serving
    /// configuration (the label is overridden per shard).
    pub fn with_config(
        mut catalog: Catalog,
        shards: usize,
        router: Router,
        config: ServeConfig,
    ) -> ShardedEngine {
        let n = shards.max(1);
        if catalog.table("part").is_some() && catalog.table("lineitem").is_some() {
            crate::prepare(&mut catalog);
        }
        let mut names: Vec<String> = catalog
            .table_names()
            .into_iter()
            .map(|s| s.to_string())
            .collect();
        names.sort_unstable();
        let mut assignment = HashMap::new();
        let mut split: Vec<Catalog> = (0..n).map(|_| Catalog::in_memory()).collect();
        for name in names {
            let s = router.route(&name, n);
            let table = catalog.table(&name).expect("listed table").clone();
            // A fresh per-shard version history: tables sit behind Arcs,
            // so the split shares every buffer with the source catalog.
            split[s].insert_table(table);
            assignment.insert(name, s);
        }
        // Engine::new re-stages the aux tables on any shard that happens
        // to own both `part` and `lineitem`; those copies are built from
        // the same inputs (idempotent), and reads still route to the
        // assigned owner, so they are at worst dead weight.
        let engines: Vec<Arc<Engine>> = split
            .into_iter()
            .map(|cat| Arc::new(Engine::new(cat)))
            .collect();
        let servers: Vec<ServerHandle> = engines
            .iter()
            .enumerate()
            .map(|(i, e)| e.serve(config.clone().with_label(format!("shard-{i}"))))
            .collect();
        let coordinator = Arc::new(Engine::new(Catalog::in_memory()));
        let coord_server = coordinator.serve(config.clone().with_label("coordinator"));
        let core = Arc::new(ShardCore {
            engines,
            servers,
            coordinator,
            coord_server,
            router,
            assignment,
            views: Mutex::new(HashMap::new()),
        });
        let default_session = ShardedSession::open(&core, 1, None);
        ShardedEngine {
            core,
            default_session,
        }
    }

    /// Generate TPC-H at the given scale factor and shard it with the
    /// default hash router.
    pub fn tpch(sf: f64, shards: usize) -> ShardedEngine {
        ShardedEngine::new(voodoo_tpch::generate(sf), shards, Router::Hash)
    }

    /// Number of shards in this topology (the coordinator not included).
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }

    /// The engine behind shard `i` — the seam fault-injection harnesses
    /// use: fetch a backend ([`Engine::backend`]), wrap it in a
    /// `voodoo-faults` plan, [`Engine::register`] it back, and only the
    /// statements touching this shard see the faults.
    pub fn shard_engine(&self, i: usize) -> &Arc<Engine> {
        &self.core.engines[i]
    }

    /// The coordinator engine (cross-shard merges execute here).
    pub fn coordinator_engine(&self) -> &Arc<Engine> {
        &self.core.coordinator
    }

    /// The shard owning `table` under this topology's router.
    pub fn table_shard(&self, table: &str) -> usize {
        self.core.owner(table)
    }

    /// Open a weighted session spanning every shard: one serve session
    /// per shard plus one on the coordinator, all at `weight`.
    pub fn session(&self, weight: u32) -> ShardedSession {
        ShardedSession::open(&self.core, weight, None)
    }

    /// [`ShardedEngine::session`] with a service-time quota. The quota
    /// is **per component** (each shard's session gets its own bucket of
    /// `quota.burst` seconds refilled at `quota.rate`): service time is
    /// observed where it is spent, so a tenant hammering one shard runs
    /// that bucket dry without throttling its traffic elsewhere.
    pub fn session_with_quota(&self, weight: u32, quota: Quota) -> ShardedSession {
        ShardedSession::open(&self.core, weight, Some(quota))
    }

    /// Run one statement through the default session (blocking
    /// admission). See [`ShardedSession::run`].
    pub fn run(&self, spec: StatementSpec) -> Result<StatementOutput, ShardError> {
        self.default_session.run(spec)
    }

    /// [`ShardedEngine::run`] with a propagated deadline. See
    /// [`ShardedSession::run_deadline`].
    pub fn run_deadline(
        &self,
        spec: StatementSpec,
        deadline: Instant,
    ) -> Result<StatementOutput, ShardError> {
        self.default_session.run_deadline(spec, deadline)
    }

    /// Append rows to a table on its owning shard (the same
    /// `O(batch + #tables)` publication as [`Engine::append_rows`]; no
    /// other shard is touched). Returns `false` for an unknown table.
    pub fn append_rows(&self, table: &str, rows: &[Vec<i64>]) -> bool {
        self.core.engines[self.core.owner(table)].append_rows(table, rows)
    }

    /// Apply a catalog mutation on `table`'s owning shard (in-place
    /// updates, deletes — anything [`Engine::mutate_catalog`] can do).
    /// The closure sees the owning shard's whole catalog; mutations to
    /// tables owned elsewhere would diverge from the topology's routing,
    /// so keep it to `table`.
    pub fn mutate_table<T>(&self, table: &str, f: impl FnOnce(&mut Catalog) -> T) -> T {
        self.core.engines[self.core.owner(table)].mutate_catalog(f)
    }

    /// Register a materialized view over a SQL statement on the shard
    /// owning its table, and record the name in the routing registry so
    /// [`StatementSpec::view`] reads reach it. See [`Engine::create_view`].
    pub fn create_view(&self, name: &str, stmt: &str) -> Result<(), ShardError> {
        let parsed = sql::parse(stmt).map_err(coord_engine_err)?;
        let shard = self.core.owner(&parsed.table);
        self.core.engines[shard]
            .create_view(name, stmt)
            .map_err(|e| shard_engine_err(shard, e))?;
        self.core
            .views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), shard);
        Ok(())
    }

    /// Register a view from an explicit [`ViewDef`]. Every dependency
    /// (source table, join right side) must be co-located on one shard;
    /// a definition spanning shards is refused with
    /// [`ShardError::Routing`].
    pub fn create_view_def(&self, name: &str, def: ViewDef) -> Result<(), ShardError> {
        let mut deps = vec![def.source.table.clone()];
        if let Some(j) = &def.join {
            deps.push(j.right.table.clone());
        }
        let grouped = self.core.by_shard(&deps);
        if grouped.len() != 1 {
            return Err(ShardError::Routing(format!(
                "view {name:?} depends on tables spanning shards {:?}; \
                 co-locate them (e.g. Router::Manual) first",
                grouped.keys().collect::<Vec<_>>()
            )));
        }
        let shard = *grouped.keys().next().expect("non-empty");
        self.core.engines[shard]
            .create_view_def(name, def)
            .map_err(|e| shard_engine_err(shard, e))?;
        self.core
            .views
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), shard);
        Ok(())
    }

    /// Read a materialized view through its owning shard's serve queue.
    pub fn read_view(&self, name: &str) -> Result<QueryResult, ShardError> {
        Ok(self.run(StatementSpec::view(name))?.into_rows())
    }

    /// [`ShardedEngine::read_view`] with the refresh executed on a named
    /// backend.
    pub fn read_view_on(&self, name: &str, backend: &str) -> Result<QueryResult, ShardError> {
        Ok(self.run(StatementSpec::view(name).on(backend))?.into_rows())
    }

    /// Unregister a view from its owning shard; returns whether it
    /// existed.
    pub fn drop_view(&self, name: &str) -> bool {
        let shard = {
            let mut views = self.core.views.lock().unwrap_or_else(|e| e.into_inner());
            views.remove(name)
        };
        match shard {
            Some(s) => self.core.engines[s].drop_view(name),
            None => false,
        }
    }

    /// Registered view names across every shard, sorted.
    pub fn view_names(&self) -> Vec<String> {
        let views = self.core.views.lock().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<String> = views.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// The shard maintaining a registered view, if any.
    pub fn view_shard(&self, name: &str) -> Option<usize> {
        self.core.view_shard(name)
    }

    /// Static diagnostics for a spec against the shard(s) that would
    /// serve it — single-shard specs verify on their owner, cross-shard
    /// specs on every owning shard (each sees its own tables).
    pub fn verify(&self, spec: &StatementSpec) -> Vec<Diagnostic> {
        match self.core.route_spec(spec) {
            Route::Shard(s) => self.core.engines[s].verify_spec(spec),
            Route::Coordinator => self.core.coordinator.verify_spec(spec),
            Route::Scatter(tables) => {
                // Verify each shard's probe footprint where the tables
                // actually live; the merged statement itself is verified
                // by the coordinator's prepare at execution time.
                let mut diags = Vec::new();
                for (shard, ts) in self.core.by_shard(&tables) {
                    let mut p = Program::new();
                    for t in &ts {
                        let v = p.load(t);
                        p.ret(v);
                    }
                    diags.extend(self.core.engines[shard].verify_spec(&StatementSpec::program(p)));
                }
                diags
            }
        }
    }

    /// Per-shard, coordinator and exact-sum aggregate serving counters.
    pub fn metrics(&self) -> ShardedMetrics {
        let per_shard: Vec<EngineMetrics> = self.core.engines.iter().map(|e| e.metrics()).collect();
        let coordinator = self.core.coordinator.metrics();
        let mut aggregate = EngineMetrics::default();
        for m in &per_shard {
            aggregate.accumulate(m);
        }
        aggregate.accumulate(&coordinator);
        ShardedMetrics {
            per_shard,
            coordinator,
            aggregate,
        }
    }

    /// Stop accepting work on every shard and the coordinator, drain
    /// their queues, and join the workers. Idempotent (dropping the last
    /// handle does the same).
    pub fn shutdown(&self) {
        for s in &self.core.servers {
            s.shutdown();
        }
        self.core.coord_server.shutdown();
    }
}

fn shard_engine_err(shard: usize, e: VoodooError) -> ShardError {
    ShardError::Serve {
        origin: format!("shard-{shard}"),
        shard: Some(shard),
        err: ServeError::Engine(e),
    }
}

fn coord_engine_err(e: VoodooError) -> ShardError {
    ShardError::Serve {
        origin: "coordinator".to_string(),
        shard: None,
        err: ServeError::Engine(e),
    }
}

// ---------------------------------------------------------------------
// ShardedSession
// ---------------------------------------------------------------------

/// A weighted serving session spanning a [`ShardedEngine`]'s topology:
/// one [`ServeSession`] per shard plus one on the coordinator, behind
/// the same synchronous `run` surface a single-engine
/// [`crate::Session`] offers. Cheap to clone; safe to share across
/// threads.
///
/// Deadlines propagate into every sub-request ([`ShardedSession::
/// run_deadline`]): a scatter probe still queued when the deadline
/// expires is dropped at dequeue on its shard, exactly like a
/// single-engine statement. Quotas (from [`ShardedEngine::
/// session_with_quota`]) are per component — see there.
#[derive(Clone)]
pub struct ShardedSession {
    core: Arc<ShardCore>,
    shards: Vec<ServeSession>,
    coord: ServeSession,
}

/// Where a routed statement is submitted.
enum Target {
    Shard(usize),
    Coordinator,
}

impl ShardedSession {
    fn open(core: &Arc<ShardCore>, weight: u32, quota: Option<Quota>) -> ShardedSession {
        let open = |server: &ServerHandle| match quota {
            Some(q) => server.session_with_quota(weight, q),
            None => server.session(weight),
        };
        ShardedSession {
            shards: core.servers.iter().map(open).collect(),
            coord: open(&core.coord_server),
            core: Arc::clone(core),
        }
    }

    /// Execute one statement: route by footprint, scatter-gather when it
    /// spans shards, block for admission and completion. Bit-identical
    /// to running the same spec on a single engine over the same data.
    pub fn run(&self, spec: StatementSpec) -> Result<StatementOutput, ShardError> {
        self.run_opt(spec, None)
    }

    /// [`ShardedSession::run`] with a completion deadline propagated
    /// into every sub-request: admission waits give up at the deadline
    /// ([`SubmitError::Timeout`]), and admitted sub-requests whose
    /// deadline expires while queued are dropped at dequeue on their
    /// shard ([`ServeError::Timeout`]) instead of executing late.
    pub fn run_deadline(
        &self,
        spec: StatementSpec,
        deadline: Instant,
    ) -> Result<StatementOutput, ShardError> {
        self.run_opt(spec, Some(deadline))
    }

    fn run_opt(
        &self,
        spec: StatementSpec,
        deadline: Option<Instant>,
    ) -> Result<StatementOutput, ShardError> {
        match self.core.route_spec(&spec) {
            Route::Shard(s) => self.submit_and_wait(Target::Shard(s), spec, deadline),
            Route::Coordinator => self.submit_and_wait(Target::Coordinator, spec, deadline),
            Route::Scatter(tables) => self.scatter_gather(spec, &tables, deadline),
        }
    }

    fn submit_and_wait(
        &self,
        target: Target,
        spec: StatementSpec,
        deadline: Option<Instant>,
    ) -> Result<StatementOutput, ShardError> {
        let (session, origin, shard) = match target {
            Target::Shard(s) => (&self.shards[s], format!("shard-{s}"), Some(s)),
            Target::Coordinator => (&self.coord, "coordinator".to_string(), None),
        };
        let receipt = session
            .submit_wait(spec, deadline)
            .map_err(|err| ShardError::Submit {
                origin: origin.clone(),
                shard,
                err,
            })?;
        let result = match deadline {
            Some(d) => receipt.wait_deadline(d),
            None => receipt.wait(),
        };
        result.map_err(|err| ShardError::Serve { origin, shard, err })
    }

    /// The cross-shard path. One probe statement per owning shard — a
    /// program loading exactly that shard's share of the footprint,
    /// pinned to the shard's current snapshot — goes through the shard's
    /// serve queue (admission, quota, deadline, faults and metrics all
    /// apply), then the probe-pinned tables are gathered zero-copy into
    /// a combined catalog and the original statement executes on the
    /// coordinator against that pin. Table versions survive the gather
    /// ([`Catalog::insert_table_pinned`]), so the coordinator's plan
    /// cache stays hot while no involved shard has mutated.
    fn scatter_gather(
        &self,
        spec: StatementSpec,
        tables: &[String],
        deadline: Option<Instant>,
    ) -> Result<StatementOutput, ShardError> {
        let grouped = self.core.by_shard(tables);
        // Scatter: submit every probe before waiting on any, so shards
        // execute their share concurrently.
        let mut probes = Vec::with_capacity(grouped.len());
        for (shard, ts) in &grouped {
            let snapshot = self.core.engines[*shard].snapshot();
            let mut p = Program::new();
            for t in ts {
                let v = p.load(t);
                p.ret(v);
            }
            let mut probe = StatementSpec::program(p).pinned_to(snapshot.clone());
            if let Some(b) = spec.backend() {
                probe = probe.on(b);
            }
            let receipt = self.shards[*shard]
                .submit_wait(probe, deadline)
                .map_err(|err| ShardError::Submit {
                    origin: format!("shard-{shard}"),
                    shard: Some(*shard),
                    err,
                })?;
            probes.push((*shard, snapshot, receipt));
        }
        // Gather: a failed probe attributes the whole statement to its
        // shard (partial-failure semantics: only statements touching a
        // faulted shard fail).
        let mut gathered = Catalog::in_memory();
        for (shard, snapshot, receipt) in probes {
            let result = match deadline {
                Some(d) => receipt.wait_deadline(d),
                None => receipt.wait(),
            };
            result.map_err(|err| ShardError::Serve {
                origin: format!("shard-{shard}"),
                shard: Some(shard),
                err,
            })?;
            for t in &grouped[&shard] {
                if let Some(table) = snapshot.table(t) {
                    let version = snapshot.table_version(t).unwrap_or(0);
                    gathered.insert_table_pinned(table.clone(), version);
                }
            }
        }
        // Merge: the original statement, against exactly the bytes a
        // single engine would have read.
        self.submit_and_wait(
            Target::Coordinator,
            spec.pinned_to(CatalogSnapshot::new(gathered)),
            deadline,
        )
    }

    /// Cumulative serving counters summed over every component session
    /// (each sub-request is counted by exactly one component).
    pub fn stats(&self) -> SessionServeStats {
        let mut total = SessionServeStats::default();
        for s in self.shards.iter().chain(std::iter::once(&self.coord)) {
            let st = s.stats();
            total.submitted += st.submitted;
            total.served += st.served;
            total.shed += st.shed;
            total.timed_out += st.timed_out;
            total.cache_hits += st.cache_hits;
            total.cache_misses += st.cache_misses;
        }
        total
    }

    /// Per-component serving counters, in shard order with the
    /// coordinator last.
    pub fn component_stats(&self) -> Vec<SessionServeStats> {
        self.shards
            .iter()
            .chain(std::iter::once(&self.coord))
            .map(|s| s.stats())
            .collect()
    }
}
