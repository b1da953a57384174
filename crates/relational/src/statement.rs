//! The statement pipeline: one description, one driver, four closures.
//!
//! The paper's portability claim is that every frontend lowers to Voodoo
//! [`Program`]s and everything after that point works on programs alone
//! (Figure 4's one-word re-target). This module is that seam for the
//! relational layer:
//!
//! * [`StatementSpec`] is the **only** description of a statement — a raw
//!   program, a TPC-H query, a SQL string (parsed once, at construction)
//!   or a read of a maintained view. A [`Statement`] is a spec bound to
//!   an engine; batches and serve queues carry bare specs.
//! * `drive` is the **only** code that walks a statement's programs:
//!   it lowers the spec and hands each program, with the catalog it runs
//!   against and its (lazily) prepared plan, to a `Visit` callback. SQL
//!   and TPC-H lower alike, to one [`Lowered`](crate::builder::Lowered)
//!   program and its row extraction. Running and profiling are executing visitors; explaining
//!   and verifying are inspecting ones — dry walks that run nothing.
//!   Four short closures over one walk. Apart from the constructors,
//!   `drive` is the only code that names a statement kind.
//!
//! Every drive happens inside the engine's single execution scope
//! (`Engine::scoped`), which resolves backend, snapshot and morsel pool
//! under one lock acquisition, installs the pool and the scheduling trace,
//! records the metrics once (an executing walk is a served statement, a
//! dry one is not), and hands the statement's plan-cache hits and misses
//! back with its outcome. A new statement kind, a new
//! backend-routing policy or a new way of feeding morsels therefore hooks
//! in here, once — not per front door.

use std::sync::Arc;

use voodoo_backend::{PlanProfile, PreparedPlan};
use voodoo_compile::EventProfile;
use voodoo_core::{Diagnostic, Pass, Program, Result, VoodooError};
use voodoo_interp::ExecOutput;
use voodoo_storage::{Catalog, CatalogSnapshot};
use voodoo_tpch::queries::{Query, QueryResult};

use crate::engine::{unknown_view, Engine, ExecCtx, Executed};
use crate::queries;
use crate::sql::{self, SqlQuery};

// ---------------------------------------------------------------------
// The description
// ---------------------------------------------------------------------

#[derive(Clone)]
enum SpecKind {
    Program(Program),
    Tpch(Query),
    /// Parsed at construction. A parse error rides along and fails only
    /// this statement when it is driven, so it still counts toward the
    /// serving failure rate like any other failed request.
    Sql(Result<SqlQuery>),
    View(String),
}

/// One statement: what to run and (optionally) which backend to run it
/// on. The unit every front door accepts — [`Engine::statement`],
/// [`Engine::run_batch`], [`crate::ServeSession::submit`].
#[derive(Clone)]
pub struct StatementSpec {
    kind: SpecKind,
    backend: Option<String>,
    /// A catalog snapshot this statement must execute against instead of
    /// pinning the engine's current one ([`Engine::run_batch`] pins once
    /// per batch and shares the pin across every slot).
    pinned: Option<CatalogSnapshot>,
}

impl StatementSpec {
    fn of(kind: SpecKind) -> StatementSpec {
        StatementSpec {
            kind,
            backend: None,
            pinned: None,
        }
    }

    /// A raw Voodoo program.
    pub fn program(p: Program) -> StatementSpec {
        StatementSpec::of(SpecKind::Program(p))
    }

    /// A named TPC-H query.
    pub fn tpch(q: Query) -> StatementSpec {
        StatementSpec::of(SpecKind::Tpch(q))
    }

    /// A SQL string, parsed here, once. A parse error does not fail the
    /// constructor: it fails the statement when it runs (in a batch, only
    /// its own slot) and counts as a served failure.
    pub fn sql(text: impl AsRef<str>) -> StatementSpec {
        StatementSpec::of(SpecKind::Sql(sql::parse(text.as_ref())))
    }

    /// A read of a registered materialized view ([`Engine::create_view`]),
    /// refreshed on read. Unlike the other kinds a view read ignores any
    /// batch-pinned snapshot: a maintained view's whole contract is
    /// convergence with the live catalog, and its refresh pins its own
    /// snapshot under the view's lock.
    pub fn view(name: impl Into<String>) -> StatementSpec {
        StatementSpec::of(SpecKind::View(name.into()))
    }

    /// Pin this statement to a named backend instead of the default.
    pub fn on(mut self, backend: &str) -> StatementSpec {
        self.backend = Some(backend.to_string());
        self
    }

    /// Pin this statement to a specific catalog snapshot.
    pub(crate) fn pinned_to(mut self, snapshot: CatalogSnapshot) -> StatementSpec {
        self.pinned = Some(snapshot);
        self
    }

    /// The backend this statement was pinned to with [`Self::on`], if any.
    pub(crate) fn backend(&self) -> Option<&str> {
        self.backend.as_deref()
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// One program of a statement's walk: the program, the catalog it runs
/// against (the statement's snapshot, or the snapshot a view refresh
/// pinned for its own stage programs) and — on demand — its prepared
/// plan.
pub(crate) struct Stage<'a> {
    ctx: &'a ExecCtx<'a>,
    pub(crate) program: &'a Program,
    pub(crate) catalog: &'a Catalog,
}

impl<'a> Stage<'a> {
    fn new(ctx: &'a ExecCtx<'a>, program: &'a Program, catalog: &'a Catalog) -> Stage<'a> {
        Stage {
            ctx,
            program,
            catalog,
        }
    }

    /// The program's prepared plan, through the engine's plan cache. Lazy:
    /// a visitor that never asks (verify) spends no backend work and
    /// leaves no cache entry.
    pub(crate) fn plan(&self) -> Result<Arc<dyn PreparedPlan>> {
        self.ctx.plan(self.program, self.catalog)
    }
}

/// What a [`drive`] caller does with each program of a statement.
pub(crate) enum Visit<'v> {
    /// Execute it (run, profile). The output feeds the statement's result
    /// extraction.
    Execute(&'v mut dyn FnMut(&Stage<'_>) -> Result<ExecOutput>),
    /// Look at it without executing (explain, verify): a dry walk.
    Inspect(&'v mut dyn FnMut(&Stage<'_>) -> Result<()>),
}

impl Visit<'_> {
    /// Visit the only program of a statement: an inspection ends the walk
    /// here, with no output.
    fn only(&mut self, stage: &Stage<'_>) -> Result<Option<ExecOutput>> {
        match self {
            Visit::Execute(f) => f(stage).map(Some),
            Visit::Inspect(f) => f(stage).map(|()| None),
        }
    }
}

/// The plain executing visitor: run the plan.
fn run_plan(stage: &Stage<'_>) -> Result<ExecOutput> {
    stage.plan()?.execute(stage.catalog)
}

/// Lower a statement and walk its programs: the one place that matches on
/// the statement kind to decide *which programs run against what*.
/// `None` when an inspecting visitor ended the walk without a result.
pub(crate) fn drive(
    spec: &StatementSpec,
    ctx: &ExecCtx<'_>,
    visit: &mut Visit<'_>,
) -> Result<Option<StatementOutput>> {
    let cat = ctx.catalog();
    let lowered = match &spec.kind {
        SpecKind::Program(p) => {
            return Ok(visit
                .only(&Stage::new(ctx, p, cat))?
                .map(StatementOutput::Raw))
        }
        SpecKind::Sql(parsed) => sql::lower(cat, parsed.as_ref().map_err(Clone::clone)?)?,
        SpecKind::Tpch(q) => queries::plan(cat, *q)?,
        SpecKind::View(name) => {
            return match visit {
                // A dry walk never refreshes: it looks at the full-recompute
                // program of each side of the definition.
                Visit::Inspect(f) => {
                    let def = ctx
                        .engine()
                        .view_def(name)
                        .ok_or_else(|| unknown_view(name))?;
                    let join = def.join.as_ref().map(|j| j.right.full_program());
                    for p in std::iter::once(def.source.full_program()).chain(join) {
                        f(&Stage::new(ctx, &p, cat))?;
                    }
                    Ok(None)
                }
                Visit::Execute(f) => ctx
                    .engine()
                    .refresh_view(name, &mut |p, c| f(&Stage::new(ctx, p, c)))
                    .map(|rows| Some(StatementOutput::Rows(rows))),
            };
        }
    };
    // The relational frontends: one program, then its row extraction.
    let out = visit.only(&Stage::new(ctx, &lowered.program, cat))?;
    Ok(out.map(|out| StatementOutput::Rows(QueryResult::new((lowered.extract)(&out)))))
}

impl Engine {
    /// Drive one statement inside the execution scope. `backend`
    /// overrides the spec's own pin (the [`Statement::run_on`] re-target);
    /// with neither, the engine's default backend serves it. An executing
    /// walk is a served statement; an inspection is not (it feeds the
    /// scheduling counters only).
    fn walk(
        &self,
        spec: &StatementSpec,
        backend: Option<&str>,
        mut visit: Visit<'_>,
    ) -> Executed<Option<StatementOutput>> {
        let served = matches!(visit, Visit::Execute(_));
        let backend = backend.or(spec.backend());
        self.scoped(backend, spec.pinned.as_ref(), served, |ctx| {
            drive(spec, ctx, &mut visit)
        })
    }

    /// [`Self::walk`] with an executing visitor, which always yields the
    /// statement's output.
    pub(crate) fn execute(
        &self,
        spec: &StatementSpec,
        backend: Option<&str>,
        visit: &mut dyn FnMut(&Stage<'_>) -> Result<ExecOutput>,
    ) -> Executed<StatementOutput> {
        self.walk(spec, backend, Visit::Execute(visit))
            .map(|out| out.expect("an executing walk yields the statement's output"))
    }

    /// Run one statement: what batch slots and serve workers call.
    pub(crate) fn run_spec(&self, spec: &StatementSpec) -> Executed<StatementOutput> {
        self.execute(spec, None, &mut run_plan)
    }

    /// Static diagnostics for one statement: every program it lowers to
    /// goes through [`voodoo_verify::analyze`] against the current
    /// catalog snapshot, on the calling thread, and its rejection list is
    /// collected. Nothing is prepared or executed — no backend work, no
    /// plan-cache entry, no queue slot, and not a served statement in
    /// [`EngineMetrics`] — so a serving loop has a free pre-admission check
    /// for "will this reject?". An empty vector means the statement
    /// passed; a failure of the walk itself (SQL parse or lowering, an
    /// unknown view or backend) is reported as one [`Pass::Structure`]
    /// diagnostic.
    ///
    /// A view verifies the full-recompute program of each side of its
    /// definition and never refreshes.
    ///
    /// [`EngineMetrics`]: crate::EngineMetrics
    pub fn verify_spec(&self, spec: &StatementSpec) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let walked = self
            .walk(
                spec,
                None,
                Visit::Inspect(
                    &mut |s| match voodoo_verify::analyze(s.program, s.catalog) {
                        Err(VoodooError::Rejected(found)) => {
                            diags.extend(found);
                            Ok(())
                        }
                        other => other.map(drop),
                    },
                ),
            )
            .into_result();
        if let Err(e) = walked {
            diags.push(Diagnostic::program(Pass::Structure, e.to_string()));
        }
        diags
    }

    /// A statement handle from any spec.
    pub fn statement(self: &Arc<Self>, spec: StatementSpec) -> Statement {
        Statement {
            engine: Arc::clone(self),
            spec,
        }
    }

    /// A statement from a raw Voodoo program (the algebra frontend).
    pub fn program(self: &Arc<Self>, program: Program) -> Statement {
        self.statement(StatementSpec::program(program))
    }

    /// A statement from a named TPC-H query (the planner frontend).
    pub fn query(self: &Arc<Self>, query: Query) -> Statement {
        self.statement(StatementSpec::tpch(query))
    }

    /// A statement from a SQL string (parsed eagerly — a parse error
    /// fails here; lowering happens at run time against the then-current
    /// catalog snapshot).
    pub fn sql(self: &Arc<Self>, text: &str) -> Result<Statement> {
        let parsed = sql::parse(text)?;
        Ok(self.statement(StatementSpec::of(SpecKind::Sql(Ok(parsed)))))
    }
}

// ---------------------------------------------------------------------
// Outputs
// ---------------------------------------------------------------------

/// What a statement produced: canonical rows for relational frontends,
/// raw program outputs for the algebra frontend.
#[derive(Debug, Clone)]
pub enum StatementOutput {
    /// Canonical sorted integer rows (TPC-H queries, SQL, views).
    Rows(QueryResult),
    /// Raw program outputs (raw [`Program`] statements).
    Raw(ExecOutput),
}

impl StatementOutput {
    /// The canonical rows (panics on a raw-program statement).
    pub fn rows(&self) -> &QueryResult {
        match self {
            StatementOutput::Rows(r) => r,
            StatementOutput::Raw(_) => panic!("raw-program statement has no canonical rows"),
        }
    }

    /// Consume into canonical rows (panics on a raw-program statement).
    pub fn into_rows(self) -> QueryResult {
        match self {
            StatementOutput::Rows(r) => r,
            StatementOutput::Raw(_) => panic!("raw-program statement has no canonical rows"),
        }
    }

    /// The raw program output (panics on a relational statement).
    pub fn raw(&self) -> &ExecOutput {
        match self {
            StatementOutput::Raw(o) => o,
            StatementOutput::Rows(_) => panic!("relational statement has no raw output"),
        }
    }

    /// Consume into the raw program output (panics on a relational
    /// statement).
    pub fn into_raw(self) -> ExecOutput {
        match self {
            StatementOutput::Raw(o) => o,
            StatementOutput::Rows(_) => panic!("relational statement has no raw output"),
        }
    }
}

/// Aggregate profile of one statement execution (all programs of its plan).
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// Number of Voodoo programs executed (a program, SQL or TPC-H
    /// statement: 1; a view read: whatever its refresh ran, 0 when up to
    /// date).
    pub programs: usize,
    /// Merged architectural events across programs.
    pub events: EventProfile,
    /// Per-execution-unit events, concatenated in execution order.
    pub unit_events: Vec<EventProfile>,
    /// Total simulated seconds, when the backend prices a device model.
    pub simulated_seconds: Option<f64>,
}

impl RunProfile {
    /// Fold one program's profile in, passing its output on.
    fn absorb(&mut self, p: PlanProfile) -> ExecOutput {
        self.programs += 1;
        self.events.merge(&p.events);
        if let Some(s) = p.simulated_seconds() {
            *self.simulated_seconds.get_or_insert(0.0) += s;
        }
        self.unit_events.extend(p.unit_events);
        p.output
    }
}

// ---------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------

/// A statement handle: run, re-target, explain, profile or verify one
/// logical statement without caring which frontend produced it.
///
/// Statements own an [`Arc`] onto their engine, so they are `Send` and
/// `'static`: build them on one thread, run them on another. Every
/// execution pins the engine's *current* catalog snapshot at start and
/// holds no engine lock while running. Every `run`/`profile` call —
/// including ones that fail before execution starts (e.g. an unknown
/// backend name) — counts toward the engine's serving metrics: a serving
/// loop wants its failure rate to cover those. `explain` and `verify` are
/// dry walks and do not.
pub struct Statement {
    engine: Arc<Engine>,
    spec: StatementSpec,
}

impl Statement {
    /// Execute on the engine's default backend.
    pub fn run(&self) -> Result<StatementOutput> {
        self.engine.run_spec(&self.spec).into_result()
    }

    /// Execute on a named backend — the Figure 4 one-word re-target.
    pub fn run_on(&self, backend: &str) -> Result<StatementOutput> {
        self.engine
            .execute(&self.spec, Some(backend), &mut run_plan)
            .into_result()
    }

    /// The physical plan on the default backend: fragment structure and —
    /// for the compiling backends — the rendered OpenCL-style kernels.
    pub fn explain(&self) -> Result<String> {
        self.explain_with(None)
    }

    /// [`Self::explain`] on a named backend.
    ///
    /// Explaining prepares (and plan-caches) the statement's program but
    /// does not execute it, and is not a served statement. A view explains
    /// the full-recompute program of each side of its definition and
    /// never refreshes.
    ///
    /// A statement with one program renders as that plan's bare text; a
    /// join view's two programs render as `== program i/n ==` sections.
    pub fn explain_on(&self, backend: &str) -> Result<String> {
        self.explain_with(Some(backend))
    }

    fn explain_with(&self, backend: Option<&str>) -> Result<String> {
        let mut sections = Vec::new();
        let inspect = Visit::Inspect(&mut |stage| {
            sections.push(stage.plan()?.explain());
            Ok(())
        });
        self.engine
            .walk(&self.spec, backend, inspect)
            .into_result()?;
        if sections.len() == 1 {
            return Ok(sections.remove(0));
        }
        let mut s = String::new();
        for (i, sec) in sections.iter().enumerate() {
            s.push_str(&format!("== program {}/{} ==\n", i + 1, sections.len()));
            s.push_str(sec);
            s.push('\n');
        }
        Ok(s)
    }

    /// Static diagnostics for this statement against the current catalog
    /// snapshot. See [`Engine::verify_spec`].
    pub fn verify(&self) -> Vec<Diagnostic> {
        self.engine.verify_spec(&self.spec)
    }

    /// Execute on the default backend while profiling.
    pub fn profile(&self) -> Result<RunProfile> {
        self.profile_with(None)
    }

    /// Execute on a named backend while counting architectural events
    /// (and pricing them, on device-model backends).
    pub fn profile_on(&self, backend: &str) -> Result<RunProfile> {
        self.profile_with(Some(backend))
    }

    fn profile_with(&self, backend: Option<&str>) -> Result<RunProfile> {
        let mut acc = RunProfile::default();
        self.engine
            .execute(&self.spec, backend, &mut |stage| {
                Ok(acc.absorb(stage.plan()?.profile(stage.catalog)?))
            })
            .into_result()?;
        Ok(acc)
    }
}
