//! Execution of compiled plans on the CPU.
//!
//! Every execution unit — fused fragments and the bulk units (`Scatter`,
//! `Partition` and the two fused patterns, virtual-scatter group
//! aggregation and vectorized selection) — runs the same way: **partials
//! from one fan-out driver, then one ordered merge**.
//!
//! ```text
//!   unit ──► fan_out(domain, unit, mergeable, work)
//!              │ one morsel? ──── yes ──► work(0..domain) inline
//!              │ no: Partitioning::for_stealing ──► persistent pool
//!              ▼
//!            partials in morsel order ──► the unit's merge rule
//! ```
//!
//! The driver is the only code that decides fan-out (the paper's §2.3:
//! one program runs serial or multicore purely by how its domain is cut
//! into extents). It resolves [`ExecOptions::parallelism`], applies the
//! [`ExecOptions::min_parallel_domain`] gate, cuts the domain into
//! aligned extents of whole units (elements, runs or selection chunks),
//! over-decomposed by [`DEFAULT_STEAL_GRAIN`] morsels per worker so skew
//! can rebalance, and submits them as one batch to the **persistent
//! work-stealing pool** ([`crate::pool`] — no per-unit thread spawns
//! anywhere in this module). Serial execution is the one-morsel case,
//! run inline on the calling thread with no pool hand-off.
//!
//! A unit only offers its domain for cutting when its partials merge —
//! a verified program property the static analyzer recorded at prepare
//! (float folds are not associative and prefix scans are order-dependent
//! across a run, so they stay one morsel; bit-identity outranks speedup).
//! Merge rules, all applied **in morsel order** so results are
//! bit-identical to the serial path no matter which worker ran which
//! morsel (the interpreter remains the independent oracle):
//!
//! * run-aligned extents (maps, uniform and dynamic runs) **stitch**;
//! * a single global run **fold-combines** its per-morsel accumulators,
//!   **compact-concatenates** its selection positions (the §2.2 ε
//!   padding is what makes the morsels independent) and stitches writes;
//! * scatters **apply** each morsel's compacted hits in order (serial
//!   last-write-wins), grouped aggregation and vectorized selection
//!   **combine** per-bucket / per-fold partials.
//!
//! The executor exposes the paper's physical tuning flags (§4): predicated
//! vs. branching position emission, and event counting for the GPU model.
//! Serving layers bound intra-statement fan-out with a per-thread
//! [`set_parallelism_budget`] — the *lease* a serve worker takes on the
//! shared pool — so statement morsels and an admission worker pool
//! compose to the machine instead of oversubscribing it.

use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

use voodoo_core::{
    AggKind, BinOp, Column, KeyPath, Op, Result, ScalarType, ScalarValue, StructuredVector, VRef,
    VoodooError,
};
use voodoo_interp::ExecOutput;
use voodoo_storage::{Catalog, Partitioning, DEFAULT_STEAL_GRAIN};

use crate::expr::{Env, Expr};
use crate::plan::{
    Action, Bulk, CompiledProgram, Fragment, GroupFold, Layout, RunStructure, Unit, VsFold,
};
use crate::profile::EventProfile;
use crate::repr::MatVec;

/// One morsel's (or the serial range's) partial grouped aggregation:
/// bucket counts, the single key seen per bucket, per-fold accumulators.
struct GroupPartial {
    counts: Vec<usize>,
    first_key: Vec<Option<Option<i64>>>,
    accs: Vec<Vec<Option<ScalarValue>>>,
    mismatch: bool,
    profile: EventProfile,
}

/// Upper bound on what [`Parallelism::Auto`] resolves to: past this,
/// morsel merge overhead beats marginal cores for these kernel sizes.
pub const MAX_AUTO_THREADS: usize = 8;

/// Domains below this many elements run as one morsel by default: a pool
/// hand-off costs more than the scan. Override with
/// [`ExecOptions::min_parallel_domain`] (tests pin it to 1 to exercise
/// partition boundaries on tiny inputs).
pub const DEFAULT_MIN_PARALLEL_DOMAIN: usize = 4096;

thread_local! {
    /// Per-thread cap on intra-statement worker fan-out (serving layers
    /// divide the machine between admission workers and morsel workers).
    static PAR_BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
    /// Scheduling accounting for the statement executing on this
    /// thread. `None` outside a trace.
    static STATEMENT_TRACE: Cell<Option<StatementTrace>> = const { Cell::new(None) };
}

/// Cap intra-statement parallelism for work executed on this thread
/// (`None` lifts the cap). Returns the previous budget so callers can
/// scope and restore. A serving worker pool of `W` workers on `C` cores
/// typically sets `C / W` so statement fan-out and the pool compose to
/// the machine, not to `W × C`.
pub fn set_parallelism_budget(budget: Option<usize>) -> Option<usize> {
    PAR_BUDGET.with(|b| b.replace(budget))
}

/// The current thread's intra-statement parallelism cap, if any.
pub fn parallelism_budget() -> Option<usize> {
    PAR_BUDGET.with(|b| b.get())
}

/// Per-statement scheduling accounting, recorded between
/// [`statement_trace_begin`] and [`statement_trace_end`] on the thread
/// driving the statement (engines bracket every execution with the pair
/// to feed their serving metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementTrace {
    /// Maximum morsel fan-out any execution unit used (1 = fully
    /// serial).
    pub partitions: u64,
    /// Morsel tasks this statement submitted to the persistent pool.
    pub pool_tasks: u64,
    /// Of those, tasks executed by a pool worker other than their home
    /// worker — the work-stealing rebalances this statement benefited
    /// from.
    pub steals: u64,
}

impl Default for StatementTrace {
    fn default() -> Self {
        StatementTrace {
            partitions: 1,
            pool_tasks: 0,
            steals: 0,
        }
    }
}

/// Start recording morsel fan-out, pool tasks and steals on this thread.
pub fn statement_trace_begin() {
    STATEMENT_TRACE.with(|t| t.set(Some(StatementTrace::default())));
}

/// Stop recording and return what the statement used since
/// [`statement_trace_begin`] (the all-serial default is also returned
/// when no trace was open).
pub fn statement_trace_end() -> StatementTrace {
    STATEMENT_TRACE.with(|t| t.take()).unwrap_or_default()
}

/// Credit one pool batch (its task count and how many of them were
/// stolen) to the statement tracing on this thread. Called by
/// [`crate::pool::MorselPool::run`] after its batch latch clears.
pub(crate) fn note_pool_batch(tasks: u64, steals: u64) {
    STATEMENT_TRACE.with(|t| {
        if let Some(mut cur) = t.get() {
            cur.pool_tasks += tasks;
            cur.steals += steals;
            t.set(Some(cur));
        }
    });
}

/// How a statement distributes across cores — the engine-facing knob.
///
/// The same prepared plan serves all three settings: parallelism is
/// resolved at execution time (per the paper's thesis that parallelism is
/// layout-controlled, not program-controlled), capped by the executing
/// thread's [`set_parallelism_budget`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Strictly serial execution (the default; also the test oracle
    /// configuration for the compiled backend).
    #[default]
    Off,
    /// Exactly `n` morsel workers (clamped to ≥ 1, then by the budget).
    Fixed(usize),
    /// One worker per available core, capped at [`MAX_AUTO_THREADS`] and
    /// by the budget.
    Auto,
}

impl Parallelism {
    /// The worker count this setting resolves to on this thread, after
    /// applying the machine size and the thread's parallelism budget.
    pub fn effective(self) -> usize {
        let base = match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(MAX_AUTO_THREADS),
        };
        match parallelism_budget() {
            Some(budget) => base.min(budget.max(1)),
            None => base,
        }
    }
}

/// Physical execution options (the paper's §4 "optimization flags").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOptions {
    /// Emit selection positions branch-free (cursor arithmetic) instead of
    /// with an `if` — the predication flag.
    pub predicated_select: bool,
    /// Count architectural events (for the GPU cost model / ablations).
    pub count_events: bool,
    /// Intra-statement morsel parallelism for fragment and bulk kernels.
    pub parallelism: Parallelism,
    /// Smallest domain worth fanning out
    /// ([`DEFAULT_MIN_PARALLEL_DOMAIN`]); smaller domains run as one
    /// morsel.
    pub min_parallel_domain: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            predicated_select: false,
            count_events: false,
            parallelism: Parallelism::Off,
            min_parallel_domain: DEFAULT_MIN_PARALLEL_DOMAIN,
        }
    }
}

impl ExecOptions {
    /// The morsel worker count in effect on this thread (resolves
    /// [`Parallelism`] against the machine and the thread budget).
    pub fn effective_threads(&self) -> usize {
        self.parallelism.effective()
    }
}

/// Executes compiled programs.
pub struct Executor {
    /// Execution options.
    pub opts: ExecOptions,
}

impl Executor {
    /// Executor with explicit options.
    pub fn new(opts: ExecOptions) -> Executor {
        Executor { opts }
    }

    /// Single-threaded executor with default flags.
    pub fn single_threaded() -> Executor {
        Executor::new(ExecOptions::default())
    }

    /// Multithreaded executor (a fixed morsel-worker count).
    pub fn with_threads(threads: usize) -> Executor {
        Executor::new(ExecOptions {
            parallelism: Parallelism::Fixed(threads.max(1)),
            ..ExecOptions::default()
        })
    }

    /// Run a compiled program against a catalog.
    pub fn run(
        &self,
        cp: &CompiledProgram,
        catalog: &Catalog,
    ) -> Result<(ExecOutput, EventProfile)> {
        let (out, profile, _) = self.run_with_unit_profiles(cp, catalog)?;
        Ok((out, profile))
    }

    /// Run and additionally report one event profile per execution unit
    /// (the input to cost models, which price units by their individual
    /// extents).
    pub fn run_with_unit_profiles(
        &self,
        cp: &CompiledProgram,
        catalog: &Catalog,
    ) -> Result<(ExecOutput, EventProfile, Vec<EventProfile>)> {
        let n = cp.program.len();
        let mut values: Vec<Option<Arc<MatVec>>> = vec![None; n];
        // Materialize sources.
        for (i, stmt) in cp.program.stmts().iter().enumerate() {
            if let Op::Load { name } = &stmt.op {
                let v = catalog
                    .load_vector(name)
                    .ok_or_else(|| VoodooError::UnknownTable(name.clone()))?;
                values[i] = Some(Arc::new(MatVec::Full(v)));
            }
        }
        let mut profile = EventProfile::default();
        let mut unit_profiles = Vec::with_capacity(cp.units.len());
        for unit in &cp.units {
            let mut up = EventProfile::default();
            match unit {
                Unit::Fragment(f) => self.exec_fragment(cp, f, &mut values, &mut up)?,
                Unit::Bulk(b) => self.exec_bulk(cp, b, &mut values, &mut up)?,
            }
            up.barriers += 1;
            profile.merge(&up);
            unit_profiles.push(up);
        }
        // Collect returns and persists through alias resolution.
        let mut returns = Vec::new();
        for r in cp.program.returns() {
            returns.push(self.expanded(cp, &values, *r)?);
        }
        let mut persisted = Vec::new();
        for stmt in cp.program.stmts() {
            if let Op::Persist { name, v } = &stmt.op {
                persisted.push((name.clone(), self.expanded(cp, &values, *v)?));
            }
        }
        Ok((ExecOutput { returns, persisted }, profile, unit_profiles))
    }

    fn expanded(
        &self,
        cp: &CompiledProgram,
        values: &[Option<Arc<MatVec>>],
        v: VRef,
    ) -> Result<StructuredVector> {
        let r = cp.resolve[v.index()];
        values[r.index()]
            .as_ref()
            .map(|m| m.expand())
            .ok_or_else(|| VoodooError::Backend(format!("result {r} was never materialized")))
    }

    /// The one fan-out site: cut `[0, domain)` into extents of whole
    /// `unit`s (elements, runs or selection chunks), run `work` on each
    /// and return the partials **in extent order**.
    ///
    /// The domain is cut only when the unit's partials merge
    /// (`mergeable`), more than one worker is in effect and the domain
    /// clears [`ExecOptions::min_parallel_domain`]; the extents are then
    /// [`DEFAULT_STEAL_GRAIN`] morsels per worker, submitted as one batch
    /// to the current pool. Otherwise the whole domain is one morsel, run
    /// inline on the calling thread. An empty domain has no morsels.
    fn fan_out<T: Send>(
        &self,
        domain: usize,
        unit: usize,
        mergeable: bool,
        work: impl Fn(Range<usize>) -> T + Sync,
    ) -> Vec<T> {
        let units = domain.div_ceil(unit);
        let workers = if mergeable && domain >= self.opts.min_parallel_domain.max(2) {
            self.opts.effective_threads()
        } else {
            1
        };
        if workers <= 1 || units <= 1 {
            return if domain == 0 {
                Vec::new()
            } else {
                vec![work(0..domain)]
            };
        }
        let parts = Partitioning::for_stealing(units, workers, DEFAULT_STEAL_GRAIN);
        STATEMENT_TRACE.with(|t| {
            if let Some(mut cur) = t.get() {
                cur.partitions = cur.partitions.max(parts.count() as u64);
                t.set(Some(cur));
            }
        });
        let work = &work;
        crate::pool::current().run(
            parts
                .morsels()
                .iter()
                .map(|m| {
                    let extent = m.start * unit..(m.end * unit).min(domain);
                    move || work(extent)
                })
                .collect(),
        )
    }

    /// A fresh evaluation environment for one kernel invocation.
    fn env<'a>(&self, cp: &CompiledProgram, sources: &'a [Option<Arc<MatVec>>]) -> Env<'a> {
        Env::new(
            sources,
            self.opts.count_events,
            cp.branch_sites,
            cp.gather_sites,
        )
        .with_predication(self.opts.predicated_select)
    }

    // ------------------------------------------------------------------
    // Fragments
    // ------------------------------------------------------------------

    fn exec_fragment(
        &self,
        cp: &CompiledProgram,
        frag: &Fragment,
        values: &mut [Option<Arc<MatVec>>],
        profile: &mut EventProfile,
    ) -> Result<()> {
        profile.work_items += frag.extent as u64;
        profile.elements += frag.domain as u64;
        // Parallelism a device can actually exploit: prefix scans are
        // order-dependent across the whole run (parallel only across
        // runs); pure folds tree-reduce with 1024-element leaves; dynamic
        // runs are sequential. Cursor-based position emission parallelizes
        // across work-group chunks even within a single run — the Figure 9
        // execution: each group keeps a local cursor and writes its padded
        // output region, "without the need for a global barrier" (§3.1.1
        // case c; the ε padding is what buys the independence).
        let has_scan = frag
            .actions
            .iter()
            .any(|a| matches!(a, Action::FoldScanAct { .. }));
        profile.max_par = match &frag.run {
            RunStructure::Dynamic(_) => 1,
            _ if has_scan => frag.extent as u64,
            RunStructure::Map | RunStructure::Uniform(_) => frag.extent as u64,
            RunStructure::Single => (frag.domain as u64 / 1024).max(1),
        };
        let domain = frag.domain;
        // Runs are independent, so run-aligned extents always merge. A
        // single global run splits across morsels only when every fused
        // action's partials merge (writes and position emission
        // concatenate, integer folds combine associatively, float folds
        // and prefix scans do not) — a verified program property the
        // analyzer recorded at prepare. Dynamic run boundaries are data,
        // so those fragments are one morsel.
        let (unit, mergeable) = match &frag.run {
            RunStructure::Map => (1, true),
            RunStructure::Uniform(l) => (*l, true),
            RunStructure::Single => (
                1,
                frag.actions
                    .iter()
                    .all(|a| cp.action_verdict(frag, a).morsel_mergeable()),
            ),
            RunStructure::Dynamic(_) => (1, false),
        };
        let sources: &[Option<Arc<MatVec>>] = values;
        let partials = self.fan_out(domain, unit, mergeable, |extent| {
            (extent.start, self.run_chunk(cp, frag, extent, sources))
        });
        for (_, (_, prof)) in &partials {
            profile.merge(prof);
        }
        // The morsel fence posts (in elements) the outputs were produced
        // across — the §2.3 layout metadata.
        let bounds: Option<Vec<usize>> = (partials.len() > 1)
            .then(|| partials.iter().map(|(s, _)| *s).chain([domain]).collect());

        let run_len = run_len_of(&frag.run, domain);
        // Each action produces exactly one output, in output order.
        for action in &frag.actions {
            let spec = &frag.outputs[action.out()];
            let full_len = full_len_of(spec.layout, domain, run_len);
            let mut col = Column::empties(spec.ty, full_len);
            let segs = partials.iter().map(|(_, (segs, _))| &segs[action.out()]);
            match (&frag.run, action) {
                // Fold-combine the morsels' accumulators left to right
                // (only associative folds split, so regrouping is exact).
                (RunStructure::Single, Action::FoldAggAct { agg, .. }) => {
                    let mut acc = None;
                    for v in segs.filter_map(|seg| seg.get(0)) {
                        accumulate(*agg, &mut acc, v);
                    }
                    if let Some(v) = acc {
                        col.set(0, v);
                    }
                }
                // Concatenate each morsel's compact position prefix
                // (positions ascend within a morsel, so this is the
                // serial order); the tail stays ε.
                (RunStructure::Single, Action::SelectEmit { .. }) => {
                    let positions = segs.flat_map(|seg| (0..seg.len()).map_while(|i| seg.get(i)));
                    for (slot, p) in positions.enumerate() {
                        col.set(slot, p);
                    }
                }
                _ => {
                    let mut off = 0;
                    for seg in segs {
                        for i in 0..seg.len() {
                            match seg.get(i) {
                                Some(v) => col.set(off + i, v),
                                None => col.clear(off + i),
                            }
                        }
                        off += seg.len();
                    }
                }
            }
            if self.opts.count_events {
                profile.write_bytes += (full_len * spec.ty.byte_width()) as u64;
            }
            let bounds = bounds.clone().filter(|_| spec.layout == Layout::Full);
            attach_fragment_output(values, spec, col, full_len, run_len, domain, bounds);
        }
        Ok(())
    }

    /// Run one extent of a fragment's domain (the whole domain, or one
    /// morsel of it) into the extent's output segments.
    ///
    /// Run boundaries inside the extent — every element of a map, every
    /// `l` elements of uniform runs, each change of a dynamic run's
    /// control value; a single global run has none — flush the closing
    /// run ([`Executor::flush`]). A single run's extent is a partial: its
    /// fold slot holds the extent's accumulator and its positions form a
    /// compact prefix, which [`Executor::exec_fragment`] merges.
    fn run_chunk(
        &self,
        cp: &CompiledProgram,
        frag: &Fragment,
        extent: Range<usize>,
        sources: &[Option<Arc<MatVec>>],
    ) -> (Vec<Column>, EventProfile) {
        let (s, e) = (extent.start, extent.end);
        let mut env = self.env(cp, sources);
        let run_len = run_len_of(&frag.run, frag.domain);
        let mut segs: Vec<Column> = frag
            .outputs
            .iter()
            .map(|spec| Column::empties(spec.ty, full_len_of(spec.layout, e - s, run_len)))
            .collect();
        let mut accs: Vec<Option<ScalarValue>> = vec![None; frag.actions.len()];
        let mut cursors: Vec<usize> = vec![s; frag.actions.len()];
        let mut run_start = s;
        let mut current: Option<ScalarValue> = None;
        for i in s..e {
            let boundary = match &frag.run {
                RunStructure::Map | RunStructure::Uniform(_) => i % run_len == 0,
                RunStructure::Single => false,
                RunStructure::Dynamic(ctrl) => {
                    let cv = ctrl.eval(i, &mut env);
                    std::mem::replace(&mut current, cv) != cv
                }
            };
            if boundary && i > s {
                self.flush(frag, (run_start, i), s, &mut segs, &mut accs, &cursors);
                run_start = i;
                cursors.fill(i);
            }
            self.step(frag, i, s, &mut segs, &mut accs, &mut cursors, &mut env);
        }
        if e > s {
            self.flush(frag, (run_start, e), s, &mut segs, &mut accs, &cursors);
        }
        (segs, env.profile)
    }

    /// Close the run `[rs, re)` of an extent starting at `base`: store
    /// each fold's accumulator at the run's slot, clear the slot a
    /// predicated selection's cursor stopped at (its unconditional write
    /// was not taken), and reset every accumulator for the next run.
    fn flush(
        &self,
        frag: &Fragment,
        (rs, re): (usize, usize),
        base: usize,
        segs: &mut [Column],
        accs: &mut [Option<ScalarValue>],
        cursors: &[usize],
    ) {
        for (ai, action) in frag.actions.iter().enumerate() {
            match action {
                Action::FoldAggAct { out, .. } => {
                    if let Some(v) = accs[ai] {
                        let slot = match frag.outputs[*out].layout {
                            Layout::Full => rs - base,
                            Layout::Dense => (rs - base) / run_len_of(&frag.run, frag.domain),
                        };
                        segs[*out].set(slot, v);
                    }
                }
                Action::SelectEmit { out, .. }
                    if self.opts.predicated_select && cursors[ai] < re =>
                {
                    segs[*out].clear(cursors[ai] - base);
                }
                _ => {}
            }
            accs[ai] = None;
        }
    }

    /// Process one element against every action of the fragment.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        frag: &Fragment,
        i: usize,
        elem_base: usize,
        segs: &mut [Column],
        accs: &mut [Option<ScalarValue>],
        cursors: &mut [usize],
        env: &mut Env<'_>,
    ) {
        for (ai, action) in frag.actions.iter().enumerate() {
            match action {
                Action::Write { out, expr } => {
                    if let Some(v) = expr.eval(i, env) {
                        segs[*out].set(i - elem_base, v);
                    }
                }
                Action::FoldAggAct {
                    agg, expr, out_ty, ..
                } => {
                    if let Some(v) = expr.eval(i, env) {
                        accumulate(*agg, &mut accs[ai], v.cast(*out_ty));
                        count_acc(env, *out_ty);
                    }
                }
                Action::FoldScanAct { out, expr, out_ty } => {
                    if let Some(v) = expr.eval(i, env) {
                        let next = accumulate(AggKind::Sum, &mut accs[ai], v.cast(*out_ty));
                        segs[*out].set(i - elem_base, next);
                        count_acc(env, *out_ty);
                    }
                }
                Action::SelectEmit { out, sel, site } => {
                    let taken = sel.eval(i, env).map(|v| v.is_truthy()).unwrap_or(false);
                    if self.opts.predicated_select {
                        // Branch-free cursor arithmetic (Ross-style [28]):
                        // unconditional write, cursor advances by the
                        // predicate outcome.
                        segs[*out].set(cursors[ai] - elem_base, ScalarValue::I64(i as i64));
                        cursors[ai] += taken as usize;
                        if env.counting {
                            env.profile.int_ops += 1;
                            env.profile.write_bytes += 8;
                        }
                    } else {
                        env.count_branch(*site, taken);
                        if taken {
                            segs[*out].set(cursors[ai] - elem_base, ScalarValue::I64(i as i64));
                            cursors[ai] += 1;
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk units
    // ------------------------------------------------------------------

    fn exec_bulk(
        &self,
        cp: &CompiledProgram,
        bulk: &Bulk,
        values: &mut [Option<Arc<MatVec>>],
        profile: &mut EventProfile,
    ) -> Result<()> {
        match bulk {
            Bulk::ScatterOp {
                stmt,
                domain,
                out_len,
                cols,
                pos,
            } => {
                let sources: &[Option<Arc<MatVec>>] = values;
                // The analyzer classified scatters as SerialApply: the
                // position and value expressions (the gather-heavy build
                // side of joins) evaluate per morsel, and the writes apply
                // in morsel order — the serial last-write-wins semantics,
                // bit for bit.
                let partials = self.fan_out(
                    *domain,
                    1,
                    cp.verdict(*stmt).eval_parallel_apply_serial(),
                    |extent| self.scatter_eval_range(cp, cols, pos, *out_len, extent, sources),
                );
                let mut out_cols: Vec<Column> = cols
                    .iter()
                    .map(|(_, ty, _)| Column::empties(*ty, *out_len))
                    .collect();
                for (hits, vals, prof) in &partials {
                    profile.merge(prof);
                    for (k, &p) in hits.iter().enumerate() {
                        for (col, vcol) in out_cols.iter_mut().zip(vals) {
                            match vcol.get(k) {
                                Some(v) => col.set(p, v),
                                None => col.clear(p),
                            }
                        }
                    }
                }
                profile.work_items += *domain as u64;
                profile.elements += *domain as u64;
                profile.max_par = (*domain as u64 / 1024).max(1);
                let mut sv = StructuredVector::with_len(*out_len);
                for ((kp, _, _), col) in cols.iter().zip(out_cols) {
                    sv.insert(kp.clone(), col);
                }
                values[stmt.index()] = Some(Arc::new(MatVec::Full(sv)));
                Ok(())
            }
            Bulk::PartitionOp {
                stmt,
                domain,
                out_kp,
                key,
                pivot,
                pivot_len,
            } => {
                let sources: &[Option<Arc<MatVec>>] = values;
                let mut env = self.env(cp, sources);
                let piv = eval_pivots(pivot, *pivot_len, &mut env);
                let keys: Vec<Option<i64>> = (0..*domain)
                    .map(|i| key.eval(i, &mut env).map(to_key))
                    .collect();
                let positions = counting_sort_positions(&keys, &piv);
                profile.merge(&env.profile);
                profile.work_items += 1;
                profile.elements += *domain as u64;
                profile.max_par = (*domain as u64 / 1024).max(1);
                let mut col = Column::empties(ScalarType::I64, *domain);
                for (i, p) in positions.iter().enumerate() {
                    col.set(i, ScalarValue::I64(*p as i64));
                }
                let mut sv = StructuredVector::with_len(*domain);
                sv.insert(out_kp.clone(), col);
                values[stmt.index()] = Some(Arc::new(MatVec::Full(sv)));
                Ok(())
            }
            Bulk::GroupAgg { .. } => self.exec_group_agg(cp, bulk, values, profile),
            Bulk::VecSelect {
                select: _,
                domain,
                chunk,
                sel,
                site,
                folds,
            } => {
                let sources: &[Option<Arc<MatVec>>] = values;
                // Chunks are already independent (each fills its own
                // cache-resident position buffer), so the morsel unit is
                // a run of whole chunks — provided every absorbed fold's
                // partials combine associatively per the analyzer's
                // verdict (float sums do not and stay one morsel).
                let mergeable = folds
                    .iter()
                    .all(|f| cp.verdict(f.stmt).combines_associatively());
                let partials = self.fan_out(*domain, *chunk, mergeable, |extent| {
                    self.vec_select_chunks(cp, *chunk, sel, *site, folds, extent, sources)
                });
                let mut accs: Vec<Option<ScalarValue>> = vec![None; folds.len()];
                for (partial, prof) in &partials {
                    profile.merge(prof);
                    for ((acc, f), v) in accs.iter_mut().zip(folds).zip(partial) {
                        if let Some(v) = v {
                            accumulate(f.agg, acc, *v);
                        }
                    }
                }
                let n_chunks = domain.div_ceil(*chunk);
                profile.work_items += n_chunks as u64;
                profile.elements += *domain as u64;
                // Chunk-local buffers fill sequentially: parallelism is
                // capped at the number of chunks (paper §5.3).
                profile.max_par = n_chunks as u64;
                for (f, acc) in folds.iter().zip(accs) {
                    let mut col = Column::empties(f.out_ty, 1);
                    if let Some(v) = acc {
                        col.set(0, v);
                    }
                    let mut sv = StructuredVector::with_len(1);
                    sv.insert(f.out_kp.clone(), col);
                    values[f.stmt.index()] = Some(Arc::new(MatVec::FoldDense {
                        values: sv,
                        run_len: (*domain).max(1),
                        orig_len: *domain,
                    }));
                }
                Ok(())
            }
        }
    }

    /// One extent of a vectorized selection, a run of whole chunks: per
    /// chunk, loop 1 emits qualifying positions into the chunk-local
    /// buffer, loop 2 resolves them and accumulates.
    #[allow(clippy::too_many_arguments)]
    fn vec_select_chunks(
        &self,
        cp: &CompiledProgram,
        chunk: usize,
        sel: &Expr,
        site: usize,
        folds: &[VsFold],
        extent: Range<usize>,
        sources: &[Option<Arc<MatVec>>],
    ) -> (Vec<Option<ScalarValue>>, EventProfile) {
        let mut env = self.env(cp, sources);
        let mut accs: Vec<Option<ScalarValue>> = vec![None; folds.len()];
        let mut last_pos: Vec<i64> = vec![i64::MIN / 2; folds.len()];
        let mut posbuf: Vec<usize> = vec![0; chunk];
        for c0 in extent.clone().step_by(chunk) {
            let c1 = (c0 + chunk).min(extent.end);
            // Loop 1: emit qualifying positions into the chunk-local
            // buffer (cache resident).
            let mut count = 0usize;
            if self.opts.predicated_select {
                for i in c0..c1 {
                    let t = sel
                        .eval(i, &mut env)
                        .map(|v| v.is_truthy())
                        .unwrap_or(false);
                    posbuf[count] = i;
                    count += t as usize;
                    if env.counting {
                        env.profile.int_ops += 1;
                        env.profile.write_bytes += 8;
                    }
                }
            } else {
                for i in c0..c1 {
                    let t = sel
                        .eval(i, &mut env)
                        .map(|v| v.is_truthy())
                        .unwrap_or(false);
                    env.count_branch(site, t);
                    if t {
                        posbuf[count] = i;
                        count += 1;
                        if env.counting {
                            env.profile.write_bytes += 8;
                        }
                    }
                }
            }
            // Loop 2: resolve positions and accumulate.
            for &p in &posbuf[..count] {
                for (fi, f) in folds.iter().enumerate() {
                    let src = sources[f.src.index()].as_ref().expect("vs source").clone();
                    // A position past the source's end gathers ε, as in
                    // the interpreter.
                    if p >= src.len() {
                        continue;
                    }
                    if let Some(v) = src.get(f.src_col, p) {
                        accumulate(f.agg, &mut accs[fi], v.cast(f.out_ty));
                        if env.counting {
                            // Monotone positions: near-previous is a
                            // cache hit, jumps are random accesses.
                            let lastp = last_pos[fi];
                            last_pos[fi] = p as i64;
                            if (p as i64 - lastp).unsigned_abs() <= 8 {
                                env.profile.seq_read_bytes += 8;
                            } else {
                                env.profile.rand_reads += 1;
                            }
                        }
                        count_acc(&mut env, f.out_ty);
                    }
                }
            }
        }
        (accs, env.profile)
    }

    /// Evaluate a scatter's position and value expressions over one
    /// extent, compacting the in-bounds rows. The caller applies the
    /// writes in extent (= input) order, so conflicting positions resolve
    /// exactly as one serial loop would.
    fn scatter_eval_range(
        &self,
        cp: &CompiledProgram,
        cols: &[(KeyPath, ScalarType, Arc<Expr>)],
        pos: &Expr,
        out_len: usize,
        extent: Range<usize>,
        sources: &[Option<Arc<MatVec>>],
    ) -> (Vec<usize>, Vec<Column>, EventProfile) {
        let mut env = self.env(cp, sources);
        let mut hits: Vec<usize> = Vec::new();
        let mut vals: Vec<Column> = cols
            .iter()
            .map(|(_, ty, _)| Column::empties(*ty, 0))
            .collect();
        for i in extent {
            let Some(p) = pos.eval(i, &mut env) else {
                continue;
            };
            let p = p.as_i64();
            if p < 0 || p as usize >= out_len {
                continue;
            }
            hits.push(p as usize);
            for (ci, (_, _, expr)) in cols.iter().enumerate() {
                vals[ci].push(expr.eval(i, &mut env));
            }
            if env.counting {
                env.profile.rand_writes += cols.len() as u64;
            }
        }
        (hits, vals, env.profile)
    }

    /// Partial grouped aggregation over one extent: per-bucket counts,
    /// the bucket's (single) key, and per-fold accumulators. `mismatch`
    /// reports a bucket holding more than one key run, which sends the
    /// whole unit to the generic fallback.
    #[allow(clippy::too_many_arguments)]
    fn group_agg_range(
        &self,
        cp: &CompiledProgram,
        key: &Expr,
        folds: &[GroupFold],
        piv: &[i64],
        nb: usize,
        extent: Range<usize>,
        sources: &[Option<Arc<MatVec>>],
    ) -> GroupPartial {
        let mut env = self.env(cp, sources);
        let mut counts = vec![0usize; nb];
        let mut first_key: Vec<Option<Option<i64>>> = vec![None; nb];
        let mut accs: Vec<Vec<Option<ScalarValue>>> =
            folds.iter().map(|_| vec![None; nb]).collect();
        let mut mismatch = false;
        for i in extent {
            let kv = key.eval(i, &mut env).map(to_key);
            let b = bucket_of(piv, kv);
            match &first_key[b] {
                None => first_key[b] = Some(kv),
                Some(prev) if *prev != kv => {
                    mismatch = true;
                    break;
                }
                _ => {}
            }
            counts[b] += 1;
            for (fi, f) in folds.iter().enumerate() {
                if let Some(v) = f.val.eval(i, &mut env) {
                    accumulate(f.agg, &mut accs[fi][b], v.cast(f.out_ty));
                    count_acc(&mut env, f.out_ty);
                }
            }
            if env.counting {
                env.profile.int_ops += 1; // bucket computation
            }
        }
        GroupPartial {
            counts,
            first_key,
            accs,
            mismatch,
            profile: env.profile,
        }
    }

    /// Virtual scatter (§3.1.3): one accumulation pass over dense buckets,
    /// with a runtime guard that each bucket holds a single key run (else
    /// it falls back to the generic scatter + dynamic fold). The pass
    /// runs as per-morsel partial aggregations (partial per-partition
    /// tables) combined in morsel order; a bucket whose key disagrees
    /// *across* morsels is a mismatch too.
    fn exec_group_agg(
        &self,
        cp: &CompiledProgram,
        bulk: &Bulk,
        values: &mut [Option<Arc<MatVec>>],
        profile: &mut EventProfile,
    ) -> Result<()> {
        let Bulk::GroupAgg {
            domain,
            out_len,
            key,
            pivot,
            pivot_len,
            folds,
            ..
        } = bulk
        else {
            unreachable!()
        };
        let sources: &[Option<Arc<MatVec>>] = values;
        let piv = {
            let mut env = self.env(cp, sources);
            let piv = eval_pivots(pivot, *pivot_len, &mut env);
            profile.merge(&env.profile);
            piv
        };
        let nb = piv.len().max(1);
        let mut counts = vec![0usize; nb];
        let mut first_key: Vec<Option<Option<i64>>> = vec![None; nb];
        let mut accs: Vec<Vec<Option<ScalarValue>>> =
            folds.iter().map(|_| vec![None; nb]).collect();
        let mut mismatch = *out_len != *domain;
        if !mismatch {
            // Cross-morsel combination of per-bucket accumulators is only
            // bit-identical when the analyzer proved every fold
            // associative (integer Sum/Min/Max; float folds stay one
            // morsel).
            let mergeable = folds
                .iter()
                .all(|f| cp.verdict(f.stmt).combines_associatively());
            let partials = self.fan_out(*domain, 1, mergeable, |extent| {
                self.group_agg_range(cp, key, folds, &piv, nb, extent, sources)
            });
            for p in &partials {
                profile.merge(&p.profile);
            }
            for p in partials {
                mismatch |= p.mismatch;
                if mismatch {
                    break;
                }
                for b in 0..nb {
                    if let Some(kv) = p.first_key[b] {
                        match first_key[b] {
                            None => first_key[b] = Some(kv),
                            Some(prev) if prev != kv => mismatch = true,
                            _ => {}
                        }
                    }
                    counts[b] += p.counts[b];
                }
                for ((acc, f), partial) in accs.iter_mut().zip(folds).zip(p.accs) {
                    for (a, v) in acc.iter_mut().zip(partial) {
                        if let Some(v) = v {
                            accumulate(f.agg, a, v);
                        }
                    }
                }
            }
        }
        profile.work_items += *domain as u64;
        profile.elements += *domain as u64;
        profile.max_par = (*domain as u64 / 1024).max(1);
        if mismatch {
            return self.exec_group_agg_generic(cp, bulk, values, profile);
        }
        // Group starts = exclusive prefix sums of counts.
        let mut starts = vec![0usize; nb];
        let mut acc = 0usize;
        for (b, c) in counts.iter().enumerate() {
            starts[b] = acc;
            acc += c;
        }
        for (fi, f) in folds.iter().enumerate() {
            let mut col = Column::empties(f.out_ty, nb);
            for (b, v) in accs[fi].iter().enumerate() {
                if let Some(v) = v {
                    col.set(b, *v);
                }
            }
            let mut sv = StructuredVector::with_len(nb);
            sv.insert(f.out_kp.clone(), col);
            values[f.stmt.index()] = Some(Arc::new(MatVec::GroupDense {
                values: sv,
                starts: starts.clone(),
                orig_len: *out_len,
            }));
        }
        Ok(())
    }

    /// Generic fallback for group aggregation: materialize the scatter and
    /// run a dynamic-run fold — always correct, never fused.
    fn exec_group_agg_generic(
        &self,
        cp: &CompiledProgram,
        bulk: &Bulk,
        values: &mut [Option<Arc<MatVec>>],
        profile: &mut EventProfile,
    ) -> Result<()> {
        let Bulk::GroupAgg {
            domain,
            out_len,
            key,
            pivot,
            pivot_len,
            folds,
            scatter_cols,
            key_col,
            ..
        } = bulk
        else {
            unreachable!()
        };
        let sources: &[Option<Arc<MatVec>>] = values;
        let mut env = self.env(cp, sources);
        let piv = eval_pivots(pivot, *pivot_len, &mut env);
        let keys: Vec<Option<i64>> = (0..*domain)
            .map(|i| key.eval(i, &mut env).map(to_key))
            .collect();
        let positions = counting_sort_positions(&keys, &piv);
        // Materialize the scattered vector.
        let mut out_cols: Vec<Column> = scatter_cols
            .iter()
            .map(|(_, ty, _)| Column::empties(*ty, *out_len))
            .collect();
        for (i, &p) in positions.iter().enumerate() {
            if p >= *out_len {
                continue;
            }
            for (ci, (_, _, expr)) in scatter_cols.iter().enumerate() {
                match expr.eval(i, &mut env) {
                    Some(v) => out_cols[ci].set(p, v),
                    None => out_cols[ci].clear(p),
                }
            }
            if env.counting {
                env.profile.rand_writes += scatter_cols.len() as u64;
            }
        }
        // End the read borrow of `values` before writing fold outputs.
        let env_profile = env.profile;
        drop(env);
        // Dynamic-run folds over the scattered key column.
        let key_vals = &out_cols[*key_col];
        for f in folds {
            let mut out = Column::empties(f.out_ty, *out_len);
            let mut acc: Option<ScalarValue> = None;
            let mut run_start = 0usize;
            let mut current: Option<ScalarValue> = None;
            for i in 0..*out_len {
                let cv = key_vals.get(i);
                if i == 0 {
                    current = cv;
                } else if cv != current {
                    if let Some(a) = acc.take() {
                        out.set(run_start, a);
                    }
                    run_start = i;
                    current = cv;
                }
                if let Some(v) = out_cols[f.val_col].get(i) {
                    accumulate(f.agg, &mut acc, v.cast(f.out_ty));
                }
            }
            if let Some(a) = acc {
                out.set(run_start, a);
            }
            let mut sv = StructuredVector::with_len(*out_len);
            sv.insert(f.out_kp.clone(), out);
            values[f.stmt.index()] = Some(Arc::new(MatVec::Full(sv)));
        }
        profile.merge(&env_profile);
        Ok(())
    }
}

/// Elements per run: one for a map, `l` for uniform runs, the whole
/// domain for a single run (dynamic runs store folds at element slots and
/// never divide by it).
fn run_len_of(run: &RunStructure, domain: usize) -> usize {
    match run {
        RunStructure::Map => 1,
        RunStructure::Uniform(l) => *l,
        RunStructure::Single | RunStructure::Dynamic(_) => domain.max(1),
    }
}

/// Slots an output column occupies: the whole domain for `Full` layout,
/// one slot per run for `Dense` (fold results).
fn full_len_of(layout: Layout, domain: usize, run_len: usize) -> usize {
    match layout {
        Layout::Full => domain,
        Layout::Dense => domain.div_ceil(run_len),
    }
}

/// Epilogue of every fragment output: attach the merged column to (or
/// create) its statement's vector, record optional partition-bounds
/// metadata, and wrap per layout.
fn attach_fragment_output(
    values: &mut [Option<Arc<MatVec>>],
    spec: &crate::plan::OutSpec,
    col: Column,
    full_len: usize,
    run_len: usize,
    domain: usize,
    bounds: Option<Vec<usize>>,
) {
    let existing = values[spec.stmt.index()].take();
    let mut sv = match existing {
        Some(m) => m.storage().clone(),
        None => StructuredVector::with_len(full_len),
    };
    sv.insert(spec.kp.clone(), col);
    if let Some(b) = bounds {
        sv.set_partition_bounds(b);
    }
    let wrapped = match spec.layout {
        Layout::Full => MatVec::Full(sv),
        Layout::Dense => MatVec::FoldDense {
            values: sv,
            run_len,
            orig_len: domain,
        },
    };
    values[spec.stmt.index()] = Some(Arc::new(wrapped));
}

fn combine(agg: AggKind, a: ScalarValue, b: ScalarValue) -> ScalarValue {
    match agg {
        AggKind::Sum => BinOp::Add.eval(a, b),
        AggKind::Min => {
            if BinOp::LessEquals.eval(a, b).is_truthy() {
                a
            } else {
                b
            }
        }
        AggKind::Max => {
            if BinOp::GreaterEquals.eval(a, b).is_truthy() {
                a
            } else {
                b
            }
        }
    }
}

/// Fold `v` into an accumulator (the first value seeds it) and return
/// the new accumulated value.
fn accumulate(agg: AggKind, acc: &mut Option<ScalarValue>, v: ScalarValue) -> ScalarValue {
    let next = match *acc {
        None => v,
        Some(a) => combine(agg, a, v),
    };
    *acc = Some(next);
    next
}

fn count_acc(env: &mut Env<'_>, ty: ScalarType) {
    if env.counting {
        if ty.is_float() {
            env.profile.float_ops += 1;
        } else {
            env.profile.int_ops += 1;
        }
    }
}

fn to_key(v: ScalarValue) -> i64 {
    match v {
        ScalarValue::F32(f) => f.floor() as i64,
        ScalarValue::F64(f) => f.floor() as i64,
        other => other.as_i64(),
    }
}

fn eval_pivots(pivot: &Expr, pivot_len: usize, env: &mut Env<'_>) -> Vec<i64> {
    let mut piv: Vec<i64> = (0..pivot_len)
        .filter_map(|j| pivot.eval(j, env).map(to_key))
        .collect();
    piv.sort_unstable();
    piv
}

/// Bucket of a key given sorted pivots — identical to the interpreter's
/// `partition_positions` bucketing so the backends agree exactly.
fn bucket_of(piv: &[i64], key: Option<i64>) -> usize {
    match key {
        None => 0,
        Some(x) => piv.partition_point(|&p| p <= x).saturating_sub(1),
    }
}

/// Stable counting-sort positions (shared by Partition and the group-agg
/// fallback).
fn counting_sort_positions(keys: &[Option<i64>], piv: &[i64]) -> Vec<usize> {
    let nb = piv.len().max(1);
    let mut counts = vec![0usize; nb];
    for k in keys {
        counts[bucket_of(piv, *k)] += 1;
    }
    let mut cursors = vec![0usize; nb];
    let mut acc = 0usize;
    for (b, c) in counts.iter().enumerate() {
        cursors[b] = acc;
        acc += c;
    }
    keys.iter()
        .map(|k| {
            let b = bucket_of(piv, *k);
            let p = cursors[b];
            cursors[b] += 1;
            p
        })
        .collect()
}

/// Convenience: compile and run a program in one call (single-threaded).
pub fn run_compiled(program: &voodoo_core::Program, catalog: &Catalog) -> Result<ExecOutput> {
    let cp = crate::Compiler::new(catalog).compile(program)?;
    let (out, _) = Executor::single_threaded().run(&cp, catalog)?;
    Ok(out)
}
