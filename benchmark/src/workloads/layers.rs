//! Traced calls into the planning layers' public functions, shared by the
//! workloads that decompose a statement: `Backend::prepare`, and — timed
//! on their own — the two layers it runs internally, `voodoo-verify`'s
//! analyzer and the fragment compiler.

use std::sync::Arc;
use std::time::Instant;

use voodoo::backend::{Backend, PreparedPlan};
use voodoo::compile::Compiler;
use voodoo::core::{Program, Result};
use voodoo::relational::{sql, Engine};
use voodoo::storage::Catalog;

use crate::shadow::Rows;
use crate::trace::{SpanId, Tracer};

/// Work counts taken at the layer boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    /// SSA statements handed to the analyzer.
    pub verify_statements: u64,
    /// Programs the analyzer rejected.
    pub verify_rejected: u64,
    /// Fragments (kernels) the compiler produced.
    pub fragments: u64,
}

/// One thread's span recorder plus the engine's default backend, through
/// which replays prepare and execute.
pub struct Layers {
    pub tr: Tracer,
    pub backend: Arc<dyn Backend>,
    pub counts: LayerCounts,
}

impl Layers {
    pub fn new(engine: &Engine, epoch: Instant) -> Layers {
        Layers {
            tr: Tracer::new(epoch),
            backend: engine
                .backend(&engine.default_backend())
                .expect("default backend is registered"),
            counts: LayerCounts::default(),
        }
    }

    /// Fold in another thread's spans and counts.
    pub fn absorb(&mut self, other: Layers) {
        self.tr.absorb(other.tr);
        self.counts.verify_statements += other.counts.verify_statements;
        self.counts.verify_rejected += other.counts.verify_rejected;
        self.counts.fragments += other.counts.fragments;
    }

    /// Prepare `program` through the backend — cold, as the engine pays
    /// for a plan-cache miss — then time the analyzer and the compiler on
    /// their own (both ran inside `prepare` already, so these are warm
    /// lower bounds). One span per call under `parent`.
    pub fn prepare(
        &mut self,
        parent: SpanId,
        op: u64,
        program: &Program,
        cat: &Catalog,
    ) -> Result<Arc<dyn PreparedPlan>> {
        let backend = Arc::clone(&self.backend);
        let plan = self.tr.scoped("backend.prepare", Some(parent), op, || {
            backend.prepare(program, cat)
        });
        self.counts.verify_statements += program.len() as u64;
        let analysis = self.tr.scoped("verify.analyze", Some(parent), op, || {
            voodoo::verify::analyze(program, cat)
        });
        self.counts.verify_rejected += u64::from(analysis.is_err());
        // The default cpu backend normalizes (CSE+DCE) before compiling.
        let compiled = self.tr.scoped("compile.compile", Some(parent), op, || {
            let (normalized, _) = voodoo::core::transform::optimize(program);
            Compiler::new(cat).compile(&normalized)
        });
        if let Ok(cp) = &compiled {
            self.counts.fragments += cp.fragment_count() as u64;
        }
        plan
    }

    /// Replay one SQL statement through the layers' public functions, one
    /// span per call under `parent`: parse, lower, plan, execute, extract.
    /// `held` is the plan a warm cache would have served; without it the
    /// statement is prepared cold ([`Layers::prepare`]). Returns the rows
    /// and the plan that produced them.
    pub fn replay_sql(
        &mut self,
        parent: SpanId,
        op: u64,
        text: &str,
        cat: &Catalog,
        held: Option<Arc<dyn PreparedPlan>>,
    ) -> Result<(Rows, Arc<dyn PreparedPlan>)> {
        let tr = &mut self.tr;
        let parsed = tr.scoped("sql.parse", Some(parent), op, || sql::parse(text))?;
        let lowered = tr.scoped("sql.lower", Some(parent), op, || sql::lower(cat, &parsed))?;
        let plan = match held {
            Some(plan) => plan,
            None => self.prepare(parent, op, &lowered.program, cat)?,
        };
        let tr = &mut self.tr;
        let out = tr.scoped("compile.execute", Some(parent), op, || plan.execute(cat))?;
        let rows = tr.scoped("sql.extract", Some(parent), op, || {
            sql::extract_rows(&lowered, &out)
        });
        Ok((rows, plan))
    }
}
