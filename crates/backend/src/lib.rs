//! # voodoo-backend — one execution API over every device
//!
//! The paper's core claim is *portability*: one Voodoo program, many
//! hardware targets, re-targeted by a one-line diff (Figure 4). This crate
//! is that claim at the API layer. A [`Backend`] turns a
//! [`voodoo_core::Program`] into a [`PreparedPlan`] once; the plan can then
//! be executed any number of times against a [`voodoo_storage::Catalog`],
//! explained (fragment plans, rendered OpenCL kernels), or profiled
//! (architectural event traces, simulated device time).
//!
//! Three first-class backends ship here:
//!
//! * [`InterpBackend`] — the reference bulk interpreter (§3.2), where
//!   "preparation" is validation and every intermediate materializes;
//! * [`CpuBackend`] — the fragment compiler + parallel CPU executor
//!   (§3.1), carrying [`ExecOptions`] and an optional CSE+DCE
//!   normalization pass;
//! * [`SimGpuBackend`] — the simulated GPU: compiled execution in
//!   event-counting mode, priced by the analytical device model.
//!
//! All three produce bit-identical [`ExecOutput`]s by construction — the
//! differential tests in `voodoo-relational` pin that. Higher layers
//! (the `Session` facade, the optimizer's candidate pricer, the figure
//! generators) program against `dyn Backend` only, which is the seam any
//! future backend (a real GPU, a sharded executor, an async pipeline)
//! plugs into.
//!
//! [`ShardedPlanCache`] adds the compile-once-run-many piece: a keyed,
//! LRU-bounded, thread-safe cache of prepared plans — N lock-striped
//! shards, invalidated per touched table, with hit/miss/eviction
//! counters — which is what the relational `Engine` mounts to serve many
//! sessions concurrently.

pub mod cache;

use std::sync::Arc;

use voodoo_compile::exec::{ExecOptions, Executor};
use voodoo_compile::plan::CompiledProgram;
use voodoo_compile::{kernel, Compiler, EventProfile};
use voodoo_core::transform::RewriteStats;
use voodoo_core::{Program, Result};
use voodoo_gpusim::{GpuSimulator, SimReport};
use voodoo_interp::Interpreter;
// Re-exported so crates that wrap `Backend`s (e.g. voodoo-faults) can
// name the execution output type without depending on the interpreter.
pub use voodoo_interp::ExecOutput;
use voodoo_storage::Catalog;

pub use cache::{CacheStats, PlanKey, ShardedPlanCache, DEFAULT_PLAN_CAPACITY, DEFAULT_SHARDS};
pub use voodoo_compile::exec::Parallelism;

/// A profiled execution: results plus the architectural trace, and — for
/// simulated devices — the priced device time.
#[derive(Debug, Clone)]
pub struct PlanProfile {
    /// The plan's outputs (identical to [`PreparedPlan::execute`]'s).
    pub output: ExecOutput,
    /// Aggregate architectural events (empty for the interpreter, which
    /// does not count).
    pub events: EventProfile,
    /// One event profile per execution unit — the input to device cost
    /// models, which price units by their individual extents.
    pub unit_events: Vec<EventProfile>,
    /// The priced simulation, when the backend models a device.
    pub simulated: Option<SimReport>,
}

impl PlanProfile {
    /// Simulated seconds, when the backend prices a device model.
    pub fn simulated_seconds(&self) -> Option<f64> {
        self.simulated.as_ref().map(|r| r.seconds)
    }
}

/// A program prepared for repeated execution on one backend.
///
/// Plans bind to the *shape* of the catalog they were prepared against
/// (schemas, table sizes) but read data at execution time, so one plan can
/// run against any catalog of the same shape — e.g. a later snapshot of
/// the same tables. Callers that mutate shapes should re-prepare;
/// [`ShardedPlanCache`] automates that via per-table versions.
pub trait PreparedPlan: Send + Sync {
    /// Name of the backend that prepared this plan.
    fn backend_name(&self) -> &str;

    /// Execute against a catalog, returning the program's outputs.
    fn execute(&self, catalog: &Catalog) -> Result<ExecOutput>;

    /// Human-readable physical plan: the statement list for the
    /// interpreter; fragments (extent/intent/kind) plus rendered
    /// OpenCL-style kernels for the compiling backends.
    fn explain(&self) -> String;

    /// Execute while counting architectural events (and pricing them, for
    /// device-model backends). Slower than [`Self::execute`]; intended for
    /// cost models, ablations and diagnostics.
    fn profile(&self, catalog: &Catalog) -> Result<PlanProfile>;
}

/// An execution backend: prepares programs into reusable plans.
///
/// This is the portability seam of the whole stack — everything above it
/// (`Session`, the optimizer, the benchmark harness) targets
/// `dyn Backend` and never names a concrete executor.
pub trait Backend: Send + Sync {
    /// Short stable name ("interp", "cpu", "gpu", ...).
    fn name(&self) -> &str;

    /// Prepare a program against a catalog's shape.
    fn prepare(&self, program: &Program, catalog: &Catalog) -> Result<Arc<dyn PreparedPlan>>;

    /// The physical tuning knobs baked into plans this backend prepares
    /// (parallelism, predication, …), rendered for cache keying: two
    /// backends of one type with different knobs must never share a
    /// cached plan. Knob-free backends return `""`.
    fn cache_params(&self) -> String {
        String::new()
    }
}

/// Shared explain rendering for the compiling backends: fragment
/// structure (extent/intent/kind) plus the generated OpenCL-style kernels.
fn explain_compiled(header: &str, cp: &CompiledProgram) -> String {
    let mut s = String::from(header);
    for f in cp.fragments() {
        s.push_str(&format!(
            "fragment {}: extent={} intent={} ({:?})\n",
            f.id,
            f.extent,
            f.intent,
            f.kind()
        ));
    }
    s.push_str("\ngenerated kernels:\n");
    s.push_str(&kernel::render_opencl(cp));
    s
}

// ---------------------------------------------------------------------
// Interpreter backend
// ---------------------------------------------------------------------

/// The reference bulk interpreter as a [`Backend`].
///
/// Preparation runs the full [`voodoo_verify`] analyzer; execution
/// materializes every intermediate (the paper's debugging backend, §3.2).
#[derive(Debug, Clone, Default)]
pub struct InterpBackend;

impl InterpBackend {
    /// The interpreter backend.
    pub fn new() -> InterpBackend {
        InterpBackend
    }
}

struct InterpPlan {
    program: Program,
}

impl PreparedPlan for InterpPlan {
    fn backend_name(&self) -> &str {
        "interp"
    }

    fn execute(&self, catalog: &Catalog) -> Result<ExecOutput> {
        Interpreter::new(catalog).run_program(&self.program)
    }

    fn explain(&self) -> String {
        format!(
            "backend: interp (materializing bulk interpreter)\n{}",
            self.program
        )
    }

    fn profile(&self, catalog: &Catalog) -> Result<PlanProfile> {
        // The interpreter defines semantics, not performance: no events.
        let output = self.execute(catalog)?;
        Ok(PlanProfile {
            output,
            events: EventProfile::default(),
            unit_events: Vec::new(),
            simulated: None,
        })
    }
}

impl Backend for InterpBackend {
    fn name(&self) -> &str {
        "interp"
    }

    fn prepare(&self, program: &Program, catalog: &Catalog) -> Result<Arc<dyn PreparedPlan>> {
        // The interpreter plans nothing, so the analysis is only a gate.
        voodoo_verify::analyze(program, catalog)?;
        Ok(Arc::new(InterpPlan {
            program: program.clone(),
        }))
    }
}

// ---------------------------------------------------------------------
// Compiled CPU backend
// ---------------------------------------------------------------------

/// The fragment compiler + parallel CPU executor as a [`Backend`].
#[derive(Debug, Clone)]
pub struct CpuBackend {
    opts: ExecOptions,
    optimize: bool,
}

impl CpuBackend {
    /// CPU backend with explicit execution options.
    pub fn new(opts: ExecOptions) -> CpuBackend {
        CpuBackend {
            opts,
            optimize: false,
        }
    }

    /// Single-threaded CPU backend with default flags — the serial
    /// reference configuration partition-parallel runs are pinned
    /// bit-identical against.
    pub fn single_threaded() -> CpuBackend {
        CpuBackend::new(ExecOptions::default())
    }

    /// Multithreaded CPU backend with a fixed morsel-worker count.
    pub fn with_threads(threads: usize) -> CpuBackend {
        CpuBackend::parallel(Parallelism::Fixed(threads.max(1)))
    }

    /// CPU backend with an explicit [`Parallelism`] setting
    /// (`Auto` resolves per machine, capped by the executing thread's
    /// parallelism budget — see
    /// [`voodoo_compile::exec::set_parallelism_budget`]).
    pub fn parallel(parallelism: Parallelism) -> CpuBackend {
        CpuBackend::new(ExecOptions {
            parallelism,
            ..ExecOptions::default()
        })
    }

    /// CPU backend that fans each statement across the machine
    /// ([`Parallelism::Auto`]).
    pub fn auto() -> CpuBackend {
        CpuBackend::parallel(Parallelism::Auto)
    }

    /// Enable (or disable) the CSE+DCE normalization pass before
    /// compilation. Results are identical by construction — pinned by the
    /// relational differential tests — while plans shrink wherever the
    /// frontend emitted redundant control vectors.
    pub fn with_optimize(mut self, optimize: bool) -> CpuBackend {
        self.optimize = optimize;
        self
    }

    /// The configured execution options.
    pub fn options(&self) -> &ExecOptions {
        &self.opts
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        CpuBackend::single_threaded()
    }
}

struct CpuPlan {
    cp: CompiledProgram,
    opts: ExecOptions,
    rewrite: Option<RewriteStats>,
}

impl PreparedPlan for CpuPlan {
    fn backend_name(&self) -> &str {
        "cpu"
    }

    fn execute(&self, catalog: &Catalog) -> Result<ExecOutput> {
        let (out, _) = Executor::new(self.opts.clone()).run(&self.cp, catalog)?;
        Ok(out)
    }

    fn explain(&self) -> String {
        let mut header = format!(
            "backend: cpu (fragment compiler, parallelism={:?}, predicated_select={})\n",
            self.opts.parallelism, self.opts.predicated_select
        );
        if let Some(r) = &self.rewrite {
            header.push_str(&format!(
                "normalized by CSE+DCE: {} -> {} statements\n",
                r.before, r.after
            ));
        }
        explain_compiled(&header, &self.cp)
    }

    fn profile(&self, catalog: &Catalog) -> Result<PlanProfile> {
        // Single-threaded, event-counting execution: the canonical trace
        // the device cost models price (matching the gpusim methodology).
        let exec = Executor::new(ExecOptions {
            count_events: true,
            parallelism: Parallelism::Off,
            predicated_select: self.opts.predicated_select,
            ..ExecOptions::default()
        });
        let (output, events, unit_events) = exec.run_with_unit_profiles(&self.cp, catalog)?;
        Ok(PlanProfile {
            output,
            events,
            unit_events,
            simulated: None,
        })
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> &str {
        "cpu"
    }

    fn cache_params(&self) -> String {
        format!(
            "par={:?};pred={};minpd={};opt={}",
            self.opts.parallelism,
            self.opts.predicated_select,
            self.opts.min_parallel_domain,
            self.optimize
        )
    }

    fn prepare(&self, program: &Program, catalog: &Catalog) -> Result<Arc<dyn PreparedPlan>> {
        // Verify the program as submitted, so diagnostics point at the
        // user's statement indices, before any rewrite reshapes it.
        let verified = voodoo_verify::analyze(program, catalog)?;
        let rewritten = self
            .optimize
            .then(|| voodoo_core::transform::optimize(program));
        let cp = match &rewritten {
            // The facts index the submitted statements: a rewrite that
            // removed any renumbers them, so its output is analyzed afresh.
            Some((optimized, stats)) if stats.removed() > 0 => {
                Compiler::build(voodoo_verify::analyze(optimized, catalog)?)?
            }
            _ => Compiler::build(verified)?,
        };
        Ok(Arc::new(CpuPlan {
            cp,
            opts: self.opts.clone(),
            rewrite: rewritten.map(|(_, stats)| stats),
        }))
    }
}

// ---------------------------------------------------------------------
// Simulated GPU backend
// ---------------------------------------------------------------------

/// The simulated GPU as a [`Backend`]: compiled plans execute on the host
/// for their *results*; [`PreparedPlan::profile`] prices the architectural
/// event trace with the device cost model (and the configured
/// interconnect, when transfers are modeled).
pub struct SimGpuBackend {
    sim: GpuSimulator,
}

impl SimGpuBackend {
    /// A TITAN-X-class simulated GPU (the paper's testbed device).
    pub fn titan_x() -> SimGpuBackend {
        SimGpuBackend {
            sim: GpuSimulator::titan_x(),
        }
    }

    /// Wrap an arbitrary simulator (custom device model, predication flag,
    /// interconnect).
    pub fn new(sim: GpuSimulator) -> SimGpuBackend {
        SimGpuBackend { sim }
    }

    /// The underlying simulator.
    pub fn simulator(&self) -> &GpuSimulator {
        &self.sim
    }
}

struct SimGpuPlan {
    cp: CompiledProgram,
    program: Program,
    sim: GpuSimulator,
}

impl PreparedPlan for SimGpuPlan {
    fn backend_name(&self) -> &str {
        "gpu"
    }

    fn execute(&self, catalog: &Catalog) -> Result<ExecOutput> {
        // Results only: skip event counting (the priced run is profile()).
        let exec = Executor::new(ExecOptions {
            predicated_select: self.sim.predicated(),
            ..ExecOptions::default()
        });
        let (out, _) = exec.run(&self.cp, catalog)?;
        Ok(out)
    }

    fn explain(&self) -> String {
        let header = format!(
            "backend: gpu (simulated {}, cost-model priced)\n",
            self.sim.model().device.name
        );
        explain_compiled(&header, &self.cp)
    }

    fn profile(&self, catalog: &Catalog) -> Result<PlanProfile> {
        let exec = Executor::new(ExecOptions {
            count_events: true,
            predicated_select: self.sim.predicated(),
            parallelism: Parallelism::Off,
            ..ExecOptions::default()
        });
        let (output, events, unit_events) = exec.run_with_unit_profiles(&self.cp, catalog)?;
        let mut report = self.sim.model().price(&unit_events);
        if let Some(link) = self.sim.interconnect() {
            report.transfer_seconds =
                link.transfer_seconds(voodoo_gpusim::transfer::input_bytes(&self.program, catalog));
            report.seconds += report.transfer_seconds;
        }
        Ok(PlanProfile {
            output,
            events,
            unit_events,
            simulated: Some(report),
        })
    }
}

impl Backend for SimGpuBackend {
    fn name(&self) -> &str {
        "gpu"
    }

    fn cache_params(&self) -> String {
        format!("pred={}", self.sim.predicated())
    }

    fn prepare(&self, program: &Program, catalog: &Catalog) -> Result<Arc<dyn PreparedPlan>> {
        let cp = Compiler::build(voodoo_verify::analyze(program, catalog)?)?;
        Ok(Arc::new(SimGpuPlan {
            cp,
            program: program.clone(),
            sim: self.sim.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voodoo_core::{Diagnostic, KeyPath, ScalarValue};

    fn fixture() -> (Catalog, Program) {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &(0..1000).collect::<Vec<_>>());
        let mut p = Program::new();
        let t = p.load("t");
        let pred = p.greater_const(t, 499);
        let sel = p.fold_select_global(pred);
        let vals = p.gather(t, sel);
        let sum = p.fold_sum_global(vals);
        p.ret(sum);
        (cat, p)
    }

    fn sum_of(out: &ExecOutput) -> i64 {
        out.returns[0]
            .value_at(0, &KeyPath::val())
            .map(|v| v.as_i64())
            .unwrap_or(0)
    }

    fn backends() -> Vec<Box<dyn Backend>> {
        vec![
            Box::new(InterpBackend::new()),
            Box::new(CpuBackend::single_threaded()),
            Box::new(CpuBackend::with_threads(4).with_optimize(true)),
            Box::new(SimGpuBackend::titan_x()),
        ]
    }

    #[test]
    fn all_backends_agree_through_one_interface() {
        let (cat, p) = fixture();
        let expected: i64 = (500..1000).sum();
        for b in backends() {
            let plan = b.prepare(&p, &cat).expect("prepare");
            let out = plan.execute(&cat).expect("execute");
            assert_eq!(sum_of(&out), expected, "backend {}", b.name());
            // Prepared plans are reusable.
            let again = plan.execute(&cat).expect("re-execute");
            assert_eq!(sum_of(&again), expected, "backend {} rerun", b.name());
        }
    }

    #[test]
    fn explain_shows_physical_plans() {
        let (cat, p) = fixture();
        let interp = InterpBackend::new().prepare(&p, &cat).unwrap().explain();
        assert!(interp.contains("interp"), "{interp}");
        let cpu = CpuBackend::single_threaded()
            .prepare(&p, &cat)
            .unwrap()
            .explain();
        assert!(
            cpu.contains("fragment") && cpu.contains("__kernel"),
            "{cpu}"
        );
        let gpu = SimGpuBackend::titan_x()
            .prepare(&p, &cat)
            .unwrap()
            .explain();
        assert!(gpu.contains("gpu") && gpu.contains("__kernel"), "{gpu}");
    }

    #[test]
    fn profile_counts_events_and_prices_devices() {
        let (cat, p) = fixture();
        let cpu = CpuBackend::single_threaded().prepare(&p, &cat).unwrap();
        let prof = cpu.profile(&cat).unwrap();
        assert!(prof.events.seq_read_bytes > 0);
        assert!(!prof.unit_events.is_empty());
        assert!(prof.simulated.is_none());

        let gpu = SimGpuBackend::titan_x().prepare(&p, &cat).unwrap();
        let prof = gpu.profile(&cat).unwrap();
        let report = prof.simulated.expect("gpu prices its trace");
        assert!(report.seconds > 0.0);
        assert_eq!(report.transfer_seconds, 0.0, "paper setup: no PCI cost");
    }

    #[test]
    fn gpu_profile_matches_the_legacy_simulator_wrapper() {
        let (cat, p) = fixture();
        let (out, report) = GpuSimulator::titan_x().run(&p, &cat).unwrap();
        let plan = SimGpuBackend::titan_x().prepare(&p, &cat).unwrap();
        let prof = plan.profile(&cat).unwrap();
        assert_eq!(sum_of(&prof.output), sum_of(&out));
        let sim = prof.simulated.unwrap();
        assert!((sim.seconds - report.seconds).abs() < 1e-12);
    }

    #[test]
    fn optimized_cpu_plans_shrink_but_agree() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &(0..100).collect::<Vec<_>>());
        // A program with a redundant subexpression the CSE pass removes.
        let mut p = Program::new();
        let t = p.load("t");
        let a = p.add_const(t, 7);
        let b = p.add_const(t, 7);
        let s = p.add(a, b);
        let sum = p.fold_sum_global(s);
        p.ret(sum);
        let plain = CpuBackend::single_threaded().prepare(&p, &cat).unwrap();
        let opt = CpuBackend::single_threaded()
            .with_optimize(true)
            .prepare(&p, &cat)
            .unwrap();
        let po = plain.execute(&cat).unwrap();
        let oo = opt.execute(&cat).unwrap();
        assert_eq!(
            po.returns[0].value_at(0, &KeyPath::val()),
            oo.returns[0].value_at(0, &KeyPath::val())
        );
        assert_eq!(
            po.returns[0].value_at(0, &KeyPath::val()),
            Some(ScalarValue::I64((0..100).map(|x| 2 * (x + 7)).sum::<i64>()))
        );
    }

    #[test]
    fn every_prepare_path_runs_the_analyzer() {
        // A forward reference: %0 consumes %1. Every backend's prepare
        // must reject it with structured diagnostics, not an ad-hoc
        // validate error (and certainly not a panic downstream).
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[1, 2, 3]);
        let mut p = Program::new();
        let t = p.load("t");
        let bad = p.add(t, voodoo_core::VRef(9));
        p.ret(bad);
        assert_rejected(&p, &cat, "a forward reference", |diags| {
            diags.iter().any(|d| d.stmt == Some(bad.index()))
        });
    }

    /// Prepare `p` on every backend and require a structured rejection
    /// whose diagnostics satisfy `pointed`.
    fn assert_rejected(
        p: &Program,
        cat: &Catalog,
        what: &str,
        pointed: impl Fn(&[Diagnostic]) -> bool,
    ) {
        for b in backends() {
            match b.prepare(p, cat) {
                Err(voodoo_core::VoodooError::Rejected(diags)) => assert!(
                    !diags.is_empty() && pointed(&diags),
                    "backend {} on {what}: {diags:?}",
                    b.name()
                ),
                Err(other) => panic!("backend {} on {what} returned {other:?}", b.name()),
                Ok(_) => panic!("backend {} accepted {what}", b.name()),
            }
        }
    }

    #[test]
    fn every_backend_verifies_before_rewriting() {
        // A fault in a dead statement: DCE would drop it, so a backend
        // that verified only the CSE/DCE output would accept both cases.
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[1, 2, 3]);

        let mut p = Program::new();
        let t = p.load("t");
        let _dup = p.load("t");
        let dead = p.add(t, voodoo_core::VRef(9));
        let sum = p.fold_sum_global(t);
        p.ret(sum);
        assert_rejected(&p, &cat, "a dead forward reference", |diags| {
            diags.iter().all(|d| d.stmt == Some(dead.index()))
        });

        let mut p = Program::new();
        let t = p.load("t");
        let _dead = p.load("nope");
        let sum = p.fold_sum_global(t);
        p.ret(sum);
        assert_rejected(&p, &cat, "a dead load of an unknown table", |diags| {
            diags.iter().any(|d| d.reason.contains("nope"))
        });
    }

    #[test]
    fn optimized_plans_use_the_verdicts_of_the_rewritten_program() {
        // CSE merges %2 into %1, so the float sum moves from %4 to %3,
        // where the submitted program has an integer (associative) fold.
        // Planned with the submitted verdicts, the float sum would be
        // tree-reduced across morsels and change its last bits.
        let n = 1 << 14;
        let floats: Vec<f32> = (0..n)
            .map(|i| (i as f32 * 0.37).sin() * 10f32.powi(i % 9))
            .collect();
        let mut cat = Catalog::in_memory();
        cat.put_f32_column("floats", &floats);
        cat.put_i64_column("ints", &(0..n as i64).collect::<Vec<_>>());
        let mut p = Program::new();
        let f = p.load("floats");
        let _ints = p.load("ints");
        let ints = p.load("ints");
        let isum = p.fold_sum_global(ints);
        let fsum = p.fold_sum_global(f);
        p.ret(isum);
        p.ret(fsum);

        let cpu = CpuBackend::new(ExecOptions {
            parallelism: Parallelism::Fixed(2),
            min_parallel_domain: 1,
            ..ExecOptions::default()
        })
        .with_optimize(true);
        let plan = cpu.prepare(&p, &cat).unwrap();
        assert!(
            plan.explain().contains("5 -> 4 statements"),
            "CSE merged %2"
        );
        let got = plan.execute(&cat).unwrap();
        let want = InterpBackend::new()
            .prepare(&p, &cat)
            .unwrap()
            .execute(&cat)
            .unwrap();
        let bits = |out: &ExecOutput| match out.returns[1].value_at(0, &KeyPath::val()) {
            Some(ScalarValue::F32(v)) => u64::from(v.to_bits()),
            Some(ScalarValue::F64(v)) => v.to_bits(),
            other => panic!("float sum expected, got {other:?}"),
        };
        assert_eq!(bits(&got), bits(&want), "float sum bit-identical to interp");
        assert_eq!(
            got.returns[0].value_at(0, &KeyPath::val()),
            want.returns[0].value_at(0, &KeyPath::val())
        );
    }

    #[test]
    fn plan_keys_track_the_analyzer_reads() {
        use crate::cache::PlanKey;
        let (cat, p) = fixture();
        // A dead Load is invisible to the effect analysis, so two
        // programs differing only in dead table reads share freshness
        // behavior keyed on the *live* read set.
        let eff = voodoo_verify::effects(&p);
        assert_eq!(eff.reads, vec!["t".to_string()]);
        let b = CpuBackend::single_threaded();
        let k = PlanKey::named("cpu", &b, &cat, &p);
        let mut cat2 = Catalog::in_memory();
        cat2.put_i64_column("t", &(0..1000).collect::<Vec<_>>());
        cat2.put_i64_column("unrelated", &[1, 2, 3]);
        let k2 = PlanKey::named("cpu", &b, &cat2, &p);
        assert_eq!(k, k2, "unrelated tables do not perturb the key");
    }
}
