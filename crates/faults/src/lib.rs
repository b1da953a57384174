//! # voodoo-faults — deterministic fault injection for any backend
//!
//! The serve layer promises that every admitted statement terminates —
//! served, shed, timed out, or failed — and that a failure is scoped to
//! exactly one [`Receipt`](https://docs.rs/voodoo-relational). Those
//! promises are only worth something if they hold under faults, and
//! faults that appear "sometimes, under load" cannot be pinned by tests.
//! This crate makes them reproducible: a [`FaultPlan`] wraps any
//! registered [`Backend`] and injects a *scripted, seeded* schedule of
//! misbehavior at exact call indices:
//!
//! * **prepare errors** — `Backend::prepare` returns an injected
//!   [`VoodooError::Backend`] (exercises the plan cache's no-negative-
//!   caching path),
//! * **execute errors** — the prepared plan's `execute` fails,
//! * **panics** — `execute` panics (exercises serve-worker panic
//!   isolation),
//! * **pool poisoning** — `execute` fans tasks across the *current*
//!   morsel pool and panics inside one of them (exercises two-level
//!   panic isolation: pool task → statement → receipt),
//! * **latency spikes** — `execute` sleeps before delegating (exercises
//!   sojourn-based admission control and deadline propagation).
//!
//! Schedules are keyed by **call index** (the n-th `prepare` / n-th
//! `execute` across the wrapped backend, 0-based), so with a
//! single-worker server draining FIFO the failure sequence is exactly
//! reproducible; [`FaultPlan::seeded`] + [`FaultPlanBuilder::scatter_execute`]
//! derive the faulted indices from a seed, so two runs with one seed
//! inject the identical schedule and a different seed injects a
//! different one. Every injection is recorded ([`FaultPlan::log`]) so
//! tests can assert "every injected fault surfaced as exactly one
//! failed receipt" instead of "roughly the right number failed".
//!
//! A [`FaultPlan::on_execute`] hook runs an arbitrary closure before a
//! chosen call — the seam tests use to race catalog mutations against
//! in-flight statements at a deterministic point.
//!
//! ```
//! use std::sync::Arc;
//! use voodoo_backend::{Backend, InterpBackend};
//! use voodoo_core::Program;
//! use voodoo_faults::{Fault, FaultPlan};
//! use voodoo_storage::Catalog;
//!
//! let mut cat = Catalog::in_memory();
//! cat.put_i64_column("t", &[1, 2, 3]);
//!
//! // Fail the second execution; everything else passes through.
//! let plan = FaultPlan::fault_execute(1, Fault::Error);
//! let faulty = plan.wrap(Arc::new(InterpBackend::new()));
//!
//! let mut p = Program::new();
//! let t = p.load("t");
//! p.ret(t);
//! let prepared = faulty.prepare(&p, &cat).unwrap();
//! assert!(prepared.execute(&cat).is_ok());  // call 0
//! assert!(prepared.execute(&cat).is_err()); // call 1: injected
//! assert!(prepared.execute(&cat).is_ok());  // call 2: recovered
//! assert_eq!(plan.log().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use voodoo_backend::{Backend, ExecOutput, PlanProfile, PreparedPlan};
use voodoo_core::{Program, Result, VoodooError};
use voodoo_storage::Catalog;

/// One kind of injected misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Return an injected [`VoodooError::Backend`] instead of running.
    Error,
    /// Panic mid-call (the serve layer must isolate it to one receipt).
    Panic,
    /// Fan four trivial tasks across the current morsel pool and panic
    /// inside the third — the two-level isolation probe. The poisoned
    /// task re-raises on the statement's thread, so the wrapped call
    /// never runs and the statement fails like any panicking kernel.
    PoolPoison,
    /// Sleep for the given duration, then delegate normally. The call
    /// *succeeds*; only its latency is perturbed.
    Latency(Duration),
}

/// Which intercepted entry point a fault (or hook) attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// The n-th `Backend::prepare` call through the wrapper.
    Prepare,
    /// The n-th `PreparedPlan::execute` (or `profile`) call, counted
    /// across every plan the wrapper prepared.
    Execute,
}

/// One injection that actually happened: where, at which call index,
/// and what was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Entry point the fault fired at.
    pub site: Site,
    /// 0-based call index at that site.
    pub call: u64,
    /// The injected fault.
    pub fault: Fault,
}

type ExecuteHook = Box<dyn Fn(u64) + Send + Sync>;

#[derive(Default)]
struct Schedule {
    prepare: BTreeMap<u64, Fault>,
    execute: BTreeMap<u64, Fault>,
}

/// A deterministic fault schedule, shared by every plan the wrapped
/// backend prepares. Cheap to clone (`Arc` inside); the clone observes
/// the same counters and log.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanState>,
}

struct PlanState {
    schedule: Schedule,
    /// Scripted closures keyed by execute-call index, run *before* the
    /// faulted/normal call — the catalog-race seam.
    hooks: Mutex<BTreeMap<u64, ExecuteHook>>,
    prepare_calls: AtomicU64,
    execute_calls: AtomicU64,
    log: Mutex<Vec<Injection>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("prepare_faults", &self.inner.schedule.prepare.len())
            .field("execute_faults", &self.inner.schedule.execute.len())
            .field("prepare_calls", &self.prepare_calls())
            .field("execute_calls", &self.execute_calls())
            .finish()
    }
}

/// Builder state before the plan is frozen into its shareable form.
#[derive(Debug, Default)]
pub struct FaultPlanBuilder {
    schedule: Schedule,
    rng: Option<SmallRng>,
}

impl std::fmt::Debug for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schedule")
            .field("prepare", &self.prepare)
            .field("execute", &self.execute)
            .finish()
    }
}

impl FaultPlanBuilder {
    /// Inject `fault` at the n-th (0-based) `Backend::prepare` call.
    pub fn fault_prepare(mut self, nth: u64, fault: Fault) -> FaultPlanBuilder {
        self.schedule.prepare.insert(nth, fault);
        self
    }

    /// Inject `fault` at the n-th (0-based) execute/profile call.
    pub fn fault_execute(mut self, nth: u64, fault: Fault) -> FaultPlanBuilder {
        self.schedule.execute.insert(nth, fault);
        self
    }

    /// Scatter `count` copies of `fault` over distinct execute-call
    /// indices in `[0, window)`, drawn from the seed given to
    /// [`FaultPlan::seeded`]. Panics if the builder was not seeded or
    /// the window cannot hold `count` distinct indices (a schedule that
    /// silently injects fewer faults than asked would let a test pass
    /// vacuously).
    pub fn scatter_execute(mut self, count: usize, window: u64, fault: Fault) -> FaultPlanBuilder {
        let rng = self
            .rng
            .as_mut()
            .expect("scatter_execute requires FaultPlan::seeded");
        assert!(
            (count as u64) <= window,
            "cannot place {count} distinct faults in a window of {window}"
        );
        let mut placed = 0;
        while placed < count {
            let idx = rng.gen_range(0..window);
            if let std::collections::btree_map::Entry::Vacant(e) = self.schedule.execute.entry(idx)
            {
                e.insert(fault);
                placed += 1;
            }
        }
        self
    }

    /// Freeze into the shareable plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(PlanState {
                schedule: self.schedule,
                hooks: Mutex::new(BTreeMap::new()),
                prepare_calls: AtomicU64::new(0),
                execute_calls: AtomicU64::new(0),
                log: Mutex::new(Vec::new()),
            }),
        }
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// A frozen, empty schedule: the wrapper passes everything through
    /// (still counting calls and honoring [`FaultPlan::on_execute`]
    /// hooks). Use [`FaultPlan::build_with`] / [`FaultPlan::seeded`]
    /// for schedules with faults.
    pub fn new() -> FaultPlan {
        FaultPlanBuilder::default().build()
    }

    /// Start an explicit (unseeded) schedule builder.
    pub fn build_with() -> FaultPlanBuilder {
        FaultPlanBuilder::default()
    }

    /// Start a seeded schedule builder: [`FaultPlanBuilder::
    /// scatter_execute`] derives fault positions deterministically from
    /// `seed`, so one seed always yields one schedule.
    pub fn seeded(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            schedule: Schedule::default(),
            rng: Some(SmallRng::seed_from_u64(seed)),
        }
    }

    /// Convenience: a frozen plan with a single fault at the n-th
    /// execute call.
    pub fn fault_execute(nth: u64, fault: Fault) -> FaultPlan {
        FaultPlanBuilder::default()
            .fault_execute(nth, fault)
            .build()
    }

    /// Convenience: a frozen plan with a single fault at the n-th
    /// prepare call.
    pub fn fault_prepare(nth: u64, fault: Fault) -> FaultPlan {
        FaultPlanBuilder::default()
            .fault_prepare(nth, fault)
            .build()
    }

    /// Run `hook` immediately before the n-th execute call (before any
    /// fault scheduled there fires). The hook sees the call index. This
    /// is the deterministic seam for racing a catalog mutation against
    /// an in-flight statement.
    pub fn on_execute(&self, nth: u64, hook: impl Fn(u64) + Send + Sync + 'static) -> &FaultPlan {
        self.inner
            .hooks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(nth, Box::new(hook));
        self
    }

    /// Wrap a backend: every `prepare`/`execute`/`profile` consults this
    /// plan's schedule first. The wrapper reports the inner backend's
    /// name suffixed with `+faults` and folds the schedule into
    /// [`Backend::cache_params`] so a faulty backend never shares cached
    /// plans with its clean twin.
    pub fn wrap(&self, inner: Arc<dyn Backend>) -> Arc<FaultyBackend> {
        Arc::new(FaultyBackend {
            inner,
            plan: self.clone(),
        })
    }

    /// The ordered log of every injection that actually fired.
    pub fn log(&self) -> Vec<Injection> {
        self.inner
            .log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Faults scheduled on execute calls (index → fault), for tests that
    /// want to predict the exact failure sequence.
    pub fn execute_schedule(&self) -> Vec<(u64, Fault)> {
        self.inner
            .schedule
            .execute
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// How many `Backend::prepare` calls the wrapper has intercepted.
    pub fn prepare_calls(&self) -> u64 {
        self.inner.prepare_calls.load(Ordering::Relaxed)
    }

    /// How many execute/profile calls the wrapper has intercepted.
    pub fn execute_calls(&self) -> u64 {
        self.inner.execute_calls.load(Ordering::Relaxed)
    }

    fn record(&self, site: Site, call: u64, fault: Fault) {
        self.inner
            .log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Injection { site, call, fault });
    }

    /// Apply whatever the schedule says for this call. `Ok(())` means
    /// "proceed with the real call" (possibly after an injected sleep);
    /// `Err` and panics are the injections themselves.
    fn apply(&self, site: Site, call: u64) -> Result<()> {
        let fault = match site {
            Site::Prepare => self.inner.schedule.prepare.get(&call).copied(),
            Site::Execute => self.inner.schedule.execute.get(&call).copied(),
        };
        let Some(fault) = fault else { return Ok(()) };
        self.record(site, call, fault);
        match fault {
            Fault::Error => Err(VoodooError::Backend(format!(
                "injected fault: {site:?} call {call}"
            ))),
            Fault::Panic => panic!("injected panic: {site:?} call {call}"),
            Fault::PoolPoison => {
                // Fan real tasks across the current morsel pool; the
                // poisoned one re-raises on this (the statement's)
                // thread, exactly like a skewed kernel's morsel would.
                let _ = voodoo_compile::pool::current().run(
                    (0..4usize)
                        .map(|i| {
                            move || {
                                assert!(i != 2, "injected pool poison: {site:?} call {call}");
                                i
                            }
                        })
                        .collect::<Vec<_>>(),
                );
                unreachable!("poisoned pool task must re-raise");
            }
            Fault::Latency(d) => {
                std::thread::sleep(d);
                Ok(())
            }
        }
    }

    fn before_execute(&self) -> Result<()> {
        let call = self.inner.execute_calls.fetch_add(1, Ordering::Relaxed);
        // Hooks run before faults: a test can mutate the catalog and
        // *then* have the same call fail, in one deterministic step.
        {
            let hooks = self.inner.hooks.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(hook) = hooks.get(&call) {
                hook(call);
            }
        }
        self.apply(Site::Execute, call)
    }
}

/// A [`Backend`] wrapped in a [`FaultPlan`]. Prepared plans carry the
/// plan too, so execute-site faults fire even on cache-hit executions.
pub struct FaultyBackend {
    inner: Arc<dyn Backend>,
    plan: FaultPlan,
}

impl std::fmt::Debug for FaultyBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyBackend")
            .field("inner", &self.inner.name())
            .field("plan", &self.plan)
            .finish()
    }
}

impl Backend for FaultyBackend {
    fn name(&self) -> &str {
        // The registry keys plans by registration name + epoch, so the
        // self-reported name is informational; still, make wrapping
        // visible in explain output and diagnostics.
        "faulty"
    }

    fn prepare(&self, program: &Program, catalog: &Catalog) -> Result<Arc<dyn PreparedPlan>> {
        let call = self
            .plan
            .inner
            .prepare_calls
            .fetch_add(1, Ordering::Relaxed);
        self.plan.apply(Site::Prepare, call)?;
        let inner = self.inner.prepare(program, catalog)?;
        Ok(Arc::new(FaultyPlan {
            inner,
            plan: self.plan.clone(),
        }))
    }

    fn cache_params(&self) -> String {
        // Distinct from the clean inner backend's params, so a cache
        // that ignored registry identity still could not alias them.
        format!("faults({})", self.inner.cache_params())
    }
}

struct FaultyPlan {
    inner: Arc<dyn PreparedPlan>,
    plan: FaultPlan,
}

impl PreparedPlan for FaultyPlan {
    fn backend_name(&self) -> &str {
        "faulty"
    }

    fn execute(&self, catalog: &Catalog) -> Result<ExecOutput> {
        self.plan.before_execute()?;
        self.inner.execute(catalog)
    }

    fn explain(&self) -> String {
        format!("fault-injection wrapper over:\n{}", self.inner.explain())
    }

    fn profile(&self, catalog: &Catalog) -> Result<PlanProfile> {
        self.plan.before_execute()?;
        self.inner.profile(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voodoo_backend::InterpBackend;

    fn tiny() -> (Catalog, Program) {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[1, 2, 3]);
        let mut p = Program::new();
        let t = p.load("t");
        p.ret(t);
        (cat, p)
    }

    #[test]
    fn explicit_schedule_fires_at_exact_indices() {
        let (cat, p) = tiny();
        let plan = FaultPlan::build_with()
            .fault_execute(1, Fault::Error)
            .fault_execute(3, Fault::Latency(Duration::from_millis(1)))
            .build();
        let backend = plan.wrap(Arc::new(InterpBackend::new()));
        let prepared = backend.prepare(&p, &cat).unwrap();
        assert!(prepared.execute(&cat).is_ok());
        assert!(prepared.execute(&cat).is_err());
        assert!(prepared.execute(&cat).is_ok());
        assert!(prepared.execute(&cat).is_ok()); // latency: slow, not failed
        assert_eq!(
            plan.log(),
            vec![
                Injection {
                    site: Site::Execute,
                    call: 1,
                    fault: Fault::Error
                },
                Injection {
                    site: Site::Execute,
                    call: 3,
                    fault: Fault::Latency(Duration::from_millis(1))
                },
            ]
        );
    }

    #[test]
    fn seeded_scatter_is_deterministic_per_seed() {
        let a = FaultPlan::seeded(42)
            .scatter_execute(5, 50, Fault::Error)
            .build();
        let b = FaultPlan::seeded(42)
            .scatter_execute(5, 50, Fault::Error)
            .build();
        let c = FaultPlan::seeded(43)
            .scatter_execute(5, 50, Fault::Error)
            .build();
        assert_eq!(a.execute_schedule(), b.execute_schedule());
        assert_ne!(a.execute_schedule(), c.execute_schedule());
        assert_eq!(a.execute_schedule().len(), 5);
    }

    #[test]
    fn prepare_fault_is_transient_not_sticky() {
        let (cat, p) = tiny();
        let plan = FaultPlan::fault_prepare(0, Fault::Error);
        let backend = plan.wrap(Arc::new(InterpBackend::new()));
        assert!(backend.prepare(&p, &cat).is_err());
        let prepared = backend.prepare(&p, &cat).expect("second prepare clean");
        assert!(prepared.execute(&cat).is_ok());
    }

    #[test]
    fn hook_runs_before_the_call_it_is_keyed_to() {
        let (cat, p) = tiny();
        let plan = FaultPlan::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        plan.on_execute(1, move |call| seen2.lock().unwrap().push(call));
        let backend = plan.wrap(Arc::new(InterpBackend::new()));
        let prepared = backend.prepare(&p, &cat).unwrap();
        prepared.execute(&cat).unwrap();
        assert!(seen.lock().unwrap().is_empty());
        prepared.execute(&cat).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![1]);
    }
}
