//! The serving front door: a bounded admission queue in front of a
//! shared [`Engine`], drained by a fixed worker pool with per-session
//! weighted-fair dequeueing and explicit overload shedding.
//!
//! PR 2 made the stack thread-safe, but a thread-per-statement fan-out
//! has no backpressure: under offered load beyond capacity it just grows
//! threads and latency without bound. This module is the missing front
//! door. Requests are [`StatementSpec`]s; admission is explicit:
//!
//! * [`ServeSession::submit`] — non-blocking. A full queue **sheds** the
//!   request ([`SubmitError::QueueFull`]) instead of queueing it; the
//!   shed is counted per session and on the engine
//!   ([`crate::EngineMetrics::sheds`]).
//! * [`ServeSession::submit_wait`] — blocking admission with an optional
//!   deadline; expiry returns [`SubmitError::Timeout`], never a hang.
//!
//! # Adaptive overload control
//!
//! The hard queue bound is the *blunt* defense. With
//! [`ServeConfig::with_overload`] the server also runs the CoDel-style
//! admission controller ([`crate::OverloadConfig`], see
//! [`crate::overload`]): workers feed it the queue wait of every
//! dequeued statement, and while even the minimum wait over a full
//! interval exceeds the target, newly arriving `submit`s are shed
//! probabilistically ([`SubmitError::Overloaded`]) *before* the queue
//! fills — bounding sojourn instead of queue length. Three companions:
//!
//! * **Quotas** — [`ServerHandle::session_with_quota`] attaches a
//!   token bucket of observed service-seconds to a session; an empty
//!   bucket sheds that tenant ([`SubmitError::QuotaExceeded`]) while
//!   others keep their latency.
//! * **Deadline propagation** — the deadline given to
//!   [`ServeSession::submit_wait`] / [`ServeSession::submit_deadline`]
//!   rides with the admitted statement: if it expires while the
//!   statement is still queued, the worker drops it at dequeue
//!   ([`ServeError::Timeout`], counted as `timed_out`) instead of
//!   executing work nobody is waiting for.
//! * **Parallelism-budget scaling** — each worker's morsel-pool lease
//!   shrinks linearly with queue depth (from the full `cores/workers`
//!   budget at an empty queue down to 1 at a full one): under pressure
//!   the machine serves *more statements* rather than *each statement
//!   faster*.
//!
//! Clients shed with a retryable error converge with
//! [`crate::Retry`] — capped exponential backoff with decorrelated
//! jitter — instead of thundering back in lockstep.
//!
//! Admitted work returns a [`Receipt`] — a one-shot future on std
//! primitives (`Mutex` + `Condvar`, no new dependencies). Workers drain
//! the queue in **weighted-fair** order across sessions (min virtual
//! time, FIFO within a session), execute through the engine's plan cache
//! and record into its latency reservoir; a worker panic fails only the
//! panicking receipt ([`ServeError::WorkerPanic`]) while the pool keeps
//! serving.
//!
//! Serve workers do not nest thread spawns for intra-statement
//! parallelism: each worker carries a parallelism *budget* of
//! `cores / workers` ([`voodoo_compile::exec::set_parallelism_budget`])
//! that caps how many morsels its statements offer the engine's
//! persistent work-stealing pool ([`Engine::morsel_pool`]) — admission
//! workers and morsel workers lease the same machine instead of
//! multiplying against each other.
//!
//! ```
//! use std::sync::Arc;
//! use voodoo_relational::{Engine, ServeConfig, StatementSpec};
//! use voodoo_tpch::queries::Query;
//!
//! let engine = Arc::new(Engine::tpch(0.002));
//! let server = engine.serve(ServeConfig::default().with_workers(2));
//! let alice = server.session(1);
//! let receipt = alice.submit(StatementSpec::tpch(Query::Q6)).unwrap();
//! let rows = receipt.wait().unwrap().into_rows();
//! assert!(!rows.is_empty());
//! assert_eq!(alice.stats().served, 1);
//! assert!(engine.metrics().queries_served >= 1);
//! server.shutdown();
//! ```
//!
//! Retry a shed admission with jittered backoff, and propagate a
//! completion deadline so work that can no longer meet it is dropped
//! at dequeue instead of executed late:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::{Duration, Instant};
//! use voodoo_relational::{Engine, Retry, ServeConfig, StatementSpec};
//! use voodoo_tpch::queries::Query;
//!
//! let engine = Arc::new(Engine::tpch(0.002));
//! let server = engine.serve(
//!     ServeConfig::default().with_workers(2).with_queue_capacity(4),
//! );
//! let tenant = server.session(1);
//!
//! // Shed refusals (`QueueFull` / `Overloaded` / `QuotaExceeded`) are
//! // retryable; `Retry` converges with capped decorrelated jitter
//! // instead of thundering back in lockstep.
//! let receipt = Retry::new()
//!     .run(|| tenant.submit_deadline(
//!         StatementSpec::tpch(Query::Q6),
//!         Instant::now() + Duration::from_secs(60),
//!     ))
//!     .unwrap();
//! assert!(receipt.wait().is_ok(), "generous deadline: it serves");
//! server.shutdown();
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use voodoo_core::{Diagnostic, VoodooError};

use crate::engine::Engine;
use crate::overload::{Controller, OverloadConfig, Quota, TokenBucket};
use crate::statement::{StatementOutput, StatementSpec};

/// Default bound on admitted-but-not-yet-executing statements.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Weight granularity for the fair scheduler's virtual clock.
const WFQ_SCALE: u64 = 1 << 20;

// ---------------------------------------------------------------------
// Configuration and error types
// ---------------------------------------------------------------------

/// Sizing for a [`ServerHandle`]: how much work may wait, and how many
/// workers drain it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum admitted statements waiting to execute (excess is shed).
    pub queue_capacity: usize,
    /// Fixed worker-pool size.
    pub workers: usize,
    /// Adaptive admission control; `None` (the default) keeps admission
    /// blunt (hard queue bound only).
    pub overload: Option<OverloadConfig>,
    /// Base intra-statement parallelism budget per worker; defaults to
    /// `cores / workers`. The effective budget shrinks linearly as the
    /// queue fills (down to 1 at a full queue).
    pub intra_budget: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(8),
            overload: None,
            intra_budget: None,
        }
    }
}

impl ServeConfig {
    /// Override the queue capacity (minimum 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Override the worker count (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers.max(1);
        self
    }

    /// Enable the CoDel-style adaptive admission controller.
    pub fn with_overload(mut self, overload: OverloadConfig) -> ServeConfig {
        self.overload = Some(overload);
        self
    }

    /// Override the per-worker base parallelism budget (minimum 1).
    pub fn with_intra_budget(mut self, budget: usize) -> ServeConfig {
        self.intra_budget = Some(budget.max(1));
        self
    }
}

/// Why a submission was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity and [`ServeSession::submit`] does not
    /// block: the request was shed.
    QueueFull,
    /// [`ServeSession::submit_wait`]'s deadline expired before space
    /// opened up.
    Timeout,
    /// The server has shut down.
    Shutdown,
    /// The adaptive admission controller is shedding: queue wait has
    /// exceeded the sojourn target for a full interval (see
    /// [`crate::OverloadConfig`]). Transient by design — retry with
    /// backoff ([`crate::Retry`]).
    Overloaded,
    /// The session's service-time quota is exhausted (see
    /// [`ServerHandle::session_with_quota`]). Refills continuously at
    /// the quota rate, so this too is retryable.
    QuotaExceeded,
}

impl SubmitError {
    /// Whether retrying (with backoff) can succeed without operator
    /// intervention. `QueueFull`, `Overloaded`, and `QuotaExceeded` are
    /// load conditions that drain on their own; `Timeout` means the
    /// caller's own deadline has already passed and `Shutdown` is
    /// permanent.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SubmitError::QueueFull | SubmitError::Overloaded | SubmitError::QuotaExceeded
        )
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue full: request shed"),
            SubmitError::Timeout => write!(f, "admission deadline expired"),
            SubmitError::Shutdown => write!(f, "server is shut down"),
            SubmitError::Overloaded => {
                write!(f, "server overloaded: adaptive controller shed the request")
            }
            SubmitError::QuotaExceeded => write!(f, "session service-time quota exhausted"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<SubmitError> for VoodooError {
    fn from(e: SubmitError) -> VoodooError {
        VoodooError::Backend(format!("admission refused: {e}"))
    }
}

/// Why an *admitted* statement failed to produce output.
#[derive(Debug)]
pub enum ServeError {
    /// The engine executed the statement and returned an error.
    Engine(VoodooError),
    /// The executing worker panicked; only this receipt fails — the pool
    /// keeps serving.
    WorkerPanic(String),
    /// [`Receipt::wait_deadline`] expired before the statement completed.
    /// (Shutdown is not a receipt failure: [`ServerHandle::shutdown`]
    /// drains every admitted statement before the workers exit.)
    Timeout,
}

impl ServeError {
    /// Collapse into the engine-wide error type (used by
    /// [`Engine::run_batch`], whose callers predate the serve layer).
    pub fn into_engine_error(self) -> VoodooError {
        match self {
            ServeError::Engine(e) => e,
            ServeError::WorkerPanic(msg) => {
                VoodooError::Backend(format!("worker panicked during execution: {msg}"))
            }
            ServeError::Timeout => VoodooError::Backend("serve deadline expired".to_string()),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            ServeError::Timeout => write!(f, "deadline expired before completion"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

/// Result of one admitted statement.
pub type ServeResult = Result<StatementOutput, ServeError>;

// ---------------------------------------------------------------------
// Receipt: a one-shot completion future on std primitives
// ---------------------------------------------------------------------

/// A finished statement: its result plus the admission-to-completion
/// sojourn (queue wait + execution) — the open-loop latency a client
/// observes.
#[derive(Debug)]
pub struct Completion {
    /// The statement's outcome.
    pub result: ServeResult,
    /// Submit-to-completion time.
    pub sojourn: Duration,
}

struct ReceiptState {
    slot: Mutex<Option<(ServeResult, Duration)>>,
    done: Condvar,
    submitted_at: Instant,
}

impl ReceiptState {
    fn fulfill(&self, result: ServeResult) {
        let sojourn = self.submitted_at.elapsed();
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some((result, sojourn));
        self.done.notify_all();
    }
}

/// A typed completion handle for one admitted statement — a one-shot
/// channel on `Mutex` + `Condvar`.
pub struct Receipt {
    state: Arc<ReceiptState>,
}

impl std::fmt::Debug for Receipt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = self.state.slot.lock().map(|s| s.is_some()).unwrap_or(false);
        f.debug_struct("Receipt").field("done", &done).finish()
    }
}

impl Receipt {
    /// Block until the statement completes.
    pub fn wait(self) -> ServeResult {
        self.wait_completion().result
    }

    /// Block until completion, also reporting the sojourn time.
    pub fn wait_completion(self) -> Completion {
        let mut slot = self.state.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some((result, sojourn)) = slot.take() {
                return Completion { result, sojourn };
            }
            slot = self
                .state
                .done
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Block until the statement completes or `deadline` passes —
    /// expiry returns [`ServeError::Timeout`], never a hang. (The
    /// statement itself stays queued and will still execute; only the
    /// caller stops waiting.)
    pub fn wait_deadline(self, deadline: Instant) -> ServeResult {
        let mut slot = self.state.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some((result, _)) = slot.take() {
                return result;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServeError::Timeout);
            }
            slot = self
                .state
                .done
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Whether the statement has completed (non-blocking, non-consuming).
    pub fn is_done(&self) -> bool {
        self.state
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Non-blocking poll: the completion if the statement has finished,
    /// or the receipt back if it has not. Consuming `self` keeps the
    /// one-shot contract honest — a receipt whose result was taken can
    /// no longer be `wait`ed on (which would block forever).
    pub fn try_take(self) -> Result<Completion, Receipt> {
        let taken = self
            .state
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        match taken {
            Some((result, sojourn)) => Ok(Completion { result, sojourn }),
            None => Err(self),
        }
    }
}

// ---------------------------------------------------------------------
// Queue state
// ---------------------------------------------------------------------

/// Per-session serving counters (cumulative since the session opened).
///
/// Every submission terminates in exactly one bucket:
/// `submitted == served + shed + timed_out` once the session quiesces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionServeStats {
    /// Statements submitted — admitted **or** shed (every attempt).
    pub submitted: u64,
    /// Statements executed to completion (successfully or not).
    pub served: u64,
    /// Statements refused admission (queue full, admission-wait expiry,
    /// adaptive controller, or quota).
    pub shed: u64,
    /// Admitted statements dropped at dequeue because their propagated
    /// deadline had already expired (see [`ServeSession::submit_deadline`]).
    pub timed_out: u64,
    /// Plan-cache hits attributed to this session's executions.
    pub cache_hits: u64,
    /// Plan-cache misses (preparations) attributed to this session.
    pub cache_misses: u64,
}

#[derive(Default)]
struct SessionCounters {
    submitted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl SessionCounters {
    fn snapshot(&self) -> SessionServeStats {
        SessionServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }
}

/// A session's service-time budget, shared (behind its own lock) between
/// the admission path and the worker that debits observed service time.
type SharedBucket = Arc<Mutex<TokenBucket>>;

struct Job {
    spec: StatementSpec,
    /// Index of the submitting session — the `[serve/session-<n>]`
    /// error-attribution prefix.
    session: usize,
    receipt: Arc<ReceiptState>,
    /// The submitting session's counters, carried with the job so the
    /// executing worker never re-locks the queue to attribute work.
    counters: Arc<SessionCounters>,
    /// The session's quota bucket (if any), debited by observed service
    /// time after execution.
    bucket: Option<SharedBucket>,
    /// When the job entered the queue — workers feed the wait into the
    /// adaptive controller.
    enqueued_at: Instant,
    /// Propagated completion deadline: expired jobs are dropped at
    /// dequeue instead of executed.
    deadline: Option<Instant>,
}

struct SessionSlot {
    weight: u64,
    /// Virtual time consumed: advances by `WFQ_SCALE / weight` per
    /// dequeued statement, so heavier sessions advance slower and get
    /// proportionally more turns.
    vtime: u64,
    queue: VecDeque<Job>,
    counters: Arc<SessionCounters>,
    /// Service-time quota; `None` means unlimited.
    bucket: Option<SharedBucket>,
}

struct QueueState {
    sessions: Vec<SessionSlot>,
    /// Admitted statements not yet handed to a worker (sum of queues).
    queued: usize,
    /// Virtual start time of the most recently dequeued statement; new
    /// or re-activated sessions join at this clock so an idle session
    /// cannot bank credit and starve the others.
    global_vtime: u64,
    /// CoDel-style adaptive admission controller (None = blunt mode).
    controller: Option<Controller>,
    shutdown: bool,
}

/// Which admission defense refused the request (for metric attribution).
#[derive(Clone, Copy)]
enum ShedKind {
    /// Hard queue bound or admission-wait expiry.
    Blunt,
    /// The adaptive controller's probabilistic early shed.
    Adaptive,
    /// A per-session quota bucket ran dry.
    Quota,
}

struct ServeShared {
    engine: Arc<Engine>,
    capacity: usize,
    /// Full per-worker intra-statement parallelism budget (at an empty
    /// queue); shrinks linearly with queue depth.
    base_budget: usize,
    state: Mutex<QueueState>,
    /// Workers wait here for jobs.
    job_ready: Condvar,
    /// Blocking submitters wait here for queue space.
    space_ready: Condvar,
    submitted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
}

impl ServeShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        // A panicking worker fulfills its receipt and never poisons the
        // queue mid-update, so the poison flag carries no information.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pop the next job in weighted-fair order: the non-empty session
    /// with the smallest virtual time (ties broken by session id), FIFO
    /// within the session. Feeds the job's queue wait into the adaptive
    /// controller and returns the intra-statement parallelism budget for
    /// executing it (shrinking linearly as the queue fills).
    fn dequeue(&self, st: &mut QueueState) -> Option<(Job, usize)> {
        let idx = st
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.queue.is_empty())
            .min_by_key(|(i, s)| (s.vtime, *i))
            .map(|(i, _)| i)?;
        let slot = &mut st.sessions[idx];
        st.global_vtime = slot.vtime;
        // `.max(1)`: a weight above WFQ_SCALE must still advance the
        // clock, or that session would win every tie and starve the rest.
        slot.vtime += (WFQ_SCALE / slot.weight).max(1);
        let job = slot.queue.pop_front().expect("non-empty by filter");
        st.queued -= 1;
        self.engine.queue_depth_dec();
        let now = Instant::now();
        if let Some(c) = st.controller.as_mut() {
            c.observe(now.saturating_duration_since(job.enqueued_at), now);
        }
        // Linear lease shrink: full budget at an empty queue, 1 at a
        // full one. `queued` is post-pop, so the last waiter still gets
        // more than the floor.
        let budget = self
            .base_budget
            .saturating_sub(self.base_budget * st.queued / self.capacity)
            .max(1);
        Some((job, budget))
    }

    fn admit(
        &self,
        st: &mut QueueState,
        session: usize,
        spec: StatementSpec,
        deadline: Option<Instant>,
    ) -> Receipt {
        let receipt = Arc::new(ReceiptState {
            slot: Mutex::new(None),
            done: Condvar::new(),
            submitted_at: Instant::now(),
        });
        let slot = &mut st.sessions[session];
        if slot.queue.is_empty() {
            // Re-activating after idling: join at the current clock.
            slot.vtime = slot.vtime.max(st.global_vtime);
        }
        slot.counters.submitted.fetch_add(1, Ordering::Relaxed);
        slot.queue.push_back(Job {
            spec,
            session,
            receipt: Arc::clone(&receipt),
            counters: Arc::clone(&slot.counters),
            bucket: slot.bucket.clone(),
            enqueued_at: Instant::now(),
            deadline,
        });
        st.queued += 1;
        self.engine.queue_depth_inc();
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.job_ready.notify_one();
        Receipt { state: receipt }
    }

    fn record_shed(&self, st: &QueueState, session: usize, kind: ShedKind) {
        let counters = &st.sessions[session].counters;
        // A shed attempt still counts as submitted, so
        // `submitted == served + shed + timed_out` holds at quiescence.
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        counters.shed.fetch_add(1, Ordering::Relaxed);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.engine.record_shed();
        match kind {
            ShedKind::Blunt => {}
            ShedKind::Adaptive => self.engine.record_adaptive_shed(),
            ShedKind::Quota => self.engine.record_quota_shed(),
        }
    }

    /// Quota gate: `Some(err)` if the session has a bucket and it is
    /// empty. Does not consume tokens — observed service time is debited
    /// after execution.
    fn quota_refused(&self, st: &QueueState, session: usize) -> bool {
        match &st.sessions[session].bucket {
            Some(bucket) => !bucket
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .admit(Instant::now()),
            None => false,
        }
    }

    fn submit(
        &self,
        session: usize,
        spec: StatementSpec,
        deadline: Option<Instant>,
    ) -> Result<Receipt, SubmitError> {
        let mut st = self.lock();
        if st.shutdown {
            return Err(SubmitError::Shutdown);
        }
        if st.queued >= self.capacity {
            self.record_shed(&st, session, ShedKind::Blunt);
            return Err(SubmitError::QueueFull);
        }
        if self.quota_refused(&st, session) {
            self.record_shed(&st, session, ShedKind::Quota);
            return Err(SubmitError::QuotaExceeded);
        }
        if st.controller.as_mut().is_some_and(|c| c.should_shed()) {
            self.record_shed(&st, session, ShedKind::Adaptive);
            return Err(SubmitError::Overloaded);
        }
        Ok(self.admit(&mut st, session, spec, deadline))
    }

    fn submit_wait(
        &self,
        session: usize,
        spec: StatementSpec,
        deadline: Option<Instant>,
    ) -> Result<Receipt, SubmitError> {
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return Err(SubmitError::Shutdown);
            }
            // Quota sheds immediately even on the blocking path: waiting
            // does not make a dry bucket another tenant's problem.
            if self.quota_refused(&st, session) {
                self.record_shed(&st, session, ShedKind::Quota);
                return Err(SubmitError::QuotaExceeded);
            }
            // No adaptive shed here: blocking on `space_ready` *is* the
            // backpressure the controller exists to create.
            if st.queued < self.capacity {
                return Ok(self.admit(&mut st, session, spec, deadline));
            }
            match deadline {
                None => {
                    st = self.space_ready.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        self.record_shed(&st, session, ShedKind::Blunt);
                        return Err(SubmitError::Timeout);
                    }
                    st = self
                        .space_ready
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------

/// Prefix a backend-reported failure with its serving origin. Only the
/// free-form [`VoodooError::Backend`] payload is touched: the structured
/// variants (unknown table, type mismatch, …) are matched on by callers
/// and already name their own culprit.
fn attribute_engine_error(e: VoodooError, origin: &str) -> VoodooError {
    match e {
        VoodooError::Backend(msg) => VoodooError::Backend(format!("[{origin}] {msg}")),
        other => other,
    }
}

fn worker_loop(shared: Arc<ServeShared>) {
    loop {
        let (job, budget) = {
            let mut st = shared.lock();
            loop {
                if let Some(next) = shared.dequeue(&mut st) {
                    break next;
                }
                if st.shutdown {
                    return;
                }
                st = shared.job_ready.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // A slot just opened: wake one blocked submitter.
        shared.space_ready.notify_one();

        let counters = &job.counters;

        // Deadline propagation: a statement whose deadline already
        // passed while queued is dead on arrival — drop it here instead
        // of spending service time nobody is waiting for.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            counters.timed_out.fetch_add(1, Ordering::Relaxed);
            shared.timed_out.fetch_add(1, Ordering::Relaxed);
            shared.engine.record_deadline_drop();
            job.receipt.fulfill(Err(ServeError::Timeout));
            continue;
        }

        // Intra-statement parallelism shrinks with queue depth: under
        // pressure the pool serves more statements, not each faster.
        voodoo_compile::exec::set_parallelism_budget(Some(budget));
        let started = Instant::now();
        // The execution scope catches a panicking statement itself (and
        // counts it as a failure), so only this receipt fails.
        let executed = shared.engine.run_spec(&job.spec);
        counters
            .cache_hits
            .fetch_add(executed.cache_hits, Ordering::Relaxed);
        counters
            .cache_misses
            .fetch_add(executed.cache_misses, Ordering::Relaxed);
        if let Some(bucket) = &job.bucket {
            bucket
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .debit(started.elapsed());
        }
        // Failures name the session they came from.
        let origin = || format!("serve/session-{}", job.session);
        let result = match executed.outcome {
            Ok(Ok(output)) => Ok(output),
            Ok(Err(e)) => Err(ServeError::Engine(attribute_engine_error(e, &origin()))),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(ServeError::WorkerPanic(format!("[{}] {msg}", origin())))
            }
        };
        counters.served.fetch_add(1, Ordering::Relaxed);
        shared.served.fetch_add(1, Ordering::Relaxed);
        shared
            .engine
            .record_sojourn(job.receipt.submitted_at.elapsed());
        job.receipt.fulfill(result);
    }
}

// ---------------------------------------------------------------------
// Public handles
// ---------------------------------------------------------------------

/// Aggregate serving counters for one [`ServerHandle`].
///
/// Every submission terminates in exactly one bucket:
/// `submitted == served + shed + timed_out` once the server quiesces
/// (queue drained, no in-flight statements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Statements submitted since the server started — admitted **or**
    /// shed (every attempt).
    pub submitted: u64,
    /// Statements executed to completion.
    pub served: u64,
    /// Statements refused admission (queue full, admission-wait expiry,
    /// adaptive controller, or quota).
    pub shed: u64,
    /// Admitted statements dropped at dequeue on an expired propagated
    /// deadline.
    pub timed_out: u64,
    /// Admitted statements currently waiting for a worker.
    pub queue_depth: usize,
    /// The admission bound.
    pub capacity: usize,
    /// Worker-pool size.
    pub workers: usize,
}

/// The serving front door over one shared [`Engine`]: accepts
/// [`StatementSpec`]s from any thread, sheds on overload, and drains
/// through a fixed worker pool in weighted-fair session order.
///
/// Dropping the handle shuts the pool down gracefully (queued work is
/// drained first); [`ServerHandle::shutdown`] does the same explicitly.
pub struct ServerHandle {
    shared: Arc<ServeShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    worker_count: usize,
}

impl ServerHandle {
    pub(crate) fn start(engine: Arc<Engine>, config: ServeConfig) -> ServerHandle {
        let capacity = config.queue_capacity.max(1);
        let worker_count = config.workers.max(1);
        // Lease the machine between the admission pool and the shared
        // morsel pool: each serve worker carries a parallelism budget
        // (default `cores / workers`), which caps how many morsel
        // workers a statement's `Parallelism::Auto` (and even
        // `Fixed(n)`) resolves to — i.e. how many slots of the engine's
        // persistent work-stealing pool it *offers* work for. The pool's
        // own worker count bounds what actually runs at once, so a
        // saturated serve pool composes to the machine instead of
        // `workers × cores` — and no statement spawns threads of its own
        // anymore. The effective lease shrinks with queue depth (see
        // `ServeShared::dequeue`).
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let base_budget = config.intra_budget.unwrap_or(cores / worker_count).max(1);
        let shared = Arc::new(ServeShared {
            engine,
            capacity,
            base_budget,
            state: Mutex::new(QueueState {
                // Session 0 backs the handle-level submit helpers.
                sessions: vec![SessionSlot {
                    weight: 1,
                    vtime: 0,
                    queue: VecDeque::new(),
                    counters: Arc::new(SessionCounters::default()),
                    bucket: None,
                }],
                queued: 0,
                global_vtime: 0,
                controller: config
                    .overload
                    .map(|cfg| Controller::new(cfg, Instant::now())),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            space_ready: Condvar::new(),
            submitted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("voodoo-serve-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn serve worker")
            })
            .collect();
        ServerHandle {
            shared,
            workers: Mutex::new(workers),
            worker_count,
        }
    }

    /// Open a weighted serving session. Weights are relative: under
    /// saturation a session receives `weight / total_weight` of the
    /// worker pool's attention; FIFO order holds within a session.
    pub fn session(&self, weight: u32) -> ServeSession {
        self.open_session(weight, None)
    }

    /// Open a weighted session with a service-time quota: a token
    /// bucket holding `quota.burst` seconds of service, refilled at
    /// `quota.rate` seconds-per-second, debited by the *observed*
    /// execution time of each statement. An empty bucket sheds the
    /// session's submissions ([`SubmitError::QuotaExceeded`]) — on the
    /// blocking path too — while other tenants keep their latency.
    pub fn session_with_quota(&self, weight: u32, quota: Quota) -> ServeSession {
        self.open_session(
            weight,
            Some(Arc::new(Mutex::new(TokenBucket::new(
                quota,
                Instant::now(),
            )))),
        )
    }

    fn open_session(&self, weight: u32, bucket: Option<SharedBucket>) -> ServeSession {
        let counters = Arc::new(SessionCounters::default());
        let mut st = self.shared.lock();
        let idx = st.sessions.len();
        let vtime = st.global_vtime;
        st.sessions.push(SessionSlot {
            weight: weight.max(1) as u64,
            vtime,
            queue: VecDeque::new(),
            counters: Arc::clone(&counters),
            bucket: bucket.clone(),
        });
        drop(st);
        ServeSession {
            shared: Arc::clone(&self.shared),
            idx,
            counters,
            bucket,
        }
    }

    /// Non-blocking admission on the handle's built-in session 0; a full
    /// queue sheds ([`SubmitError::QueueFull`]).
    pub fn submit(&self, spec: StatementSpec) -> Result<Receipt, SubmitError> {
        self.shared.submit(0, spec, None)
    }

    /// Blocking admission on session 0: waits for queue space until the
    /// optional deadline ([`SubmitError::Timeout`] on expiry). The
    /// deadline also propagates into execution: if it expires while the
    /// admitted statement is still queued, the worker drops it at
    /// dequeue ([`ServeError::Timeout`]).
    pub fn submit_wait(
        &self,
        spec: StatementSpec,
        deadline: Option<Instant>,
    ) -> Result<Receipt, SubmitError> {
        self.shared.submit_wait(0, spec, deadline)
    }

    /// Current shed probability of the adaptive admission controller
    /// (0.0 when overload control is disabled or the queue is healthy).
    pub fn shed_probability(&self) -> f64 {
        self.shared
            .lock()
            .controller
            .as_ref()
            .map_or(0.0, |c| c.shed_probability())
    }

    /// Static diagnostics for a spec, synchronously on the calling thread
    /// and without taking a queue slot — a pre-admission check that a
    /// statement will pass every backend's prepare-time analyzer. See
    /// [`Engine::verify_spec`].
    pub fn verify(&self, spec: &StatementSpec) -> Vec<Diagnostic> {
        self.shared.engine.verify_spec(spec)
    }

    /// Aggregate serving counters.
    pub fn stats(&self) -> ServeStats {
        let queue_depth = self.shared.lock().queued;
        ServeStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            served: self.shared.served.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            timed_out: self.shared.timed_out.load(Ordering::Relaxed),
            queue_depth,
            capacity: self.shared.capacity,
            workers: self.worker_count,
        }
    }

    /// Admitted statements currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().queued
    }

    /// Stop accepting work, drain the queue, and join the workers.
    /// Already-admitted statements still execute; blocked submitters get
    /// [`SubmitError::Shutdown`]. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.space_ready.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A weighted admission handle onto a [`ServerHandle`]. Cheap to clone;
/// safe to share across threads.
#[derive(Clone)]
pub struct ServeSession {
    shared: Arc<ServeShared>,
    idx: usize,
    /// Captured at creation so [`ServeSession::stats`] never touches the
    /// admission-queue lock (the counters are plain atomics).
    counters: Arc<SessionCounters>,
    /// The session's quota bucket, if opened with
    /// [`ServerHandle::session_with_quota`].
    bucket: Option<SharedBucket>,
}

impl ServeSession {
    /// Non-blocking admission; a full queue sheds the request
    /// ([`SubmitError::QueueFull`]) and bumps the shed counters. With
    /// overload control enabled the adaptive controller may also shed
    /// ([`SubmitError::Overloaded`]); a dry quota bucket sheds with
    /// [`SubmitError::QuotaExceeded`].
    pub fn submit(&self, spec: StatementSpec) -> Result<Receipt, SubmitError> {
        self.shared.submit(self.idx, spec, None)
    }

    /// Non-blocking admission with a propagated completion deadline: if
    /// it expires while the statement is still queued, the worker drops
    /// it at dequeue ([`ServeError::Timeout`], counted in
    /// [`SessionServeStats::timed_out`]) instead of executing it.
    pub fn submit_deadline(
        &self,
        spec: StatementSpec,
        deadline: Instant,
    ) -> Result<Receipt, SubmitError> {
        self.shared.submit(self.idx, spec, Some(deadline))
    }

    /// Blocking admission: waits for queue space until the optional
    /// deadline; expiry returns [`SubmitError::Timeout`], never a hang.
    /// The deadline also propagates into execution (see
    /// [`ServeSession::submit_deadline`]).
    pub fn submit_wait(
        &self,
        spec: StatementSpec,
        deadline: Option<Instant>,
    ) -> Result<Receipt, SubmitError> {
        self.shared.submit_wait(self.idx, spec, deadline)
    }

    /// This session's error-attribution origin, `serve/session-<n>` —
    /// the prefix its execution failures carry. Session 0 is the
    /// handle's own; opened sessions count up from 1.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use voodoo_relational::{Engine, ServeConfig};
    /// use voodoo_storage::Catalog;
    ///
    /// let engine = Arc::new(Engine::new(Catalog::in_memory()));
    /// let server = engine.serve(ServeConfig::default().with_workers(1));
    /// assert_eq!(server.session(1).origin(), "serve/session-1");
    /// assert_eq!(server.session(1).origin(), "serve/session-2");
    /// server.shutdown();
    /// ```
    pub fn origin(&self) -> String {
        format!("serve/session-{}", self.idx)
    }

    /// Seconds of service time left in this session's quota bucket
    /// (`None` for unlimited sessions).
    pub fn quota_balance(&self) -> Option<f64> {
        self.bucket
            .as_ref()
            .map(|b| b.lock().unwrap_or_else(|e| e.into_inner()).balance())
    }

    /// This session's cumulative serving counters (lock-free: the
    /// counters are atomics captured at session creation).
    pub fn stats(&self) -> SessionServeStats {
        self.counters.snapshot()
    }

    /// Static diagnostics for a spec, synchronously and without taking a
    /// queue slot. See [`ServerHandle::verify`].
    pub fn verify(&self, spec: &StatementSpec) -> Vec<Diagnostic> {
        self.shared.engine.verify_spec(spec)
    }
}
