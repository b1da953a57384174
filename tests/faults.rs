//! Acceptance tests for deterministic fault injection (`voodoo-faults`)
//! through the serving front door: every injected fault — error, panic,
//! pool poisoning, latency spike, prepare failure — surfaces as exactly
//! one failed `Receipt`; the server, morsel pool, and plan cache recover
//! to a bit-identical steady state on all three backends; and one seed
//! yields one failure sequence (run the suite under a different
//! `VOODOO_FAULT_SEED` and the *schedule* changes, the guarantees don't).

use std::sync::Arc;
use std::time::{Duration, Instant};

use voodoo::core::{KeyPath, Program, VoodooError};
use voodoo::faults::{Fault, FaultPlan};
use voodoo::relational::{Engine, ServeConfig, ServeError, StatementSpec};
use voodoo::storage::Catalog;
use voodoo::tpch::queries::Query;

/// Seed for the scattered-fault tests; CI runs the suite twice with
/// different values to prove the harness (not one lucky schedule) holds.
fn fault_seed() -> u64 {
    std::env::var("VOODOO_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xfa0175)
}

/// A one-table engine whose statements sum the `t` column.
fn small_engine() -> Arc<Engine> {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &[1, 2, 3]);
    Arc::new(Engine::new(cat))
}

fn sum_spec(backend: &str) -> StatementSpec {
    let mut p = Program::new();
    let t = p.load("t");
    let total = p.fold_sum_global(t);
    p.ret(total);
    StatementSpec::program(p).on(backend)
}

fn sum_of(out: &voodoo::relational::StatementOutput) -> i64 {
    out.raw().returns[0]
        .value_at(0, &KeyPath::val())
        .map(|v| v.as_i64())
        .expect("sum return")
}

/// Wrap the engine's registered `backend` in `plan`.
fn wrap_backend(engine: &Arc<Engine>, backend: &str, plan: &FaultPlan) {
    let inner = engine.backend(backend).expect("backend registered");
    engine.register(backend, plan.wrap(inner));
}

// ---------------------------------------------------------------------
// Exactly one failed receipt per injected fault (seeded schedule)
// ---------------------------------------------------------------------

#[test]
fn every_scattered_fault_fails_exactly_one_receipt() {
    const N: u64 = 30;
    const FAULTS: usize = 5;
    let plan = FaultPlan::seeded(fault_seed())
        .scatter_execute(FAULTS, N, Fault::Error)
        .build();
    let engine = small_engine();
    wrap_backend(&engine, "interp", &plan);

    // One worker, FIFO within one session: the i-th submission is the
    // i-th execute call, so the failure set is exactly the schedule.
    let server = engine.serve(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(N as usize),
    );
    let session = server.session(1);
    let receipts: Vec<_> = (0..N)
        .map(|_| session.submit_wait(sum_spec("interp"), None).unwrap())
        .collect();
    let outcomes: Vec<bool> = receipts.into_iter().map(|r| r.wait().is_ok()).collect();
    server.shutdown();

    let scheduled: Vec<u64> = plan.execute_schedule().iter().map(|(i, _)| *i).collect();
    assert_eq!(scheduled.len(), FAULTS);
    for (i, ok) in outcomes.iter().enumerate() {
        assert_eq!(
            !*ok,
            scheduled.contains(&(i as u64)),
            "receipt {i}: failures must be exactly the injected schedule"
        );
    }
    assert_eq!(plan.log().len(), FAULTS, "every scheduled fault fired once");

    // Every admitted statement terminated — failed ones included.
    let s = session.stats();
    assert_eq!((s.submitted, s.served, s.shed, s.timed_out), (N, N, 0, 0));
}

// ---------------------------------------------------------------------
// Each fault kind is scoped to its own receipt; the pool keeps serving
// ---------------------------------------------------------------------

#[test]
fn fault_kinds_fail_their_receipt_and_only_theirs() {
    let plan = FaultPlan::build_with()
        .fault_execute(1, Fault::Error)
        .fault_execute(3, Fault::Panic)
        .fault_execute(5, Fault::PoolPoison)
        .fault_execute(7, Fault::Latency(Duration::from_millis(10)))
        .build();
    let engine = small_engine();
    // The compiled CPU backend so pool poisoning exercises the real
    // morsel pool underneath an executing statement.
    wrap_backend(&engine, "cpu", &plan);
    let server = engine.serve(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(16),
    );
    let session = server.session(1);

    let receipts: Vec<_> = (0..10)
        .map(|_| session.submit_wait(sum_spec("cpu"), None).unwrap())
        .collect();
    let outcomes: Vec<_> = receipts.into_iter().map(|r| r.wait()).collect();
    server.shutdown();

    for (i, out) in outcomes.iter().enumerate() {
        match (i, out) {
            (1, Err(ServeError::Engine(e))) => {
                assert!(e.to_string().contains("injected fault"), "got {e}")
            }
            (3, Err(ServeError::WorkerPanic(msg))) => {
                assert!(msg.contains("injected panic"), "got {msg}")
            }
            (5, Err(ServeError::WorkerPanic(msg))) => {
                assert!(msg.contains("injected pool poison"), "got {msg}")
            }
            (1 | 3 | 5, other) => panic!("receipt {i}: wrong failure {other:?}"),
            // Latency (call 7) perturbs timing only; everything else is
            // clean — and every success is the same bits.
            (_, Ok(out)) => assert_eq!(sum_of(out), 6),
            (_, Err(e)) => panic!("receipt {i} failed unexpectedly: {e}"),
        }
    }
    assert_eq!(plan.log().len(), 4);
    assert_eq!(engine.metrics().failures, 3, "latency is not a failure");
}

// ---------------------------------------------------------------------
// Failures name the session that submitted them
// ---------------------------------------------------------------------

#[test]
fn execution_failures_name_their_serve_session() {
    let plan = FaultPlan::build_with()
        .fault_execute(0, Fault::Error)
        .fault_execute(1, Fault::Panic)
        .build();
    let engine = small_engine();
    wrap_backend(&engine, "interp", &plan);
    let server = engine.serve(ServeConfig::default().with_workers(1));
    let (first, second) = (server.session(1), server.session(1));
    assert_eq!(first.origin(), "serve/session-1");
    assert_eq!(second.origin(), "serve/session-2");

    let failed = first
        .submit_wait(sum_spec("interp"), None)
        .unwrap()
        .wait()
        .unwrap_err();
    match failed {
        ServeError::Engine(VoodooError::Backend(msg)) => assert!(
            msg.starts_with("[serve/session-1] injected fault"),
            "error names session 1: {msg}"
        ),
        other => panic!("expected an engine error, got {other}"),
    }
    let panicked = second
        .submit_wait(sum_spec("interp"), None)
        .unwrap()
        .wait()
        .unwrap_err();
    match panicked {
        ServeError::WorkerPanic(msg) => assert!(
            msg.starts_with("[serve/session-2] injected panic"),
            "panic names session 2: {msg}"
        ),
        other => panic!("expected a worker panic, got {other}"),
    }

    // Both sessions serve cleanly once the schedule is spent.
    for session in [&first, &second] {
        let out = session
            .submit_wait(sum_spec("interp"), None)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(sum_of(&out), 6);
    }
    server.shutdown();
    assert_eq!(plan.log().len(), 2);
}

// ---------------------------------------------------------------------
// Post-fault steady state is bit-identical on all three backends
// ---------------------------------------------------------------------

#[test]
fn steady_state_after_faults_is_bit_identical_on_all_backends() {
    for backend in ["interp", "cpu", "gpu"] {
        let engine = Arc::new(Engine::tpch(0.002));
        let spec = StatementSpec::tpch(Query::Q6).on(backend);

        // Clean reference, served through the same front door.
        let reference = {
            let server = engine.serve(ServeConfig::default().with_workers(1));
            let rows = server
                .submit(spec.clone())
                .unwrap()
                .wait()
                .unwrap()
                .into_rows();
            server.shutdown();
            rows
        };

        // Inject an error then a panic, then let it run clean.
        let plan = FaultPlan::build_with()
            .fault_execute(0, Fault::Error)
            .fault_execute(1, Fault::Panic)
            .build();
        wrap_backend(&engine, backend, &plan);
        let server = engine.serve(ServeConfig::default().with_workers(1));
        let outcomes: Vec<_> = (0..5)
            .map(|_| server.submit(spec.clone()).unwrap().wait())
            .collect();
        server.shutdown();

        assert!(
            matches!(&outcomes[0], Err(ServeError::Engine(_))),
            "{backend}: injected error"
        );
        assert!(
            matches!(&outcomes[1], Err(ServeError::WorkerPanic(_))),
            "{backend}: injected panic"
        );
        for out in &outcomes[2..] {
            assert_eq!(
                out.as_ref().unwrap().rows(),
                &reference,
                "{backend}: post-fault results must be bit-identical to clean serving"
            );
        }
        assert_eq!(plan.log().len(), 2, "{backend}");
    }
}

// ---------------------------------------------------------------------
// Same seed, same sequence; a different seed is a different schedule
// ---------------------------------------------------------------------

#[test]
fn same_seed_yields_the_same_failure_sequence() {
    fn failed_indices(seed: u64) -> (Vec<(u64, Fault)>, Vec<usize>) {
        let plan = FaultPlan::seeded(seed)
            .scatter_execute(4, 20, Fault::Error)
            .build();
        let engine = small_engine();
        wrap_backend(&engine, "interp", &plan);
        let server = engine.serve(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(20),
        );
        let session = server.session(1);
        let receipts: Vec<_> = (0..20)
            .map(|_| session.submit_wait(sum_spec("interp"), None).unwrap())
            .collect();
        let failed = receipts
            .into_iter()
            .enumerate()
            .filter_map(|(i, r)| r.wait().is_err().then_some(i))
            .collect();
        server.shutdown();
        (plan.execute_schedule(), failed)
    }

    let seed = fault_seed();
    let (schedule_a, failed_a) = failed_indices(seed);
    let (schedule_b, failed_b) = failed_indices(seed);
    assert_eq!(schedule_a, schedule_b, "one seed, one schedule");
    assert_eq!(failed_a, failed_b, "one seed, one failure sequence");
    assert_eq!(failed_a.len(), 4);

    let (schedule_c, _) = failed_indices(seed.wrapping_add(1));
    assert_ne!(
        schedule_a, schedule_c,
        "a different seed reshapes the schedule"
    );
}

// ---------------------------------------------------------------------
// Prepare faults are transient: the plan cache never caches the error
// ---------------------------------------------------------------------

#[test]
fn prepare_fault_is_not_cached_by_the_plan_cache() {
    let plan = FaultPlan::fault_prepare(0, Fault::Error);
    let engine = small_engine();
    wrap_backend(&engine, "interp", &plan);
    let server = engine.serve(ServeConfig::default().with_workers(1));

    let first = server.submit(sum_spec("interp")).unwrap().wait();
    match first {
        Err(ServeError::Engine(e)) => assert!(e.to_string().contains("injected fault")),
        other => panic!("expected injected prepare error, got {other:?}"),
    }
    // The same statement again: the failed preparation was not cached,
    // prepare re-runs (clean this time) and the statement serves.
    let second = server.submit(sum_spec("interp")).unwrap().wait().unwrap();
    assert_eq!(sum_of(&second), 6);
    server.shutdown();
    assert_eq!(
        plan.prepare_calls(),
        2,
        "prepare retried, not served from cache"
    );
}

// ---------------------------------------------------------------------
// Catalog mutations raced against in-flight statements (hook seam)
// ---------------------------------------------------------------------

#[test]
fn catalog_mutation_races_are_snapshot_isolated() {
    let plan = FaultPlan::new();
    let engine = small_engine();
    {
        // Immediately before execute call 0 — after the statement pinned
        // its snapshot — another writer appends a row.
        let engine = Arc::clone(&engine);
        plan.on_execute(0, move |_| {
            assert!(engine.append_rows("t", &[vec![4]]));
        });
    }
    wrap_backend(&engine, "interp", &plan);
    let server = engine.serve(ServeConfig::default().with_workers(1));

    // The in-flight statement keeps its snapshot: sum is 6, not 10.
    let during = server.submit(sum_spec("interp")).unwrap().wait().unwrap();
    assert_eq!(sum_of(&during), 6, "snapshot isolation under racing append");
    // The next statement sees the published append.
    let after = server.submit(sum_spec("interp")).unwrap().wait().unwrap();
    assert_eq!(sum_of(&after), 10);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Latency spikes compose with deadline propagation
// ---------------------------------------------------------------------

#[test]
fn latency_spike_trips_propagated_deadlines_then_recovers() {
    let plan = FaultPlan::fault_execute(0, Fault::Latency(Duration::from_millis(60)));
    let engine = small_engine();
    wrap_backend(&engine, "interp", &plan);
    let server = engine.serve(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(4),
    );
    let session = server.session(1);

    // The spiked statement occupies the only worker for 60 ms; a
    // statement queued behind it with a 10 ms deadline must be dropped
    // at dequeue, not executed after the spike.
    let spiked = session.submit(sum_spec("interp")).unwrap();
    let doomed = session
        .submit_deadline(
            sum_spec("interp"),
            Instant::now() + Duration::from_millis(10),
        )
        .unwrap();
    assert_eq!(
        sum_of(&spiked.wait().unwrap()),
        6,
        "latency perturbs, not fails"
    );
    assert!(matches!(doomed.wait(), Err(ServeError::Timeout)));

    // Steady state: the spike is gone and service is clean.
    let after = session.submit(sum_spec("interp")).unwrap().wait().unwrap();
    assert_eq!(sum_of(&after), 6);
    server.shutdown();

    let s = session.stats();
    assert_eq!((s.served, s.timed_out), (2, 1));
    assert_eq!(engine.metrics().deadline_drops, 1);
}
