//! The one-statement-pipeline parity suite: every statement kind through
//! every front door.
//!
//! `relational::statement` is the single lowering seam — one
//! `StatementSpec` description, one driver, one execution scope — behind
//! `Statement`, `run_batch` and the serve queue. This
//! suite is table-driven over (kind × door):
//!
//! * every kind (program, TPC-H, SQL, view) returns identical output
//!   through every door and counts as exactly one served statement;
//! * every failure kind (SQL parse error, unknown view, unknown backend)
//!   counts as exactly one failure through every door;
//! * `explain`, `profile` and `verify` drive all four kinds, and the dry
//!   walks (`explain`, `verify`) are neither served nor executed — TPC-H
//!   included, since every query lowers to one program;
//! * plan-cache traffic is attributed to serve sessions *exactly*;
//! * view builds and reads run in the same scope as everything else —
//!   on the engine's own morsel pool, visible in its scheduling metrics.

use std::sync::Arc;

use voodoo::backend::CpuBackend;
use voodoo::compile::MorselPool;
use voodoo::core::{Buffer, Program};
use voodoo::faults::FaultPlan;
use voodoo::relational::sql;
use voodoo::relational::views::view_def_from_sql;
use voodoo::relational::{Engine, JoinDef, ServeConfig, Source, StatementOutput, StatementSpec};
use voodoo::storage::{Catalog, Table, TableColumn};
use voodoo::tpch::queries::Query;

const VIEW: &str = "qty_by_flag";
const VIEW_SQL: &str =
    "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_returnflag";

/// TPC-H plus a small scratch table for the raw-program kind.
fn catalog() -> Catalog {
    let mut cat = voodoo::tpch::generate(0.002);
    cat.put_i64_column("t", &(1..=100).collect::<Vec<i64>>());
    cat
}

fn sum_program() -> Program {
    let mut p = Program::new();
    let t = p.load("t");
    let total = p.fold_sum_global(t);
    p.ret(total);
    p
}

/// One spec per statement kind.
fn kinds() -> Vec<(&'static str, StatementSpec)> {
    vec![
        ("program", StatementSpec::program(sum_program())),
        ("tpch", StatementSpec::tpch(Query::Q6)),
        (
            "sql",
            StatementSpec::sql(
                "SELECT SUM(l_quantity), COUNT(*) FROM lineitem WHERE l_discount >= 5",
            ),
        ),
        ("view", StatementSpec::view(VIEW)),
    ]
}

/// One spec per way a statement can fail before any program runs.
fn failures() -> Vec<(&'static str, StatementSpec)> {
    vec![
        (
            "sql parse error",
            StatementSpec::sql("SELECT nonsense FROM"),
        ),
        ("unknown view", StatementSpec::view("no_such_view")),
        ("unknown backend", StatementSpec::tpch(Query::Q6).on("tpu")),
    ]
}

fn same(a: &StatementOutput, b: &StatementOutput) -> bool {
    match (a, b) {
        (StatementOutput::Rows(x), StatementOutput::Rows(y)) => x == y,
        (StatementOutput::Raw(x), StatementOutput::Raw(y)) => x.returns == y.returns,
        _ => false,
    }
}

/// The three front doors over one engine: statement handles, batches and
/// a serve queue.
struct Doors {
    engine: Arc<Engine>,
}

/// `(served, failed)` so far.
type Counts = (u64, u64);

impl Doors {
    fn open() -> Doors {
        let engine = Arc::new(Engine::new(catalog()));
        engine.create_view(VIEW, VIEW_SQL).expect("view");
        Doors { engine }
    }

    fn counts(&self) -> Counts {
        let m = self.engine.metrics();
        (m.queries_served, m.failures)
    }

    /// Run `spec` through every door, asserting each one moves the
    /// engine's `(queries_served, failures)` by exactly `delta`.
    fn through_every_door(
        &self,
        label: &str,
        spec: &StatementSpec,
        delta: Counts,
    ) -> Vec<(&'static str, voodoo::core::Result<StatementOutput>)> {
        let mut results = Vec::new();
        let mut counted =
            |door: &'static str, run: &mut dyn FnMut() -> voodoo::core::Result<StatementOutput>| {
                let before = self.counts();
                let result = run();
                let after = self.counts();
                assert_eq!(
                    (after.0 - before.0, after.1 - before.1),
                    delta,
                    "{label} via {door}: (queries_served, failures) delta"
                );
                results.push((door, result));
            };
        counted("Statement::run_on", &mut || {
            let stmt = self.engine.statement(spec.clone());
            // The explicit re-target would override the failing specs'
            // own (unknown) backend pin; those run as pinned.
            if delta.1 == 0 {
                stmt.run_on("cpu")
            } else {
                stmt.run()
            }
        });
        counted("Engine::run_batch", &mut || {
            let mut out = self.engine.run_batch(std::slice::from_ref(spec));
            assert_eq!(out.len(), 1);
            out.remove(0)
        });
        counted("ServeSession::submit", &mut || {
            let server = self.engine.serve(ServeConfig::default().with_workers(1));
            let receipt = server.session(1).submit(spec.clone()).expect("admitted");
            let result = receipt.wait().map_err(|e| e.into_engine_error());
            server.shutdown();
            result
        });
        results
    }
}

#[test]
fn every_kind_agrees_through_every_front_door_and_counts_once() {
    let doors = Doors::open();
    for (label, spec) in kinds() {
        let results = doors.through_every_door(label, &spec, (1, 0));
        let (first_door, first) = &results[0];
        let first = first
            .as_ref()
            .unwrap_or_else(|e| panic!("{label} via {first_door}: {e}"));
        match first {
            StatementOutput::Rows(rows) => assert!(!rows.is_empty(), "{label}: empty"),
            StatementOutput::Raw(out) => assert_eq!(out.returns.len(), 1, "{label}"),
        }
        for (door, result) in &results[1..] {
            let out = result
                .as_ref()
                .unwrap_or_else(|e| panic!("{label} via {door}: {e}"));
            assert!(
                same(first, out),
                "{label}: {door} disagrees with {first_door}"
            );
        }
    }
}

#[test]
fn every_failure_kind_counts_exactly_one_failure_through_every_door() {
    let doors = Doors::open();
    for (label, spec) in failures() {
        for (door, result) in doors.through_every_door(label, &spec, (1, 1)) {
            assert!(result.is_err(), "{label} via {door} must fail");
        }
    }
    // The engines still serve after every failure above.
    for (label, spec) in kinds() {
        for (door, result) in doors.through_every_door(label, &spec, (1, 0)) {
            assert!(result.is_ok(), "{label} via {door} after failures");
        }
    }
}

#[test]
fn explain_profile_and_verify_drive_every_kind() {
    let doors = Doors::open();
    for (label, spec) in kinds() {
        let stmt = doors.engine.statement(spec);
        let profile = stmt
            .profile()
            .unwrap_or_else(|e| panic!("{label}: profile: {e}"));
        // A read of an up-to-date view has nothing to run.
        assert_eq!(profile.programs, usize::from(label != "view"), "{label}");
        let plan = stmt
            .explain()
            .unwrap_or_else(|e| panic!("{label}: explain: {e}"));
        // One program explains as its plan's bare text — for a view, the
        // definition's full-recompute program, fresh or not.
        assert!(
            !plan.is_empty() && !plan.contains("== program"),
            "{label}: {plan}"
        );
        assert_eq!(stmt.verify(), vec![], "{label}: verify");
        let gpu = stmt
            .profile_on("gpu")
            .unwrap_or_else(|e| panic!("{label}: gpu profile: {e}"));
        assert_eq!(gpu.simulated_seconds.is_some(), label != "view", "{label}");
    }
    // A join view explains as one section per side of its definition.
    let mut def = view_def_from_sql(&sql::parse("SELECT COUNT(*), SUM(val) FROM t").unwrap())
        .expect("view def");
    def.join = Some(JoinDef {
        right: Source::scan("t", &["val"]),
        left_key: 0,
        right_key: 0,
    });
    doors
        .engine
        .create_view_def("t_self_join", def)
        .expect("join view");
    let joined = doors
        .engine
        .statement(StatementSpec::view("t_self_join"))
        .explain()
        .expect("join view explain");
    assert!(
        joined.starts_with("== program 1/2 ==\n") && joined.contains("\n== program 2/2 ==\n"),
        "{joined}"
    );
    for (label, spec) in failures() {
        let stmt = doors.engine.statement(spec);
        assert!(!stmt.verify().is_empty(), "{label}: verify must report");
        assert!(stmt.explain().is_err(), "{label}: explain must fail");
        assert!(stmt.profile().is_err(), "{label}: profile must fail");
    }
}

/// `verify` and `explain` are dry walks: not served statements, and
/// nothing executes — for every kind, and for Q20, whose correlated
/// subquery lowers into the same program as its outer query. `verify`
/// does not even prepare: no backend work, no plan-cache traffic.
#[test]
fn verify_and_explain_are_dry_walks() {
    let doors = Doors::open();
    let engine = &doors.engine;
    // A pass-through wrapper that counts backend prepare/execute calls.
    let calls = FaultPlan::new();
    engine.register("counted", calls.wrap(engine.backend("cpu").unwrap()));
    engine.set_default_backend("counted").unwrap();
    let observe = || {
        let (m, c) = (engine.metrics(), engine.cache_stats());
        (
            (m.queries_served, m.failures, m.latency_samples),
            (m.view_hits, m.delta_refreshes, m.full_recomputes),
            (c.hits, c.misses),
            (calls.prepare_calls(), calls.execute_calls()),
        )
    };

    let server = engine.serve(ServeConfig::default().with_workers(1));
    let drawn = kinds()
        .into_iter()
        .chain([("tpch Q20", StatementSpec::tpch(Query::Q20))]);
    for (label, spec) in drawn {
        let stmt = engine.statement(spec.clone());

        let before = observe();
        assert_eq!(stmt.verify(), vec![], "{label}");
        assert_eq!(server.verify(&spec), vec![], "{label} via the server");
        assert_eq!(server.session(1).verify(&spec), vec![], "{label}");
        let after = observe();
        assert_eq!(
            after.0, before.0,
            "{label}: verify is not a served statement"
        );
        assert_eq!(after.1, before.1, "{label}: verify never refreshes a view");
        assert_eq!(
            after.2, before.2,
            "{label}: verify leaves the plan cache alone"
        );
        assert_eq!(after.3, before.3, "{label}: verify spends no backend work");

        let before = observe();
        stmt.explain()
            .unwrap_or_else(|e| panic!("{label}: explain: {e}"));
        let after = observe();
        assert_eq!(
            after.0, before.0,
            "{label}: explain is not a served statement"
        );
        assert_eq!(after.1, before.1, "{label}: explain never refreshes a view");
        assert_eq!(
            after.2 .1,
            before.2 .1 + 1,
            "{label}: explain prepares once"
        );
        assert_eq!(
            after.3,
            (before.3 .0 + 1, before.3 .1),
            "{label}: and never executes"
        );
    }
    server.shutdown();
}

/// Verifying a view analyzes its definition's programs whether or not the
/// view is up to date, and never performs the refresh.
#[test]
fn view_verify_analyzes_the_definition_without_refreshing() {
    let doors = Doors::open();
    let engine = &doors.engine;
    let view = engine.statement(StatementSpec::view(VIEW));
    view.run().expect("fresh view");
    assert_eq!(view.verify(), vec![]);

    // Replace lineitem with a table missing the view's columns: the view
    // is now stale and its refresh would fail. Verify says why, up front,
    // without attempting it.
    engine.mutate_catalog(|cat| {
        let mut bare = Table::new("lineitem");
        bare.add_column(TableColumn::from_buffer(
            "l_orderkey",
            Buffer::I64(vec![1, 2]),
        ));
        cat.insert_table(bare);
    });
    let before = engine.metrics();
    let diags = view.verify();
    assert!(
        !diags.is_empty(),
        "a broken view definition must be reported"
    );
    assert!(
        diags.iter().all(|d| d.stmt.is_some()),
        "diagnostics come from the analyzer, pointed at a statement: {diags:?}"
    );
    assert_eq!(engine.metrics(), before, "verify attempted no refresh");
    assert!(view.run().is_err(), "the refresh itself does fail");
}

/// Plan-cache hits and misses come back from the execution scope with
/// each statement's outcome, so per-session attribution is exact: with
/// serial submission, the sessions' counters sum to the engine's.
#[test]
fn session_cache_attribution_sums_exactly_to_the_engine_counters() {
    let engine = Arc::new(Engine::new(catalog()));
    engine.create_view(VIEW, VIEW_SQL).expect("view");
    let before = engine.cache_stats();
    let server = engine.serve(ServeConfig::default().with_workers(2));
    let sessions = [server.session(1), server.session(3)];
    let mut submitted = 0;
    for round in 0..3 {
        // Every kind (cold, then warm), a two-program plan, a failing
        // statement, and a view refreshed from a fresh delta each round.
        let mut specs: Vec<StatementSpec> = kinds().into_iter().map(|(_, s)| s).collect();
        specs.push(StatementSpec::tpch(Query::Q20));
        specs.push(StatementSpec::tpch(Query::Q6).on("interp"));
        specs.push(StatementSpec::sql("SELECT SUM(x) FROM missing"));
        specs.push(StatementSpec::sql(format!(
            "SELECT COUNT(*) FROM lineitem WHERE l_quantity > {round}"
        )));
        let width = engine.snapshot().table("lineitem").unwrap().columns.len();
        assert!(engine.append_rows("lineitem", &[vec![0; width]]));
        for spec in specs {
            let session = &sessions[submitted % sessions.len()];
            let _ = session.submit(spec).expect("admitted").wait();
            submitted += 1;
        }
    }
    server.shutdown();
    let after = engine.cache_stats();
    let attributed = sessions.iter().fold((0, 0), |acc, s| {
        let st = s.stats();
        (acc.0 + st.cache_hits, acc.1 + st.cache_misses)
    });
    assert_eq!(
        attributed,
        (after.hits - before.hits, after.misses - before.misses),
        "per-session (hits, misses) must sum to the engine's plan-cache delta"
    );
    assert!(attributed.0 > 0 && attributed.1 > 0, "{attributed:?}");
    let served: u64 = sessions.iter().map(|s| s.stats().served).sum();
    assert_eq!(served, submitted as u64);
}

/// Regression: view builds and reads used to execute outside the
/// engine's execution scope — on the process-global morsel pool,
/// ignoring `Engine::set_morsel_pool`, invisible to the scheduling
/// metrics. They now run in the same scope as every other statement.
#[test]
fn view_builds_and_reads_run_on_the_engines_pool_and_are_traced() {
    const ROWS: i64 = 1 << 16;
    let mut events = Table::new("events");
    events.add_column(TableColumn::from_buffer(
        "kind",
        Buffer::I64((0..ROWS).map(|i| i % 7).collect()),
    ));
    events.add_column(TableColumn::from_buffer(
        "amount",
        Buffer::I64((0..ROWS).map(|i| i % 1000).collect()),
    ));
    let mut cat = Catalog::in_memory();
    cat.insert_table(events);

    let engine = Arc::new(Engine::new(cat));
    let pool = MorselPool::new(2);
    engine.set_morsel_pool(pool.clone());
    engine.register("cpu2", Arc::new(CpuBackend::with_threads(2)));
    engine.set_default_backend("cpu2").unwrap();

    // The plain statement already fans out across the private pool.
    let stmt = "SELECT SUM(amount), COUNT(*) FROM events WHERE amount >= 500";
    let rows = engine.sql(stmt).unwrap().run().unwrap().into_rows();
    let (tasks, traced) = (pool.stats().tasks, engine.metrics().pool_tasks);
    assert!(
        tasks > 0 && traced > 0,
        "baseline: {tasks} tasks, {traced} traced"
    );

    // So must the view over the same statement: its build and its reads.
    let served = engine.metrics().queries_served;
    engine.create_view("big_spenders", stmt).unwrap();
    assert_eq!(
        engine.metrics().queries_served,
        served,
        "a view build is traced, but is not a served statement"
    );
    assert_eq!(engine.read_view("big_spenders").unwrap(), rows);
    assert_eq!(engine.metrics().queries_served, served + 1);
    assert!(
        pool.stats().tasks > tasks,
        "view build must run on the engine's own morsel pool"
    );
    assert!(
        engine.metrics().pool_tasks > traced,
        "view build must be traced into the engine's scheduling metrics"
    );
}
