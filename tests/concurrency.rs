//! The ISSUE-2 acceptance tests: many client threads drive ONE shared
//! `Engine` through cloned `Session` handles and get bit-identical
//! results to a serial run, with the sharded plan cache serving hits
//! across threads; plus the statement error paths (parse errors, unknown
//! backends, catalog-version invalidation) and the cache-capacity knob.

use voodoo::relational::{Session, StatementSpec};
use voodoo::tpch::queries::{Query, QueryResult, CPU_QUERIES};

const THREADS: usize = 8;

const SQL_QUERIES: [&str; 5] = [
    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem \
     WHERE l_shipdate >= 700 AND l_shipdate < 1100 AND l_quantity < 24",
    "SELECT COUNT(*) FROM lineitem",
    "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_returnflag",
    "SELECT l_linestatus, MIN(l_extendedprice), MAX(l_extendedprice) \
     FROM lineitem WHERE l_discount BETWEEN 2 AND 8 GROUP BY l_linestatus",
    "SELECT AVG(l_quantity), MIN(l_shipdate), MAX(l_shipdate) FROM lineitem \
     WHERE l_quantity >= 10",
];

/// Serial reference results for the full statement set on a session.
fn run_all(session: &Session) -> Vec<QueryResult> {
    let mut results = Vec::new();
    for q in CPU_QUERIES {
        results.push(
            session
                .run_query(q)
                .unwrap_or_else(|e| panic!("{} failed: {e}", q.name())),
        );
    }
    for sql in SQL_QUERIES {
        results.push(QueryResult::new(session.run_sql(sql).expect(sql)));
    }
    results
}

#[test]
fn eight_threads_are_bit_identical_to_the_serial_run() {
    // Same data for both engines: the Arc-shared catalog clone is cheap.
    let cat = voodoo::tpch::generate(0.01);
    let serial_session = Session::new(cat.clone());
    let serial = run_all(&serial_session);

    // The shared engine starts cold: every thread races every statement.
    let shared = Session::new(cat);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let handle = shared.clone();
            let serial = &serial;
            scope.spawn(move || {
                let got = run_all(&handle);
                assert_eq!(got.len(), serial.len());
                for (i, (g, s)) in got.iter().zip(serial).enumerate() {
                    assert_eq!(g, s, "thread {t}, statement {i} differs");
                }
            });
        }
    });

    // Cache accounting: every thread ran every statement on the default
    // backend, but preparation is single-flight, so combined misses stay
    // bounded by the distinct-program count (each statement lowers to one
    // Voodoo program) plus any evictions.
    let stats = shared.cache_stats();
    let distinct_programs = (CPU_QUERIES.len() + SQL_QUERIES.len()) as u64;
    assert!(
        stats.misses <= distinct_programs + stats.evictions,
        "misses {} > distinct programs {} + evictions {}",
        stats.misses,
        distinct_programs,
        stats.evictions
    );
    assert!(
        stats.hits >= stats.misses,
        "eight threads replaying the set must mostly hit (hits {}, misses {})",
        stats.hits,
        stats.misses
    );
    // Serving metrics saw every execution.
    let m = shared.metrics();
    assert_eq!(
        m.queries_served,
        (THREADS * (CPU_QUERIES.len() + SQL_QUERIES.len())) as u64
    );
    assert_eq!(m.failures, 0);
    assert!(m.p50_seconds.unwrap() > 0.0);
    assert!(m.p99_seconds.unwrap() >= m.p50_seconds.unwrap());
}

#[test]
fn threads_retarget_backends_concurrently_and_agree() {
    let session = Session::tpch(0.005);
    let reference = session.run_query(Query::Q6).expect("cpu");
    std::thread::scope(|scope| {
        for backend in ["interp", "cpu", "gpu"] {
            for _ in 0..2 {
                let handle = session.clone();
                let reference = &reference;
                scope.spawn(move || {
                    let stmt = handle.query(Query::Q6);
                    let got = stmt.run_on(backend).expect(backend).into_rows();
                    assert_eq!(&got, reference, "{backend} differs under threads");
                });
            }
        }
    });
}

#[test]
fn run_batch_matches_serial_statement_results() {
    let session = Session::tpch(0.005);
    let specs = [
        StatementSpec::tpch(Query::Q1),
        StatementSpec::tpch(Query::Q6).on("gpu"),
        StatementSpec::sql(SQL_QUERIES[2]),
        StatementSpec::tpch(Query::Q12),
    ];
    let batch = session.run_batch(&specs);
    assert_eq!(batch.len(), specs.len());
    let q1 = session.run_query(Query::Q1).unwrap();
    let q6 = session.run_query(Query::Q6).unwrap();
    let sql = QueryResult::new(session.run_sql(SQL_QUERIES[2]).unwrap());
    let q12 = session.run_query(Query::Q12).unwrap();
    assert_eq!(batch[0].as_ref().unwrap().rows(), &q1);
    assert_eq!(batch[1].as_ref().unwrap().rows(), &q6);
    assert_eq!(batch[2].as_ref().unwrap().rows(), &sql);
    assert_eq!(batch[3].as_ref().unwrap().rows(), &q12);
    assert_eq!(session.metrics().batches_served, 1);
}

#[test]
fn sql_parse_errors_are_clean_and_do_not_poison_the_engine() {
    let session = Session::tpch(0.002);
    for bad in [
        "SELECT",
        "SELECT nonsense FROM",
        "FROM lineitem SELECT COUNT(*)",
        "SELECT COUNT(*) FROM lineitem GROUP",
    ] {
        assert!(session.sql(bad).is_err(), "{bad:?} should fail to parse");
    }
    // Unknown tables fail at lowering time (statement run), not at parse.
    let stmt = session.sql("SELECT COUNT(*) FROM no_such_table").unwrap();
    assert!(stmt.run().is_err());
    // In a batch, a bad statement fails only its own slot.
    let batch = session.run_batch(&[
        StatementSpec::sql("SELECT broken"),
        StatementSpec::sql(SQL_QUERIES[1]),
    ]);
    assert!(batch[0].is_err());
    assert!(batch[1].is_ok());
    // The engine still serves after all of the above.
    assert!(!session.run_query(Query::Q6).unwrap().is_empty());
}

#[test]
fn unknown_backend_names_error_on_every_path() {
    let session = Session::tpch(0.002);
    let stmt = session.query(Query::Q6);
    for result in [
        stmt.run_on("tpu").map(|_| ()),
        stmt.explain_on("tpu").map(|_| ()),
        stmt.profile_on("tpu").map(|_| ()),
        session.set_default_backend("tpu"),
    ] {
        let err = result.unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("unknown backend"), "{msg}");
        assert!(msg.contains("interp"), "lists registered backends: {msg}");
    }
    let batch = session.run_batch(&[StatementSpec::tpch(Query::Q6).on("tpu")]);
    assert!(batch[0].is_err());
}

#[test]
fn catalog_mutation_mid_stream_evicts_stale_plans_instead_of_serving_them() {
    let session = Session::tpch(0.005);
    let before_rows = session.run_query(Query::Q6).expect("cold");
    let before = session.cache_stats();

    // A statement handle created *before* the mutation…
    let stmt = session.query(Query::Q6);
    // …mid-stream registration of an UNRELATED table bumps the catalog
    // version but not lineitem's: per-table invalidation keeps Q6's
    // plans hot.
    session.mutate_catalog(|c| c.put_i64_column("mid_stream", &[1, 2, 3]));
    assert!(session.catalog().table("mid_stream").is_some());
    let warm_rows = stmt.run().expect("warm").into_rows();
    assert_eq!(before_rows, warm_rows);
    assert_eq!(
        session.cache_stats().misses,
        before.misses,
        "unrelated mutation must leave lineitem plans hot"
    );

    // Touching lineitem itself stales the plan: the old handle
    // re-prepares against the new snapshot — same rows, a new miss, and
    // the stale plan is *evicted*, not served.
    session.mutate_catalog(|c| {
        c.table_mut("lineitem");
    });
    let after_rows = stmt.run().expect("re-prepared").into_rows();
    assert_eq!(before_rows, after_rows);
    let after = session.cache_stats();
    assert!(after.misses > before.misses, "stale plan must re-prepare");
    assert!(
        after.evictions > before.evictions,
        "stale plan must be evicted (evictions {} -> {})",
        before.evictions,
        after.evictions
    );
    assert_eq!(
        after.entries, before.entries,
        "replacement, not accumulation"
    );

    // Concurrent readers during a mutation keep a coherent snapshot.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let handle = session.clone();
            let before_rows = &before_rows;
            scope.spawn(move || {
                for _ in 0..3 {
                    let rows = handle.run_query(Query::Q6).expect("during writes");
                    assert_eq!(&rows, before_rows);
                }
            });
        }
        for i in 0..3 {
            let handle = session.clone();
            scope.spawn(move || {
                handle.mutate_catalog(|c| c.put_i64_column(&format!("mid_stream_{i}"), &[i]));
            });
        }
    });
    assert!(!session.run_query(Query::Q6).unwrap().is_empty());
}

#[test]
fn cache_capacity_knob_bounds_entries_and_counts_evictions() {
    let session = Session::tpch(0.002);
    session.set_cache_capacity(1);
    let capacity = session.cache_stats().capacity;
    assert!(
        capacity < 20,
        "tiny capacity requested (got {capacity}; shards keep >=1 plan each)"
    );
    // More distinct statements than capacity: evictions must kick in …
    let mut firsts = Vec::new();
    for lo in 0..24 {
        let sql = format!("SELECT COUNT(*) FROM lineitem WHERE l_quantity >= {lo}");
        firsts.push(session.run_sql(&sql).expect(&sql));
    }
    let stats = session.cache_stats();
    assert!(stats.entries <= capacity, "{} > {capacity}", stats.entries);
    assert!(stats.evictions > 0);
    // … and evicted statements still answer correctly when they return.
    for (lo, first) in firsts.iter().enumerate() {
        let sql = format!("SELECT COUNT(*) FROM lineitem WHERE l_quantity >= {lo}");
        assert_eq!(&session.run_sql(&sql).expect(&sql), first);
    }
    // The knob also widens again.
    session.set_cache_capacity(256);
    assert!(session.cache_stats().capacity >= 256);
}
