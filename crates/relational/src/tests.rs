//! Cross-engine correctness: Voodoo plans (interpreter *and* compiled
//! backend) must agree bit-exactly with the HyPeR-style reference on every
//! evaluated TPC-H query.

use voodoo_backend::{CpuBackend, InterpBackend};
use voodoo_compile::exec::ExecOptions;
use voodoo_tpch::queries::{Query, CPU_QUERIES};

use crate::engine::run_query_on;
use crate::prepare;

fn catalog() -> voodoo_storage::Catalog {
    let mut cat = voodoo_tpch::generate(0.003);
    prepare(&mut cat);
    cat
}

#[test]
fn voodoo_interp_matches_hyper_on_all_queries() {
    let cat = catalog();
    for q in CPU_QUERIES {
        let h = voodoo_baselines::hyper::run(&cat, q);
        let v = run_query_on(&InterpBackend::new(), &cat, q).expect("interp");
        assert_eq!(h, v, "{} differs (interp)", q.name());
        // Queries gated on a rare nation pair or a threshold (Q7, Q11) are
        // empty at this scale; every other query must produce rows.
        if !matches!(q, Query::Q7 | Query::Q11) {
            assert!(
                !h.is_empty(),
                "{} should produce rows at this scale",
                q.name()
            );
        }
    }
}

#[test]
fn voodoo_compiled_matches_hyper_on_all_queries() {
    let cat = catalog();
    for q in CPU_QUERIES {
        let h = voodoo_baselines::hyper::run(&cat, q);
        let v = run_query_on(&CpuBackend::single_threaded(), &cat, q).expect("compiled");
        assert_eq!(h, v, "{} differs (compiled)", q.name());
    }
}

#[test]
fn voodoo_compiled_multithreaded_matches() {
    let cat = catalog();
    let backend = CpuBackend::with_threads(4);
    for q in [Query::Q1, Query::Q6, Query::Q12] {
        let h = voodoo_baselines::hyper::run(&cat, q);
        let v = run_query_on(&backend, &cat, q).expect("compiled");
        assert_eq!(h, v, "{} differs (4 threads)", q.name());
    }
}

/// `queries::run_query` hands the lowered program to its executor
/// callback: results flow back through it, and executor failures
/// propagate as errors instead of panicking.
#[test]
fn run_query_propagates_executor_results_and_errors() {
    let cat = catalog();
    let h = voodoo_baselines::hyper::run(&cat, Query::Q6);
    assert_eq!(
        h,
        crate::queries::run_query(&cat, Query::Q6, &mut |p, c| {
            voodoo_interp::Interpreter::new(c).run_program(p)
        })
        .expect("run_query propagates executor results")
    );
    let err = crate::queries::run_query(&cat, Query::Q6, &mut |_, _| {
        Err(voodoo_core::VoodooError::Backend("boom".into()))
    });
    assert!(err.is_err());
}

#[test]
fn q6_through_the_sql_frontend_matches_the_plan() {
    // Q6 is expressible in the SQL subset — cross-check frontend paths.
    let cat = catalog();
    let (lo, hi, dlo, dhi, qmax) = voodoo_tpch::queries::params::q6();
    let sql = format!(
        "SELECT SUM(l_extendedprice * l_discount) FROM lineitem \
         WHERE l_shipdate >= {lo} AND l_shipdate < {hi} \
         AND l_discount BETWEEN {dlo} AND {dhi} AND l_quantity < {qmax}"
    );
    let lowered = crate::sql::lower(&cat, &crate::sql::parse(&sql).unwrap()).unwrap();
    let out = voodoo_interp::Interpreter::new(&cat)
        .run_program(&lowered.program)
        .unwrap();
    let rows = crate::sql::extract_rows(&lowered, &out);
    let direct = run_query_on(&InterpBackend::new(), &cat, Query::Q6).expect("interp");
    assert_eq!(rows, direct.rows);
}

// ---------------------------------------------------------------------
// SQL parser negative and robustness tests
// ---------------------------------------------------------------------

mod sql_negative {
    use crate::sql::parse;

    #[test]
    fn rejects_garbage() {
        assert!(parse("florble the wumpus").is_err());
        assert!(parse("").is_err());
        assert!(parse("SELECT").is_err());
    }

    #[test]
    fn rejects_missing_from() {
        assert!(parse("SELECT sum(a)").is_err());
    }

    #[test]
    fn rejects_unaggregated_non_group_column() {
        assert!(
            parse("SELECT a, sum(b) FROM t GROUP BY c").is_err(),
            "a is neither aggregated nor the group key"
        );
    }

    #[test]
    fn accepts_group_key_projection() {
        let q = parse("SELECT c, sum(b) FROM t GROUP BY c").expect("valid");
        assert_eq!(q.group_by.as_deref(), Some("c"));
    }

    #[test]
    fn rejects_dangling_operators() {
        assert!(parse("SELECT sum(a) FROM t WHERE a <").is_err());
        assert!(parse("SELECT sum(a) FROM t WHERE a BETWEEN 1").is_err());
        assert!(parse("SELECT sum(a) FROM t WHERE AND a < 1").is_err());
    }

    #[test]
    fn rejects_unbalanced_parens() {
        assert!(parse("SELECT sum(a FROM t").is_err());
    }

    #[test]
    fn parse_is_total_on_arbitrary_ascii() {
        // The parser must return Err, never panic, on junk.
        for seed in 0..200u64 {
            let mut s = String::new();
            let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for _ in 0..30 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let c = (b' ' + (x >> 33) as u8 % 95) as char;
                s.push(c);
            }
            let _ = parse(&s); // outcome irrelevant; must not panic
        }
    }

    #[test]
    fn unknown_table_errors_no_later_than_execution() {
        // Lowering may defer name resolution (Load is late-bound), but the
        // pipeline as a whole must fail cleanly, never panic.
        let cat = voodoo_storage::Catalog::in_memory();
        let q = parse("SELECT sum(a) FROM ghost").expect("parses");
        let failed = match crate::sql::lower(&cat, &q) {
            Err(_) => true,
            Ok(lowered) => voodoo_interp::Interpreter::new(&cat)
                .run_program(&lowered.program)
                .is_err(),
        };
        assert!(failed, "missing table must surface as an error");
    }

    #[test]
    fn unknown_column_errors_no_later_than_execution() {
        let mut cat = voodoo_storage::Catalog::in_memory();
        cat.put_i64_column("t", &[1, 2, 3]);
        let q = parse("SELECT sum(ghost) FROM t").expect("parses");
        match crate::sql::lower(&cat, &q) {
            Err(_) => {}
            Ok(lowered) => {
                assert!(
                    voodoo_interp::Interpreter::new(&cat)
                        .run_program(&lowered.program)
                        .is_err(),
                    "unknown column must fail by execution time"
                );
            }
        }
    }
}

/// The CSE+DCE-normalized compiled path returns bit-identical results on
/// every paper query.
#[test]
fn optimized_plans_match_unoptimized_on_all_queries() {
    let mut cat = voodoo_tpch::generate(0.002);
    prepare(&mut cat);
    let plain_backend = CpuBackend::single_threaded();
    let optimized_backend = CpuBackend::new(ExecOptions {
        parallelism: voodoo_backend::Parallelism::Fixed(2),
        min_parallel_domain: 1,
        ..Default::default()
    })
    .with_optimize(true);
    for q in CPU_QUERIES {
        let plain = run_query_on(&plain_backend, &cat, q).expect("plain");
        let optimized = run_query_on(&optimized_backend, &cat, q).expect("optimized");
        assert_eq!(plain, optimized, "{}", q.name());
    }
}
