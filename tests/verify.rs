//! Static-analysis integration tests: the `voodoo-verify` pass pipeline
//! end-to-end across every backend and frontend.
//!
//! * The effect-analysis audit: on every paper query, SQL statement and
//!   maintained view, the analyzer's exact read set is compared against
//!   the syntactic set of every `Load`/`Persist` name, and the plan cache
//!   is shown to key freshness on exactly the analyzer's read set.
//! * The no-panic harness: ill-formed programs are rejected with
//!   structured diagnostics by every backend — never a panic.
//! * Property tests: randomly generated well-formed programs pass the
//!   analyzer and produce bit-identical results on all three backends;
//!   random single-op mutations of those programs are rejected with a
//!   pointed diagnostic (and, again, never a panic).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::test_runner::TestRng;
use voodoo::backend::{Backend, CpuBackend, InterpBackend, SimGpuBackend};
use voodoo::core::{BinOp, KeyPath, Op, Program, ScalarValue, VRef, VoodooError};
// `queries::run_query` hands out the lowered program of each query, with
// the catalog it runs against, through its executor callback; the audit
// wants exactly that.
use voodoo::relational::queries::run_query;
use voodoo::relational::{Session, StatementSpec};
use voodoo::storage::Catalog;
use voodoo::tpch::queries::CPU_QUERIES;
use voodoo::verify;

fn backends() -> Vec<(&'static str, Arc<dyn Backend>)> {
    vec![
        ("interp", Arc::new(InterpBackend::new())),
        ("cpu", Arc::new(CpuBackend::with_threads(4))),
        ("gpu", Arc::new(SimGpuBackend::titan_x())),
    ]
}

fn small_catalog() -> Catalog {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("a", &(0..64).collect::<Vec<_>>());
    cat.put_i64_column("b", &(0..64).map(|x| 31 - x).collect::<Vec<_>>());
    cat
}

// -----------------------------------------------------------------
// Satellite: effect-analysis audit against the syntactic table set
// -----------------------------------------------------------------

/// On every paper query program the analyzer's read set equals the
/// syntactic over-approximation (every `Load`/`Persist` name, dead or
/// alive): the hand-built plans contain no dead `Load`s, so the two can
/// only diverge on dead code.
#[test]
fn paper_query_effect_sets_match_table_deps() {
    let session = Session::tpch(0.002);
    let cat = session.catalog();
    for q in CPU_QUERIES {
        run_query(&cat, q, &mut |p, c| {
            let eff = verify::effects(p);
            let mut deps: Vec<&str> = p
                .stmts()
                .iter()
                .filter_map(|s| match &s.op {
                    Op::Load { name } | Op::Persist { name, .. } => Some(name.as_str()),
                    _ => None,
                })
                .collect();
            deps.sort_unstable();
            deps.dedup();
            assert_eq!(
                eff.tables(),
                deps,
                "{}: analyzer effect set diverges from the syntactic set",
                q.name()
            );
            // Every read resolves in the catalog the program runs against.
            for t in &eff.reads {
                assert!(c.table(t).is_some(), "{}: unresolvable read {t}", q.name());
            }
            voodoo::interp::Interpreter::new(c).run_program(p)
        })
        .unwrap_or_else(|e| panic!("{} failed: {e}", q.name()));
    }
}

/// Same audit over the SQL frontend and maintained-view stage programs.
#[test]
fn sql_and_view_programs_pass_the_effect_audit() {
    let session = Session::tpch(0.002);
    let stmts = [
        "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_discount >= 5",
        "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_returnflag",
    ];
    for text in stmts {
        let stmt = session.sql(text).expect("parse");
        assert_eq!(stmt.verify(), vec![], "{text}: diagnostics");
    }

    session
        .create_view(
            "audit_view",
            "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_returnflag",
        )
        .expect("view");
    let def = session.engine().view_def("audit_view").expect("def");
    // The view's declared dependencies are exactly the union of its stage
    // programs' analyzer read sets.
    let mut reads = verify::effects(&def.source.full_program()).reads;
    if let Some(j) = &def.join {
        reads.extend(verify::effects(&j.right.full_program()).reads);
    }
    reads.sort();
    reads.dedup();
    let mut deps = def.table_deps();
    deps.sort();
    assert_eq!(reads, deps, "view stage reads vs ViewDef::table_deps");
    assert_eq!(
        session.verify(&StatementSpec::view("audit_view")),
        vec![],
        "view verify"
    );
}

/// The plan cache keys freshness on the analyzer's exact read set:
/// mutating a table the program never reads does not invalidate its
/// plan, mutating a read table does.
#[test]
fn plan_cache_freshness_tracks_the_analyzer_reads() {
    let session = Session::new(small_catalog());
    let mut p = Program::new();
    let a = p.load("a");
    let s = p.fold_sum_global(a);
    p.ret(s);
    assert_eq!(verify::effects(&p).reads, vec!["a".to_string()]);

    let stmt = session.program(p);
    stmt.run().expect("first run");
    let misses = session.cache_stats().misses;
    // Touch a table outside the read set: the cached plan stays fresh.
    session.mutate_catalog(|c| c.put_i64_column("b", &[9, 9, 9]));
    stmt.run().expect("after unrelated write");
    assert_eq!(
        session.cache_stats().misses,
        misses,
        "write outside the read set must not invalidate the plan"
    );
    // Touch the read table: the key changes, the plan recompiles.
    session.mutate_catalog(|c| c.put_i64_column("a", &(0..128).collect::<Vec<_>>()));
    stmt.run().expect("after read-set write");
    assert_eq!(
        session.cache_stats().misses,
        misses + 1,
        "write inside the read set must invalidate the plan"
    );
}

// -----------------------------------------------------------------
// Session / serve verification surface
// -----------------------------------------------------------------

#[test]
fn session_verify_surfaces_diagnostics_per_frontend() {
    let session = Session::new(small_catalog());

    // Well-formed program: clean bill.
    let mut p = Program::new();
    let a = p.load("a");
    let s = p.fold_sum_global(a);
    p.ret(s);
    assert_eq!(session.program(p).verify(), vec![]);

    // Forward reference: a pointed statement-level diagnostic.
    let mut bad = Program::new();
    let a = bad.load("a");
    let x = bad.add(a, VRef(7));
    bad.ret(x);
    let diags = session.program(bad).verify();
    assert!(!diags.is_empty());
    assert_eq!(diags[0].stmt, Some(1), "diagnostic points at %1: {diags:?}");

    // SQL against a missing table: lowering failure becomes a diagnostic.
    let diags = session.verify(&StatementSpec::sql("SELECT SUM(x) FROM missing"));
    assert!(!diags.is_empty(), "missing table must produce diagnostics");

    // Unknown view name.
    let diags = session.verify(&StatementSpec::view("nope"));
    assert!(!diags.is_empty(), "unknown view must produce diagnostics");

    // The serve layer exposes the same pre-admission check.
    let tpch = Session::tpch(0.002);
    let server = tpch.serve(voodoo::relational::ServeConfig::default().with_workers(1));
    assert_eq!(
        server.verify(&StatementSpec::tpch(voodoo::tpch::queries::Query::Q6)),
        vec![]
    );
    let tenant = server.session(1);
    assert!(!tenant
        .verify(&StatementSpec::sql("SELECT SUM(x) FROM missing"))
        .is_empty());
    server.shutdown();
}

// -----------------------------------------------------------------
// Satellite: no ill-formed program panics any backend
// -----------------------------------------------------------------

fn ill_formed_programs() -> Vec<(&'static str, Program)> {
    let mut cases = Vec::new();

    let mut p = Program::new();
    let a = p.load("a");
    let x = p.add(a, VRef(9)); // forward reference
    p.ret(x);
    cases.push(("forward reference", p));

    let mut p = Program::new();
    let a = p.load("a");
    p.ret(a);
    p.ret(VRef(42)); // out-of-range return
    cases.push(("out-of-range return", p));

    let mut p = Program::new();
    p.load("a"); // no returns at all
    cases.push(("no returns", p));

    let mut p = Program::new();
    let a = p.load("a");
    let bad = p.project(a, KeyPath::new(".no_such_field"), KeyPath::val());
    p.ret(bad); // keypath that resolves nowhere
    cases.push(("bad keypath", p));

    let mut p = Program::new();
    let t = p.load("no_such_table");
    p.ret(t);
    cases.push(("unknown table", p));

    cases
}

#[test]
fn no_ill_formed_program_panics_any_backend() {
    let cat = small_catalog();
    for (what, p) in ill_formed_programs() {
        for (name, b) in backends() {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                b.prepare(&p, &cat).and_then(|plan| plan.execute(&cat))
            }));
            match outcome {
                Ok(Err(_)) => {} // clean rejection: the only acceptable outcome
                Ok(Ok(_)) => panic!("{name} accepted ill-formed program ({what})"),
                Err(_) => panic!("{name} panicked on ill-formed program ({what})"),
            }
        }
        // The raw interpreter entry point is covered too (it predates the
        // Backend trait and is still used directly by the query layer).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            voodoo::interp::Interpreter::new(&cat).run_program(&p)
        }));
        assert!(
            matches!(outcome, Ok(Err(_))),
            "interpreter must reject ({what}) without panicking"
        );
    }
}

// -----------------------------------------------------------------
// Literal pins on every backend
// -----------------------------------------------------------------

/// Run `p` on every backend, assert they agree, and return the `.val`
/// slots of each return (ε as `None`).
fn returns_on_every_backend(p: &Program, cat: &Catalog) -> Vec<Vec<Option<i64>>> {
    if let Err(e) = verify::analyze(p, cat) {
        panic!("well-formed: {e}\n{p}");
    }
    let mut outputs = Vec::new();
    for (name, b) in backends() {
        let out = b
            .prepare(p, cat)
            .and_then(|plan| plan.execute(cat))
            .unwrap_or_else(|e| panic!("{name}: {e}\n{p}"));
        outputs.push((name, out));
    }
    let (ref_name, reference) = &outputs[0];
    for (name, out) in &outputs[1..] {
        assert_eq!(
            reference.returns, out.returns,
            "{ref_name} vs {name} disagree\n{p}"
        );
    }
    reference
        .returns
        .iter()
        .map(|v| {
            (0..v.len())
                .map(|i| v.value_at(i, &KeyPath::val()).map(|x| x.as_i64()))
                .collect()
        })
        .collect()
}

/// The value of a global fold: slot 0, with ε in every other slot.
fn global(slots: &[Option<i64>]) -> i64 {
    assert!(slots[1..].iter().all(Option::is_none), "{slots:?}");
    slots[0].expect("a global fold fills slot 0")
}

/// A selection, a gather at its positions and a prefix sum over the
/// gathered values, against literals: the random-program suite only
/// shows that the backends agree, not what they compute.
#[test]
fn selection_gather_and_prefix_sum_pin_literals_on_every_backend() {
    let cat = small_catalog();
    let mut p = Program::new();
    let a = p.load("a");
    let pred = p.greater_const(a, 60i64);
    let sel = p.fold_select_global(pred);
    let vals = p.gather(a, sel);
    let scan = p.fold_scan_global(vals);
    let sum = p.fold_sum_global(vals);
    p.ret(scan);
    p.ret(sum);
    let got = returns_on_every_backend(&p, &cat);
    let selected: Vec<_> = got[0].iter().flatten().copied().collect();
    assert_eq!(selected, [61, 123, 186], "prefix sums of a[61..64]");
    assert_eq!(global(&got[1]), 186, "sum of a[61..64]");
}

/// A selection over the 64-row `a` gathering from the 16-row `c`:
/// positions past `c` gather ε on every backend, in the plain and the
/// chunked (vectorized) form alike.
#[test]
fn selection_gathering_from_a_short_table_reads_eps_on_every_backend() {
    let mut cat = small_catalog();
    cat.put_i64_column("c", &(0..16).collect::<Vec<_>>());
    let mut p = Program::new();
    let a = p.load("a");
    let c = p.load("c");
    let pred = p.greater_const(a, 10i64);
    let sel = p.fold_select_global(pred);
    let plain = p.gather(c, sel);
    let plain_sum = p.fold_sum_global(plain);
    let ids = p.range_like(0, pred, 1);
    let chunk_ids = p.div_const(ids, 8);
    let chunked_sel = p.fold_select(chunk_ids, pred);
    let chunked = p.gather(c, chunked_sel);
    let chunked_sum = p.fold_sum_global(chunked);
    p.ret(plain_sum);
    p.ret(chunked_sum);
    let got = returns_on_every_backend(&p, &cat);
    // c[11..16] = 11 + 12 + 13 + 14 + 15.
    assert_eq!(global(&got[0]), 65, "plain selection");
    assert_eq!(global(&got[1]), 65, "chunked selection");
}

// -----------------------------------------------------------------
// Property tests: random programs and random mutations
// -----------------------------------------------------------------

/// Every op kind [`gen_program`] can emit, by [`Op::name`].
const GEN_OP_KINDS: [&str; 9] = [
    "Load",
    "Constant",
    "Add",
    "Subtract",
    "Greater",
    "LogicalAnd",
    "FoldSum",
    "FoldScan",
    "FoldSelect",
];

/// A random well-formed program over the `a`/`b` tables: integer
/// arithmetic, comparisons, global folds, prefix sums and selections (no
/// multiply — results stay far from the i64 sentinels and never
/// overflow, even with overflow checks on).
fn gen_program(rng: &mut TestRng) -> Program {
    let mut p = Program::new();
    let mut ints = vec![p.load("a")];
    if rng.below(2) == 1 {
        ints.push(p.load("b"));
    }
    let mut bools: Vec<VRef> = Vec::new();
    let n_ops = 3 + rng.below(8) as usize;
    for _ in 0..n_ops {
        match rng.below(8) {
            0 | 1 => {
                let l = ints[rng.below(ints.len() as u64) as usize];
                let r = ints[rng.below(ints.len() as u64) as usize];
                let op = if rng.below(2) == 0 {
                    BinOp::Add
                } else {
                    BinOp::Subtract
                };
                ints.push(p.binary(op, l, r));
            }
            2 => {
                let l = ints[rng.below(ints.len() as u64) as usize];
                ints.push(p.add_const(l, rng.below(100) as i64 - 50));
            }
            3 => {
                let l = ints[rng.below(ints.len() as u64) as usize];
                bools.push(p.greater_const(l, rng.below(64) as i64));
            }
            4 => {
                let l = ints[rng.below(ints.len() as u64) as usize];
                ints.push(p.constant_like(ScalarValue::I64(rng.below(10) as i64), l));
            }
            5 => {
                let l = ints[rng.below(ints.len() as u64) as usize];
                ints.push(p.fold_scan_global(l));
            }
            6 => {
                // Positions of the truthy slots: a comparison's, or an
                // integer vector's non-zero ones.
                let v = if bools.is_empty() {
                    ints[rng.below(ints.len() as u64) as usize]
                } else {
                    bools[rng.below(bools.len() as u64) as usize]
                };
                ints.push(p.fold_select_global(v));
            }
            _ => {
                if bools.len() >= 2 {
                    let l = bools[rng.below(bools.len() as u64) as usize];
                    let r = bools[rng.below(bools.len() as u64) as usize];
                    bools.push(p.binary(BinOp::LogicalAnd, l, r));
                } else {
                    let l = ints[rng.below(ints.len() as u64) as usize];
                    ints.push(p.fold_sum_global(l));
                }
            }
        }
    }
    p.ret(*ints.last().unwrap());
    if let Some(b) = bools.last() {
        p.ret(*b);
    }
    p
}

#[test]
fn random_programs_verify_and_agree_across_backends() {
    let cat = small_catalog();
    let mut rng = TestRng::deterministic("random_programs_verify_and_agree");
    let mut drawn = std::collections::BTreeSet::new();
    for case in 0..48 {
        let p = gen_program(&mut rng);
        drawn.extend(p.stmts().iter().map(|s| s.op.name()));
        if let Err(e) = verify::analyze(&p, &cat) {
            panic!("case {case}: generator must be well-formed: {e}");
        }
        let mut outputs = Vec::new();
        for (name, b) in backends() {
            let out = b
                .prepare(&p, &cat)
                .and_then(|plan| plan.execute(&cat))
                .unwrap_or_else(|e| panic!("case {case} on {name}: {e}\n{p}"));
            outputs.push((name, out));
        }
        let (ref_name, reference) = &outputs[0];
        for (name, out) in &outputs[1..] {
            assert_eq!(
                reference.returns, out.returns,
                "case {case}: {ref_name} vs {name} disagree\n{p}"
            );
        }
    }
    let missing: Vec<_> = GEN_OP_KINDS
        .iter()
        .filter(|k| !drawn.contains(*k))
        .collect();
    assert!(missing.is_empty(), "op kinds never drawn: {missing:?}");
    assert!(
        drawn.iter().all(|k| GEN_OP_KINDS.contains(k)),
        "GEN_OP_KINDS misses a drawn kind: {drawn:?}"
    );
}

/// Rebuild `p` with one op swapped for `mutant` at `at`.
fn with_mutation(p: &Program, at: usize, mutant: Op) -> Program {
    let mut m = Program::new();
    for (i, s) in p.stmts().iter().enumerate() {
        m.push(if i == at {
            mutant.clone()
        } else {
            s.op.clone()
        });
    }
    for r in p.returns() {
        m.ret(*r);
    }
    m
}

#[test]
fn random_mutations_are_rejected_with_pointed_diagnostics() {
    let cat = small_catalog();
    let mut rng = TestRng::deterministic("random_mutations_are_rejected");
    for case in 0..48 {
        let p = gen_program(&mut rng);
        let n = p.stmts().len();
        // Pick a non-Load statement and wreck one of its inputs with a
        // forward reference (Loads have no inputs to wreck).
        let candidates: Vec<usize> = (0..n)
            .filter(|&i| !p.stmts()[i].op.inputs().is_empty())
            .collect();
        let at = candidates[rng.below(candidates.len() as u64) as usize];
        let mutant = match p.stmts()[at].op.clone() {
            Op::Binary {
                op,
                out,
                lhs_kp,
                rhs,
                rhs_kp,
                ..
            } => Op::Binary {
                op,
                out,
                lhs: VRef(n as u32 + 3),
                lhs_kp,
                rhs,
                rhs_kp,
            },
            other => {
                // Point every input of the op at a statement past the end.
                let mut m = other;
                if let Op::Project { v, .. }
                | Op::FoldAgg { v, .. }
                | Op::FoldSelect { v, .. }
                | Op::FoldScan { v, .. }
                | Op::Constant { like: Some(v), .. } = &mut m
                {
                    *v = VRef(n as u32 + 3);
                }
                m
            }
        };
        let mutated = with_mutation(&p, at, mutant);
        if mutated.validate().is_ok() {
            // The op shape had no rewritable input slot; skip the case.
            continue;
        }
        let diags = match verify::analyze(&mutated, &cat) {
            Err(VoodooError::Rejected(diags)) => diags,
            other => panic!("case {case}: mutation must be diagnosed: {other:?}"),
        };
        assert!(!diags.is_empty(), "case {case}: mutation must be diagnosed");
        assert!(
            diags.iter().any(|d| d.stmt == Some(at)),
            "case {case}: diagnostic must point at the mutated %{at}: {diags:?}"
        );
        for (name, b) in backends() {
            let outcome = catch_unwind(AssertUnwindSafe(|| b.prepare(&mutated, &cat)));
            match outcome {
                Ok(Err(VoodooError::Rejected(ds))) => {
                    assert!(!ds.is_empty(), "case {case} on {name}: empty rejection")
                }
                Ok(Err(e)) => panic!("case {case} on {name}: unstructured error {e}"),
                Ok(Ok(_)) => panic!("case {case} on {name}: mutation accepted"),
                Err(_) => panic!("case {case} on {name}: panic on mutated program"),
            }
        }
    }
}
