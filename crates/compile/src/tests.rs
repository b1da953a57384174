//! Compiled-backend tests: fragment structure, suppression, and — most
//! importantly — differential equivalence against the reference
//! interpreter on hand-written and randomized programs.

use voodoo_core::{AggKind, BinOp, Buffer, KeyPath, Program, ScalarValue, StructuredVector};
use voodoo_storage::{Catalog, Table, TableColumn};

use crate::exec::{ExecOptions, Executor, Parallelism};
use crate::plan::{Action, Bulk, Compiler, FragmentKind, Handling, RunStructure, Unit};
use crate::repr::MatVec;

fn kp(s: &str) -> KeyPath {
    KeyPath::new(s)
}

/// Run both backends and assert every return value matches exactly.
fn assert_equivalent(cat: &Catalog, p: &Program) {
    let interp = voodoo_interp::Interpreter::new(cat)
        .run_program(p)
        .expect("interp");
    let cp = Compiler::new(cat).compile(p).expect("compile");
    for &threads in &[1usize, 3] {
        let exec = Executor::new(ExecOptions {
            parallelism: Parallelism::Fixed(threads),
            // Tiny fixture domains must still exercise the morsel path.
            min_parallel_domain: 1,
            ..Default::default()
        });
        let (compiled, _) = exec.run(&cp, cat).expect("exec");
        assert_eq!(
            interp.returns.len(),
            compiled.returns.len(),
            "return count ({threads} threads)"
        );
        for (i, (a, b)) in interp.returns.iter().zip(&compiled.returns).enumerate() {
            assert_vec_eq(
                a,
                b,
                &format!("return {i} ({threads} threads)\nprogram:\n{p}"),
            );
        }
        for ((na, va), (nb, vb)) in interp.persisted.iter().zip(&compiled.persisted) {
            assert_eq!(na, nb);
            assert_vec_eq(va, vb, &format!("persist {na}"));
        }
    }
    // Predicated mode must not change results either.
    let exec = Executor::new(ExecOptions {
        predicated_select: true,
        ..Default::default()
    });
    let (compiled, _) = exec.run(&cp, cat).expect("exec predicated");
    for (a, b) in interp.returns.iter().zip(&compiled.returns) {
        assert_vec_eq(a, b, "predicated mode");
    }
}

fn assert_vec_eq(a: &StructuredVector, b: &StructuredVector, what: &str) {
    assert_eq!(a.len(), b.len(), "length of {what}");
    assert_eq!(a.schema(), b.schema(), "schema of {what}");
    for (akp, acol) in a.fields() {
        let bcol = b.column(akp).expect("schema matched");
        for i in 0..a.len() {
            let (x, y) = (acol.get(i), bcol.get(i));
            let equal = match (x, y) {
                (None, None) => true,
                (Some(x), Some(y)) => match (x, y) {
                    (ScalarValue::F32(a), ScalarValue::F32(b)) => {
                        (a - b).abs() <= f32::EPSILON * 8.0 * a.abs().max(1.0)
                    }
                    (ScalarValue::F64(a), ScalarValue::F64(b)) => {
                        (a - b).abs() <= f64::EPSILON * 64.0 * a.abs().max(1.0)
                    }
                    _ => x == y,
                },
                _ => false,
            };
            assert!(equal, "slot {i} of {akp} in {what}: {x:?} vs {y:?}");
        }
    }
}

fn numbers_catalog() -> Catalog {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("nums", &[5, 12, 3, 20, 8, 15, 1, 9, 30, 2]);
    cat.put_f32_column("floats", &[1.5, -2.0, 3.25, 0.0, 9.5, -1.0]);
    let mut t = Table::new("pairs");
    t.add_column(TableColumn::from_buffer(
        "a",
        Buffer::I64(vec![1, 2, 3, 4, 5, 6]),
    ));
    t.add_column(TableColumn::from_buffer(
        "b",
        Buffer::I64(vec![10, 20, 30, 40, 50, 60]),
    ));
    cat.insert_table(t);
    cat
}

// ---------------------------------------------------------------------
// Structural tests
// ---------------------------------------------------------------------

/// Figure 3 compiles to a fold fragment with extent n/L, intent L, plus a
/// sequential global fold — and the partial sums are stored suppressed.
#[test]
fn figure3_fragments_and_suppression() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("input", &(0..1024i64).collect::<Vec<_>>());
    let mut p = Program::new();
    let input = p.load("input");
    let ids = p.range_like(0, input, 1);
    let part = p.div_const(ids, 256);
    let psum = p.fold_sum(part, input);
    let total = p.fold_sum_global(psum);
    p.ret(total);

    let cp = Compiler::new(&cat).compile(&p).unwrap();
    let frags: Vec<_> = cp.fragments().collect();
    assert_eq!(frags.len(), 2, "partial fold + global fold");
    assert_eq!(frags[0].kind(), FragmentKind::Fold);
    assert_eq!(frags[0].extent, 4);
    assert_eq!(frags[0].intent, 256);
    assert_eq!(frags[1].kind(), FragmentKind::Sequential);

    // The range/divide never materialize (virtual control vectors).
    assert!(matches!(cp.handling[ids.index()], Handling::Inline));
    assert!(matches!(cp.handling[part.index()], Handling::Inline));

    let (out, _) = Executor::single_threaded().run(&cp, &cat).unwrap();
    assert_eq!(
        out.returns[0].value_at(0, &kp(".val")),
        Some(ScalarValue::I64(523776))
    );
}

/// Empty-slot suppression allocates #runs slots, not n.
#[test]
fn suppression_allocates_dense() {
    let values = StructuredVector::from_buffer(".val", Buffer::I64(vec![1, 2]));
    let dense = MatVec::FoldDense {
        values,
        run_len: 512,
        orig_len: 1024,
    };
    assert!(dense.allocated_bytes() < 100);
    assert_eq!(dense.expand().len(), 1024);
}

/// A Q6-style select+sum fuses completely: one sequential fragment, no
/// intermediate materialization.
#[test]
fn q6_style_fuses_to_single_fragment() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..100i64).collect::<Vec<_>>());
    let mut p = Program::new();
    let t = p.load("t");
    let pred = p.greater_const(t, 50i64);
    let sel = p.fold_select_global(pred);
    let vals = p.gather(t, sel);
    let sum = p.fold_sum_global(vals);
    p.ret(sum);

    let cp = Compiler::new(&cat).compile(&p).unwrap();
    assert!(matches!(cp.handling[sel.index()], Handling::FusedFilter));
    assert_eq!(cp.fragment_count(), 1, "everything fused into one kernel");
    let (out, _) = Executor::single_threaded().run(&cp, &cat).unwrap();
    assert_eq!(
        out.returns[0].value_at(0, &kp(".val")),
        Some(ScalarValue::I64((51..100).sum::<i64>()))
    );
}

/// The group-by pattern becomes a virtual-scatter unit (Figure 11).
#[test]
fn group_by_becomes_virtual_scatter() {
    let mut cat = Catalog::in_memory();
    let mut t = Table::new("t");
    t.add_column(TableColumn::from_buffer(
        "grp",
        Buffer::I64(vec![0, 1, 0, 2, 2, 1, 2, 0, 3, 1]),
    ));
    t.add_column(TableColumn::from_buffer(
        "v",
        Buffer::I64(vec![2, 0, 1, 4, 6, 2, 0, 9, 2, 7]),
    ));
    cat.insert_table(t);

    let mut p = Program::new();
    let input = p.load("t");
    let pivots = p.range(0, 4, 1);
    let pos = p.partition(input, kp(".grp"), pivots, kp(".val"));
    let scattered = p.scatter(input, input, pos);
    let sums = p.fold_agg_kp(
        AggKind::Sum,
        scattered,
        Some(kp(".grp")),
        kp(".v"),
        kp(".sum"),
    );
    p.ret(sums);

    let cp = Compiler::new(&cat).compile(&p).unwrap();
    assert!(cp
        .units
        .iter()
        .any(|u| matches!(u, Unit::Bulk(Bulk::GroupAgg { .. }))));
    assert!(matches!(
        cp.handling[scattered.index()],
        Handling::GroupMember
    ));
    assert_equivalent(&cat, &p);
}

/// A chunk-controlled selection becomes a vectorized-selection unit.
#[test]
fn chunked_select_becomes_vectorized() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..1000i64).rev().collect::<Vec<_>>());
    let mut p = Program::new();
    let t = p.load("t");
    let pred = p.greater_const(t, 500i64);
    let ids = p.range_like(0, pred, 1);
    let chunk_ids = p.div_const(ids, 128);
    let sel = p.fold_select(chunk_ids, pred);
    let vals = p.gather(t, sel);
    let sum = p.fold_sum_global(vals);
    p.ret(sum);

    let cp = Compiler::new(&cat).compile(&p).unwrap();
    assert!(
        cp.units
            .iter()
            .any(|u| matches!(u, Unit::Bulk(Bulk::VecSelect { chunk: 128, .. }))),
        "vectorized pattern detected"
    );
    assert_equivalent(&cat, &p);
}

/// A vectorized selection whose positions run past its gather source:
/// the selection ranges over the 1000-row `t`, the gather reads the
/// 100-row `s`. Out-of-range positions gather ε, as in the interpreter.
#[test]
fn vectorized_select_gathering_from_a_short_source_reads_eps() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..1000i64).rev().collect::<Vec<_>>());
    cat.put_i64_column("s", &(0..100i64).collect::<Vec<_>>());
    let mut p = Program::new();
    let t = p.load("t");
    let s = p.load("s");
    let pred = p.greater_const(t, 500i64);
    let ids = p.range_like(0, pred, 1);
    let chunk_ids = p.div_const(ids, 128);
    let sel = p.fold_select(chunk_ids, pred);
    let vals = p.gather(s, sel);
    let sum = p.fold_sum_global(vals);
    p.ret(sum);

    let verified = voodoo_verify::analyze(&p, &cat).expect("no diagnostics");
    let cp = Compiler::build(verified).unwrap();
    assert!(
        cp.units
            .iter()
            .any(|u| matches!(u, Unit::Bulk(Bulk::VecSelect { chunk: 128, .. }))),
        "vectorized pattern detected"
    );
    assert_equivalent(&cat, &p);
}

/// Two folds fused into one vectorized selection, one gathering from the
/// 100-row `s` and one from the 1000-row `t`: a position past `s` skips
/// only the fold over `s`.
#[test]
fn vectorized_select_keeps_full_source_folds_beside_a_short_one() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..1000i64).rev().collect::<Vec<_>>());
    cat.put_i64_column("s", &(0..100i64).collect::<Vec<_>>());
    let mut p = Program::new();
    let t = p.load("t");
    let s = p.load("s");
    let pred = p.greater_const(t, 500i64);
    let ids = p.range_like(0, pred, 1);
    let chunk_ids = p.div_const(ids, 128);
    let sel = p.fold_select(chunk_ids, pred);
    let short = p.gather(s, sel);
    let full = p.gather(t, sel);
    let short_sum = p.fold_sum_global(short);
    let full_sum = p.fold_sum_global(full);
    p.ret(short_sum);
    p.ret(full_sum);

    let verified = voodoo_verify::analyze(&p, &cat).expect("no diagnostics");
    let cp = Compiler::build(verified).unwrap();
    assert!(
        cp.units.iter().any(|u| matches!(
            u,
            Unit::Bulk(Bulk::VecSelect { chunk: 128, folds, .. }) if folds.len() == 2
        )),
        "both gathers fuse into one vectorized selection"
    );
    assert_equivalent(&cat, &p);
}

/// A vectorized selection gathering from an empty source: every
/// selected position gathers ε.
#[test]
fn vectorized_select_gathering_from_an_empty_source_reads_eps() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..1000i64).rev().collect::<Vec<_>>());
    cat.put_i64_column("s", &[]);
    let mut p = Program::new();
    let t = p.load("t");
    let s = p.load("s");
    let pred = p.greater_const(t, 500i64);
    let ids = p.range_like(0, pred, 1);
    let chunk_ids = p.div_const(ids, 128);
    let sel = p.fold_select(chunk_ids, pred);
    let vals = p.gather(s, sel);
    let sum = p.fold_sum_global(vals);
    p.ret(sum);

    let verified = voodoo_verify::analyze(&p, &cat).expect("no diagnostics");
    let cp = Compiler::build(verified).unwrap();
    assert!(
        cp.units
            .iter()
            .any(|u| matches!(u, Unit::Bulk(Bulk::VecSelect { chunk: 128, .. }))),
        "vectorized pattern detected"
    );
    assert_equivalent(&cat, &p);
}

// ---------------------------------------------------------------------
// Differential tests (compiled ≡ interpreter)
// ---------------------------------------------------------------------

#[test]
fn diff_elementwise_chain() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let a = p.mul_const(t, 3i64);
    let b = p.add_const(a, 7i64);
    let c = p.binary(BinOp::Subtract, b, t);
    p.ret(c);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_comparisons_and_logic() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let g = p.greater_const(t, 8i64);
    let l = p.binary_const(BinOp::Less, t, kp(".val"), 20i64, kp(".val"));
    let both = p.binary(BinOp::LogicalAnd, g, l);
    p.ret(both);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_float_arithmetic() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("floats");
    let x = p.mul(t, t);
    let s = p.fold_sum_global(x);
    p.ret(s);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_fold_variants() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let ids = p.range_like(0, t, 1);
    let part = p.div_const(ids, 3);
    let s = p.fold_sum(part, t);
    let mn = p.fold_min_global(t);
    let mx = p.fold_max_global(t);
    let scan = p.fold_scan_global(t);
    p.ret(s);
    p.ret(mn);
    p.ret(mx);
    p.ret(scan);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_fold_select_materialized() {
    // Returned positions force the non-fused SelectEmit path.
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let pred = p.greater_const(t, 8i64);
    let sel = p.fold_select_global(pred);
    p.ret(sel);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_fold_select_chunked_materialized() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let pred = p.greater_const(t, 8i64);
    let ids = p.range_like(0, t, 1);
    let chunks = p.div_const(ids, 4);
    let sel = p.fold_select(chunks, pred);
    p.ret(sel);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_gather_and_scatter() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let idx = p.range(0, 5, 2);
    let g = p.gather(t, idx);
    p.ret(g);

    let pos = p.range(9, 10, -1);
    let sc = p.scatter(t, t, pos);
    p.ret(sc);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_partition_and_grouped_scatter() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("pairs");
    let pivots = p.range(0, 3, 1);
    let keys = p.binary_const(BinOp::Modulo, t, kp(".a"), 3i64, kp(".val"));
    let with_key = p.zip_kp(kp(".k"), keys, kp(".val"), kp(".b"), t, kp(".b"));
    let pos = p.partition(with_key, kp(".k"), pivots, kp(".val"));
    let scattered = p.scatter(with_key, with_key, pos);
    p.ret(pos);
    p.ret(scattered);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_virtual_scatter_group_agg() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("pairs");
    let keys = p.binary_const(BinOp::Modulo, t, kp(".a"), 2i64, kp(".k"));
    let with_key = p.zip_kp(kp(".k"), keys, kp(".k"), kp(".b"), t, kp(".b"));
    let pivots = p.range(0, 2, 1);
    let pos = p.partition(with_key, kp(".k"), pivots, kp(".val"));
    let scattered = p.scatter(with_key, with_key, pos);
    let sums = p.fold_agg_kp(
        AggKind::Sum,
        scattered,
        Some(kp(".k")),
        kp(".b"),
        kp(".sum"),
    );
    let maxs = p.fold_agg_kp(
        AggKind::Max,
        scattered,
        Some(kp(".k")),
        kp(".b"),
        kp(".max"),
    );
    p.ret(sums);
    p.ret(maxs);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_group_agg_fallback_on_range_pivots() {
    // Pivots [0, 5): keys 0..6 with bucket collisions (key 5 → bucket 4 …)
    // multiple distinct keys per bucket trigger the generic fallback.
    let mut cat = Catalog::in_memory();
    let mut t = Table::new("t");
    t.add_column(TableColumn::from_buffer(
        "k",
        Buffer::I64(vec![0, 7, 1, 9, 7, 0, 3, 9]),
    ));
    t.add_column(TableColumn::from_buffer(
        "v",
        Buffer::I64(vec![1, 2, 3, 4, 5, 6, 7, 8]),
    ));
    cat.insert_table(t);
    let mut p = Program::new();
    let input = p.load("t");
    let pivots = p.range(0, 4, 1); // buckets 0..3, keys up to 9 collide
    let pos = p.partition(input, kp(".k"), pivots, kp(".val"));
    let scattered = p.scatter(input, input, pos);
    let sums = p.fold_agg_kp(
        AggKind::Sum,
        scattered,
        Some(kp(".k")),
        kp(".v"),
        kp(".sum"),
    );
    p.ret(sums);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_cross_product() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let a = p.range(0, 3, 1);
    let b = p.range(0, 4, 1);
    let x = p.cross(a, b);
    p.ret(x);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_zip_project_upsert() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("pairs");
    let proj = p.project(t, kp(".a"), kp(".x"));
    let z = p.zip_kp(kp(".l"), t, kp(".a"), kp(".r"), proj, kp(".x"));
    let dbl = p.binary_const(BinOp::Multiply, t, kp(".b"), 2i64, kp(".val"));
    let ups = p.upsert(t, kp(".b"), dbl, kp(".val"));
    p.ret(z);
    p.ret(ups);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_materialize_break_persist() {
    let cat = numbers_catalog();
    let mut p = Program::new();
    let t = p.load("nums");
    let a = p.mul_const(t, 2i64);
    let m = p.materialize(a);
    let b = p.break_at(m);
    let s = p.fold_sum_global(b);
    p.persist("twice_sum", s);
    p.ret(s);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_predicated_fk_join() {
    // Figure 16's predicated-lookup program shape.
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("fact_fk", &[0, 3, 1, 2, 3, 0, 1, 2]);
    cat.put_i64_column("fact_v", &[5, 1, 9, 2, 8, 3, 7, 4]);
    cat.put_i64_column("target", &[100, 200, 300, 400]);
    let mut p = Program::new();
    let fk = p.load("fact_fk");
    let v = p.load("fact_v");
    let target = p.load("target");
    let pred = p.greater_const(v, 4i64);
    let masked_pos = p.mul(fk, pred); // predicated lookups: pos * pred
    let looked = p.gather(target, masked_pos);
    let masked_val = p.mul(looked, pred);
    let sum = p.fold_sum_global(masked_val);
    p.ret(sum);
    assert_equivalent(&cat, &p);
}

#[test]
fn diff_empty_inputs() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("empty", &[]);
    let mut p = Program::new();
    let t = p.load("empty");
    let a = p.mul_const(t, 2i64);
    let s = p.fold_sum_global(a);
    p.ret(a);
    p.ret(s);
    assert_equivalent(&cat, &p);
}

/// Runs of a data-dependent control column (a `Dynamic` run structure):
/// `7 7 7 | 4 4 | 9 9 9 9`.
fn dynamic_runs_catalog() -> Catalog {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("ctrl", &[7, 7, 7, 4, 4, 9, 9, 9, 9]);
    cat.put_i64_column("vals", &[1, 2, 3, 10, 20, 100, 200, 300, 400]);
    cat.put_i64_column("sel", &[1, 0, 0, 0, 1, 1, 0, 1, 0]);
    cat
}

#[test]
fn dynamic_run_scans_restart_at_every_run() {
    // The prefix sum of run `4 4` starts from 10, not from the `7 7 7`
    // run's total.
    let cat = dynamic_runs_catalog();
    let mut p = Program::new();
    let ctrl = p.load("ctrl");
    let vals = p.load("vals");
    let z = p.zip_kp(kp(".fold"), ctrl, kp(".val"), kp(".val"), vals, kp(".val"));
    let scan = p.fold_scan_kp(z, Some(kp(".fold")), kp(".val"), kp(".val"));
    p.ret(scan);
    assert_equivalent(&cat, &p);
}

#[test]
fn dynamic_run_predicated_selects_clear_their_tails() {
    // Run `7 7 7` selects only its first element; under predicated
    // emission the cursor slot after it must end up ε, as it does for
    // single and uniform runs.
    let cat = dynamic_runs_catalog();
    let mut p = Program::new();
    let ctrl = p.load("ctrl");
    let sel = p.load("sel");
    let picked = p.fold_select(ctrl, sel);
    p.ret(picked);
    assert_equivalent(&cat, &p);
}

#[test]
fn profile_counts_events() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..100i64).collect::<Vec<_>>());
    let mut p = Program::new();
    let t = p.load("t");
    let pred = p.greater_const(t, 50i64);
    let sel = p.fold_select_global(pred);
    let vals = p.gather(t, sel);
    let sum = p.fold_sum_global(vals);
    p.ret(sum);
    let cp = Compiler::new(&cat).compile(&p).unwrap();
    let exec = Executor::new(ExecOptions {
        count_events: true,
        ..Default::default()
    });
    let (_, prof) = exec.run(&cp, &cat).unwrap();
    assert_eq!(prof.branches, 100, "one filter branch per element");
    assert!(prof.cmp_ops >= 100);
    assert!(prof.seq_read_bytes > 0);
    assert_eq!(prof.barriers, 1, "single fused kernel");
}

#[test]
fn profile_predicated_trades_branches_for_ops() {
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &(0..1000i64).collect::<Vec<_>>());
    let mut p = Program::new();
    let t = p.load("t");
    let pred = p.greater_const(t, 500i64);
    let sel = p.fold_select_global(pred);
    p.ret(sel);
    let cp = Compiler::new(&cat).compile(&p).unwrap();

    let branching = Executor::new(ExecOptions {
        count_events: true,
        ..Default::default()
    });
    let (_, bp) = branching.run(&cp, &cat).unwrap();
    let predicated = Executor::new(ExecOptions {
        count_events: true,
        predicated_select: true,
        ..Default::default()
    });
    let (_, pp) = predicated.run(&cp, &cat).unwrap();

    assert!(
        bp.branches > 0 && pp.branches == 0,
        "predication removes branches"
    );
    assert!(
        pp.write_bytes > bp.write_bytes,
        "predication adds memory traffic"
    );
}

// ---------------------------------------------------------------------
// Unit-kind differential: every execution unit × domain × P × predication
// ---------------------------------------------------------------------

/// Domains around the morsel alignment (1024 rows): empty, one row, one
/// short of / exactly / one past an aligned block, and a ragged tail.
const UNIT_DOMAINS: [usize; 6] = [0, 1, 1023, 1024, 1025, 3 * 1024 + 7];

/// Worker counts: serial, even, odd (unequal morsels, short tail) and
/// more workers than most domains have aligned blocks.
const UNIT_WORKERS: [usize; 4] = [1, 2, 3, 8];

/// Every table the unit-kind cases read, `n` rows each: `t` (ints with
/// duplicates and negatives), `f` (floats), `ctrl` (irregular runs for
/// dynamic folds), `g` (dense group keys) and `h` (a group key that
/// collides in one bucket between the first and the last row only, so
/// at P > 1 the conflict is *across* morsels).
fn unit_catalog(n: usize) -> Catalog {
    let ints =
        |salt: i64| -> Vec<i64> { (0..n as i64).map(|i| (i * 37 + salt) % 101 - 50).collect() };
    let mut cat = Catalog::in_memory();
    cat.put_i64_column("t", &ints(11));
    let floats: Vec<f32> = ints(5).iter().map(|&v| v as f32 / 4.0).collect();
    cat.put_f32_column("f", &floats);
    let runs: Vec<i64> = (0..n as i64).map(|i| (i / 3 + i / 7) % 5).collect();
    cat.put_i64_column("ctrl", &runs);
    for (name, keys) in [
        ("g", (0..n as i64).map(|i| i * 7 % 16).collect::<Vec<_>>()),
        (
            "h",
            (0..n)
                .map(|i| match i {
                    0 => 3,
                    _ if i == n - 1 => 7,
                    _ => i as i64 % 3,
                })
                .collect(),
        ),
    ] {
        let mut t = Table::new(name);
        t.add_column(TableColumn::from_buffer("k", Buffer::I64(keys)));
        t.add_column(TableColumn::from_buffer("v", Buffer::I64(ints(29))));
        cat.insert_table(t);
    }
    cat
}

/// A grouped aggregation of table `name` over pivots `0..buckets`.
fn grouped(p: &mut Program, name: &str, buckets: usize) {
    let input = p.load(name);
    let pivots = p.range(0, buckets, 1);
    let pos = p.partition(input, kp(".k"), pivots, kp(".val"));
    let scattered = p.scatter(input, input, pos);
    for (agg, out) in [(AggKind::Sum, ".sum"), (AggKind::Max, ".max")] {
        let f = p.fold_agg_kp(agg, scattered, Some(kp(".k")), kp(".v"), kp(out));
        p.ret(f);
    }
}

/// `(case, program builder)`: together they draw every unit kind.
type UnitCase = (&'static str, fn(&mut Program));

const UNIT_CASES: [UnitCase; 11] = [
    ("single: write + select + integer folds", |p| {
        let t = p.load("t");
        let tripled = p.mul_const(t, 3i64);
        let pred = p.greater_const(t, 0i64);
        let sel = p.fold_select_global(pred);
        let sum = p.fold_sum_global(tripled);
        let min = p.fold_min_global(t);
        for v in [tripled, sel, sum, min] {
            p.ret(v);
        }
    }),
    ("single: scan + float fold", |p| {
        let t = p.load("t");
        let f = p.load("f");
        let scan = p.fold_scan_global(t);
        let fsum = p.fold_sum_global(f);
        p.ret(scan);
        p.ret(fsum);
    }),
    ("map", |p| {
        let t = p.load("t");
        let a = p.mul_const(t, 3i64);
        let b = p.add(a, t);
        let c = p.greater_const(b, 10i64);
        p.ret(b);
        p.ret(c);
    }),
    ("uniform: fold, scan, select", |p| {
        let t = p.load("t");
        let ids = p.range_like(0, t, 1);
        let sevens = p.div_const(ids, 7);
        let sum = p.fold_sum(sevens, t);
        let z = p.zip_kp(kp(".fold"), sevens, kp(".val"), kp(".val"), t, kp(".val"));
        let scan = p.fold_scan_kp(z, Some(kp(".fold")), kp(".val"), kp(".val"));
        let fives = p.div_const(ids, 5);
        let pred = p.greater_const(t, 0i64);
        let sel = p.fold_select(fives, pred);
        for v in [sum, scan, sel] {
            p.ret(v);
        }
    }),
    ("dynamic: fold, scan, select", |p| {
        let ctrl = p.load("ctrl");
        let t = p.load("t");
        let z = p.zip_kp(kp(".fold"), ctrl, kp(".val"), kp(".val"), t, kp(".val"));
        let sum = p.fold_agg_kp(AggKind::Sum, z, Some(kp(".fold")), kp(".val"), kp(".val"));
        let scan = p.fold_scan_kp(z, Some(kp(".fold")), kp(".val"), kp(".val"));
        let pred = p.greater_const(t, 0i64);
        let sel = p.fold_select(ctrl, pred);
        for v in [sum, scan, sel] {
            p.ret(v);
        }
    }),
    ("scatter with conflicting and out-of-range positions", |p| {
        let t = p.load("t");
        let ids = p.range_like(0, t, 1);
        let wrapped = p.mod_const(ids, 97i64);
        let pos = p.sub_const(wrapped, 3i64);
        let sc = p.scatter(t, t, pos);
        p.ret(sc);
    }),
    ("partition", |p| {
        let t = p.load("t");
        let pivots = p.range(-40, 8, 10);
        let pos = p.partition(t, kp(".val"), pivots, kp(".val"));
        p.ret(pos);
    }),
    ("vectorized selection", |p| {
        let t = p.load("t");
        let pred = p.greater_const(t, 0i64);
        let ids = p.range_like(0, pred, 1);
        let chunks = p.div_const(ids, 128);
        let sel = p.fold_select(chunks, pred);
        let vals = p.gather(t, sel);
        let sum = p.fold_sum_global(vals);
        let max = p.fold_max_global(vals);
        p.ret(sum);
        p.ret(max);
    }),
    ("fused group aggregation", |p| grouped(p, "g", 16)),
    ("group aggregation, cross-morsel bucket conflict", |p| {
        grouped(p, "h", 4)
    }),
    ("float group aggregation", |p| {
        let g = p.load("g");
        let f = p.load("f");
        let z = p.zip_kp(kp(".k"), g, kp(".k"), kp(".v"), f, kp(".val"));
        let pivots = p.range(0, 16, 1);
        let pos = p.partition(z, kp(".k"), pivots, kp(".val"));
        let scattered = p.scatter(z, z, pos);
        let sums = p.fold_agg_kp(
            AggKind::Sum,
            scattered,
            Some(kp(".k")),
            kp(".v"),
            kp(".sum"),
        );
        p.ret(sums);
    }),
];

/// The unit kinds a compiled program draws, by name.
fn unit_kinds(units: &[Unit]) -> Vec<&'static str> {
    let mut kinds = Vec::new();
    for unit in units {
        match unit {
            Unit::Fragment(f) => match &f.run {
                RunStructure::Single => kinds.extend(f.actions.iter().map(|a| match a {
                    Action::Write { .. } => "single/write",
                    Action::FoldAggAct { .. } => "single/fold",
                    Action::FoldScanAct { .. } => "single/scan",
                    Action::SelectEmit { .. } => "single/select",
                })),
                RunStructure::Map => kinds.push("map"),
                RunStructure::Uniform(_) => kinds.push("uniform"),
                RunStructure::Dynamic(_) => kinds.push("dynamic"),
            },
            Unit::Bulk(b) => kinds.push(match b {
                Bulk::ScatterOp { .. } => "scatter",
                Bulk::PartitionOp { .. } => "partition",
                Bulk::GroupAgg { .. } => "group-agg",
                Bulk::VecSelect { .. } => "vec-select",
            }),
        }
    }
    kinds
}

/// Every unit kind × domains around the morsel alignment × P × predication:
/// the compiled executor (whose one driver cuts each unit's domain, or
/// runs it as one inline morsel) must equal the interpreter everywhere.
#[test]
fn every_unit_kind_matches_the_interpreter_at_every_domain_and_p() {
    let mut drawn = std::collections::BTreeSet::new();
    for n in UNIT_DOMAINS {
        let cat = unit_catalog(n);
        for (case, build) in UNIT_CASES {
            let mut p = Program::new();
            build(&mut p);
            let interp = voodoo_interp::Interpreter::new(&cat)
                .run_program(&p)
                .expect("interp");
            let cp = Compiler::new(&cat).compile(&p).expect("compile");
            drawn.extend(unit_kinds(&cp.units));
            for workers in UNIT_WORKERS {
                for predicated_select in [false, true] {
                    let exec = Executor::new(ExecOptions {
                        parallelism: Parallelism::Fixed(workers),
                        min_parallel_domain: 1,
                        predicated_select,
                        ..Default::default()
                    });
                    let (compiled, _) = exec.run(&cp, &cat).expect("exec");
                    assert_eq!(interp.returns.len(), compiled.returns.len());
                    for (i, (a, b)) in interp.returns.iter().zip(&compiled.returns).enumerate() {
                        let what = format!(
                            "return {i} of {case:?} (n={n}, P={workers}, \
                             predicated={predicated_select})"
                        );
                        assert_vec_eq(a, b, &what);
                    }
                }
            }
        }
    }
    let every = [
        "single/write",
        "single/fold",
        "single/scan",
        "single/select",
        "map",
        "uniform",
        "dynamic",
        "scatter",
        "partition",
        "group-agg",
        "vec-select",
    ];
    let missing: Vec<_> = every.iter().filter(|k| !drawn.contains(*k)).collect();
    assert!(missing.is_empty(), "unit kinds never drawn: {missing:?}");
}

// ---------------------------------------------------------------------
// Property-based differential testing
// ---------------------------------------------------------------------

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A tiny random well-typed program generator: a chain of elementwise
    /// ops over one loaded i64 column, optionally folded at the end.
    fn arb_program() -> impl Strategy<Value = (Vec<i64>, Vec<(u8, i64)>, u8, u8)> {
        (
            collection::vec(-50i64..50, 0..40),
            collection::vec((0u8..6, -10i64..10), 0..6),
            0u8..5,
            1u8..6,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn compiled_matches_interpreter((data, ops, tail, runlen) in arb_program()) {
            let mut cat = Catalog::in_memory();
            cat.put_i64_column("t", &data);
            let mut p = Program::new();
            let t = p.load("t");
            let mut cur = t;
            for (op, c) in &ops {
                let c = *c;
                cur = match op {
                    0 => p.add_const(cur, c),
                    1 => p.sub_const(cur, c),
                    2 => p.mul_const(cur, c),
                    3 => p.div_const(cur, if c == 0 { 1 } else { c }),
                    4 => p.greater_const(cur, c),
                    _ => p.binary(BinOp::Equals, cur, t),
                };
            }
            let out = match tail {
                0 => p.fold_sum_global(cur),
                1 => p.fold_min_global(cur),
                2 => p.fold_max_global(cur),
                3 => {
                    let ids = p.range_like(0, cur, 1);
                    let part = p.div_const(ids, runlen as i64);
                    p.fold_sum(part, cur)
                }
                _ => cur,
            };
            p.ret(out);
            assert_equivalent(&cat, &p);
        }

        #[test]
        fn gather_scatter_roundtrip(data in collection::vec(-100i64..100, 1..50)) {
            let mut cat = Catalog::in_memory();
            cat.put_i64_column("t", &data);
            let n = data.len();
            let mut p = Program::new();
            let t = p.load("t");
            // Reverse permutation: scatter to reversed slots, gather back.
            let rev = p.range(n as i64 - 1, n, -1);
            let scattered = p.scatter(t, t, rev);
            let back = p.gather(scattered, rev);
            p.ret(back);
            let interp = voodoo_interp::Interpreter::new(&cat).run(&p).unwrap();
            // Round trip is the identity.
            for (i, &d) in data.iter().enumerate() {
                prop_assert_eq!(interp.value_at(i, &kp(".val")), Some(ScalarValue::I64(d)));
            }
            assert_equivalent(&cat, &p);
        }
    }
}
