//! Program rewrites: common-subexpression elimination and dead-code
//! elimination over the SSA algebra.
//!
//! The paper motivates both: operator non-redundancy "increases the number
//! of opportunities for common subexpression elimination" (§2, Minimal),
//! and Voodoo plans are DAGs precisely "to enable sharing of intermediate
//! results" (§3.1). These passes realize that sharing mechanically:
//! frontends can emit naively (each `fold_sum` convenience re-zips its
//! control vector, every query plan re-derives `Range`s) and normalize
//! afterwards.
//!
//! Both passes preserve semantics *exactly*, including ε structure and
//! `Persist` side effects; the root-level `tests/transforms.rs` pins
//! rewritten programs to the originals on both backends.
//!
//! ```
//! use voodoo_core::{transform, Program};
//!
//! let mut p = Program::new();
//! let v = p.load("t");
//! let a = p.add_const(v, 1i64);
//! let b = p.add_const(v, 1i64); // duplicate subexpression
//! let dead = p.mul(a, b);       // never returned
//! let live = p.add(a, b);
//! p.ret(live);
//! # let _ = dead;
//!
//! let (optimized, stats) = transform::optimize(&p);
//! assert!(stats.merged >= 1, "the duplicate add merges");
//! assert!(stats.dropped >= 1, "the unused multiply drops");
//! assert!(optimized.len() < p.len());
//! optimized.validate().unwrap();
//! ```

use std::collections::HashMap;

use crate::program::{Program, Statement, VRef};

/// Statistics of a rewrite, for logging and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Statements in the input program.
    pub before: usize,
    /// Statements in the output program.
    pub after: usize,
    /// Statements merged by CSE.
    pub merged: usize,
    /// Statements dropped by DCE.
    pub dropped: usize,
}

impl RewriteStats {
    /// Statements removed in total.
    pub fn removed(&self) -> usize {
        self.before - self.after
    }
}

/// Common-subexpression elimination: structurally identical statements
/// (after input remapping) collapse to the first occurrence. `Persist` is
/// never merged (side effect); everything else in the algebra is pure and
/// deterministic (§2), so equal operators over equal inputs produce equal
/// vectors. A program with a forward or out-of-range reference comes back
/// unchanged.
pub fn cse(program: &Program) -> (Program, RewriteStats) {
    if program.check_references().is_err() {
        return unchanged(program);
    }
    let mut out = Program::new();
    // Old statement index → new VRef.
    let mut remap: Vec<VRef> = Vec::with_capacity(program.len());
    // Structural key (Debug form of the remapped op) → new VRef.
    let mut seen: HashMap<String, VRef> = HashMap::new();
    let mut merged = 0usize;

    for stmt in program.stmts() {
        let op = stmt.op.map_inputs(|v| remap[v.index()]);
        if op.has_side_effect() {
            let nv = out.push(op);
            copy_label(&mut out, nv, stmt);
            remap.push(nv);
            continue;
        }
        let key = format!("{op:?}");
        if let Some(&nv) = seen.get(&key) {
            merged += 1;
            remap.push(nv);
        } else {
            let nv = out.push(op);
            copy_label(&mut out, nv, stmt);
            seen.insert(key, nv);
            remap.push(nv);
        }
    }
    for &r in program.returns() {
        out.ret(remap[r.index()]);
    }
    let stats = RewriteStats {
        before: program.len(),
        after: out.len(),
        merged,
        dropped: 0,
    };
    debug_assert_eq!(program.len(), remap.len());
    (out, stats)
}

/// Dead-code elimination: statements not reachable from a return value or
/// a `Persist` are dropped (a frontend exploring tuning variants leaves
/// such residue behind). A program with a forward or out-of-range
/// reference comes back unchanged.
pub fn dce(program: &Program) -> (Program, RewriteStats) {
    if program.check_references().is_err() {
        return unchanged(program);
    }
    let n = program.len();
    let mut live = vec![false; n];
    let mut stack: Vec<VRef> = program.returns().to_vec();
    for (i, stmt) in program.stmts().iter().enumerate() {
        if stmt.op.has_side_effect() {
            stack.push(VRef(i as u32));
        }
    }
    while let Some(v) = stack.pop() {
        if live[v.index()] {
            continue;
        }
        live[v.index()] = true;
        for input in program.stmt(v).op.inputs() {
            stack.push(input);
        }
    }

    let mut out = Program::new();
    let mut remap: Vec<Option<VRef>> = vec![None; n];
    let mut dropped = 0usize;
    for (i, stmt) in program.stmts().iter().enumerate() {
        if !live[i] {
            dropped += 1;
            continue;
        }
        let op = stmt
            .op
            .map_inputs(|v| remap[v.index()].expect("live statements form a DAG"));
        let nv = out.push(op);
        copy_label(&mut out, nv, stmt);
        remap[i] = Some(nv);
    }
    for &r in program.returns() {
        out.ret(remap[r.index()].expect("returns are live"));
    }
    let stats = RewriteStats {
        before: n,
        after: out.len(),
        merged: 0,
        dropped,
    };
    (out, stats)
}

/// The normalization pipeline: CSE to expose sharing, then DCE to drop
/// residue. Idempotent: a second application changes nothing. A
/// structurally broken program (a forward or out-of-range reference, which
/// [`Program::validate`] rejects) comes back unchanged with
/// [`RewriteStats::removed`] 0, so callers may optimize before or without
/// verifying.
pub fn optimize(program: &Program) -> (Program, RewriteStats) {
    let (p1, s1) = cse(program);
    let (p2, s2) = dce(&p1);
    let stats = RewriteStats {
        before: s1.before,
        after: s2.after,
        merged: s1.merged,
        dropped: s2.dropped,
    };
    (p2, stats)
}

/// The identity rewrite, for programs the passes cannot index safely.
fn unchanged(program: &Program) -> (Program, RewriteStats) {
    let n = program.len();
    let stats = RewriteStats {
        before: n,
        after: n,
        merged: 0,
        dropped: 0,
    };
    (program.clone(), stats)
}

fn copy_label(out: &mut Program, nv: VRef, stmt: &Statement) {
    if let Some(label) = &stmt.label {
        out.label(nv, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use crate::{BinOp, KeyPath, Program};

    /// Two textually identical subexpressions collapse to one.
    #[test]
    fn cse_merges_duplicate_chains() {
        let mut p = Program::new();
        let v = p.load("t");
        let a1 = p.add_const(v, 1i64);
        let a2 = p.add_const(v, 1i64); // duplicate chain (constant + add)
        let s = p.add(a1, a2);
        p.ret(s);
        let before = p.len();
        let (q, stats) = cse(&p);
        assert!(stats.merged >= 2, "constant and add both merge: {stats:?}");
        assert!(q.len() < before);
        q.validate().expect("rewritten program is well-formed SSA");
    }

    #[test]
    fn cse_never_merges_persists() {
        let mut p = Program::new();
        let v = p.load("t");
        p.persist("a", v);
        p.persist("a", v); // same name twice: both must survive
        let (q, _) = cse(&p);
        let persists = q
            .stmts()
            .iter()
            .filter(|s| matches!(s.op, Op::Persist { .. }))
            .count();
        assert_eq!(persists, 2);
    }

    #[test]
    fn cse_distinguishes_different_constants() {
        let mut p = Program::new();
        let v = p.load("t");
        let a = p.add_const(v, 1i64);
        let b = p.add_const(v, 2i64);
        let s = p.add(a, b);
        p.ret(s);
        let (q, stats) = cse(&p);
        assert_eq!(stats.merged, 0);
        assert_eq!(q.len(), p.len());
    }

    #[test]
    fn dce_drops_unreachable_statements() {
        let mut p = Program::new();
        let v = p.load("t");
        let _dead = p.mul_const(v, 100i64); // never used
        let live = p.add_const(v, 1i64);
        p.ret(live);
        let (q, stats) = dce(&p);
        assert_eq!(stats.dropped, 2, "dead constant + dead multiply");
        q.validate().expect("valid after DCE");
        assert_eq!(q.returns().len(), 1);
    }

    #[test]
    fn dce_keeps_persist_chains() {
        let mut p = Program::new();
        let v = p.load("t");
        let doubled = p.mul_const(v, 2i64);
        p.persist("out", doubled); // no ret at all
        let (q, stats) = dce(&p);
        assert_eq!(stats.dropped, 0, "persist keeps its inputs alive");
        assert_eq!(q.len(), p.len());
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut p = Program::new();
        let v = p.load("t");
        let a1 = p.add_const(v, 1i64);
        let a2 = p.add_const(v, 1i64);
        let _dead = p.mul(a1, a2);
        let keep = p.binary(BinOp::Multiply, a1, a2);
        let _dead2 = p.project(keep, KeyPath::val(), KeyPath::new(".x"));
        p.ret(keep);
        let (q1, s1) = optimize(&p);
        assert!(s1.removed() > 0);
        let (q2, s2) = optimize(&q1);
        assert_eq!(s2.removed(), 0, "second pass finds nothing");
        assert_eq!(q1, q2);
    }

    #[test]
    fn labels_survive_rewrites() {
        let mut p = Program::new();
        let v = p.load("t");
        let a = p.add_const(v, 1i64);
        p.label(a, "incremented");
        p.ret(a);
        let (q, _) = optimize(&p);
        assert!(q
            .stmts()
            .iter()
            .any(|s| s.label.as_deref() == Some("incremented")));
    }

    #[test]
    fn empty_program_passes_through() {
        let p = Program::new();
        let (q, stats) = optimize(&p);
        assert_eq!(q.len(), 0);
        assert_eq!(stats.removed(), 0);
    }

    /// A broken program comes back as it went in, from every pass.
    fn assert_unchanged(p: &Program) {
        assert!(p.validate().is_err(), "the fixture must be broken");
        for (name, pass) in [
            ("cse", cse as fn(&Program) -> (Program, RewriteStats)),
            ("dce", dce),
            ("optimize", optimize),
        ] {
            let (q, stats) = pass(p);
            assert_eq!(&q, p, "{name} rewrote a broken program");
            assert_eq!(stats.removed(), 0, "{name}: {stats:?}");
            assert_eq!((stats.merged, stats.dropped), (0, 0), "{name}: {stats:?}");
        }
    }

    #[test]
    fn forward_reference_passes_through_unchanged() {
        let mut p = Program::new();
        // Statement 0 reads statement 1, which comes after it.
        p.push(Op::Project {
            out: KeyPath::val(),
            v: VRef(1),
            kp: KeyPath::val(),
        });
        let v = p.load("t");
        let a1 = p.add_const(v, 1i64);
        let a2 = p.add_const(v, 1i64); // would merge in a valid program
        let s = p.add(a1, a2);
        p.ret(s);
        assert_unchanged(&p);
    }

    #[test]
    fn out_of_range_return_passes_through_unchanged() {
        let mut p = Program::new();
        let v = p.load("t");
        let a1 = p.add_const(v, 1i64);
        let a2 = p.add_const(v, 1i64); // would merge in a valid program
        let s = p.add(a1, a2);
        p.ret(s);
        p.ret(VRef(p.len() as u32 + 3));
        assert_unchanged(&p);
    }
}
