//! # voodoo-verify — static analysis for the Voodoo vector algebra
//!
//! The paper's bet is that a small vector algebra is an *analyzable*
//! compilation target: because operators are stateless, deterministic and
//! free of runtime control flow, every property that matters — shapes,
//! table reads and writes, parallel safety — is derivable from the IR before
//! anything runs. This crate centralizes that reasoning in one entry
//! point, [`analyze`], which runs these passes in order:
//!
//! 1. **Structure** ([`voodoo_core::diag::check_structure`]) — SSA
//!    def-before-use, return validity; collects every violation as a
//!    [`Diagnostic`] instead of stopping at the first.
//! 2. **Shape** ([`voodoo_core::typecheck::infer`]) — key-path
//!    resolution, operand type/length compatibility, fold control
//!    attributes; errors are routed into the same diagnostics.
//! 3. **Sentinel** ([`sentinel`]) — rejects a live masked `MIN`/`MAX`
//!    fold whose data may equal the identity the lowering reserves, at
//!    prepare, instead of returning a wrong answer.
//! 4. **Parallel safety** ([`safety`]) — per-statement verdicts the
//!    morsel executor consults instead of inlining per-kernel rules.
//!
//! [`effects()`] (the exact, liveness-aware table read/write sets) is not
//! one of these passes: it needs no catalog, and the plan cache runs it
//! on every lookup to key freshness.
//!
//! [`analyze`] either rejects with [`VoodooError::Rejected`], carrying
//! every finding of the first failing pass, or returns a [`Verified`]
//! program. It is the only way to obtain one, and the compiler builds
//! plans only from a [`Verified`], so **no program is planned
//! unverified**. Each `Backend::prepare` analyzes a program once; the CPU
//! backend analyzes a second time only when its CSE/DCE normalization
//! rewrote the program, because the facts belong to the exact statement
//! list they were derived from.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(rust_2018_idioms, unused_qualifications)]

pub mod effects;
pub mod safety;
pub mod sentinel;

pub use effects::{effects, live_statements, Effects};
pub use safety::{classify, ParallelSafety};

use voodoo_core::diag::{check_structure, Diagnostic, Pass};
use voodoo_core::typecheck::{infer, Shapes};
use voodoo_core::{Program, Result, VoodooError};
use voodoo_storage::Catalog;

/// A program that passed every analyzer pass, with the facts the compiler
/// plans from. Only [`analyze`] constructs one, and it borrows the exact
/// program those facts describe.
#[derive(Debug)]
pub struct Verified<'p> {
    program: &'p Program,
    shapes: Shapes,
    safety: Vec<ParallelSafety>,
}

impl<'p> Verified<'p> {
    /// The verified program, its inferred shape per statement, and its
    /// parallel-safety verdict per statement.
    pub fn into_parts(self) -> (&'p Program, Shapes, Vec<ParallelSafety>) {
        (self.program, self.shapes, self.safety)
    }
}

/// Run every pass; reject with [`VoodooError::Rejected`] (carrying all
/// findings of the failing pass) or return the [`Verified`] program.
pub fn analyze<'p>(program: &'p Program, catalog: &Catalog) -> Result<Verified<'p>> {
    // Pass 1: structure. Later passes index freely into the statement
    // list, so nothing else runs until the SSA skeleton is sound.
    let structural = check_structure(program);
    if !structural.is_empty() {
        return Err(VoodooError::Rejected(structural));
    }
    // Pass 2: shapes and types.
    let shapes = infer(program, catalog)
        .map_err(|e| VoodooError::Rejected(vec![Diagnostic::from_error(Pass::Shape, &e)]))?;
    // Pass 3: sentinels, over live statements only — dead code cannot
    // corrupt a result.
    let sentinel_diags = sentinel::check(program, catalog, &live_statements(program));
    if !sentinel_diags.is_empty() {
        return Err(VoodooError::Rejected(sentinel_diags));
    }
    // Pass 4 cannot fail; it produces facts for the planner.
    let safety = classify(program, &shapes);
    Ok(Verified {
        program,
        shapes,
        safety,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use voodoo_core::KeyPath;

    fn catalog() -> Catalog {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[1, 2, 3, 4]);
        cat
    }

    #[test]
    fn clean_program_analyzes() {
        let mut p = Program::new();
        let v = p.load("t");
        let s = p.fold_sum_global(v);
        p.ret(s);
        let a = analyze(&p, &catalog()).expect("clean");
        assert!(std::ptr::eq(a.program, &p));
        assert_eq!(a.safety.len(), p.len());
        assert_eq!(a.shapes.of(v).len, 4);
    }

    #[test]
    fn structural_rejection_carries_all_findings() {
        let mut p = Program::new();
        p.push(voodoo_core::Op::Project {
            out: KeyPath::val(),
            v: voodoo_core::VRef(7),
            kp: KeyPath::val(),
        });
        // No return either: two findings.
        match analyze(&p, &catalog()) {
            Err(VoodooError::Rejected(diags)) => assert_eq!(diags.len(), 2),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn shape_error_becomes_pointed_diagnostic() {
        let mut p = Program::new();
        let v = p.load("t");
        let bad = p.binary_kp(voodoo_core::BinOp::Add, v, ".missing", v, ".val", ".x");
        p.ret(bad);
        match analyze(&p, &catalog()) {
            Err(VoodooError::Rejected(diags)) => {
                assert_eq!(diags.len(), 1);
                assert_eq!(diags[0].pass, Pass::Shape);
                assert_eq!(diags[0].stmt, Some(bad.index()));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn unknown_table_rejected_not_panicked() {
        let mut p = Program::new();
        let v = p.load("nope");
        p.ret(v);
        match analyze(&p, &catalog()) {
            Err(VoodooError::Rejected(diags)) => {
                assert_eq!(diags.len(), 1);
                assert!(diags[0].reason.contains("nope"));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }
}
