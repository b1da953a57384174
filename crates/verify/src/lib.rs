//! # voodoo-verify — static analysis for the Voodoo vector algebra
//!
//! The paper's bet is that a small vector algebra is an *analyzable*
//! compilation target: because operators are stateless, deterministic and
//! free of runtime control flow, every property that matters — shapes,
//! table reads and writes, parallel safety — is derivable from the IR before
//! anything runs. This crate centralizes that reasoning as a multi-pass
//! analyzer every `Backend::prepare` runs before planning:
//!
//! 1. **Structure** ([`voodoo_core::diag::check_structure`]) — SSA
//!    def-before-use, return validity; collects every violation as a
//!    [`Diagnostic`] instead of stopping at the first.
//! 2. **Shape** ([`voodoo_core::typecheck::infer`]) — key-path
//!    resolution, operand type/length compatibility, fold control
//!    attributes; errors are routed into the same diagnostics.
//! 3. **Sentinel domain** ([`sentinel`]) — can a vector contain the
//!    `i64::MIN`/`i64::MAX` identity values that masked `MIN`/`MAX`
//!    lowerings reserve? Collisions are rejected at prepare, not
//!    discovered as wrong answers.
//! 4. **Effects** ([`mod@effects`]) — the *exact* table read/write sets
//!    (liveness-aware, unlike the syntactic `Program::table_deps`),
//!    which plan-cache freshness is keyed on.
//! 5. **Parallel safety** ([`safety`]) — per-statement verdicts the
//!    morsel executor consults instead of inlining per-kernel rules.
//!
//! The analyzer either rejects with [`VoodooError::Rejected`] carrying
//! the full diagnostic list, or returns an [`Analysis`] whose facts the
//! compiler and executor reuse (no second inference pass). Invariant:
//! **no program executes unverified.**

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(rust_2018_idioms, unused_qualifications)]

pub mod effects;
pub mod safety;
pub mod sentinel;

pub use effects::{effects, live_statements, Effects};
pub use safety::{classify, ParallelSafety};
pub use sentinel::{domains, SentinelDomain};

use voodoo_core::diag::{check_structure, Diagnostic, Pass};
use voodoo_core::typecheck::{infer, Shapes};
use voodoo_core::{Program, Result, VoodooError};
use voodoo_storage::Catalog;

/// The combined result of all analyzer passes over one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Inferred shape (schema, length, run metadata) per statement.
    pub shapes: Shapes,
    /// Exact table read and write sets.
    pub effects: Effects,
    /// Parallel-safety verdict per statement.
    pub safety: Vec<ParallelSafety>,
    /// Sentinel-domain fact per statement.
    pub sentinels: Vec<SentinelDomain>,
    /// Liveness per statement (reachable from a return or a `Persist`).
    pub live: Vec<bool>,
}

/// Run every pass; reject with [`VoodooError::Rejected`] (carrying all
/// findings of the failing pass) or return the full [`Analysis`].
pub fn analyze(program: &Program, catalog: &Catalog) -> Result<Analysis> {
    // Pass 1: structure. Later passes index freely into the statement
    // list, so nothing else runs until the SSA skeleton is sound.
    let structural = check_structure(program);
    if !structural.is_empty() {
        return Err(VoodooError::Rejected(structural));
    }
    // Pass 2: shapes and types.
    let shapes = match infer(program, catalog) {
        Ok(s) => s,
        Err(e) => {
            return Err(VoodooError::Rejected(vec![Diagnostic::from_error(
                Pass::Shape,
                &e,
            )]))
        }
    };
    // Pass 2b: sentinel domains (restricted to live statements — dead
    // code cannot corrupt a result).
    let live = live_statements(program);
    let sentinel_diags = sentinel::check(program, catalog, &live);
    if !sentinel_diags.is_empty() {
        return Err(VoodooError::Rejected(sentinel_diags));
    }
    let sentinels = domains(program, catalog);
    // Passes 3 and 4 cannot fail; they produce facts for the planner.
    let effects = effects(program);
    let safety = classify(program, &shapes);
    Ok(Analysis {
        shapes,
        effects,
        safety,
        sentinels,
        live,
    })
}

/// All diagnostics for a program, across every pass, without stopping at
/// the first failing pass's rejection. Empty means the program is clean
/// (it would pass [`analyze`]). This is the `Session::verify()` backbone.
pub fn diagnostics(program: &Program, catalog: &Catalog) -> Vec<Diagnostic> {
    let mut diags = check_structure(program);
    if !diags.is_empty() {
        // Shape inference indexes by statement order and is meaningless
        // over a structurally broken program.
        return diags;
    }
    if let Err(e) = infer(program, catalog) {
        diags.push(Diagnostic::from_error(Pass::Shape, &e));
        return diags;
    }
    let live = live_statements(program);
    diags.extend(sentinel::check(program, catalog, &live));
    diags
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
        assert_eq!(a.effects.reads, vec!["t".to_string()]);
        assert_eq!(a.safety.len(), p.len());
        assert!(a.live.iter().all(|l| *l));
        assert_eq!(a.shapes.of(v).len, 4);
        assert!(diagnostics(&p, &catalog()).is_empty());
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
        let diags = diagnostics(&p, &catalog());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pass, Pass::Shape);
        assert_eq!(diags[0].stmt, Some(bad.index()));
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
