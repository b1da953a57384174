//! Structured diagnostics for static analysis of Voodoo programs.
//!
//! Every front door to execution (the `voodoo-verify` analyzer, the
//! interpreter's own admission check, `Session::verify()`) reports
//! malformed programs through one type: a [`Diagnostic`] names the
//! offending statement, the operator, the analysis [`Pass`] that found
//! the problem, and a human-readable reason. Analyses collect *every*
//! finding instead of stopping at the first, so a caller sees the whole
//! story in one round trip — and nothing ever panics on a bad program.

use std::fmt;

use crate::error::VoodooError;
use crate::program::Program;

/// The analysis pass that produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Structural verification: SSA def-before-use, return validity,
    /// operator arity (subsumes [`Program::validate`]).
    Structure,
    /// Shape and type inference: key-path resolution, operand type and
    /// length compatibility, fold control attributes.
    Shape,
    /// Sentinel check: can a masked fold's input contain the
    /// `i64::MIN` / `i64::MAX` identity values its lowering treats as
    /// "masked out"?
    Sentinel,
}

impl Pass {
    /// Stable lower-case name used in rendered diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Structure => "structure",
            Pass::Shape => "shape",
            Pass::Sentinel => "sentinel",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding of a static analysis pass over a program.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Index of the offending statement, when the finding points at one
    /// (`None` for whole-program findings such as "no return value").
    pub stmt: Option<usize>,
    /// Paper-style operator name of the offending statement, if any.
    pub op: Option<String>,
    /// The pass that produced this finding.
    pub pass: Pass,
    /// Human-readable explanation.
    pub reason: String,
}

impl Diagnostic {
    /// A whole-program finding (not tied to a statement).
    pub fn program(pass: Pass, reason: impl Into<String>) -> Diagnostic {
        Diagnostic {
            stmt: None,
            op: None,
            pass,
            reason: reason.into(),
        }
    }

    /// A finding pointed at one statement.
    pub fn at(
        stmt: usize,
        op: impl Into<String>,
        pass: Pass,
        reason: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            stmt: Some(stmt),
            op: Some(op.into()),
            pass,
            reason: reason.into(),
        }
    }

    /// Convert a [`VoodooError`] raised by an analysis (e.g.
    /// [`crate::typecheck::infer`]) into a diagnostic, recovering the
    /// statement index where the error encodes one — either structurally
    /// ([`VoodooError::InvalidReference`]) or via the `"%idx Op"`
    /// convention of inference context strings.
    pub fn from_error(pass: Pass, err: &VoodooError) -> Diagnostic {
        let stmt = match err {
            VoodooError::InvalidReference { stmt, .. } => Some(*stmt),
            VoodooError::UnknownKeyPath { context, .. }
            | VoodooError::TypeMismatch { context, .. }
            | VoodooError::UnsupportedType { context, .. }
            | VoodooError::SizeMismatch { context, .. }
            | VoodooError::ControlBitConflict { context } => stmt_from_context(context),
            _ => None,
        };
        Diagnostic {
            stmt,
            op: None,
            pass,
            reason: err.to_string(),
        }
    }
}

/// Parse the statement index out of a `"%idx OpName ..."` context string.
fn stmt_from_context(context: &str) -> Option<usize> {
    let rest = context.strip_prefix('%')?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.pass)?;
        if let Some(i) = self.stmt {
            write!(f, " %{i}")?;
        }
        if let Some(op) = &self.op {
            write!(f, " {op}")?;
        }
        write!(f, ": {}", self.reason)
    }
}

/// Structural verification (analyzer pass 1): SSA def-before-use, return
/// validity, and per-operator reference sanity. Subsumes
/// [`Program::validate`], but collects **all** violations as structured
/// diagnostics instead of stopping at the first error.
///
/// An empty return value means the program is structurally well-formed;
/// only then is it meaningful to run shape inference over it.
pub fn check_structure(program: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if program.stmts().is_empty() {
        diags.push(Diagnostic::program(
            Pass::Structure,
            "program has no statements",
        ));
    }
    if program.returns().is_empty() {
        diags.push(Diagnostic::program(
            Pass::Structure,
            "program returns no results",
        ));
    }
    for (i, stmt) in program.stmts().iter().enumerate() {
        for input in stmt.op.inputs() {
            if input.index() >= i {
                let what = if input.index() == i {
                    "itself"
                } else {
                    "a later statement"
                };
                diags.push(Diagnostic::at(
                    i,
                    stmt.op.name(),
                    Pass::Structure,
                    format!(
                        "operand %{} references {what} (SSA def-before-use violation)",
                        input.index()
                    ),
                ));
            }
        }
    }
    for r in program.returns() {
        if r.index() >= program.stmts().len() {
            diags.push(Diagnostic::program(
                Pass::Structure,
                format!(
                    "return references %{} but the program has only {} statements",
                    r.index(),
                    program.stmts().len()
                ),
            ));
        }
    }
    diags
}

/// Wrap a non-empty diagnostic list in the shared error type; `Ok(())`
/// when the list is empty. The standard way an admission check turns
/// analysis findings into a `Result`.
pub fn reject_if_any(diags: Vec<Diagnostic>) -> crate::error::Result<()> {
    if diags.is_empty() {
        Ok(())
    } else {
        Err(VoodooError::Rejected(diags))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keypath::KeyPath;
    use crate::ops::Op;
    use crate::program::VRef;

    #[test]
    fn clean_program_yields_no_diagnostics() {
        let mut p = Program::new();
        let a = p.load("t");
        let b = p.add_const(a, 1i64);
        p.ret(b);
        assert!(check_structure(&p).is_empty());
    }

    #[test]
    fn empty_program_yields_program_level_diags() {
        let p = Program::new();
        let diags = check_structure(&p);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.stmt.is_none()));
        assert!(reject_if_any(diags).is_err());
    }

    #[test]
    fn forward_reference_is_pointed_at_statement() {
        let mut p = Program::new();
        p.push(Op::Project {
            out: KeyPath::val(),
            v: VRef(5),
            kp: KeyPath::val(),
        });
        let v = p.load("t");
        p.ret(v);
        let diags = check_structure(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].stmt, Some(0));
        assert_eq!(diags[0].op.as_deref(), Some("Project"));
        assert_eq!(diags[0].pass, Pass::Structure);
    }

    #[test]
    fn out_of_range_return_reported() {
        let mut p = Program::new();
        p.load("t");
        p.ret(VRef(9));
        let diags = check_structure(&p);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].reason.contains("%9"));
    }

    #[test]
    fn collects_every_violation_not_just_first() {
        let mut p = Program::new();
        p.push(Op::Project {
            out: KeyPath::val(),
            v: VRef(3),
            kp: KeyPath::val(),
        });
        p.push(Op::Project {
            out: KeyPath::val(),
            v: VRef(4),
            kp: KeyPath::val(),
        });
        p.ret(VRef(0));
        p.ret(VRef(7));
        let diags = check_structure(&p);
        assert_eq!(diags.len(), 3);
    }

    #[test]
    fn from_error_recovers_statement_index() {
        let err = VoodooError::UnknownKeyPath {
            keypath: KeyPath::new(".x"),
            context: "%4 Binary lhs".to_string(),
        };
        let d = Diagnostic::from_error(Pass::Shape, &err);
        assert_eq!(d.stmt, Some(4));
        let err2 = VoodooError::UnknownTable("nope".to_string());
        let d2 = Diagnostic::from_error(Pass::Shape, &err2);
        assert_eq!(d2.stmt, None);
        assert!(d2.reason.contains("nope"));
    }

    #[test]
    fn display_renders_pass_statement_and_reason() {
        let d = Diagnostic::at(3, "FoldSum", Pass::Sentinel, "may contain i64::MAX");
        let s = d.to_string();
        assert!(s.contains("[sentinel]"), "{s}");
        assert!(s.contains("%3"), "{s}");
        assert!(s.contains("FoldSum"), "{s}");
    }
}
