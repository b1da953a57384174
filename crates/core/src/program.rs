//! SSA programs and the fluent program builder.
//!
//! A Voodoo program is a DAG of operator applications in static single
//! assignment form (paper Figure 3 is written exactly this way). Statements
//! are stored in topological (program) order; [`VRef`]s are indices into the
//! statement list.
//!
//! The [`Program`] builder offers one method per operator plus the
//! conveniences the paper uses informally (`FoldCount`, scalar-broadcast
//! arithmetic, control-vector zipping).

use std::fmt;

use crate::error::{Result, VoodooError};
use crate::keypath::KeyPath;
use crate::ops::{AggKind, BinOp, Op, SizeSpec};
use crate::scalar::ScalarValue;

/// A reference to the result of a statement (SSA value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VRef(pub u32);

impl VRef {
    /// The statement index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// One SSA statement: an operator plus an optional human-readable label.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// The operator application.
    pub op: Op,
    /// Optional label used by the pretty-printer (e.g. `partitionIDs`).
    pub label: Option<String>,
}

/// A Voodoo program: SSA statements plus the returned results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    stmts: Vec<Statement>,
    returns: Vec<VRef>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Append a raw operator; returns its SSA reference.
    pub fn push(&mut self, op: Op) -> VRef {
        let r = VRef(self.stmts.len() as u32);
        self.stmts.push(Statement { op, label: None });
        r
    }

    /// Attach a label to a statement (pretty-printing only).
    pub fn label(&mut self, v: VRef, name: &str) -> VRef {
        self.stmts[v.index()].label = Some(name.to_string());
        v
    }

    /// Mark a statement's result as a program output.
    pub fn ret(&mut self, v: VRef) {
        self.returns.push(v);
    }

    /// The statements in program order.
    pub fn stmts(&self) -> &[Statement] {
        &self.stmts
    }

    /// The statement behind a reference.
    pub fn stmt(&self, v: VRef) -> &Statement {
        &self.stmts[v.index()]
    }

    /// The returned results, in `ret` order.
    pub fn returns(&self) -> &[VRef] {
        &self.returns
    }

    /// An exhaustive, collision-free rendering for keying caches: every
    /// operator field is included (unlike `Display`, which elides
    /// parameters like `Project` key paths for readability), while the
    /// pretty-printing-only statement labels are excluded (two programs
    /// differing only in labels are the same program).
    pub fn cache_key(&self) -> String {
        use fmt::Write;
        let mut s = String::new();
        for stmt in &self.stmts {
            let _ = writeln!(s, "{:?}", stmt.op);
        }
        let _ = write!(s, "returns {:?}", self.returns);
        s
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Check SSA well-formedness: every input precedes its use and at least
    /// one result is returned.
    pub fn validate(&self) -> Result<()> {
        if self.stmts.is_empty() || self.returns.is_empty() {
            return Err(VoodooError::EmptyProgram);
        }
        for (i, stmt) in self.stmts.iter().enumerate() {
            for input in stmt.op.inputs() {
                if input.index() >= i {
                    return Err(VoodooError::InvalidReference {
                        stmt: i,
                        referenced: input.index(),
                    });
                }
            }
        }
        for r in &self.returns {
            if r.index() >= self.stmts.len() {
                return Err(VoodooError::InvalidReference {
                    stmt: self.stmts.len(),
                    referenced: r.index(),
                });
            }
        }
        Ok(())
    }

    /// Statements that consume `v`, in program order.
    pub fn consumers(&self, v: VRef) -> Vec<VRef> {
        self.stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op.inputs().contains(&v))
            .map(|(i, _)| VRef(i as u32))
            .collect()
    }

    // ------------------------------------------------------------------
    // Maintenance operators
    // ------------------------------------------------------------------

    /// `Load(name)` — load a persistent vector.
    pub fn load(&mut self, name: &str) -> VRef {
        self.push(Op::Load {
            name: name.to_string(),
        })
    }

    /// `Persist(name, v)`.
    pub fn persist(&mut self, name: &str, v: VRef) -> VRef {
        self.push(Op::Persist {
            name: name.to_string(),
            v,
        })
    }

    /// A length-1 constant vector with attribute `.val`.
    pub fn constant(&mut self, value: impl Into<ScalarValue>) -> VRef {
        self.push(Op::Constant {
            out: KeyPath::val(),
            value: value.into(),
            like: None,
        })
    }

    /// A constant broadcast to the length of `like` (Figure 8's
    /// `.globalPartition = Constant(0)`).
    pub fn constant_like(&mut self, value: impl Into<ScalarValue>, like: VRef) -> VRef {
        self.push(Op::Constant {
            out: KeyPath::val(),
            value: value.into(),
            like: Some(like),
        })
    }

    // ------------------------------------------------------------------
    // Elementwise operators
    // ------------------------------------------------------------------

    /// Fully general binary operator.
    pub fn binary_kp(
        &mut self,
        op: BinOp,
        lhs: VRef,
        lhs_kp: impl Into<KeyPath>,
        rhs: VRef,
        rhs_kp: impl Into<KeyPath>,
        out: impl Into<KeyPath>,
    ) -> VRef {
        self.push(Op::Binary {
            op,
            out: out.into(),
            lhs,
            lhs_kp: lhs_kp.into(),
            rhs,
            rhs_kp: rhs_kp.into(),
        })
    }

    /// Binary operator over the default `.val` attributes.
    pub fn binary(&mut self, op: BinOp, lhs: VRef, rhs: VRef) -> VRef {
        self.binary_kp(op, lhs, KeyPath::val(), rhs, KeyPath::val(), KeyPath::val())
    }

    /// Binary operator with a broadcast scalar right-hand side
    /// (`Divide(ids, partitionSize)` with `partitionSize := Constant(1024)`).
    pub fn binary_const(
        &mut self,
        op: BinOp,
        lhs: VRef,
        lhs_kp: impl Into<KeyPath>,
        rhs: impl Into<ScalarValue>,
        out: impl Into<KeyPath>,
    ) -> VRef {
        let c = self.constant(rhs);
        self.binary_kp(op, lhs, lhs_kp, c, KeyPath::val(), out)
    }

    /// `Add` over `.val`.
    pub fn add(&mut self, lhs: VRef, rhs: VRef) -> VRef {
        self.binary(BinOp::Add, lhs, rhs)
    }

    /// `Subtract` over `.val`.
    pub fn sub(&mut self, lhs: VRef, rhs: VRef) -> VRef {
        self.binary(BinOp::Subtract, lhs, rhs)
    }

    /// `Multiply` over `.val`.
    pub fn mul(&mut self, lhs: VRef, rhs: VRef) -> VRef {
        self.binary(BinOp::Multiply, lhs, rhs)
    }

    /// `Divide` over `.val`.
    pub fn div(&mut self, lhs: VRef, rhs: VRef) -> VRef {
        self.binary(BinOp::Divide, lhs, rhs)
    }

    /// `Divide(.val, const)` — the Figure 3 partition-id idiom.
    pub fn div_const(&mut self, lhs: VRef, rhs: impl Into<ScalarValue>) -> VRef {
        self.binary_const(BinOp::Divide, lhs, KeyPath::val(), rhs, KeyPath::val())
    }

    /// `Modulo(.val, const)` — the Figure 4 SIMD-lane idiom.
    pub fn mod_const(&mut self, lhs: VRef, rhs: impl Into<ScalarValue>) -> VRef {
        self.binary_const(BinOp::Modulo, lhs, KeyPath::val(), rhs, KeyPath::val())
    }

    /// `Multiply(.val, const)`.
    pub fn mul_const(&mut self, lhs: VRef, rhs: impl Into<ScalarValue>) -> VRef {
        self.binary_const(BinOp::Multiply, lhs, KeyPath::val(), rhs, KeyPath::val())
    }

    /// `Add(.val, const)`.
    pub fn add_const(&mut self, lhs: VRef, rhs: impl Into<ScalarValue>) -> VRef {
        self.binary_const(BinOp::Add, lhs, KeyPath::val(), rhs, KeyPath::val())
    }

    /// `Subtract(.val, const)`.
    pub fn sub_const(&mut self, lhs: VRef, rhs: impl Into<ScalarValue>) -> VRef {
        self.binary_const(BinOp::Subtract, lhs, KeyPath::val(), rhs, KeyPath::val())
    }

    /// `Greater(.val, const)`.
    pub fn greater_const(&mut self, lhs: VRef, rhs: impl Into<ScalarValue>) -> VRef {
        self.binary_const(BinOp::Greater, lhs, KeyPath::val(), rhs, KeyPath::val())
    }

    // ------------------------------------------------------------------
    // Data-parallel operators
    // ------------------------------------------------------------------

    /// Fully general `Zip`.
    pub fn zip_kp(
        &mut self,
        out1: impl Into<KeyPath>,
        v1: VRef,
        kp1: impl Into<KeyPath>,
        out2: impl Into<KeyPath>,
        v2: VRef,
        kp2: impl Into<KeyPath>,
    ) -> VRef {
        self.push(Op::Zip {
            out1: out1.into(),
            v1,
            kp1: kp1.into(),
            out2: out2.into(),
            v2,
            kp2: kp2.into(),
        })
    }

    /// Merge all attributes of `v1` and `v2` into one vector (root zips).
    pub fn zip_merge(&mut self, v1: VRef, v2: VRef) -> VRef {
        self.zip_kp(
            KeyPath::root(),
            v1,
            KeyPath::root(),
            KeyPath::root(),
            v2,
            KeyPath::root(),
        )
    }

    /// `Project(.out, v, .kp)`.
    pub fn project(&mut self, v: VRef, kp: impl Into<KeyPath>, out: impl Into<KeyPath>) -> VRef {
        self.push(Op::Project {
            out: out.into(),
            v,
            kp: kp.into(),
        })
    }

    /// `Upsert(v, .out, src, .kp)`.
    pub fn upsert(
        &mut self,
        v: VRef,
        out: impl Into<KeyPath>,
        src: VRef,
        kp: impl Into<KeyPath>,
    ) -> VRef {
        self.push(Op::Upsert {
            v,
            out: out.into(),
            src,
            kp: kp.into(),
        })
    }

    /// `Scatter(values, size_like, positions.val)`.
    pub fn scatter(&mut self, values: VRef, size_like: VRef, positions: VRef) -> VRef {
        self.push(Op::Scatter {
            values,
            size_like,
            runs_kp: None,
            positions,
            pos_kp: KeyPath::val(),
        })
    }

    /// Fully general `Scatter` with a value-run attribute on the size vector.
    pub fn scatter_kp(
        &mut self,
        values: VRef,
        size_like: VRef,
        runs_kp: Option<KeyPath>,
        positions: VRef,
        pos_kp: impl Into<KeyPath>,
    ) -> VRef {
        self.push(Op::Scatter {
            values,
            size_like,
            runs_kp,
            positions,
            pos_kp: pos_kp.into(),
        })
    }

    /// `Gather(source, positions.val)`.
    pub fn gather(&mut self, source: VRef, positions: VRef) -> VRef {
        self.push(Op::Gather {
            source,
            positions,
            pos_kp: KeyPath::val(),
        })
    }

    /// `Gather` with an explicit position attribute.
    pub fn gather_kp(&mut self, source: VRef, positions: VRef, pos_kp: impl Into<KeyPath>) -> VRef {
        self.push(Op::Gather {
            source,
            positions,
            pos_kp: pos_kp.into(),
        })
    }

    /// `Materialize(v)` — force full materialization.
    pub fn materialize(&mut self, v: VRef) -> VRef {
        self.push(Op::Materialize { v, ctrl: None })
    }

    /// `Materialize(v, ctrl.kp)` — chunked (X100-style) materialization.
    pub fn materialize_ctrl(&mut self, v: VRef, ctrl: VRef, kp: impl Into<KeyPath>) -> VRef {
        self.push(Op::Materialize {
            v,
            ctrl: Some((ctrl, kp.into())),
        })
    }

    /// `Break(v)` — fragment boundary tuning hint.
    pub fn break_at(&mut self, v: VRef) -> VRef {
        self.push(Op::Break { v, ctrl: None })
    }

    /// `Break(v, ctrl.kp)`.
    pub fn break_ctrl(&mut self, v: VRef, ctrl: VRef, kp: impl Into<KeyPath>) -> VRef {
        self.push(Op::Break {
            v,
            ctrl: Some((ctrl, kp.into())),
        })
    }

    /// `Partition(.out, v.kp, pivots.pv)` — scatter positions grouping
    /// `v.kp` by pivot buckets (Figure 10).
    pub fn partition(
        &mut self,
        v: VRef,
        kp: impl Into<KeyPath>,
        pivots: VRef,
        pivot_kp: impl Into<KeyPath>,
    ) -> VRef {
        self.push(Op::Partition {
            out: KeyPath::val(),
            v,
            kp: kp.into(),
            pivots,
            pivot_kp: pivot_kp.into(),
        })
    }

    // ------------------------------------------------------------------
    // Fold operators
    // ------------------------------------------------------------------

    /// Fully general `FoldSelect`.
    pub fn fold_select_kp(
        &mut self,
        v: VRef,
        fold_kp: Option<KeyPath>,
        sel_kp: impl Into<KeyPath>,
        out: impl Into<KeyPath>,
    ) -> VRef {
        self.push(Op::FoldSelect {
            out: out.into(),
            v,
            fold_kp,
            sel_kp: sel_kp.into(),
        })
    }

    /// Global (single-run) `FoldSelect` over `.val`.
    pub fn fold_select_global(&mut self, v: VRef) -> VRef {
        self.fold_select_kp(v, None, KeyPath::val(), KeyPath::val())
    }

    /// `FoldSelect` controlled by a separate control vector: zips
    /// `ctrl.val` onto `v` as `.fold` first (the Figure 8 pattern).
    pub fn fold_select(&mut self, ctrl: VRef, v: VRef) -> VRef {
        let zipped = self.zip_kp(
            KeyPath::new(".fold"),
            ctrl,
            KeyPath::val(),
            KeyPath::new(".val"),
            v,
            KeyPath::val(),
        );
        self.fold_select_kp(
            zipped,
            Some(KeyPath::new(".fold")),
            KeyPath::val(),
            KeyPath::val(),
        )
    }

    /// Fully general fold aggregate.
    pub fn fold_agg_kp(
        &mut self,
        agg: AggKind,
        v: VRef,
        fold_kp: Option<KeyPath>,
        val_kp: impl Into<KeyPath>,
        out: impl Into<KeyPath>,
    ) -> VRef {
        self.push(Op::FoldAgg {
            agg,
            out: out.into(),
            v,
            fold_kp,
            val_kp: val_kp.into(),
        })
    }

    /// `FoldSum` controlled by a separate control vector (auto-zip).
    pub fn fold_sum(&mut self, ctrl: VRef, v: VRef) -> VRef {
        let zipped = self.zip_kp(
            KeyPath::new(".fold"),
            ctrl,
            KeyPath::val(),
            KeyPath::new(".val"),
            v,
            KeyPath::val(),
        );
        self.fold_agg_kp(
            AggKind::Sum,
            zipped,
            Some(KeyPath::new(".fold")),
            KeyPath::val(),
            KeyPath::val(),
        )
    }

    /// Global `FoldSum` over `.val` (single run).
    pub fn fold_sum_global(&mut self, v: VRef) -> VRef {
        self.fold_agg_kp(AggKind::Sum, v, None, KeyPath::val(), KeyPath::val())
    }

    /// Global `FoldMin` over `.val`.
    pub fn fold_min_global(&mut self, v: VRef) -> VRef {
        self.fold_agg_kp(AggKind::Min, v, None, KeyPath::val(), KeyPath::val())
    }

    /// Global `FoldMax` over `.val`.
    pub fn fold_max_global(&mut self, v: VRef) -> VRef {
        self.fold_agg_kp(AggKind::Max, v, None, KeyPath::val(), KeyPath::val())
    }

    /// `FoldCount` — the paper's macro on top of `FoldSum` (§3.1.3):
    /// attaches a ones-attribute and sums it per run of `fold_kp`.
    pub fn fold_count_kp(&mut self, v: VRef, fold_kp: Option<KeyPath>) -> VRef {
        let ones = self.constant_like(1i64, v);
        let zipped = self.zip_kp(
            KeyPath::root(),
            v,
            KeyPath::root(),
            KeyPath::new(".__ones"),
            ones,
            KeyPath::val(),
        );
        self.fold_agg_kp(
            AggKind::Sum,
            zipped,
            fold_kp,
            KeyPath::new(".__ones"),
            KeyPath::val(),
        )
    }

    /// Fully general `FoldScan` (per-run inclusive prefix sum).
    pub fn fold_scan_kp(
        &mut self,
        v: VRef,
        fold_kp: Option<KeyPath>,
        val_kp: impl Into<KeyPath>,
        out: impl Into<KeyPath>,
    ) -> VRef {
        self.push(Op::FoldScan {
            out: out.into(),
            v,
            fold_kp,
            val_kp: val_kp.into(),
        })
    }

    /// Global `FoldScan` over `.val`.
    pub fn fold_scan_global(&mut self, v: VRef) -> VRef {
        self.fold_scan_kp(v, None, KeyPath::val(), KeyPath::val())
    }

    // ------------------------------------------------------------------
    // Shape operators
    // ------------------------------------------------------------------

    /// `Range(from, len, step)` with a fixed length.
    pub fn range(&mut self, from: i64, len: usize, step: i64) -> VRef {
        self.push(Op::Range {
            out: KeyPath::val(),
            from,
            size: SizeSpec::Fixed(len),
            step,
        })
    }

    /// `Range(from, |v|, step)` sized like another vector (Figure 3 line 2).
    pub fn range_like(&mut self, from: i64, like: VRef, step: i64) -> VRef {
        self.push(Op::Range {
            out: KeyPath::val(),
            from,
            size: SizeSpec::Like(like),
            step,
        })
    }

    /// `Cross(v1, v2)` — position cross product with attributes
    /// `.pos1`/`.pos2`.
    pub fn cross(&mut self, v1: VRef, v2: VRef) -> VRef {
        self.push(Op::Cross {
            out1: KeyPath::new(".pos1"),
            v1,
            out2: KeyPath::new(".pos2"),
            v2,
        })
    }
}

impl fmt::Display for Program {
    /// Pretty-print in the paper's SSA style (Figure 3).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, stmt) in self.stmts.iter().enumerate() {
            let id = VRef(i as u32);
            match &stmt.label {
                Some(l) => write!(f, "{id} {l} := ")?,
                None => write!(f, "{id} := ")?,
            }
            write!(f, "{}(", stmt.op.name())?;
            let inputs = stmt.op.inputs();
            for (j, input) in inputs.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{input}")?;
            }
            match &stmt.op {
                Op::Load { name } | Op::Persist { name, .. } => {
                    if !inputs.is_empty() {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name:?}")?;
                }
                Op::Constant { value, .. } => {
                    if !inputs.is_empty() {
                        write!(f, ", ")?;
                    }
                    write!(f, "{value}")?;
                }
                Op::Range { from, step, .. } => {
                    if !inputs.is_empty() {
                        write!(f, ", ")?;
                    }
                    write!(f, "from={from}, step={step}")?;
                }
                _ => {}
            }
            writeln!(f, ")")?;
        }
        for r in &self.returns {
            writeln!(f, "return {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's Figure 3 program (multithreaded hierarchical
    /// aggregation) and check its structure.
    #[test]
    fn figure3_builds() {
        let mut p = Program::new();
        let input = p.load("input");
        let ids = p.range_like(0, input, 1);
        let part_ids = p.div_const(ids, 1024);
        p.label(part_ids, "partitionIDs");
        let positions = p.partition(part_ids, KeyPath::val(), part_ids, KeyPath::val());
        let with_part = p.zip_kp(
            KeyPath::new(".val"),
            input,
            KeyPath::val(),
            KeyPath::new(".partition"),
            part_ids,
            KeyPath::val(),
        );
        let scattered = p.scatter(with_part, with_part, positions);
        let psum = p.fold_agg_kp(
            AggKind::Sum,
            scattered,
            Some(KeyPath::new(".partition")),
            KeyPath::new(".val"),
            KeyPath::val(),
        );
        let total = p.fold_sum_global(psum);
        p.ret(total);

        assert!(p.validate().is_ok());
        let text = p.to_string();
        assert!(text.contains("FoldSum"));
        assert!(text.contains("partitionIDs"));
    }

    #[test]
    fn validate_rejects_forward_refs() {
        let mut p = Program::new();
        // Hand-craft an invalid forward reference.
        p.push(Op::Project {
            out: KeyPath::val(),
            v: VRef(5),
            kp: KeyPath::val(),
        });
        let v = p.load("t");
        p.ret(v);
        assert!(matches!(
            p.validate(),
            Err(VoodooError::InvalidReference { .. })
        ));
    }

    #[test]
    fn validate_rejects_empty() {
        let p = Program::new();
        assert_eq!(p.validate(), Err(VoodooError::EmptyProgram));
        let mut p2 = Program::new();
        p2.load("t");
        assert_eq!(p2.validate(), Err(VoodooError::EmptyProgram));
    }

    #[test]
    fn consumers_found() {
        let mut p = Program::new();
        let a = p.load("t");
        let b = p.add_const(a, 1i64);
        let c = p.mul_const(a, 2i64);
        p.ret(b);
        p.ret(c);
        let cons = p.consumers(a);
        assert_eq!(cons.len(), 2);
    }

    #[test]
    fn fold_count_expands_to_fold_sum() {
        let mut p = Program::new();
        let v = p.load("t");
        let c = p.fold_count_kp(v, None);
        p.ret(c);
        assert!(matches!(
            p.stmt(c).op,
            Op::FoldAgg {
                agg: AggKind::Sum,
                ..
            }
        ));
    }
}
