//! Parallel-safety classification (pass 4): per-statement verdicts the
//! morsel executor consults instead of hard-coding per-kernel rules.
//!
//! The verdicts encode exactly the properties the paper's partitioned
//! execution relies on: elementwise work concatenates in morsel order,
//! integer folds tree-reduce because their accumulation is associative,
//! float folds are *not* associative (regrouped accumulation would break
//! bit-identity with the serial oracle), prefix scans are order-dependent
//! across the whole run, and global writes (`Scatter`/`Partition`/
//! `Persist`) must be applied with a consistent view.

use voodoo_core::typecheck::{fold_output_type, Shapes};
use voodoo_core::{Op, Program};

/// The parallel-safety verdict for one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParallelSafety {
    /// Per-element work whose morsel results concatenate in order:
    /// elementwise maps, projections, gathers, position emission.
    MorselMergeable,
    /// A fold whose per-morsel partials combine associatively (integer
    /// `Sum`/`Min`/`Max`): safe to tree-reduce across morsels.
    AssociativeFold,
    /// A float fold: accumulation is non-associative, so cross-morsel
    /// regrouping would not be bit-identical to the serial oracle.
    SerialFold,
    /// An order-dependent scan (per-run inclusive prefix sum): must see
    /// its whole run sequentially.
    OrderDependent,
    /// A cross-morsel write with last-write-wins semantics: inputs may be
    /// evaluated morsel-parallel, but the writes must be applied serially
    /// in morsel order (or once, with a consistent global view).
    SerialApply,
}

impl ParallelSafety {
    /// Whether a fragment containing this statement's action may run on
    /// the morsel path (partial results merge in morsel order).
    pub fn morsel_mergeable(self) -> bool {
        matches!(
            self,
            ParallelSafety::MorselMergeable | ParallelSafety::AssociativeFold
        )
    }

    /// Whether per-morsel partial accumulators of this fold combine
    /// associatively into the serial result, bit for bit.
    pub fn combines_associatively(self) -> bool {
        matches!(self, ParallelSafety::AssociativeFold)
    }

    /// Whether this statement wants the evaluate-parallel / apply-serial
    /// split (the build side of joins).
    pub fn eval_parallel_apply_serial(self) -> bool {
        matches!(self, ParallelSafety::SerialApply)
    }
}

/// Classify every statement of a shape-checked program.
///
/// Requires the program to have passed shape inference: fold value
/// attributes are resolved against the inferred schemas.
pub fn classify(program: &Program, shapes: &Shapes) -> Vec<ParallelSafety> {
    program
        .stmts()
        .iter()
        .map(|stmt| match &stmt.op {
            Op::FoldAgg { agg, v, val_kp, .. } => {
                let vt = shapes
                    .of(*v)
                    .schema
                    .field_type(val_kp)
                    .unwrap_or(voodoo_core::ScalarType::I64);
                if fold_output_type(*agg, vt).is_float() {
                    ParallelSafety::SerialFold
                } else {
                    ParallelSafety::AssociativeFold
                }
            }
            Op::FoldScan { .. } => ParallelSafety::OrderDependent,
            Op::Scatter { .. } | Op::Partition { .. } | Op::Persist { .. } => {
                ParallelSafety::SerialApply
            }
            _ => ParallelSafety::MorselMergeable,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use voodoo_core::typecheck::infer;
    use voodoo_core::{KeyPath, ScalarType, Schema, TableProvider};

    struct Fake;
    impl TableProvider for Fake {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            match name {
                "ints" => Some(Schema::single(".val", ScalarType::I64)),
                "floats" => Some(Schema::single(".val", ScalarType::F64)),
                _ => None,
            }
        }
        fn table_len(&self, _name: &str) -> Option<usize> {
            Some(8)
        }
    }

    #[test]
    fn folds_classified_by_accumulator_type() {
        let mut p = Program::new();
        let ints = p.load("ints");
        let floats = p.load("floats");
        let isum = p.fold_sum_global(ints);
        let fsum = p.fold_sum_global(floats);
        let scan = p.fold_scan_global(ints);
        p.ret(isum);
        p.ret(fsum);
        p.ret(scan);
        let shapes = infer(&p, &Fake).unwrap();
        let safety = classify(&p, &shapes);
        assert_eq!(safety[ints.index()], ParallelSafety::MorselMergeable);
        assert_eq!(safety[isum.index()], ParallelSafety::AssociativeFold);
        assert_eq!(safety[fsum.index()], ParallelSafety::SerialFold);
        assert_eq!(safety[scan.index()], ParallelSafety::OrderDependent);
        assert!(safety[isum.index()].morsel_mergeable());
        assert!(!safety[fsum.index()].morsel_mergeable());
        assert!(!safety[scan.index()].morsel_mergeable());
    }

    #[test]
    fn scatter_and_partition_are_serial_apply() {
        let mut p = Program::new();
        let v = p.load("ints");
        let pivots = p.range(0, 4, 1);
        let pos = p.partition(v, KeyPath::val(), pivots, KeyPath::val());
        let sc = p.scatter(v, v, pos);
        p.ret(sc);
        let shapes = infer(&p, &Fake).unwrap();
        let safety = classify(&p, &shapes);
        assert!(safety[pos.index()].eval_parallel_apply_serial());
        assert!(safety[sc.index()].eval_parallel_apply_serial());
    }
}
