//! Fused per-element expressions.
//!
//! Within a fragment, every non-materialized operator is represented as an
//! expression tree evaluated per element — the compiled analog of the
//! paper's fully inlined, function-call-free kernels. Evaluation optionally
//! counts architectural events for the GPU cost model.

use std::sync::Arc;

use voodoo_core::{BinOp, RunMeta, ScalarType, ScalarValue};

use crate::profile::EventProfile;
use crate::repr::MatVec;

/// Evaluation environment for one kernel invocation.
pub struct Env<'a> {
    /// Materialized statement results, indexed by statement id.
    pub sources: &'a [Option<Arc<MatVec>>],
    /// Whether to count events.
    pub counting: bool,
    /// Event counters (merged by the executor).
    pub profile: EventProfile,
    /// Last outcome per branch site (for the misprediction proxy).
    pub branch_last: Vec<i8>,
    /// Last position per gather site (for the locality proxy).
    pub gather_last: Vec<i64>,
    /// Element index the memo below is valid for.
    memo_i: usize,
    /// Per-element values of *shared* DAG nodes (keyed by node address).
    ///
    /// Fused expressions form a DAG: a program that reuses an SSA value
    /// (the hash-table cookbook reuses the probe cursor dozens of times)
    /// would otherwise be re-evaluated once per *tree path*, which is
    /// exponential in program length. Memoizing shared nodes also keeps
    /// the event counts honest — generated code would compute a common
    /// subexpression once.
    memo: std::collections::HashMap<usize, Option<ScalarValue>>,
    /// Whether selection sites use branch-free (predicated) emission.
    predicated: bool,
}

impl<'a> Env<'a> {
    /// Fresh environment over materialized sources.
    pub fn new(
        sources: &'a [Option<Arc<MatVec>>],
        counting: bool,
        branch_sites: usize,
        gather_sites: usize,
    ) -> Env<'a> {
        Env {
            sources,
            counting,
            profile: EventProfile::default(),
            branch_last: vec![-1; branch_sites],
            gather_last: vec![i64::MIN / 2; gather_sites],
            memo_i: usize::MAX,
            memo: std::collections::HashMap::new(),
            predicated: false,
        }
    }

    /// Evaluate a child node, memoizing per element when the node is
    /// shared (strong count > 1 means some other tree edge or statement
    /// also holds it). Sound because node values depend only on the
    /// element index and the immutable sources.
    fn eval_shared(&mut self, e: &Arc<Expr>, i: usize) -> Option<ScalarValue> {
        if Arc::strong_count(e) <= 1 {
            return e.eval(i, self);
        }
        if self.memo_i != i {
            self.memo.clear();
            self.memo_i = i;
        }
        let key = Arc::as_ptr(e) as usize;
        if let Some(v) = self.memo.get(&key) {
            return *v;
        }
        let v = e.eval(i, self);
        self.memo.insert(key, v);
        v
    }

    /// Record a positional read at `site`: accesses within a cache line of
    /// the previous one count as sequential traffic, jumps count as random
    /// accesses into a working set of `set_bytes`.
    #[inline]
    pub fn count_gather(&mut self, site: usize, pos: i64, bytes: usize, set_bytes: u64) {
        if self.counting {
            let last = self.gather_last[site];
            self.gather_last[site] = pos;
            if (pos - last).unsigned_abs() <= 8 {
                self.profile.seq_read_bytes += bytes as u64;
            } else {
                self.profile.rand_reads += 1;
                self.profile.rand_working_set = self.profile.rand_working_set.max(set_bytes);
            }
        }
    }

    /// Use branch-free (cursor-arithmetic) accounting for selection
    /// sites: instead of a data-dependent branch, a predicated emission
    /// costs two extra integer ops and never flips (Ross-style
    /// predication, the paper's Figure 1 alternative).
    pub fn with_predication(mut self, predicated: bool) -> Env<'a> {
        self.predicated = predicated;
        self
    }

    /// Record a data-dependent branch outcome at `site` — or, under
    /// predicated emission, the cursor arithmetic that replaces it.
    #[inline]
    pub fn count_branch(&mut self, site: usize, taken: bool) {
        if self.counting {
            if self.predicated {
                self.profile.int_ops += 2;
                return;
            }
            self.profile.branches += 1;
            let t = taken as i8;
            if self.branch_last[site] != t {
                self.profile.branch_flips += 1;
                self.branch_last[site] = t;
            }
        }
    }

    #[inline]
    fn count_read(&mut self, bytes: usize, sequential: bool) {
        if self.counting {
            if sequential {
                self.profile.seq_read_bytes += bytes as u64;
            } else {
                self.profile.rand_reads += 1;
            }
        }
    }

    #[inline]
    fn count_op(&mut self, op: BinOp, float: bool) {
        if self.counting {
            if op.is_comparison() || op.is_logical() {
                self.profile.cmp_ops += 1;
            } else if float {
                self.profile.float_ops += 1;
            } else {
                self.profile.int_ops += 1;
            }
        }
    }
}

/// A fused per-element expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A compile-time constant.
    Const(ScalarValue),
    /// A virtual control vector evaluated from its closed form (never
    /// materialized — the "purple" operators of Figure 8).
    Form(RunMeta),
    /// Sequential read of a materialized column at the loop index.
    Col {
        /// Producing statement.
        src: u32,
        /// Leaf column index within the producer's schema.
        col: u16,
        /// Element byte width (for traffic counting).
        width: u8,
        /// Whether the producer is a length-1 broadcast.
        broadcast: bool,
    },
    /// Positional read (gather) of a materialized column.
    ColAt {
        /// Producing statement.
        src: u32,
        /// Leaf column index.
        col: u16,
        /// Element byte width.
        width: u8,
        /// The position expression.
        pos: Arc<Expr>,
        /// Whether the access pattern is provably sequential.
        sequential: bool,
        /// Length of the source (for bounds checking).
        src_len: usize,
        /// Gather site id (for the locality proxy).
        site: usize,
    },
    /// Binary elementwise operator.
    Bin {
        /// The operator.
        op: BinOp,
        /// Result type.
        ty: ScalarType,
        /// Whether operands are floating point (for event classes).
        float: bool,
        /// Left operand.
        l: Arc<Expr>,
        /// Right operand.
        r: Arc<Expr>,
    },
    /// A fused `FoldSelect`: yields `Some(i)` where the selector is truthy
    /// — the stream form of a position list (paper Figure 8's pipelined
    /// selection). Evaluating it is a *data-dependent branch*.
    FilterIndex {
        /// The selector expression.
        sel: Arc<Expr>,
        /// Branch site id (for misprediction tracking).
        site: usize,
    },
}

impl Expr {
    /// Evaluate at element `i`. `None` is ε (or "filtered out").
    pub fn eval(&self, i: usize, env: &mut Env<'_>) -> Option<ScalarValue> {
        match self {
            Expr::Const(v) => Some(*v),
            Expr::Form(m) => Some(m.scalar_at(i)),
            Expr::Col {
                src,
                col,
                width,
                broadcast,
            } => {
                // Borrow through a copy of the slice reference: the source
                // outlives `env`'s mutable use, and no refcount shared by
                // every morsel is touched per element.
                let sources = env.sources;
                let mv = sources[*src as usize].as_deref()?;
                let idx = if *broadcast { 0 } else { i };
                env.count_read(*width as usize, true);
                mv.get(*col as usize, idx)
            }
            Expr::ColAt {
                src,
                col,
                width,
                pos,
                sequential,
                src_len,
                site,
            } => {
                let p = env.eval_shared(pos, i)?.as_i64();
                if p < 0 || p as usize >= *src_len {
                    return None; // out of bounds → ε (Table 2)
                }
                let sources = env.sources;
                let mv = sources[*src as usize].as_deref()?;
                if *sequential {
                    env.count_read(*width as usize, true);
                } else {
                    let set = (*src_len as u64) * (*width as u64);
                    env.count_gather(*site, p, *width as usize, set);
                }
                mv.get(*col as usize, p as usize)
            }
            Expr::Bin {
                op,
                ty,
                float,
                l,
                r,
            } => {
                let a = env.eval_shared(l, i)?;
                let b = env.eval_shared(r, i)?;
                env.count_op(*op, *float);
                Some(op.eval(a, b).cast(*ty))
            }
            Expr::FilterIndex { sel, site } => {
                let taken = env
                    .eval_shared(sel, i)
                    .map(|v| v.is_truthy())
                    .unwrap_or(false);
                env.count_branch(*site, taken);
                if taken {
                    Some(ScalarValue::I64(i as i64))
                } else {
                    None
                }
            }
        }
    }

    /// The result type, when derivable without evaluation.
    pub fn static_type(&self) -> Option<ScalarType> {
        match self {
            Expr::Const(v) => Some(v.ty()),
            Expr::Form(_) => Some(ScalarType::I64),
            Expr::Bin { ty, .. } => Some(*ty),
            Expr::FilterIndex { .. } => Some(ScalarType::I64),
            _ => None,
        }
    }

    /// Whether this expression reads like a sequential position stream
    /// (used to classify gathers as coalesced vs random).
    pub fn is_sequential_positions(&self) -> bool {
        match self {
            Expr::Form(m) => m.cap.is_none() && m.step_num >= 0 && m.step_num <= m.step_den,
            Expr::FilterIndex { .. } => true, // monotone increasing indices
            _ => false,
        }
    }

    /// Whether the subtree contains a data-dependent filter.
    pub fn has_filter(&self) -> bool {
        match self {
            Expr::FilterIndex { .. } => true,
            Expr::Bin { l, r, .. } => l.has_filter() || r.has_filter(),
            Expr::ColAt { pos, .. } => pos.has_filter(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voodoo_core::{Buffer, StructuredVector};

    fn src_of(vals: Vec<i64>) -> Vec<Option<Arc<MatVec>>> {
        vec![Some(Arc::new(MatVec::Full(StructuredVector::from_buffer(
            ".val",
            Buffer::I64(vals),
        ))))]
    }

    fn col0() -> Expr {
        Expr::Col {
            src: 0,
            col: 0,
            width: 8,
            broadcast: false,
        }
    }

    #[test]
    fn col_and_bin() {
        let sources = src_of(vec![10, 20, 30]);
        let mut env = Env::new(&sources, false, 0, 4);
        let e = Expr::Bin {
            op: BinOp::Add,
            ty: ScalarType::I64,
            float: false,
            l: Arc::new(col0()),
            r: Arc::new(Expr::Const(ScalarValue::I64(5))),
        };
        assert_eq!(e.eval(1, &mut env), Some(ScalarValue::I64(25)));
    }

    #[test]
    fn form_is_virtual() {
        let sources: Vec<Option<Arc<MatVec>>> = vec![];
        let mut env = Env::new(&sources, true, 0, 4);
        let e = Expr::Form(RunMeta::range(3, 2));
        assert_eq!(e.eval(4, &mut env), Some(ScalarValue::I64(11)));
        // No reads counted — the control vector is never materialized.
        assert_eq!(env.profile.seq_read_bytes, 0);
    }

    #[test]
    fn filter_counts_branches_and_flips() {
        let sources = src_of(vec![1, 0, 0, 1]);
        let mut env = Env::new(&sources, true, 1, 4);
        let f = Expr::FilterIndex {
            sel: Arc::new(col0()),
            site: 0,
        };
        assert_eq!(f.eval(0, &mut env), Some(ScalarValue::I64(0)));
        assert_eq!(f.eval(1, &mut env), None);
        assert_eq!(f.eval(2, &mut env), None);
        assert_eq!(f.eval(3, &mut env), Some(ScalarValue::I64(3)));
        assert_eq!(env.profile.branches, 4);
        // Outcomes: T,F,F,T → 3 flips (initial counts as one).
        assert_eq!(env.profile.branch_flips, 3);
    }

    #[test]
    fn gather_bounds_to_epsilon() {
        let sources = src_of(vec![10, 20]);
        let mut env = Env::new(&sources, true, 0, 4);
        let g = Expr::ColAt {
            src: 0,
            col: 0,
            width: 8,
            pos: Arc::new(Expr::Const(ScalarValue::I64(7))),
            sequential: false,
            src_len: 2,
            site: 0,
        };
        assert_eq!(g.eval(0, &mut env), None);
        // Out-of-bounds short-circuits before any read is counted.
        assert_eq!(env.profile.rand_reads, 0);
    }

    #[test]
    fn random_gather_counted() {
        let sources = src_of(vec![10, 20]);
        let mut env = Env::new(&sources, true, 0, 4);
        let g = Expr::ColAt {
            src: 0,
            col: 0,
            width: 8,
            pos: Arc::new(Expr::Const(ScalarValue::I64(1))),
            sequential: false,
            src_len: 2,
            site: 0,
        };
        assert_eq!(g.eval(0, &mut env), Some(ScalarValue::I64(20)));
        assert_eq!(env.profile.rand_reads, 1);
    }

    #[test]
    fn broadcast_reads_slot_zero() {
        let sources = src_of(vec![42]);
        let mut env = Env::new(&sources, false, 0, 4);
        let e = Expr::Col {
            src: 0,
            col: 0,
            width: 8,
            broadcast: true,
        };
        assert_eq!(e.eval(100, &mut env), Some(ScalarValue::I64(42)));
    }

    #[test]
    fn epsilon_short_circuits_bin() {
        let mut sv = StructuredVector::with_len(1);
        let mut c = voodoo_core::Column::empties(ScalarType::I64, 1);
        c.clear(0);
        sv.insert(".val", c);
        let sources = vec![Some(Arc::new(MatVec::Full(sv)))];
        let mut env = Env::new(&sources, false, 0, 4);
        let e = Expr::Bin {
            op: BinOp::Add,
            ty: ScalarType::I64,
            float: false,
            l: Arc::new(col0()),
            r: Arc::new(Expr::Const(ScalarValue::I64(5))),
        };
        assert_eq!(e.eval(0, &mut env), None);
    }
}
