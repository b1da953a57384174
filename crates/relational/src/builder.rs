//! Plan-construction helpers, the [`Lowered`] shape every relational
//! frontend lowers to, and padded-result extraction.

use voodoo_core::{AggKind, BinOp, KeyPath, Program, StructuredVector, VRef};
use voodoo_interp::ExecOutput;

/// Reads a [`Lowered`] program's canonical rows out of its returned
/// vectors.
pub type Extract = Box<dyn Fn(&ExecOutput) -> Vec<Vec<i64>>>;

/// A relational statement lowered to exactly one Voodoo program, plus the
/// host-side step that reads its canonical rows back out of the program's
/// returned vectors. What both frontends produce — [`crate::sql::lower`]
/// and [`crate::queries::plan`] — and all the statement driver consumes.
pub struct Lowered {
    /// The Voodoo program.
    pub program: Program,
    /// The statement's rows, in any order, from the program's output.
    pub extract: Extract,
}

impl Lowered {
    /// Pair a program with its row extraction.
    pub fn new(
        program: Program,
        extract: impl Fn(&ExecOutput) -> Vec<Vec<i64>> + 'static,
    ) -> Lowered {
        Lowered {
            program,
            extract: Box::new(extract),
        }
    }
}

/// A fluent wrapper over [`Program`] for relational lowering.
pub struct QB {
    /// The program under construction.
    pub p: Program,
}

impl QB {
    /// Start a fresh plan.
    pub fn new() -> QB {
        QB { p: Program::new() }
    }

    /// Load a table.
    pub fn table(&mut self, name: &str) -> VRef {
        self.p.load(name)
    }

    /// Elementwise binary over explicit attributes, output `.val`.
    pub fn bin(&mut self, op: BinOp, l: VRef, lkp: &str, r: VRef, rkp: &str) -> VRef {
        self.p.binary_kp(
            op,
            l,
            KeyPath::new(lkp),
            r,
            KeyPath::new(rkp),
            KeyPath::val(),
        )
    }

    /// Elementwise binary against a constant, output `.val`.
    pub fn bin_c(&mut self, op: BinOp, l: VRef, lkp: &str, c: i64) -> VRef {
        self.p
            .binary_const(op, l, KeyPath::new(lkp), c, KeyPath::val())
    }

    /// `lo <= v.kp < hi` as a boolean column.
    pub fn in_range(&mut self, v: VRef, kp: &str, lo: i64, hi: i64) -> VRef {
        let ge = self.bin_c(BinOp::GreaterEquals, v, kp, lo);
        let lt = self.bin_c(BinOp::Less, v, kp, hi);
        self.p.binary(BinOp::LogicalAnd, ge, lt)
    }

    /// `v.kp == c` as a boolean column.
    pub fn eq_c(&mut self, v: VRef, kp: &str, c: i64) -> VRef {
        self.bin_c(BinOp::Equals, v, kp, c)
    }

    /// Conjunction of boolean columns.
    pub fn and(&mut self, parts: &[VRef]) -> VRef {
        let mut acc = parts[0];
        for &x in &parts[1..] {
            acc = self.p.binary(BinOp::LogicalAnd, acc, x);
        }
        acc
    }

    /// Disjunction of boolean columns.
    pub fn or(&mut self, parts: &[VRef]) -> VRef {
        let mut acc = parts[0];
        for &x in &parts[1..] {
            acc = self.p.binary(BinOp::LogicalOr, acc, x);
        }
        acc
    }

    /// `v1.val * v2.val` (the masking idiom: value × 0/1 predicate).
    pub fn masked(&mut self, v: VRef, mask: VRef) -> VRef {
        self.p.mul(v, mask)
    }

    /// Positional FK join: resolve `fk.kp` into `target` (all columns).
    /// Keys are dense, so this is the paper's identity-hashed join.
    pub fn fk_gather(&mut self, target: VRef, fk: VRef, kp: &str) -> VRef {
        self.p.gather_kp(target, fk, KeyPath::new(kp))
    }

    /// `100 - v.kp` etc. — constant on the left.
    pub fn rsub_c(&mut self, c: i64, v: VRef, kp: &str) -> VRef {
        let cc = self.p.constant(c);
        self.p.binary_kp(
            BinOp::Subtract,
            cc,
            KeyPath::val(),
            v,
            KeyPath::new(kp),
            KeyPath::val(),
        )
    }

    /// Revenue: `ext.kp1 * (100 - disc.kp2)` (cents × 100).
    pub fn revenue(&mut self, li: VRef, ext_kp: &str, disc_kp: &str) -> VRef {
        let d = self.rsub_c(100, li, disc_kp);
        self.p.binary_kp(
            BinOp::Multiply,
            li,
            KeyPath::new(ext_kp),
            d,
            KeyPath::val(),
            KeyPath::val(),
        )
    }

    /// Dense-domain grouped aggregation (the Figure 10/11 pattern):
    /// partition `key.val ∈ [0, domain)` over `Range` pivots, scatter, and
    /// fold each value column per group. Returns `(key_fold, sum_folds)` —
    /// all padded-aligned, extracted with [`extract_grouped`].
    ///
    /// Compiles to a single virtual-scatter pass (paper §3.1.3).
    pub fn group_sums(&mut self, key: VRef, domain: usize, vals: &[VRef]) -> (VRef, Vec<VRef>) {
        let with_kinds: Vec<(VRef, AggKind)> = vals.iter().map(|&v| (v, AggKind::Sum)).collect();
        self.group_aggs(key, domain, &with_kinds)
    }

    /// [`Self::group_sums`] with a per-column aggregation kind — the SQL
    /// frontend's `MIN`/`MAX` lowering path. Same single virtual-scatter
    /// pattern; only the per-run combine differs.
    pub fn group_aggs(
        &mut self,
        key: VRef,
        domain: usize,
        vals: &[(VRef, AggKind)],
    ) -> (VRef, Vec<VRef>) {
        // Assemble the scattered tuple: key as .k plus each value as .vI.
        let mut tuple = self.p.project(key, KeyPath::val(), KeyPath::new(".k"));
        for (i, &(v, _)) in vals.iter().enumerate() {
            tuple = self.p.zip_kp(
                KeyPath::root(),
                tuple,
                KeyPath::root(),
                KeyPath::new(&format!(".v{i}")),
                v,
                KeyPath::val(),
            );
        }
        let pivots = self.p.range(0, domain, 1);
        let pos = self
            .p
            .partition(tuple, KeyPath::new(".k"), pivots, KeyPath::val());
        let scattered = self.p.scatter(tuple, tuple, pos);
        let key_fold = self.p.fold_agg_kp(
            AggKind::Max,
            scattered,
            Some(KeyPath::new(".k")),
            KeyPath::new(".k"),
            KeyPath::val(),
        );
        let sums = vals
            .iter()
            .enumerate()
            .map(|(i, &(_, kind))| {
                self.p.fold_agg_kp(
                    kind,
                    scattered,
                    Some(KeyPath::new(".k")),
                    KeyPath::new(&format!(".v{i}")),
                    KeyPath::val(),
                )
            })
            .collect();
        (key_fold, sums)
    }

    /// Global masked sum: `sum(v.val)` over the whole vector.
    pub fn global_sum(&mut self, v: VRef) -> VRef {
        self.p.fold_sum_global(v)
    }

    /// Return a statement's result.
    pub fn ret(&mut self, v: VRef) {
        self.p.ret(v);
    }

    /// Finish building.
    pub fn finish(self) -> Program {
        self.p
    }
}

impl Default for QB {
    fn default() -> Self {
        QB::new()
    }
}

/// Extract grouped results from padded-aligned returned vectors: the first
/// vector carries group keys (non-ε at group starts), the rest the
/// aggregates (ε read as 0).
pub fn extract_grouped(
    key_vec: &StructuredVector,
    sums: &[&StructuredVector],
) -> Vec<(i64, Vec<i64>)> {
    let kp = KeyPath::val();
    let kcol = key_vec.column(&kp).expect("key column");
    let mut rows = Vec::new();
    for i in 0..key_vec.len() {
        if let Some(k) = kcol.get(i) {
            let vals = sums
                .iter()
                .map(|s| {
                    s.column(&kp)
                        .and_then(|c| c.get(i))
                        .map(|v| v.as_i64())
                        .unwrap_or(0)
                })
                .collect();
            rows.push((k.as_i64(), vals));
        }
    }
    rows
}

/// Extract a global (single-run) aggregate: the value at slot 0, or 0 for ε.
pub fn extract_scalar(v: &StructuredVector) -> i64 {
    if v.is_empty() {
        return 0;
    }
    v.value_at(0, &KeyPath::val())
        .map(|x| x.as_i64())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use voodoo_interp::Interpreter;
    use voodoo_storage::Catalog;

    #[test]
    fn group_sums_roundtrip() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("keys", &[2, 0, 1, 0, 2, 2]);
        cat.put_i64_column("vals", &[10, 1, 5, 2, 20, 30]);
        let mut qb = QB::new();
        let k = qb.table("keys");
        let v = qb.table("vals");
        let (kf, sums) = qb.group_sums(k, 3, &[v]);
        qb.ret(kf);
        qb.ret(sums[0]);
        let p = qb.finish();
        let out = Interpreter::new(&cat).run_program(&p).unwrap();
        let rows = extract_grouped(&out.returns[0], &[&out.returns[1]]);
        assert_eq!(rows, vec![(0, vec![3]), (1, vec![5]), (2, vec![60])]);
    }

    #[test]
    fn range_and_masks() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[1, 5, 9, 15]);
        let mut qb = QB::new();
        let t = qb.table("t");
        let m = qb.in_range(t, ".val", 5, 10);
        let masked = qb.masked(t, m);
        let s = qb.global_sum(masked);
        qb.ret(s);
        let out = Interpreter::new(&cat).run(&qb.finish()).unwrap();
        assert_eq!(extract_scalar(&out), 14);
    }

    #[test]
    fn scalar_extraction_of_empty() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[]);
        let mut qb = QB::new();
        let t = qb.table("t");
        let s = qb.global_sum(t);
        qb.ret(s);
        let out = Interpreter::new(&cat).run(&qb.finish()).unwrap();
        assert_eq!(extract_scalar(&out), 0);
    }
}
