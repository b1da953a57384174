//! The benchmark's own copy of every generated table, and a plain fold
//! that answers the SQL subset over it.
//!
//! This is the correctness oracle for SQL statements and maintained
//! views: it shares no code with the engine (no Voodoo program, no plan,
//! no delta), only the statement model both sides are generated from.

use std::collections::BTreeMap;

use voodoo::core::{BinOp, Buffer};
use voodoo::relational::views::{AggDef, AggFn, AggSpec, SExpr};
use voodoo::storage::{Table, TableColumn};

/// Result rows in the engine's canonical form.
pub type Rows = Vec<Vec<i64>>;

/// A row-major copy of one generated table.
#[derive(Debug, Clone)]
pub struct ShadowTable {
    pub name: &'static str,
    pub cols: &'static [&'static str],
    data: Vec<i64>,
}

impl ShadowTable {
    pub fn new(name: &'static str, cols: &'static [&'static str], data: Vec<i64>) -> ShadowTable {
        assert_eq!(data.len() % cols.len(), 0, "whole rows only");
        ShadowTable { name, cols, data }
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    pub fn len(&self) -> usize {
        self.data.len() / self.width()
    }

    pub fn rows(&self) -> std::slice::ChunksExact<'_, i64> {
        self.data.chunks_exact(self.width())
    }

    /// The engine-side table holding the same rows.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(self.name);
        for (c, name) in self.cols.iter().enumerate() {
            let col: Vec<i64> = self.rows().map(|r| r[c]).collect();
            t.add_column(TableColumn::from_buffer(name, Buffer::I64(col)));
        }
        t
    }

    pub fn append(&mut self, rows: &[Vec<i64>]) {
        for r in rows {
            assert_eq!(r.len(), self.width());
            self.data.extend_from_slice(r);
        }
    }

    pub fn update(&mut self, updates: &[(usize, Vec<i64>)]) {
        let w = self.width();
        for (i, row) in updates {
            self.data[i * w..(i + 1) * w].copy_from_slice(row);
        }
    }

    /// Remove the rows at `idxs` (distinct, in range), keeping the order
    /// of the rest.
    pub fn delete(&mut self, idxs: &[usize]) {
        let w = self.width();
        let mut drop = vec![false; self.len()];
        for &i in idxs {
            drop[i] = true;
        }
        let mut kept = Vec::with_capacity(self.data.len());
        for (i, row) in self.rows().enumerate() {
            if !drop[i] {
                kept.extend_from_slice(row);
            }
        }
        debug_assert_eq!(kept.len() % w, 0);
        self.data = kept;
    }
}

/// Integer expressions over a row's columns (by index).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Col(usize),
    Lit(i64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    pub fn add(l: Expr, r: Expr) -> Expr {
        Expr::Add(Box::new(l), Box::new(r))
    }

    pub fn sub(l: Expr, r: Expr) -> Expr {
        Expr::Sub(Box::new(l), Box::new(r))
    }

    pub fn mul(l: Expr, r: Expr) -> Expr {
        Expr::Mul(Box::new(l), Box::new(r))
    }

    fn eval(&self, row: &[i64]) -> i64 {
        match self {
            Expr::Col(c) => row[*c],
            Expr::Lit(v) => *v,
            Expr::Add(l, r) => l.eval(row).wrapping_add(r.eval(row)),
            Expr::Sub(l, r) => l.eval(row).wrapping_sub(r.eval(row)),
            Expr::Mul(l, r) => l.eval(row).wrapping_mul(r.eval(row)),
        }
    }

    fn sql(&self, cols: &[&str]) -> String {
        match self {
            Expr::Col(c) => cols[*c].to_string(),
            Expr::Lit(v) => v.to_string(),
            Expr::Add(l, r) => format!("({} + {})", l.sql(cols), r.sql(cols)),
            Expr::Sub(l, r) => format!("({} - {})", l.sql(cols), r.sql(cols)),
            Expr::Mul(l, r) => format!("({} * {})", l.sql(cols), r.sql(cols)),
        }
    }

    fn sexpr(&self) -> SExpr {
        match self {
            Expr::Col(c) => SExpr::Col(*c),
            Expr::Lit(v) => SExpr::Lit(*v),
            Expr::Add(l, r) => SExpr::bin(BinOp::Add, l.sexpr(), r.sexpr()),
            Expr::Sub(l, r) => SExpr::bin(BinOp::Subtract, l.sexpr(), r.sexpr()),
            Expr::Mul(l, r) => SExpr::bin(BinOp::Multiply, l.sexpr(), r.sexpr()),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub lhs: Expr,
    pub op: Cmp,
    pub rhs: Expr,
}

impl Pred {
    pub fn new(lhs: Expr, op: Cmp, rhs: Expr) -> Pred {
        Pred { lhs, op, rhs }
    }

    fn holds(&self, row: &[i64]) -> bool {
        let (l, r) = (self.lhs.eval(row), self.rhs.eval(row));
        match self.op {
            Cmp::Lt => l < r,
            Cmp::Le => l <= r,
            Cmp::Gt => l > r,
            Cmp::Ge => l >= r,
            Cmp::Eq => l == r,
            Cmp::Ne => l != r,
        }
    }

    fn sql(&self, cols: &[&str]) -> String {
        let op = match self.op {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Eq => "=",
            Cmp::Ne => "<>",
        };
        format!("{} {op} {}", self.lhs.sql(cols), self.rhs.sql(cols))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Agg {
    Sum(Expr),
    Min(Expr),
    Max(Expr),
    /// Truncating integer average.
    Avg(Expr),
    Count,
}

/// One statement of the SQL subset: aggregates over a conjunctive filter,
/// optionally grouped by one column.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub aggs: Vec<Agg>,
    pub preds: Vec<Pred>,
    pub group: Option<usize>,
}

#[derive(Clone)]
struct Acc {
    count: i64,
    /// Per aggregate: running sum, or running extreme.
    slots: Vec<i64>,
}

impl Stmt {
    pub fn sql(&self, table: &str, cols: &[&str]) -> String {
        let mut items: Vec<String> = self.group.iter().map(|g| cols[*g].to_string()).collect();
        items.extend(self.aggs.iter().map(|a| match a {
            Agg::Sum(e) => format!("SUM({})", e.sql(cols)),
            Agg::Min(e) => format!("MIN({})", e.sql(cols)),
            Agg::Max(e) => format!("MAX({})", e.sql(cols)),
            Agg::Avg(e) => format!("AVG({})", e.sql(cols)),
            Agg::Count => "COUNT(*)".to_string(),
        }));
        let mut s = format!("SELECT {} FROM {table}", items.join(", "));
        if !self.preds.is_empty() {
            let preds: Vec<String> = self.preds.iter().map(|p| p.sql(cols)).collect();
            s.push_str(&format!(" WHERE {}", preds.join(" AND ")));
        }
        if let Some(g) = self.group {
            s.push_str(&format!(" GROUP BY {}", cols[g]));
        }
        s
    }

    /// The aggregation stage of an explicit view definition; column
    /// indices address the (joined) stream.
    pub fn agg_def(&self) -> AggDef {
        AggDef {
            key: self.group,
            specs: self
                .aggs
                .iter()
                .map(|a| match a {
                    Agg::Sum(e) => AggSpec {
                        agg: AggFn::Sum,
                        expr: e.sexpr(),
                    },
                    Agg::Min(e) => AggSpec {
                        agg: AggFn::Min,
                        expr: e.sexpr(),
                    },
                    Agg::Max(e) => AggSpec {
                        agg: AggFn::Max,
                        expr: e.sexpr(),
                    },
                    Agg::Avg(e) => AggSpec {
                        agg: AggFn::Avg,
                        expr: e.sexpr(),
                    },
                    Agg::Count => AggSpec {
                        agg: AggFn::Count,
                        expr: SExpr::Lit(1),
                    },
                })
                .collect(),
        }
    }

    fn fold(&self, acc: &mut Acc, row: &[i64]) {
        for (slot, agg) in acc.slots.iter_mut().zip(&self.aggs) {
            match agg {
                Agg::Sum(e) | Agg::Avg(e) => *slot = slot.wrapping_add(e.eval(row)),
                Agg::Min(e) => {
                    let v = e.eval(row);
                    *slot = if acc.count == 0 { v } else { (*slot).min(v) };
                }
                Agg::Max(e) => {
                    let v = e.eval(row);
                    *slot = if acc.count == 0 { v } else { (*slot).max(v) };
                }
                Agg::Count => {}
            }
        }
        acc.count += 1;
    }

    fn render(&self, acc: &Acc) -> Vec<i64> {
        acc.slots
            .iter()
            .zip(&self.aggs)
            .map(|(slot, agg)| match agg {
                Agg::Count => acc.count,
                Agg::Avg(_) if acc.count > 0 => slot / acc.count,
                // SUM of nothing is 0; MIN/MAX/AVG of nothing report 0.
                _ if acc.count == 0 => 0,
                _ => *slot,
            })
            .collect()
    }

    /// The statement's answer over `rows`, in the engine's canonical form:
    /// grouped — `[key, aggregates…]` per non-empty group, sorted;
    /// ungrouped — exactly one row of aggregates.
    pub fn eval<'a>(&self, rows: impl Iterator<Item = &'a [i64]>) -> Rows {
        let empty = Acc {
            count: 0,
            slots: vec![0; self.aggs.len()],
        };
        let mut groups: BTreeMap<i64, Acc> = BTreeMap::new();
        for row in rows.filter(|r| self.preds.iter().all(|p| p.holds(r))) {
            let key = self.group.map_or(0, |g| row[g]);
            let acc = groups.entry(key).or_insert_with(|| empty.clone());
            self.fold(acc, row);
        }
        match self.group {
            Some(_) => groups
                .iter()
                .map(|(k, acc)| {
                    let mut row = vec![*k];
                    row.extend(self.render(acc));
                    row
                })
                .collect(),
            None => vec![self.render(groups.get(&0).unwrap_or(&empty))],
        }
    }
}

/// The equi-join of `left` and `right` on `left[lk] == right[rk]`, as
/// row-major `left ++ right` rows in left order.
pub fn join_rows(left: &ShadowTable, lk: usize, right: &ShadowTable, rk: usize) -> Vec<i64> {
    let mut by_key: BTreeMap<i64, Vec<&[i64]>> = BTreeMap::new();
    for r in right.rows() {
        by_key.entry(r[rk]).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in left.rows() {
        for r in by_key.get(&l[lk]).into_iter().flatten() {
            out.extend_from_slice(l);
            out.extend_from_slice(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales() -> ShadowTable {
        // region, amount, qty
        ShadowTable::new(
            "sales",
            &["region", "amount", "qty"],
            vec![0, 10, 1, 1, 20, 2, 0, 30, 3, 2, 40, 4, 1, 50, 5, 0, 60, 6],
        )
    }

    fn col(c: usize) -> Expr {
        Expr::Col(c)
    }

    #[test]
    fn grouped_fold_matches_a_hand_computed_case() {
        let stmt = Stmt {
            aggs: vec![
                Agg::Sum(Expr::mul(col(1), col(2))),
                Agg::Count,
                Agg::Max(col(1)),
                Agg::Avg(col(1)),
            ],
            preds: vec![Pred::new(col(2), Cmp::Gt, Expr::Lit(1))],
            group: Some(0),
        };
        assert_eq!(
            stmt.sql("sales", sales().cols),
            "SELECT region, SUM((amount * qty)), COUNT(*), MAX(amount), AVG(amount) \
             FROM sales WHERE qty > 1 GROUP BY region"
        );
        // qty > 1 drops the first row. Region 0: (30,3),(60,6); region 1:
        // (20,2),(50,5); region 2: (40,4).
        assert_eq!(
            stmt.eval(sales().rows()),
            vec![
                vec![0, 90 + 360, 2, 60, 45],
                vec![1, 40 + 250, 2, 50, 35],
                vec![2, 160, 1, 40, 40],
            ]
        );
    }

    #[test]
    fn ungrouped_fold_reports_zero_over_nothing() {
        let stmt = Stmt {
            aggs: vec![
                Agg::Min(col(1)),
                Agg::Avg(col(1)),
                Agg::Sum(col(1)),
                Agg::Count,
            ],
            preds: vec![
                Pred::new(col(1), Cmp::Ge, Expr::Lit(20)),
                Pred::new(col(1), Cmp::Le, Expr::Lit(50)),
                Pred::new(col(0), Cmp::Ne, Expr::Lit(2)),
            ],
            group: None,
        };
        // amounts 20, 30, 50 qualify: truncating average 33.
        assert_eq!(stmt.eval(sales().rows()), vec![vec![20, 33, 100, 3]]);
        let none = Stmt {
            preds: vec![Pred::new(col(1), Cmp::Lt, Expr::Lit(0))],
            ..stmt
        };
        assert_eq!(none.eval(sales().rows()), vec![vec![0, 0, 0, 0]]);
    }

    #[test]
    fn mutations_keep_row_order() {
        let mut t = sales();
        t.append(&[vec![3, 70, 7]]);
        t.update(&[(0, vec![0, 11, 1])]);
        t.delete(&[1, 3]);
        let rows: Vec<&[i64]> = t.rows().collect();
        assert_eq!(
            rows,
            vec![
                &[0, 11, 1][..],
                &[0, 30, 3],
                &[1, 50, 5],
                &[0, 60, 6],
                &[3, 70, 7]
            ]
        );
        assert_eq!(t.len(), 5);
        assert_eq!(t.to_table().len, 5);
    }

    #[test]
    fn join_concatenates_matching_rows() {
        let dim = ShadowTable::new("dim", &["id", "w"], vec![0, 5, 1, 7]);
        let joined = join_rows(&sales(), 0, &dim, 0);
        // Region 2 has no dim row: 5 of 6 sales rows survive, 5 columns each.
        assert_eq!(joined.len(), 5 * 5);
        assert_eq!(&joined[..5], &[0, 10, 1, 0, 5]);
        let stmt = Stmt {
            aggs: vec![Agg::Sum(Expr::mul(col(1), col(4)))],
            preds: vec![],
            group: Some(3),
        };
        assert_eq!(
            stmt.eval(joined.chunks_exact(5)),
            vec![vec![0, (10 + 30 + 60) * 5], vec![1, (20 + 50) * 7]]
        );
    }
}
