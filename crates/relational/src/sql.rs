//! A small SQL subset, parsed and lowered through the Voodoo builder.
//!
//! The paper uses MonetDB's SQL parser; this module stands in for it with
//! a deliberately small grammar that exercises the same lowering paths as
//! the hand-built TPC-H plans:
//!
//! ```text
//! query   := SELECT items FROM ident [WHERE conj] [GROUP BY ident]
//! items   := item (',' item)*
//! item    := SUM '(' expr ')' | MIN '(' expr ')' | MAX '(' expr ')'
//!          | AVG '(' expr ')' | COUNT '(' '*' ')' | ident
//! expr    := term (('+'|'-') term)*
//! term    := factor (('*'|'/') factor)*
//! factor  := ident | number | '(' expr ')'
//! conj    := cmp (AND cmp)*
//! cmp     := expr ('<'|'<='|'>'|'>='|'='|'<>') expr
//!          | expr BETWEEN number AND number
//! ```
//!
//! `AVG` is integer average (`SUM/COUNT`, truncating), matching the
//! engine-wide integer arithmetic; over zero qualifying rows the
//! `MIN`/`MAX`/`AVG` of an ungrouped query is reported as 0.
//!
//! Grouping columns must be dense non-negative integers (the planner sizes
//! the group domain from the column's min/max statistics — the paper's
//! "identity hashing ... using only min and max").

use voodoo_core::{AggKind, BinOp, KeyPath, Result, VRef, VoodooError};
use voodoo_interp::ExecOutput;
use voodoo_storage::Catalog;

use crate::builder::{extract_grouped, extract_scalar, Lowered, QB};

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlQuery {
    /// Selected items.
    pub items: Vec<Item>,
    /// Source table.
    pub table: String,
    /// Conjunctive predicate.
    pub predicate: Vec<Cmp>,
    /// Optional group-by column.
    pub group_by: Option<String>,
}

/// One select item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `SUM(expr)`.
    Sum(Expr),
    /// `MIN(expr)`.
    Min(Expr),
    /// `MAX(expr)`.
    Max(Expr),
    /// `AVG(expr)` — integer average, lowered as `SUM`/`COUNT`.
    Avg(Expr),
    /// `COUNT(*)`.
    CountStar,
    /// A bare column (must be the group-by column).
    Column(String),
}

/// Arithmetic expressions over columns and integer literals.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Col(String),
    /// Integer literal.
    Lit(i64),
    /// Binary arithmetic.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

/// A comparison in the WHERE conjunction.
#[derive(Debug, Clone, PartialEq)]
pub struct Cmp {
    /// Comparison operator.
    pub op: BinOp,
    /// Left side.
    pub lhs: Expr,
    /// Right side.
    pub rhs: Expr,
}

// ---------------------------------------------------------------------
// Tokenizer + recursive-descent parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(i64),
    Sym(char),
    Le,
    Ge,
    Ne,
}

fn tokenize(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let b: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let s = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            out.push(Tok::Ident(
                b[s..i].iter().collect::<String>().to_uppercase(),
            ));
        } else if c.is_ascii_digit()
            || (c == '-'
                && i + 1 < b.len()
                && b[i + 1].is_ascii_digit()
                && matches!(
                    out.last(),
                    None | Some(Tok::Sym(_)) | Some(Tok::Le) | Some(Tok::Ge) | Some(Tok::Ne)
                ))
        {
            let s = i;
            i += 1;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            let text: String = b[s..i].iter().collect();
            out.push(Tok::Num(text.parse().map_err(|_| {
                VoodooError::Backend(format!("bad number {text}"))
            })?));
        } else if c == '<' && i + 1 < b.len() && b[i + 1] == '=' {
            out.push(Tok::Le);
            i += 2;
        } else if c == '>' && i + 1 < b.len() && b[i + 1] == '=' {
            out.push(Tok::Ge);
            i += 2;
        } else if c == '<' && i + 1 < b.len() && b[i + 1] == '>' {
            out.push(Tok::Ne);
            i += 2;
        } else if "(),*+-/<>=".contains(c) {
            out.push(Tok::Sym(c));
            i += 1;
        } else {
            return Err(VoodooError::Backend(format!("unexpected character {c:?}")));
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// One-slot queue for the second half of a desugared BETWEEN.
    pending: Option<Cmp>,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Tok::Ident(s)) if s == kw => Ok(()),
            other => Err(VoodooError::Backend(format!(
                "expected {kw}, got {other:?}"
            ))),
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<()> {
        match self.next() {
            Some(Tok::Sym(s)) if s == c => Ok(()),
            other => Err(VoodooError::Backend(format!(
                "expected {c:?}, got {other:?}"
            ))),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn parse_agg_arg(&mut self) -> Result<Expr> {
        self.next();
        self.expect_sym('(')?;
        let e = self.parse_expr()?;
        self.expect_sym(')')?;
        Ok(e)
    }

    fn parse_item(&mut self) -> Result<Item> {
        if self.at_kw("SUM") {
            Ok(Item::Sum(self.parse_agg_arg()?))
        } else if self.at_kw("MIN") {
            Ok(Item::Min(self.parse_agg_arg()?))
        } else if self.at_kw("MAX") {
            Ok(Item::Max(self.parse_agg_arg()?))
        } else if self.at_kw("AVG") {
            Ok(Item::Avg(self.parse_agg_arg()?))
        } else if self.at_kw("COUNT") {
            self.next();
            self.expect_sym('(')?;
            self.expect_sym('*')?;
            self.expect_sym(')')?;
            Ok(Item::CountStar)
        } else {
            match self.next() {
                Some(Tok::Ident(s)) => Ok(Item::Column(s.to_lowercase())),
                other => Err(VoodooError::Backend(format!(
                    "expected item, got {other:?}"
                ))),
            }
        }
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_term()?;
        loop {
            match self.peek() {
                Some(Tok::Sym('+')) => {
                    self.next();
                    lhs = Expr::Bin(BinOp::Add, Box::new(lhs), Box::new(self.parse_term()?));
                }
                Some(Tok::Sym('-')) => {
                    self.next();
                    lhs = Expr::Bin(BinOp::Subtract, Box::new(lhs), Box::new(self.parse_term()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_term(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_factor()?;
        loop {
            match self.peek() {
                Some(Tok::Sym('*')) => {
                    self.next();
                    lhs = Expr::Bin(
                        BinOp::Multiply,
                        Box::new(lhs),
                        Box::new(self.parse_factor()?),
                    );
                }
                Some(Tok::Sym('/')) => {
                    self.next();
                    lhs = Expr::Bin(BinOp::Divide, Box::new(lhs), Box::new(self.parse_factor()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_factor(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(Expr::Col(s.to_lowercase())),
            Some(Tok::Num(n)) => Ok(Expr::Lit(n)),
            Some(Tok::Sym('(')) => {
                let e = self.parse_expr()?;
                self.expect_sym(')')?;
                Ok(e)
            }
            other => Err(VoodooError::Backend(format!(
                "expected factor, got {other:?}"
            ))),
        }
    }

    fn parse_cmp(&mut self) -> Result<Cmp> {
        let lhs = self.parse_expr()?;
        if self.at_kw("BETWEEN") {
            self.next();
            let lo = self.parse_expr()?;
            self.expect_kw("AND")?;
            let hi = self.parse_expr()?;
            // Desugar into two comparisons chained by the caller: encode as
            // lo <= lhs AND lhs <= hi by returning the first and pushing the
            // second through a synthetic token rewind — simpler: represent
            // BETWEEN directly as two Cmps via a marker. We return the GE
            // half and stash the LE half.
            self.pending = Some(Cmp {
                op: BinOp::LessEquals,
                lhs: lhs.clone(),
                rhs: hi,
            });
            return Ok(Cmp {
                op: BinOp::GreaterEquals,
                lhs,
                rhs: lo,
            });
        }
        let op = match self.next() {
            Some(Tok::Sym('<')) => BinOp::Less,
            Some(Tok::Sym('>')) => BinOp::Greater,
            Some(Tok::Sym('=')) => BinOp::Equals,
            Some(Tok::Le) => BinOp::LessEquals,
            Some(Tok::Ge) => BinOp::GreaterEquals,
            Some(Tok::Ne) => BinOp::NotEquals,
            other => {
                return Err(VoodooError::Backend(format!(
                    "expected operator, got {other:?}"
                )))
            }
        };
        let rhs = self.parse_expr()?;
        Ok(Cmp { op, lhs, rhs })
    }
}

/// Parse a SQL string.
pub fn parse(input: &str) -> Result<SqlQuery> {
    let mut p = Parser {
        toks: tokenize(input)?,
        pos: 0,
        pending: None,
    };
    let mut q = p.parse_query_with_pending()?;
    // Bare columns are only allowed when they name the group-by key.
    for item in &q.items {
        if let Item::Column(c) = item {
            if q.group_by.as_deref() != Some(c.as_str()) {
                return Err(VoodooError::Backend(format!(
                    "column {c} is neither aggregated nor the GROUP BY key"
                )));
            }
        }
    }
    q.items.retain(|i| !matches!(i, Item::Column(_)));
    Ok(q)
}

impl Parser {
    fn parse_query_with_pending(&mut self) -> Result<SqlQuery> {
        // parse_query but flushing BETWEEN's second half after each cmp.
        self.expect_kw("SELECT")?;
        let mut items = vec![self.parse_item()?];
        while matches!(self.peek(), Some(Tok::Sym(','))) {
            self.next();
            items.push(self.parse_item()?);
        }
        self.expect_kw("FROM")?;
        let table = match self.next() {
            Some(Tok::Ident(s)) => s.to_lowercase(),
            other => {
                return Err(VoodooError::Backend(format!(
                    "expected table, got {other:?}"
                )))
            }
        };
        let mut predicate = Vec::new();
        if self.at_kw("WHERE") {
            self.next();
            loop {
                let c = self.parse_cmp()?;
                predicate.push(c);
                if let Some(second) = self.pending.take() {
                    predicate.push(second);
                }
                if self.at_kw("AND") {
                    self.next();
                } else {
                    break;
                }
            }
        }
        let mut group_by = None;
        if self.at_kw("GROUP") {
            self.next();
            self.expect_kw("BY")?;
            group_by = Some(match self.next() {
                Some(Tok::Ident(s)) => s.to_lowercase(),
                other => {
                    return Err(VoodooError::Backend(format!(
                        "expected column, got {other:?}"
                    )))
                }
            });
        }
        if self.pos != self.toks.len() {
            return Err(VoodooError::Backend(
                "trailing tokens after query".to_string(),
            ));
        }
        Ok(SqlQuery {
            items,
            table,
            predicate,
            group_by,
        })
    }
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// How one visible output column is computed from the returned aggregate
/// vectors (slots index the agg vectors after the group key, if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutCol {
    /// The slot's folded value, as-is (`SUM`, `COUNT(*)`).
    Plain(usize),
    /// The slot's folded value, but 0 when no row qualified — `MIN`/`MAX`,
    /// whose masked lowering substitutes an identity sentinel.
    Guarded(usize),
    /// `AVG`: the slot holds the sum; divide by the count slot.
    Avg(usize),
}

/// `MIN`'s identity sentinel: masked-out rows contribute this value, which
/// never wins against a real row. (Degenerate only if actual data contains
/// `i64::MAX` itself.)
const MIN_IDENTITY: i64 = i64::MAX;
/// `MAX`'s identity sentinel.
const MAX_IDENTITY: i64 = i64::MIN;

fn lower_expr(qb: &mut QB, table: VRef, e: &Expr) -> Result<VRef> {
    Ok(match e {
        Expr::Col(c) => qb.p.project(table, KeyPath::new(c), KeyPath::val()),
        Expr::Lit(n) => qb.p.constant(*n),
        Expr::Bin(op, l, r) => {
            let lv = lower_expr(qb, table, l)?;
            let rv = lower_expr(qb, table, r)?;
            qb.p.binary(*op, lv, rv)
        }
    })
}

/// Lower a query against a catalog: one program, and the extraction of its
/// rows (see [`extract_rows`]).
pub fn lower(cat: &Catalog, q: &SqlQuery) -> Result<Lowered> {
    let stats_domain = |col: &str| -> Result<usize> {
        let s = cat
            .column_stats(&q.table, col)
            .ok_or_else(|| VoodooError::Backend(format!("no stats for {}.{col}", q.table)))?;
        if s.min < 0 {
            return Err(VoodooError::Backend(format!(
                "GROUP BY column {col} must be non-negative (dense domain)"
            )));
        }
        Ok(s.max as usize + 1)
    };

    let mut qb = QB::new();
    let table = qb.table(&q.table);
    // WHERE conjunction as a mask.
    let mut mask: Option<VRef> = None;
    for cmp in &q.predicate {
        let l = lower_expr(&mut qb, table, &cmp.lhs)?;
        let r = lower_expr(&mut qb, table, &cmp.rhs)?;
        let c = qb.p.binary(cmp.op, l, r);
        mask = Some(match mask {
            None => c,
            Some(m) => qb.p.binary(BinOp::LogicalAnd, m, c),
        });
    }

    // Multiply-masking is correct for SUM/COUNT (masked-out rows add 0)
    // but not for MIN/MAX, whose masked rows instead contribute the
    // aggregation's identity element so they can never win the fold.
    let sentinel_masked = |qb: &mut QB, v: VRef, m: VRef, identity: i64| -> VRef {
        let keep = qb.masked(v, m);
        let inv = qb.rsub_c(1, m, ".val");
        let fill = qb.p.mul_const(inv, identity);
        qb.p.add(keep, fill)
    };

    // One aggregate slot per item (AVG reuses the count slot for its
    // denominator); `outputs` records how to read each visible column.
    let mut vals: Vec<(VRef, AggKind)> = Vec::new();
    let mut outputs = Vec::new();
    let mut needs_count = q.group_by.is_some();
    for item in &q.items {
        match item {
            Item::Sum(e) => {
                let v = lower_expr(&mut qb, table, e)?;
                let v = match mask {
                    Some(m) => qb.masked(v, m),
                    None => v,
                };
                outputs.push(OutCol::Plain(vals.len()));
                vals.push((v, AggKind::Sum));
            }
            Item::CountStar => {
                let ones = qb.p.constant_like(1i64, table);
                let v = match mask {
                    Some(m) => qb.masked(ones, m),
                    None => ones,
                };
                outputs.push(OutCol::Plain(vals.len()));
                vals.push((v, AggKind::Sum));
            }
            Item::Min(e) | Item::Max(e) => {
                let (kind, identity) = match item {
                    Item::Min(_) => (AggKind::Min, MIN_IDENTITY),
                    _ => (AggKind::Max, MAX_IDENTITY),
                };
                let v = lower_expr(&mut qb, table, e)?;
                let v = match mask {
                    Some(m) => sentinel_masked(&mut qb, v, m, identity),
                    None => v,
                };
                outputs.push(OutCol::Guarded(vals.len()));
                vals.push((v, kind));
                needs_count = true;
            }
            Item::Avg(e) => {
                let v = lower_expr(&mut qb, table, e)?;
                let v = match mask {
                    Some(m) => qb.masked(v, m),
                    None => v,
                };
                outputs.push(OutCol::Avg(vals.len()));
                vals.push((v, AggKind::Sum));
                needs_count = true;
            }
            Item::Column(_) => continue,
        }
    }
    // Qualifying-row count: group-emptiness filter, MIN/MAX guard and AVG
    // denominator, staged as the trailing slot.
    let count_slot = if needs_count {
        let count_src = match mask {
            Some(m) => qb.p.project(m, KeyPath::val(), KeyPath::val()),
            None => qb.p.constant_like(1i64, table),
        };
        let slot = vals.len();
        vals.push((count_src, AggKind::Sum));
        Some(slot)
    } else {
        None
    };

    let grouped = match &q.group_by {
        Some(col) => {
            let domain = stats_domain(col)?;
            let key = qb.p.project(table, KeyPath::new(col), KeyPath::val());
            let (kf, sums) = qb.group_aggs(key, domain, &vals);
            qb.ret(kf);
            for s in sums {
                qb.ret(s);
            }
            true
        }
        None => {
            for (v, kind) in vals {
                let s =
                    qb.p.fold_agg_kp(kind, v, None, KeyPath::val(), KeyPath::val());
                qb.ret(s);
            }
            false
        }
    };
    Ok(Lowered::new(qb.finish(), move |out| {
        rows(grouped, &outputs, count_slot, out)
    }))
}

/// Extract the final result rows from a lowered query's outputs, sorted.
pub fn extract_rows(lowered: &Lowered, out: &ExecOutput) -> Vec<Vec<i64>> {
    (lowered.extract)(out)
}

/// The rows of a lowered query: `grouped` (vs one global row), a recipe
/// for each visible output column in `SELECT` order, and the slot of the
/// qualifying-row count (always present for grouped queries; present
/// globally when `MIN`/`MAX`/`AVG` need the guard).
fn rows(
    grouped: bool,
    outputs: &[OutCol],
    count_slot: Option<usize>,
    out: &ExecOutput,
) -> Vec<Vec<i64>> {
    // Resolve one visible column from the folded slot values (tolerating
    // short outputs, e.g. a caller substituting a default ExecOutput after
    // an engine error).
    let resolve = |col: &OutCol, slots: &[i64], count: i64| -> i64 {
        let at = |s: &usize| slots.get(*s).copied().unwrap_or(0);
        match col {
            OutCol::Plain(s) => at(s),
            OutCol::Guarded(s) => {
                if count > 0 {
                    at(s)
                } else {
                    0
                }
            }
            OutCol::Avg(s) => {
                if count > 0 {
                    at(s) / count
                } else {
                    0
                }
            }
        }
    };
    if grouped {
        if out.returns.is_empty() {
            return Vec::new();
        }
        let sums: Vec<&voodoo_core::StructuredVector> = out.returns[1..].iter().collect();
        let rows = extract_grouped(&out.returns[0], &sums);
        let count_slot = count_slot.expect("grouped queries always count");
        let mut result: Vec<Vec<i64>> = rows
            .into_iter()
            .filter(|(_, v)| v[count_slot] > 0)
            .map(|(k, v)| {
                let count = v[count_slot];
                let mut row = vec![k];
                row.extend(outputs.iter().map(|c| resolve(c, &v, count)));
                row
            })
            .collect();
        result.sort_unstable();
        result
    } else {
        let slots: Vec<i64> = out.returns.iter().map(extract_scalar).collect();
        let count = count_slot
            .map(|s| slots.get(s).copied().unwrap_or(0))
            .unwrap_or(i64::MAX);
        vec![outputs.iter().map(|c| resolve(c, &slots, count)).collect()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voodoo_interp::Interpreter;

    fn cat() -> Catalog {
        let mut cat = Catalog::in_memory();
        let mut t = voodoo_storage::Table::new("sales");
        t.add_column(voodoo_storage::TableColumn::from_buffer(
            "region",
            voodoo_core::Buffer::I64(vec![0, 1, 0, 2, 1, 0]),
        ));
        t.add_column(voodoo_storage::TableColumn::from_buffer(
            "amount",
            voodoo_core::Buffer::I64(vec![10, 20, 30, 40, 50, 60]),
        ));
        t.add_column(voodoo_storage::TableColumn::from_buffer(
            "qty",
            voodoo_core::Buffer::I64(vec![1, 2, 3, 4, 5, 6]),
        ));
        cat.insert_table(t);
        cat
    }

    fn run_in(cat: &Catalog, sql: &str) -> Vec<Vec<i64>> {
        let lowered = lower(cat, &parse(sql).unwrap()).unwrap();
        let out = Interpreter::new(cat).run_program(&lowered.program).unwrap();
        extract_rows(&lowered, &out)
    }

    fn run(sql: &str) -> Vec<Vec<i64>> {
        run_in(&cat(), sql)
    }

    #[test]
    fn parses_basic_query() {
        let q = parse("SELECT SUM(amount) FROM sales WHERE qty > 2").unwrap();
        assert_eq!(q.table, "sales");
        assert_eq!(q.items.len(), 1);
        assert_eq!(q.predicate.len(), 1);
    }

    #[test]
    fn global_aggregate() {
        let rows = run("SELECT SUM(amount), COUNT(*) FROM sales WHERE qty > 2");
        assert_eq!(rows, vec![vec![30 + 40 + 50 + 60, 4]]);
    }

    #[test]
    fn grouped_aggregate() {
        let rows = run("SELECT region, SUM(amount) FROM sales GROUP BY region");
        assert_eq!(rows, vec![vec![0, 100], vec![1, 70], vec![2, 40]]);
    }

    #[test]
    fn grouped_with_filter_drops_empty_groups() {
        let rows = run("SELECT region, SUM(amount) FROM sales WHERE amount >= 50 GROUP BY region");
        assert_eq!(rows, vec![vec![0, 60], vec![1, 50]]);
    }

    #[test]
    fn between_desugars() {
        let rows = run("SELECT SUM(amount) FROM sales WHERE qty BETWEEN 2 AND 4");
        assert_eq!(rows, vec![vec![20 + 30 + 40]]);
    }

    #[test]
    fn arithmetic_in_aggregate() {
        let rows = run("SELECT SUM(amount * qty) FROM sales WHERE region = 0");
        assert_eq!(rows, vec![vec![10 + 90 + 360]]);
    }

    #[test]
    fn min_max_global() {
        let rows = run("SELECT MIN(amount), MAX(amount) FROM sales");
        assert_eq!(rows, vec![vec![10, 60]]);
    }

    #[test]
    fn min_max_respect_where_mask() {
        // Without sentinel masking a multiply-masked MIN would see 0s.
        let rows = run("SELECT MIN(amount), MAX(amount), COUNT(*) FROM sales WHERE qty > 2");
        assert_eq!(rows, vec![vec![30, 60, 4]]);
    }

    #[test]
    fn min_max_empty_selection_reports_zero() {
        let rows = run("SELECT MIN(amount), MAX(amount), COUNT(*) FROM sales WHERE qty > 100");
        assert_eq!(rows, vec![vec![0, 0, 0]]);
    }

    #[test]
    fn min_of_negative_values() {
        let cat = {
            let mut cat = Catalog::in_memory();
            let mut t = voodoo_storage::Table::new("t");
            t.add_column(voodoo_storage::TableColumn::from_buffer(
                "v",
                voodoo_core::Buffer::I64(vec![-7, 3, -2, 9]),
            ));
            t.add_column(voodoo_storage::TableColumn::from_buffer(
                "keep",
                voodoo_core::Buffer::I64(vec![1, 1, 0, 1]),
            ));
            cat.insert_table(t);
            cat
        };
        let rows = run_in(&cat, "SELECT MIN(v), MAX(v) FROM t WHERE keep = 1");
        assert_eq!(rows, vec![vec![-7, 9]]);
    }

    #[test]
    fn grouped_min_max() {
        let rows = run("SELECT region, MIN(amount), MAX(amount) FROM sales GROUP BY region");
        assert_eq!(
            rows,
            vec![vec![0, 10, 60], vec![1, 20, 50], vec![2, 40, 40]]
        );
    }

    #[test]
    fn grouped_min_with_filter_ignores_masked_rows() {
        // region 0 holds amounts {10, 30, 60}; the filter keeps {30, 60}.
        let rows = run("SELECT region, MIN(amount) FROM sales WHERE amount >= 30 GROUP BY region");
        assert_eq!(rows, vec![vec![0, 30], vec![1, 50], vec![2, 40]]);
    }

    #[test]
    fn avg_is_integer_sum_over_count() {
        let rows = run("SELECT AVG(amount) FROM sales");
        assert_eq!(rows, vec![vec![210 / 6]]);
        let rows = run("SELECT AVG(amount) FROM sales WHERE qty > 2");
        assert_eq!(rows, vec![vec![(30 + 40 + 50 + 60) / 4]]);
        let rows = run("SELECT region, AVG(amount) FROM sales GROUP BY region");
        assert_eq!(rows, vec![vec![0, 100 / 3], vec![1, 35], vec![2, 40]]);
    }

    #[test]
    fn avg_of_empty_selection_is_zero() {
        let rows = run("SELECT AVG(amount) FROM sales WHERE qty > 100");
        assert_eq!(rows, vec![vec![0]]);
    }

    #[test]
    fn mixed_aggregates_in_one_query() {
        let rows = run(
            "SELECT region, SUM(amount), MIN(qty), MAX(qty), AVG(amount), COUNT(*) \
             FROM sales GROUP BY region",
        );
        assert_eq!(
            rows,
            vec![
                vec![0, 100, 1, 6, 33, 3],
                vec![1, 70, 2, 5, 35, 2],
                vec![2, 40, 4, 4, 40, 1],
            ]
        );
    }

    #[test]
    fn rejects_bare_non_group_column() {
        let cat = cat();
        let q = parse("SELECT amount FROM sales GROUP BY region");
        assert!(q.is_err());
        let _ = cat;
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELEKT x FROM y").is_err());
        assert!(parse("SELECT SUM(x FROM y").is_err());
        assert!(parse("SELECT SUM(x) FROM y WHERE !").is_err());
    }
}
