//! Sentinel check (pass 3): may a masked fold's data contain the
//! `i64::MIN` / `i64::MAX` value its lowering reserves as the identity?
//!
//! The relational layer lowers masked `MIN`/`MAX` aggregates with the
//! `keep + (1-mask)*identity` idiom: masked-out slots are overwritten
//! with the fold's identity (`i64::MAX` for `MIN`, `i64::MIN` for `MAX`)
//! so they cannot win the fold. That is correct *only if the data itself
//! never takes the identity value* — a genuine `i64::MAX` row would be
//! indistinguishable from a masked-out one. This pass reads, from catalog
//! column statistics, whether the columns a masked fold consumes may hold
//! its identity, and rejects such a fold at prepare time instead of
//! silently computing a wrong answer.
//!
//! Arithmetic is assumed to carry sentinels through but not create them
//! (overflow that lands exactly on a sentinel is out of scope here — the
//! CI debug run with `overflow-checks=on` owns wrap bugs).

use voodoo_core::{AggKind, Diagnostic, KeyPath, Op, Pass, Program, ScalarType, ScalarValue, VRef};
use voodoo_storage::Catalog;

/// Whether a column's values may contain the reserved sentinel values.
#[derive(Clone, Copy)]
struct SentinelDomain {
    /// May contain `i64::MIN` (the masked-`MAX` identity).
    may_min: bool,
    /// May contain `i64::MAX` (the masked-`MIN` identity).
    may_max: bool,
}

impl SentinelDomain {
    /// The clean domain: provably free of both sentinels.
    const CLEAN: SentinelDomain = SentinelDomain {
        may_min: false,
        may_max: false,
    };
}

/// Sentinel possibilities of one column of a loaded table, addressed by
/// keypath. A keypath that does not resolve to a column falls back to the
/// whole-table join (conservative); non-`i64` columns are clean.
fn column_domain(catalog: &Catalog, name: &str, kp: &KeyPath) -> SentinelDomain {
    let Some(table) = catalog.table(name) else {
        return SentinelDomain::CLEAN;
    };
    if kp.is_root() {
        return table_domain(catalog, name);
    }
    let col_name = kp.components().last().unwrap_or("");
    match table.column(col_name) {
        Some(col) if col.ty() == ScalarType::I64 => match col.stats {
            Some(s) => SentinelDomain {
                may_min: s.min == i64::MIN,
                may_max: s.max == i64::MAX,
            },
            // No stats: assume anything.
            None => SentinelDomain {
                may_min: true,
                may_max: true,
            },
        },
        Some(_) => SentinelDomain::CLEAN,
        None => table_domain(catalog, name),
    }
}

/// Sentinel possibilities of a table's `i64` columns, from catalog stats.
fn table_domain(catalog: &Catalog, name: &str) -> SentinelDomain {
    let Some(table) = catalog.table(name) else {
        return SentinelDomain::CLEAN;
    };
    let mut d = SentinelDomain::CLEAN;
    for col in &table.columns {
        if col.ty() != ScalarType::I64 {
            continue;
        }
        if let Some(stats) = col.stats {
            d.may_min |= stats.min == i64::MIN;
            d.may_max |= stats.max == i64::MAX;
        }
    }
    d
}

/// The transitive input cone of a statement (including itself).
fn cone(program: &Program, root: VRef) -> Vec<bool> {
    let mut seen = vec![false; program.len()];
    let mut work = vec![root.index()];
    seen[root.index()] = true;
    while let Some(i) = work.pop() {
        for input in program.stmts()[i].op.inputs() {
            let j = input.index();
            if j < i && !seen[j] {
                seen[j] = true;
                work.push(j);
            }
        }
    }
    seen
}

/// Reject masked `Min`/`Max` folds whose input data may contain the
/// fold's identity sentinel *and* that ship no count to disambiguate.
///
/// A fold is considered *masked* when its input cone contains a constant
/// equal to the identity — the `keep + (1-mask)*identity` lowering
/// signature. The identity is the fold's neutral element, so the folded
/// *value* is always right on non-empty runs; the hazard is that the
/// identity coming back is ambiguous between "empty run" and "the data
/// really is the identity". A companion `Sum` fold with the same
/// fold-control (the qualifying-row count — exactly what the relational
/// layer emits alongside guarded `MIN`/`MAX`) resolves the ambiguity, so
/// guarded programs pass. An unguarded masked fold is flagged only when
/// the *data side* of its cone — keypath-addressed column reads from
/// `Load`s, per catalog column stats — may actually produce the identity;
/// an unmasked fold over sentinel-valued data is perfectly correct and is
/// never flagged. `live` restricts the check to statements that can
/// influence the result (see [`crate::effects::live_statements`]).
pub fn check(program: &Program, catalog: &Catalog, live: &[bool]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, stmt) in program.stmts().iter().enumerate() {
        if !live[i] {
            continue;
        }
        let Op::FoldAgg {
            agg, v, fold_kp, ..
        } = &stmt.op
        else {
            continue;
        };
        let identity = match agg {
            AggKind::Min => i64::MAX,
            AggKind::Max => i64::MIN,
            AggKind::Sum => continue,
        };
        let in_cone = cone(program, *v);
        // The masked-lowering signature: the identity appears as a
        // constant somewhere in the fold's input cone.
        let masked = program.stmts().iter().enumerate().any(|(j, s)| {
            in_cone[j]
                && matches!(&s.op,
                    Op::Constant { value: ScalarValue::I64(c), .. } if *c == identity)
        });
        if !masked {
            continue;
        }
        // A same-fold-control Sum gives every consumer the run count that
        // distinguishes "empty" from "data == identity": guarded, safe.
        let guarded = program.stmts().iter().enumerate().any(|(k, s)| {
            k != i
                && live[k]
                && matches!(&s.op,
                    Op::FoldAgg { agg: AggKind::Sum, fold_kp: fk, .. } if fk == fold_kp)
        });
        if guarded {
            continue;
        }
        // Data-side domain: every keypath-addressed column read of a Load
        // inside the cone (whole-table join for un-addressed consumption).
        let mut witness: Option<(String, String)> = None;
        let mut reads = |load: VRef, kp: Option<&KeyPath>| {
            let Op::Load { name } = &program.stmts()[load.index()].op else {
                return;
            };
            let d = match kp {
                Some(kp) => column_domain(catalog, name, kp),
                None => table_domain(catalog, name),
            };
            let hit = if identity == i64::MAX {
                d.may_max
            } else {
                d.may_min
            };
            if hit && witness.is_none() {
                let col = kp
                    .map(|k| format!("{k}"))
                    .unwrap_or_else(|| "<all columns>".to_string());
                witness = Some((name.clone(), col));
            }
        };
        for (j, s) in program.stmts().iter().enumerate() {
            if !in_cone[j] {
                continue;
            }
            match &s.op {
                Op::Binary {
                    lhs,
                    lhs_kp,
                    rhs,
                    rhs_kp,
                    ..
                } => {
                    reads(*lhs, Some(lhs_kp));
                    reads(*rhs, Some(rhs_kp));
                }
                Op::Zip {
                    v1, kp1, v2, kp2, ..
                } => {
                    reads(*v1, Some(kp1));
                    reads(*v2, Some(kp2));
                }
                Op::Project { v, kp, .. } => reads(*v, Some(kp)),
                Op::Upsert { v, src, kp, .. } => {
                    reads(*v, None);
                    reads(*src, Some(kp));
                }
                Op::Gather { source, .. } => reads(*source, None),
                Op::Scatter { values, .. } => reads(*values, None),
                Op::Materialize { v, .. } | Op::Break { v, .. } | Op::Persist { v, .. } => {
                    reads(*v, None)
                }
                Op::FoldAgg { v, val_kp, .. } | Op::FoldScan { v, val_kp, .. } => {
                    reads(*v, Some(val_kp))
                }
                _ => {}
            }
        }
        if let Some((table, column)) = witness {
            diags.push(Diagnostic::at(
                i,
                stmt.op.name(),
                Pass::Sentinel,
                format!(
                    "masked {} lowering reserves {} as its identity, but {table:?}.{column} \
                     may contain that value (per column stats) and no same-fold count \
                     guards the result; the fold could not distinguish data from \
                     masked-out slots",
                    stmt.op.name(),
                    if identity == i64::MAX {
                        "i64::MAX"
                    } else {
                        "i64::MIN"
                    },
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::live_statements;
    use voodoo_core::{AggKind, BinOp, KeyPath};

    fn masked_min_program(table: &str) -> Program {
        // The relational lowering shape: keep = val*mask + (1-mask)*MAX,
        // then FoldMin.
        let mut p = Program::new();
        let v = p.load(table);
        let mask = p.greater_const(v, 10i64);
        let keep = p.binary(BinOp::Multiply, v, mask);
        let one = p.constant(1i64);
        let inv = p.binary(BinOp::Subtract, one, mask);
        let ident = p.constant(i64::MAX);
        let fill = p.binary(BinOp::Multiply, inv, ident);
        let guarded = p.binary(BinOp::Add, keep, fill);
        let m = p.fold_agg_kp(AggKind::Min, guarded, None, KeyPath::val(), KeyPath::val());
        p.ret(m);
        p
    }

    #[test]
    fn masked_min_over_clean_data_accepted() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[5, 20, 30]);
        let p = masked_min_program("t");
        let live = live_statements(&p);
        assert!(check(&p, &cat, &live).is_empty());
    }

    #[test]
    fn masked_min_over_sentinel_data_rejected() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[5, i64::MAX, 30]);
        let p = masked_min_program("t");
        let live = live_statements(&p);
        let diags = check(&p, &cat, &live);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pass, Pass::Sentinel);
        assert!(diags[0].stmt.is_some());
        assert!(diags[0].reason.contains("i64::MAX"), "{}", diags[0].reason);
    }

    #[test]
    fn unmasked_min_over_sentinel_data_accepted() {
        let mut cat = Catalog::in_memory();
        cat.put_i64_column("t", &[5, i64::MAX, 30]);
        let mut p = Program::new();
        let v = p.load("t");
        let m = p.fold_min_global(v);
        p.ret(m);
        let live = live_statements(&p);
        assert!(check(&p, &cat, &live).is_empty());
    }
}
