//! Load-time auxiliary tables, and the planner's catalog resolution.
//!
//! MonetDB evaluates string predicates (`LIKE '%green%'`) once against the
//! dictionary, not once per row; the resulting per-code flag vector is an
//! ordinary column. [`prepare()`] stages those flag vectors (plus a
//! day→year lookup for `extract(year ...)`) as single-column tables that
//! Voodoo plans `Gather` from — keeping the algebra free of string
//! operations, exactly as in the paper's MonetDB integration.
//!
//! The same dictionaries give the TPC-H planner its constants (codes,
//! canonical ranks, nation and region keys, table lengths). It resolves
//! them here, through storage's dictionary API, and shares no code with
//! the reference engines it is tested against: a wrong code or rank on
//! either side shows up as a mismatch instead of moving both together.

use voodoo_core::KeyPath;
use voodoo_storage::{Catalog, TableColumn};
use voodoo_tpch::dates::year_of;
use voodoo_tpch::queries::params;

/// Names of the staged auxiliary tables.
pub mod aux {
    /// Day offset → calendar year.
    pub const YEAR_OF_DAY: &str = "__aux_year_of_day";
    /// p_name dictionary code → contains "green" (Q9).
    pub const NAME_GREEN: &str = "__aux_p_name_green";
    /// p_name dictionary code → contains "forest" (Q20).
    pub const NAME_FOREST: &str = "__aux_p_name_forest";
    /// p_type dictionary code → starts with "PROMO" (Q14).
    pub const TYPE_PROMO: &str = "__aux_p_type_promo";
    /// p_container dictionary code → matches Q19 triple `i`.
    pub fn container(i: usize) -> String {
        format!("__aux_p_container_q19_{i}")
    }
}

fn column<'a>(cat: &'a Catalog, table: &str, col: &str) -> &'a TableColumn {
    cat.table(table)
        .and_then(|t| t.column(col))
        .unwrap_or_else(|| panic!("column {table}.{col}"))
}

/// Row count of a table (0 when absent).
pub(crate) fn len_of(cat: &Catalog, table: &str) -> usize {
    cat.table(table).map_or(0, |t| t.len)
}

/// The dictionary code of a string value, or `-1` when absent (a constant
/// no row holds matches nothing).
pub(crate) fn code_of(cat: &Catalog, table: &str, col: &str, value: &str) -> i64 {
    column(cat, table, col).encode(value).map_or(-1, i64::from)
}

/// One flag per dictionary code: 1 where the decoded string satisfies
/// `pred` — a string predicate evaluated once per distinct value.
pub(crate) fn codes_where(
    cat: &Catalog,
    table: &str,
    col: &str,
    pred: impl Fn(&str) -> bool,
) -> Vec<i64> {
    let dict = column(cat, table, col)
        .dict
        .as_deref()
        .map_or(&[][..], Vec::as_slice);
    dict.iter().map(|s| i64::from(pred(s))).collect()
}

/// Canonical rank of each dictionary code: the position of its string in
/// sorted order, so output rows compare across any code assignment.
pub(crate) fn canon_ranks(cat: &Catalog, table: &str, col: &str) -> Vec<i64> {
    let dict = column(cat, table, col)
        .dict
        .as_deref()
        .expect("dictionary column");
    let mut by_string: Vec<usize> = (0..dict.len()).collect();
    by_string.sort_by(|&a, &b| dict[a].cmp(&dict[b]));
    let mut ranks = vec![0; dict.len()];
    for (rank, code) in by_string.into_iter().enumerate() {
        ranks[code] = rank as i64;
    }
    ranks
}

/// `key_col` of the row whose `name_col` holds `name`, or `-1` when no
/// row does.
fn key_of(cat: &Catalog, table: &str, name_col: &str, key_col: &str, name: &str) -> i64 {
    let code = code_of(cat, table, name_col, name);
    let rows = cat.table(table).expect("table").to_vector();
    let (name_kp, key_kp) = (KeyPath::new(name_col), KeyPath::new(key_col));
    (0..rows.len())
        .find(|&i| rows.value_at(i, &name_kp).map(|c| c.as_i64()) == Some(code))
        .and_then(|i| rows.value_at(i, &key_kp))
        .map_or(-1, |k| k.as_i64())
}

/// The `n_nationkey` of a nation name.
pub(crate) fn nation_key(cat: &Catalog, name: &str) -> i64 {
    key_of(cat, "nation", "n_name", "n_nationkey", name)
}

/// The `r_regionkey` of a region name.
pub(crate) fn region_key(cat: &Catalog, name: &str) -> i64 {
    key_of(cat, "region", "r_name", "r_regionkey", name)
}

/// Stage every auxiliary table the Voodoo plans use. Idempotent.
pub fn prepare(cat: &mut Catalog) {
    // Day → year lookup covering the full TPC-H date range (+ slack).
    let max_day = voodoo_tpch::dates::date(1999, 12, 31);
    let years: Vec<i64> = (0..=max_day).map(year_of).collect();
    cat.put_i64_column(aux::YEAR_OF_DAY, &years);

    let green = codes_where(cat, "part", "p_name", |s| s.contains(params::q9_color()));
    cat.put_i64_column(aux::NAME_GREEN, &green);

    let forest = codes_where(cat, "part", "p_name", |s| s.contains(params::q20().0));
    cat.put_i64_column(aux::NAME_FOREST, &forest);

    let promo = codes_where(cat, "part", "p_type", |s| s.starts_with("PROMO"));
    cat.put_i64_column(aux::TYPE_PROMO, &promo);

    for (i, (_, kind, _)) in params::q19().iter().enumerate() {
        let ok = codes_where(cat, "part", "p_container", |s| s.ends_with(kind));
        cat.put_i64_column(&aux::container(i), &ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_stages_all_aux_tables() {
        let mut cat = voodoo_tpch::generate(0.001);
        prepare(&mut cat);
        assert!(cat.table(aux::YEAR_OF_DAY).is_some());
        assert!(cat.table(aux::NAME_GREEN).is_some());
        assert!(cat.table(aux::NAME_FOREST).is_some());
        assert!(cat.table(aux::TYPE_PROMO).is_some());
        for i in 0..3 {
            assert!(cat.table(&aux::container(i)).is_some());
        }
        // Year lookup is correct at known boundaries.
        let y = cat.table(aux::YEAR_OF_DAY).unwrap().column("val").unwrap();
        assert_eq!(y.data.get(0).unwrap().as_i64(), 1992);
        let d96 = voodoo_tpch::dates::date(1996, 6, 1) as usize;
        assert_eq!(y.data.get(d96).unwrap().as_i64(), 1996);
    }
}
