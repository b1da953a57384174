//! Voodoo plans for the paper's TPC-H query subset.
//!
//! [`plan`] lowers each query to exactly one Voodoo program built with
//! [`crate::builder::QB`], returned as a [`Lowered`] — the same shape the
//! SQL frontend produces, so the statement driver treats both alike. The
//! plans follow the paper's §4/§5.2 planner:
//!
//! * joins are positional gathers over dense key domains (identity
//!   hashing sized by min/max metadata),
//! * selections are boolean masks multiplied into aggregated values (the
//!   default, branch-free plan shape; §5.3's tuning flags change *how*
//!   the backend executes them, not the plan),
//! * group-bys are the `Partition → Scatter → Fold` pattern (Figure 10),
//!   which the compiled backend executes as a virtual scatter (§3.1.3),
//! * string predicates read load-time dictionary flag tables
//!   ([`crate::prepare()`]), `extract(year)` reads the day→year table,
//! * a correlated subquery stays in the program: Q20 scatters its grouped
//!   per-partsupp sums back onto partsupp positions and filters on them,
//! * the rare non-vectorizable finishing steps (Q11's threshold against
//!   the grand total, Q15's arg-max) happen host-side on the (small)
//!   grouped outputs, in the plan's row extraction.

use voodoo_core::{BinOp, KeyPath, Result, StructuredVector};
use voodoo_interp::ExecOutput;
use voodoo_ivm::view::Exec;
use voodoo_storage::Catalog;
use voodoo_tpch::queries::{params, Query, QueryResult};

use crate::builder::{extract_grouped, extract_scalar, Lowered, QB};
use crate::prepare::{aux, canon_ranks, code_of, len_of, nation_key, region_key};

/// Lower one query to its Voodoo program and row extraction.
pub fn plan(cat: &Catalog, q: Query) -> Result<Lowered> {
    Ok(match q {
        Query::Q1 => q1(cat),
        Query::Q4 => q4(cat),
        Query::Q5 => q5(cat),
        Query::Q6 => q6(),
        Query::Q7 => q7(cat),
        Query::Q8 => q8(cat),
        Query::Q9 => q9(cat),
        Query::Q10 => q10(cat),
        Query::Q11 => q11(cat),
        Query::Q12 => q12(cat),
        Query::Q14 => q14(),
        Query::Q15 => q15(cat),
        Query::Q19 => q19(cat),
        Query::Q20 => q20(cat),
    })
}

/// Plan one query, run its program once through `exec`, extract its rows.
pub fn run_query(cat: &Catalog, q: Query, exec: &mut Exec<'_>) -> Result<QueryResult> {
    let lowered = plan(cat, q)?;
    let out = exec(&lowered.program, cat)?;
    Ok(QueryResult::new((lowered.extract)(&out)))
}

/// The `(key, sums)` rows of a plan returning a key fold and then `n` sum
/// folds.
fn grouped(out: &ExecOutput, n: usize) -> Vec<(i64, Vec<i64>)> {
    let sums: Vec<&StructuredVector> = out.returns[1..=n].iter().collect();
    extract_grouped(&out.returns[0], &sums)
}

fn q1(cat: &Catalog) -> Lowered {
    let rf_rank = canon_ranks(cat, "lineitem", "l_returnflag");
    let ls_rank = canon_ranks(cat, "lineitem", "l_linestatus");
    let nls = ls_rank.len().max(1) as i64;
    let domain = rf_rank.len().max(1) * nls as usize;

    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let m = qb.bin_c(BinOp::LessEquals, li, ".l_shipdate", params::q1_cutoff());
    let key_hi = qb.bin_c(BinOp::Multiply, li, ".l_returnflag", nls);
    let key = qb.p.binary_kp(
        BinOp::Add,
        key_hi,
        KeyPath::val(),
        li,
        KeyPath::new(".l_linestatus"),
        KeyPath::val(),
    );
    let rev = qb.revenue(li, ".l_extendedprice", ".l_discount");
    // charge = rev * (100 + tax)
    let t100 = qb.bin_c(BinOp::Add, li, ".l_tax", 100);
    let charge = qb.p.binary(BinOp::Multiply, rev, t100);
    let qty =
        qb.p.project(li, KeyPath::new(".l_quantity"), KeyPath::val());
    let ext =
        qb.p.project(li, KeyPath::new(".l_extendedprice"), KeyPath::val());
    let mqty = qb.masked(qty, m);
    let mext = qb.masked(ext, m);
    let mrev = qb.masked(rev, m);
    let mcharge = qb.masked(charge, m);
    let (kf, sums) = qb.group_sums(key, domain, &[mqty, mext, mrev, mcharge, m]);
    qb.ret(kf);
    for s in &sums {
        qb.ret(*s);
    }
    Lowered::new(qb.finish(), move |out| {
        grouped(out, 5)
            .into_iter()
            .filter(|(_, v)| v[4] > 0)
            .map(|(k, v)| {
                vec![
                    rf_rank[(k / nls) as usize],
                    ls_rank[(k % nls) as usize],
                    v[0],
                    v[1],
                    v[2],
                    v[3],
                    v[4],
                ]
            })
            .collect()
    })
}

fn q4(cat: &Catalog) -> Lowered {
    let (lo, hi) = params::q4_window();
    let prio_rank = canon_ranks(cat, "orders", "o_orderpriority");
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let orders = qb.table("orders");
    // Semijoin: scatter a 1 to each order that has a qualifying lineitem
    // (non-qualifying rows scatter out of bounds and are dropped).
    let qual = qb.bin(BinOp::Less, li, ".l_commitdate", li, ".l_receiptdate");
    let okp1 = qb.bin_c(BinOp::Add, li, ".l_orderkey", 1);
    let pos_raw = qb.p.binary(BinOp::Multiply, okp1, qual);
    let pos = qb.p.add_const(pos_raw, -1i64);
    let ones = qb.p.constant_like(1i64, li);
    let flags = qb.p.scatter(ones, orders, pos);
    // Orders side: date window × (ε-padded) exists flag.
    let datem = qb.in_range(orders, ".o_orderdate", lo, hi);
    let ind = qb.masked(flags, datem);
    let key =
        qb.p.project(orders, KeyPath::new(".o_orderpriority"), KeyPath::val());
    let (kf, sums) = qb.group_sums(key, prio_rank.len().max(1), &[ind]);
    qb.ret(kf);
    qb.ret(sums[0]);
    Lowered::new(qb.finish(), move |out| {
        grouped(out, 1)
            .into_iter()
            .filter(|(_, v)| v[0] > 0)
            .map(|(k, v)| vec![prio_rank[k as usize], v[0]])
            .collect()
    })
}

fn q5(cat: &Catalog) -> Lowered {
    let (region, lo, hi) = params::q5();
    let rk = region_key(cat, region);
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let orders = qb.table("orders");
    let customer = qb.table("customer");
    let supplier = qb.table("supplier");
    let nation = qb.table("nation");
    let ord = qb.fk_gather(orders, li, ".l_orderkey");
    let supp = qb.fk_gather(supplier, li, ".l_suppkey");
    let cust = qb.fk_gather(customer, ord, ".o_custkey");
    let nat = qb.fk_gather(nation, supp, ".s_nationkey");
    let datem = qb.in_range(ord, ".o_orderdate", lo, hi);
    let same = qb.bin(BinOp::Equals, supp, ".s_nationkey", cust, ".c_nationkey");
    let inreg = qb.eq_c(nat, ".n_regionkey", rk);
    let m = qb.and(&[datem, same, inreg]);
    let rev = qb.revenue(li, ".l_extendedprice", ".l_discount");
    let mrev = qb.masked(rev, m);
    let key =
        qb.p.project(supp, KeyPath::new(".s_nationkey"), KeyPath::val());
    let (kf, sums) = qb.group_sums(key, 25, &[mrev]);
    qb.ret(kf);
    qb.ret(sums[0]);
    Lowered::new(qb.finish(), |out| {
        grouped(out, 1)
            .into_iter()
            .filter(|(_, v)| v[0] != 0)
            .map(|(k, v)| vec![k, v[0]])
            .collect()
    })
}

fn q6() -> Lowered {
    let (lo, hi, dlo, dhi, qmax) = params::q6();
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let datem = qb.in_range(li, ".l_shipdate", lo, hi);
    let discm = qb.in_range(li, ".l_discount", dlo, dhi + 1);
    let qtym = qb.bin_c(BinOp::Less, li, ".l_quantity", qmax);
    let m = qb.and(&[datem, discm, qtym]);
    let prod = qb.bin(BinOp::Multiply, li, ".l_extendedprice", li, ".l_discount");
    let masked = qb.masked(prod, m);
    let s = qb.global_sum(masked);
    qb.ret(s);
    Lowered::new(qb.finish(), |out| {
        vec![vec![extract_scalar(&out.returns[0])]]
    })
}

fn q7(cat: &Catalog) -> Lowered {
    let (na, nb, lo, hi) = params::q7();
    let (ka, kb) = (nation_key(cat, na), nation_key(cat, nb));
    let ys96 = voodoo_tpch::dates::year_start(1996);
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let orders = qb.table("orders");
    let customer = qb.table("customer");
    let supplier = qb.table("supplier");
    let ord = qb.fk_gather(orders, li, ".l_orderkey");
    let supp = qb.fk_gather(supplier, li, ".l_suppkey");
    let cust = qb.fk_gather(customer, ord, ".o_custkey");
    let datem = qb.in_range(li, ".l_shipdate", lo, hi + 1);
    let s_a = qb.eq_c(supp, ".s_nationkey", ka);
    let s_b = qb.eq_c(supp, ".s_nationkey", kb);
    let c_a = qb.eq_c(cust, ".c_nationkey", ka);
    let c_b = qb.eq_c(cust, ".c_nationkey", kb);
    let ab = qb.and(&[s_a, c_b]);
    let ba = qb.and(&[s_b, c_a]);
    let pair = qb.or(&[ab, ba]);
    let m = qb.and(&[datem, pair]);
    // year ∈ {1995, 1996}: key = is1996 + 2·is_ba (direction), domain 4.
    let is96 = qb.bin_c(BinOp::GreaterEquals, li, ".l_shipdate", ys96);
    let dir2 = qb.p.mul_const(ba, 2i64);
    let key_raw = qb.p.add(is96, dir2);
    // Force masked-out rows into bucket 0 so keys stay in-domain.
    let key = qb.masked(key_raw, m);
    let rev = qb.revenue(li, ".l_extendedprice", ".l_discount");
    let mrev = qb.masked(rev, m);
    let mcount = qb.p.project(m, KeyPath::val(), KeyPath::val());
    let (kf, sums) = qb.group_sums(key, 4, &[mrev, mcount]);
    qb.ret(kf);
    qb.ret(sums[0]);
    qb.ret(sums[1]);
    Lowered::new(qb.finish(), move |out| {
        grouped(out, 2)
            .into_iter()
            .filter(|(_, v)| v[1] > 0 && v[0] != 0)
            .map(|(k, v)| {
                let year = 1995 + (k & 1);
                let (s, c) = if k & 2 == 0 { (ka, kb) } else { (kb, ka) };
                vec![s, c, year, v[0]]
            })
            .collect()
    })
}

fn q8(cat: &Catalog) -> Lowered {
    let (nation, region, ptype, lo, hi) = params::q8();
    let bk = nation_key(cat, nation);
    let rk = region_key(cat, region);
    let tcode = code_of(cat, "part", "p_type", ptype);
    let ys96 = voodoo_tpch::dates::year_start(1996);
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let orders = qb.table("orders");
    let customer = qb.table("customer");
    let supplier = qb.table("supplier");
    let nationt = qb.table("nation");
    let part = qb.table("part");
    let p = qb.fk_gather(part, li, ".l_partkey");
    let ord = qb.fk_gather(orders, li, ".l_orderkey");
    let supp = qb.fk_gather(supplier, li, ".l_suppkey");
    let cust = qb.fk_gather(customer, ord, ".o_custkey");
    let cnat = qb.fk_gather(nationt, cust, ".c_nationkey");
    let typem = qb.eq_c(p, ".p_type", tcode);
    let datem = qb.in_range(ord, ".o_orderdate", lo, hi + 1);
    let regm = qb.eq_c(cnat, ".n_regionkey", rk);
    let m = qb.and(&[typem, datem, regm]);
    let isb = qb.eq_c(supp, ".s_nationkey", bk);
    let rev = qb.revenue(li, ".l_extendedprice", ".l_discount");
    let den = qb.masked(rev, m);
    let num = qb.masked(den, isb);
    let is96 = qb.bin_c(BinOp::GreaterEquals, ord, ".o_orderdate", ys96);
    let key = qb.masked(is96, m); // {0,1} within window; masked rows → 0
    let (kf, sums) = qb.group_sums(key, 2, &[num, den]);
    qb.ret(kf);
    qb.ret(sums[0]);
    qb.ret(sums[1]);
    Lowered::new(qb.finish(), |out| {
        grouped(out, 2)
            .into_iter()
            .filter(|(_, v)| v[1] != 0)
            .map(|(k, v)| vec![1995 + k, v[0], v[1]])
            .collect()
    })
}

fn q9(cat: &Catalog) -> Lowered {
    let n_supp = len_of(cat, "supplier") as i64;
    let stride = (n_supp / 4).max(1);
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let orders = qb.table("orders");
    let supplier = qb.table("supplier");
    let part = qb.table("part");
    let partsupp = qb.table("partsupp");
    let greens = qb.table(aux::NAME_GREEN);
    let years = qb.table(aux::YEAR_OF_DAY);

    let p = qb.fk_gather(part, li, ".l_partkey");
    let green = qb.fk_gather(greens, p, ".p_name");
    // partsupp row: partkey*4 + ((suppkey − partkey + n) mod n) / stride.
    let diff = qb.bin(BinOp::Subtract, li, ".l_suppkey", li, ".l_partkey");
    let rem = qb.p.mod_const(diff, n_supp);
    let shifted = qb.p.add_const(rem, n_supp);
    let modn = qb.p.mod_const(shifted, n_supp);
    let j = qb.p.div_const(modn, stride);
    let pk4 = qb.bin_c(BinOp::Multiply, li, ".l_partkey", 4);
    let psidx = qb.p.add(pk4, j);
    let ps = qb.p.gather(partsupp, psidx);
    let supp = qb.fk_gather(supplier, li, ".l_suppkey");
    let ord = qb.fk_gather(orders, li, ".l_orderkey");
    let year = qb.fk_gather(years, ord, ".o_orderdate");

    let rev = qb.revenue(li, ".l_extendedprice", ".l_discount");
    let costq_raw = qb.bin(BinOp::Multiply, ps, ".ps_supplycost", li, ".l_quantity");
    let costq = qb.p.mul_const(costq_raw, 100i64);
    let amount = qb.p.binary(BinOp::Subtract, rev, costq);
    let m = qb.p.project(green, KeyPath::val(), KeyPath::val());
    let mamount = qb.masked(amount, m);
    // key = nation·8 + (year − 1992), domain 25·8; masked rows → bucket 0.
    let n8 = qb.bin_c(BinOp::Multiply, supp, ".s_nationkey", 8);
    let y0 = qb.bin_c(BinOp::Subtract, year, ".val", 1992);
    let key_raw = qb.p.add(n8, y0);
    let key = qb.masked(key_raw, m);
    let mcount = qb.p.project(m, KeyPath::val(), KeyPath::val());
    let (kf, sums) = qb.group_sums(key, 25 * 8, &[mamount, mcount]);
    qb.ret(kf);
    qb.ret(sums[0]);
    qb.ret(sums[1]);
    Lowered::new(qb.finish(), |out| {
        grouped(out, 2)
            .into_iter()
            .filter(|(_, v)| v[1] > 0)
            .map(|(k, v)| vec![k / 8, 1992 + k % 8, v[0]])
            .collect()
    })
}

fn q10(cat: &Catalog) -> Lowered {
    let (lo, hi) = params::q10_window();
    let rcode = code_of(cat, "lineitem", "l_returnflag", "R");
    let n_cust = len_of(cat, "customer");
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let orders = qb.table("orders");
    let ord = qb.fk_gather(orders, li, ".l_orderkey");
    let isr = qb.eq_c(li, ".l_returnflag", rcode);
    let datem = qb.in_range(ord, ".o_orderdate", lo, hi);
    let m = qb.and(&[isr, datem]);
    let rev = qb.revenue(li, ".l_extendedprice", ".l_discount");
    let mrev = qb.masked(rev, m);
    let key_raw =
        qb.p.project(ord, KeyPath::new(".o_custkey"), KeyPath::val());
    let key = qb.masked(key_raw, m);
    let (kf, sums) = qb.group_sums(key, n_cust, &[mrev]);
    qb.ret(kf);
    qb.ret(sums[0]);
    Lowered::new(qb.finish(), |out| {
        grouped(out, 1)
            .into_iter()
            .filter(|(_, v)| v[0] != 0)
            .map(|(k, v)| vec![k, v[0]])
            .collect()
    })
}

fn q11(cat: &Catalog) -> Lowered {
    let (nation, frac_den) = params::q11();
    let nk = nation_key(cat, nation);
    let n_part = len_of(cat, "part");
    let mut qb = QB::new();
    let ps = qb.table("partsupp");
    let supplier = qb.table("supplier");
    let supp = qb.fk_gather(supplier, ps, ".ps_suppkey");
    let m = qb.eq_c(supp, ".s_nationkey", nk);
    let value = qb.bin(BinOp::Multiply, ps, ".ps_supplycost", ps, ".ps_availqty");
    let mvalue = qb.masked(value, m);
    let total = qb.global_sum(mvalue);
    let key =
        qb.p.project(ps, KeyPath::new(".ps_partkey"), KeyPath::val());
    let (kf, sums) = qb.group_sums(key, n_part, &[mvalue]);
    qb.ret(kf);
    qb.ret(sums[0]);
    qb.ret(total);
    Lowered::new(qb.finish(), move |out| {
        let total = extract_scalar(&out.returns[2]);
        grouped(out, 1)
            .into_iter()
            .filter(|(_, v)| v[0] * frac_den > total)
            .map(|(k, v)| vec![k, v[0]])
            .collect()
    })
}

fn q12(cat: &Catalog) -> Lowered {
    let (m1, m2, lo, hi) = params::q12();
    let c1 = code_of(cat, "lineitem", "l_shipmode", m1);
    let c2 = code_of(cat, "lineitem", "l_shipmode", m2);
    let urgent = code_of(cat, "orders", "o_orderpriority", "1-URGENT");
    let high = code_of(cat, "orders", "o_orderpriority", "2-HIGH");
    let mode_rank = canon_ranks(cat, "lineitem", "l_shipmode");
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let orders = qb.table("orders");
    let ord = qb.fk_gather(orders, li, ".l_orderkey");
    let is1 = qb.eq_c(li, ".l_shipmode", c1);
    let is2 = qb.eq_c(li, ".l_shipmode", c2);
    let modem = qb.or(&[is1, is2]);
    let recm = qb.in_range(li, ".l_receiptdate", lo, hi);
    let cr = qb.bin(BinOp::Less, li, ".l_commitdate", li, ".l_receiptdate");
    let sc = qb.bin(BinOp::Less, li, ".l_shipdate", li, ".l_commitdate");
    let m = qb.and(&[modem, recm, cr, sc]);
    let isu = qb.eq_c(ord, ".o_orderpriority", urgent);
    let ish = qb.eq_c(ord, ".o_orderpriority", high);
    let ishigh = qb.or(&[isu, ish]);
    let mh = qb.and(&[m, ishigh]);
    let high_cnt = qb.p.project(mh, KeyPath::val(), KeyPath::val());
    let ml = qb.p.binary(BinOp::Subtract, m, mh);
    let key_raw =
        qb.p.project(li, KeyPath::new(".l_shipmode"), KeyPath::val());
    let key = qb.masked(key_raw, m);
    let mcount = qb.p.project(m, KeyPath::val(), KeyPath::val());
    let (kf, sums) = qb.group_sums(key, mode_rank.len().max(1), &[high_cnt, ml, mcount]);
    qb.ret(kf);
    for s in &sums {
        qb.ret(*s);
    }
    Lowered::new(qb.finish(), move |out| {
        grouped(out, 3)
            .into_iter()
            .filter(|(_, v)| v[2] > 0)
            .map(|(k, v)| vec![mode_rank[k as usize], v[0], v[1]])
            .collect()
    })
}

fn q14() -> Lowered {
    let (lo, hi) = params::q14_window();
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let part = qb.table("part");
    let promo = qb.table(aux::TYPE_PROMO);
    let p = qb.fk_gather(part, li, ".l_partkey");
    let isp = qb.fk_gather(promo, p, ".p_type");
    let m = qb.in_range(li, ".l_shipdate", lo, hi);
    let rev = qb.revenue(li, ".l_extendedprice", ".l_discount");
    let mrev = qb.masked(rev, m);
    let ispv = qb.p.project(isp, KeyPath::val(), KeyPath::val());
    let prev = qb.masked(mrev, ispv);
    let total = qb.global_sum(mrev);
    let promo_rev = qb.global_sum(prev);
    qb.ret(promo_rev);
    qb.ret(total);
    Lowered::new(qb.finish(), |out| {
        vec![vec![
            extract_scalar(&out.returns[0]),
            extract_scalar(&out.returns[1]),
        ]]
    })
}

fn q15(cat: &Catalog) -> Lowered {
    let (lo, hi) = params::q15_window();
    let n_supp = len_of(cat, "supplier");
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let m = qb.in_range(li, ".l_shipdate", lo, hi);
    let rev = qb.revenue(li, ".l_extendedprice", ".l_discount");
    let mrev = qb.masked(rev, m);
    let key_raw = qb.p.project(li, KeyPath::new(".l_suppkey"), KeyPath::val());
    let key = qb.masked(key_raw, m);
    let (kf, sums) = qb.group_sums(key, n_supp, &[mrev]);
    qb.ret(kf);
    qb.ret(sums[0]);
    Lowered::new(qb.finish(), |out| {
        let rows = grouped(out, 1);
        // Finishing arg-max over the (small) grouped output.
        let max = rows.iter().map(|(_, v)| v[0]).max().unwrap_or(0);
        rows.into_iter()
            .filter(|(_, v)| v[0] == max && v[0] > 0)
            .map(|(k, v)| vec![k, v[0]])
            .collect()
    })
}

fn q19(cat: &Catalog) -> Lowered {
    let triples = params::q19();
    let air = code_of(cat, "lineitem", "l_shipmode", "AIR");
    let regair = code_of(cat, "lineitem", "l_shipmode", "REG AIR");
    let deliver = code_of(cat, "lineitem", "l_shipinstruct", "DELIVER IN PERSON");
    let size_max = [5i64, 10, 15];
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let part = qb.table("part");
    let p = qb.fk_gather(part, li, ".l_partkey");
    let isa = qb.eq_c(li, ".l_shipmode", air);
    let isra = qb.eq_c(li, ".l_shipmode", regair);
    let modem = qb.or(&[isa, isra]);
    let instrm = qb.eq_c(li, ".l_shipinstruct", deliver);
    let mut triple_masks = Vec::new();
    for (t, (brand, _, qmin)) in triples.iter().enumerate() {
        let bc = code_of(cat, "part", "p_brand", brand);
        let cont = qb.table(&aux::container(t));
        let contm_g = qb.fk_gather(cont, p, ".p_container");
        let contm = qb.p.project(contm_g, KeyPath::val(), KeyPath::val());
        let contb = qb.bin_c(BinOp::Greater, contm, ".val", 0);
        let brandm = qb.eq_c(p, ".p_brand", bc);
        let qtym = qb.in_range(li, ".l_quantity", *qmin, qmin + 11);
        let sizem = qb.in_range(p, ".p_size", 1, size_max[t] + 1);
        let all = qb.and(&[brandm, contb, qtym, sizem]);
        triple_masks.push(all);
    }
    let any = qb.or(&triple_masks);
    let m = qb.and(&[modem, instrm, any]);
    let rev = qb.revenue(li, ".l_extendedprice", ".l_discount");
    let mrev = qb.masked(rev, m);
    let s = qb.global_sum(mrev);
    qb.ret(s);
    Lowered::new(qb.finish(), |out| {
        vec![vec![extract_scalar(&out.returns[0])]]
    })
}

fn q20(cat: &Catalog) -> Lowered {
    let (_, nation, lo, hi) = params::q20();
    let nk = nation_key(cat, nation);
    let n_supp = len_of(cat, "supplier") as i64;
    let n_ps = len_of(cat, "partsupp");
    let stride = (n_supp / 4).max(1);
    let mut qb = QB::new();
    let li = qb.table("lineitem");
    let ps = qb.table("partsupp");
    let supplier = qb.table("supplier");
    let part = qb.table("part");
    let forest = qb.table(aux::NAME_FOREST);

    // Subquery: shipped quantity per partsupp row within the window.
    // Masked rows add 0 to group 0, so no count column is needed.
    let m = qb.in_range(li, ".l_shipdate", lo, hi);
    let diff = qb.bin(BinOp::Subtract, li, ".l_suppkey", li, ".l_partkey");
    let rem = qb.p.mod_const(diff, n_supp);
    let shifted = qb.p.add_const(rem, n_supp);
    let modn = qb.p.mod_const(shifted, n_supp);
    let j = qb.p.div_const(modn, stride);
    let pk4 = qb.bin_c(BinOp::Multiply, li, ".l_partkey", 4);
    let psidx_raw = qb.p.add(pk4, j);
    let key = qb.masked(psidx_raw, m);
    let qty =
        qb.p.project(li, KeyPath::new(".l_quantity"), KeyPath::val());
    let mqty = qb.masked(qty, m);
    let (kf, sums) = qb.group_sums(key, n_ps, &[mqty]);
    // Scattered onto partsupp positions by group key: a row no lineitem
    // ships to reads ε, and ε drops out of every mask and sum below.
    let shipped = qb.p.scatter(sums[0], ps, kf);

    // Outer query over partsupp.
    let p = qb.fk_gather(part, ps, ".ps_partkey");
    let isf_g = qb.fk_gather(forest, p, ".p_name");
    let isf = qb.bin_c(BinOp::Greater, isf_g, ".val", 0);
    let has = qb.bin_c(BinOp::Greater, shipped, ".val", 0);
    let avail2 = qb.bin_c(BinOp::Multiply, ps, ".ps_availqty", 2);
    let enough = qb.p.binary(BinOp::Greater, avail2, shipped);
    let supp = qb.fk_gather(supplier, ps, ".ps_suppkey");
    let isnat = qb.eq_c(supp, ".s_nationkey", nk);
    let m = qb.and(&[isf, has, enough, isnat]);
    let key =
        qb.p.project(ps, KeyPath::new(".ps_suppkey"), KeyPath::val());
    let mcnt = qb.p.project(m, KeyPath::val(), KeyPath::val());
    let (kf, sums) = qb.group_sums(key, n_supp as usize, &[mcnt]);
    qb.ret(kf);
    qb.ret(sums[0]);
    Lowered::new(qb.finish(), |out| {
        grouped(out, 1)
            .into_iter()
            .filter(|(_, v)| v[0] > 0)
            .map(|(k, _)| vec![k])
            .collect()
    })
}
