//! Write-once hash joins in pure Voodoo (§6 related work, executable),
//! run through the `Session` facade on the reference interpreter.
//!
//! Builds an open-addressing hash table with bounded (loop-unrolled)
//! probe rounds — no `if`, no `while`, no hidden state, exactly the
//! constraints the paper's determinism/minimality principles impose —
//! then probes it to join two key sets, and finishes with the
//! bounded-cuckoo variant whose "program grows linearly with the number
//! of cuckoo-iterations" (§6).
//!
//! ```sh
//! cargo run --release --example hash_join
//! ```

use voodoo::algos::hashtable;
use voodoo::core::KeyPath;
use voodoo::relational::Session;
use voodoo::storage::Catalog;

fn main() {
    // Orders reference customers through a non-dense key domain (so the
    // metadata-based positional join does not apply and hashing is real).
    let customers: Vec<i64> = (0..48).map(|i| i * 97 + 13).collect();
    let orders: Vec<i64> = (0..20).map(|i| customers[(i * 7) % 48]).collect();

    let mut cat = Catalog::in_memory();
    cat.put_i64_column("customers", &customers);
    cat.put_i64_column("orders", &orders);
    let session = Session::new(cat);
    // The hash-table programs materialize every intermediate by design —
    // keep them on the reference interpreter.
    session
        .set_default_backend("interp")
        .expect("interp registered");

    // ---- linear probing ------------------------------------------------
    let cap = 128; // load factor 48/128
    let rounds = 12;
    println!("== bounded linear-probe hash join ==");
    let p = hashtable::hash_join_rowids("customers", "orders", cap, rounds);
    println!(
        "program: {} statements for {rounds} unrolled probe rounds",
        p.stmts().len()
    );
    let out = session.program(p).run().expect("run").into_raw();
    let rids = &out.returns[0];
    for (i, &o) in orders.iter().enumerate() {
        let rid = rids
            .value_at(i, &KeyPath::val())
            .map(|v| v.as_i64())
            .filter(|&x| x >= 0);
        let expected = customers.iter().position(|&c| c == o);
        assert_eq!(rid, expected.map(|x| x as i64));
        if i < 5 {
            println!("  order key {o:>5} -> customer row {rid:?}");
        }
    }
    println!(
        "  ... all {} probes matched the reference join\n",
        orders.len()
    );

    // ---- bounded cuckoo ------------------------------------------------
    println!("== bounded cuckoo table ==");
    for iterations in [4, 8, 16] {
        let p = hashtable::build_cuckoo_bounded("customers", 64, iterations, "ck");
        println!(
            "  {iterations:>2} cuckoo iterations -> {:>3} statements (grows linearly, as §6 says)",
            p.stmts().len()
        );
    }
    let build = hashtable::build_cuckoo_bounded("customers", 64, 16, "ck");
    let out = session.program(build).run().expect("build").into_raw();
    let (name, table) = &out.persisted[0];
    session.mutate_catalog(|c| c.persist_vector(name, table));
    let probe = hashtable::probe_cuckoo("ck", "orders", 64);
    let out = session.program(probe).run().expect("probe").into_raw();
    let c1 = out.returns[0]
        .value_at(0, &KeyPath::val())
        .map(|v| v.as_i64())
        .unwrap_or(0);
    let c2 = out.returns[1]
        .value_at(0, &KeyPath::val())
        .map(|v| v.as_i64())
        .unwrap_or(0);
    println!(
        "  probed {} order keys: {} found in region 1, {} in region 2",
        orders.len(),
        c1,
        c2
    );
    assert_eq!(c1 + c2, orders.len() as i64);
}
