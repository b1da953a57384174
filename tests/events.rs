//! Behaviour pins for the compiled executor, beyond answers.
//!
//! * **Golden event profiles.** The architectural events every TPC-H
//!   query counts under `PreparedPlan::profile` (serial, event-counting)
//!   at SF 0.002 — the input of the GPU cost model and of the
//!   benchmark's exact `compile.events_*` counters. The table holds
//!   literal values recorded once; it is never regenerated by the test,
//!   so any change to how units evaluate, count or split shows up here.
//! * **Fan-out counters.** Per CPU query at SF 0.01 on a fixed two-worker
//!   backend and a private two-worker pool: the morsel fan-out and pool
//!   tasks each statement reports. Units below the parallel threshold run
//!   as one inline morsel, so these counts also pin that no unit hands
//!   work to the pool that it could run on the calling thread.

use std::sync::Arc;

use voodoo::backend::CpuBackend;
use voodoo::compile::pool::MorselPool;
use voodoo::compile::EventProfile;
use voodoo::relational::Session;
use voodoo::tpch::queries::{CPU_QUERIES, GPU_QUERIES};

/// `(query, backend, programs, units, unit digest, aggregate events)`;
/// the events in [`fields`] order.
type Golden = (&'static str, &'static str, usize, usize, u64, [u64; 14]);

#[rustfmt::skip]
const GOLDEN: [Golden; 21] = [
    ("Q1", "cpu", 1, 1, 0x9f67c9fea00c54b8, [0, 0, 224979, 0, 23682, 852552, 0, 0, 0, 0, 1, 11841, 11841, 11]),
    ("Q4", "cpu", 1, 2, 0x1b16fc25f84dfce5, [0, 0, 46999, 0, 20055, 375992, 0, 0, 0, 7551, 2, 14841, 14841, 11]),
    ("Q5", "cpu", 1, 1, 0x7d0ce4c4e3d2316f, [0, 0, 71046, 0, 82887, 1135576, 11986, 24000, 0, 0, 1, 11841, 11841, 11]),
    ("Q6", "cpu", 1, 1, 0x2657f9ae5839140c, [0, 0, 35523, 0, 106569, 663096, 0, 0, 8, 0, 1, 1, 11841, 11]),
    ("Q7", "cpu", 1, 1, 0xbd316e3766f01c14, [0, 0, 153933, 0, 248661, 1177672, 6724, 24000, 0, 0, 1, 11841, 11841, 11]),
    ("Q8", "cpu", 1, 1, 0x63ef115644004148, [0, 0, 153933, 0, 118410, 1074848, 19354, 24000, 0, 0, 1, 11841, 11841, 11]),
    ("Q9", "cpu", 1, 1, 0x3b5eac60df3fb762, [0, 0, 296025, 0, 0, 1801372, 41028, 24000, 0, 0, 1, 11841, 11841, 11]),
    ("Q10", "cpu", 1, 1, 0xb272faff723f8933, [0, 0, 94728, 0, 59205, 615716, 2, 24000, 0, 0, 1, 11841, 11841, 11]),
    ("Q11", "cpu", 1, 2, 0xf7cd4385e4f14250, [0, 0, 12800, 0, 3200, 121280, 840, 160, 8, 0, 2, 1601, 3200, 1]),
    ("Q12", "cpu", 1, 1, 0xc27a65ad24c853c9, [0, 0, 94728, 0, 355230, 1563008, 1, 12000, 0, 0, 1, 11841, 11841, 11]),
    ("Q14", "cpu", 1, 1, 0x58b759708c6b1209, [0, 0, 106569, 0, 71046, 866104, 21765, 1600, 16, 0, 1, 1, 11841, 11]),
    ("Q15", "cpu", 1, 1, 0xaf0ad8d048c599a5, [0, 0, 94728, 0, 35523, 568368, 0, 0, 0, 0, 1, 11841, 11841, 11]),
    ("Q19", "cpu", 1, 1, 0x7ef62ac6ecf3f30d, [0, 0, 47364, 0, 461799, 1112276, 55896, 3200, 8, 0, 1, 1, 11841, 11]),
    ("Q20", "cpu", 1, 3, 0x1c284bb0daad9994, [0, 0, 242296, 0, 43951, 1057748, 682, 2088, 0, 1138, 3, 25282, 25282, 11]),
    ("Q1", "gpu", 1, 1, 0x9f67c9fea00c54b8, [0, 0, 224979, 0, 23682, 852552, 0, 0, 0, 0, 1, 11841, 11841, 11]),
    ("Q4", "gpu", 1, 2, 0x1b16fc25f84dfce5, [0, 0, 46999, 0, 20055, 375992, 0, 0, 0, 7551, 2, 14841, 14841, 11]),
    ("Q5", "gpu", 1, 1, 0x7d0ce4c4e3d2316f, [0, 0, 71046, 0, 82887, 1135576, 11986, 24000, 0, 0, 1, 11841, 11841, 11]),
    ("Q6", "gpu", 1, 1, 0x2657f9ae5839140c, [0, 0, 35523, 0, 106569, 663096, 0, 0, 8, 0, 1, 1, 11841, 11]),
    ("Q8", "gpu", 1, 1, 0x63ef115644004148, [0, 0, 153933, 0, 118410, 1074848, 19354, 24000, 0, 0, 1, 11841, 11841, 11]),
    ("Q12", "gpu", 1, 1, 0xc27a65ad24c853c9, [0, 0, 94728, 0, 355230, 1563008, 1, 12000, 0, 0, 1, 11841, 11841, 11]),
    ("Q19", "gpu", 1, 1, 0xb9e3aa08589b2982, [0, 0, 47364, 0, 485481, 1112276, 55896, 3200, 8, 0, 1, 1, 11841, 11]),
];

/// `(query, partitions_used delta, pool_tasks delta)` at SF 0.01 on
/// `CpuBackend::with_threads(2)` over a private two-worker pool.
const FAN_OUT: [(&str, u64, u64); 14] = [
    ("Q1", 8, 8),
    ("Q4", 8, 16),
    ("Q5", 8, 8),
    ("Q6", 8, 8),
    ("Q7", 8, 8),
    ("Q8", 8, 8),
    ("Q9", 8, 8),
    ("Q10", 8, 8),
    ("Q11", 8, 16),
    ("Q12", 8, 8),
    ("Q14", 8, 8),
    ("Q15", 8, 8),
    ("Q19", 8, 8),
    ("Q20", 8, 24),
];

fn fields(e: &EventProfile) -> [u64; 14] {
    [
        e.branches,
        e.branch_flips,
        e.int_ops,
        e.float_ops,
        e.cmp_ops,
        e.seq_read_bytes,
        e.rand_reads,
        e.rand_working_set,
        e.write_bytes,
        e.rand_writes,
        e.barriers,
        e.work_items,
        e.elements,
        e.max_par,
    ]
}

/// FNV-1a over every field of every unit, in execution order.
fn digest(units: &[EventProfile]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in units.iter().flat_map(fields).flat_map(u64::to_le_bytes) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn tpch_event_profiles_match_the_golden_table() {
    let session = Session::tpch(0.002);
    let drawn = CPU_QUERIES
        .iter()
        .map(|q| (*q, "cpu"))
        .chain(GPU_QUERIES.iter().map(|q| (*q, "gpu")));
    let mut checked = 0;
    for ((q, backend), want) in drawn.zip(GOLDEN) {
        let (name, want_backend, programs, units, unit_digest, events) = want;
        assert_eq!(
            (q.name().as_str(), backend),
            (name, want_backend),
            "table order"
        );
        let p = session.query(q).profile_on(backend).expect("profile");
        let what = format!("{name} on {backend}");
        assert_eq!(p.programs, programs, "programs of {what}");
        assert_eq!(p.unit_events.len(), units, "units of {what}");
        assert_eq!(fields(&p.events), events, "events of {what}");
        assert_eq!(digest(&p.unit_events), unit_digest, "unit events of {what}");
        checked += 1;
    }
    assert_eq!(checked, GOLDEN.len());
}

#[test]
fn tpch_fan_out_counters_match_the_recorded_ones() {
    let session = Session::tpch(0.01);
    let pool = MorselPool::new(2);
    session.engine().set_morsel_pool(pool.clone());
    session.register("cpu2", Arc::new(CpuBackend::with_threads(2)));
    assert_eq!(CPU_QUERIES.len(), FAN_OUT.len());
    for (q, (name, partitions, tasks)) in CPU_QUERIES.into_iter().zip(FAN_OUT) {
        assert_eq!(q.name(), name, "table order");
        let before = session.metrics();
        session.query(q).run_on("cpu2").expect("run");
        let after = session.metrics();
        assert_eq!(
            (
                after.partitions_used - before.partitions_used,
                after.pool_tasks - before.pool_tasks
            ),
            (partitions, tasks),
            "{name}: (partitions_used, pool_tasks)"
        );
    }
    pool.shutdown();
}
