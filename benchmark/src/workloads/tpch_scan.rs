//! `tpch_scan`: the paper's Figure 13 as a closed loop.
//!
//! One client runs the 14 CPU-figure TPC-H queries round-robin against a
//! warm plan cache. The compiled kernels and the morsel pool do nearly all
//! of the work; parse/lower/prepare do almost none. This is the workload a
//! SIMD, codegen or NUMA change should move, and a planning or serving
//! change should not.

use std::sync::Arc;
use std::time::Instant;

use voodoo::backend::ShardedPlanCache;
use voodoo::baselines::hyper;
use voodoo::core::Program;
use voodoo::relational::{queries, Engine};
use voodoo::storage::Catalog;
use voodoo::tpch::queries::{Query, QueryResult, CPU_QUERIES, GPU_QUERIES};
use voodoo::tpch::{generate_into, TpchParams};

use super::layers::Layers;
use super::{ms, pinned_engine, repeat_setup, EndToEnd, LayerMetrics, Outcome, RunConfig};
use crate::gen::Digest;
use crate::stats::{geomean, Samples};

/// TPC-H scale factor (≈60k lineitem rows, ≈0.6 s per pass on the seed):
/// the largest at which a run still times ≥ 10 passes.
pub const SCALE: f64 = 0.01;
const QUICK_SCALE: f64 = 0.002;

/// A traced run measures this share of its window untraced first, as the
/// baseline `trace_overhead_pct` compares against.
const UNTRACED_SHARE: f64 = 0.25;

struct State {
    engine: Arc<Engine>,
    /// Results of the warm-up pass, checked against the oracle afterwards.
    warm: Vec<Option<QueryResult>>,
    gen_s: f64,
    rows: usize,
}

fn build(cfg: &RunConfig) -> State {
    let started = Instant::now();
    let mut cat = Catalog::in_memory();
    generate_into(
        &mut cat,
        TpchParams {
            scale: if cfg.quick { QUICK_SCALE } else { SCALE },
            seed: cfg.seed,
        },
    );
    let gen_s = started.elapsed().as_secs_f64();
    let rows = cat
        .table_names()
        .iter()
        .filter_map(|t| cat.table(t))
        .map(|t| t.len)
        .sum();
    let engine = pinned_engine(cat);
    let warm = CPU_QUERIES
        .iter()
        .map(|q| engine.query(*q).run().ok().map(|out| out.into_rows()))
        .collect();
    State {
        engine,
        warm,
        gen_s,
        rows,
    }
}

/// Per-query latency samples plus per-pass totals, in seconds.
struct Timings {
    per_query: Vec<Samples>,
    passes: Samples,
    ops: u64,
    failed: u64,
}

/// Run whole passes until `seconds` have elapsed. `around` wraps each op:
/// it must call the closure it is given exactly once — that call is the
/// timed statement, through the engine's own path, checked against the
/// oracle.
fn timed_passes(
    engine: &Arc<Engine>,
    expected: &[QueryResult],
    seconds: f64,
    mut around: impl FnMut(Query, &mut dyn FnMut() -> f64),
) -> Timings {
    let mut t = Timings {
        per_query: vec![Samples::new(); CPU_QUERIES.len()],
        passes: Samples::new(),
        ops: 0,
        failed: 0,
    };
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let mut pass = 0.0;
        for (i, q) in CPU_QUERIES.iter().enumerate() {
            around(*q, &mut || {
                let op_started = Instant::now();
                let result = engine.query(*q).run();
                let elapsed = op_started.elapsed().as_secs_f64();
                t.ops += 1;
                if !matches!(&result, Ok(out) if out.rows() == &expected[i]) {
                    t.failed += 1;
                }
                t.per_query[i].push(elapsed);
                pass += elapsed;
                elapsed
            });
        }
        t.passes.push(pass);
    }
    t
}

fn digest(expected: &[QueryResult]) -> u64 {
    let mut d = Digest::default();
    for (q, rows) in CPU_QUERIES.iter().zip(expected) {
        d.str(&q.name());
        for row in &rows.rows {
            d.i64s(row);
        }
    }
    d.value()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let (state, setup_s) = repeat_setup(|| build(cfg));
    let snapshot = state.engine.snapshot();
    // The oracle: HyPeR-style hand-fused loops over the same tables.
    let expected: Vec<QueryResult> = CPU_QUERIES
        .iter()
        .map(|q| hyper::run(&snapshot, *q))
        .collect();
    let warm_failed = state
        .warm
        .iter()
        .zip(&expected)
        .filter(|(got, want)| got.as_ref() != Some(*want))
        .count() as u64;
    let mut detail = vec![format!(
        "scale {} ({} rows), {} queries per pass",
        if cfg.quick { QUICK_SCALE } else { SCALE },
        state.rows,
        CPU_QUERIES.len()
    )];

    if cfg.trace {
        return traced(cfg, &state, &snapshot, &expected, warm_failed, detail);
    }

    let mut t = timed_passes(&state.engine, &expected, cfg.seconds, |_, run| {
        run();
    });
    let medians: Vec<f64> = t.per_query.iter_mut().map(|s| ms(s.median())).collect();
    let e2e = EndToEnd {
        light_p50_ms: geomean(&medians),
        heavy_p50_ms: ms(t.passes.median()),
        tail_ms: medians.iter().cloned().fold(0.0, f64::max),
        throughput_ops_s: t.ops as f64 / t.passes.sum().max(f64::MIN_POSITIVE),
        setup_s,
    };
    detail.push(format!(
        "light_p50_ms = query_geomean_ms (geomean of {} per-query medians, n={} each)",
        medians.len(),
        t.per_query[0].len()
    ));
    detail.push(format!(
        "heavy_p50_ms = pass_p50_ms (n={} passes)",
        t.passes.len()
    ));
    detail
        .push("tail_ms = slowest_query_p50_ms; throughput_ops_s = queries per busy second".into());
    for (q, m) in CPU_QUERIES.iter().zip(&medians) {
        detail.push(format!("  {} p50 {m:.3} ms", q.name()));
    }
    Outcome {
        attempted: t.ops + CPU_QUERIES.len() as u64,
        failed: t.failed + warm_failed,
        metrics: e2e.metrics(),
        digest: digest(&expected),
        detail,
        tracer: None,
    }
}

/// The traced run: the same op sequence, each op once through the engine
/// (`engine.run`) and once replayed through the layers' public functions
/// with a span per layer call.
fn traced(
    cfg: &RunConfig,
    state: &State,
    snapshot: &Catalog,
    expected: &[QueryResult],
    warm_failed: u64,
    mut detail: Vec<String>,
) -> Outcome {
    let engine = &state.engine;
    let mut layers = Layers::new(engine, Instant::now());
    // Replays execute on the engine's pool, as its own statements do.
    let _pool = voodoo::compile::pool::enter(engine.morsel_pool());

    // Cold decomposition, once per query: what the first pass paid.
    for (i, q) in CPU_QUERIES.iter().enumerate() {
        let op = i as u64;
        let root = layers.tr.begin("cold", None, op);
        let _ = queries::run_query(snapshot, *q, &mut |p: &Program, c: &Catalog| {
            layers.prepare(root, op, p, c)?.execute(c)
        });
        layers.tr.end(root);
    }

    let before = engine.metrics();
    let cache_before = engine.cache_stats();
    let mut baseline = timed_passes(engine, expected, cfg.seconds * UNTRACED_SHARE, |_, run| {
        run();
    });
    let replay_cache = ShardedPlanCache::new();
    let mut next_op = CPU_QUERIES.len() as u64;
    let mut overhead_us = Samples::new();
    let traced_started = Instant::now();
    let mut t = timed_passes(
        engine,
        expected,
        cfg.seconds * (1.0 - UNTRACED_SHARE),
        |q, run| {
            let tr = &mut layers.tr;
            let op = next_op;
            next_op += 1;
            let root = tr.begin("op", None, op);
            let run_s = tr.scoped("engine.run", Some(root), op, run);
            let replay = tr.begin("replay", Some(root), op);
            let rq = tr.begin("queries.run_query", Some(replay), op);
            let _ = queries::run_query(snapshot, q, &mut |p: &Program, c: &Catalog| {
                let plan = tr.scoped("backend.cache_lookup", Some(rq), op, || {
                    replay_cache.get_or_prepare(&*layers.backend, p, c)
                })?;
                tr.scoped("compile.execute", Some(rq), op, || plan.execute(c))
            });
            tr.end(rq);
            tr.end(replay);
            tr.end(root);
            let replay_s = tr.spans()[replay as usize].duration_ns() as f64 / 1e9;
            overhead_us.push(((run_s - replay_s) * 1e6).max(0.0));
        },
    );
    let traced_wall = traced_started.elapsed().as_secs_f64();
    let after = engine.metrics();
    let cache_after = engine.cache_stats();

    let mut m = LayerMetrics::default();
    m.set_layers(&layers);
    let tr = layers.tr;
    m.set("tpch.gen_s", state.gen_s);
    m.set("tpch.rows", state.rows as f64);
    m.set(
        "queries.plan_extract_us_p50",
        tr.self_times_us("queries.run_query").median(),
    );
    m.set_cache(&cache_before, &cache_after);
    // Execute time inside the replays (the cold pass executed too).
    let replayed_exec_ns = tr
        .child_totals_ns("queries.run_query")
        .get("compile.execute")
        .copied()
        .unwrap_or(0) as f64;
    let replayed_rows = t.passes.len().max(1) as f64 * state.rows.max(1) as f64;
    m.set("compile.exec_ns_per_row", replayed_exec_ns / replayed_rows);
    m.set_engine(&before, &after);
    m.set("engine.run_overhead_us_p50", overhead_us.median());

    // Exact architectural event counts and the portability backends,
    // outside the timed window (one serial pass each).
    let mut events = voodoo::compile::EventProfile::default();
    for q in CPU_QUERIES {
        if let Ok(p) = engine.query(q).profile() {
            events.merge(&p.events);
        }
    }
    m.set("compile.events_elements", events.elements as f64);
    m.set(
        "compile.events_seq_read_bytes",
        events.seq_read_bytes as f64,
    );
    m.set("compile.events_rand_reads", events.rand_reads as f64);
    m.set("compile.events_barriers", events.barriers as f64);
    let mut interp_ms = Samples::new();
    let mut interp_failed = 0;
    for (q, want) in CPU_QUERIES.iter().zip(expected) {
        let started = Instant::now();
        let got = engine.query(*q).run_on("interp");
        interp_ms.push(ms(started.elapsed().as_secs_f64()));
        if !matches!(&got, Ok(out) if out.rows() == want) {
            interp_failed += 1;
        }
    }
    let mut cpu_ms = Samples::new();
    for s in t.per_query.iter_mut() {
        cpu_ms.push(ms(s.median()));
    }
    m.set("interp.exec_ms_p50", interp_ms.median());
    m.set(
        "interp.cpu_speedup",
        interp_ms.median() / cpu_ms.median().max(f64::MIN_POSITIVE),
    );
    let simulated: f64 = GPU_QUERIES
        .iter()
        .filter_map(|q| engine.query(*q).profile_on("gpu").ok()?.simulated_seconds)
        .sum();
    m.set("gpusim.simulated_s", simulated);

    // Where the time went, and what tracing cost.
    let exec_share = replayed_exec_ns / tr.total_ns("replay").max(1) as f64;
    let plan_share = 1.0 - exec_share;
    m.set("bench.target_share", exec_share);
    m.set("bench.bypass_share", plan_share);
    let untraced_per_op = baseline.passes.median() / CPU_QUERIES.len() as f64;
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall / t.ops.max(1) as f64 / untraced_per_op.max(f64::MIN_POSITIVE) - 1.0),
    );
    let digest = digest(expected);
    m.set("bench.workload_digest", (digest & 0xffff_ffff) as f64);

    detail.push(format!(
        "execute {:.2} % / plan-cache lookup + plan extraction {:.2} % of replayed op time \
         (n={} ops; interp {:.1} ms vs cpu {:.1} ms per query)",
        100.0 * exec_share,
        100.0 * plan_share,
        t.ops,
        interp_ms.median(),
        cpu_ms.median()
    ));
    Outcome {
        attempted: baseline.ops + t.ops + 2 * CPU_QUERIES.len() as u64,
        failed: baseline.failed + t.failed + warm_failed + interp_failed,
        metrics: m.metrics(),
        digest,
        detail,
        tracer: Some(tr),
    }
}
