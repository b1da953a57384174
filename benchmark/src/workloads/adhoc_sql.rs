//! `adhoc_sql`: the planning path as a closed loop.
//!
//! Two clients run parameterised single-table SQL over a 128-row table:
//! half the statements come from 32 hot texts, half carry fresh literals,
//! and the distinct texts outnumber the plan cache's 256 entries, so hits,
//! misses and evictions all occur. The table is too small for the kernels
//! to matter: parse, lower, `voodoo-verify`, `Backend::prepare` and the
//! plan cache dominate. A JIT's compile cost or a cache change shows here;
//! a kernel change should leave it where it is.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;

use voodoo::backend::PreparedPlan;
use voodoo::relational::Engine;
use voodoo::storage::Catalog;

use super::layers::Layers;
use super::{ms, pinned_engine, repeat_setup, EndToEnd, LayerMetrics, Outcome, RunConfig};
use crate::gen::{rng, stream, uniform_rows, Digest};
use crate::shadow::{Agg, Cmp, Expr, Pred, Rows, ShadowTable, Stmt};
use crate::stats::{Samples, Timeline, WINDOWS};

pub const TABLE: &str = "adhoc";
pub const COLS: [&str; 4] = ["k", "a", "b", "c"];
/// Exclusive upper bound of each column's values; `k` is the group key.
pub const BOUNDS: [i64; 4] = [16, 1000, 1000, 100];
/// Small enough that executing a statement costs less than planning it.
pub const ROWS: usize = 128;
pub const CLIENTS: usize = 2;
pub const HOT_TEXTS: usize = 32;
/// Fresh statements run during set-up, so the 256-entry plan cache is
/// full (and evicting) before the first timed statement.
const WARM_FRESH: usize = 512;
/// Every n-th statement of a traced client is also replayed layer by layer.
const REPLAY_EVERY: u64 = 4;
/// Statements per client that enter the workload digest.
const DIGEST_PREFIX: usize = 1000;
const UNTRACED_SHARE: f64 = 0.25;

const K: usize = 0;
const A: usize = 1;
const B: usize = 2;
const C: usize = 3;

fn col(c: usize) -> Expr {
    Expr::Col(c)
}

fn lit(rng: &mut SmallRng, column: usize) -> Expr {
    Expr::Lit(rng.gen_range(0..BOUNDS[column]))
}

pub const TEMPLATES: usize = 6;

/// A statement from a random template.
pub fn draw_stmt(rng: &mut SmallRng) -> Stmt {
    let template = rng.gen_range(0..TEMPLATES);
    stmt_of(template, rng)
}

/// A statement from template `template % TEMPLATES` with seeded literals.
/// Fixed statement sets (hot texts, serve pools) take their templates
/// round-robin, so their cost does not depend on the seed's luck.
pub fn stmt_of(template: usize, rng: &mut SmallRng) -> Stmt {
    match template % TEMPLATES {
        0 => Stmt {
            aggs: vec![Agg::Sum(col(A)), Agg::Count],
            preds: vec![
                Pred::new(col(B), Cmp::Lt, lit(rng, B)),
                Pred::new(col(A), Cmp::Ge, lit(rng, A)),
            ],
            group: None,
        },
        1 => {
            let lo = rng.gen_range(0..BOUNDS[C]);
            Stmt {
                aggs: vec![Agg::Sum(col(A)), Agg::Max(col(B))],
                preds: vec![
                    Pred::new(col(C), Cmp::Ge, Expr::Lit(lo)),
                    Pred::new(col(C), Cmp::Le, Expr::Lit(lo + rng.gen_range(0..50))),
                    Pred::new(col(B), Cmp::Ne, lit(rng, B)),
                ],
                group: Some(K),
            }
        }
        2 => Stmt {
            aggs: vec![Agg::Min(col(A)), Agg::Max(col(A)), Agg::Avg(col(B))],
            preds: vec![
                Pred::new(col(A), Cmp::Ge, lit(rng, A)),
                Pred::new(col(C), Cmp::Ne, lit(rng, C)),
            ],
            group: None,
        },
        3 => Stmt {
            aggs: vec![Agg::Count, Agg::Sum(Expr::mul(col(A), col(B)))],
            preds: vec![Pred::new(
                Expr::add(col(A), col(B)),
                Cmp::Gt,
                Expr::Lit(rng.gen_range(0..BOUNDS[A] + BOUNDS[B])),
            )],
            group: Some(K),
        },
        4 => Stmt {
            aggs: vec![Agg::Sum(Expr::sub(col(A), col(B))), Agg::Count],
            preds: vec![
                Pred::new(col(B), Cmp::Le, lit(rng, B)),
                Pred::new(col(C), Cmp::Lt, lit(rng, C)),
                Pred::new(col(K), Cmp::Eq, lit(rng, K)),
            ],
            group: None,
        },
        _ => Stmt {
            aggs: vec![Agg::Min(col(B)), Agg::Avg(col(A))],
            preds: vec![
                Pred::new(col(A), Cmp::Lt, lit(rng, A)),
                Pred::new(col(B), Cmp::Ge, lit(rng, B)),
            ],
            group: Some(K),
        },
    }
}

/// A statement, its SQL text and the shadow fold's answer.
pub struct Checked {
    pub text: String,
    pub expected: Rows,
}

impl Checked {
    pub fn new(stmt: &Stmt, shadow: &ShadowTable) -> Checked {
        Checked {
            text: stmt.sql(shadow.name, shadow.cols),
            expected: stmt.eval(shadow.rows()),
        }
    }
}

pub fn table(seed: u64, rows: usize) -> ShadowTable {
    ShadowTable::new(
        TABLE,
        &COLS,
        uniform_rows(&mut rng(seed, stream::TABLE), rows, &BOUNDS),
    )
}

struct State {
    engine: Arc<Engine>,
    shadow: ShadowTable,
    hot: Vec<Stmt>,
    /// Warm-up statements whose answers are checked after set-up.
    warm: Vec<(Stmt, Option<Rows>)>,
}

fn build(cfg: &RunConfig) -> State {
    let shadow = table(cfg.seed, ROWS);
    let mut cat = Catalog::in_memory();
    cat.insert_table(shadow.to_table());
    let engine = pinned_engine(cat);
    let mut stmts = rng(cfg.seed, stream::STATEMENTS);
    let hot: Vec<Stmt> = (0..HOT_TEXTS).map(|i| stmt_of(i, &mut stmts)).collect();
    let warm_fresh = if cfg.quick { 32 } else { WARM_FRESH };
    let warm = hot
        .iter()
        .cloned()
        .chain((0..warm_fresh).map(|_| draw_stmt(&mut stmts)))
        .map(|stmt| {
            let got = engine
                .sql(&stmt.sql(shadow.name, shadow.cols))
                .and_then(|s| s.run())
                .ok()
                .map(|out| out.into_rows().rows);
            (stmt, got)
        })
        .collect();
    State {
        engine,
        shadow,
        hot,
        warm,
    }
}

#[derive(Default)]
struct ClientResult {
    hot: Samples,
    fresh: Samples,
    /// Every statement's latency, stamped with seconds into the window.
    all: Timeline,
    failed: u64,
    /// `engine.run` minus the replayed lower + execute + extract, hot
    /// statements only.
    run_overhead_us: Samples,
}

/// What a client needs from the run, shared read-only.
struct Shared<'a> {
    engine: &'a Arc<Engine>,
    shadow: &'a ShadowTable,
    hot: &'a [Checked],
    snapshot: &'a Catalog,
}

/// One closed-loop client: draw, run, check, until `seconds` have passed.
fn client(
    shared: &Shared<'_>,
    mut draws: SmallRng,
    seconds: f64,
    mut layers: Option<&mut Layers>,
) -> ClientResult {
    let mut out = ClientResult::default();
    let mut held: HashMap<usize, Arc<dyn PreparedPlan>> = HashMap::new();
    let mut op = 0u64;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        op += 1;
        let hot_idx = draws
            .gen_bool(0.5)
            .then(|| draws.gen_range(0..shared.hot.len()));
        let fresh;
        let stmt = match hot_idx {
            Some(i) => &shared.hot[i],
            None => {
                fresh = Checked::new(&draw_stmt(&mut draws), shared.shadow);
                &fresh
            }
        };
        let op_started = Instant::now();
        let result = match layers.as_deref_mut() {
            None => shared.engine.sql(&stmt.text).and_then(|s| s.run()),
            Some(l) => {
                let root = l.tr.begin("op", None, op);
                let parsed = l.tr.scoped("sql.parse", Some(root), op, || {
                    shared.engine.sql(&stmt.text)
                });
                let run = l.tr.begin("engine.run", Some(root), op);
                let result = parsed.and_then(|s| s.run());
                l.tr.end(run);
                l.tr.end(root);
                result
            }
        };
        let elapsed = op_started.elapsed().as_secs_f64();
        if !matches!(&result, Ok(r) if r.rows().rows == stmt.expected) {
            out.failed += 1;
        }
        match hot_idx {
            Some(_) => out.hot.push(elapsed),
            None => out.fresh.push(elapsed),
        }
        out.all.push((op_started - started).as_secs_f64(), elapsed);
        if let Some(l) = layers
            .as_deref_mut()
            .filter(|_| op.is_multiple_of(REPLAY_EVERY))
        {
            let run_ns = l.tr.spans().last().map_or(0, |s| s.duration_ns());
            let name = if hot_idx.is_some() {
                "replay.hot"
            } else {
                "replay.fresh"
            };
            let replay = l.tr.begin(name, None, op);
            let plan = hot_idx.and_then(|i| held.get(&i).cloned());
            let replayed = l.replay_sql(replay, op, &stmt.text, shared.snapshot, plan);
            l.tr.end(replay);
            match replayed {
                Ok((rows, plan)) if rows == stmt.expected => {
                    if let Some(i) = hot_idx {
                        // The replay's first child is its parse, which the
                        // engine path pays before `engine.run` starts.
                        let spans = l.tr.spans();
                        let after_parse = spans[replay as usize].duration_ns()
                            - spans[replay as usize + 1].duration_ns();
                        if held.insert(i, plan).is_some() {
                            out.run_overhead_us
                                .push(run_ns.saturating_sub(after_parse) as f64 / 1e3);
                        }
                    }
                }
                _ => out.failed += 1,
            }
        }
    }
    out
}

/// Run [`CLIENTS`] clients for `seconds`; traced when `epoch` is given.
fn clients(
    shared: &Shared<'_>,
    seed: u64,
    phase: u64,
    seconds: f64,
    epoch: Option<Instant>,
) -> (ClientResult, f64, Option<Layers>) {
    let started = Instant::now();
    let results: Vec<(ClientResult, Option<Layers>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|i| {
                scope.spawn(move || {
                    let draws = rng(seed, stream::CLIENT + 2 * i + phase);
                    let mut layers = epoch.map(|e| Layers::new(shared.engine, e));
                    let _pool = voodoo::compile::pool::enter(shared.engine.morsel_pool());
                    (client(shared, draws, seconds, layers.as_mut()), layers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut all = ClientResult::default();
    let mut traced: Option<Layers> = None;
    for (r, layers) in results {
        all.hot.extend(&r.hot);
        all.fresh.extend(&r.fresh);
        all.all.extend(&r.all);
        all.run_overhead_us.extend(&r.run_overhead_us);
        all.failed += r.failed;
        if let Some(l) = layers {
            match traced.as_mut() {
                None => traced = Some(l),
                Some(merged) => merged.absorb(l),
            }
        }
    }
    (all, wall_s, traced)
}

fn digest(seed: u64, shadow: &ShadowTable, hot: &[Checked]) -> u64 {
    let mut d = Digest::default();
    for row in shadow.rows() {
        d.i64s(row);
    }
    for h in hot {
        d.str(&h.text);
    }
    for i in 0..CLIENTS as u64 {
        let mut draws = rng(seed, stream::CLIENT + 2 * i);
        for _ in 0..DIGEST_PREFIX {
            match draws.gen_bool(0.5) {
                true => d.i64s(&[draws.gen_range(0..hot.len()) as i64]),
                false => d.str(&draw_stmt(&mut draws).sql(shadow.name, shadow.cols)),
            }
        }
    }
    d.value()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let (state, setup_s) = repeat_setup(|| build(cfg));
    let shadow = &state.shadow;
    let warm_failed = state
        .warm
        .iter()
        .filter(|(stmt, got)| got.as_ref() != Some(&stmt.eval(shadow.rows())))
        .count() as u64;
    let hot: Vec<Checked> = state.hot.iter().map(|s| Checked::new(s, shadow)).collect();
    let snapshot = state.engine.snapshot();
    let shared = Shared {
        engine: &state.engine,
        shadow,
        hot: &hot,
        snapshot: &snapshot,
    };
    let digest = digest(cfg.seed, shadow, &hot);
    let mut detail = vec![format!(
        "{ROWS} rows, {CLIENTS} clients, {HOT_TEXTS} hot texts, plan cache capacity {}",
        state.engine.cache_stats().capacity
    )];

    if !cfg.trace {
        let (mut r, wall_s, _) = clients(&shared, cfg.seed, 0, cfg.seconds, None);
        let all = &r.all;
        let (tail_q, tail) = all.windowed_tail(cfg.seconds);
        let e2e = EndToEnd {
            light_p50_ms: ms(r.hot.median()),
            heavy_p50_ms: ms(r.fresh.median()),
            tail_ms: ms(tail),
            throughput_ops_s: all.len() as f64 / wall_s,
            setup_s,
        };
        detail.push(format!(
            "light_p50_ms = hot_p50_ms (n={}); heavy_p50_ms = fresh_p50_ms (n={})",
            r.hot.len(),
            r.fresh.len()
        ));
        detail.push(format!(
            "tail_ms = stmt_p{:.0}_ms (median of {WINDOWS} windows, n={}); \
             throughput_ops_s = throughput_qps",
            tail_q * 100.0,
            all.len()
        ));
        return Outcome {
            attempted: all.len() as u64 + state.warm.len() as u64,
            failed: r.failed + warm_failed,
            metrics: e2e.metrics(),
            digest,
            detail,
            tracer: None,
        };
    }

    let engine = &state.engine;
    let (base, base_s, _) = clients(&shared, cfg.seed, 0, cfg.seconds * UNTRACED_SHARE, None);
    let before = engine.metrics();
    let cache_before = engine.cache_stats();
    let (mut r, traced_s, traced) = clients(
        &shared,
        cfg.seed,
        1,
        cfg.seconds * (1.0 - UNTRACED_SHARE),
        Some(Instant::now()),
    );
    let layers = traced.expect("traced clients return their spans");
    let mut m = LayerMetrics::default();
    m.set_cache(&cache_before, &engine.cache_stats());
    m.set_engine(&before, &engine.metrics());
    m.set_layers(&layers);
    let tr = layers.tr;
    m.set("engine.run_overhead_us_p50", r.run_overhead_us.median());

    // Fresh statements: the pipeline stages of the replay (the standalone
    // analyze and compile calls repeat work inside `backend.prepare`).
    let fresh = tr.child_totals_ns("replay.fresh");
    let stage = |name: &str| fresh.get(name).copied().unwrap_or(0) as f64;
    let planning = stage("sql.parse") + stage("sql.lower") + stage("backend.prepare");
    let pipeline = planning + stage("compile.execute") + stage("sql.extract");
    m.set("bench.target_share", planning / pipeline.max(1.0));
    m.set(
        "bench.bypass_share",
        stage("compile.execute") / pipeline.max(1.0),
    );
    let untraced_qps = (base.hot.len() + base.fresh.len()) as f64 / base_s;
    let traced_qps = (r.hot.len() + r.fresh.len()) as f64 / traced_s;
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (untraced_qps / traced_qps.max(f64::MIN_POSITIVE) - 1.0),
    );
    m.set("bench.workload_digest", (digest & 0xffff_ffff) as f64);
    detail.push(format!(
        "fresh statements: parse+lower+prepare {:.1} % / execute {:.1} % of the replayed pipeline \
         (hot p50 {:.3} ms, fresh p50 {:.3} ms while traced)",
        100.0 * planning / pipeline.max(1.0),
        100.0 * stage("compile.execute") / pipeline.max(1.0),
        ms(r.hot.median()),
        ms(r.fresh.median())
    ));
    Outcome {
        attempted: (base.hot.len() + base.fresh.len() + r.hot.len() + r.fresh.len()) as u64
            + state.warm.len() as u64,
        failed: base.failed + r.failed + warm_failed,
        metrics: m.metrics(),
        digest,
        detail,
        tracer: Some(tr),
    }
}
