//! `ingest_views`: writes beside reads, as a closed loop.
//!
//! One client repeats a deterministic cycle on a 200k-row `fact` table and
//! a 64-row `dim`: append a 256-row batch, read 8 maintained views (3
//! filtered, 3 grouped, 2 join), every 8th cycle update 64 rows and delete
//! the 2048 appended since (so the table keeps its size), every 32nd cycle
//! scan `fact` with grouped SQL. `voodoo-storage`'s segments and
//! compaction and `voodoo-ivm`'s delta refresh do the work; the scan runs
//! 7 appends after the last fold, so a write-path win that is paid for by
//! slower reads over many segments shows up there.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;

use voodoo::relational::views::{JoinDef, Source, ViewDef};
use voodoo::relational::{Engine, EngineMetrics};
use voodoo::storage::Catalog;

use super::layers::Layers;
use super::{ms, pinned_engine, repeat_setup, EndToEnd, LayerMetrics, Outcome, RunConfig};
use crate::gen::{rng, stream, uniform_rows, Digest};
use crate::shadow::{join_rows, Agg, Cmp, Expr, Pred, Rows, ShadowTable, Stmt};
use crate::stats::{Samples, Timeline};
use crate::trace::SpanId;

pub const FACT_ROWS: usize = 200_000;
const QUICK_FACT_ROWS: usize = 20_000;
pub const FACT_COLS: [&str; 5] = ["k", "d", "a", "b", "v"];
/// Exclusive upper bounds: `k` the group key, `d` the `dim` foreign key.
pub const FACT_BOUNDS: [i64; 5] = [32, 64, 1000, 1000, 10_000];
pub const DIM_COLS: [&str; 3] = ["id", "region", "w"];
pub const DIM_ROWS: usize = 64;
pub const APPEND_ROWS: usize = 256;
pub const UPDATE_ROWS: usize = 64;
/// Cycles `c` with `c % MUTATE_EVERY == 0` update [`UPDATE_ROWS`] rows and
/// delete [`DELETE_ROWS`]…
pub const MUTATE_EVERY: u64 = 8;
/// As many rows as were appended since the last deletion, so the table
/// stays at its size and a slow run scans the same table as a fast one.
pub const DELETE_ROWS: usize = APPEND_ROWS * MUTATE_EVERY as usize;
/// …and cycles with `c % SCAN_EVERY == SCAN_EVERY - 1` scan `fact` and
/// check every view against the shadow copy.
pub const SCAN_EVERY: u64 = 32;
/// Cycles run during set-up (one mutation among them).
const WARM_CYCLES: u64 = 9;
/// The exact counters of a traced run cover its first this-many cycles,
/// so they do not depend on how many cycles the window fits.
const COUNTED_CYCLES: u64 = 64;
const DIGEST_CYCLES: u64 = 64;
const UNTRACED_SHARE: f64 = 0.25;

const K: usize = 0;
const D: usize = 1;
const A: usize = 2;
const B: usize = 3;
const V: usize = 4;
/// Columns of the joined `fact ++ dim` stream.
const REGION: usize = 6;
const W: usize = 7;

fn col(c: usize) -> Expr {
    Expr::Col(c)
}

/// A maintained view: its name, its statement, and whether it reads the
/// `fact ⋈ dim` stream (built from the view IR) or `fact` alone (SQL).
struct View {
    name: &'static str,
    stmt: Stmt,
    joined: bool,
}

fn views(r: &mut SmallRng) -> Vec<View> {
    let mut lit = |lo: i64, hi: i64| Expr::Lit(r.gen_range(lo..hi));
    let sql = |name, aggs, preds, group| View {
        name,
        stmt: Stmt { aggs, preds, group },
        joined: false,
    };
    let join = |name, aggs, group| View {
        name,
        stmt: Stmt {
            aggs,
            preds: vec![],
            group: Some(group),
        },
        joined: true,
    };
    vec![
        sql(
            "filter_sum",
            vec![Agg::Sum(col(V)), Agg::Count],
            vec![Pred::new(col(A), Cmp::Lt, lit(50, 150))],
            None,
        ),
        sql(
            "filter_minmax",
            vec![Agg::Min(col(V)), Agg::Max(col(V)), Agg::Count],
            vec![
                Pred::new(col(B), Cmp::Ge, lit(850, 950)),
                Pred::new(col(A), Cmp::Ne, lit(0, 1000)),
            ],
            None,
        ),
        sql(
            "filter_avg",
            vec![Agg::Sum(Expr::add(col(A), col(B))), Agg::Avg(col(V))],
            vec![Pred::new(col(V), Cmp::Gt, lit(8500, 9500))],
            None,
        ),
        sql(
            "group_sum",
            vec![Agg::Sum(col(V)), Agg::Count],
            vec![],
            Some(K),
        ),
        sql(
            "group_minmax",
            vec![Agg::Max(col(A)), Agg::Min(col(B))],
            vec![Pred::new(col(V), Cmp::Lt, lit(4000, 6000))],
            Some(K),
        ),
        sql(
            "group_avg",
            vec![Agg::Avg(col(V)), Agg::Sum(Expr::mul(col(A), col(B)))],
            vec![],
            Some(D),
        ),
        join(
            "join_region",
            vec![Agg::Sum(Expr::mul(col(V), col(W))), Agg::Count],
            REGION,
        ),
        join(
            "join_key",
            vec![Agg::Sum(Expr::mul(col(A), col(W))), Agg::Max(col(V))],
            K,
        ),
    ]
}

/// The in-place writes of a mutation cycle: `(row, new image)` updates,
/// then the (distinct) row indices to delete.
struct Mutation {
    updates: Vec<(usize, Vec<i64>)>,
    deletes: Vec<usize>,
}

/// What one cycle does, generated in cycle order from one seeded stream.
struct CycleOps {
    append: Vec<Vec<i64>>,
    mutation: Option<Mutation>,
    scan: Option<Stmt>,
}

fn fact_row(r: &mut SmallRng) -> Vec<i64> {
    FACT_BOUNDS.iter().map(|&b| r.gen_range(0..b)).collect()
}

/// The ops of cycle `c` on a `fact` table of `len` rows (before the cycle).
fn cycle_ops(r: &mut SmallRng, c: u64, len: usize) -> CycleOps {
    let append: Vec<Vec<i64>> = (0..APPEND_ROWS).map(|_| fact_row(r)).collect();
    let len = len + APPEND_ROWS;
    let mutation = c.is_multiple_of(MUTATE_EVERY).then(|| {
        let updates = (0..UPDATE_ROWS)
            .map(|_| (r.gen_range(0..len), fact_row(r)))
            .collect();
        // Distinct indices: one per stride of the table.
        let stride = len / DELETE_ROWS;
        let deletes = (0..DELETE_ROWS)
            .map(|i| i * stride + r.gen_range(0..stride))
            .collect();
        Mutation { updates, deletes }
    });
    let scan = (c % SCAN_EVERY == SCAN_EVERY - 1).then(|| Stmt {
        aggs: vec![Agg::Sum(col(V)), Agg::Count],
        preds: vec![Pred::new(
            col(A),
            Cmp::Lt,
            Expr::Lit(r.gen_range(1..FACT_BOUNDS[A])),
        )],
        group: Some(K),
    });
    CycleOps {
        append,
        mutation,
        scan,
    }
}

struct State {
    engine: Arc<Engine>,
    fact: ShadowTable,
    dim: ShadowTable,
    views: Vec<View>,
    ops: SmallRng,
    /// Next cycle index.
    cycle: u64,
    failed: u64,
    attempted: u64,
}

/// Latency samples of the timed operations, in seconds.
struct Timings {
    /// When the window started; view reads are stamped against it.
    started: Instant,
    append: Samples,
    view_read: Timeline,
    update: Samples,
    delete: Samples,
    scan: Samples,
    /// Time inside the engine's calls, per cycle.
    cycle: Samples,
}

impl Timings {
    fn starting_now() -> Timings {
        Timings {
            started: Instant::now(),
            append: Samples::new(),
            view_read: Timeline::default(),
            update: Samples::new(),
            delete: Samples::new(),
            scan: Samples::new(),
            cycle: Samples::new(),
        }
    }
}

/// The traced run's extra state.
struct Traced {
    layers: Layers,
    segments_max: usize,
    compactions: u64,
    /// Engine counters and storage counts when cycle `COUNTED_CYCLES` of
    /// the traced window ended.
    counted: Option<(EngineMetrics, usize, u64)>,
    started_at_cycle: u64,
}

impl State {
    fn expected(&self, view: &View) -> Rows {
        if view.joined {
            let joined = join_rows(&self.fact, D, &self.dim, 0);
            view.stmt
                .eval(joined.chunks_exact(FACT_COLS.len() + DIM_COLS.len()))
        } else {
            view.stmt.eval(self.fact.rows())
        }
    }

    fn segments(&self) -> usize {
        self.engine
            .snapshot()
            .table("fact")
            .map_or(0, |t| t.segments().len())
    }

    /// One cycle: append, read the views, maybe mutate, maybe scan and
    /// check. Timed around the engine's public calls only; the shadow
    /// copy is maintained and folded outside every timed region.
    fn run_cycle(&mut self, t: &mut Timings, mut traced: Option<&mut Traced>) {
        let c = self.cycle;
        self.cycle += 1;
        let ops = cycle_ops(&mut self.ops, c, self.fact.len());
        let engine = Arc::clone(&self.engine);
        let root = traced
            .as_deref_mut()
            .map(|x| x.layers.tr.begin("cycle", None, c));
        // Time inside the engine's calls this cycle; the shadow copy and the
        // oracle folds run between them and are not the engine's time.
        let mut busy = 0.0;
        let mut timed = |samples: &mut Samples, started: Instant| {
            let elapsed = started.elapsed().as_secs_f64();
            samples.push(elapsed);
            busy += elapsed;
            elapsed
        };

        // -- append ----------------------------------------------------
        let segments_before = traced.is_some().then(|| self.segments());
        let version_before = traced
            .is_some()
            .then(|| engine.snapshot().table_version("fact").unwrap_or(0));
        let started = Instant::now();
        let appended = match traced.as_deref_mut() {
            None => engine.append_rows("fact", &ops.append),
            Some(x) => {
                let tr = &mut x.layers.tr;
                let id = tr.begin("engine.append_rows", root, c);
                let ok = engine.mutate_catalog(|cat| {
                    tr.scoped("storage.append", Some(id), c, || {
                        cat.append_rows("fact", &ops.append)
                    })
                });
                tr.end(id);
                ok
            }
        };
        timed(&mut t.append, started);
        self.attempted += 1;
        if !appended {
            self.failed += 1;
        }
        self.fact.append(&ops.append);
        if let Some(x) = traced.as_deref_mut() {
            let tr = &mut x.layers.tr;
            let snapshot = tr.scoped("storage.snapshot", root, c, || engine.snapshot());
            let since = version_before.unwrap_or(0);
            let delta = tr.scoped("storage.changes_since", root, c, || {
                snapshot.changes_since("fact", since)
            });
            if delta.map_or(0, |d| d.len()) != APPEND_ROWS {
                self.failed += 1;
            }
            let now = snapshot.table("fact").map_or(0, |t| t.segments().len());
            // An append seals one segment; fewer than before + 1 means
            // the pending segments were folded into the base.
            if now <= segments_before.unwrap_or(0) {
                x.compactions += 1;
            }
            x.segments_max = x.segments_max.max(now);
        }

        // -- read the views --------------------------------------------
        let mut read: Vec<Option<Rows>> = Vec::with_capacity(self.views.len());
        let mut view_busy = 0.0;
        for view in &self.views {
            let started = Instant::now();
            let rows = match traced.as_deref_mut() {
                None => engine.read_view(view.name),
                Some(x) => x
                    .layers
                    .tr
                    .scoped("ivm.read_view", root, c, || engine.read_view(view.name)),
            };
            let elapsed = started.elapsed().as_secs_f64();
            view_busy += elapsed;
            t.view_read
                .push((started - t.started).as_secs_f64(), elapsed);
            self.attempted += 1;
            read.push(rows.ok().map(|r| r.rows));
        }
        self.failed += read.iter().filter(|r| r.is_none()).count() as u64;

        // -- update + delete -------------------------------------------
        if let Some(Mutation { updates, deletes }) = &ops.mutation {
            let had_segments = traced.is_some() && self.segments() > 0;
            let started = Instant::now();
            let updated = match traced.as_deref_mut() {
                None => engine.mutate_catalog(|cat| cat.update_rows("fact", updates)),
                Some(x) => mutate_traced(x, &engine, root, c, "storage.update", |cat| {
                    cat.update_rows("fact", updates)
                }),
            };
            timed(&mut t.update, started);
            self.fact.update(updates);
            let started = Instant::now();
            let deleted = match traced.as_deref_mut() {
                None => engine.mutate_catalog(|cat| cat.delete_rows("fact", deletes)),
                Some(x) => mutate_traced(x, &engine, root, c, "storage.delete", |cat| {
                    cat.delete_rows("fact", deletes)
                }),
            };
            timed(&mut t.delete, started);
            self.fact.delete(deletes);
            self.attempted += 2;
            self.failed += u64::from(!updated) + u64::from(!deleted);
            if let Some(x) = traced.as_deref_mut() {
                // In-place writes index the base: they fold first.
                x.compactions += u64::from(had_segments);
            }
        }

        // -- scan + oracle check ---------------------------------------
        if let Some(scan) = &ops.scan {
            let text = scan.sql(self.fact.name, self.fact.cols);
            let started = Instant::now();
            let got = match traced.as_deref_mut() {
                None => engine.sql(&text).and_then(|s| s.run()),
                Some(x) => x.layers.tr.scoped("engine.run", root, c, || {
                    engine.sql(&text).and_then(|s| s.run())
                }),
            };
            timed(&mut t.scan, started);
            self.attempted += 1;
            let expected = scan.eval(self.fact.rows());
            if !matches!(&got, Ok(out) if out.rows().rows == expected) {
                self.failed += 1;
            }
            if let Some(x) = traced.as_deref_mut() {
                let replay = x.layers.tr.begin("replay.fresh", None, c);
                let replayed = x
                    .layers
                    .replay_sql(replay, c, &text, &engine.snapshot(), None);
                x.layers.tr.end(replay);
                if !matches!(replayed, Ok((rows, _)) if rows == expected) {
                    self.failed += 1;
                }
            }
            // No mutation ran this cycle, so the shadow copy is exactly
            // the table the views above were refreshed against.
            self.check_views(&read);
        }

        t.cycle.push(busy + view_busy);
        if let (Some(x), Some(root)) = (traced, root) {
            x.layers.tr.end(root);
            if self.cycle - x.started_at_cycle == COUNTED_CYCLES {
                x.counted = Some((engine.metrics(), x.segments_max, x.compactions));
            }
        }
    }

    /// Compare view answers with the fold over the shadow copy; each
    /// mismatch fails the read that produced it.
    fn check_views(&mut self, read: &[Option<Rows>]) {
        for (view, got) in self.views.iter().zip(read) {
            if got.as_ref() != Some(&self.expected(view)) {
                self.failed += 1;
            }
        }
    }

    /// Re-read every view and check it: the final oracle pass.
    fn final_check(&mut self) {
        let read: Vec<_> = self
            .views
            .iter()
            .map(|v| self.engine.read_view(v.name).ok().map(|r| r.rows))
            .collect();
        self.attempted += read.len() as u64;
        self.check_views(&read);
    }
}

/// One catalog mutation under an `engine.mutate_catalog` span, with the
/// storage call itself as the child span `name`.
fn mutate_traced(
    x: &mut Traced,
    engine: &Engine,
    root: Option<SpanId>,
    c: u64,
    name: &'static str,
    f: impl FnOnce(&mut Catalog) -> bool,
) -> bool {
    let tr = &mut x.layers.tr;
    let id = tr.begin("engine.mutate_catalog", root, c);
    let ok = engine.mutate_catalog(|cat| tr.scoped(name, Some(id), c, || f(cat)));
    tr.end(id);
    ok
}

fn dim_table(seed: u64) -> ShadowTable {
    let mut r = rng(seed, stream::TABLE + 1);
    let data = (0..DIM_ROWS as i64)
        .flat_map(|id| [id, r.gen_range(0..8), r.gen_range(1..10)])
        .collect();
    ShadowTable::new("dim", &DIM_COLS, data)
}

fn build(cfg: &RunConfig) -> State {
    let rows = if cfg.quick {
        QUICK_FACT_ROWS
    } else {
        FACT_ROWS
    };
    let fact = ShadowTable::new(
        "fact",
        &FACT_COLS,
        uniform_rows(&mut rng(cfg.seed, stream::TABLE), rows, &FACT_BOUNDS),
    );
    let dim = dim_table(cfg.seed);
    let mut cat = Catalog::in_memory();
    cat.insert_table(fact.to_table());
    cat.insert_table(dim.to_table());
    let engine = pinned_engine(cat);
    let views = views(&mut rng(cfg.seed, stream::STATEMENTS));
    let mut failed = 0;
    for view in &views {
        let created = if view.joined {
            engine.create_view_def(
                view.name,
                ViewDef::of(Source::scan("fact", &FACT_COLS))
                    .join(JoinDef {
                        right: Source::scan("dim", &DIM_COLS),
                        left_key: D,
                        right_key: 0,
                    })
                    .aggregate(view.stmt.agg_def()),
            )
        } else {
            engine.create_view(view.name, &view.stmt.sql(fact.name, fact.cols))
        };
        failed += u64::from(created.is_err());
    }
    let mut state = State {
        engine,
        fact,
        dim,
        views,
        ops: rng(cfg.seed, stream::MUTATIONS),
        cycle: 0,
        failed,
        attempted: 0,
    };
    let mut warm = Timings::starting_now();
    for _ in 0..WARM_CYCLES {
        state.run_cycle(&mut warm, None);
    }
    state
}

fn digest(cfg: &RunConfig, state: &State, initial_rows: usize) -> u64 {
    let mut d = Digest::default();
    for view in &state.views {
        d.str(view.name);
        d.str(
            &view
                .stmt
                .sql("fact", &["k", "d", "a", "b", "v", "id", "region", "w"]),
        );
    }
    for row in state.dim.rows() {
        d.i64s(row);
    }
    let mut ops = rng(cfg.seed, stream::MUTATIONS);
    let mut len = initial_rows;
    for c in 0..DIGEST_CYCLES {
        let o = cycle_ops(&mut ops, c, len);
        len += APPEND_ROWS;
        for row in &o.append {
            d.i64s(row);
        }
        if let Some(Mutation { updates, deletes }) = &o.mutation {
            for (i, row) in updates {
                d.i64s(&[*i as i64]);
                d.i64s(row);
            }
            for i in deletes {
                d.i64s(&[*i as i64]);
            }
            len -= deletes.len();
        }
        if let Some(scan) = &o.scan {
            d.str(&scan.sql("fact", &FACT_COLS));
        }
    }
    d.value()
}

/// Run whole cycles until `seconds` have elapsed.
fn run_for(state: &mut State, seconds: f64, mut traced: Option<&mut Traced>) -> Timings {
    let mut t = Timings::starting_now();
    while t.started.elapsed().as_secs_f64() < seconds {
        state.run_cycle(&mut t, traced.as_deref_mut());
    }
    t
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let (mut state, setup_s) = repeat_setup(|| build(cfg));
    let initial_rows = if cfg.quick {
        QUICK_FACT_ROWS
    } else {
        FACT_ROWS
    };
    // Oracle pass over the warmed-up state, before anything is timed.
    state.final_check();
    let digest = digest(cfg, &state, initial_rows);
    let mut detail = vec![format!(
        "fact {initial_rows} rows + dim {DIM_ROWS}; {} views; append {APPEND_ROWS}/cycle, \
         update {UPDATE_ROWS} + delete {DELETE_ROWS} every {MUTATE_EVERY}th, scan every {SCAN_EVERY}th",
        state.views.len()
    )];

    if !cfg.trace {
        let mut t = run_for(&mut state, cfg.seconds, None);
        state.final_check();
        let (tail_q, tail) = t.view_read.windowed_tail(cfg.seconds);
        let e2e = EndToEnd {
            light_p50_ms: ms(t.view_read.values().median()),
            heavy_p50_ms: ms(t.scan.median()),
            tail_ms: ms(tail),
            throughput_ops_s: t.cycle.len() as f64 / t.cycle.sum().max(f64::MIN_POSITIVE),
            setup_s,
        };
        detail.push(format!(
            "light_p50_ms = view_read_p50_ms (n={}); heavy_p50_ms = scan_p50_ms (n={}); \
             tail_ms = view_read_p{:.0}_ms (median of 4 windows); throughput_ops_s = cycles per busy second (n={})",
            t.view_read.len(),
            t.scan.len(),
            tail_q * 100.0,
            t.cycle.len()
        ));
        detail.push(format!(
            "  append_p50_ms {:.4} (n={}), update_p50_ms {:.3}, delete_p50_ms {:.3} (n={})",
            ms(t.append.median()),
            t.append.len(),
            ms(t.update.median()),
            ms(t.delete.median()),
            t.delete.len()
        ));
        return Outcome {
            attempted: state.attempted,
            failed: state.failed,
            metrics: e2e.metrics(),
            digest,
            detail,
            tracer: None,
        };
    }

    // Traced cycles first, so they are always the same cycles of the op
    // sequence and the exact counters below are too; the untraced share,
    // which `trace_overhead_pct` compares against, follows.
    let before = state.engine.metrics();
    let cache_before = state.engine.cache_stats();
    let mut traced = Traced {
        layers: Layers::new(&state.engine, Instant::now()),
        segments_max: 0,
        compactions: 0,
        counted: None,
        started_at_cycle: state.cycle,
    };
    let t = {
        let _pool = voodoo::compile::pool::enter(state.engine.morsel_pool());
        run_for(
            &mut state,
            cfg.seconds * (1.0 - UNTRACED_SHARE),
            Some(&mut traced),
        )
    };
    let after = state.engine.metrics();
    let cache_after = state.engine.cache_stats();
    let base = run_for(&mut state, cfg.seconds * UNTRACED_SHARE, None);
    state.final_check();
    let Traced {
        layers,
        segments_max,
        compactions,
        counted,
        ..
    } = traced;
    let (counted_metrics, counted_segments, counted_compactions) =
        counted.unwrap_or((after, segments_max, compactions));

    let mut m = LayerMetrics::default();
    m.set_cache(&cache_before, &cache_after);
    m.set_engine(&before, &after);
    m.set_layers(&layers);
    let tr = layers.tr;
    m.set(
        "compile.exec_ns_per_row",
        tr.durations_us("compile.execute").median() * 1e3 / state.fact.len().max(1) as f64,
    );
    m.set(
        "storage.append_us_p50",
        tr.durations_us("storage.append").median(),
    );
    m.set(
        "storage.update_us_p50",
        tr.durations_us("storage.update").median(),
    );
    m.set(
        "storage.delete_us_p50",
        tr.durations_us("storage.delete").median(),
    );
    m.set(
        "storage.snapshot_us_p50",
        tr.durations_us("storage.snapshot").median(),
    );
    m.set(
        "storage.changes_since_us_p50",
        tr.durations_us("storage.changes_since").median(),
    );
    m.set("storage.segments_max", counted_segments as f64);
    m.set("storage.compactions", counted_compactions as f64);
    m.set(
        "ivm.refresh_ms_p50",
        tr.durations_us("ivm.read_view").median() / 1e3,
    );
    let counted = |f: fn(&EngineMetrics) -> u64| (f(&counted_metrics) - f(&before)) as f64;
    m.set("ivm.view_hits", counted(|e| e.view_hits));
    m.set("ivm.delta_refreshes", counted(|e| e.delta_refreshes));
    m.set("ivm.full_recomputes", counted(|e| e.full_recomputes));
    m.set("ivm.rows_delta", counted(|e| e.rows_delta));
    m.set("ivm.rows_full", counted(|e| e.rows_full));
    let (delta, full) = (counted(|e| e.rows_delta), counted(|e| e.rows_full));
    m.set("ivm.delta_row_fraction", delta / (delta + full).max(1.0));

    // Where a cycle's time goes: the storage and view-maintenance calls
    // the workload targets, against the periodic scan through the kernels.
    let in_cycle = tr.child_totals_ns("cycle");
    let part = |name: &str| in_cycle.get(name).copied().unwrap_or(0) as f64;
    let busy_ns = [
        "engine.append_rows",
        "ivm.read_view",
        "engine.mutate_catalog",
        "engine.run",
    ]
    .map(part)
    .iter()
    .sum::<f64>()
    .max(1.0);
    let share = |name: &str| part(name) / busy_ns;
    let refresh = share("engine.append_rows") + share("ivm.read_view");
    let mutate = share("engine.mutate_catalog");
    m.set("bench.target_share", refresh + mutate);
    m.set("bench.bypass_share", share("engine.run"));
    // Mean cycle times: the scan and the mutation weigh on both sides.
    let mean = |cycles: &Samples| cycles.sum() / cycles.len().max(1) as f64;
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (mean(&t.cycle) / mean(&base.cycle).max(f64::MIN_POSITIVE) - 1.0),
    );
    m.set("bench.workload_digest", (digest & 0xffff_ffff) as f64);
    detail.push(format!(
        "engine time per cycle: append + view refresh {:.1} %, update + delete {:.1} %, scan {:.1} %; exact \
         counters over the first {COUNTED_CYCLES} traced cycles (n={} traced cycles)",
        100.0 * refresh,
        100.0 * mutate,
        100.0 * share("engine.run"),
        t.cycle.len()
    ));
    Outcome {
        attempted: state.attempted,
        failed: state.failed,
        metrics: m.metrics(),
        digest,
        detail,
        tracer: Some(tr),
    }
}
