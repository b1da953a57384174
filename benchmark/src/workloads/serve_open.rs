//! `serve_open`: the serving front door under an open loop.
//!
//! One generator thread submits through `ServeSession::submit_deadline` on
//! a seeded Poisson schedule, one collector thread waits on the receipts;
//! latency counts from each request's *due* time. The engine is tiny
//! (TPC-H SF 0.002 plus the 512-row `adhoc` table, everything cached), so
//! service times are short and what is measured is the admission queue:
//! idle at `lo`, busy at `mid`, shedding at `hi`. Queueing, weighted-fair
//! dequeue and overload control move these numbers; at `hi` a faster
//! kernel helps more than its share, because it also drains the queue.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;

use voodoo::baselines::hyper;
use voodoo::relational::{
    Engine, EngineMetrics, OverloadConfig, Receipt, ServeConfig, ServeError, ServerHandle,
    StatementSpec, SubmitError,
};
use voodoo::storage::Catalog;
use voodoo::tpch::queries::Query;
use voodoo::tpch::{generate_into, TpchParams};

use super::adhoc_sql::{stmt_of, table};
use super::{
    ms, pinned_engine, repeat_setup, EndToEnd, LayerMetrics, Outcome, RunConfig, POOL_WORKERS,
};
use crate::gen::{rng, stream, Digest};
use crate::openloop::{drive, latency_from_due_s, poisson_arrivals, Issued, WallClock};
use crate::shadow::Rows;
use crate::stats::{Samples, Timeline, WINDOWS};
use crate::trace::Tracer;

pub const SCALE: f64 = 0.001;
/// The three consecutive rate steps, in requests per second: ≈ 0.3×,
/// 0.45× and 1.5× the ≈ 3000/s measured on the seed. `mid` is not 0.6×:
/// the rates are absolute, the sandbox's speed drifts by 20 %, and at
/// 0.7× the adaptive controller starts to shed.
pub const RATES: [(&str, f64); 3] = [("lo", 900.0), ("mid", 1350.0), ("hi", 4500.0)];
/// A completion counts toward goodput when it is correct and arrives
/// within this long of its due time.
pub const SLO_MS: f64 = 100.0;
/// Requests carry this completion deadline past their due time; the
/// server drops what is still queued when it expires.
pub const DEADLINE_MS: f64 = 100.0;
pub const QUEUE_CAPACITY: usize = 256;
/// CoDel queue-delay target of the adaptive admission controller.
pub const OVERLOAD_TARGET_MS: u64 = 20;
/// The leading share of each step that is run but not measured.
const DISCARD_SHARE: f64 = 0.2;
const MAX_DISCARD_S: f64 = 2.0;
/// Rows of the `adhoc` table the SQL statements and views read.
const SQL_ROWS: usize = 512;
const SQL_TEXTS: usize = 24;
const VIEWS: usize = 4;

/// One servable statement and its oracle answer.
struct PoolEntry {
    spec: StatementSpec,
    label: String,
    expected: Rows,
}

struct State {
    engine: Arc<Engine>,
    server: ServerHandle,
    /// `[0, SQL_TEXTS)` grouped SQL, then `VIEWS` view reads, then Q6, Q12.
    pool: Vec<PoolEntry>,
    /// Warm-up answers, checked against `pool[i].expected` after set-up.
    warm: Vec<Option<Rows>>,
}

fn build(cfg: &RunConfig) -> State {
    let shadow = table(cfg.seed, SQL_ROWS);
    let mut cat = Catalog::in_memory();
    generate_into(
        &mut cat,
        TpchParams {
            scale: SCALE,
            seed: cfg.seed,
        },
    );
    cat.insert_table(shadow.to_table());
    let engine = pinned_engine(cat);
    let mut stmts = rng(cfg.seed, stream::STATEMENTS);
    let mut pool = Vec::new();
    for i in 0..SQL_TEXTS {
        let stmt = stmt_of(i, &mut stmts);
        let text = stmt.sql(shadow.name, shadow.cols);
        pool.push(PoolEntry {
            spec: StatementSpec::sql(text.clone()),
            label: text,
            expected: stmt.eval(shadow.rows()),
        });
    }
    for v in 0..VIEWS {
        let stmt = stmt_of(v, &mut stmts);
        let name = format!("v{v}");
        engine
            .create_view(&name, &stmt.sql(shadow.name, shadow.cols))
            .expect("the SQL subset is the view subset");
        pool.push(PoolEntry {
            spec: StatementSpec::view(name.clone()),
            label: format!("view {name}"),
            expected: stmt.eval(shadow.rows()),
        });
    }
    let snapshot = engine.snapshot();
    for q in [Query::Q6, Query::Q12] {
        pool.push(PoolEntry {
            spec: StatementSpec::tpch(q),
            label: q.name(),
            expected: hyper::run(&snapshot, q).rows,
        });
    }
    let server = engine.serve(
        ServeConfig::default()
            .with_workers(POOL_WORKERS)
            .with_intra_budget(1)
            .with_queue_capacity(QUEUE_CAPACITY)
            .with_overload(
                OverloadConfig::with_target(Duration::from_millis(OVERLOAD_TARGET_MS))
                    .with_seed(cfg.seed),
            ),
    );
    // Warm every plan through the front door, one at a time.
    let warm = pool
        .iter()
        .map(|entry| {
            let receipt = server.submit_wait(entry.spec.clone(), None).ok()?;
            Some(receipt.wait().ok()?.into_rows().rows)
        })
        .collect();
    State {
        engine,
        server,
        pool,
        warm,
    }
}

/// The request mix: 60 % grouped SQL, 30 % view reads, 10 % TPC-H.
fn draw_kind(r: &mut impl Rng) -> usize {
    match r.gen_range(0..10) {
        0..=5 => r.gen_range(0..SQL_TEXTS),
        6..=8 => SQL_TEXTS + r.gen_range(0..VIEWS),
        _ => SQL_TEXTS + VIEWS + r.gen_range(0..2),
    }
}

/// What the collector saw of one step's measured part.
#[derive(Default)]
struct StepStats {
    /// Latency of every correct completion, stamped with seconds into the
    /// measured part.
    latency: Timeline,
    /// Latency of the TPC-H requests alone.
    heavy: Samples,
    sojourn: Samples,
    submit_us: Samples,
    lag: Samples,
    measured: u64,
    good: u64,
    shed: u64,
    dropped: u64,
    /// Wrong answers and engine errors: failures at every rate.
    broken: u64,
}

type Sent = (Issued<Result<Receipt, SubmitError>>, usize);

/// Wait for every receipt of one step in submission order. With a
/// tracer (whose epoch is `step_offset_s` before the step's start), each
/// measured request becomes a `request` span from its due time to its
/// completion, over `serve.submit` and `serve.sojourn`.
fn collect(
    rx: mpsc::Receiver<Sent>,
    pool: &[PoolEntry],
    discard_s: f64,
    mut tracer: Option<(Tracer, f64)>,
) -> (StepStats, Option<Tracer>) {
    let mut s = StepStats::default();
    for (issued, kind) in rx {
        let Issued {
            index,
            due_s,
            lag_s,
            submit_s,
            receipt,
        } = issued;
        // Every receipt is waited for, measured or not, so the step ends
        // with an empty queue.
        let outcome = receipt.map(Receipt::wait_completion);
        if due_s < discard_s {
            continue;
        }
        s.measured += 1;
        s.submit_us.push(submit_s * 1e6);
        s.lag.push(lag_s);
        match outcome {
            Ok(completion) => match completion.result {
                Ok(out) if out.rows().rows == pool[kind].expected => {
                    let sojourn = completion.sojourn.as_secs_f64();
                    let latency = latency_from_due_s(lag_s, sojourn);
                    s.sojourn.push(sojourn);
                    s.latency.push(due_s - discard_s, latency);
                    if kind >= SQL_TEXTS + VIEWS {
                        s.heavy.push(latency);
                    }
                    s.good += u64::from(ms(latency) <= SLO_MS);
                    if let Some((tr, step_offset_s)) = tracer.as_mut() {
                        let at = |t: f64| ((*step_offset_s + t) * 1e9) as u64;
                        let submitted = due_s + lag_s;
                        let op = index as u64;
                        let root = tr.record("request", (at(due_s), at(due_s + latency)), None, op);
                        let submit = (at(submitted), at(submitted + submit_s));
                        tr.record("serve.submit", submit, Some(root), op);
                        let served = (at(submitted), at(submitted + sojourn));
                        tr.record("serve.sojourn", served, Some(root), op);
                    }
                }
                Err(ServeError::Timeout) => s.dropped += 1,
                _ => s.broken += 1,
            },
            Err(refused) if refused.is_retryable() => s.shed += 1,
            Err(_) => s.broken += 1,
        }
    }
    (s, tracer.map(|(tr, _)| tr))
}

struct Step {
    name: &'static str,
    rate: f64,
    duration_s: f64,
    discard_s: f64,
    stats: StepStats,
    queue_depth_max: usize,
    before: EngineMetrics,
    after: EngineMetrics,
    tracer: Option<Tracer>,
}

impl Step {
    fn measured_s(&self) -> f64 {
        self.duration_s - self.discard_s
    }

    /// Correct completions within the SLO per second: the median over
    /// the step's time windows.
    fn goodput_qps(&self) -> f64 {
        let window_s = self.measured_s() / WINDOWS as f64;
        self.stats.latency.windowed(self.measured_s(), |w| {
            w.count_at_most(SLO_MS / 1e3) as f64 / window_s
        })
    }

    /// Requests that must not fail: everything at `lo`/`mid`, wrong
    /// answers and engine errors at `hi` (its sheds and deadline drops
    /// are the overload control working, and lower goodput instead).
    fn failed(&self) -> u64 {
        let refused = self.stats.shed + self.stats.dropped;
        self.stats.broken + if self.name == "hi" { 0 } else { refused }
    }
}

fn run_step(
    state: &State,
    seed: u64,
    index: usize,
    duration_s: f64,
    // The traced run's span clock; also turns queue-depth sampling on.
    epoch: Option<Instant>,
    digest: &mut Digest,
) -> Step {
    let (name, rate) = RATES[index];
    let arrivals = poisson_arrivals(
        &mut rng(seed, stream::ARRIVALS + index as u64),
        rate,
        duration_s,
    );
    let mut kinds_rng = rng(seed, stream::KINDS + index as u64);
    let kinds: Vec<usize> = arrivals.iter().map(|_| draw_kind(&mut kinds_rng)).collect();
    digest.str(name);
    for (at, kind) in arrivals.iter().zip(&kinds) {
        digest.i64s(&[(at * 1e9) as i64, *kind as i64]);
    }
    let discard_s = (duration_s * DISCARD_SHARE).min(MAX_DISCARD_S);
    let session = state.server.session(1);
    let before = state.engine.metrics();
    let mut queue_depth_max = 0;
    let (tx, rx) = mpsc::channel::<Sent>();
    let (stats, tracer) = std::thread::scope(|scope| {
        let started = Instant::now();
        let tracer = epoch.map(|e| (Tracer::new(e), (started - e).as_secs_f64()));
        let collector = scope.spawn(|| collect(rx, &state.pool, discard_s, tracer));
        drive(
            &mut WallClock(started),
            &arrivals,
            |i, _| {
                let due = started + Duration::from_secs_f64(arrivals[i]);
                session.submit_deadline(
                    state.pool[kinds[i]].spec.clone(),
                    due + Duration::from_secs_f64(DEADLINE_MS / 1e3),
                )
            },
            |issued| {
                // Sampling takes the queue's lock: every 8th submit only.
                if epoch.is_some() && issued.index % 8 == 0 {
                    queue_depth_max = queue_depth_max.max(state.server.queue_depth());
                }
                let kind = kinds[issued.index];
                tx.send((issued, kind))
                    .expect("collector outlives the generator");
            },
        );
        drop(tx);
        collector.join().expect("collector thread")
    });
    Step {
        name,
        rate,
        duration_s,
        discard_s,
        stats,
        queue_depth_max,
        before,
        after: state.engine.metrics(),
        tracer,
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let (state, setup_s) = repeat_setup(|| build(cfg));
    let warm_failed = state
        .warm
        .iter()
        .zip(&state.pool)
        .filter(|(got, entry)| got.as_ref() != Some(&entry.expected))
        .count() as u64;
    let mut digest = Digest::default();
    for entry in &state.pool {
        digest.str(&entry.label);
    }
    let step_s = cfg.seconds / RATES.len() as f64;
    let epoch = cfg.trace.then(Instant::now);
    let mut steps: Vec<Step> = (0..RATES.len())
        .map(|i| run_step(&state, cfg.seed, i, step_s, epoch, &mut digest))
        .collect();
    state.server.shutdown();
    let digest = digest.value();
    let attempted: u64 =
        steps.iter().map(|s| s.stats.measured).sum::<u64>() + state.pool.len() as u64;
    let failed: u64 = steps.iter().map(Step::failed).sum::<u64>() + warm_failed;
    let mut detail = vec![format!(
        "{} SQL texts + {VIEWS} views + Q6/Q12 at SF {SCALE}; SLO {SLO_MS} ms, deadline {DEADLINE_MS} ms, \
         queue {QUEUE_CAPACITY}, {POOL_WORKERS} workers",
        SQL_TEXTS
    )];
    for s in &mut steps {
        let mut latency = s.stats.latency.values();
        let (q, tail) = latency.tail();
        detail.push(format!(
            "  {:>3} {:>6.0} qps: n={} p50 {:.3} ms (tpch {:.3} ms) p{:.0} {:.3} ms good {} shed {} dropped {} \
             broken {} gen-lag p99 {:.3} ms",
            s.name,
            s.rate,
            s.stats.measured,
            ms(latency.median()),
            ms(s.stats.heavy.median()),
            q * 100.0,
            ms(tail),
            s.stats.good,
            s.stats.shed,
            s.stats.dropped,
            s.stats.broken,
            ms(s.stats.lag.percentile(0.99)),
        ));
    }

    if !cfg.trace {
        let [lo, mid, hi] = &mut steps[..] else {
            unreachable!("three rate steps")
        };
        let (tail_q, tail) = mid.stats.latency.windowed_tail(mid.measured_s());
        let e2e = EndToEnd {
            light_p50_ms: ms(lo.stats.latency.windowed(lo.measured_s(), Samples::median)),
            heavy_p50_ms: ms(mid.stats.heavy.median()),
            tail_ms: ms(tail),
            throughput_ops_s: hi.goodput_qps(),
            setup_s,
        };
        detail.push(format!(
            "light_p50_ms = lo_p50_ms; heavy_p50_ms = mid_tpch_p50_ms (n={}); tail_ms = mid_p{:.0}_ms; \
             throughput_ops_s = hi_goodput_qps (within {SLO_MS} ms); all but heavy are medians of {WINDOWS} windows",
            mid.stats.heavy.len(),
            tail_q * 100.0
        ));
        return Outcome {
            attempted,
            failed,
            metrics: e2e.metrics(),
            digest,
            detail,
            tracer: None,
        };
    }

    let mut m = LayerMetrics::default();
    let mut submit_us = Samples::new();
    let mut lag = Samples::new();
    for s in &mut steps {
        submit_us.extend(&s.stats.submit_us);
        lag.extend(&s.stats.lag);
        let sojourn_p50 = ms(s.stats.sojourn.median());
        let sojourn_p99 = ms(s.stats.sojourn.percentile(0.99));
        // The engine's execution reservoir holds the step's last ≤ 1024
        // statements; queue wait is sojourn minus execution.
        let exec_p50 = ms(s.after.p50_seconds.unwrap_or(0.0));
        let exec_p99 = ms(s.after.p99_seconds.unwrap_or(0.0));
        let wait_p50 = (sojourn_p50 - exec_p50).max(0.0);
        let mut set = |metric: &str, v: f64| m.set(&format!("serve.{}.{metric}", s.name), v);
        set("sojourn_ms_p50", sojourn_p50);
        set("exec_ms_p50", exec_p50);
        set("queue_wait_ms_p50", wait_p50);
        set("queue_wait_ms_p99", (sojourn_p99 - exec_p99).max(0.0));
        set(
            "queue_wait_share",
            wait_p50 / sojourn_p50.max(f64::MIN_POSITIVE),
        );
        set("queue_depth_max", s.queue_depth_max as f64);
        set("sheds", (s.after.sheds - s.before.sheds) as f64);
        set(
            "shed_ratio",
            s.stats.shed as f64 / s.stats.measured.max(1) as f64,
        );
        if s.name == "hi" {
            m.set(
                "serve.hi.adaptive_sheds",
                (s.after.adaptive_sheds - s.before.adaptive_sheds) as f64,
            );
            m.set(
                "serve.hi.deadline_drops",
                (s.after.deadline_drops - s.before.deadline_drops) as f64,
            );
        }
    }
    m.set("serve.submit_us_p50", submit_us.median());
    m.set("serve.gen_lag_ms_p99", ms(lag.percentile(0.99)));
    let (first, last) = (&steps[0].before, &steps[RATES.len() - 1].after);
    m.set_engine(first, last);
    m.set("ivm.view_hits", (last.view_hits - first.view_hits) as f64);
    m.set("bench.workload_digest", (digest & 0xffff_ffff) as f64);
    let hi_share = m.get("serve.hi.queue_wait_share");
    let lo_share = m.get("serve.lo.queue_wait_share");
    m.set("bench.target_share", hi_share);
    m.set("bench.bypass_share", lo_share);
    let mut tracer = Tracer::new(epoch.expect("traced runs have a span clock"));
    for s in &mut steps {
        tracer.absorb(s.tracer.take().expect("traced steps return their spans"));
    }
    Outcome {
        attempted,
        failed,
        metrics: m.metrics(),
        digest,
        detail,
        tracer: Some(tracer),
    }
}
