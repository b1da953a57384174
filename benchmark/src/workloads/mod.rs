//! The four workloads and what they share: run configuration, the
//! outcome a run reports, pinned engine construction, set-up timing.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use voodoo::backend::CacheStats;
use voodoo::compile::MorselPool;
use voodoo::relational::{Engine, EngineMetrics};
use voodoo::storage::Catalog;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::median_of;
use crate::trace::Tracer;
use layers::Layers;

pub mod adhoc_sql;
pub mod ingest_views;
pub mod layers;
pub mod serve_open;
pub mod tpch_scan;

/// Morsel-pool and serve-pool size, pinned (never `available_parallelism`)
/// so two machines with different core counts run the same configuration.
pub const POOL_WORKERS: usize = 2;

/// Each run sets up this many times and reports the median as `setup_s`.
pub const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: tiny inputs, numbers not comparable to a full run.
    pub quick: bool,
}

/// What one run of one workload reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (`--trace 0`) or every per-layer metric
    /// (`--trace 1`), in registry order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Hash of the generated op sequence.
    pub digest: u64,
    /// Human-readable lines: the named operation behind each metric, with
    /// sample counts.
    pub detail: Vec<String>,
    pub tracer: Option<Tracer>,
}

/// The end-to-end metrics of one run, by role.
pub struct EndToEnd {
    pub light_p50_ms: f64,
    pub heavy_p50_ms: f64,
    pub tail_ms: f64,
    pub throughput_ops_s: f64,
    pub setup_s: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let value = |name: &str| match name {
            "light_p50_ms" => self.light_p50_ms,
            "heavy_p50_ms" => self.heavy_p50_ms,
            "tail_ms" => self.tail_ms,
            "throughput_ops_s" => self.throughput_ops_s,
            "peak_rss_mb" => peak_rss_mb(),
            "setup_s" => self.setup_s,
            other => unreachable!("unregistered end-to-end metric {other}"),
        };
        END_TO_END.iter().map(|m| (m.name, value(m.name))).collect()
    }
}

/// Per-layer values of a traced run; layers a workload never enters stay 0.
#[derive(Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let registered = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unregistered per-layer metric {name}"));
        self.0.insert(registered.name, value);
    }

    /// The value set so far (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Timings of the planning and execution layers, from the spans a
    /// traced run's replays left (0 where it left none), and the counts
    /// taken beside them.
    pub fn set_layers(&mut self, layers: &Layers) {
        let (tr, counts) = (&layers.tr, &layers.counts);
        for (metric, span) in [
            ("sql.parse_us_p50", "sql.parse"),
            ("sql.lower_us_p50", "sql.lower"),
            ("verify.analyze_us_p50", "verify.analyze"),
            ("backend.prepare_us_p50", "backend.prepare"),
            ("compile.compile_us_p50", "compile.compile"),
        ] {
            self.set(metric, tr.durations_us(span).median());
        }
        self.set(
            "compile.exec_ms_p50",
            tr.durations_us("compile.execute").median() / 1e3,
        );
        self.set("verify.statements", counts.verify_statements as f64);
        self.set("verify.rejected", counts.verify_rejected as f64);
        self.set("compile.fragments", counts.fragments as f64);
    }

    /// Plan-cache counters over a window, from two `CacheStats` readings.
    pub fn set_cache(&mut self, before: &CacheStats, after: &CacheStats) {
        let hits = (after.hits - before.hits) as f64;
        let misses = (after.misses - before.misses) as f64;
        self.set("backend.cache_hits", hits);
        self.set("backend.cache_misses", misses);
        self.set(
            "backend.cache_evictions",
            (after.evictions - before.evictions) as f64,
        );
        self.set("backend.cache_hit_ratio", hits / (hits + misses).max(1.0));
    }

    /// Engine and morsel-pool counters over a window, from two
    /// `EngineMetrics` readings.
    pub fn set_engine(&mut self, before: &EngineMetrics, after: &EngineMetrics) {
        let served = (after.queries_served - before.queries_served) as f64;
        let per_op = |delta: u64| delta as f64 / served.max(1.0);
        self.set("engine.queries_served", served);
        self.set("engine.failures", (after.failures - before.failures) as f64);
        self.set(
            "compile.pool_tasks_per_op",
            per_op(after.pool_tasks - before.pool_tasks),
        );
        self.set(
            "compile.pool_steals_per_op",
            per_op(after.steals - before.steals),
        );
        self.set(
            "compile.mean_partitions",
            per_op(after.partitions_used - before.partitions_used),
        );
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.0.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// An engine over `catalog` on its default backend, with a private
/// morsel pool of [`POOL_WORKERS`].
pub fn pinned_engine(catalog: Catalog) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(catalog));
    engine.set_morsel_pool(MorselPool::new(POOL_WORKERS));
    engine
}

/// Build the workload's state [`SETUP_REPEATS`] times (dropping each
/// before the next, so peak memory is one instance's), keep the last, and
/// return it with the median build time in seconds.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let started = Instant::now();
        state = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (state.expect("SETUP_REPEATS > 0"), median_of(&times))
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}
