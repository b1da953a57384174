//! The metric and workload registry: every name the benchmark prints, with
//! its unit, direction and (end-to-end only) regression bound.
//! `BENCHMARK.json` is this file rendered by `--manifest`; a unit test
//! keeps the two equal.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// Seconds one run measures for (`--seconds` default and the manifest's
/// `run_seconds`).
pub const RUN_SECONDS: u64 = 24;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tpch_scan",
        why: "closed loop, 1 client, 14 TPC-H queries round-robin, plans cached: kernels and the morsel pool do the work, planning none",
    },
    Workload {
        name: "adhoc_sql",
        why: "closed loop, 2 clients, SQL over a 128-row table, half fresh texts: parse, lower, verify, prepare and the plan cache dominate, kernels idle",
    },
    Workload {
        name: "serve_open",
        why: "open loop, Poisson arrivals at three fixed rates through the admission queue: queueing, fairness and overload shedding dominate at the top rate",
    },
    Workload {
        name: "ingest_views",
        why: "closed loop, 1 client, append, read 8 maintained views, periodic update, delete and scan: segments, compaction and delta refresh do the work",
    },
];

/// What a user of each workload sees. Every workload reports every
/// metric; the README table says which operation fills each role.
pub const END_TO_END: [Metric; 6] = [
    e2e("light_p50_ms", "ms", "lower", 0.25),
    e2e("heavy_p50_ms", "ms", "lower", 0.20),
    e2e("tail_ms", "ms", "lower", 0.25),
    e2e("throughput_ops_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// The per-rate-step serve metrics, once per step.
macro_rules! serve_step {
    ($step:literal) => {
        [
            layer(concat!("serve.", $step, ".sojourn_ms_p50"), "ms", "lower"),
            layer(concat!("serve.", $step, ".exec_ms_p50"), "ms", "lower"),
            layer(
                concat!("serve.", $step, ".queue_wait_ms_p50"),
                "ms",
                "lower",
            ),
            layer(
                concat!("serve.", $step, ".queue_wait_ms_p99"),
                "ms",
                "lower",
            ),
            layer(
                concat!("serve.", $step, ".queue_wait_share"),
                "ratio",
                "lower",
            ),
            layer(
                concat!("serve.", $step, ".queue_depth_max"),
                "count",
                "lower",
            ),
            layer(concat!("serve.", $step, ".sheds"), "count", "lower"),
            layer(concat!("serve.", $step, ".shed_ratio"), "ratio", "lower"),
        ]
    };
}

const SERVE_LO: [Metric; 8] = serve_step!("lo");
const SERVE_MID: [Metric; 8] = serve_step!("mid");
const SERVE_HI: [Metric; 8] = serve_step!("hi");

/// Single-layer measurements of the traced run, named `<layer>.<metric>`
/// after the crate or module measured; 0 on a workload that never enters
/// the layer.
pub const PER_LAYER: [Metric; 76] = [
    layer("tpch.gen_s", "s", "lower"),
    layer("tpch.rows", "count", "higher"),
    layer("sql.parse_us_p50", "us", "lower"),
    layer("sql.lower_us_p50", "us", "lower"),
    layer("queries.plan_extract_us_p50", "us", "lower"),
    layer("verify.analyze_us_p50", "us", "lower"),
    layer("verify.statements", "count", "lower"),
    layer("verify.rejected", "count", "lower"),
    layer("backend.prepare_us_p50", "us", "lower"),
    layer("backend.cache_hits", "count", "higher"),
    layer("backend.cache_misses", "count", "lower"),
    layer("backend.cache_evictions", "count", "lower"),
    layer("backend.cache_hit_ratio", "ratio", "higher"),
    layer("compile.compile_us_p50", "us", "lower"),
    layer("compile.fragments", "count", "lower"),
    layer("compile.exec_ms_p50", "ms", "lower"),
    layer("compile.exec_ns_per_row", "ns/row", "lower"),
    layer("compile.pool_tasks_per_op", "1/op", "higher"),
    layer("compile.pool_steals_per_op", "1/op", "lower"),
    layer("compile.mean_partitions", "ratio", "higher"),
    layer("compile.events_elements", "count", "lower"),
    layer("compile.events_seq_read_bytes", "B", "lower"),
    layer("compile.events_rand_reads", "count", "lower"),
    layer("compile.events_barriers", "count", "lower"),
    layer("interp.exec_ms_p50", "ms", "lower"),
    layer("interp.cpu_speedup", "ratio", "higher"),
    layer("gpusim.simulated_s", "s", "lower"),
    layer("storage.append_us_p50", "us", "lower"),
    layer("storage.update_us_p50", "us", "lower"),
    layer("storage.delete_us_p50", "us", "lower"),
    layer("storage.snapshot_us_p50", "us", "lower"),
    layer("storage.changes_since_us_p50", "us", "lower"),
    layer("storage.segments_max", "count", "lower"),
    layer("storage.compactions", "count", "lower"),
    layer("ivm.refresh_ms_p50", "ms", "lower"),
    layer("ivm.view_hits", "count", "higher"),
    layer("ivm.delta_refreshes", "count", "higher"),
    layer("ivm.full_recomputes", "count", "lower"),
    layer("ivm.rows_delta", "count", "lower"),
    layer("ivm.rows_full", "count", "lower"),
    layer("ivm.delta_row_fraction", "ratio", "higher"),
    layer("engine.run_overhead_us_p50", "us", "lower"),
    layer("engine.queries_served", "count", "higher"),
    layer("engine.failures", "count", "lower"),
    layer("serve.submit_us_p50", "us", "lower"),
    layer("serve.gen_lag_ms_p99", "ms", "lower"),
    SERVE_LO[0],
    SERVE_LO[1],
    SERVE_LO[2],
    SERVE_LO[3],
    SERVE_LO[4],
    SERVE_LO[5],
    SERVE_LO[6],
    SERVE_LO[7],
    SERVE_MID[0],
    SERVE_MID[1],
    SERVE_MID[2],
    SERVE_MID[3],
    SERVE_MID[4],
    SERVE_MID[5],
    SERVE_MID[6],
    SERVE_MID[7],
    SERVE_HI[0],
    SERVE_HI[1],
    SERVE_HI[2],
    SERVE_HI[3],
    SERVE_HI[4],
    SERVE_HI[5],
    SERVE_HI[6],
    SERVE_HI[7],
    layer("serve.hi.adaptive_sheds", "count", "lower"),
    layer("serve.hi.deadline_drops", "count", "lower"),
    // Share of traced op time inside the layer the workload targets, and
    // inside the layer it is meant to bypass.
    layer("bench.target_share", "ratio", "higher"),
    layer("bench.bypass_share", "ratio", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    // Low 32 bits of the op-sequence hash: equal across runs of one seed.
    layer("bench.workload_digest", "count", "higher"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let metric = |m: &Metric, bound: bool| {
        let bound = if bound {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better)
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(|m| metric(m, true)).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|m| metric(m, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(PER_LAYER.len() <= 128 && manifest().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` at the repository root is `--manifest`'s output.
    #[test]
    fn the_manifest_on_disk_is_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `-- --manifest`");
    }
}
