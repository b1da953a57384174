//! The repo benchmark: four seeded workloads over the voodoo engine.
//!
//! ```text
//! voodoo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! voodoo-benchmark --manifest
//! ```
//!
//! One run measures one workload for `--seconds`, checks every answer
//! against an independent oracle, prints each metric by name, unit,
//! direction and bound, and ends with one JSON line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same op sequence with a
//! span around every call into a layer, reports the per-layer metrics and
//! writes the spans to `benchmark/out/trace-<workload>.jsonl`. Omitting
//! `--workload` runs all four in turn. See `README.md`.

mod gen;
mod metrics;
mod openloop;
mod shadow;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use workloads::{Outcome, RunConfig, POOL_WORKERS};

/// The default `--seed`, and the second seed every claim must also hold on.
const DEFAULT_SEED: u64 = 20160901;
pub const VALIDATION_SEED: u64 = 77;
/// `--quick` measures for this long unless `--seconds` says otherwise.
const QUICK_SECONDS: f64 = 1.5;

struct Args {
    workload: Option<String>,
    cfg: RunConfig,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: voodoo-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       \
         voodoo-benchmark --manifest",
        names.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--manifest" => return Ok(None),
            "--quick" => quick = true,
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                workload = Some(name);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.unwrap_or(if quick {
        QUICK_SECONDS
    } else {
        RUN_SECONDS as f64
    });
    Ok(Some(Args {
        workload,
        cfg: RunConfig {
            seed,
            seconds,
            trace,
            quick,
        },
    }))
}

fn run_workload(name: &str, cfg: &RunConfig) -> Outcome {
    match name {
        "tpch_scan" => workloads::tpch_scan::run(cfg),
        "adhoc_sql" => workloads::adhoc_sql::run(cfg),
        "serve_open" => workloads::serve_open::run(cfg),
        "ingest_views" => workloads::ingest_views::run(cfg),
        other => unreachable!("parse_args admitted workload {other}"),
    }
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics`, each value printed with all its digits.
fn result_json(outcome: &Outcome, registry: &[Metric]) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .zip(registry)
        .map(|((name, value), m)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Run one workload and print its report; returns the result object.
fn report(name: &str, cfg: &RunConfig) -> (Outcome, String) {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "# workload={name} seed={} seconds={} trace={} quick={} nproc={nproc} pool_workers={POOL_WORKERS}",
        cfg.seed, cfg.seconds, cfg.trace as u8, cfg.quick
    );
    if cfg.quick {
        println!("# --quick: smoke mode, numbers are NOT comparable with a full run");
    }
    let outcome = run_workload(name, cfg);
    println!("# workload_digest={:#018x}", outcome.digest);
    for line in &outcome.detail {
        println!("# {line}");
    }
    let registry: &[Metric] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    for ((metric, value), m) in outcome.metrics.iter().zip(registry) {
        let bound = if cfg.trace {
            String::new()
        } else {
            format!(", may worsen by {:.0} %", m.bound * 100.0)
        };
        println!(
            "{metric:<32} {value:>16.6} {:<7} ({} is better{bound})",
            m.unit, m.better
        );
    }
    println!(
        "# ops attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    if let Some(tracer) = &outcome.tracer {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let json = result_json(&outcome, registry);
    (outcome, json)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let correct = match &args.workload {
        Some(name) => {
            let (outcome, json) = report(name, &args.cfg);
            println!("{json}");
            outcome.failed == 0
        }
        // Every workload in turn; the summary makes no claim.
        None => {
            let mut results = Vec::new();
            let mut correct = true;
            for w in &WORKLOADS {
                let (outcome, json) = report(w.name, &args.cfg);
                correct &= outcome.failed == 0;
                results.push(format!("\"{}\": {json}", w.name));
            }
            println!(
                "{{\"correct\": {correct}, \"seed\": {}, \"validation_seed\": {VALIDATION_SEED}, \
                 \"workloads\": {{{}}}, \"claim\": null}}",
                args.cfg.seed,
                results.join(", ")
            );
            correct
        }
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
