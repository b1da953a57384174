//! `repro` — regenerate every table and figure of the Voodoo paper.
//!
//! ```text
//! repro <fig1/fig9/fig12/fig13/fig14/fig15/fig16/scaling/throughput/overload/views/ingest/ablate/opt/all> [options]
//!   --n=<elements>      microbenchmark input size   (default 1048576)
//!   --sf=<scale>        TPC-H scale factor          (default 0.02)
//!   --threads=<t>       CPU threads (scaling: the sweep's max) (default available)
//!   --iters=<i>         throughput mix repetitions per load point (default 25)
//! ```
//!
//! Absolute times will differ from the paper's 2016 testbed; the shapes
//! (who wins, where crossovers fall) are the reproduced claims. See
//! EXPERIMENTS.md.

use voodoo_bench::{figures, print_rows};

struct Opts {
    n: usize,
    sf: f64,
    threads: usize,
    iters: usize,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        n: 1 << 20,
        sf: 0.02,
        threads: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        iters: 25,
    };
    for a in args {
        if let Some(v) = a.strip_prefix("--n=") {
            o.n = v.parse().expect("--n");
        } else if let Some(v) = a.strip_prefix("--sf=") {
            o.sf = v.parse().expect("--sf");
        } else if let Some(v) = a.strip_prefix("--threads=") {
            o.threads = v.parse().expect("--threads");
        } else if let Some(v) = a.strip_prefix("--iters=") {
            o.iters = v.parse().expect("--iters");
        }
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("all");
    let o = parse_opts(&args);

    let run_fig = |name: &str| match name {
        "fig1" => print_rows(
            "Figure 1: branching vs branch-free selection (time in s)",
            &figures::fig1(o.n, o.threads),
        ),
        "fig9" => {
            println!("\n=== Figure 9: generated kernels for fused select+aggregate ===");
            println!("{}", figures::fig9_kernel_dump(o.n.min(1 << 16)));
        }
        "fig12" => print_rows(
            &format!("Figure 12: TPC-H on (simulated) GPU, SF {}", o.sf),
            &figures::fig12(o.sf),
        ),
        "fig13" => print_rows(
            &format!("Figure 13: TPC-H on CPU, SF {}", o.sf),
            &figures::fig13(o.sf, o.threads),
        ),
        // Scaled from the paper's 4MB/128MB regimes: the "large" target is
        // 16MB (beyond the modeled 8MB LLC) and the position column is 2×
        // the target so the just-in-time transform can amortize.
        "fig14" => print_rows(
            "Figure 14: just-in-time layout transformations (time in s)",
            &figures::fig14(o.n.max(1 << 21), (16 << 20) / 16),
        ),
        "fig15" => print_rows(
            "Figure 15: selection strategies (time in s, selectivity in %)",
            &figures::fig15(o.n, 4096),
        ),
        "fig16" => print_rows(
            "Figure 16: selective foreign-key join (time in s, selectivity in %)",
            &figures::fig16(o.n, 1 << 23),
        ),
        "scaling" => {
            let rows = figures::scaling(o.n, o.sf, o.threads.max(2));
            print_rows(
                &format!(
                    "Scaling: morsel workers vs time (and speedup), n = {}, SF {}",
                    o.n, o.sf
                ),
                &rows,
            );
            println!("\nspeedup per worker count (t1 / tN):");
            for r in rows.iter().filter(|r| r.series.ends_with(" speedup")) {
                println!(
                    "  {:<24} {:>4}: {:>5.2}x",
                    r.series.trim_end_matches(" speedup"),
                    r.x,
                    r.seconds.unwrap_or(0.0)
                );
            }
        }
        "throughput" => {
            let rows = figures::throughput(o.sf, &[0.5, 1.0, 2.0, 4.0], o.iters);
            print_rows(
                &format!(
                    "Serving: offered load vs sustained qps / p99 sojourn / shed rate, SF {}",
                    o.sf
                ),
                &rows,
            );
            println!("\nshed rate per load point:");
            for r in rows.iter().filter(|r| r.series.ends_with("shed-pct")) {
                println!(
                    "  {:<10} offered {:>5}: {:>6.2}% shed",
                    r.series.trim_end_matches("/shed-pct"),
                    r.x,
                    r.seconds.unwrap_or(0.0)
                );
            }
        }
        "overload" => {
            let rows = figures::overload(o.sf, &[1.0, 2.0, 4.0, 10.0], o.iters);
            print_rows(
                &format!(
                    "Overload: goodput / p99 sojourn / shed rate vs offered load, \
                     blunt vs adaptive admission, SF {}",
                    o.sf
                ),
                &rows,
            );
            println!("\ngoodput per load point (statements meeting the SLO, per second):");
            for r in rows.iter().filter(|r| r.series.ends_with("goodput-qps")) {
                println!(
                    "  {:<10} offered {:>5}: {:>8.1} qps goodput",
                    r.series.trim_end_matches("/goodput-qps"),
                    r.x,
                    r.seconds.unwrap_or(0.0)
                );
            }
        }
        "ingest" => {
            let rows = figures::ingest(o.n, o.iters.clamp(3, 9));
            print_rows(
                "Ingest: O(batch) segmented append vs O(table) seed copy-out (s per 1024-row batch)",
                &rows,
            );
            println!("\nsegment publication speedup per resident size:");
            for r in rows.iter().filter(|r| r.series == "ingest-speedup (x)") {
                println!(
                    "  {:>10} resident rows: {:>8.1}x over copy-out",
                    r.x,
                    r.seconds.unwrap_or(0.0)
                );
            }
        }
        "ablate" => {
            print_rows(
                "Ablation: empty-slot suppression (write bytes)",
                &figures::ablation_suppression(o.n),
            );
            print_rows(
                "Ablation: device cost models on one trace",
                &figures::ablation_devices(o.n.min(1 << 18)),
            );
            print_rows(
                "Ablation: PCIe shipping (the cost §5.1 excludes)",
                &figures::ablation_pcie(o.n),
            );
        }
        "opt" => print_rows(
            "Optimizer decisions (§7 future work): winner per device × selectivity",
            &figures::optimizer_decisions(o.n),
        ),
        "views" => {
            let rows = figures::views(o.n, 5);
            print_rows(
                "Views: full recompute vs 1%-mutation delta refresh (time in s)",
                &rows,
            );
            println!("\ndelta refresh vs full recompute per view shape:");
            for shape in ["filter", "group-by", "join"] {
                let get = |metric: &str| {
                    rows.iter()
                        .find(|r| r.series == format!("{shape}/{metric}"))
                        .and_then(|r| r.seconds)
                        .unwrap_or(0.0)
                };
                println!(
                    "  {:<10} {:>8.1}x faster, touching {:>6.2}% of the data \
                     ({} full-recompute fallbacks, all forced by rewrites)",
                    shape,
                    get("full-recompute") / get("delta-1pct").max(1e-9),
                    100.0 * get("delta-row-fraction"),
                    get("full-fallbacks") as u64,
                );
            }
        }
        other => {
            eprintln!("unknown figure {other:?}");
            std::process::exit(2);
        }
    };

    if cmd == "all" {
        println!("# Voodoo paper reproduction — all figures");
        println!("# n = {}, sf = {}, threads = {}", o.n, o.sf, o.threads);
        if let Err(e) = figures::verify_engines(o.sf.min(0.01)) {
            eprintln!("cross-engine verification FAILED: {e}");
            std::process::exit(1);
        }
        println!("# cross-engine verification passed");
        for f in [
            "fig1",
            "fig9",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "scaling",
            "throughput",
            "overload",
            "views",
            "ingest",
            "ablate",
            "opt",
        ] {
            run_fig(f);
        }
    } else {
        run_fig(cmd);
    }
}
