//! Row generators for every figure of the paper's evaluation.
//!
//! Every Voodoo execution goes through the unified backend API
//! (`voodoo_backend::Backend` / the relational `Session`): programs are
//! prepared once and the prepared plan is what the timing loops re-run —
//! the compile-once-run-many path a serving system would take.

use voodoo_backend::{Backend, CpuBackend, Parallelism, SimGpuBackend};
use voodoo_compile::exec::ExecOptions;
use voodoo_compile::{kernel, Compiler, Device};
use voodoo_gpusim::{CostModel, GpuSimulator};
use voodoo_relational::Session;
use voodoo_storage::Catalog;
use voodoo_tpch::queries::{Query, CPU_QUERIES, GPU_QUERIES};

use crate::micro::{self, Pattern};
use crate::timing::{consume, time_secs};
use crate::FigRow;

fn run_cpu(cat: &Catalog, p: &voodoo_core::Program, predicated: bool, threads: usize) -> f64 {
    let backend = CpuBackend::new(ExecOptions {
        predicated_select: predicated,
        parallelism: if threads > 1 {
            Parallelism::Fixed(threads)
        } else {
            Parallelism::Off
        },
        ..Default::default()
    });
    let plan = backend.prepare(p, cat).expect("prepare");
    time_secs(3, || {
        consume(plan.execute(cat).expect("run"));
    })
}

/// Price the measured event trace with the single-thread CPU model —
/// isolates architectural effects (branch flips, cache misses) from the
/// backend's interpretive overhead, the same methodology as the GPU.
fn run_cpu_model(cat: &Catalog, p: &voodoo_core::Program, predicated: bool) -> f64 {
    let backend = CpuBackend::new(ExecOptions {
        predicated_select: predicated,
        ..Default::default()
    });
    let plan = backend.prepare(p, cat).expect("prepare");
    let units = plan.profile(cat).expect("profile").unit_events;
    CostModel::new(Device::cpu_single_thread())
        .price(&units)
        .seconds
}

fn run_gpu(cat: &Catalog, p: &voodoo_core::Program, predicated: bool) -> f64 {
    let backend = SimGpuBackend::new(GpuSimulator::titan_x().with_predication(predicated));
    let plan = backend.prepare(p, cat).expect("prepare");
    plan.profile(cat)
        .expect("gpu sim")
        .simulated_seconds()
        .expect("priced")
}

/// Figure 1: branching vs branch-free selection across selectivities, on
/// one thread, several threads and the simulated GPU.
pub fn fig1(n: usize, threads: usize) -> Vec<FigRow> {
    let cat = micro::selection_catalog(n, 42);
    let mut rows = Vec::new();
    for sel_pct in [1.0, 5.0, 10.0, 50.0, 100.0] {
        let c = micro::cutoff(sel_pct / 100.0);
        let p = micro::prog_filter_materialize(c);
        rows.push(FigRow::new(
            "Single Thread Branch",
            sel_pct,
            Some(run_cpu(&cat, &p, false, 1)),
        ));
        rows.push(FigRow::new(
            "Single Thread No Branch",
            sel_pct,
            Some(run_cpu(&cat, &p, true, 1)),
        ));
        rows.push(FigRow::new(
            "Multithread Branch",
            sel_pct,
            Some(run_cpu(&cat, &p, false, threads)),
        ));
        rows.push(FigRow::new(
            "Multithread No Branch",
            sel_pct,
            Some(run_cpu(&cat, &p, true, threads)),
        ));
        rows.push(FigRow::new(
            "GPU Branch",
            sel_pct,
            Some(run_gpu(&cat, &p, false)),
        ));
        rows.push(FigRow::new(
            "GPU No Branch",
            sel_pct,
            Some(run_gpu(&cat, &p, true)),
        ));
    }
    rows
}

/// Figure 9 (qualitative): the generated kernel source for the fused
/// select-and-aggregate plan of Figure 8.
pub fn fig9_kernel_dump(n: usize) -> String {
    let cat = micro::selection_catalog(n, 1);
    let p = micro::prog_select_sum_branching(micro::cutoff(0.5));
    let cp = Compiler::new(&cat).compile(&p).expect("compile");
    kernel::render_opencl(&cp)
}

/// Figure 12: TPC-H on the (simulated) GPU — Voodoo vs Ocelot.
pub fn fig12(sf: f64) -> Vec<FigRow> {
    let session = Session::tpch(sf);
    let model = CostModel::titan_x();
    let cat = session.catalog();
    let mut rows = Vec::new();
    for q in GPU_QUERIES {
        // Voodoo: profile the statement on the session's gpu backend; the
        // cost model prices every program of the plan.
        let prof = session.query(q).profile_on("gpu").expect("gpu profile");
        rows.push(FigRow::new("Voodoo", q.name(), prof.simulated_seconds));

        // Ocelot: bulk-processor traffic priced at GPU bandwidth plus one
        // kernel launch per materializing operator.
        voodoo_baselines::ocelot::stats_reset();
        let r = voodoo_baselines::ocelot::run(&cat, q);
        let (traffic, ops) = voodoo_baselines::ocelot::stats();
        let secs = r.map(|_| {
            traffic as f64 / model.device.mem_bandwidth + ops as f64 * model.device.barrier_cost
        });
        rows.push(FigRow::new("Ocelot", q.name(), secs));
    }
    rows
}

/// Figure 13: TPC-H on the CPU — HyPeR vs Voodoo vs Ocelot, wall clock.
///
/// The Voodoo series times prepared-plan execution through the `Session`:
/// the first run compiles and caches, the timed runs hit the plan cache —
/// the compile-once-run-many serving path.
pub fn fig13(sf: f64, threads: usize) -> Vec<FigRow> {
    let session = Session::tpch(sf);
    session.register(
        "cpu",
        std::sync::Arc::new(CpuBackend::with_threads(threads)),
    );
    let cat = session.catalog();
    let mut rows = Vec::new();
    for q in CPU_QUERIES {
        let h = time_secs(3, || consume(voodoo_baselines::hyper::run(&cat, q)));
        rows.push(FigRow::new("HyPeR", q.name(), Some(h)));
        let stmt = session.query(q);
        let v = time_secs(3, || consume(stmt.run().expect("voodoo run")));
        rows.push(FigRow::new("Voodoo", q.name(), Some(v)));
        let o = if voodoo_baselines::ocelot::supported(q) {
            Some(time_secs(3, || {
                consume(voodoo_baselines::ocelot::run(&cat, q))
            }))
        } else {
            None
        };
        rows.push(FigRow::new("Ocelot", q.name(), o));
    }
    rows
}

/// Figure 14: just-in-time layout transforms across access patterns —
/// (a) hand-written, (b) Voodoo on CPU, (c) Voodoo on simulated GPU.
pub fn fig14(n_pos: usize, large_rows: usize) -> Vec<FigRow> {
    type Variant = (&'static str, u8, fn() -> voodoo_core::Program);
    let mut rows = Vec::new();
    let variants: [Variant; 3] = [
        ("Single Loop", 0, micro::prog_layout_single),
        ("Separate Loops", 1, micro::prog_layout_separate),
        ("Layout Transform", 2, micro::prog_layout_transform),
    ];
    for pattern in Pattern::all() {
        let random = pattern != Pattern::Sequential;
        let target_rows = pattern.target_rows(large_rows);
        let cat = micro::layout_catalog(n_pos, target_rows, random, 77);
        let t = cat.table("target2").unwrap();
        let c1 = t
            .column("c1")
            .unwrap()
            .data
            .buffer()
            .as_i64()
            .unwrap()
            .to_vec();
        let c2 = t
            .column("c2")
            .unwrap()
            .data
            .buffer()
            .as_i64()
            .unwrap()
            .to_vec();
        let pos = cat
            .table("positions")
            .unwrap()
            .column("val")
            .unwrap()
            .data
            .buffer()
            .as_i64()
            .unwrap()
            .to_vec();
        for (name, which, prog) in &variants {
            let w = *which;
            let c = time_secs(3, || consume(micro::c_layout(&c1, &c2, &pos, w)));
            rows.push(FigRow::new(&format!("C/{name}"), pattern.label(), Some(c)));
            let p = prog();
            rows.push(FigRow::new(
                &format!("VoodooCPU/{name}"),
                pattern.label(),
                Some(run_cpu(&cat, &p, false, 1)),
            ));
            rows.push(FigRow::new(
                &format!("VoodooGPU/{name}"),
                pattern.label(),
                Some(run_gpu(&cat, &p, false)),
            ));
        }
    }
    rows
}

/// Figure 15: selection strategies across selectivities —
/// (a) hand-written, (b) Voodoo CPU, (c) Voodoo simulated GPU.
pub fn fig15(n: usize, chunk: usize) -> Vec<FigRow> {
    let cat = micro::selection_catalog(n, 42);
    let vals = cat
        .table("vals")
        .unwrap()
        .column("val")
        .unwrap()
        .data
        .buffer()
        .as_i64()
        .unwrap()
        .to_vec();
    let mut rows = Vec::new();
    for sel_pct in [0.01, 0.1, 1.0, 10.0, 50.0, 100.0] {
        let c = micro::cutoff(sel_pct / 100.0);
        // (a) hand-written.
        rows.push(FigRow::new(
            "C/Branching",
            sel_pct,
            Some(time_secs(3, || {
                consume(micro::c_select_sum_branching(&vals, c))
            })),
        ));
        rows.push(FigRow::new(
            "C/Branch-Free",
            sel_pct,
            Some(time_secs(3, || {
                consume(micro::c_select_sum_predicated(&vals, c))
            })),
        ));
        rows.push(FigRow::new(
            "C/Vectorized",
            sel_pct,
            Some(time_secs(3, || {
                consume(micro::c_select_sum_vectorized(&vals, c, chunk))
            })),
        ));
        // (b) Voodoo on CPU.
        let branching = micro::prog_select_sum_branching(c);
        let predicated = micro::prog_select_sum_predicated(c);
        let vectorized = micro::prog_select_sum_vectorized(c, chunk);
        rows.push(FigRow::new(
            "VoodooCPU/Branching",
            sel_pct,
            Some(run_cpu(&cat, &branching, false, 1)),
        ));
        rows.push(FigRow::new(
            "VoodooCPU/Branch-Free",
            sel_pct,
            Some(run_cpu(&cat, &predicated, false, 1)),
        ));
        rows.push(FigRow::new(
            "VoodooCPU/Vectorized",
            sel_pct,
            Some(run_cpu(&cat, &vectorized, true, 1)),
        ));
        // Model-priced CPU (architectural effects without backend overhead).
        rows.push(FigRow::new(
            "VoodooCPUModel/Branching",
            sel_pct,
            Some(run_cpu_model(&cat, &branching, false)),
        ));
        rows.push(FigRow::new(
            "VoodooCPUModel/Branch-Free",
            sel_pct,
            Some(run_cpu_model(&cat, &predicated, false)),
        ));
        rows.push(FigRow::new(
            "VoodooCPUModel/Vectorized",
            sel_pct,
            Some(run_cpu_model(&cat, &vectorized, true)),
        ));
        // (c) Voodoo on the simulated GPU.
        rows.push(FigRow::new(
            "VoodooGPU/Branching",
            sel_pct,
            Some(run_gpu(&cat, &branching, false)),
        ));
        rows.push(FigRow::new(
            "VoodooGPU/Branch-Free",
            sel_pct,
            Some(run_gpu(&cat, &predicated, false)),
        ));
        rows.push(FigRow::new(
            "VoodooGPU/Vectorized",
            sel_pct,
            Some(run_gpu(&cat, &vectorized, true)),
        ));
    }
    rows
}

/// Figure 16: selective foreign-key joins across selectivities.
pub fn fig16(n_fact: usize, n_target: usize) -> Vec<FigRow> {
    let cat = micro::fkjoin_catalog(n_fact, n_target, 42);
    let fact = cat.table("fact").unwrap();
    let v = fact
        .column("v")
        .unwrap()
        .data
        .buffer()
        .as_i64()
        .unwrap()
        .to_vec();
    let fk = fact
        .column("fk")
        .unwrap()
        .data
        .buffer()
        .as_i64()
        .unwrap()
        .to_vec();
    let target = cat
        .table("target")
        .unwrap()
        .column("val")
        .unwrap()
        .data
        .buffer()
        .as_i64()
        .unwrap()
        .to_vec();
    let mut rows = Vec::new();
    for sel_pct in [10.0, 30.0, 50.0, 70.0, 90.0] {
        let c = sel_pct as i64; // v uniform in [0, 100)
        for (name, which) in [
            ("Branching", 0u8),
            ("PredicatedAgg", 1),
            ("PredicatedLookups", 2),
        ] {
            rows.push(FigRow::new(
                &format!("C/{name}"),
                sel_pct,
                Some(time_secs(3, || {
                    consume(micro::c_fk_join(&v, &fk, &target, c, which))
                })),
            ));
        }
        let branching = micro::prog_fk_branching(c);
        let pagg = micro::prog_fk_predicated_agg(c);
        let plook = micro::prog_fk_predicated_lookups(c);
        rows.push(FigRow::new(
            "VoodooCPU/Branching",
            sel_pct,
            Some(run_cpu(&cat, &branching, false, 1)),
        ));
        rows.push(FigRow::new(
            "VoodooCPU/PredicatedAgg",
            sel_pct,
            Some(run_cpu(&cat, &pagg, false, 1)),
        ));
        rows.push(FigRow::new(
            "VoodooCPU/PredicatedLookups",
            sel_pct,
            Some(run_cpu(&cat, &plook, false, 1)),
        ));
        rows.push(FigRow::new(
            "VoodooCPUModel/Branching",
            sel_pct,
            Some(run_cpu_model(&cat, &branching, false)),
        ));
        rows.push(FigRow::new(
            "VoodooCPUModel/PredicatedAgg",
            sel_pct,
            Some(run_cpu_model(&cat, &pagg, false)),
        ));
        rows.push(FigRow::new(
            "VoodooCPUModel/PredicatedLookups",
            sel_pct,
            Some(run_cpu_model(&cat, &plook, false)),
        ));
        rows.push(FigRow::new(
            "VoodooGPU/Branching",
            sel_pct,
            Some(run_gpu(&cat, &branching, false)),
        ));
        rows.push(FigRow::new(
            "VoodooGPU/PredicatedAgg",
            sel_pct,
            Some(run_gpu(&cat, &pagg, false)),
        ));
        rows.push(FigRow::new(
            "VoodooGPU/PredicatedLookups",
            sel_pct,
            Some(run_gpu(&cat, &plook, false)),
        ));
    }
    rows
}

/// The serving figure: **offered load vs sustained throughput, tail
/// latency and shed rate** over the admission-controlled front door
/// (`relational::serve`) — the classic open-loop hockey-stick.
///
/// For each backend the statement mix is warmed (so the measured regime
/// is the compile-once-run-many serving path), the pool's closed-loop
/// capacity is estimated, and then an open-loop arrival process submits
/// at `multiplier × capacity` for each multiplier in `load_multipliers`.
/// Arrivals beyond the bounded queue are shed, not queued: past the
/// knee, sustained throughput plateaus at capacity, p99 sojourn jumps to
/// the queue-drain time, and the shed rate absorbs the rest.
///
/// Three rows per (backend, load point):
/// `<backend>/sustained-qps`, `<backend>/p99-sojourn-ms` and
/// `<backend>/shed-pct`, with the offered multiplier as the x label.
pub fn throughput(sf: f64, load_multipliers: &[f64], iters: usize) -> Vec<FigRow> {
    use std::time::{Duration, Instant};
    use voodoo_relational::{ServeConfig, StatementSpec, SubmitError};
    use voodoo_tpch::queries::Query;

    let session = Session::tpch(sf);
    let sql = "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem \
               GROUP BY l_returnflag";
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(4);
    let mut rows = Vec::new();
    for backend in ["interp", "cpu", "gpu"] {
        let mix: Vec<StatementSpec> = vec![
            StatementSpec::tpch(Query::Q1).on(backend),
            StatementSpec::tpch(Query::Q6).on(backend),
            StatementSpec::tpch(Query::Q12).on(backend),
            StatementSpec::tpch(Query::Q19).on(backend),
            StatementSpec::sql(sql).on(backend),
        ];
        // Warm the plan cache (every statement compiles here), then
        // calibrate capacity by driving the SAME pool shape the sweep
        // uses, closed-loop and cache-warm: a different worker count or
        // cold compile time in the timed window would mis-place the knee.
        session.run_batch(&mix).into_iter().for_each(|r| {
            consume(r.expect("warmup statement"));
        });
        let calibrator = session.serve(
            ServeConfig::default()
                .with_workers(workers)
                .with_queue_capacity(2 * workers),
        );
        let passes = 2;
        let warm_started = Instant::now();
        for _ in 0..passes {
            let receipts: Vec<_> = mix
                .iter()
                .map(|spec| {
                    calibrator
                        .submit_wait(spec.clone(), None)
                        .expect("blocking admission")
                })
                .collect();
            for r in receipts {
                consume(r.wait().expect("calibration statement"));
            }
        }
        let capacity_qps =
            ((passes * mix.len()) as f64 / warm_started.elapsed().as_secs_f64()).max(1.0);
        calibrator.shutdown();

        for &multiplier in load_multipliers {
            let offered_qps = capacity_qps * multiplier;
            let interval = Duration::from_secs_f64(1.0 / offered_qps);
            let total = (iters * mix.len()).max(1);
            let server = session.serve(
                ServeConfig::default()
                    .with_workers(workers)
                    .with_queue_capacity(2 * workers),
            );
            let started = Instant::now();
            let mut receipts = Vec::new();
            let mut shed = 0usize;
            for i in 0..total {
                let arrival = started + interval * i as u32;
                if let Some(wait) = arrival.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                match server.submit(mix[i % mix.len()].clone()) {
                    Ok(r) => receipts.push(r),
                    Err(SubmitError::QueueFull) => shed += 1,
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            let mut sojourns: Vec<f64> = receipts
                .into_iter()
                .map(|r| {
                    let c = r.wait_completion();
                    c.result.expect("mix statement");
                    c.sojourn.as_secs_f64()
                })
                .collect();
            let elapsed = started.elapsed().as_secs_f64();
            server.shutdown();
            sojourns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let p99 = sojourns
                .get(((sojourns.len().saturating_sub(1)) as f64 * 0.99).round() as usize)
                .copied();
            let x = format!("{multiplier}x");
            rows.push(FigRow::new(
                &format!("{backend}/sustained-qps"),
                &x,
                Some(sojourns.len() as f64 / elapsed),
            ));
            rows.push(FigRow::new(
                &format!("{backend}/p99-sojourn-ms"),
                &x,
                p99.map(|s| s * 1e3),
            ));
            rows.push(FigRow::new(
                &format!("{backend}/shed-pct"),
                &x,
                Some(100.0 * shed as f64 / total as f64),
            ));
        }
    }
    rows
}

/// The overload-control figure: **goodput, p99 sojourn and shed rate vs
/// offered load, blunt vs adaptive admission** over the same serving
/// front door.
///
/// "Blunt" is the bounded queue alone: every arrival that finds a free
/// slot is admitted, so past the knee the queue sits full, every served
/// statement pays the full queue-drain sojourn, and goodput (statements
/// completing within the latency SLO) collapses even though raw
/// throughput stays at capacity. "Adaptive" adds the CoDel-style
/// controller ([`voodoo_relational::OverloadConfig`]): when the minimum
/// sojourn over an interval stays above target, admission sheds
/// probabilistically *before* the queue fills, so the statements that
/// are admitted still meet the SLO.
///
/// Arrivals carry a propagated deadline (the SLO), so work that expires
/// while queued is dropped at dequeue instead of burning a worker.
/// Goodput counts completions within the SLO. Three rows per
/// (mode, load point): `<mode>/goodput-qps`, `<mode>/p99-sojourn-ms`,
/// `<mode>/shed-pct`, with the offered multiplier as the x label.
pub fn overload(sf: f64, load_multipliers: &[f64], iters: usize) -> Vec<FigRow> {
    use std::time::{Duration, Instant};
    use voodoo_relational::{OverloadConfig, ServeConfig, ServeError, StatementSpec, SubmitError};
    use voodoo_tpch::queries::Query;

    let session = Session::tpch(sf);
    let spec = StatementSpec::tpch(Query::Q6).on("interp");
    let workers = 2usize;

    // Warm the plan cache, then calibrate closed-loop capacity and the
    // per-statement service time on the same pool shape the sweep uses.
    session
        .run_batch(std::slice::from_ref(&spec))
        .into_iter()
        .for_each(|r| consume(r.expect("warmup statement")));
    let calibrator = session.serve(
        ServeConfig::default()
            .with_workers(workers)
            .with_queue_capacity(2 * workers),
    );
    let calib_n = 16usize;
    let calib_started = Instant::now();
    let receipts: Vec<_> = (0..calib_n)
        .map(|_| {
            calibrator
                .submit_wait(spec.clone(), None)
                .expect("blocking admission")
        })
        .collect();
    for r in receipts {
        consume(r.wait().expect("calibration statement"));
    }
    let capacity_qps = (calib_n as f64 / calib_started.elapsed().as_secs_f64()).max(1.0);
    calibrator.shutdown();
    let service = Duration::from_secs_f64(workers as f64 / capacity_qps);
    // The controller holds standing delay near one service time,
    // re-evaluating every service time; the SLO (the goodput bar, and
    // the propagated deadline) is 4×. The queue is deep enough that
    // blunt admission alone drains in 8× — well past the SLO.
    let target = service;
    let slo = 4 * service;

    let queue_capacity = 8 * workers;
    let mut rows = Vec::new();
    for (mode, overload_cfg) in [
        ("blunt", None),
        (
            "adaptive",
            Some(OverloadConfig::with_target(target).with_interval(target)),
        ),
    ] {
        for &multiplier in load_multipliers {
            let offered_qps = capacity_qps * multiplier;
            let interval = Duration::from_secs_f64(1.0 / offered_qps);
            let total = iters.max(1) * 8;
            let mut config = ServeConfig::default()
                .with_workers(workers)
                .with_queue_capacity(queue_capacity);
            if let Some(cfg) = overload_cfg {
                config = config.with_overload(cfg);
            }
            let server = session.serve(config);
            let tenant = server.session(1);
            let started = Instant::now();
            let mut receipts = Vec::new();
            let mut shed = 0usize;
            for i in 0..total {
                let arrival = started + interval * i as u32;
                if let Some(wait) = arrival.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                match tenant.submit_deadline(spec.clone(), Instant::now() + slo) {
                    Ok(r) => receipts.push(r),
                    Err(SubmitError::QueueFull | SubmitError::Overloaded) => shed += 1,
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
            let mut sojourns = Vec::new();
            let mut goodput = 0usize;
            for r in receipts {
                let c = r.wait_completion();
                match c.result {
                    Ok(out) => {
                        consume(out);
                        sojourns.push(c.sojourn.as_secs_f64());
                        if c.sojourn <= slo {
                            goodput += 1;
                        }
                    }
                    Err(ServeError::Timeout) => {}
                    Err(e) => panic!("unexpected serve error: {e}"),
                }
            }
            let elapsed = started.elapsed().as_secs_f64();
            server.shutdown();
            sojourns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let p99 = sojourns
                .get(((sojourns.len().saturating_sub(1)) as f64 * 0.99).round() as usize)
                .copied();
            let x = format!("{multiplier}x");
            rows.push(FigRow::new(
                &format!("{mode}/goodput-qps"),
                &x,
                Some(goodput as f64 / elapsed),
            ));
            rows.push(FigRow::new(
                &format!("{mode}/p99-sojourn-ms"),
                &x,
                p99.map(|s| s * 1e3),
            ));
            rows.push(FigRow::new(
                &format!("{mode}/shed-pct"),
                &x,
                Some(100.0 * shed as f64 / total as f64),
            ));
        }
    }
    rows
}

/// Ablation: the effect of empty-slot suppression and virtual scatter on
/// memory traffic (DESIGN.md calls these out as the key §3.1.2/§3.1.3
/// design choices).
pub fn ablation_suppression(n: usize) -> Vec<FigRow> {
    let cat = micro::selection_catalog(n, 3);
    // Hierarchical aggregation: dense fold output is #runs slots.
    let mut p = voodoo_core::Program::new();
    let v = p.load("vals");
    let ids = p.range_like(0, v, 1);
    let part = p.div_const(ids, 1024);
    let psum = p.fold_sum(part, v);
    let total = p.fold_sum_global(psum);
    p.ret(total);
    let plan = CpuBackend::single_threaded().prepare(&p, &cat).unwrap();
    let suppressed_bytes = plan.profile(&cat).unwrap().events.write_bytes;
    // Padded equivalent would write one slot per element per fold.
    let padded_bytes = (2 * n * 8) as u64;
    vec![
        FigRow::new("suppressed write bytes", n, Some(suppressed_bytes as f64)),
        FigRow::new("padded write bytes", n, Some(padded_bytes as f64)),
    ]
}

/// Ablation: CPU cost-model sanity — price the measured profile of the
/// predication benchmark on both device models.
pub fn ablation_devices(n: usize) -> Vec<FigRow> {
    let cat = micro::selection_catalog(n, 4);
    let p = micro::prog_filter_materialize(micro::cutoff(0.5));
    let plan = CpuBackend::single_threaded().prepare(&p, &cat).unwrap();
    let units = plan.profile(&cat).unwrap().unit_events;
    let cpu = CostModel::new(Device::cpu_single_thread()).price(&units);
    let gpu = CostModel::titan_x().price(&units);
    vec![
        FigRow::new("cpu-model seconds", n, Some(cpu.seconds)),
        FigRow::new("gpu-model seconds", n, Some(gpu.seconds)),
    ]
}

/// Ablation: the PCIe cost the paper excludes (§5.1 "We do not address
/// the PCI bottleneck"). Prices a bandwidth-bound scan on the simulated
/// GPU with data resident (the paper's setup), shipped over PCIe 3.0,
/// and on an integrated GPU with zero-copy access.
pub fn ablation_pcie(n: usize) -> Vec<FigRow> {
    use voodoo_gpusim::{GpuSimulator, Interconnect};
    let cat = micro::selection_catalog(n, 5);
    let p = micro::prog_select_sum_branching(micro::cutoff(0.5));
    let (_, resident) = GpuSimulator::titan_x().run(&p, &cat).unwrap();
    let (_, shipped) = GpuSimulator::titan_x()
        .with_interconnect(Interconnect::pcie3_x16())
        .run(&p, &cat)
        .unwrap();
    let (_, integrated) = GpuSimulator::new(CostModel::new(Device::gpu_integrated()))
        .with_interconnect(Interconnect::zero_copy())
        .run(&p, &cat)
        .unwrap();
    vec![
        FigRow::new(
            "titan-x, data resident (paper setup)",
            n,
            Some(resident.seconds),
        ),
        FigRow::new("titan-x + PCIe 3.0 shipping", n, Some(shipped.seconds)),
        FigRow::new("  of which transfer", n, Some(shipped.transfer_seconds)),
        FigRow::new("integrated GPU, zero copy", n, Some(integrated.seconds)),
    ]
}

/// Optimizer showcase: the §7 "automatic exploration" future work making
/// the Figure 15 decision per device and selectivity.
pub fn optimizer_decisions(n: usize) -> Vec<FigRow> {
    use voodoo_opt::{Optimizer, Workload};
    let cat = micro::selection_catalog(n, 6);
    // micro::selection_catalog draws uniform i64; derive cutoffs the same
    // way the figures do.
    let mut rows = Vec::new();
    for (dev_name, device) in [
        ("cpu-1t", Device::cpu_single_thread()),
        ("gpu-titanx", Device::gpu_titan_x()),
    ] {
        for sel_pct in [1.0, 50.0, 99.0] {
            let wl = Workload::SelectSum {
                table: "vals".into(),
                lo: i64::MIN,
                hi: micro::cutoff(sel_pct / 100.0),
                chunks: vec![1 << 12],
            };
            let choice = Optimizer::for_device(device.clone())
                .with_sample_rows(1 << 14)
                .choose(&wl, &cat)
                .expect("optimize");
            rows.push(FigRow::new(
                &format!("{dev_name}: {}", choice.best.candidate.decision.label()),
                sel_pct,
                Some(choice.best.seconds),
            ));
        }
    }
    rows
}

/// Intra-statement scaling sweep (the morsel-parallelism figure): the
/// same prepared statements re-executed with 1..=`max_threads` morsel
/// workers, on the selection and grouped-aggregation microbenchmarks
/// plus two TPC-H queries at scale factor `sf`.
///
/// Rows come in pairs per benchmark: `<name>` carries seconds per
/// execution at each worker count, and `<name> speedup` carries the
/// ratio `t1 / tN` (so >1.5 at 4T is the acceptance bar on multicore
/// hardware; on 1-core containers the curve is flat by construction —
/// `Fixed(n)` still partitions, but the workers time-slice one core).
pub fn scaling(n: usize, sf: f64, max_threads: usize) -> Vec<FigRow> {
    use voodoo_relational::run_query_on;

    let max_threads = max_threads.max(1);
    let mut threads: Vec<usize> = vec![1];
    let mut t = 2;
    while t <= max_threads {
        threads.push(t);
        t *= 2;
    }
    if threads.last() != Some(&max_threads) {
        threads.push(max_threads);
    }

    let mut rows = Vec::new();
    let backend_for = |t: usize| {
        CpuBackend::new(ExecOptions {
            parallelism: if t > 1 {
                Parallelism::Fixed(t)
            } else {
                Parallelism::Off
            },
            ..Default::default()
        })
    };

    // Microbenchmarks: prepared once per worker count, timed hot.
    let micro_cat = micro::selection_catalog(n, 42);
    let benches: [(&str, voodoo_core::Program); 2] = [
        (
            "selection",
            micro::prog_select_sum_branching(micro::cutoff(0.5)),
        ),
        (
            "grouped-agg",
            voodoo_algos::aggregate::grouped_sum_count("vals", "val", "val", 10_000),
        ),
    ];
    for (name, prog) in &benches {
        let mut base = None;
        for &t in &threads {
            let plan = backend_for(t).prepare(prog, &micro_cat).expect("prepare");
            consume(plan.execute(&micro_cat).expect("warmup"));
            let secs = time_secs(3, || consume(plan.execute(&micro_cat).expect("run")));
            rows.push(FigRow::new(name, format!("{t}T"), Some(secs)));
            if t == 1 {
                base = Some(secs);
            } else if let Some(b) = base {
                rows.push(FigRow::new(
                    &format!("{name} speedup"),
                    format!("{t}T"),
                    Some(b / secs),
                ));
            }
        }
    }

    // TPC-H: selection-heavy Q6 and grouped-aggregation Q1 end to end.
    let session = Session::tpch(sf);
    let cat = session.catalog();
    for q in [Query::Q6, Query::Q1] {
        let name = format!("tpch-{}", q.name().to_lowercase());
        let mut base = None;
        for &t in &threads {
            let backend = backend_for(t);
            run_query_on(&backend, &cat, q).expect("warmup");
            let secs = time_secs(3, || {
                run_query_on(&backend, &cat, q).expect("run");
            });
            rows.push(FigRow::new(&name, format!("{t}T"), Some(secs)));
            if t == 1 {
                base = Some(secs);
            } else if let Some(b) = base {
                rows.push(FigRow::new(
                    &format!("{name} speedup"),
                    format!("{t}T"),
                    Some(b / secs),
                ));
            }
        }
    }

    // Pooled execution: the same grouped-aggregation microbenchmark on
    // dedicated persistent work-stealing pools of 2 and 8 workers
    // (independent of the machine's core count, so the rows exist even
    // on 1-core runners). The companion `pool …` rows report the
    // scheduler's own accounting — tasks queued and tasks stolen —
    // as counts, not seconds.
    let (_, pooled_prog) = &benches[1];
    for w in [2usize, 8] {
        let pool = voodoo_compile::MorselPool::new(w);
        let _guard = voodoo_compile::pool::enter(pool.clone());
        let backend = backend_for(w);
        let plan = backend.prepare(pooled_prog, &micro_cat).expect("prepare");
        consume(plan.execute(&micro_cat).expect("warmup"));
        let secs = time_secs(3, || consume(plan.execute(&micro_cat).expect("run")));
        rows.push(FigRow::new(
            "pooled grouped-agg",
            format!("{w}W"),
            Some(secs),
        ));
        let stats = pool.stats();
        rows.push(FigRow::new(
            "pool tasks (count)",
            format!("{w}W"),
            Some(stats.tasks as f64),
        ));
        rows.push(FigRow::new(
            "pool steals (count)",
            format!("{w}W"),
            Some(stats.steals as f64),
        ));
        pool.shutdown();
    }
    rows
}

/// Incremental view maintenance: per-read latency of a full recompute
/// (forced by a wholesale table rewrite) vs a delta refresh after a
/// 1%-of-`n` batched append, for three maintained view shapes — a
/// filtered global aggregate, a grouped aggregate, and a join view —
/// plus the fraction of the base data each delta refresh touched.
pub fn views(n: usize, iters: usize) -> Vec<FigRow> {
    use voodoo_core::Buffer;
    use voodoo_relational::views::{AggDef, AggFn, AggSpec, JoinDef, SExpr, Source, ViewDef};
    use voodoo_storage::{Table, TableColumn};

    fn kv_table(name: &str, rows: impl Iterator<Item = (i64, i64)> + Clone) -> Table {
        let mut t = Table::new(name);
        t.add_column(TableColumn::from_buffer(
            "k",
            Buffer::I64(rows.clone().map(|r| r.0).collect()),
        ));
        t.add_column(TableColumn::from_buffer(
            "v",
            Buffer::I64(rows.map(|r| r.1).collect()),
        ));
        t
    }

    let n = n.max(256);
    let fact = kv_table("fact", (0..n as i64).map(|i| (i % 64, i)));
    let dim = kv_table("dim", (0..64i64).map(|k| (k, k * 10)));

    let agg = |key: Option<usize>, exprs: &[SExpr]| AggDef {
        key,
        specs: exprs
            .iter()
            .map(|e| AggSpec {
                agg: AggFn::Sum,
                expr: e.clone(),
            })
            .chain(std::iter::once(AggSpec {
                agg: AggFn::Count,
                expr: SExpr::Lit(1),
            }))
            .collect(),
    };
    let filter_view = ViewDef::of(Source {
        filter: vec![voodoo_relational::views::Pred {
            op: voodoo_core::BinOp::Greater,
            lhs: SExpr::Col(1),
            rhs: SExpr::Lit(n as i64 / 2),
        }],
        ..Source::scan("fact", &["k", "v"])
    })
    .aggregate(agg(None, &[SExpr::Col(1)]));
    let grouped_view =
        ViewDef::of(Source::scan("fact", &["k", "v"])).aggregate(agg(Some(0), &[SExpr::Col(1)]));
    // Joined stream is [fact.k, fact.v, dim.k, dim.v]: group by the fact
    // key, summing a measure from each side.
    let join_view = ViewDef::of(Source::scan("fact", &["k", "v"]))
        .join(JoinDef {
            right: Source::scan("dim", &["k", "v"]),
            left_key: 0,
            right_key: 0,
        })
        .aggregate(agg(Some(0), &[SExpr::Col(1), SExpr::Col(3)]));

    let batch: Vec<Vec<i64>> = (0..(n as i64 / 100).max(1))
        .map(|i| vec![i % 64, n as i64 + i])
        .collect();
    let mut rows = Vec::new();
    for (shape, def) in [
        ("filter", filter_view),
        ("group-by", grouped_view),
        ("join", join_view),
    ] {
        let mut cat = Catalog::in_memory();
        cat.insert_table(fact.clone());
        cat.insert_table(dim.clone());
        let session = Session::new(cat);
        session.create_view_def("view", def).expect("create view");

        // Delta path: a 1% batched append is captured row-by-row, so the
        // refresh processes the delta, not the table.
        let before = session.metrics();
        let delta_secs = time_secs(iters, || {
            session.mutate_catalog(|c| c.append_rows("fact", &batch));
            consume(session.read_view("view").expect("delta refresh"));
        });
        let after = session.metrics();
        let refreshes = (after.delta_refreshes - before.delta_refreshes).max(1);
        let per_refresh = (after.rows_delta - before.rows_delta) as f64 / refreshes as f64;

        // Full path: replacing the table wholesale is not row-capturable,
        // forcing the counted full-recompute fallback on every read.
        let full_secs = time_secs(iters, || {
            session.mutate_catalog(|c| c.insert_table(fact.clone()));
            consume(session.read_view("view").expect("full recompute"));
        });

        rows.push(FigRow::new(
            &format!("{shape}/full-recompute"),
            n,
            Some(full_secs),
        ));
        rows.push(FigRow::new(
            &format!("{shape}/delta-1pct"),
            n,
            Some(delta_secs),
        ));
        rows.push(FigRow::new(
            &format!("{shape}/delta-row-fraction"),
            n,
            Some(per_refresh / n as f64),
        ));
        rows.push(FigRow::new(
            &format!("{shape}/full-fallbacks"),
            n,
            Some(session.metrics().full_recomputes as f64),
        ));
    }
    rows
}

/// Write amplification: seconds to publish one 1024-row append batch
/// into a resident table of `n` rows, for `n` in `{n_max/100, n_max/10,
/// n_max}`. The `segmented-append` series is the engine's real write
/// path — the batch is sealed into an `Arc`-shared segment and the new
/// snapshot shares all prior storage, so the cost is O(batch). The
/// `seed-copyout` series emulates the pre-segment path: every column of
/// the resident table is deep-copied into a fresh table before the batch
/// lands, so the cost is O(table). The `ingest-speedup (x)` series is
/// their ratio; it should grow linearly with `n`.
pub fn ingest(n_max: usize, iters: usize) -> Vec<FigRow> {
    use voodoo_core::{Buffer, Column};
    use voodoo_storage::{Table, TableColumn};

    const BATCH_ROWS: usize = 1024;
    let n_max = n_max.max(4 * BATCH_ROWS);
    let batch: Vec<Vec<i64>> = (0..BATCH_ROWS as i64).map(|i| vec![i % 64, i]).collect();

    fn resident(n: usize) -> Table {
        let mut t = Table::new("resident");
        t.add_column(TableColumn::from_buffer(
            "k",
            Buffer::I64((0..n as i64).map(|i| i % 64).collect()),
        ));
        t.add_column(TableColumn::from_buffer(
            "v",
            Buffer::I64((0..n as i64).collect()),
        ));
        t
    }

    let mut rows = Vec::new();
    for n in [n_max / 100, n_max / 10, n_max] {
        let n = n.max(BATCH_ROWS);

        // Real write path: seal the batch as a segment, publish by Arc.
        let mut cat = Catalog::in_memory();
        cat.insert_table(resident(n));
        let session = Session::new(cat);
        let seg_secs = time_secs(iters, || {
            assert!(session.append_rows("resident", &batch));
        });

        // Seed emulation: the old path cloned every column of the table
        // to mutate the copy. `Column` is copy-on-write now, so the copy
        // must be forced buffer-by-buffer to reproduce the old cost.
        let mut cat = Catalog::in_memory();
        cat.insert_table(resident(n));
        let session2 = Session::new(cat);
        let copy_secs = time_secs(iters, || {
            session2.mutate_catalog(|c| {
                let src = c.table("resident").expect("resident").clone();
                let mut fresh = Table::new("resident");
                for col in &src.merged_columns() {
                    let data = Column::from_parts(
                        col.data.buffer().clone(),
                        col.data.empty_mask().to_vec(),
                    );
                    fresh.add_column(TableColumn {
                        name: col.name.clone(),
                        data,
                        dict: col.dict.clone(),
                        stats: col.stats,
                    });
                }
                fresh.append_rows(&batch);
                fresh.compact();
                c.insert_table(fresh);
            });
        });

        rows.push(FigRow::new("segmented-append", n, Some(seg_secs)));
        rows.push(FigRow::new("seed-copyout", n, Some(copy_secs)));
        rows.push(FigRow::new(
            "ingest-speedup (x)",
            n,
            Some(copy_secs / seg_secs.max(f64::MIN_POSITIVE)),
        ));
    }
    rows
}

/// Sanity check used by tests: every query result matches across engines
/// at the benchmark scale factor.
pub fn verify_engines(sf: f64) -> Result<(), String> {
    let session = Session::tpch(sf);
    let cat = session.catalog();
    for q in CPU_QUERIES {
        let h = voodoo_baselines::hyper::run(&cat, q);
        let v = session
            .run_query(q)
            .map_err(|e| format!("{} failed on the session: {e}", q.name()))?;
        if h != v {
            return Err(format!("{} differs between hyper and voodoo", q.name()));
        }
        if let Some(o) = voodoo_baselines::ocelot::run(&cat, q) {
            if h != o {
                return Err(format!("{} differs between hyper and ocelot", q.name()));
            }
        }
        let _ = Query::Q1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_dump_contains_kernels() {
        let s = fig9_kernel_dump(256);
        assert!(s.contains("__kernel"));
    }

    #[test]
    fn small_figures_produce_rows() {
        assert_eq!(fig1(2048, 2).len(), 30);
        assert_eq!(fig15(2048, 256).len(), 72);
        assert_eq!(fig16(2048, 128).len(), 60);
    }

    #[test]
    fn fig12_and_13_cover_paper_queries() {
        let r12 = fig12(0.002);
        assert_eq!(r12.len(), GPU_QUERIES.len() * 2);
        let r13 = fig13(0.002, 1);
        assert_eq!(r13.len(), CPU_QUERIES.len() * 3);
        // Ocelot gaps present on CPU figure.
        assert!(r13
            .iter()
            .any(|r| r.series == "Ocelot" && r.seconds.is_none()));
    }

    #[test]
    fn throughput_sweeps_offered_load_with_shed_rates() {
        let rows = throughput(0.002, &[0.5, 4.0], 2);
        assert_eq!(
            rows.len(),
            3 * 2 * 3,
            "3 backends x 2 load points x 3 metrics"
        );
        for r in rows.iter().filter(|r| r.series.ends_with("sustained-qps")) {
            assert!(
                r.seconds.unwrap() > 0.0,
                "{}@{} served no queries",
                r.series,
                r.x
            );
        }
        for r in rows.iter().filter(|r| r.series.ends_with("shed-pct")) {
            let pct = r.seconds.unwrap();
            assert!((0.0..=100.0).contains(&pct), "{}@{}: {pct}", r.series, r.x);
        }
    }

    #[test]
    fn views_rows_cover_every_shape_and_deltas_stay_small() {
        let rows = views(4096, 2);
        assert_eq!(rows.len(), 3 * 4, "3 shapes x 4 metrics");
        for shape in ["filter", "group-by", "join"] {
            for metric in [
                "full-recompute",
                "delta-1pct",
                "delta-row-fraction",
                "full-fallbacks",
            ] {
                assert!(
                    rows.iter()
                        .any(|r| r.series == format!("{shape}/{metric}") && r.seconds.is_some()),
                    "missing {shape}/{metric}"
                );
            }
            // A 1% mutation must touch a small fraction of the base data
            // (the staged delta plus what it streams, never the table).
            let frac = rows
                .iter()
                .find(|r| r.series == format!("{shape}/delta-row-fraction"))
                .and_then(|r| r.seconds)
                .unwrap();
            assert!(
                frac < 0.1,
                "{shape} delta refresh touched {frac} of the data"
            );
        }
    }

    #[test]
    fn ingest_rows_cover_every_size_and_segments_never_lose() {
        let rows = ingest(1 << 16, 2);
        assert_eq!(rows.len(), 3 * 3, "3 sizes x 3 series");
        for series in ["segmented-append", "seed-copyout", "ingest-speedup (x)"] {
            assert!(
                rows.iter()
                    .filter(|r| r.series == series)
                    .all(|r| r.seconds.unwrap() > 0.0),
                "{series} has a non-positive point"
            );
        }
        // At the largest size the O(batch) path must not lose to the
        // O(table) emulation (debug builds stay loose; release asserts
        // the real amplification gap in tests/ingest.rs).
        let speedup = rows
            .iter()
            .rfind(|r| r.series == "ingest-speedup (x)")
            .and_then(|r| r.seconds)
            .unwrap();
        assert!(
            speedup >= 1.0,
            "segmented append slower than copy-out at the largest size: {speedup}x"
        );
    }

    #[test]
    fn scaling_rows_cover_every_worker_count() {
        let rows = scaling(1 << 14, 0.002, 2);
        for series in ["selection", "grouped-agg", "tpch-q6", "tpch-q1"] {
            for x in ["1T", "2T"] {
                assert!(
                    rows.iter()
                        .any(|r| r.series == series && r.x == x && r.seconds.unwrap() > 0.0),
                    "missing {series}@{x}"
                );
            }
            assert!(
                rows.iter()
                    .any(|r| r.series == format!("{series} speedup") && r.seconds.is_some()),
                "missing {series} speedup"
            );
        }
        // The persistent-pool rows exist at both fixed worker counts.
        for x in ["2W", "8W"] {
            assert!(
                rows.iter()
                    .any(|r| r.series == "pooled grouped-agg" && r.x == x && r.seconds.is_some()),
                "missing pooled row @{x}"
            );
            assert!(
                rows.iter().any(|r| r.series == "pool tasks (count)"
                    && r.x == x
                    && r.seconds.unwrap() > 0.0),
                "pooled execution must queue tasks @{x}"
            );
        }
    }

    #[test]
    fn suppression_saves_traffic() {
        let rows = ablation_suppression(1 << 14);
        let suppressed = rows[0].seconds.unwrap();
        let padded = rows[1].seconds.unwrap();
        assert!(suppressed < padded, "{suppressed} < {padded}");
    }

    #[test]
    fn engines_verify_at_bench_scale() {
        verify_engines(0.002).unwrap();
    }
}
