//! Closed-loop workloads: one caller, one `Solver::run` (or one
//! `Solver::batch` sweep) after another.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use calu::matrix::DenseMatrix;
use calu::{BatchReport, Error, MatrixSource, Solver};

use crate::layers::{self, ExecStats, SchedStats};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{inputs, Args, Outcome, Tally, SETUP_REPS, THREADS};

/// Shape of a solo workload.
#[derive(Debug, Clone, Copy)]
pub struct SoloShape {
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub b: usize,
}

/// Run `call` back to back until `secs` have passed; the timed region
/// is the call alone, `after` (checks, bookkeeping) runs outside it.
fn closed_loop<R>(
    secs: f64,
    mut call: impl FnMut() -> R,
    mut after: impl FnMut(R, Instant, Instant),
) {
    let stop = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < stop {
        let t0 = Instant::now();
        let r = call();
        let t1 = Instant::now();
        after(r, t0, t1);
    }
}

/// One `Solver::run` sample; the report is folded into its stats at
/// once (a fine-grained timeline holds ~90k spans).
struct RunSample {
    wall: f64,
    makespan: f64,
    exec: ExecStats,
    sched: SchedStats,
}

/// The solo CALU workloads (`lu_coarse`, `lu_fine`).
pub fn solo(shape: SoloShape, args: &Args, tracer: &mut Tracer) -> Outcome {
    let SoloShape { n, b } = shape;
    let a = inputs::solo_matrix(n, args.seed);
    let rhs = inputs::rhs(n, args.seed);
    let builder = |src: DenseMatrix, traced: bool| {
        Solver::new(MatrixSource::Dense(src))
            .tile(b)
            .threads(THREADS)
            .verify(false)
            .trace(traced)
    };
    let mut tally = Tally::default();
    let mut out = Outcome::default();

    // set-up: build the solver and make one cold call, several times
    let mut setups = Vec::new();
    let mut solver = None;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        let src = a.clone();
        let t0 = Instant::now();
        let s = builder(src, false);
        let r = s.run();
        setups.push(t0.elapsed().as_secs_f64());
        tally.lu_report(r, &a, &rhs, tracer);
        solver = Some(s);
    }
    let solver = solver.expect("at least one set-up");

    let pass = |solver: &Solver, secs: f64, tally: &mut Tally, tracer: &mut Tracer| {
        let mut samples = Vec::new();
        closed_loop(
            secs,
            || solver.run(),
            |r, t0, t1| {
                let call = tracer.record("facade.run", t0, t1, None, tally.attempted);
                if let Some(report) = tally.lu_report(r, &a, &rhs, tracer) {
                    tracer.record_tail("exec.factor", call, report.makespan);
                    samples.push(RunSample {
                        wall: (t1 - t0).as_secs_f64(),
                        makespan: report.makespan,
                        exec: ExecStats::of(&report),
                        sched: SchedStats::of(&report.schedule),
                    });
                }
            },
        );
        samples
    };

    if !args.trace {
        let samples = pass(&solver, args.seconds, &mut tally, tracer);
        let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
        let sum = Summary::of(&walls);
        out.e2e("setup_s", median(&setups));
        out.timing(&sum, "Solver::run wall");
        out.e2e("gflops", calu::kernels::flops::lu(n) / sum.p50 * 1e-9);
        out.e2e("items_per_s", 1.0 / sum.p50);
        out.note(format!(
            "setup_s over {} set-ups: {:?}",
            setups.len(),
            setups
        ));
        return out.finish(tally);
    }

    // traced run: the untraced pass gives the baseline for the overhead
    let plain = pass(
        &solver,
        args.seconds / 2.0,
        &mut tally,
        &mut Tracer::new(Instant::now(), false),
    );
    let traced_solver = builder(a.clone(), true);
    tally.lu_report(traced_solver.run(), &a, &rhs, tracer);
    let traced = pass(&traced_solver, args.seconds / 2.0, &mut tally, tracer);
    let plain_p50 = median(&plain.iter().map(|s| s.wall).collect::<Vec<_>>());
    let traced_p50 = median(&traced.iter().map(|s| s.wall).collect::<Vec<_>>());
    out.layer("trace.overhead_frac", traced_p50 / plain_p50 - 1.0);
    out.note(format!(
        "traced pass: {} calls, untraced pass: {} calls",
        traced.len(),
        plain.len()
    ));

    let plan = traced_solver.plan().expect("the solver planned its runs");
    let g = plan.build_graph();
    let upd_flops = layers::update_flops(&g);
    let per_call =
        |f: &dyn Fn(&RunSample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let mut all = ExecStats::default();
    let mut sched = SchedStats::default();
    for s in &traced {
        all.add(&s.exec);
        sched.add(&s.sched);
    }
    let cp = layers::critical_path_secs(&g, &all.mean_span());
    let makespan = per_call(&|s| s.makespan);
    out.layer("facade.outside_s", per_call(&|s| s.wall - s.makespan));
    out.layer("exec.makespan_s", makespan);
    out.layer("exec.update_busy_s", per_call(&|s| s.exec.update_busy()));
    out.layer("exec.panel_busy_s", per_call(&|s| s.exec.panel_busy()));
    out.layer("exec.lu_busy_s", per_call(&|s| s.exec.lu_busy()));
    out.layer(
        "exec.update_gflops",
        per_call(&|s| layers::ratio(upd_flops, s.exec.update_busy())) * 1e-9,
    );
    out.layer(
        "exec.idle_frac",
        per_call(&|s| 1.0 - layers::ratio(s.exec.work(), s.exec.capacity)),
    );
    out.layer("dag.critical_path_s", cp);
    out.layer("exec.cp_ratio", layers::ratio(makespan, cp));
    out.layer("sched.dynamic_frac", sched.dynamic_frac());
    out.layer("sched.failed_steal_rate", sched.failed_steal_rate());
    out.layer("sched.steals", per_call(&|s| s.sched.steals as f64));

    // standalone probes of the layers below the facade
    out.layer(
        "matrix.to_tiles_s",
        tracer.time("matrix.to_tiles", 0, || {
            layers::to_tiles_secs(&a, b, plan.grid)
        }),
    );
    out.layer(
        "dag.build_s",
        tracer.time("dag.build", 0, || {
            layers::median_secs(3, || {
                std::hint::black_box(plan.build_graph());
            })
        }),
    );
    out.layer("dag.tasks", g.len() as f64);
    let drain = tracer.time("sched.drain", 0, || {
        layers::drain_secs(&g, plan.scheduler, plan.queue(), plan.grid)
    });
    out.layer("sched.drain_ns_per_task", drain / g.len() as f64 * 1e9);
    let mut shapes = BTreeMap::new();
    layers::count_shapes(&g, &mut shapes);
    out.kernels(tracer.time("kernels.rung", 0, || layers::kernel_rates(&shapes)));
    out.finish(tally)
}

/// One `Solver::batch` sweep sample.
struct SweepSample {
    wall: f64,
    report: BatchReport,
}

/// The batched sweep workload (`batch_sweep`).
pub fn batch(args: &Args, tracer: &mut Tracer) -> Outcome {
    const B: usize = 32;
    let mats = inputs::batch_matrices(args.seed);
    let rhs: Vec<Vec<f64>> = mats
        .iter()
        .enumerate()
        .map(|(i, m)| inputs::rhs(m.rows(), args.seed ^ i as u64))
        .collect();
    let sources: Vec<MatrixSource> = mats.iter().cloned().map(MatrixSource::Dense).collect();
    let builder = |traced: bool| {
        Solver::new(MatrixSource::shape(
            inputs::BATCH_SIZES[0],
            inputs::BATCH_SIZES[0],
        ))
        .tile(B)
        .threads(THREADS)
        .verify(false)
        .trace(traced)
    };
    let nominal: f64 = mats
        .iter()
        .map(|m| calu::kernels::flops::lu(m.rows()))
        .sum();
    let mut tally = Tally::default();
    let mut out = Outcome::default();

    let check = |r: Result<BatchReport, Error>, tally: &mut Tally, tracer: &mut Tracer| match r {
        Ok(mut br) => {
            for (i, item) in br.items.iter_mut().enumerate() {
                tally.lu_item(item, &mats[i], &rhs[i], tracer);
            }
            Some(br)
        }
        Err(e) => {
            tally.attempted += mats.len() as u64;
            tally.fail(mats.len() as u64, format!("Solver::batch failed: {e}"));
            None
        }
    };

    let mut setups = Vec::new();
    let mut solver = None;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        let t0 = Instant::now();
        let s = builder(false);
        let r = s.batch(&sources);
        setups.push(t0.elapsed().as_secs_f64());
        check(r, &mut tally, tracer);
        solver = Some(s);
    }
    let solver = solver.expect("at least one set-up");

    let pass = |solver: &Solver, secs: f64, tally: &mut Tally, tracer: &mut Tracer| {
        let mut samples = Vec::new();
        closed_loop(
            secs,
            || solver.batch(&sources),
            |r, t0, t1| {
                let call = tracer.record("facade.batch", t0, t1, None, tally.attempted);
                if let Some(report) = check(r, tally, tracer) {
                    let exec = tracer.record_tail("exec.batch", call, report.wall_secs);
                    // the pool spawn opens the executor's window
                    tracer.record_head("batch.spawn", exec, report.pool_spawn_secs);
                    samples.push(SweepSample {
                        wall: (t1 - t0).as_secs_f64(),
                        report,
                    });
                }
            },
        );
        samples
    };

    if !args.trace {
        let samples = pass(&solver, args.seconds, &mut tally, tracer);
        let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
        let sum = Summary::of(&walls);
        out.e2e("setup_s", median(&setups));
        out.timing(&sum, "Solver::batch sweep wall");
        out.e2e("gflops", nominal / sum.p50 * 1e-9);
        out.e2e("items_per_s", mats.len() as f64 / sum.p50);
        out.note(format!(
            "setup_s over {} set-ups: {:?}",
            setups.len(),
            setups
        ));
        return out.finish(tally);
    }

    let plain = pass(
        &solver,
        args.seconds / 2.0,
        &mut tally,
        &mut Tracer::new(Instant::now(), false),
    );
    let traced_solver = builder(true);
    check(traced_solver.batch(&sources), &mut tally, tracer);
    let traced = pass(&traced_solver, args.seconds / 2.0, &mut tally, tracer);
    let plain_p50 = median(&plain.iter().map(|s| s.wall).collect::<Vec<_>>());
    let traced_p50 = median(&traced.iter().map(|s| s.wall).collect::<Vec<_>>());
    out.layer("trace.overhead_frac", traced_p50 / plain_p50 - 1.0);
    out.note(format!(
        "traced pass: {} sweeps, untraced pass: {} sweeps",
        traced.len(),
        plain.len()
    ));

    // one solver per size gives the plan (grid, policy, DAG) of its items
    let cutoff = calu::core::DEFAULT_BATCH_SMALL_CUTOFF;
    let plan_solvers: Vec<Solver> = inputs::BATCH_SIZES
        .iter()
        .map(|&n| {
            Solver::new(MatrixSource::shape(n, n))
                .tile(B)
                .threads(THREADS)
        })
        .collect();
    let graphs: Vec<_> = plan_solvers
        .iter()
        .map(|s| s.plan().expect("batch items plan").build_graph())
        .collect();
    let graph_of = |i: usize| &graphs[i % graphs.len()];
    let upd_flops: f64 = (0..mats.len())
        .map(|i| layers::update_flops(graph_of(i)))
        .sum();

    let sweep_exec = |s: &SweepSample| {
        let mut e = ExecStats::default();
        for item in &s.report.items {
            e.add(&ExecStats::of(item));
        }
        e
    };
    let per_sweep =
        |f: &dyn Fn(&SweepSample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let mut all = ExecStats::default();
    let mut sched = SchedStats::default();
    for s in &traced {
        all.add(&sweep_exec(s));
        for item in &s.report.items {
            sched.add(&SchedStats::of(&item.schedule));
        }
    }
    let mean_span = all.mean_span();
    let cp = graphs
        .iter()
        .map(|g| layers::critical_path_secs(g, &mean_span))
        .fold(0.0, f64::max);
    let exec_wall = per_sweep(&|s| s.report.wall_secs);
    let threads = THREADS as f64;
    out.layer(
        "facade.outside_s",
        per_sweep(&|s| s.wall - s.report.wall_secs),
    );
    out.layer("exec.makespan_s", exec_wall);
    out.layer(
        "exec.update_busy_s",
        per_sweep(&|s| sweep_exec(s).update_busy()),
    );
    out.layer(
        "exec.panel_busy_s",
        per_sweep(&|s| sweep_exec(s).panel_busy()),
    );
    out.layer("exec.lu_busy_s", per_sweep(&|s| sweep_exec(s).lu_busy()));
    out.layer(
        "exec.update_gflops",
        per_sweep(&|s| layers::ratio(upd_flops, sweep_exec(s).update_busy())) * 1e-9,
    );
    out.layer(
        "exec.idle_frac",
        per_sweep(&|s| 1.0 - layers::ratio(sweep_exec(s).work(), threads * s.report.wall_secs)),
    );
    out.layer("dag.critical_path_s", cp);
    out.layer("exec.cp_ratio", layers::ratio(exec_wall, cp));
    out.layer("sched.dynamic_frac", sched.dynamic_frac());
    out.layer("sched.failed_steal_rate", sched.failed_steal_rate());
    out.layer(
        "sched.steals",
        per_sweep(&|s| {
            s.report
                .items
                .iter()
                .map(|i| SchedStats::of(&i.schedule).steals as f64)
                .sum()
        }),
    );
    out.layer("batch.spawn_s", per_sweep(&|s| s.report.pool_spawn_secs));
    out.layer(
        "batch.co_scheduled",
        per_sweep(&|s| s.report.co_scheduled as f64),
    );
    let makespan_sum = |s: &SweepSample, small: bool| -> f64 {
        s.report
            .items
            .iter()
            .filter(|i| (i.dims.0.max(i.dims.1) <= cutoff) == small)
            .map(|i| i.makespan)
            .sum()
    };
    out.layer(
        "batch.small_makespan_sum_s",
        per_sweep(&|s| makespan_sum(s, true)),
    );
    out.layer(
        "batch.large_makespan_sum_s",
        per_sweep(&|s| makespan_sum(s, false)),
    );
    out.layer(
        "batch.busy_frac",
        per_sweep(&|s| {
            let busy: f64 = sweep_exec(s).busy.iter().sum();
            layers::ratio(busy, threads * s.report.wall_secs)
        }),
    );
    let predicted_small = mats.iter().filter(|m| m.rows() <= cutoff).count();
    out.note(format!(
        "items at or under the co-scheduling cutoff {cutoff}: {predicted_small} of {}",
        mats.len()
    ));

    let plan = solver.plan().expect("the solver planned its sweeps");
    out.layer(
        "matrix.to_tiles_s",
        tracer.time("matrix.to_tiles", 0, || {
            mats.iter()
                .map(|m| layers::to_tiles_secs(m, B, plan.grid))
                .sum()
        }),
    );
    out.layer(
        "dag.build_s",
        tracer.time("dag.build", 0, || {
            (0..mats.len())
                .map(|i| {
                    let p = plan_solvers[i % plan_solvers.len()].plan().expect("plans");
                    layers::median_secs(3, || {
                        std::hint::black_box(p.build_graph());
                    })
                })
                .sum()
        }),
    );
    let tasks: usize = (0..mats.len()).map(|i| graph_of(i).len()).sum();
    out.layer("dag.tasks", tasks as f64);
    let drain: f64 = tracer.time("sched.drain", 0, || {
        (0..mats.len())
            .map(|i| {
                let p = plan_solvers[i % plan_solvers.len()].plan().expect("plans");
                layers::drain_secs(graph_of(i), p.scheduler, p.queue(), p.grid)
            })
            .sum()
    });
    out.layer("sched.drain_ns_per_task", drain / tasks as f64 * 1e9);
    let mut shapes = BTreeMap::new();
    for i in 0..mats.len() {
        layers::count_shapes(graph_of(i), &mut shapes);
    }
    out.kernels(tracer.time("kernels.rung", 0, || layers::kernel_rates(&shapes)));
    out.finish(tally)
}
