//! The open-loop service workload (`serve_open`).
//!
//! One in-process `Solver::serve()` service, fed by one sender thread
//! on a seeded Poisson schedule while a second thread timestamps
//! completions from `FactorService::events()`. Latency runs from each
//! job's *due* time to its completion event, so a stalled sender or
//! service is charged to every job that waited behind it. Two phases
//! run at fixed rates, `lo` and `hi`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use calu::core::Factorization;
use calu::{JobHandle, MatrixSource, Report, ReportService, ServeError, ServiceEvent, Solver};

use crate::check;
use crate::inputs::{self, ServeJob, SERVE_N};
use crate::layers::{self, ExecStats, SchedStats};
use crate::stats::{median, percentile_permille, Summary};
use crate::trace::Tracer;
use crate::{Args, Outcome, Tally, SETUP_REPS, THREADS};

/// Tile size of every served job.
const B: usize = 32;
/// Offered load of the `lo` phase, jobs/s: about a third of the
/// service's capacity on the two-core benchmark host (see README.md).
pub const RATE_LO: f64 = 150.0;
/// Offered load of the `hi` phase, jobs/s: about two thirds of capacity.
pub const RATE_HI: f64 = 300.0;
/// The latency limit goodput counts against.
pub const LATENCY_LIMIT_S: f64 = 0.020;
/// A phase whose sender ran later than this at its p99 is invalid.
const SENDER_LATE_LIMIT_S: f64 = LATENCY_LIMIT_S;
/// Longest wait for a phase's admitted jobs to finish.
const PHASE_DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// What happened to one scheduled job at the sender.
#[derive(Debug, Clone, Copy)]
enum Sent {
    Admitted,
    Refused,
    Failed,
}

/// One send, timed by the sender.
#[derive(Debug, Clone, Copy)]
struct Send {
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    backlog: usize,
    sent: Sent,
}

/// An output after the collector solved against it.
struct Solved {
    x: Vec<f64>,
    /// Kept for the full Cholesky check of sampled jobs.
    factors: Option<Factorization>,
    makespan: f64,
    nominal_flops: f64,
    exec: ExecStats,
    sched: SchedStats,
}

/// One completion, timed by the collector.
struct Done {
    phase: usize,
    idx: usize,
    at: Instant,
    result: Result<Solved, String>,
}

/// A job handed to the service and not yet completed.
struct InFlight {
    phase: usize,
    idx: usize,
    handle: JobHandle<Report>,
}

/// The measurements of one phase.
struct Phase {
    secs: f64,
    sends: Vec<Send>,
    /// Per scheduled job: `Some(latency)` for an output that finished
    /// and passed its check, `None` for a refusal or failure.
    latency: Vec<Option<f64>>,
    makespan: Vec<Option<f64>>,
    nominal_flops: Vec<f64>,
    exec: Vec<ExecStats>,
    sched: SchedStats,
    valid: Result<(), String>,
}

impl Phase {
    /// Latencies with refusals and failures counted as missing every
    /// limit (infinite).
    fn latencies(&self) -> Vec<f64> {
        self.latency
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect()
    }

    fn within_limit(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.latency.len()).filter(|&i| self.latency[i].is_some_and(|l| l <= LATENCY_LIMIT_S))
    }

    /// Jobs completed within the limit per second.
    fn goodput(&self) -> f64 {
        self.within_limit().count() as f64 / self.secs
    }

    /// Nominal Gflop/s of the jobs completed within the limit.
    fn good_gflops(&self) -> f64 {
        self.within_limit()
            .map(|i| self.nominal_flops[i])
            .sum::<f64>()
            / self.secs
            * 1e-9
    }

    /// Queue wait and facade time: latency minus the job's makespan.
    fn waits(&self) -> Vec<f64> {
        self.latency
            .iter()
            .zip(&self.makespan)
            .filter_map(|(l, m)| Some(l.as_ref()? - m.as_ref()?))
            .collect()
    }

    fn late(&self) -> Vec<f64> {
        self.sends
            .iter()
            .map(|s| (s.submit_start - s.due).as_secs_f64())
            .collect()
    }

    fn refused(&self) -> usize {
        self.sends
            .iter()
            .filter(|s| matches!(s.sent, Sent::Refused))
            .count()
    }

    fn describe(&self, name: &str) -> String {
        let lat = Summary::of(&finite_or_big(&self.latencies()));
        let late = Summary::of(&self.late());
        let backlog = self.sends.iter().map(|s| s.backlog).max().unwrap_or(0);
        format!(
            "phase {name}: {} jobs over {:.1} s; latency {}; goodput {:.1} jobs/s; \
             refused {}; sender late {}; backlog max {backlog}; {}",
            self.sends.len(),
            self.secs,
            lat.describe(),
            self.goodput(),
            self.refused(),
            late.describe(),
            match &self.valid {
                Ok(()) => "valid".to_string(),
                Err(e) => format!("INVALID: {e}"),
            }
        )
    }
}

/// Infinite latencies (misses) as a large finite value so the result
/// stays valid JSON; any miss already fails the run.
fn finite_or_big(v: &[f64]) -> Vec<f64> {
    v.iter()
        .map(|&x| if x.is_finite() { x } else { 1e9 })
        .collect()
}

/// Whether the backlog sampled at each send is still growing at the end
/// of the phase: its last quarter averages more than twice its second
/// quarter (plus a margin of `2 × threads` jobs) and rises quarter on
/// quarter.
pub fn backlog_growing(samples: &[usize]) -> bool {
    if samples.len() < 8 {
        return false;
    }
    let q = samples.len() / 4;
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let (q2, q3, q4) = (
        mean(&samples[q..2 * q]),
        mean(&samples[2 * q..3 * q]),
        mean(&samples[3 * q..]),
    );
    q4 > 2.0 * q2 + 2.0 * THREADS as f64 && q4 > q3 && q3 > q2
}

fn service(traced: bool) -> ReportService {
    Solver::new(MatrixSource::shape(SERVE_N, SERVE_N))
        .tile(B)
        .threads(THREADS)
        .verify(false)
        .trace(traced)
        .serve()
        .expect("the service knobs validate")
}

/// Build a service and push one warm-up job through it; returns the
/// service and the set-up seconds.
fn set_up(traced: bool, seed: u64, tally: &mut Tally) -> (ReportService, f64) {
    let warm = ServeJob {
        due: 0.0,
        seed: inputs::sub_seed(seed, 99, 0),
        cholesky: false,
        class: calu::JobClass::Interactive,
        full_check: false,
    };
    let spec = warm.spec();
    let t0 = Instant::now();
    let svc = service(traced);
    let r = svc
        .submit(spec, warm.class)
        .map_err(|e| e.to_string())
        .and_then(|h| h.wait().map_err(|e| e.to_string()));
    let secs = t0.elapsed().as_secs_f64();
    tally.attempted += 1;
    match r.and_then(|mut rep| solve(&warm, &mut rep)) {
        Ok(s) => {
            let scaled =
                check::scaled_residual(&warm.matrix(), &s.x, &inputs::rhs(SERVE_N, warm.seed));
            if !tally.passes(scaled) {
                tally.bad_output(format!("warm-up job: scaled residual {scaled:e}"));
            }
        }
        Err(e) => tally.fail(1, format!("warm-up job: {e}")),
    }
    (svc, secs)
}

/// Solve against a served output (collector side, O(n²)).
fn solve(job: &ServeJob, r: &mut Report) -> Result<Solved, String> {
    let f = r
        .factorization
        .take()
        .ok_or("the report carries no factors")?;
    let b = inputs::rhs(SERVE_N, job.seed);
    let x = if job.cholesky {
        check::cholesky_solve(&f, &b)
    } else {
        check::lu_solve(&f, &b)
    };
    Ok(Solved {
        x,
        factors: job.full_check.then_some(f),
        makespan: r.makespan,
        nominal_flops: r.nominal_flops,
        exec: if job.cholesky {
            ExecStats::default()
        } else {
            ExecStats::of(r)
        },
        sched: SchedStats::of(&r.schedule),
    })
}

/// Drive `schedules` (one per phase, each lasting `secs`) through `svc`
/// in turn, then drain it. Checks run after the service is drained.
fn run_phases(
    svc: &ReportService,
    schedules: &[Vec<ServeJob>],
    secs: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Phase> {
    let inflight: Mutex<HashMap<u64, InFlight>> = Mutex::new(HashMap::new());
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let events = svc.events();
    let mut sends: Vec<Vec<Send>> = Vec::new();
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            for ev in events {
                let ServiceEvent::Job(e) = ev else { continue };
                let at = Instant::now();
                // the sender holds this lock across `submit`, so an
                // admitted job is always registered before it is looked up
                let Some(f) = inflight.lock().expect("in-flight map").remove(&e.id) else {
                    continue; // a warm-up job
                };
                let job = &schedules[f.phase][f.idx];
                let result = f
                    .handle
                    .wait()
                    .map_err(|e: ServeError| e.to_string())
                    .and_then(|mut r| solve(job, &mut r));
                done.lock().expect("done list").push(Done {
                    phase: f.phase,
                    idx: f.idx,
                    at,
                    result,
                });
            }
        });
        for (phase, jobs) in schedules.iter().enumerate() {
            let start = Instant::now() + Duration::from_millis(20);
            let mut phase_sends = Vec::with_capacity(jobs.len());
            let mut admitted = 0;
            for (idx, job) in jobs.iter().enumerate() {
                let due = start + Duration::from_secs_f64(job.due);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let spec = job.spec();
                let submit_start = Instant::now();
                let sent = {
                    let mut map = inflight.lock().expect("in-flight map");
                    match svc.submit(spec, job.class) {
                        Ok(handle) => {
                            map.insert(handle.id(), InFlight { phase, idx, handle });
                            Sent::Admitted
                        }
                        Err(ServeError::Busy { .. }) => Sent::Refused,
                        Err(_) => Sent::Failed,
                    }
                };
                let submit_end = Instant::now();
                admitted += usize::from(matches!(sent, Sent::Admitted));
                phase_sends.push(Send {
                    due,
                    submit_start,
                    submit_end,
                    backlog: svc.queued(),
                    sent,
                });
            }
            // let the phase's backlog clear before the next one starts
            let deadline = Instant::now() + PHASE_DRAIN_TIMEOUT;
            while done
                .lock()
                .expect("done list")
                .iter()
                .filter(|d| d.phase == phase)
                .count()
                < admitted
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            sends.push(phase_sends);
        }
        svc.drain();
        collector.join().expect("the collector thread panicked");
    });

    let done = done.into_inner().expect("done list");
    let mut phases: Vec<Phase> = schedules
        .iter()
        .zip(sends)
        .map(|(jobs, sends)| Phase {
            secs,
            valid: Ok(()),
            latency: vec![None; jobs.len()],
            makespan: vec![None; jobs.len()],
            nominal_flops: vec![0.0; jobs.len()],
            exec: Vec::new(),
            sched: SchedStats::default(),
            sends,
        })
        .collect();
    // checks, after the service is drained so no core is taken mid-phase
    let mut seen: Vec<Vec<bool>> = schedules.iter().map(|j| vec![false; j.len()]).collect();
    for d in done {
        seen[d.phase][d.idx] = true;
        let job = &schedules[d.phase][d.idx];
        let p = &mut phases[d.phase];
        tally.attempted += 1;
        let solved = match d.result {
            Ok(s) => s,
            Err(e) => {
                tally.fail(1, format!("job {} of phase {}: {e}", d.idx, d.phase));
                continue;
            }
        };
        let a = job.matrix();
        let ok = tracer.time("check.residual", d.idx as u64, || {
            let b = inputs::rhs(SERVE_N, job.seed);
            let mut ok = tally.passes(check::scaled_residual(&a, &solved.x, &b));
            if let Some(f) = &solved.factors {
                ok &= tally.passes(check::scaled_cholesky_residual(f, &a));
            }
            ok
        });
        if !ok {
            tally.bad_output(format!(
                "job {} of phase {} failed its residual check",
                d.idx, d.phase
            ));
        } else {
            let due = p.sends[d.idx].due;
            p.latency[d.idx] = Some((d.at - due).as_secs_f64());
            p.makespan[d.idx] = Some(solved.makespan);
            p.nominal_flops[d.idx] = solved.nominal_flops;
            if !job.cholesky {
                p.exec.push(solved.exec);
            }
            p.sched.add(&solved.sched);
            // spans of the request: due → completion, with the sender's
            // lateness, the submit call and the job's makespan inside it
            let s = p.sends[d.idx];
            let req = (d.phase * 1_000_000 + d.idx) as u64;
            let job_span = tracer.record("serve.job", due, d.at, None, req);
            tracer.record("loadgen.late", due, s.submit_start, Some(job_span), req);
            tracer.record(
                "serve.submit",
                s.submit_start,
                s.submit_end,
                Some(job_span),
                req,
            );
            tracer.record_tail("exec.factor", job_span, solved.makespan);
        }
    }
    for (p, seen) in phases.iter_mut().zip(&seen) {
        // refusals, submit errors and admitted jobs that never finished
        let missing = p
            .sends
            .iter()
            .zip(seen)
            .filter(|(s, &seen)| !(matches!(s.sent, Sent::Admitted) && seen))
            .count();
        if missing > 0 {
            tally.attempted += missing as u64;
            tally.fail(
                missing as u64,
                format!("{missing} jobs refused, failed to submit or unfinished"),
            );
        }
        let late_p99 = percentile_permille(&p.late(), 990);
        let backlog: Vec<usize> = p.sends.iter().map(|s| s.backlog).collect();
        p.valid = if late_p99 > SENDER_LATE_LIMIT_S {
            Err(format!(
                "sender p99 lateness {late_p99:.4} s over {SENDER_LATE_LIMIT_S} s"
            ))
        } else if backlog_growing(&backlog) {
            Err("backlog still growing at the end of the phase".into())
        } else {
            Ok(())
        };
    }
    phases
}

/// The `serve_open` workload.
pub fn serve_open(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut tally = Tally::default();
    let mut out = Outcome::default();
    let phase_secs = if args.trace {
        args.seconds / 4.0
    } else {
        args.seconds / 2.0
    };
    let lo = inputs::serve_schedule(args.seed, 0, RATE_LO, phase_secs);
    let hi = inputs::serve_schedule(args.seed, 1, RATE_HI, phase_secs);
    let schedules = vec![lo, hi];

    if !args.trace {
        let mut setups = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            if let Some(old) = kept.take() {
                let old: ReportService = old;
                old.drain();
            }
            let (svc, secs) = set_up(false, args.seed, &mut tally);
            setups.push(secs);
            kept = Some(svc);
        }
        let svc = kept.expect("at least one set-up");
        let phases = run_phases(&svc, &schedules, phase_secs, &mut tally, tracer);
        let (lo, hi) = (&phases[0], &phases[1]);
        out.e2e("setup_s", median(&setups));
        out.timing(
            &Summary::of(&finite_or_big(&lo.latencies())),
            "lo-phase job latency from due time",
        );
        out.e2e("items_per_s", hi.goodput());
        out.e2e("gflops", hi.good_gflops());
        out.note(format!(
            "setup_s over {} set-ups: {:?}",
            setups.len(),
            setups
        ));
        out.note(lo.describe("lo"));
        out.note(hi.describe("hi"));
        out.validity(&[&lo.valid, &hi.valid]);
        return out.finish(tally);
    }

    // traced run: the same two phases untraced, then traced
    let (plain_svc, _) = set_up(false, args.seed, &mut tally);
    let plain = run_phases(
        &plain_svc,
        &schedules,
        phase_secs,
        &mut tally,
        &mut Tracer::new(Instant::now(), false),
    );
    let (traced_svc, _) = set_up(true, args.seed, &mut tally);
    let traced = run_phases(&traced_svc, &schedules, phase_secs, &mut tally, tracer);
    let (lo, hi) = (&traced[0], &traced[1]);
    let plain_p50 = median(&finite_or_big(&plain[0].latencies()));
    let lo_lat = Summary::of(&finite_or_big(&lo.latencies()));
    out.layer("trace.overhead_frac", lo_lat.p50 / plain_p50 - 1.0);
    for (name, p) in [
        ("untraced lo", &plain[0]),
        ("untraced hi", &plain[1]),
        ("lo", lo),
        ("hi", hi),
    ] {
        out.note(p.describe(name));
    }
    out.validity(&[&lo.valid, &hi.valid, &plain[0].valid, &plain[1].valid]);

    let all_sends: Vec<Send> = lo.sends.iter().chain(&hi.sends).copied().collect();
    let submit: Vec<f64> = all_sends
        .iter()
        .map(|s| (s.submit_end - s.submit_start).as_secs_f64())
        .collect();
    let late: Vec<f64> = lo.late().into_iter().chain(hi.late()).collect();
    let lo_makespan: Vec<f64> = lo.makespan.iter().flatten().copied().collect();
    out.layer("serve.submit_p50_s", median(&submit));
    out.layer("serve.submit_p99_s", percentile_permille(&submit, 990));
    out.layer("serve.factor_p50_s", median(&lo_makespan));
    out.layer("serve.wait_p50_s", median(&lo.waits()));
    out.layer("serve.wait_hi_p50_s", median(&hi.waits()));
    out.layer("serve.latency_p50_s", lo_lat.p50);
    out.layer("serve.latency_tail_s", lo_lat.tail);
    out.layer(
        "serve.latency_hi_p50_s",
        median(&finite_or_big(&hi.latencies())),
    );
    out.layer(
        "serve.backlog_max",
        all_sends.iter().map(|s| s.backlog).max().unwrap_or(0) as f64,
    );
    out.layer("serve.refused", (lo.refused() + hi.refused()) as f64);
    out.layer("loadgen.late_p99_s", percentile_permille(&late, 990));
    out.layer("facade.outside_s", median(&lo.waits()));

    // executor and scheduler, from the LU jobs' own reports at `lo`
    let solver = Solver::new(MatrixSource::shape(SERVE_N, SERVE_N))
        .tile(B)
        .threads(THREADS);
    let plan = solver.plan().expect("the service knobs plan");
    let g = plan.build_graph();
    let upd_flops = layers::update_flops(&g);
    let mut all = ExecStats::default();
    for e in &lo.exec {
        all.add(e);
    }
    let per_job =
        |f: &dyn Fn(&ExecStats) -> f64| median(&lo.exec.iter().map(f).collect::<Vec<_>>());
    let cp = layers::critical_path_secs(&g, &all.mean_span());
    let makespan = per_job(&|e| e.makespan);
    out.layer("exec.makespan_s", makespan);
    out.layer("exec.update_busy_s", per_job(&|e| e.update_busy()));
    out.layer("exec.panel_busy_s", per_job(&|e| e.panel_busy()));
    out.layer("exec.lu_busy_s", per_job(&|e| e.lu_busy()));
    out.layer(
        "exec.update_gflops",
        per_job(&|e| layers::ratio(upd_flops, e.update_busy())) * 1e-9,
    );
    out.layer(
        "exec.idle_frac",
        per_job(&|e| 1.0 - layers::ratio(e.work(), e.capacity)),
    );
    out.layer("dag.critical_path_s", cp);
    out.layer("exec.cp_ratio", layers::ratio(makespan, cp));
    let mut sched = lo.sched;
    sched.add(&hi.sched);
    out.layer("sched.dynamic_frac", sched.dynamic_frac());
    out.layer("sched.failed_steal_rate", sched.failed_steal_rate());
    out.layer(
        "sched.steals",
        layers::ratio(
            sched.steals as f64,
            (lo.latency.len() + hi.latency.len()) as f64,
        ),
    );

    let a = schedules[0]
        .iter()
        .find(|j| !j.cholesky)
        .expect("the lo phase has LU jobs")
        .matrix();
    out.layer(
        "matrix.to_tiles_s",
        tracer.time("matrix.to_tiles", 0, || {
            layers::to_tiles_secs(&a, B, plan.grid)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_steady_backlog_is_not_growing() {
        let steady: Vec<usize> = (0..400).map(|i| (i * 7) % 5).collect();
        assert!(!backlog_growing(&steady));
        let ramp: Vec<usize> = (0..400).map(|i| i / 4).collect();
        assert!(backlog_growing(&ramp));
        assert!(!backlog_growing(&[9, 9, 9]));
    }
}
