//! The request-persistent worker pool behind the factorization service.
//!
//! `crate::batch` spawns its pool per call and joins it when the sweep
//! drains; this module generalizes that to a [`ServicePool`] whose
//! workers are spawned **once** and then block on a service queue until
//! [`ServicePool::drain`] — the substrate `calu-serve`'s `FactorService`
//! builds its admission, lifecycle and streaming layers on. The
//! execution modes are the batch executor's two, verbatim:
//!
//! * **small** jobs (larger dimension ≤ [`CaluConfig::batch_small_cutoff`]
//!   with [`CaluConfig::batch_threads_per_item`] `<` threads) are
//!   *co-scheduled*: the claiming worker materializes the source, builds
//!   the item state and drains the DAG sequentially, all worker-locally
//!   (the same `run_item_sequential` the batch path runs, so the bits
//!   are too);
//! * **large** jobs run the hybrid static/dynamic schedule
//!   co-operatively: the claiming worker publishes a shared run every
//!   pool worker pulls from — static tasks from the per-worker queues by
//!   block-cyclic ownership, dynamic ones from a *per-run* shared heap
//!   in Algorithm 2's DFS order (the paper-verbatim
//!   [`QueueDiscipline::Global`](calu_sched::QueueDiscipline) shape;
//!   queue discipline never changes the math, so the service runs every
//!   job's dynamic section on the simplest one).
//!
//! Job ordering is delegated to [`ClassLanes`]: workers prefer
//! higher-priority classes with bounded starvation of lower ones.
//! Results leave through a caller-supplied [`JobSink`] — the pool knows
//! nothing about handles, events or admission; that is the service
//! crate's business.
//!
//! Worker wakeup is a condition variable with a 1 ms timed wait, so a
//! notification lost to a race costs at most one tick, never a hang.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use calu_dag::TaskId;
use calu_kernels::GemmScratch;
use calu_matrix::{
    gen, BclMatrix, CmTiles, DenseMatrix, Layout, ProcessGrid, TileStorage, TlbMatrix,
};
use calu_sched::{nstatic_for, ClassLanes, JobClass, QueueSource};
use calu_trace::{TaskSpan, Timeline};

use crate::batch::{run_item_sequential, span_kind, WorkerHaul};
use crate::config::CaluConfig;
use crate::error::CaluError;
use crate::factorization::Factorization;
use crate::fault::{FaultAction, FaultClock, FaultKind};
use crate::shared::{load, TileLayout};
use crate::sync::{pin_current_thread, Mutex};
use crate::threaded::{host_topology, ItemState, KernelSet, ThreadStats};

/// What one service job factors. Owned (`'static`) so a job can outlive
/// its submitter: either dense data moved in, or a seeded generator
/// materialized lazily on the worker that claims the job.
#[derive(Debug, Clone)]
pub enum PoolSource {
    /// Dense data, moved into the job.
    Dense(DenseMatrix),
    /// A seeded uniform generator matrix, materialized on the claiming
    /// worker (`calu_matrix::gen::uniform`).
    Uniform {
        /// Rows.
        m: usize,
        /// Columns.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A seeded symmetric positive-definite generator matrix,
    /// materialized on the claiming worker
    /// (`calu_matrix::gen::spd_uniform`) — the natural source for
    /// [`KernelSet::Cholesky`] jobs.
    SpdUniform {
        /// Order (the matrix is `n×n`).
        n: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl PoolSource {
    /// `(rows, cols)` without materializing.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            PoolSource::Dense(a) => (a.rows(), a.cols()),
            PoolSource::Uniform { m, n, .. } => (*m, *n),
            PoolSource::SpdUniform { n, .. } => (*n, *n),
        }
    }

    /// The element data, generated on the calling thread for the
    /// generator variants.
    pub fn materialize(self) -> DenseMatrix {
        match self {
            PoolSource::Dense(a) => a,
            PoolSource::Uniform { m, n, seed } => gen::uniform(m, n, seed),
            PoolSource::SpdUniform { n, seed } => gen::spd_uniform(n, seed),
        }
    }
}

/// Everything the pool knows about one completed job — the raw
/// material the service's report builder shapes into a facade `Report`.
#[derive(Debug)]
pub struct PoolOutcome {
    /// The factors, bitwise-identical to a solo `calu_factor` /
    /// `cholesky_factor` with the same config.
    pub factorization: Factorization,
    /// Which algorithm's kernels factored the job — the service's
    /// report builder keys its residual/flops shaping on this.
    pub kernels: KernelSet,
    /// Per-worker spans, time-shifted so the job's first task starts
    /// at 0.
    pub timeline: Timeline,
    /// Per-worker queue accounting for this job's tasks.
    pub stats: Vec<ThreadStats>,
    /// First task start → last task end.
    pub makespan: f64,
    /// Whether the job was claimed whole by one worker (small route)
    /// rather than run co-operatively by the pool.
    pub co_scheduled: bool,
    /// `(rows, cols)` of the input.
    pub dims: (usize, usize),
    /// `‖PA − LU‖ / ‖A‖` (LU jobs) or `‖A − LLᵀ‖ / ‖A‖` (Cholesky
    /// jobs), when the pool was spawned with verification.
    pub residual: Option<f64>,
    /// Element growth factor, when verification is on — LU jobs only
    /// (Cholesky does not pivot, so the figure is meaningless there).
    pub growth_factor: Option<f64>,
}

impl PoolOutcome {
    /// Distill this job's schedule readings into an
    /// [`Observation`](calu_sched::adaptive::Observation) — the pool's
    /// feedback hook for the adaptive split controller. The formulas
    /// match the facade's `ScheduleMetrics` accessors (failure rate =
    /// failed sweeps / total sweeps, remote fraction = remote steals /
    /// total steals), so observations fed from a service job and from a
    /// solo run's `Report::schedule` read on one scale.
    pub fn observation(&self) -> calu_sched::adaptive::Observation {
        let threads = self.stats.len().max(1);
        let total_idle: f64 = (0..self.timeline.cores())
            .map(|c| self.timeline.idle_time(c))
            .sum();
        let steals: u64 = self.stats.iter().map(|s| s.steal_pops).sum();
        let remote: u64 = self.stats.iter().map(|s| s.remote_steal_pops).sum();
        let failed: u64 = self.stats.iter().map(|s| s.failed_steals).sum();
        let sweeps = steals + failed;
        let contention = if sweeps == 0 {
            0.0
        } else {
            failed as f64 / sweeps as f64
        };
        let remote_fraction = if steals == 0 {
            0.0
        } else {
            remote as f64 / steals as f64
        };
        calu_sched::adaptive::Observation::new(threads, self.makespan, total_idle)
            .with_contention(contention)
            .with_remote_fraction(remote_fraction)
            .with_lost(self.stats.iter().filter(|s| s.lost).count())
            .with_rescued(self.stats.iter().map(|s| s.rescued).sum())
            .with_dims(self.dims.0, self.dims.1)
    }
}

/// Where a job's result goes. The service layer implements this to
/// route outcomes into handles and event streams; tests implement it
/// with a channel. `started` fires when a worker claims the job (the
/// `Queued → Running` transition), `finished` exactly once with the
/// terminal result.
pub trait JobSink: Send + 'static {
    /// A worker claimed the job.
    fn started(&self) {}
    /// The job reached a terminal state.
    fn finished(self: Box<Self>, res: Result<PoolOutcome, CaluError>);
}

/// The verification figures a `verify` pool reports per job: each
/// kernel set's own residual, plus element growth for pivoted LU only
/// (Cholesky does not pivot, so the figure is meaningless there).
fn verify_figures(
    kernels: KernelSet,
    f: &Factorization,
    a: &DenseMatrix,
) -> (Option<f64>, Option<f64>) {
    match kernels {
        KernelSet::CaluLu => (Some(f.residual(a)), Some(f.growth_factor(a))),
        KernelSet::Cholesky => (Some(f.cholesky_residual(a)), None),
    }
}

/// Best-effort panic payload → job error. `panic!` carries a `&str` or
/// a formatted `String`; anything else keeps only the fact.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> CaluError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    CaluError::TaskPanic(msg)
}

/// A job waiting in the lanes.
struct QueuedJob {
    id: u64,
    kernels: KernelSet,
    source: PoolSource,
    sink: Box<dyn JobSink>,
}

/// One queued-but-unclaimed job handed back by
/// [`ServicePool::extract_queued`] — everything the submitter gave the
/// pool, sink included (uncalled), so a successor pool can re-admit the
/// job under the same identity during a live-reconfigure handover.
pub struct ExtractedJob {
    /// The caller's correlation key, unchanged.
    pub id: u64,
    /// The class the job was queued under.
    pub class: JobClass,
    /// Which algorithm's kernels factor the job.
    pub kernels: KernelSet,
    /// The job's matrix source, unmaterialized.
    pub source: PoolSource,
    /// The job's sink, never invoked by the extracting pool.
    pub sink: Box<dyn JobSink>,
}

/// Fault bookkeeping shared by the engine's workers — present only when
/// the pool was spawned with an armed [`crate::fault::FaultPlan`], so
/// the no-fault hot path pays a single `Option` check.
struct EngineFault {
    /// Worker `w` no longer takes static work: dead ([`FaultKind::Lose`])
    /// or persistently slow ([`FaultKind::Slow`], pre-marked at spawn so
    /// its block-cyclic share rides the dynamic section from the first
    /// panel). Consulted inside each run's `local[w]` mutex, so a
    /// publish-time reroute can never race a retiring worker's drain and
    /// strand a task.
    degraded: Vec<AtomicBool>,
    /// Workers that exited after an injected loss.
    lost_workers: AtomicUsize,
    /// Static tasks republished into dynamic heaps, pool-wide.
    rescued: AtomicU64,
}

impl EngineFault {
    fn new(threads: usize, plan: &crate::fault::FaultPlan) -> Self {
        let f = EngineFault {
            degraded: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            lost_workers: AtomicUsize::new(0),
            rescued: AtomicU64::new(0),
        };
        for wf in plan.faults() {
            if matches!(wf.kind, FaultKind::Slow { .. }) {
                f.degraded[wf.worker].store(true, Ordering::Release);
            }
        }
        f
    }
}

type RunHeap = Mutex<BinaryHeap<Reverse<(u64, u32)>>>;

/// One co-operative (large) job in flight: the item state plus this
/// run's own queue set. Runs are shared by `Arc` between the `active`
/// list and whichever workers are mid-task, which is why the finishing
/// worker unloads the factors by reference (`ItemState::factorization`)
/// instead of taking the storage by value.
struct LargeRun<S: TileStorage> {
    item: ItemState<S>,
    total: usize,
    /// The service job id — the key `fail_active`/`progress_of` find
    /// this run by (the watchdog's handle on a running job).
    id: u64,
    /// Tasks retired so far: bumped on every completion, read by the
    /// service watchdog to tell a slow job from a stalled one.
    heartbeat: AtomicU64,
    /// Per-worker static queues (block-cyclic ownership).
    local: Vec<RunHeap>,
    /// This run's dynamic section: one shared heap in DFS order.
    dynamic: RunHeap,
    spans: Mutex<Vec<TaskSpan>>,
    stats: Mutex<Vec<ThreadStats>>,
    sink: Mutex<Option<Box<dyn JobSink>>>,
    /// The input, kept only when the pool verifies results.
    a: Option<DenseMatrix>,
    dims: (usize, usize),
    /// First finisher wins; everyone else moves on.
    finishing: AtomicBool,
    /// Lane index of the job's class — `active` is kept sorted by
    /// `(class_rank, seq)` so workers serve higher-class runs first.
    class_rank: usize,
    seq: u64,
}

impl<S: TileStorage + Send> LargeRun<S> {
    /// Queue a ready task: static tasks to their owner's queue, dynamic
    /// ones to the run's shared heap (the solo executor's
    /// `Global`-discipline shape). A static task whose owner is degraded
    /// (lost or persistently slow under an armed fault plan) is
    /// *rescued* at publish time: republished into the dynamic heap in
    /// DFS order, where any surviving worker pops it. The degraded flag
    /// is read under the owner's queue mutex — the same mutex a retiring
    /// worker drains under — so a push can never land after the drain
    /// without seeing the flag.
    fn push_ready(&self, t: TaskId, fault: Option<&EngineFault>) {
        let item = &self.item;
        if item.is_static[t.idx()] {
            let owner = item.owners.owner(t);
            let mut q = self.local[owner].lock();
            if let Some(f) = fault {
                if f.degraded[owner].load(Ordering::Acquire) {
                    drop(q);
                    f.rescued.fetch_add(1, Ordering::Relaxed);
                    self.stats.lock()[owner].rescued += 1;
                    self.dynamic
                        .lock()
                        .push(Reverse((item.dynamic_keys[t.idx()], t.0)));
                    return;
                }
            }
            q.push(Reverse((item.static_keys[t.idx()], t.0)));
        } else {
            self.dynamic
                .lock()
                .push(Reverse((item.dynamic_keys[t.idx()], t.0)));
        }
    }
}

struct EngineState<S: TileStorage> {
    lanes: ClassLanes<QueuedJob>,
    /// In-flight co-operative runs, sorted by `(class_rank, seq)`.
    active: Vec<Arc<LargeRun<S>>>,
    /// Claimed-but-unfinished jobs (small and large).
    in_flight: usize,
    draining: bool,
    /// A panic escaped a worker's catch-unwind perimeter (e.g. inside a
    /// sink callback): the pool is dead; `drain` fails fast instead of
    /// waiting for jobs that will never finish.
    poisoned: bool,
    workers_started: usize,
    next_seq: u64,
}

struct Engine<S: TileStorage> {
    cfg: CaluConfig,
    grid: ProcessGrid,
    leaf_stride: usize,
    verify: bool,
    epoch: Instant,
    /// `Some` only when `cfg.fault` is armed; the no-fault hot path
    /// never pays more than this `Option` check.
    fault: Option<EngineFault>,
    state: Mutex<EngineState<S>>,
    /// Signalled when work may be available (submit, new run, task
    /// completions enabling successors).
    work: Condvar,
    /// Signalled when the pool may have gone idle (job finished,
    /// worker started) — what `drain` and `spawn` wait on.
    idle: Condvar,
}

/// How long an idle worker sleeps between wakeup checks: long enough
/// to cost nothing, short enough that a lost notification is harmless.
const IDLE_TICK: Duration = Duration::from_millis(1);

impl<S: TileLayout + 'static> Engine<S> {
    fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// Try to pop one co-operative task, serving higher-class runs
    /// first: worker `me`'s static queue of each run, then the run's
    /// dynamic heap.
    fn pop_coop(&self, me: usize) -> Option<(Arc<LargeRun<S>>, TaskId, QueueSource)> {
        let runs: Vec<Arc<LargeRun<S>>> = self.state.lock().active.clone();
        for run in runs {
            let own = run.local[me].lock().pop();
            if let Some(Reverse((_, t))) = own {
                return Some((run, TaskId(t), QueueSource::Local));
            }
            let dynamic = run.dynamic.lock().pop();
            if let Some(Reverse((_, t))) = dynamic {
                return Some((run, TaskId(t), QueueSource::Global));
            }
        }
        None
    }

    /// Execute one co-operative task and queue its successors; the
    /// worker whose completion retires the run's last task finishes it.
    #[allow(clippy::too_many_arguments)]
    fn run_task(
        &self,
        run: &Arc<LargeRun<S>>,
        t: TaskId,
        source: QueueSource,
        me: usize,
        scratch: &mut GemmScratch,
        ready_buf: &mut Vec<TaskId>,
        inject_panic: bool,
    ) {
        let start = self.epoch.elapsed().as_secs_f64();
        // contain kernel panics to the job: fail its sink and keep the
        // pool alive (an uncontained panic drops this worker with
        // in_flight still counted, hanging drain and the job's waiter)
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected kernel panic on worker {me} (fault plan)");
            }
            run.item.execute(t, scratch)
        })) {
            self.fail_run(run, panic_error(p));
            return;
        }
        run.heartbeat.fetch_add(1, Ordering::Relaxed);
        let end = self.epoch.elapsed().as_secs_f64();
        run.spans.lock().push(TaskSpan {
            core: me,
            start,
            end,
            kind: span_kind(&run.item.g, t),
        });
        {
            let mut stats = run.stats.lock();
            match source {
                QueueSource::Local => stats[me].local_pops += 1,
                _ => stats[me].global_pops += 1,
            }
        }
        run.item.complete_into(t, ready_buf);
        for &s in ready_buf.iter() {
            run.push_ready(s, self.fault.as_ref());
        }
        if !ready_buf.is_empty() {
            self.work.notify_all();
        }
        if run.item.done.load(Ordering::Acquire) == run.total
            && !run.finishing.swap(true, Ordering::AcqRel)
        {
            self.finish_run(run);
        }
    }

    /// A task body panicked (or the watchdog condemned the run): fail
    /// the whole run, once (`finishing` arbitrates against a concurrent
    /// normal finish — `false` means that race was lost and the run
    /// finished normally). Removing the run from `active` stops workers
    /// popping its remaining tasks; peers already executing one may
    /// finish or panic harmlessly — the sink is gone and `done` can no
    /// longer trigger `finish_run`.
    fn fail_run(&self, run: &Arc<LargeRun<S>>, err: CaluError) -> bool {
        if run.finishing.swap(true, Ordering::AcqRel) {
            return false;
        }
        {
            let mut st = self.state.lock();
            st.active.retain(|r| !Arc::ptr_eq(r, run));
        }
        let sink = run.sink.lock().take().expect("run finishes once");
        sink.finished(Err(err));
        let mut st = self.state.lock();
        st.in_flight -= 1;
        drop(st);
        self.idle.notify_all();
        self.work.notify_all();
        true
    }

    /// Extract a drained run's results and deliver them. Called by
    /// exactly one worker (the `finishing` flag), with every task done.
    fn finish_run(&self, run: &Arc<LargeRun<S>>) {
        {
            let mut st = self.state.lock();
            st.active.retain(|r| !Arc::ptr_eq(r, run));
        }
        let factorization = run.item.factorization();
        let kernels = KernelSet::for_graph(&run.item.g);
        let (residual, growth_factor) = match &run.a {
            Some(a) => verify_figures(kernels, &factorization, a),
            None => (None, None),
        };
        let spans = std::mem::take(&mut *run.spans.lock());
        let t_start = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let mut timeline = Timeline::new(self.threads());
        for s in &spans {
            timeline.push(TaskSpan {
                start: s.start - t_start,
                end: s.end - t_start,
                ..*s
            });
        }
        let stats = std::mem::take(&mut *run.stats.lock());
        let makespan = timeline.makespan();
        let sink = run.sink.lock().take().expect("run finishes once");
        // deliver with no pool lock held: sinks may take service locks
        sink.finished(Ok(PoolOutcome {
            factorization,
            kernels,
            timeline,
            stats,
            makespan,
            co_scheduled: false,
            dims: run.dims,
            residual,
            growth_factor,
        }));
        let mut st = self.state.lock();
        st.in_flight -= 1;
        drop(st);
        self.idle.notify_all();
        self.work.notify_all();
    }

    /// One claimed job reached a terminal state without ever running a
    /// task: deliver, release its in-flight slot, wake `drain`.
    fn end_job(&self, sink: Box<dyn JobSink>, res: Result<PoolOutcome, CaluError>) {
        sink.finished(res);
        let mut st = self.state.lock();
        st.in_flight -= 1;
        drop(st);
        self.idle.notify_all();
    }

    /// Run one claimed job. Small jobs complete entirely on this
    /// worker; large ones are published as a [`LargeRun`] for the pool
    /// to drain co-operatively. Source materialization, tile builds and
    /// kernels all run under `catch_unwind`: a panicking job fails its
    /// own sink instead of killing the worker (which would strand the
    /// in-flight count and hang `drain` and the job's waiter).
    ///
    /// Returns `false` when an injected worker loss fired mid-way
    /// through a co-scheduled item: the whole item has been requeued
    /// (its claim was atomic, so redoing it from the source is exact)
    /// and the calling worker must retire.
    #[allow(clippy::too_many_arguments)]
    fn start_job(
        &self,
        class: JobClass,
        seq: u64,
        job: QueuedJob,
        me: usize,
        scratch: &mut GemmScratch,
        clock: &mut FaultClock,
        inject_panic: bool,
    ) -> bool {
        let QueuedJob {
            id,
            kernels,
            source,
            sink,
        } = job;
        sink.started();
        let dims = source.dims();
        let (m, n) = dims;
        let co_schedule = self.cfg.batch_threads_per_item < self.cfg.threads;
        let small = co_schedule && m.max(n) <= self.cfg.batch_small_cutoff;

        if small {
            // a mid-item worker loss has no partial-state recovery
            // path: keep the source so the whole item can be requeued
            let backup = self.fault.as_ref().map(|_| source.clone());
            let res = catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected kernel panic on worker {me} (fault plan)");
                }
                self.run_small(kernels, source, dims, me, scratch, clock)
            }));
            match res {
                Ok(Ok(Some(out))) => self.end_job(sink, Ok(out)),
                Ok(Ok(None)) => {
                    // worker lost mid-item: discard the partial state
                    // and put the whole job back in its lane for a
                    // surviving worker; the sink stays attached (its
                    // `started` is idempotent on the service side)
                    let job = QueuedJob {
                        id,
                        kernels,
                        source: backup.expect("interrupts need an armed fault plan"),
                        sink,
                    };
                    let mut st = self.state.lock();
                    st.lanes.push(class, job);
                    st.in_flight -= 1;
                    drop(st);
                    self.work.notify_all();
                    self.idle.notify_all();
                    return false;
                }
                Ok(Err(e)) => self.end_job(sink, Err(e)),
                Err(p) => self.end_job(sink, Err(panic_error(p))),
            }
            return true;
        }

        let built = catch_unwind(AssertUnwindSafe(|| -> Result<_, CaluError> {
            if inject_panic {
                panic!("injected kernel panic on worker {me} (fault plan)");
            }
            let a = source.materialize();
            let g = Arc::new(kernels.build_graph(m, n, self.cfg.b, self.leaf_stride)?);
            let nstatic = nstatic_for(self.cfg.dratio, g.num_panels());
            let item = ItemState::new(load::<S>(&a, self.cfg.b, self.grid), g, self.grid, nstatic);
            Ok((a, item))
        }));
        let (a, item) = match built {
            Ok(Ok(parts)) => parts,
            Ok(Err(e)) => {
                self.end_job(sink, Err(e));
                return true;
            }
            Err(p) => {
                self.end_job(sink, Err(panic_error(p)));
                return true;
            }
        };
        let total = item.g.len();
        let run = Arc::new(LargeRun {
            total,
            id,
            heartbeat: AtomicU64::new(0),
            local: (0..self.threads())
                .map(|_| Mutex::new(BinaryHeap::new()))
                .collect(),
            dynamic: Mutex::new(BinaryHeap::new()),
            spans: Mutex::new(Vec::new()),
            stats: Mutex::new(vec![ThreadStats::default(); self.threads()]),
            sink: Mutex::new(Some(sink)),
            a: self.verify.then_some(a),
            dims,
            finishing: AtomicBool::new(false),
            class_rank: class.lane(),
            seq,
            item,
        });
        // publish the (still-empty) run *before* queueing its initial
        // tasks: a worker retiring concurrently snapshots `active` with
        // the degraded flag already set under the same state lock, so
        // either this run is in its snapshot (drained) or this insert
        // happened after (every push below sees the flag and reroutes).
        // Popping from an empty run is harmless.
        {
            let mut st = self.state.lock();
            let key = (run.class_rank, run.seq);
            let pos = st.active.partition_point(|r| (r.class_rank, r.seq) <= key);
            st.active.insert(pos, Arc::clone(&run));
        }
        for t in run.item.g.initial_ready() {
            run.push_ready(t, self.fault.as_ref());
        }
        self.work.notify_all();
        true
    }

    /// The co-scheduled (small) route: materialize, build and drain the
    /// whole DAG worker-locally — the batch path's
    /// `run_item_sequential`, so the bits match a solo run.
    ///
    /// Under an armed fault plan the drain is interruptible: the
    /// closure ticks this worker's [`FaultClock`] per task (stalls and
    /// slowdowns sleep in place; an injected panic unwinds into the
    /// caller's perimeter) and a fired loss abandons the item, returning
    /// `Ok(None)` so the caller can requeue it whole.
    fn run_small(
        &self,
        kernels: KernelSet,
        source: PoolSource,
        dims: (usize, usize),
        me: usize,
        scratch: &mut GemmScratch,
        clock: &mut FaultClock,
    ) -> Result<Option<PoolOutcome>, CaluError> {
        let (m, n) = dims;
        let a = source.materialize();
        let g = Arc::new(kernels.build_graph(m, n, self.cfg.b, self.leaf_stride)?);
        let nstatic = nstatic_for(self.cfg.dratio, g.num_panels());
        let item = ItemState::new(
            load::<S>(&a, self.cfg.b, self.grid),
            Arc::clone(&g),
            self.grid,
            nstatic,
        );
        let mut haul = WorkerHaul {
            spans: Vec::new(),
            stats: vec![ThreadStats::default()],
            start_offset: 0.0,
            failed_sweeps: 0,
        };
        let completed = if self.fault.is_none() {
            run_item_sequential(&item, 0, me, scratch, &self.epoch, &mut haul, None)
        } else {
            let mut last: Option<Instant> = None;
            let mut stop = || {
                if let Some(prev) = last {
                    if let Some(stall) = clock.after_task(prev.elapsed()) {
                        std::thread::sleep(stall);
                    }
                }
                last = Some(Instant::now());
                match clock.before_task() {
                    FaultAction::None => false,
                    FaultAction::Stall(d) => {
                        std::thread::sleep(d);
                        false
                    }
                    FaultAction::Lose => true,
                    FaultAction::Panic => {
                        panic!("injected kernel panic on worker {me} (fault plan)")
                    }
                }
            };
            run_item_sequential(
                &item,
                0,
                me,
                scratch,
                &self.epoch,
                &mut haul,
                Some(&mut stop),
            )
        };
        if !completed {
            return Ok(None);
        }
        let factorization = item.factorization();
        let (residual, growth_factor) = if self.verify {
            verify_figures(kernels, &factorization, &a)
        } else {
            (None, None)
        };
        drop(a);
        let t_start = haul
            .spans
            .iter()
            .map(|(_, s)| s.start)
            .fold(f64::INFINITY, f64::min);
        let mut timeline = Timeline::new(self.threads());
        for (_, s) in &haul.spans {
            timeline.push(TaskSpan {
                start: s.start - t_start,
                end: s.end - t_start,
                ..*s
            });
        }
        let mut stats = vec![ThreadStats::default(); self.threads()];
        stats[me] = haul.stats[0];
        let makespan = timeline.makespan();
        Ok(Some(PoolOutcome {
            factorization,
            kernels,
            timeline,
            stats,
            makespan,
            co_scheduled: true,
            dims,
            residual,
            growth_factor,
        }))
    }

    /// An injected loss fired on worker `me`: republish every static
    /// task queued to it across all active runs into those runs'
    /// dynamic heaps (rescue), mark it degraded so future static
    /// assignments reroute at publish time, and count the loss. The
    /// caller returns from the worker loop afterwards — `PanicGuard`
    /// does not poison a clean exit, so the pool keeps serving with one
    /// worker fewer and `drain` still joins everything.
    fn retire_worker(&self, me: usize) {
        let f = self
            .fault
            .as_ref()
            .expect("losses need an armed fault plan");
        let runs: Vec<Arc<LargeRun<S>>> = {
            // flag and snapshot under one state lock: a run published
            // after this releases observes the flag (all its pushes
            // reroute); one published before is in the snapshot (its
            // queue gets drained under the same mutex pushes take)
            let st = self.state.lock();
            f.degraded[me].store(true, Ordering::Release);
            st.active.clone()
        };
        f.lost_workers.fetch_add(1, Ordering::Relaxed);
        for run in runs {
            let drained: Vec<u32> = {
                let mut q = run.local[me].lock();
                std::iter::from_fn(|| q.pop().map(|Reverse((_, t))| t)).collect()
            };
            {
                let mut stats = run.stats.lock();
                stats[me].lost = true;
                stats[me].rescued += drained.len() as u64;
            }
            f.rescued.fetch_add(drained.len() as u64, Ordering::Relaxed);
            if !drained.is_empty() {
                let mut dy = run.dynamic.lock();
                for t in drained {
                    dy.push(Reverse((run.item.dynamic_keys[t as usize], t)));
                }
            }
        }
        self.work.notify_all();
        self.idle.notify_all();
    }

    fn worker_loop(self: &Arc<Self>, me: usize) {
        if self.cfg.pin_workers {
            pin_current_thread(host_topology().cpu_for_worker(me));
        }
        let _guard = PanicGuard(&**self);
        let mut scratch = GemmScratch::sized_for(self.cfg.b, self.cfg.b, self.cfg.b);
        let mut ready_buf: Vec<TaskId> = Vec::new();
        let armed = self.fault.is_some();
        let mut clock = if armed {
            FaultClock::new(&self.cfg.fault, me)
        } else {
            FaultClock::disarmed()
        };
        // an injected panic latches until the next piece of work, where
        // it unwinds inside that job's containment perimeter
        let mut panic_pending = false;
        {
            let mut st = self.state.lock();
            st.workers_started += 1;
            drop(st);
            self.idle.notify_all();
        }
        loop {
            if armed {
                match clock.before_task() {
                    FaultAction::None => {}
                    FaultAction::Stall(d) => std::thread::sleep(d),
                    FaultAction::Lose => {
                        self.retire_worker(me);
                        return;
                    }
                    FaultAction::Panic => panic_pending = true,
                }
            }
            if let Some((run, t, src)) = self.pop_coop(me) {
                let before = armed.then(Instant::now);
                self.run_task(
                    &run,
                    t,
                    src,
                    me,
                    &mut scratch,
                    &mut ready_buf,
                    std::mem::take(&mut panic_pending),
                );
                if let Some(b) = before {
                    if let Some(stall) = clock.after_task(b.elapsed()) {
                        std::thread::sleep(stall);
                    }
                }
                continue;
            }
            let mut st = self.state.lock();
            if let Some((class, job)) = st.lanes.pop() {
                st.in_flight += 1;
                let seq = st.next_seq;
                st.next_seq += 1;
                drop(st);
                if !self.start_job(
                    class,
                    seq,
                    job,
                    me,
                    &mut scratch,
                    &mut clock,
                    std::mem::take(&mut panic_pending),
                ) {
                    // a loss fired mid-way through a co-scheduled item;
                    // the item is already back in its lane
                    self.retire_worker(me);
                    return;
                }
                continue;
            }
            if st.draining && st.lanes.is_empty() && st.in_flight == 0 {
                // truly nothing left: no queued jobs and no claimed
                // ones. Gating on in_flight (not `active`) matters — a
                // peer that popped a large job but has not yet published
                // its run still holds an in-flight slot, and that run
                // will assign static tasks to *this* worker's queue by
                // block-cyclic ownership; leaving early would strand
                // them (pop_coop has no stealing) and hang the drain
                return;
            }
            if st.draining && st.poisoned {
                // a peer died with a job claimed; that job can never
                // finish, so leave and let drain fail fast at the join
                return;
            }
            let _ = self
                .work
                .wait_timeout(st, IDLE_TICK)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Belt-and-braces behind `start_job`'s catch-unwind perimeter: if a
/// panic still escapes a worker (a sink callback, the report-shaping
/// code), mark the engine poisoned on the way down so `drain` stops
/// waiting for progress that will never come and fails fast at the
/// join instead of hanging.
struct PanicGuard<'a, S: TileStorage>(&'a Engine<S>);

impl<S: TileStorage> Drop for PanicGuard<'_, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.0.state.lock();
            st.poisoned = true;
            drop(st);
            self.0.idle.notify_all();
            self.0.work.notify_all();
        }
    }
}

/// Pool state shared by the public handle, generic over storage.
struct PoolCore<S: TileLayout + 'static> {
    engine: Arc<Engine<S>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: TileLayout + 'static> PoolCore<S> {
    fn spawn(cfg: CaluConfig, grid: ProcessGrid, verify: bool, limit: usize) -> (Self, f64) {
        let leaf_stride = cfg.leaf_stride.unwrap_or_else(|| grid.pr());
        let threads = cfg.threads;
        let fault = (!cfg.fault.is_off()).then(|| EngineFault::new(threads, &cfg.fault));
        let engine = Arc::new(Engine {
            cfg,
            grid,
            leaf_stride,
            verify,
            epoch: Instant::now(),
            fault,
            state: Mutex::new(EngineState {
                lanes: ClassLanes::new(limit),
                active: Vec::new(),
                in_flight: 0,
                draining: false,
                poisoned: false,
                workers_started: 0,
                next_seq: 0,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let handles: Vec<JoinHandle<()>> = (0..threads)
            .map(|me| {
                let eng = Arc::clone(&engine);
                std::thread::spawn(move || eng.worker_loop(me))
            })
            .collect();
        // spawn cost = time until the last worker enters its loop
        let mut st = engine.state.lock();
        while st.workers_started < threads {
            st = engine
                .idle
                .wait_timeout(st, IDLE_TICK)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        drop(st);
        let spawn_secs = engine.epoch.elapsed().as_secs_f64();
        (
            PoolCore {
                engine,
                handles: Mutex::new(handles),
            },
            spawn_secs,
        )
    }

    fn submit(
        &self,
        id: u64,
        class: JobClass,
        kernels: KernelSet,
        source: PoolSource,
        sink: Box<dyn JobSink>,
    ) -> Result<(), Box<dyn JobSink>> {
        let mut st = self.engine.state.lock();
        if st.draining {
            drop(st);
            // refuse by handing the sink back *uncalled*: callers may
            // hold their own locks across submit (the service holds its
            // admission lock so drain cannot slip between its check and
            // ours), and a synchronous sink callback here could
            // re-enter them — the caller decides how to fail the job
            return Err(sink);
        }
        st.lanes.push(
            class,
            QueuedJob {
                id,
                kernels,
                source,
                sink,
            },
        );
        drop(st);
        self.engine.work.notify_all();
        Ok(())
    }

    fn cancel(&self, id: u64) -> Option<Box<dyn JobSink>> {
        let mut st = self.engine.state.lock();
        st.lanes
            .remove_where(|j| j.id == id)
            .map(|(_, job)| job.sink)
    }

    fn extract_queued(&self) -> Vec<ExtractedJob> {
        let jobs = {
            let mut st = self.engine.state.lock();
            // stop admission first, under the same lock the pop runs
            // under: nothing can slip into the lanes after the sweep,
            // so the handover is exact — every unclaimed job leaves
            // here, every claimed one finishes on this pool's workers
            st.draining = true;
            let mut jobs = Vec::with_capacity(st.lanes.len());
            while let Some((class, j)) = st.lanes.pop() {
                jobs.push(ExtractedJob {
                    id: j.id,
                    class,
                    kernels: j.kernels,
                    source: j.source,
                    sink: j.sink,
                });
            }
            jobs
        };
        self.engine.work.notify_all();
        self.engine.idle.notify_all();
        jobs
    }

    fn drain(&self) {
        {
            let mut st = self.engine.state.lock();
            st.draining = true;
        }
        self.engine.work.notify_all();
        let mut st = self.engine.state.lock();
        // a poisoned engine never makes progress again: stop waiting
        // and let the join below propagate the worker's panic
        while !(st.poisoned || st.lanes.is_empty() && st.in_flight == 0) {
            st = self
                .engine
                .idle
                .wait_timeout(st, IDLE_TICK)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        drop(st);
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            h.join().expect("pool worker panicked");
        }
    }

    fn queued(&self) -> usize {
        self.engine.state.lock().lanes.len()
    }

    fn queued_in(&self, class: JobClass) -> usize {
        self.engine.state.lock().lanes.len_in(class)
    }

    fn in_flight(&self) -> usize {
        self.engine.state.lock().in_flight
    }

    fn co_schedules(&self, dims: (usize, usize)) -> bool {
        let cfg = &self.engine.cfg;
        cfg.batch_threads_per_item < cfg.threads && dims.0.max(dims.1) <= cfg.batch_small_cutoff
    }

    fn fail_active(&self, id: u64, err: CaluError) -> bool {
        let run = {
            let st = self.engine.state.lock();
            st.active.iter().find(|r| r.id == id).cloned()
        };
        match run {
            Some(run) => self.engine.fail_run(&run, err),
            None => false,
        }
    }

    fn progress_of(&self, id: u64) -> Option<u64> {
        let st = self.engine.state.lock();
        st.active
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.heartbeat.load(Ordering::Acquire))
    }

    fn lost_workers(&self) -> usize {
        self.engine
            .fault
            .as_ref()
            .map(|f| f.lost_workers.load(Ordering::Acquire))
            .unwrap_or(0)
    }

    fn rescued_tasks(&self) -> u64 {
        self.engine
            .fault
            .as_ref()
            .map(|f| f.rescued.load(Ordering::Acquire))
            .unwrap_or(0)
    }
}

enum PoolInner {
    Cm(PoolCore<CmTiles>),
    Bcl(PoolCore<BclMatrix>),
    Tlb(PoolCore<TlbMatrix>),
}

macro_rules! dispatch {
    ($self:expr, $core:ident => $body:expr) => {
        match &$self.inner {
            PoolInner::Cm($core) => $body,
            PoolInner::Bcl($core) => $body,
            PoolInner::Tlb($core) => $body,
        }
    };
}

/// A spawn-once worker pool serving factorization jobs until drained.
///
/// All jobs share one [`CaluConfig`] (the per-job knobs are the
/// service's `JobSpec` dims and seed); the config's layout picks the
/// tile storage once, at spawn. Dropping the pool drains it.
pub struct ServicePool {
    inner: PoolInner,
    threads: usize,
    spawn_secs: f64,
    split: PoolSplit,
}

/// The scheduling split one [`ServicePool`] generation runs under,
/// frozen at spawn — the knobs an adaptive controller moves between
/// generations. A live reconfigure swaps the whole pool, so reading
/// this off the *current* pool is always coherent: no generation ever
/// changes its split mid-life.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolSplit {
    /// Fraction of panels scheduled dynamically.
    pub dratio: f64,
    /// Items at most this large (max dimension) co-schedule whole.
    pub batch_small_cutoff: usize,
    /// Workers per co-scheduled item.
    pub batch_threads_per_item: usize,
    /// Direction of the lock-free victim sweep.
    pub steal_order: calu_sched::StealOrder,
}

impl ServicePool {
    /// Validate `cfg` and spawn its worker pool. `verify` makes every
    /// job compute a residual and growth factor against its input;
    /// `starvation_limit` bounds how many higher-class pops may pass
    /// over a waiting lower-class job (see [`ClassLanes`]).
    pub fn spawn(
        cfg: &CaluConfig,
        verify: bool,
        starvation_limit: usize,
    ) -> Result<ServicePool, CaluError> {
        let grid = cfg.validate()?;
        let threads = cfg.threads;
        let (inner, spawn_secs) = match cfg.layout {
            Layout::ColumnMajor => {
                let (c, s) = PoolCore::spawn(cfg.clone(), grid, verify, starvation_limit);
                (PoolInner::Cm(c), s)
            }
            Layout::BlockCyclic => {
                let (c, s) = PoolCore::spawn(cfg.clone(), grid, verify, starvation_limit);
                (PoolInner::Bcl(c), s)
            }
            Layout::TwoLevelBlock => {
                let (c, s) = PoolCore::spawn(cfg.clone(), grid, verify, starvation_limit);
                (PoolInner::Tlb(c), s)
            }
        };
        Ok(ServicePool {
            inner,
            threads,
            spawn_secs,
            split: PoolSplit {
                dratio: cfg.dratio,
                batch_small_cutoff: cfg.batch_small_cutoff,
                batch_threads_per_item: cfg.batch_threads_per_item,
                steal_order: cfg.steal_order,
            },
        })
    }

    /// The scheduling split this pool generation runs under.
    pub fn split(&self) -> PoolSplit {
        self.split
    }

    /// Enqueue a job. `id` is the caller's correlation key (used by
    /// [`cancel`](Self::cancel)); `kernels` names the algorithm's tile
    /// kernels — one pool freely interleaves [`KernelSet::CaluLu`] and
    /// [`KernelSet::Cholesky`] jobs; results leave through `sink`.
    /// After [`drain`](Self::drain) began the job is refused and the
    /// sink is handed back **uncalled** — never invoked synchronously,
    /// so callers may hold their own locks across `submit` without
    /// risking re-entrancy. The caller fails the returned sink however
    /// it sees fit.
    pub fn submit(
        &self,
        id: u64,
        class: JobClass,
        kernels: KernelSet,
        source: PoolSource,
        sink: Box<dyn JobSink>,
    ) -> Result<(), Box<dyn JobSink>> {
        dispatch!(self, c => c.submit(id, class, kernels, source, sink))
    }

    /// Remove a still-queued job. Returns its sink (uncalled) when the
    /// job was found; `None` means the job already started or finished
    /// — the race resolves to normal completion.
    pub fn cancel(&self, id: u64) -> Option<Box<dyn JobSink>> {
        dispatch!(self, c => c.cancel(id))
    }

    /// Stop admission and hand back every queued-but-unclaimed job with
    /// its identity and sink intact — the live-reconfigure handover
    /// primitive. After this returns the pool refuses new submits (like
    /// [`drain`](Self::drain) began), jobs already claimed keep running
    /// to completion on this pool's workers, and the extracted jobs'
    /// sinks have not been invoked, so the caller can re-admit them into
    /// a successor pool under the same ids with zero loss. Follow with
    /// [`drain`](Self::drain) to finish the in-flight tail and join the
    /// workers.
    pub fn extract_queued(&self) -> Vec<ExtractedJob> {
        dispatch!(self, c => c.extract_queued())
    }

    /// Stop admitting, finish everything queued and in flight, join the
    /// workers. Idempotent; also runs on drop.
    pub fn drain(&self) {
        dispatch!(self, c => c.drain())
    }

    /// Jobs waiting in the lanes.
    pub fn queued(&self) -> usize {
        dispatch!(self, c => c.queued())
    }

    /// Jobs waiting in `class`'s lane.
    pub fn queued_in(&self, class: JobClass) -> usize {
        dispatch!(self, c => c.queued_in(class))
    }

    /// Claimed-but-unfinished jobs.
    pub fn in_flight(&self) -> usize {
        dispatch!(self, c => c.in_flight())
    }

    /// Whether a job of `dims` would take the co-scheduled (small)
    /// route: claimed whole by one worker instead of running the
    /// co-operative hybrid schedule. The exact predicate the workers
    /// apply — callers can pre-classify a sweep without running it.
    pub fn co_schedules(&self, dims: (usize, usize)) -> bool {
        dispatch!(self, c => c.co_schedules(dims))
    }

    /// Fail an *active co-operative run* by job id, delivering `err` to
    /// its sink — the service watchdog's lever for deadline and stall
    /// enforcement. Workers mid-task on the run finish or abandon their
    /// task harmlessly; the pool keeps serving. Returns `false` when no
    /// active run carries `id` (the job is still queued, co-scheduled,
    /// or already terminal) or a concurrent normal finish won the race
    /// — either way, nothing was failed.
    pub fn fail_active(&self, id: u64, err: CaluError) -> bool {
        dispatch!(self, c => c.fail_active(id, err))
    }

    /// Tasks retired so far by the active co-operative run with job id
    /// `id` — a monotone heartbeat the service watchdog compares across
    /// ticks to tell a slow job from a stalled one. `None` when no
    /// active run carries `id` (queued, co-scheduled, or terminal).
    pub fn progress_of(&self, id: u64) -> Option<u64> {
        dispatch!(self, c => c.progress_of(id))
    }

    /// Workers lost to an injected fault since spawn (0 on an unfaulted
    /// pool). The service layer surfaces increases as degradation
    /// events.
    pub fn lost_workers(&self) -> usize {
        dispatch!(self, c => c.lost_workers())
    }

    /// Static tasks republished into dynamic heaps because their owner
    /// was lost or persistently slow — the rescue counter backing
    /// `ThreadStats::rescued`, aggregated pool-wide.
    pub fn rescued_tasks(&self) -> u64 {
        dispatch!(self, c => c.rescued_tasks())
    }

    /// Pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Seconds until the last worker entered its loop — paid once at
    /// spawn, amortized over every job the pool ever serves.
    pub fn spawn_secs(&self) -> f64 {
        self.spawn_secs
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::calu_factor;
    use std::sync::mpsc;

    struct ChanSink(mpsc::Sender<Result<PoolOutcome, CaluError>>);

    impl JobSink for ChanSink {
        fn finished(self: Box<Self>, res: Result<PoolOutcome, CaluError>) {
            let _ = self.0.send(res);
        }
    }

    /// A [`ChanSink`] whose claim blocks until `gate.1` jobs have been
    /// claimed pool-wide. A worker blocked in a claim cannot claim again,
    /// so with the gate at the worker count every worker holds one of
    /// the first claims — none can run the whole queue alone.
    struct GatedSink {
        chan: ChanSink,
        gate: Arc<(std::sync::Mutex<usize>, usize, std::sync::Condvar)>,
    }

    impl JobSink for GatedSink {
        fn started(&self) {
            let (claimed, need, cv) = &*self.gate;
            let mut claimed = claimed.lock().unwrap();
            *claimed += 1;
            cv.notify_all();
            while *claimed < *need {
                claimed = cv.wait(claimed).unwrap();
            }
        }

        fn finished(self: Box<Self>, res: Result<PoolOutcome, CaluError>) {
            Box::new(self.chan).finished(res);
        }
    }

    fn cfg4() -> CaluConfig {
        CaluConfig::new(16).with_threads(4).with_dratio(0.5)
    }

    /// Assert a submit was admitted (the rejection arm returns the sink,
    /// which has no `Debug` for a plain `unwrap`).
    fn accept(r: Result<(), Box<dyn JobSink>>) {
        assert!(r.is_ok(), "pool rejected a submit while not draining");
    }

    #[test]
    fn small_jobs_match_solo_runs_bitwise() {
        let cfg = cfg4().with_batch_small_cutoff(100);
        let pool = ServicePool::spawn(&cfg, false, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        for seed in 0..4u64 {
            accept(pool.submit(
                seed,
                JobClass::Batch,
                KernelSet::CaluLu,
                PoolSource::Uniform { m: 64, n: 64, seed },
                Box::new(ChanSink(tx.clone())),
            ));
        }
        let mut outcomes: Vec<PoolOutcome> = (0..4).map(|_| rx.recv().unwrap().unwrap()).collect();
        pool.drain();
        outcomes.sort_by_key(|o| o.factorization.lu.as_slice().len()); // all same; stable no-op
        for o in &outcomes {
            assert!(o.co_scheduled);
        }
        // parity: match each outcome to its seed by re-factoring
        for seed in 0..4u64 {
            let a = gen::uniform(64, 64, seed);
            let solo = calu_factor(&a, &cfg).unwrap();
            assert!(
                outcomes
                    .iter()
                    .any(|o| o.factorization.lu.as_slice() == solo.lu.as_slice()
                        && o.factorization.perm.pivots() == solo.perm.pivots()),
                "seed {seed} missing from pool outcomes"
            );
        }
    }

    #[test]
    fn large_jobs_match_solo_runs_bitwise() {
        // cutoff 0 forces the co-operative route
        let cfg = cfg4().with_batch_small_cutoff(0);
        let pool = ServicePool::spawn(&cfg, true, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        let a = gen::uniform(192, 192, 7);
        accept(pool.submit(
            1,
            JobClass::Interactive,
            KernelSet::CaluLu,
            PoolSource::Dense(a.clone()),
            Box::new(ChanSink(tx)),
        ));
        let out = rx.recv().unwrap().unwrap();
        pool.drain();
        assert!(!out.co_scheduled);
        let solo = calu_factor(&a, &cfg).unwrap();
        assert_eq!(out.factorization.lu.as_slice(), solo.lu.as_slice());
        assert_eq!(out.factorization.perm.pivots(), solo.perm.pivots());
        assert!(out.residual.unwrap() < 1e-12);
        let tasks: u64 = out.stats.iter().map(|s| s.local_pops + s.global_pops).sum();
        assert_eq!(tasks as usize, out.timeline.spans().len());
    }

    #[test]
    fn mixed_lu_and_cholesky_jobs_share_one_pool() {
        // one pool, both kernel sets, both routes (small + large)
        let cfg = cfg4().with_batch_small_cutoff(100);
        let pool = ServicePool::spawn(&cfg, true, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        let jobs: [(u64, KernelSet, PoolSource); 4] = [
            (
                1,
                KernelSet::CaluLu,
                PoolSource::Uniform {
                    m: 64,
                    n: 64,
                    seed: 1,
                },
            ),
            (
                2,
                KernelSet::Cholesky,
                PoolSource::SpdUniform { n: 64, seed: 2 },
            ),
            (
                3,
                KernelSet::CaluLu,
                PoolSource::Uniform {
                    m: 192,
                    n: 192,
                    seed: 3,
                },
            ),
            (
                4,
                KernelSet::Cholesky,
                PoolSource::SpdUniform { n: 192, seed: 4 },
            ),
        ];
        for (id, kernels, source) in jobs {
            accept(pool.submit(
                id,
                JobClass::Batch,
                kernels,
                source,
                Box::new(ChanSink(tx.clone())),
            ));
        }
        let outcomes: Vec<PoolOutcome> = (0..4).map(|_| rx.recv().unwrap().unwrap()).collect();
        pool.drain();
        for n in [64usize, 192] {
            let lu_in = gen::uniform(n, n, if n == 64 { 1 } else { 3 });
            let spd_in = gen::spd_uniform(n, if n == 64 { 2 } else { 4 });
            let solo_lu = calu_factor(&lu_in, &cfg).unwrap();
            let solo_ch = crate::threaded::cholesky_factor(&spd_in, &cfg).unwrap();
            let lu_out = outcomes
                .iter()
                .find(|o| o.dims == (n, n) && o.kernels == KernelSet::CaluLu)
                .unwrap();
            let ch_out = outcomes
                .iter()
                .find(|o| o.dims == (n, n) && o.kernels == KernelSet::Cholesky)
                .unwrap();
            assert_eq!(lu_out.factorization.lu.as_slice(), solo_lu.lu.as_slice());
            assert_eq!(ch_out.factorization.lu.as_slice(), solo_ch.lu.as_slice());
            assert!(lu_out.residual.unwrap() < 1e-12);
            assert!(lu_out.growth_factor.is_some());
            assert!(ch_out.residual.unwrap() < 1e-13);
            assert!(ch_out.growth_factor.is_none(), "Cholesky has no growth");
        }
    }

    #[test]
    fn cholesky_job_with_rectangular_source_fails_typed() {
        for cutoff in [100usize, 0] {
            // both routes must refuse with InvalidConfig, not a panic
            let pool =
                ServicePool::spawn(&cfg4().with_batch_small_cutoff(cutoff), false, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            accept(pool.submit(
                1,
                JobClass::Batch,
                KernelSet::Cholesky,
                PoolSource::Uniform {
                    m: 96,
                    n: 64,
                    seed: 1,
                },
                Box::new(ChanSink(tx)),
            ));
            match rx.recv().unwrap() {
                Err(CaluError::InvalidConfig(msg)) => {
                    assert!(msg.contains("square"), "msg: {msg}")
                }
                other => panic!("cutoff {cutoff}: expected InvalidConfig, got {other:?}"),
            }
            pool.drain();
        }
    }

    #[test]
    fn drain_finishes_jobs_queued_in_every_class() {
        let cfg = cfg4().with_batch_small_cutoff(100).with_threads(2);
        let pool = ServicePool::spawn(&cfg, false, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        let n_jobs = 9;
        for i in 0..n_jobs {
            let class = JobClass::ALL[i % 3];
            accept(pool.submit(
                i as u64,
                class,
                KernelSet::CaluLu,
                PoolSource::Uniform {
                    m: 48,
                    n: 48,
                    seed: i as u64,
                },
                Box::new(ChanSink(tx.clone())),
            ));
        }
        pool.drain();
        // every job completed before drain returned
        let done: Vec<_> = rx.try_iter().collect();
        assert_eq!(done.len(), n_jobs);
        assert!(done.iter().all(|r| r.is_ok()));
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn cancel_removes_a_queued_job() {
        // single worker + a job in front keeps the victim queued long
        // enough to cancel deterministically… unless the first job wins
        // the race, which the assertion tolerates by checking either
        // outcome is consistent
        let cfg = cfg4().with_threads(1).with_batch_small_cutoff(0);
        let pool = ServicePool::spawn(&cfg, false, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        accept(pool.submit(
            1,
            JobClass::Batch,
            KernelSet::CaluLu,
            PoolSource::Uniform {
                m: 256,
                n: 256,
                seed: 1,
            },
            Box::new(ChanSink(tx.clone())),
        ));
        accept(pool.submit(
            2,
            JobClass::Batch,
            KernelSet::CaluLu,
            PoolSource::Uniform {
                m: 64,
                n: 64,
                seed: 2,
            },
            Box::new(ChanSink(tx.clone())),
        ));
        let cancelled = pool.cancel(2).is_some();
        pool.drain();
        let done = rx.try_iter().count();
        assert_eq!(done, if cancelled { 1 } else { 2 });
    }

    #[test]
    fn submit_after_drain_returns_the_sink_uncalled() {
        let pool = ServicePool::spawn(&cfg4(), false, 4).unwrap();
        pool.drain();
        let (tx, rx) = mpsc::channel();
        let rejected = pool.submit(
            1,
            JobClass::Interactive,
            KernelSet::CaluLu,
            PoolSource::Uniform {
                m: 8,
                n: 8,
                seed: 0,
            },
            Box::new(ChanSink(tx)),
        );
        let sink = match rejected {
            Ok(()) => panic!("a draining pool must refuse submits"),
            Err(sink) => sink,
        };
        // the pool never invoked the sink — re-entrancy-safe for
        // callers submitting under their own locks
        assert!(rx.try_recv().is_err());
        sink.finished(Err(CaluError::InvalidConfig(
            "pool is shutting down".into(),
        )));
        assert!(matches!(
            rx.recv().unwrap(),
            Err(CaluError::InvalidConfig(_))
        ));
        pool.drain(); // idempotent
    }

    #[test]
    fn drain_racing_a_large_job_claim_never_strands_it() {
        // regression: drain() used to let idle workers exit on
        // `draining && active.is_empty()`, which is observable while a
        // peer has *claimed* a large job (in_flight counted) but not
        // yet published its run — the run's static tasks then belonged
        // to exited workers and the job never finished. Iterate to give
        // the race room; the exit gate on in_flight must keep every
        // worker around until the claimed job is done.
        let cfg = cfg4().with_batch_small_cutoff(0); // every job co-operative
        for round in 0..10u64 {
            let pool = ServicePool::spawn(&cfg, false, 4).unwrap();
            let (tx, rx) = mpsc::channel();
            accept(pool.submit(
                round,
                JobClass::Batch,
                KernelSet::CaluLu,
                PoolSource::Uniform {
                    m: 128,
                    n: 128,
                    seed: round,
                },
                Box::new(ChanSink(tx)),
            ));
            // drain immediately: workers observe `draining` while the
            // claimant is still materializing/building the run
            pool.drain();
            let out = rx.recv().expect("job stranded by drain").unwrap();
            assert!(!out.co_scheduled);
            assert!(out.factorization.is_nonsingular());
        }
    }

    #[test]
    fn lost_worker_mid_small_item_requeues_it_whole() {
        // regression: an injected worker loss that fires while the
        // worker is draining a co-scheduled item used to have no
        // recovery path — the partially-factored item died with the
        // worker. The fix requeues the whole item (its claim was
        // atomic, so redoing it from the source is exact) and lets a
        // survivor redo it. `lose_worker(0, 3)` can only fire after 3
        // task ticks, which only happen inside an item, and the gated
        // sinks hold the first two claims until both workers have one,
        // so worker 0 is guaranteed an item and dies mid-way through it.
        use crate::fault::FaultPlan;
        let cfg = cfg4()
            .with_threads(2)
            .with_batch_small_cutoff(100)
            .with_fault(FaultPlan::off().lose_worker(0, 3));
        let pool = ServicePool::spawn(&cfg, false, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        let gate = Arc::new((std::sync::Mutex::new(0), 2, std::sync::Condvar::new()));
        let n_jobs = 6u64;
        for seed in 0..n_jobs {
            accept(pool.submit(
                seed,
                JobClass::Batch,
                KernelSet::CaluLu,
                PoolSource::Uniform { m: 64, n: 64, seed },
                Box::new(GatedSink {
                    chan: ChanSink(tx.clone()),
                    gate: Arc::clone(&gate),
                }),
            ));
        }
        let outcomes: Vec<PoolOutcome> = (0..n_jobs).map(|_| rx.recv().unwrap().unwrap()).collect();
        pool.drain();
        assert_eq!(pool.lost_workers(), 1, "worker 0 must have died");
        // drain stranded nothing and every item matches an unfaulted
        // solo run of the same shape (threads drive the TSLU grid)
        let clean = cfg4().with_threads(2);
        for seed in 0..n_jobs {
            let a = gen::uniform(64, 64, seed);
            let solo = calu_factor(&a, &clean).unwrap();
            assert!(
                outcomes
                    .iter()
                    .any(|o| o.factorization.lu.as_slice() == solo.lu.as_slice()),
                "seed {seed} missing or wrong after the mid-item loss"
            );
        }
    }

    #[test]
    fn lost_worker_during_a_cooperative_run_is_rescued() {
        // losing a worker mid-run republishes its static backlog into
        // the run's dynamic heap; the exclusive-writer DAG makes the
        // rerouted completion bitwise-identical to the unfaulted run
        use crate::fault::FaultPlan;
        let cfg = cfg4()
            .with_batch_small_cutoff(0)
            .with_fault(FaultPlan::off().lose_worker(1, 4));
        let pool = ServicePool::spawn(&cfg, false, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        let a = gen::uniform(192, 192, 11);
        accept(pool.submit(
            1,
            JobClass::Batch,
            KernelSet::CaluLu,
            PoolSource::Dense(a.clone()),
            Box::new(ChanSink(tx)),
        ));
        let out = rx.recv().unwrap().unwrap();
        pool.drain();
        assert_eq!(pool.lost_workers(), 1);
        assert!(out.stats[1].lost, "the dead worker is flagged in stats");
        let rescued: u64 = out.stats.iter().map(|s| s.rescued).sum();
        assert!(rescued > 0, "the dead worker's static share was rescued");
        assert_eq!(rescued, pool.rescued_tasks());
        let solo = calu_factor(&a, &cfg4()).unwrap();
        assert_eq!(out.factorization.lu.as_slice(), solo.lu.as_slice());
        assert_eq!(out.factorization.perm.pivots(), solo.perm.pivots());
    }

    #[test]
    fn panicking_job_fails_its_sink_and_the_pool_survives() {
        // a 0×0 source trips `TaskGraph::build_calu`'s non-empty assert
        // on the claiming worker; the panic must be contained to the
        // job (sink failed with TaskPanic), not kill the worker
        let cfg = cfg4().with_batch_small_cutoff(100);
        let pool = ServicePool::spawn(&cfg, false, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        accept(pool.submit(
            1,
            JobClass::Batch,
            KernelSet::CaluLu,
            PoolSource::Uniform {
                m: 0,
                n: 0,
                seed: 0,
            },
            Box::new(ChanSink(tx.clone())),
        ));
        assert!(matches!(rx.recv().unwrap(), Err(CaluError::TaskPanic(_))));
        // same through the co-operative route: cutoff 0 with one
        // non-zero dimension routes large, and the build still asserts
        let large = ServicePool::spawn(&cfg4().with_batch_small_cutoff(0), false, 4).unwrap();
        let (ltx, lrx) = mpsc::channel();
        accept(large.submit(
            2,
            JobClass::Batch,
            KernelSet::CaluLu,
            PoolSource::Uniform {
                m: 0,
                n: 5,
                seed: 0,
            },
            Box::new(ChanSink(ltx)),
        ));
        assert!(matches!(lrx.recv().unwrap(), Err(CaluError::TaskPanic(_))));
        // both pools keep serving after the panic
        accept(pool.submit(
            3,
            JobClass::Batch,
            KernelSet::CaluLu,
            PoolSource::Uniform {
                m: 48,
                n: 48,
                seed: 3,
            },
            Box::new(ChanSink(tx)),
        ));
        assert!(rx.recv().unwrap().is_ok());
        pool.drain();
        large.drain();
    }
}
