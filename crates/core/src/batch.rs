//! Batched many-matrix sweeps on one persistent worker pool.
//!
//! Serving-style workloads factor *many small matrices*, where the
//! per-call costs the solo driver happily amortizes over one large
//! factorization — planning, thread spawn/join, queue construction —
//! come to dominate. [`calu_factor_batch`] spawns the worker pool
//! **once** and drains the whole batch through it:
//!
//! * each worker keeps one [`GemmScratch`] packing arena alive across
//!   every item it touches, so the BLAS-3 path never allocates no
//!   matter how many matrices flow through;
//! * the dynamic section runs on one *batch-level* queue set (shared
//!   queue, mutex shards, or Chase-Lev deques per
//!   [`CaluConfig::queue`]) whose entries pack `(item, task)` into one
//!   word — the deques live exactly as long as the pool, not one item;
//! * **small** items (larger dimension ≤
//!   [`CaluConfig::batch_small_cutoff`], with
//!   [`CaluConfig::batch_threads_per_item`] `<` threads) are
//!   *co-scheduled*: a pool worker claims the whole item and factors it
//!   sequentially — items run in parallel with zero intra-item
//!   synchronization, which beats splitting a tiny DAG across the pool;
//! * **large** items run the full hybrid static/dynamic schedule
//!   co-operatively: static tasks go to their block-cyclic owner's
//!   queue, dynamic ones to the batch queue set, and because queue
//!   entries carry their item, workers pipeline — one can start item
//!   `j + 1` while another finishes the tail of item `j`.
//!
//! Work priority per worker: own static queue → own dynamic
//! shard/deque → claim a whole small item → steal. An idle worker thus
//! prefers a guaranteed-useful small item over a contended steal — the
//! small items are the batch's load-balancing reservoir, exactly the
//! role the paper's dynamic section plays within one factorization.
//!
//! Scheduling never changes the math: every item factors
//! bitwise-identically to a solo [`crate::calu_factor`] call with the
//! same config (same DAG, same kernels, writes to each tile totally
//! ordered by the exclusive-writer discipline) — the facade's
//! backend-parity suite pins this down.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use calu_dag::{PaperKind, TaskGraph, TaskId};
use calu_kernels::GemmScratch;
use calu_matrix::{
    gen, BclMatrix, CmTiles, DenseMatrix, Layout, ProcessGrid, TileStorage, TlbMatrix,
};
use calu_rand::Rng;
use calu_sched::{
    nstatic_for, steal_order, Deque, QueueDiscipline, QueueSource, Steal, StealOrder, StealTier,
    StealTiers,
};
use calu_trace::{SpanKind, TaskSpan, Timeline};

use crate::config::CaluConfig;
use crate::error::CaluError;
use crate::factorization::Factorization;
use crate::shared::{load, TileLayout};
use crate::sync::{pin_current_thread, Mutex};
use crate::threaded::{host_topology, steal_sweep, ItemState, KernelSet, ThreadStats};

/// What one batch item factors: either a caller-held dense matrix, or
/// a *generator* whose tile data is built lazily on the worker that
/// claims the item. Lazy sources keep submission O(1) per item — the
/// caller thread never touches element data, and for co-scheduled
/// items the materialized matrix lives only on the claiming worker.
#[derive(Debug, Clone)]
pub enum BatchSource<'a> {
    /// Borrowed dense data, materialized by the caller.
    Dense(&'a DenseMatrix),
    /// A seeded uniform generator matrix (`calu_matrix::gen::uniform`),
    /// materialized on the worker that claims the item.
    Uniform {
        /// Rows.
        m: usize,
        /// Columns.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A seeded symmetric positive-definite generator matrix
    /// (`calu_matrix::gen::spd_uniform`) — the natural source for
    /// [`KernelSet::Cholesky`] items, materialized on the worker that
    /// claims the item.
    SpdUniform {
        /// Order (the matrix is `n×n`).
        n: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl BatchSource<'_> {
    /// `(rows, cols)` without materializing.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            BatchSource::Dense(a) => (a.rows(), a.cols()),
            BatchSource::Uniform { m, n, .. } => (*m, *n),
            BatchSource::SpdUniform { n, .. } => (*n, *n),
        }
    }

    /// The element data: borrowed for [`BatchSource::Dense`], generated
    /// on the calling thread for the generator variants.
    pub fn materialize(&self) -> Cow<'_, DenseMatrix> {
        match self {
            BatchSource::Dense(a) => Cow::Borrowed(*a),
            BatchSource::Uniform { m, n, seed } => Cow::Owned(gen::uniform(*m, *n, *seed)),
            BatchSource::SpdUniform { n, seed } => Cow::Owned(gen::spd_uniform(*n, *seed)),
        }
    }
}

/// One item of a mixed-algorithm batch: the matrix source plus the
/// [`KernelSet`] that factors it. [`factor_batch`] accepts any mix —
/// CALU and Cholesky items share the pool, the queues and the per-worker
/// scratch arenas; only the per-task kernels differ.
#[derive(Debug, Clone)]
pub struct BatchItem<'a> {
    /// What to factor.
    pub source: BatchSource<'a>,
    /// Which algorithm's tile kernels factor it.
    pub kernels: KernelSet,
}

impl<'a> BatchItem<'a> {
    /// A CALU (LU) item.
    pub fn lu(source: BatchSource<'a>) -> Self {
        BatchItem {
            source,
            kernels: KernelSet::CaluLu,
        }
    }

    /// A tiled-Cholesky item (its source must be square).
    pub fn cholesky(source: BatchSource<'a>) -> Self {
        BatchItem {
            source,
            kernels: KernelSet::Cholesky,
        }
    }
}

/// One factored batch item, in input order.
#[derive(Debug)]
pub struct BatchItemOutcome {
    /// The factors, exactly as a solo [`crate::calu_factor`] with the
    /// same config would produce them.
    pub factorization: Factorization,
    /// Per-worker spans of this item, time-shifted so the item's first
    /// task starts at 0.
    pub timeline: Timeline,
    /// Per-worker queue accounting for this item's tasks. Steal-sweep
    /// *failures* are batch-level (a failed sweep probes every item's
    /// work at once) and live in [`BatchOutcome::failed_steal_sweeps`].
    pub stats: Vec<ThreadStats>,
    /// Wall-clock extent of this item inside the batch (first task
    /// start → last task end). Co-scheduled items overlap, so these do
    /// not sum to the batch wall time.
    pub makespan: f64,
    /// Whether the item was co-scheduled (claimed whole by one worker)
    /// rather than run co-operatively by the pool.
    pub co_scheduled: bool,
}

/// Result of one [`calu_factor_batch`] sweep.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-item outcomes, in input order.
    pub items: Vec<BatchItemOutcome>,
    /// End-to-end wall time of the sweep (pool spawn → last join).
    pub wall_secs: f64,
    /// Seconds until the last pool worker entered its work loop — the
    /// one-off spawn cost the batch amortizes over all items.
    pub pool_spawn_secs: f64,
    /// Steal sweeps that probed every victim and found nothing,
    /// batch-wide (stealing disciplines only).
    pub failed_steal_sweeps: u64,
}

/// Pack a (item, task) pair into one queue word.
#[inline]
fn pack(item: usize, t: TaskId) -> u64 {
    debug_assert!(item < u32::MAX as usize, "batch larger than u32 items");
    ((item as u64) << 32) | t.0 as u64
}

/// Inverse of [`pack`].
#[inline]
fn unpack(v: u64) -> (usize, TaskId) {
    ((v >> 32) as usize, TaskId(v as u32))
}

/// Batch-level heap entry: items first (earlier items drain first),
/// then the per-item priority key, then the task id as tiebreak.
type BatchKey = (usize, u64, u32);
type BatchHeap = Mutex<BinaryHeap<Reverse<BatchKey>>>;

/// The batch-level dynamic section under each [`QueueDiscipline`] —
/// the same three shapes as the solo executor's, holding packed
/// `(item, task)` entries so one queue set serves the whole sweep.
enum BatchDyn {
    Global(BatchHeap),
    Sharded(Vec<BatchHeap>),
    LockFree(Vec<Deque>),
}

struct BatchShared<S: TileStorage> {
    /// Per-item execution state — pre-built for co-operative (large)
    /// items only. Co-scheduled items build theirs *inside* the
    /// claiming worker, so their storage is allocated, used and freed
    /// item-locally (the allocator hands consecutive items the same
    /// hot memory, exactly like a loop of solo runs) instead of the
    /// whole batch's working set sitting live at once.
    items: Vec<Option<ItemState<S>>>,
    /// Per-worker static queues, batch-keyed (large items only).
    local: Vec<BatchHeap>,
    dynamic: BatchDyn,
    tiers: Vec<StealTiers>,
    /// Direction of the tiered sweep (the adaptive steal-order knob).
    steal_dir: StealOrder,
    dyn_queued: AtomicUsize,
    /// Next unclaimed co-scheduled item (index into `smalls`).
    next_small: AtomicUsize,
    smalls: Vec<usize>,
    /// Remaining work units: one per large-item task + one per small
    /// item. The pool exits when this hits zero.
    work_left: AtomicUsize,
    /// Remaining *large-item* tasks. Once zero (and every small item is
    /// claimed), no new work can ever appear in the queues, so an idle
    /// worker exits instead of spinning — on oversubscribed hosts a
    /// spinning worker steals cycles from the one still computing.
    large_left: AtomicUsize,
}

impl<S: TileStorage + Send> BatchShared<S> {
    /// Queue a ready task of large item `it` (mirror of the solo
    /// executor's `push_ready`, with batch-packed entries).
    fn push_ready(&self, it: usize, t: TaskId, home: usize) {
        let item = self.items[it].as_ref().expect("co-operative item state");
        if item.is_static[t.idx()] {
            let owner = item.owners.owner(t);
            self.local[owner]
                .lock()
                .push(Reverse((it, item.static_keys[t.idx()], t.0)));
        } else {
            match &self.dynamic {
                BatchDyn::Global(q) => {
                    q.lock()
                        .push(Reverse((it, item.dynamic_keys[t.idx()], t.0)))
                }
                BatchDyn::Sharded(shards) => {
                    self.dyn_queued.fetch_add(1, Ordering::AcqRel);
                    shards[home % shards.len()].lock().push(Reverse((
                        it,
                        item.dynamic_keys[t.idx()],
                        t.0,
                    )));
                }
                BatchDyn::LockFree(deques) => {
                    self.dyn_queued.fetch_add(1, Ordering::AcqRel);
                    deques[home % deques.len()]
                        .push(pack(it, t))
                        .expect("deque sized for every large task");
                }
            }
        }
    }

    /// Pop co-operative work the worker can reach *without stealing*:
    /// its own static queue, then its own share of the dynamic section
    /// (the shared queue under the global discipline, the worker's own
    /// shard or deque otherwise). Stealing is deliberately separate —
    /// the worker loop tries to claim a whole small item first, so an
    /// idle worker prefers guaranteed-useful work over a contended
    /// sweep of other workers' queues.
    fn pop_own(&self, me: usize) -> Option<(usize, TaskId, QueueSource)> {
        if let Some(Reverse((it, _, t))) = self.local[me].lock().pop() {
            return Some((it, TaskId(t), QueueSource::Local));
        }
        match &self.dynamic {
            BatchDyn::Global(q) => q
                .lock()
                .pop()
                .map(|Reverse((it, _, t))| (it, TaskId(t), QueueSource::Global)),
            BatchDyn::Sharded(shards) => shards[me].lock().pop().map(|Reverse((it, _, t))| {
                self.dyn_queued.fetch_sub(1, Ordering::AcqRel);
                (it, TaskId(t), QueueSource::Shard)
            }),
            BatchDyn::LockFree(deques) => deques[me].pop().map(|v| {
                self.dyn_queued.fetch_sub(1, Ordering::AcqRel);
                let (it, t) = unpack(v);
                (it, t, QueueSource::Shard)
            }),
        }
    }

    /// Steal from the other workers' dynamic shards/deques — attempted
    /// only while dynamic work is queued somewhere, so idle spins on a
    /// drained batch don't read as contention. Wholly empty sweeps
    /// count once into `failed_sweeps` — batch-wide, since a sweep
    /// probes every item's work at once.
    fn steal(
        &self,
        me: usize,
        rng: &mut Option<Rng>,
        failed_sweeps: &mut u64,
    ) -> Option<(usize, TaskId, QueueSource)> {
        match &self.dynamic {
            BatchDyn::Global(_) => None, // one shared queue: nothing to steal
            BatchDyn::Sharded(shards) => {
                if self.dyn_queued.load(Ordering::Acquire) == 0 {
                    return None;
                }
                let rng = rng.as_mut().expect("stealing workers carry an RNG");
                let stolen = steal_sweep(
                    steal_order(rng, me, shards.len()),
                    |&victim| {
                        shards[victim]
                            .lock()
                            .pop()
                            .map(|Reverse((it, _, t))| (it, TaskId(t)))
                    },
                    failed_sweeps,
                );
                stolen.map(|((it, t), _)| {
                    self.dyn_queued.fetch_sub(1, Ordering::AcqRel);
                    (it, t, QueueSource::Stolen)
                })
            }
            BatchDyn::LockFree(deques) => {
                if self.dyn_queued.load(Ordering::Acquire) == 0 {
                    return None;
                }
                let rng = rng.as_mut().expect("stealing workers carry an RNG");
                let stolen = steal_sweep(
                    self.tiers[me].sweep_ordered(self.steal_dir, rng),
                    |&(victim, _)| loop {
                        match deques[victim].steal() {
                            Steal::Taken(v) => break Some(unpack(v)),
                            Steal::Empty => break None,
                            Steal::Retry => std::hint::spin_loop(),
                        }
                    },
                    failed_sweeps,
                );
                stolen.map(|((it, t), (_, tier))| {
                    self.dyn_queued.fetch_sub(1, Ordering::AcqRel);
                    let source = match tier {
                        StealTier::Remote => QueueSource::StolenRemote,
                        _ => QueueSource::Stolen,
                    };
                    (it, t, source)
                })
            }
        }
    }

    /// Claim the next co-scheduled item, if any are left. The cheap
    /// pre-check keeps idle workers from hammering the shared counter
    /// once the small list is drained.
    fn claim_small(&self) -> Option<usize> {
        if self.next_small.load(Ordering::Acquire) >= self.smalls.len() {
            return None;
        }
        let i = self.next_small.fetch_add(1, Ordering::AcqRel);
        self.smalls.get(i).copied()
    }

    /// Whether work could still appear for an idle worker: large tasks
    /// are outstanding (their successors will be queued) or small items
    /// remain unclaimed. When false, an idle worker leaves the pool.
    fn more_work_possible(&self) -> bool {
        self.large_left.load(Ordering::Acquire) > 0
            || self.next_small.load(Ordering::Acquire) < self.smalls.len()
    }
}

/// Map a task kind onto its timeline span kind.
pub(crate) fn span_kind(g: &TaskGraph, t: TaskId) -> SpanKind {
    match g.kind(t).paper_kind() {
        PaperKind::P => SpanKind::Panel,
        PaperKind::L => SpanKind::LFactor,
        PaperKind::U => SpanKind::UFactor,
        PaperKind::S => SpanKind::Update,
    }
}

/// What each worker brings home from the pool.
pub(crate) struct WorkerHaul {
    /// `(item, span)` for every task this worker ran.
    pub(crate) spans: Vec<(u32, TaskSpan)>,
    /// Per-item queue accounting (indexed like the batch).
    pub(crate) stats: Vec<ThreadStats>,
    /// When this worker entered its work loop (batch clock).
    pub(crate) start_offset: f64,
    /// Wholly empty steal sweeps (batch-level, not per item).
    pub(crate) failed_sweeps: u64,
}

/// Factor a co-scheduled item sequentially on the calling worker: a
/// plain ready-stack drain of the item's DAG, most-critical-first by
/// the dynamic priority key. No queues, no cross-worker contention —
/// the DAG and kernels are identical to the co-operative path, so the
/// bits are too.
///
/// `interrupt` is polled between tasks (fault injection in the service
/// pool): returning `true` abandons the drain mid-item, and the
/// function reports `false` — the item did **not** complete and its
/// state must be discarded (the pool requeues the whole item; its claim
/// was atomic, so a fresh claimant rebuilds from the source). Batch
/// callers pass `None` and always get `true`.
pub(crate) fn run_item_sequential<S: TileStorage + Send>(
    item: &ItemState<S>,
    idx: usize,
    me: usize,
    scratch: &mut GemmScratch,
    t0: &Instant,
    haul: &mut WorkerHaul,
    mut interrupt: Option<&mut dyn FnMut() -> bool>,
) -> bool {
    let mut stack = item.g.initial_ready();
    // descending key order so `pop` serves the smallest (most critical)
    // key first; freshly enabled successors are re-sorted the same way
    stack.sort_unstable_by_key(|t| Reverse(item.dynamic_keys[t.idx()]));
    let mut buf: Vec<TaskId> = Vec::new();
    while let Some(t) = stack.pop() {
        if let Some(stop) = interrupt.as_deref_mut() {
            if stop() {
                return false;
            }
        }
        let start = t0.elapsed().as_secs_f64();
        item.execute(t, scratch);
        let end = t0.elapsed().as_secs_f64();
        haul.spans.push((
            idx as u32,
            TaskSpan {
                core: me,
                start,
                end,
                kind: span_kind(&item.g, t),
            },
        ));
        item.complete_into(t, &mut buf);
        if buf.len() > 1 {
            buf.sort_unstable_by_key(|t| Reverse(item.dynamic_keys[t.idx()]));
        }
        stack.extend(buf.iter().copied());
        haul.stats[idx].local_pops += 1;
    }
    debug_assert_eq!(item.done.load(Ordering::Acquire), item.g.len());
    true
}

/// Build, drain and finish one co-scheduled item entirely on the
/// calling worker: source materialization and storage conversion in,
/// sequential DAG drain, factors out. Keeping the item's whole
/// lifecycle worker-local means the allocator hands consecutive items
/// the same hot memory and the batch's peak footprint stays at "items
/// in flight", not "items in batch" — and on multicore hosts both the
/// generator fills and the conversions run in parallel instead of
/// serializing on the caller.
#[allow(clippy::too_many_arguments)]
fn run_small_item<S: TileLayout>(
    src: &BatchSource<'_>,
    g: &Arc<TaskGraph>,
    grid: ProcessGrid,
    cfg: &CaluConfig,
    idx: usize,
    me: usize,
    scratch: &mut GemmScratch,
    t0: &Instant,
    haul: &mut WorkerHaul,
) -> Factorization {
    let a = src.materialize();
    let item = ItemState::new(
        load::<S>(&a, cfg.b, grid),
        Arc::clone(g),
        grid,
        nstatic_for(cfg.dratio, g.num_panels()),
    );
    drop(a); // tile data is converted; free the generator fill early
    run_item_sequential(&item, idx, me, scratch, t0, haul, None);
    item.factorization()
}

/// The generic pool: matrices and graphs are per item, everything else
/// is shared. Returns per-item `(factorization, timeline, stats,
/// makespan)` plus the batch-level accounting.
#[allow(clippy::type_complexity)]
fn batch_tiled<S: TileLayout>(
    sources: &[BatchSource<'_>],
    graphs: &[Arc<TaskGraph>],
    small: &[bool],
    grid: ProcessGrid,
    cfg: &CaluConfig,
) -> (
    Vec<(Factorization, Timeline, Vec<ThreadStats>, f64)>,
    f64,
    f64,
    u64,
) {
    let threads = grid.size();
    let queue = cfg.queue;
    let topo = host_topology();
    // co-operative items are pre-built (their state is shared by every
    // worker); co-scheduled ones stay None — their source is
    // materialized and their state built at claim time, on the worker
    let items: Vec<Option<ItemState<S>>> = sources
        .iter()
        .zip(graphs)
        .zip(small)
        .map(|((src, g), &is_small)| {
            (!is_small).then(|| {
                let a = src.materialize();
                ItemState::new(
                    load::<S>(&a, cfg.b, grid),
                    Arc::clone(g),
                    grid,
                    nstatic_for(cfg.dratio, g.num_panels()),
                )
            })
        })
        .collect();
    let smalls: Vec<usize> = (0..items.len()).filter(|&i| small[i]).collect();
    let larges: Vec<usize> = (0..items.len()).filter(|&i| !small[i]).collect();
    let large_tasks: usize = larges.iter().map(|&i| graphs[i].len()).sum();
    let small_results: Vec<Mutex<Option<Factorization>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();

    let shared = BatchShared {
        local: (0..threads)
            .map(|_| Mutex::new(BinaryHeap::new()))
            .collect(),
        dynamic: match queue {
            QueueDiscipline::Global => BatchDyn::Global(Mutex::new(BinaryHeap::new())),
            QueueDiscipline::Sharded { .. } => BatchDyn::Sharded(
                (0..threads)
                    .map(|_| Mutex::new(BinaryHeap::new()))
                    .collect(),
            ),
            QueueDiscipline::LockFree { .. } => BatchDyn::LockFree(
                // sized for every co-operative task in the whole batch:
                // pushes can never fail, and the deques persist across
                // items instead of being rebuilt per factorization
                (0..threads)
                    .map(|_| Deque::with_capacity(large_tasks.max(1)))
                    .collect(),
            ),
        },
        tiers: match queue {
            QueueDiscipline::LockFree { .. } => (0..threads)
                .map(|me| StealTiers::for_worker(topo, me, threads))
                .collect(),
            _ => Vec::new(),
        },
        steal_dir: cfg.steal_order,
        dyn_queued: AtomicUsize::new(0),
        next_small: AtomicUsize::new(0),
        smalls,
        work_left: AtomicUsize::new(large_tasks + small.iter().filter(|&&s| s).count()),
        large_left: AtomicUsize::new(large_tasks),
        items,
    };

    // scatter the co-operative items' initially ready tasks round-robin
    // (same policy as the solo executor, item-major so earlier items
    // drain first; descending priority per item for the LIFO deques)
    let mut home = 0usize;
    for &it in &larges {
        let mut initial = graphs[it].initial_ready();
        if matches!(queue, QueueDiscipline::LockFree { .. }) {
            let keys = &shared.items[it].as_ref().expect("co-op item").dynamic_keys;
            initial.sort_unstable_by_key(|t| Reverse(keys[t.idx()]));
        }
        for t in initial {
            shared.push_ready(it, t, home);
            home = home.wrapping_add(1);
        }
    }

    let t0 = Instant::now();
    let n_items = shared.items.len();
    let mut hauls: Vec<WorkerHaul> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let small_results = &small_results;
        for me in 0..threads {
            let shared = &shared;
            let t0 = &t0;
            handles.push(scope.spawn(move || {
                if cfg.pin_workers {
                    pin_current_thread(topo.cpu_for_worker(me));
                }
                let mut haul = WorkerHaul {
                    spans: Vec::new(),
                    stats: vec![ThreadStats::default(); n_items],
                    start_offset: t0.elapsed().as_secs_f64(),
                    failed_sweeps: 0,
                };
                let mut scratch = GemmScratch::sized_for(cfg.b, cfg.b, cfg.b);
                let mut rng = queue
                    .seed()
                    .map(|seed| Rng::seed_from_u64(seed.wrapping_add(me as u64)));
                let mut ready_buf: Vec<TaskId> = Vec::new();
                let mut idle_spins = 0u32;
                #[derive(Clone, Copy)]
                enum Work {
                    Coop(usize, TaskId, QueueSource),
                    Small(usize),
                }
                while shared.work_left.load(Ordering::Acquire) > 0 {
                    // the documented priority: own static queue → own
                    // dynamic shard/deque → claim a whole small item →
                    // only then a contended sweep of other workers'
                    // queues (a small item is guaranteed-useful work;
                    // a steal may come home empty)
                    let work = shared
                        .pop_own(me)
                        .map(|(it, t, src)| Work::Coop(it, t, src))
                        .or_else(|| shared.claim_small().map(Work::Small))
                        .or_else(|| {
                            shared
                                .steal(me, &mut rng, &mut haul.failed_sweeps)
                                .map(|(it, t, src)| Work::Coop(it, t, src))
                        });
                    if let Some(Work::Coop(it, t, source)) = work {
                        idle_spins = 0;
                        let stats = &mut haul.stats[it];
                        match source {
                            QueueSource::Local => stats.local_pops += 1,
                            QueueSource::Stolen => stats.steal_pops += 1,
                            QueueSource::StolenRemote => {
                                stats.steal_pops += 1;
                                stats.remote_steal_pops += 1;
                            }
                            _ => stats.global_pops += 1,
                        }
                        let item = shared.items[it].as_ref().expect("co-op item state");
                        let start = t0.elapsed().as_secs_f64();
                        item.execute(t, &mut scratch);
                        let end = t0.elapsed().as_secs_f64();
                        haul.spans.push((
                            it as u32,
                            TaskSpan {
                                core: me,
                                start,
                                end,
                                kind: span_kind(&item.g, t),
                            },
                        ));
                        item.complete_into(t, &mut ready_buf);
                        if matches!(shared.dynamic, BatchDyn::LockFree(_)) && ready_buf.len() > 1 {
                            ready_buf.sort_unstable_by_key(|s| Reverse(item.dynamic_keys[s.idx()]));
                        }
                        for &s in ready_buf.iter() {
                            shared.push_ready(it, s, me);
                        }
                        shared.large_left.fetch_sub(1, Ordering::AcqRel);
                        shared.work_left.fetch_sub(1, Ordering::AcqRel);
                    } else if let Some(Work::Small(it)) = work {
                        idle_spins = 0;
                        let f = run_small_item::<S>(
                            &sources[it],
                            &graphs[it],
                            grid,
                            cfg,
                            it,
                            me,
                            &mut scratch,
                            t0,
                            &mut haul,
                        );
                        *small_results[it].lock() = Some(f);
                        shared.work_left.fetch_sub(1, Ordering::AcqRel);
                    } else if !shared.more_work_possible() {
                        // every small item is claimed and every large
                        // task retired: nothing can reach this worker
                        // any more, so leave instead of burning cycles
                        // the still-working claimants could use
                        break;
                    } else {
                        idle_spins += 1;
                        if idle_spins > 64 {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                }
                haul
            }));
        }
        for h in handles {
            hauls.push(h.join().expect("batch worker panicked"));
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let pool_spawn = hauls.iter().map(|h| h.start_offset).fold(0.0, f64::max);
    let failed_sweeps: u64 = hauls.iter().map(|h| h.failed_sweeps).sum();

    // reassemble per item: spans shifted so each item's clock starts at
    // its first task, stats merged across workers
    let mut spans_by_item: Vec<Vec<TaskSpan>> = vec![Vec::new(); n_items];
    for haul in &hauls {
        for &(it, span) in &haul.spans {
            spans_by_item[it as usize].push(span);
        }
    }
    let results = shared
        .items
        .into_iter()
        .enumerate()
        .map(|(it, item)| {
            let factorization = match item {
                // co-operative items are unloaded here, after the pool,
                // one at a time: each item's tiles are freed before the
                // next item's dense copy is made
                Some(item) => item.factorization(),
                // co-scheduled items were finished by their claimant
                None => small_results[it]
                    .lock()
                    .take()
                    .expect("claimed small item left its factors"),
            };
            let spans = &spans_by_item[it];
            let t_start = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
            let mut tl = Timeline::new(threads);
            for s in spans {
                tl.push(TaskSpan {
                    start: s.start - t_start,
                    end: s.end - t_start,
                    ..*s
                });
            }
            let stats: Vec<ThreadStats> = (0..threads).map(|w| hauls[w].stats[it]).collect();
            let makespan = tl.makespan();
            (factorization, tl, stats, makespan)
        })
        .collect();
    (results, wall, pool_spawn, failed_sweeps)
}

/// Factor every matrix in `mats` with CALU on one persistent worker
/// pool (see the module docs for the scheduling model). All items share
/// one [`CaluConfig`] — the batch knobs
/// ([`CaluConfig::batch_threads_per_item`],
/// [`CaluConfig::batch_small_cutoff`]) choose which items are
/// co-scheduled. Every item's factors are bitwise-identical to a solo
/// [`crate::calu_factor`] call with the same config.
pub fn calu_factor_batch(
    mats: &[&DenseMatrix],
    cfg: &CaluConfig,
) -> Result<BatchOutcome, CaluError> {
    let sources: Vec<BatchSource<'_>> = mats.iter().map(|a| BatchSource::Dense(a)).collect();
    calu_factor_batch_from(&sources, cfg)
}

/// [`calu_factor_batch`] over [`BatchSource`]s: generator items are
/// materialized lazily on the worker that claims them, so submitting a
/// sweep of seeded matrices costs the caller thread nothing per item.
pub fn calu_factor_batch_from(
    sources: &[BatchSource<'_>],
    cfg: &CaluConfig,
) -> Result<BatchOutcome, CaluError> {
    let items: Vec<BatchItem<'_>> = sources.iter().cloned().map(BatchItem::lu).collect();
    factor_batch(&items, cfg)
}

/// Factor a mixed-algorithm batch: each [`BatchItem`] names its own
/// [`KernelSet`], so one sweep — one pool spawn, one batch-level queue
/// set, one scratch arena per worker — can interleave CALU and tiled
/// Cholesky factorizations. Per item the result is bitwise-identical to
/// the matching solo call ([`crate::calu_factor`] /
/// [`crate::cholesky_factor`]) with the same config.
pub fn factor_batch(items: &[BatchItem<'_>], cfg: &CaluConfig) -> Result<BatchOutcome, CaluError> {
    let grid = cfg.validate()?;
    if !cfg.fault.is_off() {
        return Err(CaluError::InvalidConfig(
            "fault injection is not supported on the scoped batch executor; \
             inject through a solo run (calu_factor) or a long-running \
             service pool (ServicePool / FactorService), which carry the \
             rescue and requeue machinery"
                .into(),
        ));
    }
    if items.is_empty() {
        return Err(CaluError::InvalidConfig(
            "a batch needs at least one matrix".into(),
        ));
    }
    let sources: Vec<BatchSource<'_>> = items.iter().map(|it| it.source.clone()).collect();
    let dims: Vec<(usize, usize)> = sources.iter().map(BatchSource::dims).collect();
    if dims.iter().any(|&(m, n)| m == 0 || n == 0) {
        return Err(CaluError::EmptyMatrix);
    }
    let leaf_stride = cfg.leaf_stride.unwrap_or_else(|| grid.pr());
    let graphs: Vec<Arc<TaskGraph>> = items
        .iter()
        .zip(&dims)
        .map(|(it, &(m, n))| {
            it.kernels
                .build_graph(m, n, cfg.b, leaf_stride)
                .map(Arc::new)
        })
        .collect::<Result<_, _>>()?;
    // co-scheduling applies to items at or under the cutoff, and only
    // while co-scheduled items use fewer workers than the pool has
    let co_schedule = cfg.batch_threads_per_item < cfg.threads;
    let small: Vec<bool> = dims
        .iter()
        .map(|&(m, n)| co_schedule && m.max(n) <= cfg.batch_small_cutoff)
        .collect();

    macro_rules! run_layout {
        ($layout:ty) => {{
            let (results, wall, spawn, failed) =
                batch_tiled::<$layout>(&sources, &graphs, &small, grid, cfg);
            let items = results
                .into_iter()
                .enumerate()
                .map(
                    |(i, (factorization, timeline, stats, makespan))| BatchItemOutcome {
                        factorization,
                        timeline,
                        stats,
                        makespan,
                        co_scheduled: small[i],
                    },
                )
                .collect();
            BatchOutcome {
                items,
                wall_secs: wall,
                pool_spawn_secs: spawn,
                failed_steal_sweeps: failed,
            }
        }};
    }

    Ok(match cfg.layout {
        Layout::ColumnMajor => run_layout!(CmTiles),
        Layout::BlockCyclic => run_layout!(BclMatrix),
        Layout::TwoLevelBlock => run_layout!(TlbMatrix),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::calu_factor;
    use calu_matrix::gen;

    fn cfg4() -> CaluConfig {
        CaluConfig::new(16).with_threads(4).with_dratio(0.5)
    }

    #[test]
    fn batch_items_match_solo_runs_bitwise() {
        // mixed small (co-scheduled) and large (co-operative) items
        let mats: Vec<DenseMatrix> = [(48usize, 1u64), (96, 2), (450, 3), (64, 4)]
            .iter()
            .map(|&(n, seed)| gen::uniform(n, n, seed))
            .collect();
        let refs: Vec<&DenseMatrix> = mats.iter().collect();
        let cfg = cfg4().with_batch_small_cutoff(100);
        let out = calu_factor_batch(&refs, &cfg).unwrap();
        assert_eq!(out.items.len(), 4);
        assert!(out.wall_secs > 0.0 && out.pool_spawn_secs >= 0.0);
        for (i, (a, item)) in mats.iter().zip(&out.items).enumerate() {
            let solo = calu_factor(a, &cfg).unwrap();
            assert_eq!(
                item.factorization.lu.as_slice(),
                solo.lu.as_slice(),
                "item {i}: batch factors must match solo bitwise"
            );
            assert_eq!(item.factorization.perm.pivots(), solo.perm.pivots());
            assert!(item.factorization.residual(a) < 1e-12, "item {i}");
            assert_eq!(item.co_scheduled, a.rows() <= 100, "item {i}");
            assert!(item.makespan > 0.0 && item.makespan <= out.wall_secs);
        }
    }

    #[test]
    fn every_task_is_attributed_exactly_once() {
        let mats: Vec<DenseMatrix> = (0..6).map(|i| gen::uniform(80, 80, 50 + i)).collect();
        let refs: Vec<&DenseMatrix> = mats.iter().collect();
        for cutoff in [0usize, 1000] {
            // cutoff 0: all co-operative; cutoff 1000: all co-scheduled
            let cfg = cfg4().with_batch_small_cutoff(cutoff);
            let out = calu_factor_batch(&refs, &cfg).unwrap();
            for (item, g) in out.items.iter().zip(&mats) {
                let expected = TaskGraph::build_calu(g.rows(), g.cols(), 16, 2).len();
                let popped: u64 = item
                    .stats
                    .iter()
                    .map(|s| s.local_pops + s.global_pops + s.steal_pops)
                    .sum();
                assert_eq!(popped as usize, expected, "cutoff {cutoff}");
                assert_eq!(item.timeline.spans().len(), expected, "cutoff {cutoff}");
                assert_eq!(item.co_scheduled, cutoff == 1000);
            }
        }
    }

    #[test]
    fn batch_runs_under_every_queue_discipline() {
        let mats: Vec<DenseMatrix> = (0..3).map(|i| gen::uniform(450, 450, 7 + i)).collect();
        let refs: Vec<&DenseMatrix> = mats.iter().collect();
        let mut packed: Vec<Vec<f64>> = Vec::new();
        for queue in [
            QueueDiscipline::Global,
            QueueDiscipline::sharded(),
            QueueDiscipline::lock_free(),
        ] {
            let cfg = cfg4().with_queue(queue).with_batch_small_cutoff(0);
            let out = calu_factor_batch(&refs, &cfg).unwrap();
            packed.push(out.items[0].factorization.lu.as_slice().to_vec());
            for item in &out.items {
                assert!(!item.co_scheduled);
            }
        }
        assert_eq!(packed[0], packed[1], "global vs sharded");
        assert_eq!(packed[0], packed[2], "global vs lockfree");
    }

    #[test]
    fn empty_batch_and_empty_matrices_are_rejected() {
        assert!(matches!(
            calu_factor_batch(&[], &cfg4()),
            Err(CaluError::InvalidConfig(_))
        ));
        let z = DenseMatrix::zeros(0, 4);
        assert!(matches!(
            calu_factor_batch(&[&z], &cfg4()),
            Err(CaluError::EmptyMatrix)
        ));
    }

    #[test]
    fn lazy_sources_match_dense_sources_bitwise() {
        // a Uniform source materialized on the claiming worker must
        // factor exactly like the same matrix passed in dense — for
        // both co-scheduled and co-operative routing
        let dims_seeds = [(48usize, 21u64), (96, 22), (450, 23)];
        let mats: Vec<DenseMatrix> = dims_seeds
            .iter()
            .map(|&(n, seed)| gen::uniform(n, n, seed))
            .collect();
        let refs: Vec<&DenseMatrix> = mats.iter().collect();
        let lazy: Vec<BatchSource<'_>> = dims_seeds
            .iter()
            .map(|&(n, seed)| BatchSource::Uniform { m: n, n, seed })
            .collect();
        let cfg = cfg4().with_batch_small_cutoff(100);
        let dense_out = calu_factor_batch(&refs, &cfg).unwrap();
        let lazy_out = calu_factor_batch_from(&lazy, &cfg).unwrap();
        for (i, (d, l)) in dense_out.items.iter().zip(&lazy_out.items).enumerate() {
            assert_eq!(
                d.factorization.lu.as_slice(),
                l.factorization.lu.as_slice(),
                "item {i}"
            );
            assert_eq!(d.factorization.perm.pivots(), l.factorization.perm.pivots());
            assert_eq!(d.co_scheduled, l.co_scheduled, "item {i}");
        }
    }

    #[test]
    fn mixed_lu_and_cholesky_batch_matches_solo_bitwise() {
        // small (co-scheduled) and large (co-operative) items of both
        // kernel sets through one pool; each must match its solo driver
        let lu_mats: Vec<DenseMatrix> = [(48usize, 31u64), (450, 32)]
            .iter()
            .map(|&(n, seed)| gen::uniform(n, n, seed))
            .collect();
        let spd_mats: Vec<DenseMatrix> = [(64usize, 33u64), (300, 34)]
            .iter()
            .map(|&(n, seed)| gen::spd_uniform(n, seed))
            .collect();
        let items: Vec<BatchItem<'_>> = vec![
            BatchItem::lu(BatchSource::Dense(&lu_mats[0])),
            BatchItem::cholesky(BatchSource::Dense(&spd_mats[0])),
            BatchItem::lu(BatchSource::Dense(&lu_mats[1])),
            BatchItem::cholesky(BatchSource::Dense(&spd_mats[1])),
        ];
        let cfg = cfg4().with_batch_small_cutoff(100);
        let out = factor_batch(&items, &cfg).unwrap();
        assert_eq!(out.items.len(), 4);

        let solo_lu0 = calu_factor(&lu_mats[0], &cfg).unwrap();
        let solo_lu1 = calu_factor(&lu_mats[1], &cfg).unwrap();
        let solo_ch0 = crate::threaded::cholesky_factor(&spd_mats[0], &cfg).unwrap();
        let solo_ch1 = crate::threaded::cholesky_factor(&spd_mats[1], &cfg).unwrap();
        for (i, solo) in [solo_lu0, solo_ch0, solo_lu1, solo_ch1].iter().enumerate() {
            assert_eq!(
                out.items[i].factorization.lu.as_slice(),
                solo.lu.as_slice(),
                "item {i}: mixed batch must match solo bitwise"
            );
        }
        // Cholesky items: identity perm, tight reconstruction residual
        for (item, a) in [(&out.items[1], &spd_mats[0]), (&out.items[3], &spd_mats[1])] {
            assert!(item.factorization.perm.pivots().is_empty());
            let r = item.factorization.cholesky_residual(a);
            assert!(r < 1e-13, "cholesky residual {r}");
        }
        assert!(out.items[0].co_scheduled && out.items[1].co_scheduled);
        assert!(!out.items[2].co_scheduled && !out.items[3].co_scheduled);
    }

    #[test]
    fn spd_generator_items_match_dense_sources_bitwise() {
        let dims_seeds = [(64usize, 41u64), (300, 42)];
        let mats: Vec<DenseMatrix> = dims_seeds
            .iter()
            .map(|&(n, seed)| gen::spd_uniform(n, seed))
            .collect();
        let dense: Vec<BatchItem<'_>> = mats
            .iter()
            .map(|a| BatchItem::cholesky(BatchSource::Dense(a)))
            .collect();
        let lazy: Vec<BatchItem<'_>> = dims_seeds
            .iter()
            .map(|&(n, seed)| BatchItem::cholesky(BatchSource::SpdUniform { n, seed }))
            .collect();
        let cfg = cfg4().with_batch_small_cutoff(100);
        let d = factor_batch(&dense, &cfg).unwrap();
        let l = factor_batch(&lazy, &cfg).unwrap();
        for (i, (a, b)) in d.items.iter().zip(&l.items).enumerate() {
            assert_eq!(
                a.factorization.lu.as_slice(),
                b.factorization.lu.as_slice(),
                "item {i}"
            );
        }
    }

    #[test]
    fn cholesky_batch_item_rejects_rectangular_source() {
        let items = [BatchItem::cholesky(BatchSource::Uniform {
            m: 40,
            n: 32,
            seed: 1,
        })];
        match factor_batch(&items, &cfg4()) {
            Err(CaluError::InvalidConfig(msg)) => {
                assert!(msg.contains("square"), "msg: {msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn single_item_batch_matches_solo() {
        let a = gen::uniform(72, 72, 9);
        let cfg = cfg4();
        let out = calu_factor_batch(&[&a], &cfg).unwrap();
        let solo = calu_factor(&a, &cfg).unwrap();
        assert_eq!(out.items[0].factorization.lu.as_slice(), solo.lu.as_slice());
        assert_eq!(out.items[0].factorization.perm.pivots(), solo.perm.pivots());
    }
}
