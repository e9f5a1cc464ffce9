//! The multithreaded tiled CALU executor — Algorithms 1 and 2 for real.
//!
//! Worker threads share:
//!
//! * per-thread **static queues** holding ready tasks whose output tiles
//!   they own under the 2D block-cyclic distribution, ordered by the
//!   static priority (P ≻ L ≻ U ≻ S, look-ahead on early panels);
//! * a **dynamic section** holding ready tasks of the last
//!   `N − Nstatic` panels, ordered by Algorithm 2's left-to-right DFS —
//!   either one shared queue ([`QueueDiscipline::Global`], the paper's
//!   implementation) or per-worker shards with randomized stealing
//!   ([`QueueDiscipline::Sharded`], which removes the single lock the
//!   global queue serializes every dequeue through).
//!
//! A worker always serves its own queue first ("each thread executes in
//! priority tasks from the static part"); when it has nothing it pulls
//! from the dynamic section instead of idling — the load-balancing
//! reservoir that removes Figure 1's idle pockets. Under the sharded
//! discipline a worker pops its own shard, and only when that is empty
//! sweeps the other shards in the seeded-random victim order of
//! [`calu_sched::steal_order`] — the same policy the simulator's
//! sharded hybrid runs. Under the lock-free discipline
//! ([`QueueDiscipline::LockFree`]) the shards are Chase-Lev deques
//! ([`calu_sched::Deque`]): the owner pushes each completion's newly
//! ready successors in descending DAG-priority order and pops LIFO
//! (most critical of the cache-hottest batch first), thieves steal FIFO
//! from the cold end, sweeping victims in the locality-tiered order of
//! [`calu_sched::StealTiers`] (SMT sibling → same socket → remote) over
//! the detected host topology. With [`CaluConfig::pin_workers`] set,
//! each worker is additionally pinned to the CPU that topology maps it
//! to, so "same socket" in the sweep means the same socket in silicon.
//! Dependence tracking is a single atomic counter per task; tile data
//! flows through [`SharedTiles`] under the DAG's exclusive-writer
//! discipline.
//!
//! Each worker owns a [`GemmScratch`] packing arena sized from the
//! configured tile dimension and reused across tasks, so the packed
//! BLAS-3 kernels (trailing updates and triangular solves) run without
//! per-task heap allocation.
//!
//! ## The kernel-set layer
//!
//! Everything above — the static/dynamic split, the queues, the steal
//! tiers, the scratch arenas, the dependence counters — is
//! **algorithm-blind**: it schedules opaque task IDs. What a task
//! *does* is decided by the [`KernelSet`] the item derives from its
//! graph's [`DagVariant`]: the CALU set runs tournament-pivoted panels,
//! `A·U⁻¹` / `L⁻¹·A` solves and GEMM updates, while the tiled-Cholesky
//! set ([`TaskGraph::build_cholesky`]) runs `dpotrf` panels,
//! `A·L⁻ᵀ` solves and SYRK / `A·Bᵀ` GEMM updates over the lower
//! triangle — no pivoting at all. Because the graph carries both the
//! dependency shape and the kernel identity, the solo, batch and
//! service-pool executors all pick the right kernels by simply building
//! the right graph; [`cholesky_factor_report`] is `calu_factor_report`
//! with a different graph constructor.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Instant;

use calu_dag::{DagVariant, PaperKind, TaskGraph, TaskId, TaskKind};
use calu_kernels::{gemm, lu_nopiv_unblocked, potrf, syrk, trsm, GemmScratch};
use calu_matrix::{
    BclMatrix, CmTiles, DenseMatrix, Layout, ProcessGrid, RowPerm, TileStorage, TlbMatrix,
};
use calu_rand::Rng;
use calu_sched::{
    nstatic_for, priority, steal_order, CpuTopology, Deque, OwnerMap, QueueDiscipline, QueueSource,
    Steal, StealOrder, StealTier, StealTiers,
};
use calu_trace::{SpanKind, TaskSpan, Timeline};

use crate::sync::{pin_current_thread, Mutex};

/// Per-worker queue accounting from one threaded run: where this
/// worker's tasks came from, plus steal/contention counters for the
/// sharded discipline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Tasks popped from the worker's own static queue.
    pub local_pops: u64,
    /// Tasks popped from the dynamic section without stealing (the
    /// shared queue, or the worker's own shard).
    pub global_pops: u64,
    /// Tasks stolen from another worker's shard or deque (stealing
    /// disciplines only; always zero under [`QueueDiscipline::Global`]).
    pub steal_pops: u64,
    /// The subset of `steal_pops` whose victim sat on a *different
    /// socket* (lock-free discipline's tiered sweep only; the flat
    /// sharded sweep does not classify victims, so it stays zero there).
    pub remote_steal_pops: u64,
    /// Steal *sweeps* that probed every victim and found all of them
    /// empty — the executor's queue-contention signal: a high ratio of
    /// failed sweeps to steals means workers are sweeping drained
    /// shards instead of computing. Counted per whole sweep, not per
    /// probed victim, so the reading is comparable between the flat
    /// (p − 1 probes) and locality-tiered victim orders.
    pub failed_steals: u64,
    /// Static-section tasks this worker *owned* under the block-cyclic
    /// distribution that were republished into the dynamic queues
    /// because the worker was lost or flagged persistently slow
    /// (fault injection's static-task rescue — always zero without a
    /// [`crate::fault::FaultPlan`]). Rescued tasks execute on whichever
    /// survivor pops them; the exclusive-writer DAG discipline keeps
    /// the factors bitwise-identical to the no-fault run.
    pub rescued: u64,
    /// This worker died mid-run (an injected [`crate::fault::FaultKind::Lose`]):
    /// it rescued its static backlog and exited; the survivors finished
    /// the factorization.
    pub lost: bool,
}

use crate::config::CaluConfig;
use crate::error::CaluError;
use crate::factorization::Factorization;
use crate::fault::{FaultAction, FaultClock, FaultKind};
use crate::pivot::swaps_for_selection;
use crate::shared::{load_part, unload, unload_part, SharedDense, SharedTiles, TileLayout};
use crate::tslu::{Candidate, TreePlan};

type ReadyQueue = Mutex<BinaryHeap<Reverse<(u64, u32)>>>;

/// The dynamic section's queues under each [`QueueDiscipline`].
pub(crate) enum DynQueues {
    /// One shared lock-protected queue (the paper's Algorithm 2).
    Global(ReadyQueue),
    /// One shard per worker; workers push/pop their own and steal from
    /// the rest when empty.
    Sharded(Vec<ReadyQueue>),
    /// One Chase-Lev deque per worker, each sized for the whole graph
    /// so a push can never fail: owners push/pop the bottom, thieves
    /// steal the top in the locality-tiered sweep order.
    LockFree(Vec<Deque>),
}

/// One steal sweep over `victims`, probing each with `probe` until one
/// yields a task. A *wholly empty* sweep counts as exactly one
/// contention failure — not one per probed victim — so
/// `ContentionStats::failure_rate` reads the same whether the sweep
/// visits p − 1 flat victims or the tiered order's fewer-per-tier ones.
pub(crate) fn steal_sweep<V, T>(
    victims: impl Iterator<Item = V>,
    mut probe: impl FnMut(&V) -> Option<T>,
    failed_sweeps: &mut u64,
) -> Option<(T, V)> {
    for v in victims {
        if let Some(t) = probe(&v) {
            return Some((t, v));
        }
    }
    *failed_sweeps += 1;
    None
}

struct PanelState {
    plan: TreePlan,
    slots: Vec<Mutex<Option<Candidate>>>,
    perm: OnceLock<RowPerm>,
}

/// The algorithm-indexed kernel set: which tile-task bodies an item's
/// tasks run. Everything the scheduler does — queues, priorities, steal
/// tiers, dependence counters — is shared across kernel sets; only the
/// per-task math differs. Internally it is derived from the graph's
/// [`DagVariant`], so the dependency shape and the kernels can never
/// disagree; batched ([`crate::batch`]) and pooled ([`crate::pool`])
/// submissions name the kernel set per item and the executor builds the
/// matching graph via the crate-internal `KernelSet::build_graph`, the
/// single validated constructor (Cholesky rejects non-square there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSet {
    /// CALU: tournament-pivoted panel (leaf/combine/finish), `A·U⁻¹`
    /// and `P·L⁻¹·A` triangular solves, `C − A·B` trailing updates.
    CaluLu,
    /// Tiled Cholesky: `dpotrf` panel, `A·L⁻ᵀ` triangular solve,
    /// lower-triangle SYRK (diagonal tiles) / `C − A·Bᵀ` GEMM
    /// (off-diagonal tiles) trailing updates. No pivoting: the item's
    /// permutation is the identity and the tournament-panel machinery
    /// is never built.
    Cholesky,
}

impl KernelSet {
    pub(crate) fn for_graph(g: &TaskGraph) -> Self {
        match g.variant() {
            DagVariant::TileCholesky => KernelSet::Cholesky,
            _ => KernelSet::CaluLu,
        }
    }

    /// Build the task graph whose [`DagVariant`] selects this kernel
    /// set, for an `m×n` matrix tiled at `b`. Cholesky graphs require a
    /// square matrix (and ignore `leaf_stride` — there is no tournament
    /// reduction tree to shape).
    pub(crate) fn build_graph(
        self,
        m: usize,
        n: usize,
        b: usize,
        leaf_stride: usize,
    ) -> Result<TaskGraph, CaluError> {
        match self {
            KernelSet::CaluLu => Ok(TaskGraph::build_calu(m, n, b, leaf_stride)),
            KernelSet::Cholesky => {
                if m != n {
                    return Err(CaluError::InvalidConfig(format!(
                        "tiled Cholesky factors a square SPD matrix, got {m}×{n}"
                    )));
                }
                Ok(TaskGraph::build_cholesky(n, b))
            }
        }
    }
}

const NOT_SINGULAR: usize = usize::MAX;

/// Per-item execution state: everything one factorization's task bodies
/// touch — tiled storage, dependence counters, tournament panels,
/// priority keys — with *no queues attached*. The solo executor
/// ([`factor_tiled`]) wraps exactly one `ItemState` in its queue set;
/// the batch executor (`crate::batch`) drives many of them through one
/// persistent worker pool and one batch-level queue set; the service
/// pool (`crate::pool`) keeps them alive across requests, which is why
/// the graph is held by [`Arc`] rather than borrowed — service workers
/// are `'static` threads with no scope to borrow from.
pub(crate) struct ItemState<S: TileStorage> {
    pub(crate) g: Arc<TaskGraph>,
    tiles: SharedTiles<S>,
    deps: Vec<AtomicU32>,
    pub(crate) owners: OwnerMap,
    pub(crate) is_static: Vec<bool>,
    pub(crate) static_keys: Vec<u64>,
    pub(crate) dynamic_keys: Vec<u64>,
    pub(crate) done: AtomicUsize,
    singular: AtomicUsize,
    panels: Vec<PanelState>,
    kernels: KernelSet,
    b: usize,
}

impl<S: TileStorage + Send> ItemState<S> {
    /// Build the execution state for one factorization: `nstatic` is the
    /// number of leading tile columns scheduled statically (the `dratio`
    /// split already resolved against this item's panel count).
    pub(crate) fn new(storage: S, g: Arc<TaskGraph>, grid: ProcessGrid, nstatic: usize) -> Self {
        let kinds: Vec<TaskKind> = g.ids().map(|t| g.kind(t)).collect();
        let mt = g.tile_rows();
        let kernels = KernelSet::for_graph(&g);
        Self {
            tiles: SharedTiles::new(storage),
            deps: g.ids().map(|t| AtomicU32::new(g.dep_count(t))).collect(),
            owners: OwnerMap::new(&g, grid),
            is_static: kinds.iter().map(|k| k.writes_col() < nstatic).collect(),
            static_keys: kinds.iter().map(priority::static_key).collect(),
            dynamic_keys: kinds.iter().map(priority::dynamic_key).collect(),
            done: AtomicUsize::new(0),
            singular: AtomicUsize::new(NOT_SINGULAR),
            // tournament-panel state exists only for pivoted kernel sets;
            // Cholesky panels are a single in-tile dpotrf with no
            // candidates to merge and no permutation to record
            panels: match kernels {
                KernelSet::Cholesky => Vec::new(),
                KernelSet::CaluLu => (0..g.num_panels())
                    .map(|k| {
                        let nleaves = g.leaf_stride().min(mt - k);
                        let plan = TreePlan::new(nleaves);
                        PanelState {
                            slots: (0..plan.slots).map(|_| Mutex::new(None)).collect(),
                            plan,
                            perm: OnceLock::new(),
                        }
                    })
                    .collect(),
            },
            kernels,
            b: g.block(),
            g,
        }
    }

    /// Mark `t` done and collect its newly enabled successors into
    /// `ready_buf` (cleared first). Queueing the successors is the
    /// caller's business — the solo executor pushes them into its own
    /// queue set, the batch executor into the batch-level one.
    pub(crate) fn complete_into(&self, t: TaskId, ready_buf: &mut Vec<TaskId>) {
        ready_buf.clear();
        for &s in self.g.successors(t) {
            if self.deps[s.idx()].fetch_sub(1, Ordering::AcqRel) == 1 {
                ready_buf.push(s);
            }
        }
        self.done.fetch_add(1, Ordering::AcqRel);
    }

    /// The combined row permutation, in panel order, once every panel
    /// finished. Unpivoted kernel sets (Cholesky) build no panel state:
    /// their permutation is the identity.
    pub(crate) fn perm(&self) -> RowPerm {
        let mut perm = RowPerm::identity();
        for panel in &self.panels {
            perm.extend(panel.perm.get().expect("all panels finished"));
        }
        perm
    }

    /// The first column whose pivot was zero (or, for Cholesky, not
    /// positive), if any.
    pub(crate) fn singular_at(&self) -> Option<usize> {
        match self.singular.load(Ordering::Acquire) {
            NOT_SINGULAR => None,
            c => Some(c),
        }
    }

    /// Load worker `me`'s share of `a` into the (empty) tiled storage:
    /// [`load_part`] on this item's tiles.
    ///
    /// # Safety
    /// No task of this item may have started; concurrent callers pass
    /// distinct `me` with the same `workers`.
    pub(crate) unsafe fn load_part(&self, a: &DenseMatrix, me: usize, workers: usize) {
        load_part(&self.tiles, a, me, workers);
    }

    /// Unload worker `me`'s column blocks of the finished item into
    /// `out` with the left swaps of `perm` applied: [`unload_part`] on
    /// this item's tiles.
    ///
    /// # Safety
    /// Concurrent callers pass distinct `me` with the same `workers` and
    /// the same `out`.
    pub(crate) unsafe fn unload_part(
        &self,
        perm: &RowPerm,
        out: &SharedDense<'_>,
        me: usize,
        workers: usize,
    ) {
        unload_part(self.finished_storage(), perm, out, me, workers);
    }

    /// The finished item's factorization, unloaded on the calling thread
    /// — the batch and service routes' copy-out.
    pub(crate) fn factorization(&self) -> Factorization {
        let perm = self.perm();
        Factorization {
            lu: unload(self.finished_storage(), &perm),
            perm,
            singular_at: self.singular_at(),
        }
    }

    /// Shared view of the tiled storage once every task has completed.
    fn finished_storage(&self) -> &S {
        // the Acquire load pairs with every completion's AcqRel bump, so
        // all task writes are visible, and a retired task holds no tile
        // pointer: nothing can write the storage any more
        assert_eq!(
            self.done.load(Ordering::Acquire),
            self.g.len(),
            "the item still has tasks to run"
        );
        // SAFETY: see above — every task has completed.
        unsafe { self.tiles.inner() }
    }
}

/// Shared fault-injection state of one run — allocated only when the
/// config carries an armed [`crate::FaultPlan`], so the no-fault hot path
/// branches on one `Option` and touches nothing else.
pub(crate) struct FaultShared {
    /// Worker `w` no longer executes its static backlog (dead, or
    /// flagged persistently slow): static tasks owned by `w` are
    /// rerouted to the dynamic section instead. Read and written under
    /// the `local[w]` mutex, so a reroute can never race a drain and
    /// strand a task in a queue nobody serves.
    pub(crate) degraded: Vec<AtomicBool>,
    /// Static tasks owned by worker `w` republished into the dynamic
    /// queues (folded into [`ThreadStats::rescued`] after the join).
    pub(crate) rescued: Vec<AtomicU64>,
    /// A worker hit an unrecoverable fault (injected kernel panic):
    /// everyone stops, the run fails with `fail`'s error.
    pub(crate) abort: AtomicBool,
    /// First unrecoverable error, kept by the first worker to fail.
    pub(crate) fail: Mutex<Option<CaluError>>,
}

impl FaultShared {
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            degraded: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            rescued: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            abort: AtomicBool::new(false),
            fail: Mutex::new(None),
        }
    }

    /// Record the run's first unrecoverable error and tell every worker
    /// to stop.
    pub(crate) fn fail_with(&self, e: CaluError) {
        let mut slot = self.fail.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        drop(slot);
        self.abort.store(true, Ordering::Release);
    }
}

struct Shared<S: TileStorage> {
    item: ItemState<S>,
    local: Vec<ReadyQueue>,
    dynamic: DynQueues,
    /// Per-worker locality-tiered victim orders (lock-free discipline
    /// only; empty otherwise).
    tiers: Vec<StealTiers>,
    /// Direction the tiered sweep probes its tiers in — the adaptive
    /// controller's steal-order knob (nearest-first by default).
    steal_dir: StealOrder,
    /// Dynamic-section tasks currently queued (sharded discipline only:
    /// incremented before push, decremented after pop), so idle workers
    /// can tell "nothing to steal anywhere" from "a victim shard I
    /// probed was empty" — only the latter is contention. Stays zero
    /// under the global discipline, which never reads it.
    dyn_queued: AtomicUsize,
    /// Fault-injection state; `None` (and never consulted) without an
    /// armed plan.
    fault: Option<FaultShared>,
}

impl<S: TileStorage + Send> Shared<S> {
    /// Queue a ready task. `home` is the worker that enabled it (or a
    /// round-robin index for initially ready tasks): under the sharded
    /// discipline, dynamic tasks land on the enabler's shard so they
    /// tend to run where their inputs are warm.
    ///
    /// With fault injection armed, a static task whose owner is
    /// *degraded* (dead, or flagged persistently slow) is rescued into
    /// the dynamic section instead — checked under the owner's local
    /// lock, the same lock a dying owner holds while draining, so no
    /// task can slip into a queue nobody will ever serve.
    fn push_ready(&self, t: TaskId, home: usize) {
        let item = &self.item;
        if item.is_static[t.idx()] {
            let owner = item.owners.owner(t);
            let mut q = self.local[owner].lock();
            if let Some(f) = &self.fault {
                if f.degraded[owner].load(Ordering::Acquire) {
                    drop(q);
                    f.rescued[owner].fetch_add(1, Ordering::Relaxed);
                    self.push_dynamic(t, home);
                    return;
                }
            }
            q.push(Reverse((item.static_keys[t.idx()], t.0)));
        } else {
            self.push_dynamic(t, home);
        }
    }

    /// Queue a task into the dynamic section (the non-static arm of
    /// [`push_ready`](Self::push_ready), also the landing strip for
    /// rescued static tasks).
    fn push_dynamic(&self, t: TaskId, home: usize) {
        let item = &self.item;
        {
            match &self.dynamic {
                DynQueues::Global(q) => q.lock().push(Reverse((item.dynamic_keys[t.idx()], t.0))),
                DynQueues::Sharded(shards) => {
                    // counter first, push second: the count
                    // over-approximates, so a successful pop's decrement
                    // can never underflow. Stealing disciplines only —
                    // the global discipline never reads it, so the
                    // paper-verbatim path pays no extra shared-line RMWs.
                    self.dyn_queued.fetch_add(1, Ordering::AcqRel);
                    shards[home % shards.len()]
                        .lock()
                        .push(Reverse((item.dynamic_keys[t.idx()], t.0)));
                }
                DynQueues::LockFree(deques) => {
                    self.dyn_queued.fetch_add(1, Ordering::AcqRel);
                    // only the owner pushes its own deque at runtime
                    // (`complete` passes home = the completing worker);
                    // the pre-spawn initial scatter is single-threaded
                    deques[home % deques.len()]
                        .push(t.0 as u64)
                        .expect("deque sized for the whole graph");
                }
            }
        }
    }

    /// Algorithm 1's pop order: own static queue first, then the dynamic
    /// section (Algorithm 2's DFS order is baked into its keys). Under
    /// the stealing disciplines the dynamic section is the worker's own
    /// shard/deque first, then a steal sweep (seeded-random victims for
    /// the sharded discipline, the locality-tiered order for the
    /// lock-free one) — attempted, and counted into
    /// `stats.failed_steals` when wholly empty, only while dynamic tasks
    /// are actually queued somewhere, so idle spins on a drained DAG
    /// don't read as contention.
    fn pop(
        &self,
        me: usize,
        rng: &mut Option<Rng>,
        stats: &mut ThreadStats,
    ) -> Option<(TaskId, QueueSource)> {
        if let Some(Reverse((_, t))) = self.local[me].lock().pop() {
            return Some((TaskId(t), QueueSource::Local));
        }
        match &self.dynamic {
            DynQueues::Global(q) => q
                .lock()
                .pop()
                .map(|Reverse((_, t))| (TaskId(t), QueueSource::Global)),
            DynQueues::Sharded(shards) => {
                if let Some(Reverse((_, t))) = shards[me].lock().pop() {
                    self.dyn_queued.fetch_sub(1, Ordering::AcqRel);
                    return Some((TaskId(t), QueueSource::Shard));
                }
                if self.dyn_queued.load(Ordering::Acquire) == 0 {
                    return None; // nothing queued anywhere: idle, not contention
                }
                let rng = rng.as_mut().expect("stealing workers carry an RNG");
                let stolen = steal_sweep(
                    steal_order(rng, me, shards.len()),
                    |&victim| shards[victim].lock().pop().map(|Reverse((_, t))| TaskId(t)),
                    &mut stats.failed_steals,
                );
                stolen.map(|(t, _)| {
                    self.dyn_queued.fetch_sub(1, Ordering::AcqRel);
                    (t, QueueSource::Stolen)
                })
            }
            DynQueues::LockFree(deques) => {
                if let Some(v) = deques[me].pop() {
                    self.dyn_queued.fetch_sub(1, Ordering::AcqRel);
                    return Some((TaskId(v as u32), QueueSource::Shard));
                }
                if self.dyn_queued.load(Ordering::Acquire) == 0 {
                    return None;
                }
                let rng = rng.as_mut().expect("stealing workers carry an RNG");
                let stolen = steal_sweep(
                    self.tiers[me].sweep_ordered(self.steal_dir, rng),
                    |&(victim, _)| loop {
                        match deques[victim].steal() {
                            Steal::Taken(v) => break Some(TaskId(v as u32)),
                            Steal::Empty => break None,
                            // a lost race means someone else made
                            // progress; re-probe the same victim
                            Steal::Retry => std::hint::spin_loop(),
                        }
                    },
                    &mut stats.failed_steals,
                );
                stolen.map(|(t, (_, tier))| {
                    self.dyn_queued.fetch_sub(1, Ordering::AcqRel);
                    let source = match tier {
                        StealTier::Remote => QueueSource::StolenRemote,
                        _ => QueueSource::Stolen,
                    };
                    (t, source)
                })
            }
        }
    }

    /// Mark `t` done and queue its newly enabled successors.
    /// `ready_buf` is the worker's reusable scratch: under the lock-free
    /// discipline the batch is pushed in *descending* key order (least
    /// critical first), so the owner's LIFO pop serves the batch
    /// most-critical first while a FIFO thief takes its *least*
    /// critical leftover — the victim keeps its critical-path work.
    fn complete(&self, t: TaskId, me: usize, ready_buf: &mut Vec<TaskId>) {
        self.item.complete_into(t, ready_buf);
        if matches!(self.dynamic, DynQueues::LockFree(_)) && ready_buf.len() > 1 {
            ready_buf.sort_unstable_by_key(|s| Reverse(self.item.dynamic_keys[s.idx()]));
        }
        for &s in ready_buf.iter() {
            self.push_ready(s, me);
        }
    }
}

impl<S: TileStorage + Send> ItemState<S> {
    fn flag_singular(&self, col: usize) {
        self.singular.fetch_min(col, Ordering::AcqRel);
    }

    // ----- task bodies -------------------------------------------------

    /// Width of panel `k` (ragged last panel allowed).
    fn panel_width(&self, k: usize) -> usize {
        self.g.tile_col_count(k)
    }

    /// Gather the leaf chunk (every `leaf_stride`-th tile row from `i0`)
    /// of panel `k` and elect its pivot candidates.
    fn run_leaf(&self, k: usize, i0: usize) {
        let w = self.panel_width(k);
        let rows: Vec<usize> = self.g.leaf_rows(k, i0).collect();
        let total: usize = rows.iter().map(|&ti| self.g.tile_row_count(ti)).sum();
        let mut block = DenseMatrix::zeros(total, w);
        let mut ids = Vec::with_capacity(total);
        let mut r = 0;
        for &ti in &rows {
            let rc = self.g.tile_row_count(ti);
            // SAFETY: leaves read their own chunk's tiles; prior writers
            // (previous panel's updates) are ordered before us by deps.
            unsafe {
                let tile = self.tiles.tile_ptr(ti, k);
                for i in 0..rc {
                    for j in 0..w {
                        block.set(r + i, j, tile.get(i, j));
                    }
                }
            }
            for i in 0..rc {
                ids.push(ti * self.b + i);
            }
            r += rc;
        }
        let cand = Candidate::elect(&block, &ids, w);
        let slot = i0 - k;
        *self.panels[k].slots[slot].lock() = Some(cand);
    }

    fn run_combine(&self, k: usize, level: u32, idx: u32) {
        let w = self.panel_width(k);
        let st = self.panels[k].plan.step_for(level, idx);
        let a = self.panels[k].slots[st.left]
            .lock()
            .take()
            .expect("left candidate ready");
        let b = self.panels[k].slots[st.right]
            .lock()
            .take()
            .expect("right candidate ready");
        *self.panels[k].slots[st.out].lock() = Some(Candidate::combine(&a, &b, w));
    }

    /// Swap two global rows within tile column `tj`.
    ///
    /// # Safety
    /// Caller must have exclusive access to the affected tiles.
    unsafe fn swap_rows_in_tile_col(&self, r1: usize, r2: usize, tj: usize) {
        if r1 == r2 {
            return;
        }
        let w = self.g.tile_col_count(tj);
        let (t1, o1) = (r1 / self.b, r1 % self.b);
        let (t2, o2) = (r2 / self.b, r2 % self.b);
        let p1 = self.tiles.tile_ptr(t1, tj);
        let p2 = self.tiles.tile_ptr(t2, tj);
        for j in 0..w {
            let a = p1.get(o1, j);
            let b = p2.get(o2, j);
            p1.set(o1, j, b);
            p2.set(o2, j, a);
        }
    }

    fn run_finish(&self, k: usize) {
        let w = self.panel_width(k);
        let winner = self.panels[k].slots[self.panels[k].plan.root]
            .lock()
            .take()
            .expect("tournament winner ready");
        let selected = &winner.ids[..w.min(winner.ids.len())];
        let perm = swaps_for_selection(k * self.b, selected);
        // apply Π_k to the panel column itself
        unsafe {
            for (t, &p) in perm.pivots().iter().enumerate() {
                self.swap_rows_in_tile_col(k * self.b + t, p, k);
            }
            // factor the diagonal tile without pivoting
            let d = self.tiles.tile_ptr(k, k);
            let span = (d.cols - 1) * d.ld + d.rows;
            let slice = std::slice::from_raw_parts_mut(d.ptr, span);
            if let Some(c) = lu_nopiv_unblocked(d.rows, d.cols, slice, d.ld) {
                self.flag_singular(k * self.b + c);
            }
        }
        self.panels[k]
            .perm
            .set(perm)
            .expect("panel finish runs once");
    }

    fn run_compute_l(&self, k: usize, i: usize, scratch: &mut GemmScratch) {
        // SAFETY: reads diag tile (written by finish, ordered), writes
        // tile (i, k) exclusively.
        unsafe {
            let d = self.tiles.tile_ptr(k, k);
            let t = self.tiles.tile_ptr(i, k);
            trsm::dtrsm_right_upper_raw_packed(t.rows, t.cols, d.ptr, d.ld, t.ptr, t.ld, scratch);
        }
    }

    fn run_compute_u(&self, k: usize, j: usize, scratch: &mut GemmScratch) {
        let perm = self.panels[k].perm.get().expect("finish ordered before U");
        // SAFETY: exclusive access to column j's tiles rows k.. per DAG.
        unsafe {
            for (t, &p) in perm.pivots().iter().enumerate() {
                self.swap_rows_in_tile_col(k * self.b + t, p, j);
            }
            let d = self.tiles.tile_ptr(k, k);
            let t = self.tiles.tile_ptr(k, j);
            trsm::dtrsm_left_lower_unit_raw_packed(
                t.rows, t.cols, d.ptr, d.ld, t.ptr, t.ld, scratch,
            );
        }
    }

    fn run_update(&self, k: usize, i: usize, j: usize, scratch: &mut GemmScratch) {
        // SAFETY: reads L(i,k), U(k,j) (ordered by deps), writes (i,j)
        // exclusively.
        unsafe {
            let l = self.tiles.tile_ptr(i, k);
            let u = self.tiles.tile_ptr(k, j);
            let c = self.tiles.tile_ptr(i, j);
            gemm::dgemm_raw_packed(
                c.rows, c.cols, l.cols, -1.0, l.ptr, l.ld, u.ptr, u.ld, 1.0, c.ptr, c.ld, scratch,
            );
        }
    }

    // ----- Cholesky task bodies ---------------------------------------

    /// Cholesky panel: `dpotrf` on the diagonal tile `(k,k)` in place
    /// (lower triangle only). A non-positive pivot — the input is not
    /// numerically SPD — flags the item singular at its global column.
    fn run_potrf(&self, k: usize) {
        // SAFETY: exclusive write access to tile (k,k) per the DAG; the
        // slice spans only this tile's own storage, same as run_finish.
        unsafe {
            let d = self.tiles.tile_ptr(k, k);
            let span = (d.cols - 1) * d.ld + d.rows;
            let slice = std::slice::from_raw_parts_mut(d.ptr, span);
            if let Some(c) = potrf::dpotrf_blocked(d.rows, slice, d.ld, trsm::TRSM_NB) {
                self.flag_singular(k * self.b + c);
            }
        }
    }

    /// Cholesky triangular solve: `L_ik ← A_ik · L_kk⁻ᵀ`.
    fn run_cholesky_l(&self, k: usize, i: usize, scratch: &mut GemmScratch) {
        // SAFETY: reads diag tile (written by the panel, ordered by
        // deps), writes tile (i, k) exclusively.
        unsafe {
            let d = self.tiles.tile_ptr(k, k);
            let t = self.tiles.tile_ptr(i, k);
            trsm::dtrsm_right_lower_trans_raw_packed(
                t.rows, t.cols, d.ptr, d.ld, t.ptr, t.ld, scratch,
            );
        }
    }

    /// Cholesky trailing update: `A_ij ← A_ij − L_ik·L_jkᵀ` (`j ≤ i`,
    /// lower triangle only). Diagonal tiles (`i == j`) use the
    /// lower-triangle SYRK so their strictly-upper part is never touched;
    /// off-diagonal tiles are a full `A·Bᵀ` GEMM.
    fn run_cholesky_update(&self, k: usize, i: usize, j: usize, scratch: &mut GemmScratch) {
        // SAFETY: reads L(i,k), L(j,k) (ordered by deps), writes (i,j)
        // exclusively.
        unsafe {
            let li = self.tiles.tile_ptr(i, k);
            let c = self.tiles.tile_ptr(i, j);
            if i == j {
                syrk::dsyrk_ln_raw_packed(
                    c.rows, li.cols, -1.0, li.ptr, li.ld, 1.0, c.ptr, c.ld, scratch,
                );
            } else {
                let lj = self.tiles.tile_ptr(j, k);
                gemm::dgemm_nt_raw_packed(
                    c.rows, c.cols, li.cols, -1.0, li.ptr, li.ld, lj.ptr, lj.ld, 1.0, c.ptr, c.ld,
                    scratch,
                );
            }
        }
    }

    /// Run one task's kernel through the item's [`KernelSet`]. `scratch`
    /// is the calling worker's packing arena — pre-sized for
    /// tile-dimension GEMMs, so the BLAS-3 tasks (L, U, S) never touch
    /// the allocator. The task *kinds* are shared across kernel sets
    /// (they encode the dependency shape); the bodies are not.
    pub(crate) fn execute(&self, t: TaskId, scratch: &mut GemmScratch) {
        match (self.kernels, self.g.kind(t)) {
            (KernelSet::CaluLu, TaskKind::PanelLeaf { k, i }) => {
                self.run_leaf(k as usize, i as usize)
            }
            (KernelSet::CaluLu, TaskKind::PanelCombine { k, level, idx }) => {
                self.run_combine(k as usize, level, idx)
            }
            (KernelSet::CaluLu, TaskKind::PanelFinish { k }) => self.run_finish(k as usize),
            (KernelSet::CaluLu, TaskKind::ComputeL { k, i }) => {
                self.run_compute_l(k as usize, i as usize, scratch)
            }
            (KernelSet::CaluLu, TaskKind::ComputeU { k, j }) => {
                self.run_compute_u(k as usize, j as usize, scratch)
            }
            (KernelSet::CaluLu, TaskKind::Update { k, i, j }) => {
                self.run_update(k as usize, i as usize, j as usize, scratch)
            }
            (KernelSet::Cholesky, TaskKind::PanelFinish { k }) => self.run_potrf(k as usize),
            (KernelSet::Cholesky, TaskKind::ComputeL { k, i }) => {
                self.run_cholesky_l(k as usize, i as usize, scratch)
            }
            (KernelSet::Cholesky, TaskKind::Update { k, i, j }) => {
                self.run_cholesky_update(k as usize, i as usize, j as usize, scratch)
            }
            (KernelSet::Cholesky, kind) => {
                unreachable!("tiled Cholesky graphs never emit {kind:?}")
            }
        }
    }
}

/// The host's CPU topology, detected once per process: sysfs parse on
/// Linux, flat fallback elsewhere (see [`CpuTopology::detect`]).
pub(crate) fn host_topology() -> &'static CpuTopology {
    static TOPO: OnceLock<CpuTopology> = OnceLock::new();
    TOPO.get_or_init(CpuTopology::detect)
}

/// What the tiled executor hands back: the factorization, the
/// execution timeline, and per-thread queue/rescue accounting.
type Factored = (Factorization, Timeline, Vec<ThreadStats>);

/// Factor `a` in layout `S` with one worker per `grid` cell. The workers
/// cross the tile↔dense boundary themselves: each loads its own tiles
/// ([`load_part`]) before a start barrier, and once the DAG drains each
/// unloads its column blocks with the left swaps applied
/// ([`unload_part`]), so neither copy spawns a thread of its own. The
/// timeline's clock starts at the barrier, so it times the DAG alone.
/// `cfg.fault` is the run's injection plan ([`crate::FaultPlan::off`] for
/// every production caller): an armed plan can make the run fail with
/// a typed error (injected kernel panic), which is the only `Err` this
/// returns.
fn factor_tiled<S: TileLayout>(
    a: &DenseMatrix,
    g: &Arc<TaskGraph>,
    grid: ProcessGrid,
    cfg: &CaluConfig,
) -> Result<Factored, CaluError> {
    let (queue, steal_dir, pin, fault) = (cfg.queue, cfg.steal_order, cfg.pin_workers, &cfg.fault);
    let threads = grid.size();
    let nstatic = nstatic_for(cfg.dratio, g.num_panels());
    let topo = host_topology();

    let fault_shared = (!fault.is_off()).then(|| FaultShared::new(threads));
    if let Some(fs) = &fault_shared {
        // a persistently slow worker is degraded from the start: its
        // static backlog routes to the dynamic section, where healthy
        // workers load-balance it (the worker itself keeps executing
        // dynamic tasks at its reduced rate)
        for wf in fault.faults() {
            if matches!(wf.kind, FaultKind::Slow { .. }) {
                fs.degraded[wf.worker].store(true, Ordering::Release);
            }
        }
    }

    let storage = S::alloc(a.rows(), a.cols(), cfg.b, grid);
    let shared = Shared {
        item: ItemState::new(storage, Arc::clone(g), grid, nstatic),
        local: (0..threads)
            .map(|_| Mutex::new(BinaryHeap::new()))
            .collect(),
        dynamic: match queue {
            QueueDiscipline::Global => DynQueues::Global(Mutex::new(BinaryHeap::new())),
            QueueDiscipline::Sharded { .. } => DynQueues::Sharded(
                (0..threads)
                    .map(|_| Mutex::new(BinaryHeap::new()))
                    .collect(),
            ),
            QueueDiscipline::LockFree { .. } => DynQueues::LockFree(
                // each deque sized for the whole graph: a worker can at
                // most hold every task, so pushes never see "full"
                (0..threads)
                    .map(|_| Deque::with_capacity(g.len()))
                    .collect(),
            ),
        },
        tiers: match queue {
            QueueDiscipline::LockFree { .. } => (0..threads)
                .map(|me| StealTiers::for_worker(topo, me, threads))
                .collect(),
            _ => Vec::new(),
        },
        steal_dir,
        dyn_queued: AtomicUsize::new(0),
        fault: fault_shared,
    };

    // scatter initially ready tasks round-robin over the shards (no
    // worker has "enabled" them yet); the Global queue ignores `home`.
    // For the lock-free deques, scatter in descending priority so each
    // deque's LIFO owner pops its share most-critical first.
    let mut initial = g.initial_ready();
    if matches!(queue, QueueDiscipline::LockFree { .. }) {
        initial.sort_unstable_by_key(|t| Reverse(shared.item.dynamic_keys[t.idx()]));
    }
    for (i, t) in initial.into_iter().enumerate() {
        shared.push_ready(t, i);
    }

    let total = g.len();
    let started = Barrier::new(threads);
    let clock_start = OnceLock::new();
    let perm = OnceLock::new();
    let mut lu = DenseMatrix::zeros(a.rows(), a.cols());
    let out = SharedDense::new(&mut lu);
    let mut timeline = Timeline::new(threads);
    let mut thread_stats = vec![ThreadStats::default(); threads];
    let mut unloaded = vec![false; threads];

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for me in 0..threads {
            let shared = &shared;
            let (started, clock_start, perm, out) = (&started, &clock_start, &perm, &out);
            handles.push(scope.spawn(move || {
                // topology-aware pinning: worker `me` onto the CPU the
                // detected topology maps it to — best effort, a refusal
                // (sandbox, cgroup) leaves the worker floating
                if pin {
                    pin_current_thread(topo.cpu_for_worker(me));
                }
                // SAFETY: no task runs before the barrier, and every
                // worker loads a disjoint set of tiles
                unsafe { shared.item.load_part(a, me, threads) };
                started.wait();
                let t0 = *clock_start.get_or_init(Instant::now);
                let mut spans: Vec<TaskSpan> = Vec::new();
                let mut stats = ThreadStats::default();
                // per-worker packing arena, sized once from the config's
                // tile dimension and reused by every kernel this worker
                // runs — the task loop performs no GEMM-path allocation
                let mut scratch =
                    GemmScratch::sized_for(shared.item.b, shared.item.b, shared.item.b);
                // per-worker victim-selection stream: SplitMix64 seeding
                // decorrelates the nearby seeds, so workers sweep
                // victims in unrelated orders
                let mut rng = queue
                    .seed()
                    .map(|seed| Rng::seed_from_u64(seed.wrapping_add(me as u64)));
                // fault clock: disarmed (and never ticked) without a plan
                let mut clock = if shared.fault.is_some() {
                    FaultClock::new(fault, me)
                } else {
                    FaultClock::disarmed()
                };
                let mut ready_buf: Vec<TaskId> = Vec::new();
                let mut idle_spins = 0u32;
                while shared.item.done.load(Ordering::Acquire) < total {
                    if let Some(f) = &shared.fault {
                        if f.abort.load(Ordering::Acquire) {
                            break;
                        }
                        match clock.before_task() {
                            FaultAction::None => {}
                            FaultAction::Stall(d) => {
                                let start = t0.elapsed().as_secs_f64();
                                std::thread::sleep(d);
                                spans.push(TaskSpan {
                                    core: me,
                                    start,
                                    end: t0.elapsed().as_secs_f64(),
                                    kind: SpanKind::Noise,
                                });
                            }
                            FaultAction::Lose => {
                                // static-task rescue: flag ourselves
                                // degraded and drain our static backlog
                                // *under our local lock* (the same lock
                                // push_ready's reroute checks under), then
                                // republish it into the dynamic section
                                // for the survivors. The exclusive-writer
                                // DAG keeps the factors bitwise-identical
                                // no matter who ends up running them.
                                let drained: Vec<u32> = {
                                    let mut q = shared.local[me].lock();
                                    f.degraded[me].store(true, Ordering::Release);
                                    std::iter::from_fn(|| q.pop().map(|Reverse((_, t))| t))
                                        .collect()
                                };
                                f.rescued[me].fetch_add(drained.len() as u64, Ordering::Relaxed);
                                for t in drained {
                                    shared.push_dynamic(TaskId(t), me);
                                }
                                stats.lost = true;
                                break;
                            }
                            FaultAction::Panic => {
                                // a real unwind, really contained: the
                                // injected kernel panic must exercise the
                                // same containment a genuine kernel bug
                                // would
                                let caught = std::panic::catch_unwind(|| {
                                    panic!("injected kernel panic on worker {me} (fault plan)")
                                });
                                debug_assert!(caught.is_err());
                                f.fail_with(CaluError::TaskPanic(format!(
                                    "injected kernel panic on worker {me} (fault plan)"
                                )));
                                break;
                            }
                        }
                    }
                    match shared.pop(me, &mut rng, &mut stats) {
                        Some((t, source)) => {
                            idle_spins = 0;
                            match source {
                                QueueSource::Local => stats.local_pops += 1,
                                QueueSource::Stolen => stats.steal_pops += 1,
                                QueueSource::StolenRemote => {
                                    stats.steal_pops += 1;
                                    stats.remote_steal_pops += 1;
                                }
                                _ => stats.global_pops += 1,
                            }
                            let start = t0.elapsed().as_secs_f64();
                            shared.item.execute(t, &mut scratch);
                            let end = t0.elapsed().as_secs_f64();
                            let kind = match shared.item.g.kind(t).paper_kind() {
                                PaperKind::P => SpanKind::Panel,
                                PaperKind::L => SpanKind::LFactor,
                                PaperKind::U => SpanKind::UFactor,
                                PaperKind::S => SpanKind::Update,
                            };
                            spans.push(TaskSpan {
                                core: me,
                                start,
                                end,
                                kind,
                            });
                            shared.complete(t, me, &mut ready_buf);
                            if shared.fault.is_none() {
                                continue;
                            }
                            if let Some(stall) =
                                clock.after_task(std::time::Duration::from_secs_f64(end - start))
                            {
                                // duty-cycle slowdown: stall in proportion
                                // to the task just run, like the sim's
                                // noise model stretches compute
                                let s0 = t0.elapsed().as_secs_f64();
                                std::thread::sleep(stall);
                                spans.push(TaskSpan {
                                    core: me,
                                    start: s0,
                                    end: t0.elapsed().as_secs_f64(),
                                    kind: SpanKind::Noise,
                                });
                            }
                        }
                        None => {
                            idle_spins += 1;
                            if idle_spins > 64 {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
                // a drained DAG: copy this worker's column blocks out
                // (a lost worker left early; its share is unloaded
                // after the join)
                let unload = !stats.lost && shared.item.done.load(Ordering::Acquire) == total;
                if unload {
                    let perm = perm.get_or_init(|| shared.item.perm());
                    // SAFETY: every worker unloads a disjoint column set
                    unsafe { shared.item.unload_part(perm, out, me, threads) };
                }
                (spans, stats, unload)
            }));
        }
        for (me, h) in handles.into_iter().enumerate() {
            let (spans, stats, unload) = h.join().expect("worker panicked");
            for span in spans {
                timeline.push(span);
            }
            thread_stats[me] = stats;
            unloaded[me] = unload;
        }
    });

    if let Some(f) = &shared.fault {
        if let Some(e) = f.fail.lock().take() {
            return Err(e);
        }
        // attribute rescues to the worker whose static backlog was
        // republished (counted both by its own dying drain and by other
        // workers' rerouted pushes)
        for (w, stat) in thread_stats.iter_mut().enumerate() {
            stat.rescued = f.rescued[w].load(Ordering::Acquire);
        }
    }

    let perm = perm.into_inner().unwrap_or_else(|| shared.item.perm());
    for me in (0..threads).filter(|&w| !unloaded[w]) {
        // SAFETY: the workers have joined; this thread is the only writer
        unsafe { shared.item.unload_part(&perm, &out, me, threads) };
    }
    let factorization = Factorization {
        lu,
        perm,
        singular_at: shared.item.singular_at(),
    };
    Ok((factorization, timeline, thread_stats))
}

/// Run `factor_tiled` on `a` under the config's layout — the layout
/// dispatch shared by every kernel set's solo entry point.
fn factor_report_for_graph(
    a: &DenseMatrix,
    cfg: &CaluConfig,
    g: &Arc<TaskGraph>,
    grid: ProcessGrid,
) -> Result<Factored, CaluError> {
    match cfg.layout {
        Layout::ColumnMajor => factor_tiled::<CmTiles>(a, g, grid, cfg),
        Layout::BlockCyclic => factor_tiled::<BclMatrix>(a, g, grid, cfg),
        Layout::TwoLevelBlock => factor_tiled::<TlbMatrix>(a, g, grid, cfg),
    }
}

/// Factor `a` with CALU and return the factorization, the per-thread
/// execution trace, and the per-thread queue-source accounting — the
/// full report the `calu` facade's `ThreadedBackend` builds on.
pub fn calu_factor_report(
    a: &DenseMatrix,
    cfg: &CaluConfig,
) -> Result<(Factorization, Timeline, Vec<ThreadStats>), CaluError> {
    let grid = cfg.validate()?;
    if a.rows() == 0 || a.cols() == 0 {
        return Err(CaluError::EmptyMatrix);
    }
    let leaf_stride = cfg.leaf_stride.unwrap_or_else(|| grid.pr());
    let g = Arc::new(TaskGraph::build_calu(
        a.rows(),
        a.cols(),
        cfg.b,
        leaf_stride,
    ));
    factor_report_for_graph(a, cfg, &g, grid)
}

/// Factor the symmetric positive-definite `a` as `A = L·Lᵀ` with the
/// tiled Cholesky kernel set on the same hybrid static/dynamic executor
/// as CALU — identical queues, steal tiers and scratch arenas, different
/// task bodies ([`KernelSet::Cholesky`]). Only the lower triangle of `a`
/// is read; on return the factorization's `lu` holds `L` in its lower
/// triangle (non-unit diagonal) with `a`'s untouched strictly-upper part
/// above it, the permutation is the identity, and `singular_at` flags
/// the first column whose pivot was not positive (the input was not
/// numerically SPD). Use [`Factorization::cholesky_residual`] to verify.
pub fn cholesky_factor_report(
    a: &DenseMatrix,
    cfg: &CaluConfig,
) -> Result<(Factorization, Timeline, Vec<ThreadStats>), CaluError> {
    let grid = cfg.validate()?;
    if a.rows() == 0 || a.cols() == 0 {
        return Err(CaluError::EmptyMatrix);
    }
    let g = Arc::new(KernelSet::Cholesky.build_graph(a.rows(), a.cols(), cfg.b, 1)?);
    // no pivoting: perm is the identity and the unload swaps nothing
    factor_report_for_graph(a, cfg, &g, grid)
}

/// [`cholesky_factor_report`] returning only the factorization.
pub fn cholesky_factor(a: &DenseMatrix, cfg: &CaluConfig) -> Result<Factorization, CaluError> {
    cholesky_factor_report(a, cfg).map(|(f, _, _)| f)
}

/// Factor `a` with CALU and return the factorization plus the per-thread
/// execution trace.
pub fn calu_factor_traced(
    a: &DenseMatrix,
    cfg: &CaluConfig,
) -> Result<(Factorization, Timeline), CaluError> {
    calu_factor_report(a, cfg).map(|(f, tl, _)| (f, tl))
}

/// Factor `a` with CALU: tournament pivoting + hybrid static/dynamic
/// scheduling (Algorithm 1).
pub fn calu_factor(a: &DenseMatrix, cfg: &CaluConfig) -> Result<Factorization, CaluError> {
    calu_factor_report(a, cfg).map(|(f, _, _)| f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::simple::calu_simple;
    use calu_matrix::gen;

    fn check(a: &DenseMatrix, cfg: &CaluConfig, tol: f64) {
        let f = calu_factor(a, cfg).expect("factor");
        assert!(f.is_nonsingular(), "unexpected singularity");
        let r = f.residual(a);
        assert!(r < tol, "residual {r} with {cfg:?}");
    }

    #[test]
    fn single_thread_matches_reference() {
        let a = gen::uniform(48, 48, 1);
        let cfg = CaluConfig::new(8).with_threads(1);
        let f = calu_factor(&a, &cfg).unwrap();
        let reference = calu_simple(&a, 8, 6); // 6 tiles = 6 leaf chunks? stride=pr=1
                                               // same pivot strategy modulo chunking; both must factor correctly
        assert!(f.residual(&a) < 1e-12);
        assert!(reference.residual(&a) < 1e-12);
    }

    #[test]
    fn multithreaded_all_layouts() {
        let a = gen::uniform(64, 64, 2);
        for layout in [
            Layout::BlockCyclic,
            Layout::TwoLevelBlock,
            Layout::ColumnMajor,
        ] {
            let cfg = CaluConfig::new(16).with_threads(4).with_layout(layout);
            check(&a, &cfg, 1e-12);
        }
    }

    #[test]
    fn dratio_sweep_same_answer() {
        let a = gen::uniform(60, 60, 3);
        let rhs = gen::uniform(60, 1, 4);
        let mut solutions = Vec::new();
        for dratio in [0.0, 0.1, 0.5, 1.0] {
            let cfg = CaluConfig::new(10).with_threads(3).with_dratio(dratio);
            let f = calu_factor(&a, &cfg).unwrap();
            assert!(f.residual(&a) < 1e-12, "dratio {dratio}");
            solutions.push(f.solve(&rhs));
        }
        for s in &solutions[1..] {
            assert!(
                s.approx_eq(&solutions[0], 1e-9),
                "schedule must not change math"
            );
        }
    }

    #[test]
    fn threads_do_not_change_pivots() {
        // determinism: pivot choice depends only on the matrix & grid,
        // not on timing
        let a = gen::uniform(80, 80, 5);
        let f1 = calu_factor(&a, &CaluConfig::new(16).with_threads(4)).unwrap();
        let f2 = calu_factor(&a, &CaluConfig::new(16).with_threads(4)).unwrap();
        assert_eq!(f1.perm.pivots(), f2.perm.pivots());
        assert!(f1.lu.approx_eq(&f2.lu, 0.0), "bitwise deterministic");
    }

    #[test]
    fn tall_matrix() {
        let a = gen::uniform(96, 32, 6);
        let cfg = CaluConfig::new(16).with_threads(4);
        check(&a, &cfg, 1e-12);
    }

    #[test]
    fn ragged_tiles() {
        let a = gen::uniform(50, 50, 7);
        let cfg = CaluConfig::new(16).with_threads(2);
        check(&a, &cfg, 1e-12);
    }

    #[test]
    fn trace_is_complete() {
        let a = gen::uniform(64, 64, 8);
        let cfg = CaluConfig::new(16).with_threads(4);
        let (f, tl) = calu_factor_traced(&a, &cfg).unwrap();
        assert!(f.residual(&a) < 1e-12);
        assert_eq!(tl.cores(), 4);
        let g = TaskGraph::build_calu(64, 64, 16, 2);
        assert_eq!(tl.spans().len(), g.len(), "one span per task");
    }

    #[test]
    fn solve_through_threaded_factorization() {
        let a = gen::uniform(64, 64, 9);
        let x_true = gen::uniform(64, 2, 10);
        let rhs = calu_matrix::ops::matmul(&a, &x_true);
        let f = calu_factor(&a, &CaluConfig::new(8).with_threads(4)).unwrap();
        assert!(f.solve(&rhs).approx_eq(&x_true, 1e-7));
    }

    #[test]
    fn zero_matrix_flagged() {
        let z = DenseMatrix::zeros(16, 16);
        let f = calu_factor(&z, &CaluConfig::new(4).with_threads(2)).unwrap();
        assert!(!f.is_nonsingular());
    }

    #[test]
    fn rejects_bad_config() {
        let a = gen::uniform(8, 8, 11);
        assert!(calu_factor(&a, &CaluConfig::new(0)).is_err());
        assert!(calu_factor(&a, &CaluConfig::new(4).with_threads(0)).is_err());
        for queue in [QueueDiscipline::sharded(), QueueDiscipline::lock_free()] {
            assert!(
                calu_factor(&a, &CaluConfig::new(4).with_dratio(0.0).with_queue(queue)).is_err(),
                "{queue} discipline without a dynamic section is a config error"
            );
        }
    }

    #[test]
    fn sharded_queue_all_layouts() {
        let a = gen::uniform(64, 64, 12);
        for layout in [
            Layout::BlockCyclic,
            Layout::TwoLevelBlock,
            Layout::ColumnMajor,
        ] {
            let cfg = CaluConfig::new(16)
                .with_threads(4)
                .with_dratio(0.5)
                .with_layout(layout)
                .with_queue(QueueDiscipline::sharded());
            check(&a, &cfg, 1e-12);
        }
    }

    #[test]
    fn queue_discipline_does_not_change_the_math() {
        // the schedule (and who steals what) must not affect a single
        // bit of the factors: writes to each tile are totally ordered by
        // the DAG's exclusive-writer discipline
        let a = gen::uniform(80, 80, 13);
        let base = CaluConfig::new(16).with_threads(4).with_dratio(0.5);
        let sharded = base.clone().with_queue(QueueDiscipline::sharded());
        let f1 = calu_factor(&a, &base).unwrap();
        let f2 = calu_factor(&a, &sharded).unwrap();
        assert_eq!(f1.perm.pivots(), f2.perm.pivots());
        assert!(f1.lu.approx_eq(&f2.lu, 0.0), "bitwise identical factors");
    }

    #[test]
    fn global_discipline_never_steals() {
        let a = gen::uniform(64, 64, 14);
        let cfg = CaluConfig::new(16).with_threads(4).with_dratio(0.5);
        let (_, _, stats) = calu_factor_report(&a, &cfg).unwrap();
        for s in &stats {
            assert_eq!(s.steal_pops, 0, "no steal path under Global");
            assert_eq!(s.failed_steals, 0, "no steal probes under Global");
        }
    }

    #[test]
    fn lockfree_queue_all_layouts() {
        let a = gen::uniform(64, 64, 16);
        for layout in [
            Layout::BlockCyclic,
            Layout::TwoLevelBlock,
            Layout::ColumnMajor,
        ] {
            let cfg = CaluConfig::new(16)
                .with_threads(4)
                .with_dratio(0.5)
                .with_layout(layout)
                .with_queue(QueueDiscipline::lock_free());
            check(&a, &cfg, 1e-12);
        }
    }

    #[test]
    fn lockfree_discipline_does_not_change_the_math() {
        let a = gen::uniform(80, 80, 13);
        let base = CaluConfig::new(16).with_threads(4).with_dratio(0.5);
        let lockfree = base.clone().with_queue(QueueDiscipline::lock_free());
        let f1 = calu_factor(&a, &base).unwrap();
        let f2 = calu_factor(&a, &lockfree).unwrap();
        assert_eq!(f1.perm.pivots(), f2.perm.pivots());
        assert!(f1.lu.approx_eq(&f2.lu, 0.0), "bitwise identical factors");
    }

    #[test]
    fn lockfree_stats_attribute_every_task_once() {
        let a = gen::uniform(96, 96, 17);
        let cfg = CaluConfig::new(16)
            .with_threads(4)
            .with_dratio(1.0)
            .with_queue(QueueDiscipline::LockFree { seed: 11 });
        let (f, tl, stats) = calu_factor_report(&a, &cfg).unwrap();
        assert!(f.residual(&a) < 1e-12);
        let total: u64 = stats
            .iter()
            .map(|s| s.local_pops + s.global_pops + s.steal_pops)
            .sum();
        assert_eq!(total as usize, tl.spans().len(), "one pop per span");
        for s in &stats {
            assert!(
                s.remote_steal_pops <= s.steal_pops,
                "remote steals are a subset of steals"
            );
        }
    }

    #[test]
    fn pinned_workers_factor_identically() {
        // pinning moves threads, never data: same bits with and without
        let a = gen::uniform(64, 64, 18);
        let base = CaluConfig::new(16)
            .with_threads(4)
            .with_dratio(0.5)
            .with_queue(QueueDiscipline::lock_free());
        let pinned = base.clone().with_pinning(true);
        let f1 = calu_factor(&a, &base).unwrap();
        let f2 = calu_factor(&a, &pinned).unwrap();
        assert!(f1.residual(&a) < 1e-12 && f2.residual(&a) < 1e-12);
        assert_eq!(f1.perm.pivots(), f2.perm.pivots());
        assert!(f1.lu.approx_eq(&f2.lu, 0.0));
    }

    #[test]
    fn steal_sweep_counts_whole_sweeps_not_victims() {
        // the contention-thermometer regression: an empty sweep over
        // many victims is ONE failure, so failure_rate stays comparable
        // between the flat (p − 1 probes) and tiered victim orders
        let mut failed = 0u64;
        let all_empty = steal_sweep([0usize, 1, 2].into_iter(), |_| None::<TaskId>, &mut failed);
        assert!(all_empty.is_none());
        assert_eq!(failed, 1, "three empty victims, one failed sweep");

        // a sweep that succeeds late counts no failure at all
        let hit = steal_sweep(
            [0usize, 1, 2].into_iter(),
            |&v| (v == 2).then_some(TaskId(7)),
            &mut failed,
        );
        assert_eq!(hit, Some((TaskId(7), 2)));
        assert_eq!(failed, 1, "successful sweep adds no failure");

        // pinned ratio: 1 steal + 1 failed sweep = 50% failure rate,
        // identical whether the sweep visited 3 victims or 30
        let mut failed_wide = 0u64;
        steal_sweep(0..30usize, |_| None::<TaskId>, &mut failed_wide);
        assert_eq!(failed_wide, 1);
        let rate = failed as f64 / (1 + failed) as f64;
        assert!((rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cholesky_factors_spd_on_all_layouts() {
        let a = gen::spd_uniform(64, 21);
        for layout in [
            Layout::ColumnMajor,
            Layout::BlockCyclic,
            Layout::TwoLevelBlock,
        ] {
            let cfg = CaluConfig::new(16).with_threads(4).with_layout(layout);
            let f = cholesky_factor(&a, &cfg).expect("factor");
            assert!(f.is_nonsingular(), "{layout:?}");
            assert!(f.perm.pivots().is_empty(), "Cholesky never pivots");
            let r = f.cholesky_residual(&a);
            assert!(r < 1e-13, "residual {r} on {layout:?}");
        }
    }

    #[test]
    fn cholesky_matches_sequential_dpotrf() {
        // the tiled factor agrees with the dense reference kernel (to
        // roundoff: summation orders differ between tilings)
        let a = gen::spd_uniform(48, 22);
        let mut reference = a.clone();
        let ld = reference.ld();
        assert!(calu_kernels::dpotrf_unblocked(48, reference.as_mut_slice(), ld).is_none());
        let f = cholesky_factor(&a, &CaluConfig::new(16).with_threads(3)).unwrap();
        for i in 0..48 {
            for j in 0..=i {
                let (x, y) = (f.lu.get(i, j), reference.get(i, j));
                assert!((x - y).abs() < 1e-11, "({i},{j}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn cholesky_bitwise_identical_across_disciplines_and_threads() {
        let a = gen::spd_uniform(80, 23);
        let base = CaluConfig::new(16).with_threads(4).with_dratio(0.5);
        let f0 = cholesky_factor(&a, &base).unwrap();
        for queue in [QueueDiscipline::sharded(), QueueDiscipline::lock_free()] {
            let f = cholesky_factor(&a, &base.clone().with_queue(queue)).unwrap();
            assert!(f.lu.approx_eq(&f0.lu, 0.0), "bitwise across disciplines");
        }
        for threads in [1, 2, 3] {
            let f = cholesky_factor(&a, &base.clone().with_threads(threads)).unwrap();
            assert!(
                f.lu.approx_eq(&f0.lu, 0.0),
                "bitwise across {threads} threads"
            );
        }
    }

    #[test]
    fn cholesky_flags_non_spd_input() {
        // an indefinite symmetric matrix must come back flagged, not
        // panic or hang
        let mut a = gen::spd_uniform(32, 24);
        a.set(10, 10, -5.0);
        let f = cholesky_factor(&a, &CaluConfig::new(8).with_threads(2)).unwrap();
        assert!(!f.is_nonsingular());
        assert!(
            f.singular_at.unwrap() <= 10,
            "flag at or before the bad pivot"
        );
    }

    #[test]
    fn cholesky_rejects_rectangular_input() {
        let a = gen::uniform(32, 16, 25);
        let err = cholesky_factor(&a, &CaluConfig::new(8).with_threads(2)).unwrap_err();
        assert!(err.to_string().contains("square"), "{err}");
    }

    #[test]
    fn cholesky_ragged_tiles() {
        let a = gen::spd_uniform(50, 26);
        let f = cholesky_factor(&a, &CaluConfig::new(16).with_threads(2)).unwrap();
        assert!(f.cholesky_residual(&a) < 1e-13);
    }

    #[test]
    fn lost_worker_is_rescued_bitwise() {
        // the headline rescue invariant: kill a worker mid-run and the
        // survivors produce the exact same bits the healthy pool does
        let a = gen::uniform(96, 96, 31);
        let base = CaluConfig::new(16).with_threads(4).with_dratio(0.3);
        let f0 = calu_factor(&a, &base).unwrap();
        let plan = FaultPlan::off().with_seed(5).lose_worker(2, 3);
        let cfg = base.clone().with_fault(plan);
        let (f, _, stats) = calu_factor_report(&a, &cfg).unwrap();
        assert_eq!(f0.perm.pivots(), f.perm.pivots());
        assert!(f0.lu.approx_eq(&f.lu, 0.0), "bitwise despite the loss");
        assert!(stats[2].lost, "worker 2 recorded as lost");
        assert!(
            stats.iter().map(|s| s.rescued).sum::<u64>() > 0,
            "the dead owner's static backlog was republished"
        );
    }

    #[test]
    fn slow_worker_degrades_but_never_changes_the_bits() {
        let a = gen::uniform(80, 80, 32);
        let base = CaluConfig::new(16)
            .with_threads(4)
            .with_dratio(0.5)
            .with_queue(QueueDiscipline::sharded());
        let f0 = calu_factor(&a, &base).unwrap();
        let cfg = base
            .clone()
            .with_fault(FaultPlan::off().with_seed(9).slow_worker(1, 2.0));
        let (f, _, stats) = calu_factor_report(&a, &cfg).unwrap();
        assert_eq!(f0.perm.pivots(), f.perm.pivots());
        assert!(f0.lu.approx_eq(&f.lu, 0.0));
        assert!(!stats[1].lost, "slow is degraded, not dead");
    }

    #[test]
    fn injected_panic_fails_typed_not_process() {
        let a = gen::uniform(64, 64, 33);
        let cfg = CaluConfig::new(16)
            .with_threads(3)
            .with_fault(FaultPlan::off().panic_worker(0, 1));
        match calu_factor(&a, &cfg) {
            Err(CaluError::TaskPanic(msg)) => {
                assert!(msg.contains("injected"), "{msg}")
            }
            other => panic!("expected TaskPanic, got {other:?}"),
        }
    }

    #[test]
    fn stalled_worker_recovers_and_matches() {
        let a = gen::spd_uniform(64, 34);
        let base = CaluConfig::new(16).with_threads(4).with_dratio(0.5);
        let f0 = cholesky_factor(&a, &base).unwrap();
        let cfg = base
            .clone()
            .with_fault(FaultPlan::off().stall_worker(3, 2, 20));
        let f = cholesky_factor(&a, &cfg).unwrap();
        assert!(f0.lu.approx_eq(&f.lu, 0.0));
    }

    #[test]
    fn sharded_stats_attribute_every_task_once() {
        let a = gen::uniform(96, 96, 15);
        let cfg = CaluConfig::new(16)
            .with_threads(4)
            .with_dratio(1.0)
            .with_queue(QueueDiscipline::Sharded { seed: 9 });
        let (f, tl, stats) = calu_factor_report(&a, &cfg).unwrap();
        assert!(f.residual(&a) < 1e-12);
        let total: u64 = stats
            .iter()
            .map(|s| s.local_pops + s.global_pops + s.steal_pops)
            .sum();
        assert_eq!(total as usize, tl.spans().len(), "one pop per span");
        assert_eq!(
            stats.iter().map(|s| s.local_pops).sum::<u64>(),
            0,
            "dratio 1.0 leaves nothing in the static queues"
        );
    }
}
