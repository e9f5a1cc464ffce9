//! Per-layer probes: what the traced pass measures below the facade.
//!
//! Executor numbers are read from the `Report`s the facade returns
//! (timelines, `ScheduleMetrics`). The other layers are timed from
//! outside by calling their public functions on the workload's own
//! data: the tile conversion on its input, the DAG builder and a
//! single-threaded policy drain on its plan, and the packed kernels on
//! exactly the tile and leaf-panel shapes its DAG issues.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use calu::dag::{critical_path, PaperKind, TaskGraph, TaskKind};
use calu::kernels::{
    dgemm_packed, dgetrf_recursive_packed, dtrsm_left_lower_unit_packed, dtrsm_right_upper_packed,
    flops, GemmScratch,
};
use calu::matrix::{gen, BclMatrix, DenseMatrix, ProcessGrid};
use calu::sched::{make_policy_with, QueueDiscipline, SchedulerKind};
use calu::trace::{SpanKind, Timeline};
use calu::{Report, ScheduleMetrics};

use crate::stats::median;

/// Repetitions of each standalone probe; the median is kept.
const PROBE_REPS: usize = 3;

/// Median wall of `reps` calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&v)
}

/// `BclMatrix::from_dense` on `a` (the solver's default layout).
pub fn to_tiles_secs(a: &DenseMatrix, b: usize, grid: ProcessGrid) -> f64 {
    median_secs(PROBE_REPS, || {
        black_box(BclMatrix::from_dense(black_box(a), b, grid));
    })
}

/// One single-threaded drain of `g` through the policy the executor
/// builds (`make_policy_with`), cycling over `grid.size()` cores.
pub fn drain_secs(
    g: &TaskGraph,
    kind: SchedulerKind,
    queue: QueueDiscipline,
    grid: ProcessGrid,
) -> f64 {
    median_secs(PROBE_REPS, || {
        let cores = grid.size();
        let mut p = make_policy_with(kind, queue, g, grid);
        let mut deps: Vec<u32> = g.ids().map(|t| g.dep_count(t)).collect();
        for t in g.initial_ready() {
            p.on_ready(t, None);
        }
        let mut done = 0;
        while done < g.len() {
            for core in 0..cores {
                if let Some(popped) = p.pop(core) {
                    done += 1;
                    for &s in g.successors(popped.task) {
                        deps[s.idx()] -= 1;
                        if deps[s.idx()] == 0 {
                            p.on_ready(s, Some(core));
                        }
                    }
                }
            }
        }
        black_box(done);
    })
}

/// Index of a span kind in `Timeline::time_by_kind` order.
fn kind_index(k: SpanKind) -> usize {
    match k {
        SpanKind::Panel => 0,
        SpanKind::LFactor => 1,
        SpanKind::UFactor => 2,
        SpanKind::Update => 3,
        SpanKind::Noise => 4,
        SpanKind::Overhead => 5,
    }
}

/// The span kind an LU task's body is recorded under.
fn task_kind_index(t: TaskKind) -> usize {
    match t.paper_kind() {
        PaperKind::P => 0,
        PaperKind::L => 1,
        PaperKind::U => 2,
        PaperKind::S => 3,
    }
}

/// What one or more executor timelines add up to.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Busy seconds per span kind (`Timeline::time_by_kind`).
    pub busy: [f64; 6],
    /// Spans per kind.
    pub spans: [usize; 6],
    /// Sum of makespans.
    pub makespan: f64,
    /// Core-seconds available: cores used × makespan, summed.
    pub capacity: f64,
}

impl ExecStats {
    /// The stats of one traced report (zero when it has no timeline).
    pub fn of(r: &Report) -> ExecStats {
        r.timeline
            .as_ref()
            .map(|tl| ExecStats::of_timeline(tl, r.makespan, r.threads))
            .unwrap_or_default()
    }

    /// Capacity counts the cores the timeline used: a co-scheduled item
    /// runs whole on one worker of the pool.
    fn of_timeline(tl: &Timeline, makespan: f64, threads: usize) -> ExecStats {
        let mut s = ExecStats {
            makespan,
            ..Default::default()
        };
        for (k, t) in tl.time_by_kind() {
            s.busy[kind_index(k)] = t;
        }
        let mut used = vec![false; threads.max(tl.cores())];
        for span in tl.spans() {
            s.spans[kind_index(span.kind)] += 1;
            if let Some(u) = used.get_mut(span.core) {
                *u = true;
            }
        }
        s.capacity = used.iter().filter(|&&u| u).count().max(1) as f64 * makespan;
        s
    }

    /// Accumulate another item's stats.
    pub fn add(&mut self, o: &ExecStats) {
        for i in 0..6 {
            self.busy[i] += o.busy[i];
            self.spans[i] += o.spans[i];
        }
        self.makespan += o.makespan;
        self.capacity += o.capacity;
    }

    /// Trailing-update busy seconds.
    pub fn update_busy(&self) -> f64 {
        self.busy[3]
    }

    /// Panel busy seconds.
    pub fn panel_busy(&self) -> f64 {
        self.busy[0]
    }

    /// L and U tile busy seconds.
    pub fn lu_busy(&self) -> f64 {
        self.busy[1] + self.busy[2]
    }

    /// Useful-work seconds (P, L, U and S spans).
    pub fn work(&self) -> f64 {
        self.busy[..4].iter().sum()
    }

    /// Mean span seconds per kind (zero for kinds never seen).
    pub fn mean_span(&self) -> [f64; 6] {
        std::array::from_fn(|i| {
            if self.spans[i] == 0 {
                0.0
            } else {
                self.busy[i] / self.spans[i] as f64
            }
        })
    }
}

/// Longest path through an LU DAG, each task weighted by the traced
/// mean span time of its kind: the makespan's lower bound.
pub fn critical_path_secs(g: &TaskGraph, mean_span: &[f64; 6]) -> f64 {
    critical_path(g, |_| true, |t| mean_span[task_kind_index(g.kind(t))]).length
}

/// Nominal flops of an LU DAG's trailing updates.
pub fn update_flops(g: &TaskGraph) -> f64 {
    g.ids()
        .map(|t| match g.kind(t) {
            TaskKind::Update { k, i, j } => flops::gemm(
                g.tile_row_count(i as usize),
                g.tile_col_count(j as usize),
                g.tile_col_count(k as usize),
            ),
            _ => 0.0,
        })
        .sum()
}

/// Schedule counters summed over several reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Pops from dynamic queues (global, own shard or stolen).
    pub dynamic: u64,
    /// All pops.
    pub pops: u64,
    /// Successful steals.
    pub steals: u64,
    /// Steal sweeps that found nothing.
    pub failed_steals: u64,
}

impl SchedStats {
    /// Counters of one report's schedule.
    pub fn of(s: &ScheduleMetrics) -> SchedStats {
        let q = s.queue_sources();
        let c = s.contention();
        SchedStats {
            dynamic: q.global + q.stolen,
            pops: q.local + q.global + q.stolen,
            steals: c.steals,
            failed_steals: c.failed_steals,
        }
    }

    /// Accumulate.
    pub fn add(&mut self, o: &SchedStats) {
        self.dynamic += o.dynamic;
        self.pops += o.pops;
        self.steals += o.steals;
        self.failed_steals += o.failed_steals;
    }

    /// Share of pops served by dynamic queues.
    pub fn dynamic_frac(&self) -> f64 {
        ratio(self.dynamic as f64, self.pops as f64)
    }

    /// Failed steal sweeps per steal attempt.
    pub fn failed_steal_rate(&self) -> f64 {
        ratio(
            self.failed_steals as f64,
            (self.steals + self.failed_steals) as f64,
        )
    }
}

/// `a / b`, zero when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One kernel call shape issued by an LU DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// Trailing update `C(m×n) −= L(m×k)·U(k×n)`.
    Gemm(usize, usize, usize),
    /// L tile: `B(m×n) ← B·U⁻¹`, `U` upper `n×n`.
    TrsmRight(usize, usize),
    /// U tile: `B(m×n) ← L⁻¹·B`, `L` unit lower `m×m`.
    TrsmLeft(usize, usize),
    /// TSLU leaf or match: recursive GEPP of an `m×n` panel block.
    Panel(usize, usize),
}

impl Shape {
    fn flops(self) -> f64 {
        match self {
            Shape::Gemm(m, n, k) => flops::gemm(m, n, k),
            Shape::TrsmRight(m, n) => flops::trsm(n, m),
            Shape::TrsmLeft(m, n) => flops::trsm(m, n),
            Shape::Panel(m, n) => flops::getrf(m, n),
        }
    }
}

/// Count the kernel shapes an LU DAG issues into `out`.
pub fn count_shapes(g: &TaskGraph, out: &mut BTreeMap<Shape, usize>) {
    for t in g.ids() {
        let shape = match g.kind(t) {
            TaskKind::Update { k, i, j } => Shape::Gemm(
                g.tile_row_count(i as usize),
                g.tile_col_count(j as usize),
                g.tile_col_count(k as usize),
            ),
            TaskKind::ComputeL { k, i } => {
                Shape::TrsmRight(g.tile_row_count(i as usize), g.tile_col_count(k as usize))
            }
            TaskKind::ComputeU { k, j } => {
                Shape::TrsmLeft(g.tile_row_count(k as usize), g.tile_col_count(j as usize))
            }
            TaskKind::PanelLeaf { k, i } => {
                let m = g
                    .leaf_rows(k as usize, i as usize)
                    .map(|r| g.tile_row_count(r))
                    .sum();
                Shape::Panel(m, g.tile_col_count(k as usize))
            }
            TaskKind::PanelCombine { k, .. } => {
                let w = g.tile_col_count(k as usize);
                Shape::Panel(2 * w, w)
            }
            TaskKind::PanelFinish { .. } => continue,
        };
        *out.entry(shape).or_default() += 1;
    }
}

/// Standalone Gflop/s of the packed kernels, weighted by how often the
/// DAG issues each shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelRates {
    /// `dgemm_packed` on the update shapes.
    pub gemm: f64,
    /// `dtrsm_right_upper_packed` and `dtrsm_left_lower_unit_packed` on
    /// the L and U tile shapes.
    pub trsm: f64,
    /// `dgetrf_recursive_packed` on the leaf-panel shapes.
    pub panel: f64,
}

/// Least timed seconds per shape, and the repetition bounds.
const SHAPE_BUDGET_SECS: f64 = 0.003;
const SHAPE_MIN_REPS: usize = 5;
const SHAPE_MAX_REPS: usize = 400;

/// Time every shape standalone and fold the rates per kernel family.
pub fn kernel_rates(shapes: &BTreeMap<Shape, usize>) -> KernelRates {
    let mut scratch = GemmScratch::new();
    // [flops, seconds] per family: gemm, trsm, panel
    let mut acc = [[0.0f64; 2]; 3];
    for (&shape, &count) in shapes {
        let secs = time_shape(shape, &mut scratch);
        let fam = match shape {
            Shape::Gemm(..) => 0,
            Shape::TrsmRight(..) | Shape::TrsmLeft(..) => 1,
            Shape::Panel(..) => 2,
        };
        acc[fam][0] += count as f64 * shape.flops();
        acc[fam][1] += count as f64 * secs;
    }
    let rate = |f: [f64; 2]| ratio(f[0], f[1]) * 1e-9;
    KernelRates {
        gemm: rate(acc[0]),
        trsm: rate(acc[1]),
        panel: rate(acc[2]),
    }
}

/// Median seconds of one call of `shape`; the output operand is reset
/// from a pristine copy before every (separately timed) call.
fn time_shape(shape: Shape, scratch: &mut GemmScratch) -> f64 {
    let (out_rows, out_cols) = match shape {
        Shape::Gemm(m, n, _)
        | Shape::TrsmRight(m, n)
        | Shape::TrsmLeft(m, n)
        | Shape::Panel(m, n) => (m, n),
    };
    let pristine = gen::uniform(out_rows, out_cols, 11);
    let mut out = pristine.clone();
    // the read-only operand: gemm's L and U, or the triangle
    let (a, b) = match shape {
        Shape::Gemm(m, n, k) => (gen::uniform(m, k, 12), gen::uniform(k, n, 13)),
        Shape::TrsmRight(_, n) => (diag_heavy(n), DenseMatrix::zeros(0, 0)),
        Shape::TrsmLeft(m, _) => (gen::uniform(m, m, 14), DenseMatrix::zeros(0, 0)),
        Shape::Panel(..) => (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0)),
    };
    let mut samples = Vec::new();
    let mut spent = 0.0;
    while samples.len() < SHAPE_MIN_REPS
        || (spent < SHAPE_BUDGET_SECS && samples.len() < SHAPE_MAX_REPS)
    {
        out.as_mut_slice().copy_from_slice(pristine.as_slice());
        let ld = out.ld();
        let t0 = Instant::now();
        match shape {
            Shape::Gemm(m, n, k) => dgemm_packed(
                m,
                n,
                k,
                -1.0,
                a.as_slice(),
                a.ld(),
                b.as_slice(),
                b.ld(),
                1.0,
                out.as_mut_slice(),
                ld,
                scratch,
            ),
            Shape::TrsmRight(m, n) => dtrsm_right_upper_packed(
                m,
                n,
                a.as_slice(),
                a.ld(),
                out.as_mut_slice(),
                ld,
                scratch,
            ),
            Shape::TrsmLeft(m, n) => dtrsm_left_lower_unit_packed(
                m,
                n,
                a.as_slice(),
                a.ld(),
                out.as_mut_slice(),
                ld,
                scratch,
            ),
            Shape::Panel(m, n) => {
                black_box(dgetrf_recursive_packed(
                    m,
                    n,
                    out.as_mut_slice(),
                    ld,
                    scratch,
                ));
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        black_box(out.as_slice());
        samples.push(dt);
        spent += dt;
    }
    median(&samples)
}

/// A well-conditioned upper triangle: uniform entries, `n` on the
/// diagonal.
fn diag_heavy(n: usize) -> DenseMatrix {
    let mut u = gen::uniform(n, n, 15);
    for i in 0..n {
        u.set(i, i, n as f64);
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_cover_every_lu_task_but_the_finish() {
        let g = TaskGraph::build_calu(96, 96, 32, 1);
        let mut shapes = BTreeMap::new();
        count_shapes(&g, &mut shapes);
        let total: usize = shapes.values().sum();
        let finishes = g
            .ids()
            .filter(|&t| matches!(g.kind(t), TaskKind::PanelFinish { .. }))
            .count();
        assert_eq!(total + finishes, g.len());
        assert_eq!(shapes[&Shape::Gemm(32, 32, 32)], 5); // 2² + 1²
        assert_eq!(shapes[&Shape::Panel(96, 32)], 1);
        let flops: f64 = update_flops(&g);
        assert_eq!(flops, 5.0 * flops::gemm(32, 32, 32));
    }

    #[test]
    fn critical_path_weights_tasks_by_their_kind() {
        let g = TaskGraph::build_calu(64, 64, 32, 1);
        // every kind costs one second: the path length is the DAG depth
        let unit = [1.0; 6];
        let depth = calu::dag::critical_path::unit_critical_path(&g).length;
        assert_eq!(critical_path_secs(&g, &unit), depth);
    }

    #[test]
    fn kernel_rates_are_positive_and_finite() {
        let mut shapes = BTreeMap::new();
        count_shapes(&TaskGraph::build_calu(64, 64, 16, 1), &mut shapes);
        let r = kernel_rates(&shapes);
        for v in [r.gemm, r.trsm, r.panel] {
            assert!(v.is_finite() && v > 0.0, "{r:?}");
        }
    }
}
