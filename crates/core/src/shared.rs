//! Shared tile access for the parallel executor, and the tile↔dense
//! boundary every route crosses on the way in and out.
//!
//! All tile storages keep their elements in one contiguous buffer
//! (`calu-matrix`'s [`TileStorage`] contract). The executor needs many
//! threads writing *different* tiles of that buffer concurrently; the
//! task DAG guarantees the tiles are disjoint, and this module funnels
//! the one unavoidable `unsafe` into a single audited wrapper.
//!
//! The boundary is one load/unload pair, split over `(me, workers)` so
//! the solo executor runs it on its own workers and the batch and
//! service routes run it whole with `(0, 1)`:
//!
//! * [`load_part`] copies the dense input into the tiles worker `me`
//!   loads — under BCL and 2l-BL the tiles it owns, so each worker is
//!   the first to touch its own memory (the first-touch placement the
//!   paper's layouts are for);
//! * [`unload_part`] copies column blocks back out and, while each
//!   column is cache-resident, applies the deferred *left swaps* of
//!   Algorithm 1 (line 43): every later panel's row interchanges, in
//!   increasing row order. Swaps on different columns commute, so
//!   column order gives the same bits as applying each panel's swaps
//!   to whole rows, one strided row pair at a time.

use calu_matrix::storage::TileLoc;
use calu_matrix::{
    BclMatrix, CmTiles, DenseMatrix, ProcessGrid, RowPerm, TileStorage, Tiling, TlbMatrix,
};
use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// A raw, writable view of one tile (column-major, leading dimension
/// `ld`).
#[derive(Debug, Clone, Copy)]
pub struct TilePtr {
    /// Pointer to element `(0, 0)` of the tile.
    pub ptr: *mut f64,
    /// Leading dimension.
    pub ld: usize,
    /// Tile rows.
    pub rows: usize,
    /// Tile columns.
    pub cols: usize,
}

impl TilePtr {
    /// Read element `(i, j)`.
    ///
    /// # Safety
    /// The caller must have (shared) access to the tile per the DAG.
    #[inline]
    pub unsafe fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        *self.ptr.add(i + j * self.ld)
    }

    /// Write element `(i, j)`.
    ///
    /// # Safety
    /// The caller must have exclusive access to the tile per the DAG.
    #[inline]
    pub unsafe fn set(&self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        *self.ptr.add(i + j * self.ld) = v;
    }

    /// Column `j` of the tile, writable: its `rows` contiguous elements
    /// and nothing of the neighbouring tiles that share its buffer
    /// columns.
    ///
    /// # Safety
    /// The caller must have exclusive access to the tile, and must not
    /// hold another view of the same column while this one lives.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn col_mut(&self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        std::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.rows)
    }
}

/// Storage wrapper handing out per-tile raw pointers.
///
/// Safety model: tasks of the factorization DAG write disjoint tiles at
/// any instant (enforced by dependence counting), so concurrent
/// [`SharedTiles::tile_ptr`] uses never alias writes. Tiles may share
/// cache lines (CM/BCL interleave tiles within columns of the parent
/// buffer) but never share *elements*.
pub struct SharedTiles<S: TileStorage> {
    inner: UnsafeCell<S>,
}

// SAFETY: access discipline is delegated to the task DAG; see type docs.
unsafe impl<S: TileStorage + Send> Send for SharedTiles<S> {}
unsafe impl<S: TileStorage + Send> Sync for SharedTiles<S> {}

impl<S: TileStorage> SharedTiles<S> {
    /// Wrap a storage for shared tile access.
    pub fn new(storage: S) -> Self {
        Self {
            inner: UnsafeCell::new(storage),
        }
    }

    /// Unwrap the storage after all workers have finished.
    pub fn into_inner(self) -> S {
        self.inner.into_inner()
    }

    /// Shared view of the storage without consuming the wrapper — for
    /// callers that hold the wrapper behind an `Arc` (the service pool)
    /// and extract results once the DAG has drained.
    ///
    /// # Safety
    /// All tasks must have completed: no thread may hold (or later
    /// create) a writable tile view while the returned borrow lives.
    pub unsafe fn inner(&self) -> &S {
        &*self.inner.get()
    }

    /// Tile location metadata (no data access).
    pub fn loc(&self, ti: usize, tj: usize) -> TileLoc {
        // SAFETY: tile_loc reads immutable geometry only.
        unsafe { (*self.inner.get()).tile_loc(ti, tj) }
    }

    /// The storage's tiling and ownership grid (no data access).
    fn geometry(&self) -> (Tiling, ProcessGrid) {
        // SAFETY: tiling and grid are immutable geometry.
        let s = unsafe { &*self.inner.get() };
        (s.tiling(), s.grid())
    }

    /// Raw pointer to tile `(ti, tj)`.
    ///
    /// # Safety
    /// Callers must respect the DAG: no two threads may hold a writable
    /// view of the same tile at the same time, and readers must be
    /// ordered after the writer that produced the data.
    pub unsafe fn tile_ptr(&self, ti: usize, tj: usize) -> TilePtr {
        let loc = self.loc(ti, tj);
        let base = (*self.inner.get()).buffer_mut().as_mut_ptr();
        TilePtr {
            ptr: base.add(loc.offset),
            ld: loc.ld,
            rows: loc.rows,
            cols: loc.cols,
        }
    }
}

/// The paper's three layouts, allocated empty by shape: what every route
/// builds before [`load_part`] fills it. The zero fill is a zeroed
/// allocation, so its pages are first touched by the load, not here.
pub trait TileLayout: TileStorage + Send + Sized {
    /// Zero-filled `m × n` storage in `b × b` tiles distributed over
    /// `grid` (CM ignores the grid).
    fn alloc(m: usize, n: usize, b: usize, grid: ProcessGrid) -> Self;
}

impl TileLayout for CmTiles {
    fn alloc(m: usize, n: usize, b: usize, _grid: ProcessGrid) -> Self {
        CmTiles::zeros(m, n, b)
    }
}

impl TileLayout for BclMatrix {
    fn alloc(m: usize, n: usize, b: usize, grid: ProcessGrid) -> Self {
        BclMatrix::zeros(m, n, b, grid)
    }
}

impl TileLayout for TlbMatrix {
    fn alloc(m: usize, n: usize, b: usize, grid: ProcessGrid) -> Self {
        TlbMatrix::zeros(m, n, b, grid)
    }
}

/// A column-major dense matrix whose columns several threads write at
/// once, each a disjoint set — the output of [`unload_part`].
pub struct SharedDense<'a> {
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    _borrow: PhantomData<&'a mut DenseMatrix>,
}

// SAFETY: `ptr` points into an `f64` buffer exclusively borrowed for
// `'a`, so no one else reads or frees it meanwhile; `rows` and `cols` are
// plain geometry. Writes through `ptr` go only through the unsafe
// `col_mut`, whose callers keep threads on disjoint columns.
unsafe impl Send for SharedDense<'_> {}
unsafe impl Sync for SharedDense<'_> {}

impl<'a> SharedDense<'a> {
    /// Share `m` for column-disjoint writes while the wrapper lives.
    pub fn new(m: &'a mut DenseMatrix) -> Self {
        Self {
            ptr: m.as_mut_slice().as_mut_ptr(),
            rows: m.rows(),
            cols: m.cols(),
            _borrow: PhantomData,
        }
    }

    /// Column `j`, writable.
    ///
    /// # Safety
    /// No other thread may access column `j` while the slice lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn col_mut(&self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "column {j} out of range");
        std::slice::from_raw_parts_mut(self.ptr.add(j * self.rows), self.rows)
    }
}

/// Which of `workers` workers loads tile `(ti, tj)`: its block-cyclic
/// owner when the storage is distributed over exactly `workers` threads
/// (BCL and 2l-BL on the run's grid), else whole tile columns dealt
/// round-robin (CM, whose storage reports a 1×1 grid).
fn loader(grid: ProcessGrid, ti: usize, tj: usize, workers: usize) -> usize {
    if grid.size() == workers {
        grid.owner(ti, tj)
    } else {
        tj % workers
    }
}

/// Copy into `tiles` the tiles of `a` that worker `me` of `workers`
/// loads, one contiguous tile column at a time: the tiles it owns when
/// the storage is distributed over exactly `workers` threads, else the
/// tile columns `me, me + workers, …`. Running it for every `me` in
/// `0..workers` loads the whole matrix.
///
/// # Safety
/// Concurrent callers must pass distinct `me` with the same `workers`,
/// and no other thread may access the storage until they all return.
pub unsafe fn load_part<S: TileStorage>(
    tiles: &SharedTiles<S>,
    a: &DenseMatrix,
    me: usize,
    workers: usize,
) {
    let (t, grid) = tiles.geometry();
    assert_eq!((a.rows(), a.cols()), (t.m, t.n), "load shape mismatch");
    for (ti, tj) in t.tiles() {
        if loader(grid, ti, tj, workers) != me {
            continue;
        }
        let (r0, c0) = (t.row_start(ti), t.col_start(tj));
        let p = tiles.tile_ptr(ti, tj);
        for j in 0..p.cols {
            p.col_mut(j)
                .copy_from_slice(&a.col(c0 + j)[r0..r0 + p.rows]);
        }
    }
}

/// Copy column blocks `me, me + workers, …` of the factored `s` into
/// `out`, applying to each column, while it is cache-resident, the left
/// swaps of every later panel: `piv[r]` for `r` from the end of the
/// column's block to `piv.len()`, in increasing `r`. Running it for
/// every `me` in `0..workers` unloads the whole matrix, with the same
/// bits for any split as `to_dense` followed by the strided per-panel
/// row-swap pass (`apply_left_swaps`, the tests' oracle).
///
/// # Safety
/// Concurrent callers must pass distinct `me` with the same `workers`
/// and the same `out`, and no thread may write `s` meanwhile.
pub unsafe fn unload_part<S: TileStorage>(
    s: &S,
    perm: &RowPerm,
    out: &SharedDense<'_>,
    me: usize,
    workers: usize,
) {
    let t = s.tiling();
    assert_eq!((out.rows, out.cols), (t.m, t.n), "unload shape mismatch");
    assert!(
        perm.is_empty() || perm.offset() == 0,
        "left swaps need the whole factorization's permutation"
    );
    let piv = perm.pivots();
    for tj in (me..t.tile_cols()).step_by(workers) {
        let first = ((tj + 1) * t.b).min(piv.len());
        let later = &piv[first..];
        let col_tiles: Vec<_> = (0..t.tile_rows()).map(|ti| s.tile(ti, tj)).collect();
        for j in 0..t.tile_col_count(tj) {
            let col = out.col_mut(t.col_start(tj) + j);
            for (ti, tile) in col_tiles.iter().enumerate() {
                let r0 = t.row_start(ti);
                col[r0..r0 + tile.rows].copy_from_slice(tile.col(j));
            }
            for (k, &p) in later.iter().enumerate() {
                col.swap(first + k, p);
            }
        }
    }
}

/// A fresh storage of layout `S` holding `a`: [`load_part`] whole, on
/// the calling thread.
pub fn load<S: TileLayout>(a: &DenseMatrix, b: usize, grid: ProcessGrid) -> S {
    let tiles = SharedTiles::new(S::alloc(a.rows(), a.cols(), b, grid));
    // SAFETY: the storage is ours alone; `(0, 1)` is the whole split.
    unsafe { load_part(&tiles, a, 0, 1) };
    tiles.into_inner()
}

/// The factored `s` as a dense matrix with the left swaps of `perm`
/// applied: [`unload_part`] whole, on the calling thread.
pub fn unload<S: TileStorage>(s: &S, perm: &RowPerm) -> DenseMatrix {
    let t = s.tiling();
    let mut lu = DenseMatrix::zeros(t.m, t.n);
    let out = SharedDense::new(&mut lu);
    // SAFETY: `out` is ours alone and `s` is borrowed shared, so nothing
    // writes it; `(0, 1)` is the whole split.
    unsafe { unload_part(s, perm, &out, 0, 1) };
    lu
}

/// The left swaps panel by panel (Algorithm 1, line 43): each panel's
/// permutation applied to the L columns strictly left of it, one
/// strided row pair at a time — the test oracle for [`unload_part`].
#[cfg(test)]
pub(crate) fn apply_left_swaps(
    lu: &mut DenseMatrix,
    g: &calu_dag::TaskGraph,
    perms: &RowPerm,
    b: usize,
) {
    // perms is the concatenation of panel perms; walk it panel by panel
    let piv = perms.pivots();
    for k in 0..g.num_panels() {
        let base = k * b;
        let w = g.tile_col_count(k);
        let left_cols = base.min(lu.cols());
        for t in 0..w.min(piv.len().saturating_sub(base)) {
            let r1 = base + t;
            let r2 = piv[base + t];
            if r1 != r2 {
                lu.swap_rows_in_cols(r1, r2, 0, left_cols);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{calu_factor, CaluConfig};
    use calu_dag::TaskGraph;
    use calu_matrix::{gen, Layout};

    /// Square, tall and wide shapes, ragged in both dimensions (b ∤ m,
    /// b ∤ n) next to exact fits.
    const SHAPES: [(usize, usize, usize); 6] = [
        (203, 157, 16),
        (157, 203, 16),
        (96, 96, 16),
        (250, 61, 32),
        (61, 250, 32),
        (100, 100, 7),
    ];
    const GRIDS: [(usize, usize); 4] = [(1, 1), (1, 2), (2, 1), (2, 2)];

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// `a` loaded into `layout` over `grid`, split over `workers` threads.
    fn load_split<S: TileLayout + Sync>(
        a: &DenseMatrix,
        b: usize,
        grid: ProcessGrid,
        workers: usize,
    ) -> S {
        let tiles = SharedTiles::new(S::alloc(a.rows(), a.cols(), b, grid));
        std::thread::scope(|sc| {
            for me in 0..workers {
                let tiles = &tiles;
                // SAFETY: distinct `me`, nothing else touches the tiles
                sc.spawn(move || unsafe { load_part(tiles, a, me, workers) });
            }
        });
        tiles.into_inner()
    }

    /// `s` unloaded with `perm`, split over `workers` threads.
    fn unload_split<S: TileStorage + Sync>(s: &S, perm: &RowPerm, workers: usize) -> DenseMatrix {
        let t = s.tiling();
        let mut lu = DenseMatrix::zeros(t.m, t.n);
        let out = SharedDense::new(&mut lu);
        std::thread::scope(|sc| {
            for me in 0..workers {
                let out = &out;
                // SAFETY: distinct `me` and one shared `out`
                sc.spawn(move || unsafe { unload_part(s, perm, out, me, workers) });
            }
        });
        lu
    }

    /// Every worker split of the fused unload gives the bits of the old
    /// `to_dense` + strided left-swap pass.
    fn check_unload<S: TileStorage + Sync>(s: &S, perm: &RowPerm, g: &TaskGraph, what: &str) {
        let mut want = s.to_dense();
        apply_left_swaps(&mut want, g, perm, g.block());
        for workers in 1..=4 {
            let got = unload_split(s, perm, workers);
            assert!(
                bits(&got) == bits(&want),
                "{what}: {workers}-way unload differs from to_dense + left swaps"
            );
        }
    }

    fn check_layouts(a: &DenseMatrix, perm: &RowPerm, g: &TaskGraph, grid: ProcessGrid) {
        let b = g.block();
        for layout in Layout::ALL {
            let what = format!(
                "{}x{} b={b} grid {}x{} {} perm len {}",
                a.rows(),
                a.cols(),
                grid.pr(),
                grid.pc(),
                layout.short_name(),
                perm.len()
            );
            match layout {
                Layout::ColumnMajor => check_unload(&load::<CmTiles>(a, b, grid), perm, g, &what),
                Layout::BlockCyclic => check_unload(&load::<BclMatrix>(a, b, grid), perm, g, &what),
                Layout::TwoLevelBlock => {
                    check_unload(&load::<TlbMatrix>(a, b, grid), perm, g, &what)
                }
            }
        }
    }

    #[test]
    fn boundary_oracle_unload_matches_to_dense_plus_left_swaps() {
        for (seed, &(m, n, b)) in SHAPES.iter().enumerate() {
            for (pr, pc) in GRIDS {
                let grid = ProcessGrid::new(pr, pc).unwrap();
                // a real CALU permutation of this shape and tournament
                // width, applied to tiles holding other data, so a
                // misplaced row or column cannot coincide
                let cfg = CaluConfig::new(b)
                    .with_threads(pr * pc)
                    .with_tslu_leaves(pr);
                let perm = calu_factor(&gen::uniform(m, n, seed as u64), &cfg)
                    .unwrap()
                    .perm;
                assert!(perm.pivots().iter().enumerate().any(|(r, &p)| r != p));
                let g = TaskGraph::build_calu(m, n, b, pr);
                let data = gen::uniform(m, n, 100 + seed as u64);
                check_layouts(&data, &perm, &g, grid);
                // the identity permutation: what every Cholesky item unloads
                check_layouts(&data, &RowPerm::identity(), &g, grid);
            }
        }
    }

    #[test]
    fn boundary_oracle_load_unload_roundtrip() {
        for (seed, &(m, n, b)) in SHAPES.iter().enumerate() {
            let a = gen::uniform(m, n, seed as u64);
            for (pr, pc) in GRIDS {
                let grid = ProcessGrid::new(pr, pc).unwrap();
                for workers in 1..=4 {
                    let id = RowPerm::identity();
                    let back = [
                        unload_split(&load_split::<CmTiles>(&a, b, grid, workers), &id, workers),
                        unload_split(&load_split::<BclMatrix>(&a, b, grid, workers), &id, workers),
                        unload_split(&load_split::<TlbMatrix>(&a, b, grid, workers), &id, workers),
                    ];
                    for (layout, back) in Layout::ALL.iter().zip(&back) {
                        assert!(
                            bits(back) == bits(&a),
                            "{m}x{n} b={b} grid {pr}x{pc} {} {workers}-way round trip",
                            layout.short_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn owners_first_touch_their_own_tiles() {
        // on the run's grid every worker loads exactly the tiles it owns;
        // CM (a 1x1 storage grid) deals whole tile columns round-robin
        let a = gen::uniform(40, 36, 3);
        let grid = ProcessGrid::new(2, 2).unwrap();
        for me in 0..grid.size() {
            let tiles = SharedTiles::new(BclMatrix::alloc(40, 36, 8, grid));
            unsafe { load_part(&tiles, &a, me, grid.size()) };
            let s = tiles.into_inner();
            let t = s.tiling();
            for (ti, tj) in t.tiles() {
                let loaded = s.tile(ti, tj).get(0, 0) == a.get(t.row_start(ti), t.col_start(tj));
                assert_eq!(
                    loaded,
                    grid.owner(ti, tj) == me,
                    "tile ({ti},{tj}), worker {me}"
                );
            }
            let tiles = SharedTiles::new(CmTiles::alloc(40, 36, 8, grid));
            unsafe { load_part(&tiles, &a, me, grid.size()) };
            let s = tiles.into_inner();
            for (ti, tj) in t.tiles() {
                let loaded = s.tile(ti, tj).get(0, 0) == a.get(t.row_start(ti), t.col_start(tj));
                assert_eq!(
                    loaded,
                    tj % grid.size() == me,
                    "CM tile ({ti},{tj}), worker {me}"
                );
            }
        }
    }

    #[test]
    fn tile_ptr_reads_match_storage() {
        let a = gen::uniform(12, 12, 1);
        let grid = ProcessGrid::new(2, 2).unwrap();
        let s = BclMatrix::from_dense(&a, 4, grid);
        let shared = SharedTiles::new(s);
        unsafe {
            let t = shared.tile_ptr(1, 2);
            assert_eq!(t.rows, 4);
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(t.get(i, j), a.get(4 + i, 8 + j));
                }
            }
        }
    }

    #[test]
    fn writes_are_visible_after_unwrap() {
        let a = gen::uniform(8, 8, 2);
        let grid = ProcessGrid::new(2, 2).unwrap();
        let shared = SharedTiles::new(BclMatrix::from_dense(&a, 4, grid));
        unsafe {
            let t = shared.tile_ptr(0, 0);
            t.set(1, 1, 42.0);
        }
        let back = shared.into_inner().to_dense();
        assert_eq!(back.get(1, 1), 42.0);
        assert_eq!(back.get(0, 0), a.get(0, 0));
    }

    #[test]
    fn disjoint_tiles_have_disjoint_elements() {
        let grid = ProcessGrid::new(2, 2).unwrap();
        let shared = SharedTiles::new(BclMatrix::zeros(8, 8, 4, grid));
        unsafe {
            let a = shared.tile_ptr(0, 0);
            let b = shared.tile_ptr(1, 1);
            a.set(0, 0, 1.0);
            b.set(0, 0, 2.0);
            assert_eq!(a.get(0, 0), 1.0);
            assert_eq!(b.get(0, 0), 2.0);
        }
    }
}
