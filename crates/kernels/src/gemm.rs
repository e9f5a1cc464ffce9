//! General matrix multiply `C ← α·A·B + β·C` on column-major sub-blocks.
//!
//! This is the kernel behind task **S** (trailing-matrix update), which
//! dominates the flops of the factorization (§2). The implementation is
//! the GotoBLAS/BLIS three-level blocked algorithm: `A` and `B` are
//! copied into contiguous packed panels once per cache block
//! ([`crate::pack`]) and multiplied by an `MR × NR` register-tiled
//! micro-kernel ([`crate::microkernel`]), with the caller's `β` folded
//! into the first `KC` block of the `k` loop instead of a separate
//! scaling pass over `C`. The `A·Bᵀ` product shares the driver; only
//! its B packing differs.
//!
//! ## Blocking parameters
//!
//! The register tile depends on the micro-kernel path, picked once per
//! GEMM call from the detected CPU features
//! ([`crate::microkernel::KernelPath::detect`]); the driver and the
//! packing routines are instantiated once per tile shape.
//!
//! | Constant | Value | Role |
//! |----------|-------|------|
//! | [`MR_AVX512`] × [`NR_AVX512`] | 16 × 8 | AVX-512F tile: 16 zmm accumulators (8 f64 each) of the 32 zmm registers, plus 2 for the A sliver and 1 broadcast B value |
//! | [`MR`] × [`NR`] | 8 × 4 | AVX2 + FMA and portable tile: 8 ymm accumulators (4 f64 each) of the 16 ymm registers, plus 2 for the A sliver and 1 broadcast |
//! | [`MC`]   | 128   | rows of the packed A block (`MC × KC` ≈ 256 KiB, sized for L2) |
//! | [`KC`]   | 256   | depth of one pack-and-multiply pass (`KC × NR` B panel: 8 KiB at NR = 4, 16 KiB at NR = 8, hot in L1) |
//! | [`NC`]   | 2048  | columns of the packed B block (`KC × NC` ≈ 4 MiB, sized for L3) |
//!
//! The simulator's kernel-efficiency table (`calu_sim::cost::kernel_eff`)
//! was calibrated against the 8×4 kernel and is deliberately left as it
//! is, so the simulator's reproduced figures keep their meaning; the
//! AVX-512 path makes the real backend faster than that model on hosts
//! that have it.
//!
//! The seed `j-k-i` AXPY kernel is kept as [`dgemm_jki`] — the parity
//! oracle for tests and the speedup baseline for the `kernels` bench.

#[cfg(target_arch = "x86_64")]
use crate::microkernel::{avx2fma_8x4, avx512_16x8};
use crate::microkernel::{portable_tile, store_tile, KernelPath, TileFn};
use crate::pack::{pack_a, pack_b, pack_b_trans, with_thread_scratch, GemmScratch};
use crate::small::daxpy;

/// Rows of the 8×4 register tile (AVX2 + FMA and portable paths).
pub const MR: usize = 8;
/// Columns of the 8×4 register tile (AVX2 + FMA and portable paths).
pub const NR: usize = 4;
/// Rows of the AVX-512F register tile.
pub const MR_AVX512: usize = 16;
/// Columns of the AVX-512F register tile.
pub const NR_AVX512: usize = 8;
/// Rows of one packed `A` cache block; a multiple of every tile's `MR`.
pub const MC: usize = 128;
/// Depth of one packed block pair (the `k`-blocking).
pub const KC: usize = 256;
/// Columns of one packed `B` cache block; a multiple of every tile's `NR`.
pub const NC: usize = 2048;

const _: () = assert!(
    MC.is_multiple_of(MR_AVX512) && MR_AVX512.is_multiple_of(MR),
    "MC must be a multiple of MR_AVX512, and MR_AVX512 of MR"
);
const _: () = assert!(
    NC.is_multiple_of(NR_AVX512) && NR_AVX512.is_multiple_of(NR),
    "NC must be a multiple of NR_AVX512, and NR_AVX512 of NR"
);

/// `C ← α·A·B + β·C` with `A: m×k`, `B: k×n`, `C: m×n`, all column-major
/// with leading dimensions `lda/ldb/ldc` (slices start at each block's
/// `(0,0)` element). Packing buffers come from `scratch`, so a caller
/// that reuses one arena across calls (the threaded executor's
/// per-worker scratch) performs no heap allocation here.
///
/// Panics if a leading dimension is smaller than the block height or if a
/// slice is too short for the addressed span.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= m && ldc >= m,
        "leading dimension too small for block height"
    );
    assert!(k == 0 || ldb >= k, "ldb too small");
    assert!(a.len() >= span(m, k, lda), "a slice too short");
    assert!(b.len() >= span(k, n, ldb), "b slice too short");
    assert!(c.len() >= span(m, n, ldc), "c slice too short");
    // SAFETY: dimensions checked against the slice lengths above; the
    // borrow rules guarantee c is exclusive and disjoint from a and b.
    unsafe {
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        Gemm {
            m,
            n,
            k,
            alpha,
            a,
            lda,
            b,
            ldb,
            trans_b: false,
            beta,
            c,
            ldc,
        }
        .run(scratch);
    }
}

/// [`dgemm_packed`] with a per-thread scratch arena — the convenience
/// entry point for callers without a hot loop (tests, examples, the
/// sequential baselines). The arena is allocated once per thread and
/// reused, so even this path does not hit the allocator steady-state.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    with_thread_scratch(|s| dgemm_packed(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, s));
}

/// Raw-pointer variant of [`dgemm_packed`] for callers (the parallel
/// executor, the in-place factorizations) whose blocks alias a single
/// shared buffer. Never forms slices over the operands, so
/// element-disjoint but span-overlapping blocks are fine.
///
/// # Safety
///
/// The three blocks must be valid for the spans they address
/// (`(cols−1)·ld + rows` elements each), `c` must not overlap `a` or `b`
/// element-wise, and the caller must guarantee exclusive access to `c`
/// for the duration of the call.
#[allow(clippy::too_many_arguments)]
pub unsafe fn dgemm_raw_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= m && ldc >= m,
        "leading dimension too small for block height"
    );
    assert!(k == 0 || ldb >= k, "ldb too small");
    Gemm {
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        trans_b: false,
        beta,
        c,
        ldc,
    }
    .run(scratch);
}

/// Raw-pointer variant of [`dgemm`] (per-thread scratch arena).
///
/// # Safety
///
/// Same contract as [`dgemm_raw_packed`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn dgemm_raw(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    with_thread_scratch(|s| dgemm_raw_packed(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, s));
}

/// One pre-validated GEMM call: `C ← α·A·op(B) + β·C` with `op(B)` = `B`
/// (`B` stored `k×n`) or `Bᵀ` (`B` stored `n×k`).
#[derive(Clone, Copy)]
struct Gemm {
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    trans_b: bool,
    beta: f64,
    c: *mut f64,
    ldc: usize,
}

impl Gemm {
    /// Run on the micro-kernel path this CPU supports best, detected
    /// once for the whole call.
    ///
    /// # Safety
    ///
    /// See [`dgemm_raw_packed`] / [`dgemm_nt_raw_packed`].
    unsafe fn run(self, scratch: &mut GemmScratch) {
        self.run_on(KernelPath::detect(), scratch);
    }

    /// Run on `path`.
    ///
    /// # Safety
    ///
    /// As [`Gemm::run`], and the CPU must support `path` (it came from
    /// [`KernelPath::detect`] or [`KernelPath::supported`]).
    unsafe fn run_on(self, path: KernelPath, scratch: &mut GemmScratch) {
        if self.k == 0 || self.alpha == 0.0 {
            scale_c(self.beta, self.c, self.ldc, self.m, self.n);
            return;
        }
        scratch.reserve(self.m, self.n, self.k);
        match path {
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx512 => self.blocked::<MR_AVX512, NR_AVX512>(avx512_16x8, scratch),
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2Fma => self.blocked::<MR, NR>(avx2fma_8x4, scratch),
            KernelPath::Portable => self.blocked::<MR, NR>(portable_tile, scratch),
        }
    }

    /// The five-loop blocked driver for one `MR × NR` register tile.
    /// The `(pc, jc)` block of `op(B)` sits at `b + jc·ldb + pc` when `B`
    /// is stored as is and at `b + pc·ldb + jc` when it is transposed.
    ///
    /// # Safety
    ///
    /// As [`Gemm::run_on`]; `scratch` must cover the call
    /// ([`GemmScratch::reserve`]).
    unsafe fn blocked<const MR: usize, const NR: usize>(
        self,
        tile: TileFn<MR, NR>,
        scratch: &mut GemmScratch,
    ) {
        let Gemm {
            m,
            n,
            k,
            alpha,
            a,
            lda,
            b,
            ldb,
            trans_b,
            beta,
            c,
            ldc,
        } = self;
        let (a_pack, b_pack) = scratch.buffers();
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                // β is applied on each tile's first visit (pc == 0) and the
                // later k blocks accumulate — the old standalone β pass
                // folded into the first real traversal of C
                let beta_eff = if pc == 0 { beta } else { 1.0 };
                if trans_b {
                    pack_b_trans::<NR>(kc, nc, b.add(pc * ldb + jc), ldb, b_pack);
                } else {
                    pack_b::<NR>(kc, nc, b.add(jc * ldb + pc), ldb, b_pack);
                }
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    pack_a::<MR>(mc, kc, a.add(pc * lda + ic), lda, a_pack);
                    let mut jr = 0;
                    while jr < nc {
                        let nr = NR.min(nc - jr);
                        // full kc·NR / kc·MR panels: the slicing is
                        // bounds-checked, and the kernel relies on it
                        let bp = &b_pack[jr * kc..jr * kc + kc * NR];
                        let mut ir = 0;
                        while ir < mc {
                            let mr = MR.min(mc - ir);
                            let ap = &a_pack[ir * kc..ir * kc + kc * MR];
                            // SAFETY: `run_on`'s caller vouches that the
                            // CPU runs this path's kernel
                            let acc = tile(kc, ap, bp);
                            store_tile(
                                &acc,
                                alpha,
                                beta_eff,
                                c.add((jc + jr) * ldc + ic + ir),
                                ldc,
                                mr,
                                nr,
                            );
                            ir += MR;
                        }
                        jr += NR;
                    }
                    ic += MC;
                }
                pc += KC;
            }
            jc += NC;
        }
    }
}

/// `C ← α·A·Bᵀ + β·C` with `A: m×k`, `B` **stored** `n×k` (so `Bᵀ` is
/// `k×n`), `C: m×n`, all column-major with leading dimensions
/// `lda/ldb/ldc`. The transpose is absorbed in the packing stage
/// ([`pack_b_trans`]); blocking and the micro-kernel are those of
/// [`dgemm_packed`]. This is the kernel behind the Cholesky trailing
/// update `A_ij ← A_ij − L_ik·L_jkᵀ` and the rectangle of SYRK.
///
/// Panics if a leading dimension is smaller than its block height
/// (`lda ≥ m`, `ldb ≥ n`, `ldc ≥ m`) or a slice is too short for the
/// addressed span.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_nt_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= m && ldc >= m,
        "leading dimension too small for block height"
    );
    assert!(ldb >= n, "ldb too small");
    assert!(a.len() >= span(m, k, lda), "a slice too short");
    assert!(b.len() >= span(n, k, ldb), "b slice too short");
    assert!(c.len() >= span(m, n, ldc), "c slice too short");
    // SAFETY: dimensions checked against the slice lengths above; the
    // borrow rules guarantee c is exclusive and disjoint from a and b.
    unsafe {
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        Gemm {
            m,
            n,
            k,
            alpha,
            a,
            lda,
            b,
            ldb,
            trans_b: true,
            beta,
            c,
            ldc,
        }
        .run(scratch);
    }
}

/// [`dgemm_nt_packed`] with the per-thread scratch arena.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_nt(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    with_thread_scratch(|s| dgemm_nt_packed(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, s));
}

/// Raw-pointer variant of [`dgemm_nt_packed`] for callers whose blocks
/// alias a single shared buffer (the parallel executor's tiles). Never
/// forms slices over the operands.
///
/// # Safety
///
/// `a` must be valid for the `m×k` span, `b` for the *stored* `n×k`
/// span, `c` for the `m×n` span; `c` must not overlap `a` or `b`
/// element-wise, and the caller must have exclusive access to `c`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn dgemm_nt_raw_packed(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= m && ldc >= m,
        "leading dimension too small for block height"
    );
    assert!(ldb >= n, "ldb too small");
    Gemm {
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        trans_b: true,
        beta,
        c,
        ldc,
    }
    .run(scratch);
}

/// `C ← β·C` for the degenerate `k = 0` / `α = 0` cases (β = 0
/// overwrites without reading).
///
/// # Safety
///
/// `c` must be valid for the `m × n` span with leading dimension `ldc`.
unsafe fn scale_c(beta: f64, c: *mut f64, ldc: usize, m: usize, n: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let cj = c.add(j * ldc);
        if beta == 0.0 {
            for i in 0..m {
                *cj.add(i) = 0.0;
            }
        } else {
            for i in 0..m {
                *cj.add(i) *= beta;
            }
        }
    }
}

/// Panel width of the k-blocking in [`dgemm_jki`].
const JKI_KC: usize = 128;

/// The seed kernel: a cache-blocked `j-k-i` loop whose inner loop is a
/// contiguous AXPY over a column of `A` and a column of `C`. Kept as the
/// parity oracle for the packed kernel's tests and the speedup baseline
/// reported by the `kernels` bench; not used by the factorizations.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_jki(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= m && ldc >= m,
        "leading dimension too small for block height"
    );
    assert!(k == 0 || ldb >= k, "ldb too small");
    assert!(a.len() >= span(m, k, lda), "a slice too short");
    assert!(b.len() >= span(k, n, ldb), "b slice too short");
    assert!(c.len() >= span(m, n, ldc), "c slice too short");

    if beta != 1.0 {
        for j in 0..n {
            let col = &mut c[j * ldc..j * ldc + m];
            if beta == 0.0 {
                col.fill(0.0);
            } else {
                for v in col {
                    *v *= beta;
                }
            }
        }
    }
    if k == 0 || alpha == 0.0 {
        return;
    }
    let mut l0 = 0;
    while l0 < k {
        let lb = JKI_KC.min(k - l0);
        for j in 0..n {
            let (c_lo, c_hi) = (j * ldc, j * ldc + m);
            for l in l0..l0 + lb {
                let blj = alpha * b[l + j * ldb];
                if blj == 0.0 {
                    continue;
                }
                let a_col = &a[l * lda..l * lda + m];
                let c_col = &mut c[c_lo..c_hi];
                daxpy(blj, a_col, c_col);
            }
        }
        l0 += lb;
    }
}

/// Elements spanned by an `r × c` block with leading dimension `ld`.
#[inline]
fn span(r: usize, c: usize, ld: usize) -> usize {
    if r == 0 || c == 0 {
        0
    } else {
        (c - 1) * ld + r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::{gen, ops, DenseMatrix};

    fn dgemm_dense(
        alpha: f64,
        a: &DenseMatrix,
        b: &DenseMatrix,
        beta: f64,
        c: &DenseMatrix,
    ) -> DenseMatrix {
        let mut out = c.clone();
        dgemm(
            a.rows(),
            b.cols(),
            a.cols(),
            alpha,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            beta,
            out.as_mut_slice(),
            c.ld(),
        );
        out
    }

    #[test]
    fn matches_reference_on_random_shapes() {
        for (m, n, k, seed) in [
            (5, 7, 3, 1),
            (16, 16, 16, 2),
            (33, 17, 129, 3),
            (1, 9, 4, 4),
            (64, 1, 200, 5),
        ] {
            let a = gen::uniform(m, k, seed);
            let b = gen::uniform(k, n, seed + 100);
            let c = gen::uniform(m, n, seed + 200);
            let got = dgemm_dense(1.0, &a, &b, 1.0, &c);
            let want = ops::add(&ops::matmul(&a, &b), &c);
            assert!(got.approx_eq(&want, 1e-11), "shape ({m},{n},{k})");
        }
    }

    #[test]
    fn matches_jki_kernel_on_awkward_shapes() {
        // every register-tile edge case: below/at/above MR and NR, plus
        // k straddling the KC boundary so the β-folding path runs
        for (m, n, k, seed) in [
            (MR - 1, NR - 1, 7, 1),
            (MR, NR, 1, 2),
            (MR + 1, NR + 1, KC, 3),
            (3 * MR + 5, 2 * NR + 3, KC + 9, 4),
            (MC + MR + 2, NR, 33, 5),
            (1, 1, KC + 1, 6),
            (2 * MC + 3, 3 * NR + 1, 2 * KC + 5, 7),
        ] {
            let a = gen::uniform(m, k, seed);
            let b = gen::uniform(k, n, seed + 10);
            let c = gen::uniform(m, n, seed + 20);
            for (alpha, beta) in [(1.0, 1.0), (-1.0, 1.0), (2.0, 0.0), (0.5, -0.5)] {
                let got = dgemm_dense(alpha, &a, &b, beta, &c);
                let mut want = c.clone();
                dgemm_jki(
                    m,
                    n,
                    k,
                    alpha,
                    a.as_slice(),
                    a.ld(),
                    b.as_slice(),
                    b.ld(),
                    beta,
                    want.as_mut_slice(),
                    c.ld(),
                );
                let tol = 1e-11 * (k as f64).max(1.0);
                assert!(
                    got.approx_eq(&want, tol),
                    "shape ({m},{n},{k}) alpha {alpha} beta {beta}"
                );
            }
        }
    }

    #[test]
    fn every_supported_path_matches_jki_on_both_operand_forms() {
        // the driver at each register tile this host can run, over the
        // DAG's tile sizes and cuts through both tiles' edges and KC
        for path in KernelPath::supported() {
            let (mr, nr) = path.tile();
            for (idx, (m, n, k)) in [
                (16, 16, 16),
                (100, 100, 100),
                (mr - 1, nr - 1, 7),
                (mr + 1, nr + 1, KC + 3),
                (MC + mr + 3, 3 * nr + 1, 2 * KC + 1),
                (1, 1, 1),
            ]
            .into_iter()
            .enumerate()
            {
                let seed = 10 * idx as u64;
                let a = gen::uniform(m, k, seed);
                let b = gen::uniform(n, k, seed + 1); // stored n×k for A·Bᵀ
                let bt = DenseMatrix::from_fn(k, n, |i, j| b.get(j, i));
                let c = gen::uniform(m, n, seed + 2);
                let mut want = c.clone();
                let ldc = c.ld();
                dgemm_jki(
                    m,
                    n,
                    k,
                    -1.0,
                    a.as_slice(),
                    a.ld(),
                    bt.as_slice(),
                    bt.ld(),
                    0.5,
                    want.as_mut_slice(),
                    ldc,
                );
                for (trans_b, bm) in [(false, &bt), (true, &b)] {
                    let mut got = c.clone();
                    let g = Gemm {
                        m,
                        n,
                        k,
                        alpha: -1.0,
                        a: a.as_slice().as_ptr(),
                        lda: a.ld(),
                        b: bm.as_slice().as_ptr(),
                        ldb: bm.ld(),
                        trans_b,
                        beta: 0.5,
                        c: got.as_mut_slice().as_mut_ptr(),
                        ldc,
                    };
                    // SAFETY: whole, distinct matrices; `path` is supported
                    unsafe { g.run_on(path, &mut GemmScratch::new()) };
                    assert!(
                        got.approx_eq(&want, 1e-13 * k as f64),
                        "{} ({m},{n},{k}) trans_b {trans_b}",
                        path.name()
                    );
                }
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_output() {
        // β = 0 must never read C: a fresh buffer full of NaN comes out
        // clean, including with k > KC (only the first k block applies β)
        let (m, n, k) = (MR + 3, NR + 2, KC + 17);
        let a = gen::uniform(m, k, 8);
        let b = gen::uniform(k, n, 9);
        let mut c = DenseMatrix::from_fn(m, n, |_, _| f64::NAN);
        let ld = c.ld();
        dgemm(
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            0.0,
            c.as_mut_slice(),
            ld,
        );
        let want = ops::matmul(&a, &b);
        assert!(c.approx_eq(&want, 1e-10));
    }

    #[test]
    fn packed_scratch_is_reused_without_allocation() {
        let b = 96;
        let mut scratch = GemmScratch::sized_for(b, b, b);
        let pa = scratch.a_pack.as_ptr();
        let x = gen::uniform(b, b, 10);
        let y = gen::uniform(b, b, 11);
        let mut c = DenseMatrix::zeros(b, b);
        let ld = c.ld();
        for (m, n, k) in [(b, b, b), (17, 5, 29), (b, 1, b)] {
            dgemm_packed(
                m,
                n,
                k,
                -1.0,
                x.as_slice(),
                x.ld(),
                y.as_slice(),
                y.ld(),
                1.0,
                c.as_mut_slice(),
                ld,
                &mut scratch,
            );
        }
        assert_eq!(scratch.a_pack.as_ptr(), pa, "arena must not reallocate");
    }

    #[test]
    fn alpha_beta_combinations() {
        let a = gen::uniform(8, 6, 10);
        let b = gen::uniform(6, 5, 11);
        let c = gen::uniform(8, 5, 12);
        // beta = 0 overwrites C entirely (even NaN-free from garbage C)
        let got = dgemm_dense(2.0, &a, &b, 0.0, &c);
        let want = ops::scale(2.0, &ops::matmul(&a, &b));
        assert!(got.approx_eq(&want, 1e-12));
        // alpha = 0, beta = 2 just scales C
        let got = dgemm_dense(0.0, &a, &b, 2.0, &c);
        assert!(got.approx_eq(&ops::scale(2.0, &c), 1e-12));
        // alpha = -1, beta = 1 is the update kernel of task S
        let got = dgemm_dense(-1.0, &a, &b, 1.0, &c);
        let want = ops::sub(&c, &ops::matmul(&a, &b));
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn submatrix_with_leading_dimension() {
        // Multiply 3x3 blocks living inside 10x10 parents.
        let pa = gen::uniform(10, 10, 20);
        let pb = gen::uniform(10, 10, 21);
        let mut pc = gen::uniform(10, 10, 22);
        let (r, c, sz) = (2, 4, 3);
        let a = pa.submatrix(r, c, sz, sz);
        let b = pb.submatrix(r, c, sz, sz);
        let c0 = pc.submatrix(r, c, sz, sz);
        let off = c * 10 + r;
        // run on the parent slices with ld = 10
        let (pa_s, pb_s) = (pa.as_slice(), pb.as_slice());
        let pc_s = pc.as_mut_slice();
        dgemm(
            sz,
            sz,
            sz,
            1.0,
            &pa_s[off..],
            10,
            &pb_s[off..],
            10,
            1.0,
            &mut pc_s[off..],
            10,
        );
        let want = ops::add(&ops::matmul(&a, &b), &c0);
        let got = pc.submatrix(r, c, sz, sz);
        assert!(got.approx_eq(&want, 1e-12));
        // elements outside the target block untouched
        assert_eq!(pc.get(0, 0), gen::uniform(10, 10, 22).get(0, 0));
    }

    #[test]
    fn k_zero_only_scales() {
        let mut c = gen::uniform(4, 4, 30);
        let orig = c.clone();
        let (rows, ld) = (c.rows(), c.ld());
        dgemm(
            rows,
            rows,
            0,
            1.0,
            &[],
            4,
            &[],
            4,
            0.5,
            c.as_mut_slice(),
            ld,
        );
        assert!(c.approx_eq(&ops::scale(0.5, &orig), 1e-14));
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c: Vec<f64> = vec![];
        dgemm(0, 0, 5, 1.0, &[1.0; 5], 1, &[1.0; 5], 5, 1.0, &mut c, 1);
    }

    #[test]
    fn raw_variant_matches_safe() {
        let a = gen::uniform(6, 4, 40);
        let b = gen::uniform(4, 5, 41);
        let c = gen::uniform(6, 5, 42);
        let mut c1 = c.clone();
        let mut c2 = c.clone();
        dgemm(
            6,
            5,
            4,
            -1.0,
            a.as_slice(),
            6,
            b.as_slice(),
            4,
            1.0,
            c1.as_mut_slice(),
            6,
        );
        unsafe {
            dgemm_raw(
                6,
                5,
                4,
                -1.0,
                a.as_slice().as_ptr(),
                6,
                b.as_slice().as_ptr(),
                4,
                1.0,
                c2.as_mut_slice().as_mut_ptr(),
                6,
            );
        }
        assert!(c1.approx_eq(&c2, 0.0));
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn rejects_bad_ld() {
        let mut c = vec![0.0; 16];
        dgemm(4, 4, 4, 1.0, &[0.0; 16], 3, &[0.0; 16], 4, 0.0, &mut c, 4);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        // C ← α·A·Bᵀ + β·C must match dgemm against a transposed copy,
        // across register-tile edges and the KC boundary
        for (m, n, k, seed) in [
            (5, 7, 3, 1),
            (MR - 1, NR - 1, 7, 2),
            (MR + 1, NR + 1, KC, 3),
            (3 * MR + 5, 2 * NR + 3, KC + 9, 4),
            (1, 9, 4, 5),
            (MC + 3, NR, 33, 6),
        ] {
            let a = gen::uniform(m, k, seed);
            let b = gen::uniform(n, k, seed + 10); // stored n×k
            let bt = DenseMatrix::from_fn(k, n, |i, j| b.get(j, i));
            let c = gen::uniform(m, n, seed + 20);
            for (alpha, beta) in [(1.0, 1.0), (-1.0, 1.0), (2.0, 0.0)] {
                let mut got = c.clone();
                let ld = got.ld();
                dgemm_nt(
                    m,
                    n,
                    k,
                    alpha,
                    a.as_slice(),
                    a.ld(),
                    b.as_slice(),
                    b.ld(),
                    beta,
                    got.as_mut_slice(),
                    ld,
                );
                let want = dgemm_dense(alpha, &a, &bt, beta, &c);
                let tol = 1e-11 * (k as f64).max(1.0);
                assert!(
                    got.approx_eq(&want, tol),
                    "shape ({m},{n},{k}) alpha {alpha} beta {beta}"
                );
            }
        }
    }

    #[test]
    fn nt_raw_variant_matches_safe() {
        let (m, n, k) = (6, 5, 4);
        let a = gen::uniform(m, k, 60);
        let b = gen::uniform(n, k, 61);
        let c = gen::uniform(m, n, 62);
        let mut c1 = c.clone();
        let mut c2 = c.clone();
        let ld = c.ld();
        dgemm_nt(
            m,
            n,
            k,
            -1.0,
            a.as_slice(),
            a.ld(),
            b.as_slice(),
            b.ld(),
            1.0,
            c1.as_mut_slice(),
            ld,
        );
        let mut s = GemmScratch::new();
        unsafe {
            dgemm_nt_raw_packed(
                m,
                n,
                k,
                -1.0,
                a.as_slice().as_ptr(),
                a.ld(),
                b.as_slice().as_ptr(),
                b.ld(),
                1.0,
                c2.as_mut_slice().as_mut_ptr(),
                ld,
                &mut s,
            );
        }
        assert!(c1.approx_eq(&c2, 0.0));
    }

    #[test]
    #[should_panic(expected = "ldb too small")]
    fn nt_rejects_bad_ldb() {
        // for the NT product B is stored n×k, so ldb must cover n
        let mut c = vec![0.0; 16];
        dgemm_nt(4, 4, 4, 1.0, &[0.0; 16], 4, &[0.0; 16], 3, 0.0, &mut c, 4);
    }

    #[test]
    fn large_k_blocking_path() {
        // k > KC exercises the blocked loop
        let a = gen::uniform(7, 300, 50);
        let b = gen::uniform(300, 6, 51);
        let c = DenseMatrix::zeros(7, 6);
        let got = dgemm_dense(1.0, &a, &b, 0.0, &c);
        let want = ops::matmul(&a, &b);
        assert!(got.approx_eq(&want, 1e-10));
    }
}
