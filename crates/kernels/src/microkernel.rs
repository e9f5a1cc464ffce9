//! The register-tiled micro-kernels at the bottom of the blocked GEMM.
//!
//! A micro-kernel multiplies one packed `MR`-row A panel by one packed
//! `NR`-column B panel (see [`crate::pack`] for the layouts) over `kc`
//! steps, into an `MR × NR` accumulator tile returned by value as
//! `[[f64; MR]; NR]` — column `j` is `acc[j]`, the same column-major
//! order as `C`. [`store_tile`] then merges the accumulator into `C`
//! with the `α·acc + β·C` policy. The GEMM driver passes the caller's
//! `β` only for the **first** `KC` block of the `k` loop and `1.0`
//! afterwards, which folds the old separate β-scaling pass over `C` into
//! the first real visit of each tile.
//!
//! ## Paths
//!
//! The driver picks one [`KernelPath`] per GEMM call from the CPU's
//! detected features ([`KernelPath::detect`]); every call on one host
//! therefore runs the same kernel, whichever route issued it.
//!
//! | Path | Tile | Body |
//! |------|------|------|
//! | [`KernelPath::Avx512`]  | 16×8 | explicit `std::arch` intrinsics: 16 zmm accumulators; per `k` step two A loads, eight B broadcasts and sixteen `_mm512_fmadd_pd` |
//! | [`KernelPath::Avx2Fma`] | 8×4  | [`portable_tile`] recompiled under `#[target_feature(enable = "avx2,fma")]`; auto-vectorized 4-wide multiply and add |
//! | [`KernelPath::Portable`]| 8×4  | [`portable_tile`] at the build's baseline ISA |
//!
//! Rust never contracts `acc += a·b` into a fused multiply–add, so the
//! two 8×4 paths round identically: hosts without AVX-512 get the same
//! bits on either. The AVX-512 path fuses, so its results differ from
//! the 8×4 paths in the last bits. An auto-vectorized 16×8 body runs far
//! below the intrinsic one, hence the explicit intrinsics.
//!
//! ## Safety
//!
//! The AVX-512 body reads its panels through raw pointers. Its bounds
//! argument is a hard assert at entry: the packed panels hold at least
//! `kc·MR` / `kc·NR` elements, and every load stays below those counts.
//! The CPU-feature obligation sits with the caller: an x86 path may only
//! run where [`KernelPath::detect`] or [`KernelPath::supported`]
//! reported it.

use crate::gemm::{MR, MR_AVX512, NR, NR_AVX512};

/// A micro-kernel: `kc` steps over packed panels into an `MR × NR`
/// accumulator. `unsafe` because the x86 bodies need their CPU features.
pub(crate) type TileFn<const MR: usize, const NR: usize> =
    unsafe fn(usize, &[f64], &[f64]) -> [[f64; MR]; NR];

/// The micro-kernel paths the GEMM driver can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// 16×8 tile, AVX-512F intrinsics with fused multiply–add.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// 8×4 tile, the portable body compiled for AVX2 + FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// 8×4 tile at the build's baseline ISA.
    Portable,
}

impl KernelPath {
    /// The fastest path this CPU supports: AVX-512F, else AVX2 + FMA,
    /// else portable. `is_x86_feature_detected!` caches its answer, so
    /// this is a few loads; the driver calls it once per GEMM.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Self::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Self::Avx2Fma;
            }
        }
        Self::Portable
    }

    /// Every path this CPU supports, fastest first (the tests run each).
    pub fn supported() -> Vec<Self> {
        let mut paths = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                paths.push(Self::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                paths.push(Self::Avx2Fma);
            }
        }
        paths.push(Self::Portable);
        paths
    }

    /// `MR × NR` of this path's register tile.
    pub fn tile(self) -> (usize, usize) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => (MR_AVX512, NR_AVX512),
            #[cfg(target_arch = "x86_64")]
            Self::Avx2Fma => (MR, NR),
            Self::Portable => (MR, NR),
        }
    }

    /// Short name for reports, e.g. `avx512f-16x8`.
    pub fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => "avx512f-16x8",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2Fma => "avx2fma-8x4",
            Self::Portable => "portable-8x4",
        }
    }
}

/// `acc[j][i] = Σ_l a[l·MR + i] · b[l·NR + j]` over `kc` steps of packed
/// panels: the 8×4 body of the AVX2 + FMA and portable paths. Panels
/// shorter than `kc·MR` / `kc·NR` elements end the sum early (safe
/// code; the driver always passes full panels).
///
/// The accumulator is a by-value local, so the optimizer needs no
/// aliasing proof to keep the whole tile in vector registers.
#[inline(always)]
pub fn portable_tile(kc: usize, a: &[f64], b: &[f64]) -> [[f64; MR]; NR] {
    let mut acc = [[0.0; MR]; NR];
    // chunks_exact pushes the bounds checks out of the k loop
    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        for (col, &blj) in acc.iter_mut().zip(bp) {
            for (x, &ail) in col.iter_mut().zip(ap) {
                *x += ail * blj;
            }
        }
    }
    acc
}

/// [`portable_tile`] recompiled with AVX2 + FMA enabled.
///
/// # Safety
///
/// The CPU must support the `avx2` and `fma` target features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn avx2fma_8x4(kc: usize, a: &[f64], b: &[f64]) -> [[f64; MR]; NR] {
    portable_tile(kc, a, b)
}

/// The 16×8 AVX-512F micro-kernel: the tile is sixteen zmm registers
/// (two per column of eight), and each `k` step loads the 16-row A
/// sliver as two vectors, broadcasts each of the eight B values and
/// issues sixteen fused multiply–adds.
///
/// # Safety
///
/// The CPU must support the `avx512f` target feature. Panics unless
/// `a` holds `kc·16` and `b` holds `kc·8` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn avx512_16x8(kc: usize, a: &[f64], b: &[f64]) -> [[f64; MR_AVX512]; NR_AVX512] {
    use std::arch::x86_64::{_mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd};
    use std::arch::x86_64::{_mm512_setzero_pd, _mm512_storeu_pd};
    // hard assert: every unchecked load below stays inside these bounds
    assert!(
        a.len() >= kc * MR_AVX512 && b.len() >= kc * NR_AVX512,
        "packed panel shorter than kc·MR / kc·NR"
    );
    let mut acc = [[_mm512_setzero_pd(); 2]; NR_AVX512];
    let (mut ap, mut bp) = (a.as_ptr(), b.as_ptr());
    for _ in 0..kc {
        let a0 = _mm512_loadu_pd(ap);
        let a1 = _mm512_loadu_pd(ap.add(8));
        for (j, col) in acc.iter_mut().enumerate() {
            let bj = _mm512_set1_pd(*bp.add(j));
            col[0] = _mm512_fmadd_pd(a0, bj, col[0]);
            col[1] = _mm512_fmadd_pd(a1, bj, col[1]);
        }
        ap = ap.add(MR_AVX512);
        bp = bp.add(NR_AVX512);
    }
    let mut out = [[0.0; MR_AVX512]; NR_AVX512];
    for (o, col) in out.iter_mut().zip(&acc) {
        _mm512_storeu_pd(o.as_mut_ptr(), col[0]);
        _mm512_storeu_pd(o.as_mut_ptr().add(8), col[1]);
    }
    out
}

/// Merge the `mr × nr` live corner of an accumulator tile into `C`:
/// `C ← α·acc + β·C` (β = 0 overwrites without reading `C`, so garbage
/// or NaN in fresh output buffers never propagates).
///
/// # Safety
///
/// `c` must be valid for reads and writes over the `mr × nr` block with
/// leading dimension `ldc`, and the caller must have exclusive access
/// to it.
#[inline]
#[allow(clippy::too_many_arguments)]
pub unsafe fn store_tile<const MR: usize, const NR: usize>(
    acc: &[[f64; MR]; NR],
    alpha: f64,
    beta: f64,
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    debug_assert!(mr <= MR && nr <= NR);
    for (j, col) in acc.iter().enumerate().take(nr) {
        let cj = c.add(j * ldc);
        if beta == 0.0 {
            for (i, &x) in col.iter().enumerate().take(mr) {
                *cj.add(i) = alpha * x;
            }
        } else if beta == 1.0 {
            for (i, &x) in col.iter().enumerate().take(mr) {
                *cj.add(i) += alpha * x;
            }
        } else {
            for (i, &x) in col.iter().enumerate().take(mr) {
                *cj.add(i) = beta * *cj.add(i) + alpha * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::KC;

    /// `Σ_l a[l·mr_tile + i]·b[l·nr_tile + j]`, summed in `k` order.
    fn reference(kc: usize, mr_t: usize, nr_t: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; mr_t * nr_t];
        for j in 0..nr_t {
            for i in 0..mr_t {
                out[j * mr_t + i] = (0..kc).map(|l| a[l * mr_t + i] * b[l * nr_t + j]).sum();
            }
        }
        out
    }

    /// Run `path`'s kernel and store its `mr × nr` corner into a fresh
    /// NaN-filled `C` with β = 0 — the only way to read a tile of a
    /// runtime-chosen shape.
    fn run_path(
        path: KernelPath,
        kc: usize,
        a: &[f64],
        b: &[f64],
        mr: usize,
        nr: usize,
    ) -> Vec<f64> {
        let (mr_t, nr_t) = path.tile();
        let mut c = vec![f64::NAN; mr_t * nr_t];
        // SAFETY: `path` came from `KernelPath::supported`; `c` spans the
        // mr × nr corner with ldc = mr_t.
        unsafe {
            match path {
                #[cfg(target_arch = "x86_64")]
                KernelPath::Avx512 => store_tile(
                    &avx512_16x8(kc, a, b),
                    1.0,
                    0.0,
                    c.as_mut_ptr(),
                    mr_t,
                    mr,
                    nr,
                ),
                #[cfg(target_arch = "x86_64")]
                KernelPath::Avx2Fma => store_tile(
                    &avx2fma_8x4(kc, a, b),
                    1.0,
                    0.0,
                    c.as_mut_ptr(),
                    mr_t,
                    mr,
                    nr,
                ),
                KernelPath::Portable => store_tile(
                    &portable_tile(kc, a, b),
                    1.0,
                    0.0,
                    c.as_mut_ptr(),
                    mr_t,
                    mr,
                    nr,
                ),
            }
        }
        c
    }

    #[test]
    fn micro_tile_matches_scalar_reference() {
        let paths = KernelPath::supported();
        #[cfg(target_arch = "x86_64")]
        if !paths.contains(&KernelPath::Avx512) {
            eprintln!("avx512f not detected on this host: the 16x8 AVX-512 path is skipped");
        }
        for path in paths {
            let (mr_t, nr_t) = path.tile();
            for kc in [0, 1, 7, KC, KC + 7] {
                let a: Vec<f64> = (0..kc * mr_t).map(|x| (x as f64 * 0.37).sin()).collect();
                let b: Vec<f64> = (0..kc * nr_t).map(|x| (x as f64 * 0.11).cos()).collect();
                let want = reference(kc, mr_t, nr_t, &a, &b);
                let tol = 1e-13 * (kc as f64).max(1.0);
                for mr in [1, mr_t / 2 + 1, mr_t - 1, mr_t] {
                    for nr in [1, nr_t / 2 + 1, nr_t - 1, nr_t] {
                        let got = run_path(path, kc, &a, &b, mr, nr);
                        for j in 0..nr_t {
                            for i in 0..mr_t {
                                let g = got[j * mr_t + i];
                                if i < mr && j < nr {
                                    let w = want[j * mr_t + i];
                                    assert!(
                                        (g - w).abs() <= tol,
                                        "{} kc {kc} mr {mr} nr {nr} ({i},{j}): {g} vs {w}",
                                        path.name()
                                    );
                                } else {
                                    assert!(g.is_nan(), "{} wrote outside the corner", path.name());
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn eight_by_four_paths_agree_bitwise() {
        // the AVX2 + FMA recompile must round exactly like the portable
        // body: hosts without AVX-512 keep one set of bits
        let kc = KC + 3;
        let a: Vec<f64> = (0..kc * MR).map(|x| (x as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..kc * NR).map(|x| (x as f64 * 0.3).cos()).collect();
        let want = portable_tile(kc, &a, &b);
        for path in KernelPath::supported() {
            if path.tile() == (MR, NR) {
                assert_eq!(
                    run_path(path, kc, &a, &b, MR, NR),
                    want.concat(),
                    "{}",
                    path.name()
                );
            }
        }
    }

    #[test]
    fn detect_is_the_first_supported_path() {
        assert_eq!(KernelPath::detect(), KernelPath::supported()[0]);
        assert!(KernelPath::supported().contains(&KernelPath::Portable));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_rejects_short_panels() {
        if !KernelPath::supported().contains(&KernelPath::Avx512) {
            eprintln!("avx512f not detected on this host: the 16x8 AVX-512 path is skipped");
            return;
        }
        let a = vec![0.0; 2 * MR_AVX512 - 1];
        let b = vec![0.0; 2 * NR_AVX512];
        // SAFETY: avx512f detected above
        let short = std::panic::catch_unwind(|| unsafe { avx512_16x8(2, &a, &b) });
        assert!(
            short.is_err(),
            "a short A panel must trip the bounds assert"
        );
    }

    #[test]
    fn store_tile_beta_policies() {
        let mut acc = [[0.0; MR]; NR];
        for (x, v) in acc.iter_mut().flatten().enumerate() {
            *v = x as f64;
        }
        let ldc = MR + 2;
        // beta = 0 overwrites even NaN
        let mut c = vec![f64::NAN; ldc * NR];
        unsafe { store_tile(&acc, 2.0, 0.0, c.as_mut_ptr(), ldc, MR, NR) };
        assert_eq!(c[0], 0.0);
        assert_eq!(c[ldc], 2.0 * acc[1][0]);
        // beta = 1 accumulates
        let mut c = vec![1.0; ldc * NR];
        unsafe { store_tile(&acc, 1.0, 1.0, c.as_mut_ptr(), ldc, MR, NR) };
        assert_eq!(c[1], 1.0 + acc[0][1]);
        // general beta scales
        let mut c = vec![2.0; ldc * NR];
        unsafe { store_tile(&acc, 1.0, 0.5, c.as_mut_ptr(), ldc, MR, NR) };
        assert_eq!(c[0], 1.0 + acc[0][0]);
        // partial corner leaves the rest untouched
        let mut c = vec![7.0; ldc * NR];
        unsafe { store_tile(&acc, 1.0, 0.0, c.as_mut_ptr(), ldc, 2, 1) };
        assert_eq!(c[2], 7.0, "row beyond mr untouched");
        assert_eq!(c[ldc], 7.0, "column beyond nr untouched");
    }
}
