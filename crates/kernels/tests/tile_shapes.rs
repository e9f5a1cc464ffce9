//! The BLAS-3 entry points the factorization DAGs call, checked against
//! their sequential oracles at the tile shapes those DAGs issue: b = 16,
//! 32 and 100, plus ragged edges that cut through every register tile
//! (100 rows is 6·16 + 4 and 12·8 + 4; 100 columns is 12·8 + 4 and
//! 25·4). Whatever micro-kernel path the host selected runs here, through
//! one reused scratch arena like an executor worker's.

use calu_kernels::gemm::{dgemm_nt_raw_packed, KC};
use calu_kernels::microkernel::KernelPath;
use calu_kernels::trsm::{
    dtrsm_left_lower_unit_unblocked, dtrsm_right_lower_trans_unblocked, dtrsm_right_upper_unblocked,
};
use calu_kernels::{
    dgemm_jki, dgemm_packed, dsyrk_ln_packed, dtrsm_left_lower_unit_packed,
    dtrsm_right_lower_trans_packed, dtrsm_right_upper_packed, GemmScratch,
};
use calu_matrix::{gen, DenseMatrix};

/// `(m, n, k)` of the GEMM-shaped tasks: square tiles, then ragged edges.
const SHAPES: &[(usize, usize, usize)] = &[
    (16, 16, 16),
    (32, 32, 32),
    (100, 100, 100),
    (100, 36, 100),
    (36, 100, 16),
    (100, 100, 4),
    (17, 9, 33),
    (15, 7, 100),
    (1, 1, 1),
    (100, 1, KC + 5),
];

/// `(m, n)` of the TRSM right-hand sides and `(n, k)` of the SYRKs.
const TRI_SHAPES: &[(usize, usize)] = &[
    (16, 16),
    (32, 32),
    (100, 100),
    (100, 36),
    (36, 100),
    (17, 9),
];

fn scratch() -> GemmScratch {
    GemmScratch::sized_for(100, 100, 100)
}

fn jki(alpha: f64, a: &DenseMatrix, b: &DenseMatrix, beta: f64, c: &mut DenseMatrix) {
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    let ldc = c.ld();
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
        c.as_mut_slice(),
        ldc,
    );
}

fn transpose(x: &DenseMatrix) -> DenseMatrix {
    DenseMatrix::from_fn(x.cols(), x.rows(), |i, j| x.get(j, i))
}

fn unit_lower(n: usize, seed: u64) -> DenseMatrix {
    let r = gen::uniform(n, n, seed);
    DenseMatrix::from_fn(n, n, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Equal => 1.0,
        std::cmp::Ordering::Greater => 0.3 * r.get(i, j),
        std::cmp::Ordering::Less => 0.0,
    })
}

fn upper(n: usize, seed: u64) -> DenseMatrix {
    let r = gen::uniform(n, n, seed);
    DenseMatrix::from_fn(n, n, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Equal => 2.0 + r.get(i, j).abs(),
        std::cmp::Ordering::Less => 0.3 * r.get(i, j),
        std::cmp::Ordering::Greater => 0.0,
    })
}

#[test]
fn host_path_is_reported() {
    let path = KernelPath::detect();
    println!(
        "micro-kernel path: {} (tile {:?})",
        path.name(),
        path.tile()
    );
    assert!(KernelPath::supported().contains(&path));
}

#[test]
fn dgemm_packed_matches_jki_at_tile_shapes() {
    let mut s = scratch();
    for (idx, &(m, n, k)) in SHAPES.iter().enumerate() {
        let seed = 10 * idx as u64;
        let a = gen::uniform(m, k, seed);
        let b = gen::uniform(k, n, seed + 1);
        let c = gen::uniform(m, n, seed + 2);
        for (alpha, beta) in [(-1.0, 1.0), (1.0, 0.0), (0.5, -2.0)] {
            let mut got = c.clone();
            let ld = got.ld();
            dgemm_packed(
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
                &mut s,
            );
            let mut want = c.clone();
            jki(alpha, &a, &b, beta, &mut want);
            assert!(
                got.approx_eq(&want, 1e-13 * k as f64),
                "({m},{n},{k}) α {alpha} β {beta}"
            );
        }
    }
}

#[test]
fn dgemm_nt_raw_packed_matches_jki_at_tile_shapes() {
    let mut s = scratch();
    for (idx, &(m, n, k)) in SHAPES.iter().enumerate() {
        let seed = 10 * idx as u64 + 3;
        let a = gen::uniform(m, k, seed);
        let b = gen::uniform(n, k, seed + 1); // stored n×k
        let c = gen::uniform(m, n, seed + 2);
        let mut got = c.clone();
        let ld = got.ld();
        // SAFETY: every block is a whole, distinct DenseMatrix
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
                got.as_mut_slice().as_mut_ptr(),
                ld,
                &mut s,
            );
        }
        let mut want = c.clone();
        jki(-1.0, &a, &transpose(&b), 1.0, &mut want);
        assert!(got.approx_eq(&want, 1e-13 * k as f64), "({m},{n},{k})");
    }
}

#[test]
fn trsm_left_lower_unit_matches_unblocked_at_tile_shapes() {
    let mut s = scratch();
    for &(m, n) in TRI_SHAPES {
        let l = unit_lower(m, m as u64);
        let b0 = gen::uniform(m, n, 7);
        let (mut got, mut want) = (b0.clone(), b0.clone());
        let ld = got.ld();
        dtrsm_left_lower_unit_packed(m, n, l.as_slice(), l.ld(), got.as_mut_slice(), ld, &mut s);
        dtrsm_left_lower_unit_unblocked(m, n, l.as_slice(), l.ld(), want.as_mut_slice(), ld);
        assert!(got.approx_eq(&want, 1e-11), "({m},{n})");
    }
}

#[test]
fn trsm_right_upper_matches_unblocked_at_tile_shapes() {
    let mut s = scratch();
    for &(m, n) in TRI_SHAPES {
        let u = upper(n, n as u64);
        let b0 = gen::uniform(m, n, 8);
        let (mut got, mut want) = (b0.clone(), b0.clone());
        let ld = got.ld();
        dtrsm_right_upper_packed(m, n, u.as_slice(), u.ld(), got.as_mut_slice(), ld, &mut s);
        dtrsm_right_upper_unblocked(m, n, u.as_slice(), u.ld(), want.as_mut_slice(), ld);
        assert!(got.approx_eq(&want, 1e-11), "({m},{n})");
    }
}

#[test]
fn trsm_right_lower_trans_matches_unblocked_at_tile_shapes() {
    let mut s = scratch();
    for &(m, n) in TRI_SHAPES {
        // Lᵀ of a well-conditioned upper factor is a non-unit lower one
        let l = transpose(&upper(n, n as u64 + 1));
        let b0 = gen::uniform(m, n, 9);
        let (mut got, mut want) = (b0.clone(), b0.clone());
        let ld = got.ld();
        dtrsm_right_lower_trans_packed(m, n, l.as_slice(), l.ld(), got.as_mut_slice(), ld, &mut s);
        dtrsm_right_lower_trans_unblocked(m, n, l.as_slice(), l.ld(), want.as_mut_slice(), ld);
        assert!(got.approx_eq(&want, 1e-11), "({m},{n})");
    }
}

#[test]
fn dsyrk_ln_packed_matches_jki_lower_triangle_at_tile_shapes() {
    let mut s = scratch();
    for &(n, k) in TRI_SHAPES {
        let a = gen::uniform(n, k, 11);
        let c = gen::uniform(n, n, 12);
        let mut got = c.clone();
        let ld = got.ld();
        dsyrk_ln_packed(
            n,
            k,
            -1.0,
            a.as_slice(),
            a.ld(),
            1.0,
            got.as_mut_slice(),
            ld,
            &mut s,
        );
        let mut want = c.clone();
        jki(-1.0, &a, &transpose(&a), 1.0, &mut want);
        for j in 0..n {
            for i in 0..n {
                let (g, w) = (got.get(i, j), want.get(i, j));
                if i >= j {
                    assert!((g - w).abs() <= 1e-13 * k as f64, "({n},{k}) at ({i},{j})");
                } else {
                    assert_eq!(g, c.get(i, j), "({n},{k}) strictly-upper ({i},{j}) touched");
                }
            }
        }
    }
}
