//! Correctness checks on every output, run outside the timed regions.
//!
//! LU outputs get the HPL-style scaled residual
//! `‖A·x − b‖∞ / (‖A‖∞ · ‖x‖∞ · n · ε)` with `x` from
//! `Factorization::solve` on a seeded `b` — O(n²) per output. Cholesky
//! outputs get the same residual from two triangular solves with the
//! packed factor `L`, and a seeded sample of them the full
//! `Factorization::cholesky_residual`.

use calu::core::Factorization;
use calu::matrix::DenseMatrix;

/// A scaled residual at or below this passes (HPL's threshold).
pub const SCALED_RESIDUAL_LIMIT: f64 = 16.0;

/// `x` solving `A·x = b` through LU factors.
pub fn lu_solve(f: &Factorization, b: &[f64]) -> Vec<f64> {
    let rhs = DenseMatrix::from_col_major(b.len(), 1, b.to_vec())
        .expect("a column vector has a valid shape");
    f.solve(&rhs).into_vec()
}

/// `x` solving `L·Lᵀ·x = b`, with `L` read from the lower triangle of
/// the packed Cholesky storage.
pub fn cholesky_solve(f: &Factorization, b: &[f64]) -> Vec<f64> {
    let l = &f.lu;
    let n = b.len();
    let mut x = b.to_vec();
    for j in 0..n {
        x[j] /= l.get(j, j);
        let xj = x[j];
        for (i, xi) in x.iter_mut().enumerate().skip(j + 1) {
            *xi -= l.get(i, j) * xj;
        }
    }
    for j in (0..n).rev() {
        let mut s = x[j];
        for (i, xi) in x.iter().enumerate().skip(j + 1) {
            s -= l.get(i, j) * xi;
        }
        x[j] = s / l.get(j, j);
    }
    x
}

/// HPL-style scaled residual of `x` for `A·x = b`; `inf` when any entry
/// is not finite.
pub fn scaled_residual(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
    let n = a.rows();
    let mut r = b.iter().map(|v| -v).collect::<Vec<f64>>();
    let mut row_abs = vec![0.0f64; n];
    for (j, &xj) in x.iter().enumerate() {
        for (i, v) in a.col(j).iter().enumerate() {
            r[i] += v * xj;
            row_abs[i] += v.abs();
        }
    }
    let inf_norm = |v: &[f64]| v.iter().fold(0.0f64, |m, e| m.max(e.abs()));
    let num = inf_norm(&r);
    let den = inf_norm(&row_abs) * inf_norm(x) * n as f64 * f64::EPSILON;
    if !num.is_finite() || !den.is_finite() || x.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    num / den.max(f64::MIN_POSITIVE)
}

/// Whether a scaled residual passes.
pub fn passes(scaled: f64) -> bool {
    scaled <= SCALED_RESIDUAL_LIMIT
}

/// `cholesky_residual` (relative Frobenius) scaled by `n·ε`, so it reads
/// on the same scale as [`scaled_residual`].
pub fn scaled_cholesky_residual(f: &Factorization, a: &DenseMatrix) -> f64 {
    let r = f.cholesky_residual(a);
    if r.is_finite() {
        r / (a.rows() as f64 * f64::EPSILON)
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu::matrix::gen;
    use calu::{Algorithm, MatrixSource, Solver};

    fn factor(a: DenseMatrix, algorithm: Algorithm) -> Factorization {
        Solver::new(MatrixSource::Dense(a))
            .tile(16)
            .threads(2)
            .algorithm(algorithm)
            .verify(false)
            .run()
            .expect("factorization")
            .factorization
            .expect("threaded runs return factors")
    }

    #[test]
    fn correct_lu_passes_and_a_corrupted_one_fails() {
        let a = gen::uniform(96, 96, 4);
        let b = crate::inputs::rhs(96, 4);
        let mut f = factor(a.clone(), Algorithm::Calu);
        assert!(passes(scaled_residual(&a, &lu_solve(&f, &b), &b)));
        let v = f.lu.get(40, 50);
        f.lu.set(40, 50, v + 1e-3);
        assert!(!passes(scaled_residual(&a, &lu_solve(&f, &b), &b)));
    }

    #[test]
    fn correct_cholesky_passes_both_checks() {
        let a = gen::spd_uniform(80, 5);
        let b = crate::inputs::rhs(80, 5);
        let mut f = factor(a.clone(), Algorithm::Cholesky);
        assert!(passes(scaled_residual(&a, &cholesky_solve(&f, &b), &b)));
        assert!(passes(scaled_cholesky_residual(&f, &a)));
        f.lu.set(70, 3, f.lu.get(70, 3) + 1e-3);
        assert!(!passes(scaled_residual(&a, &cholesky_solve(&f, &b), &b)));
        assert!(!passes(scaled_cholesky_residual(&f, &a)));
    }
}
