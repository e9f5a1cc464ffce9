//! Workload inputs, generated from the workload seed before any timed
//! region. The program under test receives only the generated
//! `DenseMatrix` values or `JobSpec`s.

use calu::matrix::{gen, DenseMatrix};
use calu::{JobClass, JobSpec};
use calu_rand::Rng;

/// Derive an independent sub-seed for input `index` of `stream`
/// (SplitMix64 finalizer over the three words).
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams keep the inputs of different workloads unrelated.
const SOLO_STREAM: u64 = 1;
const BATCH_STREAM: u64 = 2;
const SERVE_STREAM: u64 = 3;

/// The solo workloads' `n × n` input.
pub fn solo_matrix(n: usize, seed: u64) -> DenseMatrix {
    gen::uniform(n, n, sub_seed(seed, SOLO_STREAM, n as u64))
}

/// Sizes of one batch sweep, cycling through a mix that straddles the
/// pool's co-scheduling cutoff (384).
pub const BATCH_SIZES: [usize; 8] = [64, 96, 128, 192, 256, 384, 512, 768];
/// Matrices in one batch sweep.
pub const BATCH_ITEMS: usize = 48;

/// The batch sweep's inputs: `BATCH_ITEMS` dense LU matrices.
pub fn batch_matrices(seed: u64) -> Vec<DenseMatrix> {
    (0..BATCH_ITEMS)
        .map(|i| {
            let n = BATCH_SIZES[i % BATCH_SIZES.len()];
            gen::uniform(n, n, sub_seed(seed, BATCH_STREAM, i as u64))
        })
        .collect()
}

/// Seeded right-hand side for the residual check of one output.
pub fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x0005_EED0_FB0B);
    (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect()
}

/// Order of every served job's matrix.
pub const SERVE_N: usize = 256;

/// One served job of an open-loop schedule.
#[derive(Debug, Clone)]
pub struct ServeJob {
    /// When the job is due, seconds after the phase starts.
    pub due: f64,
    /// Seed of the job's generator matrix (and of its check vector).
    pub seed: u64,
    /// Tiled Cholesky on an SPD matrix instead of CALU.
    pub cholesky: bool,
    /// Priority class.
    pub class: JobClass,
    /// Whether the full `cholesky_residual` check runs on this output
    /// (a seeded sample of the Cholesky jobs).
    pub full_check: bool,
}

impl ServeJob {
    /// The job as the service receives it.
    pub fn spec(&self) -> JobSpec {
        if self.cholesky {
            JobSpec::spd_uniform(SERVE_N, self.seed)
        } else {
            JobSpec::uniform(SERVE_N, SERVE_N, self.seed)
        }
    }

    /// The job's matrix, regenerated from its spec seed for checking.
    pub fn matrix(&self) -> DenseMatrix {
        if self.cholesky {
            gen::spd_uniform(SERVE_N, self.seed)
        } else {
            gen::uniform(SERVE_N, SERVE_N, self.seed)
        }
    }
}

/// Full Cholesky residual checks per phase, at most.
const FULL_CHECKS_PER_PHASE: usize = 8;

/// A seeded Poisson schedule of `rate` jobs/s over `secs` seconds.
/// Every eighth job is Cholesky; classes rotate interactive / batch /
/// background.
pub fn serve_schedule(seed: u64, phase: u64, rate: f64, secs: f64) -> Vec<ServeJob> {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, SERVE_STREAM, phase));
    let classes = [JobClass::Interactive, JobClass::Batch, JobClass::Background];
    let mut jobs = Vec::new();
    let mut full_checks = 0;
    let mut t = 0.0;
    loop {
        // exponential inter-arrival gap; 1 - u lies in (0, 1]
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= secs {
            return jobs;
        }
        let i = jobs.len();
        let cholesky = i % 8 == 7;
        let full_check =
            cholesky && full_checks < FULL_CHECKS_PER_PHASE && rng.next_u64().is_multiple_of(4);
        full_checks += usize::from(full_check);
        jobs.push(ServeJob {
            due: t,
            seed: sub_seed(seed, SERVE_STREAM + 1 + phase, i as u64),
            cholesky,
            class: classes[i % 3],
            full_check,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(a: &DenseMatrix) -> Vec<u64> {
        a.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn same_seed_gives_bitwise_identical_inputs() {
        assert_eq!(bits(&solo_matrix(64, 9)), bits(&solo_matrix(64, 9)));
        let (x, y) = (batch_matrices(9), batch_matrices(9));
        assert_eq!(x.len(), BATCH_ITEMS);
        for (a, b) in x.iter().zip(&y) {
            assert_eq!(bits(a), bits(b));
        }
        let (s, t) = (
            serve_schedule(9, 0, 250.0, 2.0),
            serve_schedule(9, 0, 250.0, 2.0),
        );
        assert_eq!(s.len(), t.len());
        for (a, b) in s.iter().zip(&t) {
            assert_eq!(a.due.to_bits(), b.due.to_bits());
            assert_eq!(
                (a.seed, a.cholesky, a.full_check),
                (b.seed, b.cholesky, b.full_check)
            );
            assert_eq!(a.class, b.class);
            assert_eq!(bits(&a.matrix()), bits(&b.matrix()));
        }
        let r: Vec<u64> = rhs(100, 3).iter().map(|v| v.to_bits()).collect();
        let q: Vec<u64> = rhs(100, 3).iter().map(|v| v.to_bits()).collect();
        assert_eq!(r, q);
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(bits(&solo_matrix(64, 1)), bits(&solo_matrix(64, 2)));
        let (s, t) = (
            serve_schedule(1, 0, 250.0, 1.0),
            serve_schedule(2, 0, 250.0, 1.0),
        );
        assert_ne!(s[0].due.to_bits(), t[0].due.to_bits());
    }

    #[test]
    fn schedule_has_the_stated_mix_and_rate() {
        let jobs = serve_schedule(5, 1, 400.0, 20.0);
        let rate = jobs.len() as f64 / 20.0;
        assert!((rate - 400.0).abs() < 400.0 * 0.05, "rate {rate}");
        let chol = jobs.iter().filter(|j| j.cholesky).count();
        assert_eq!(chol, jobs.len() / 8);
        let checks = jobs.iter().filter(|j| j.full_check).count();
        assert!(checks > 0 && checks <= FULL_CHECKS_PER_PHASE);
        assert!(jobs.windows(2).all(|w| w[0].due < w[1].due));
    }
}
