//! Order statistics for timings: the median and the tail percentile.
//!
//! A timing is reported as its median and as the *highest percentile
//! that has at least ten samples beyond it*, together with the sample
//! count. The tail percentile is chosen from the ladder 99.9, 99, 98,
//! …, 50; with fewer than 20 samples no rung qualifies and the median
//! stands in for the tail (the result file says so).

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The median of `v` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile `p` (in per-mille, 0 < p ≤ 1000) of `v`.
pub fn percentile_permille(v: &[f64], p: usize) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let s = sorted(v);
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of per-mille percentile `p` among `n` samples.
fn rank(n: usize, p: usize) -> usize {
    (n * p).div_ceil(1000).clamp(1, n)
}

/// The highest percentile of the ladder (in per-mille) that leaves at
/// least [`TAIL_SAMPLES_BEYOND`] of `n` samples beyond its rank, or
/// `None` when even the median does not.
pub fn tail_permille(n: usize) -> Option<usize> {
    std::iter::once(999)
        .chain((50..=99).rev().map(|p| p * 10))
        .find(|&p| n >= TAIL_SAMPLES_BEYOND && n - rank(n, p) >= TAIL_SAMPLES_BEYOND)
}

/// Median, tail percentile and sample count of one timing.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile used, in per-mille (500 when the median
    /// stands in for a missing tail).
    pub tail_permille: usize,
    /// Value at the tail percentile.
    pub tail: f64,
}

impl Summary {
    /// Summarize `v`.
    pub fn of(v: &[f64]) -> Summary {
        let p = tail_permille(v.len()).unwrap_or(500);
        Summary {
            n: v.len(),
            p50: median(v),
            tail_permille: p,
            tail: percentile_permille(v, p),
        }
    }

    /// `p50 … pXX` label for the result file, e.g. `p99 (n=2480)`.
    pub fn describe(&self) -> String {
        let p = self.tail_permille;
        let label = if p.is_multiple_of(10) {
            format!("p{}", p / 10)
        } else {
            format!("p{}.{}", p / 10, p % 10)
        };
        format!(
            "median {:.6}, {label} {:.6} (n={})",
            self.p50, self.tail, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // the rule: highest ladder rung with >= 10 samples beyond it
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(999), Some(980));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        for n in 20..3000 {
            let p = tail_permille(n).unwrap();
            assert!(n - rank(n, p) >= TAIL_SAMPLES_BEYOND, "n={n} p={p}");
            // the next rung up would leave fewer than ten beyond
            let up = if p >= 990 { 999 } else { p + 10 };
            if up != p {
                assert!(n - rank(n, up) < TAIL_SAMPLES_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_permille(&v, 990), 99.0);
        assert_eq!(percentile_permille(&v, 500), 50.0);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.tail_permille, s.tail), (100, 900, 90.0));
    }
}
