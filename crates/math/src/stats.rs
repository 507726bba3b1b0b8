//! Summary statistics used by the engine (latency percentiles) and the
//! experiment harness (mean improvements with `[5%, 95%]` confidence
//! intervals across seeds, matching the paper's tables).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); `0.0` for fewer than two
/// samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Percentile with linear interpolation between closest ranks (the same
/// definition NumPy uses by default). `q` is in `[0, 100]`.
///
/// # Panics
/// Panics if `xs` is empty or `q` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q), "percentile out of range: {q}");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&sorted, q)
}

/// Percentile over an already-sorted slice; see [`percentile`].
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Percentile-bootstrap confidence interval for the mean of `xs`.
///
/// Returns `(lo, hi)` bounds at levels `q_lo` / `q_hi` (in percent, e.g.
/// `5.0` and `95.0` for the paper's `[5%, 95%]` intervals). Resampling is
/// driven by a simple deterministic LCG seeded with `seed` so results are
/// reproducible without threading a full RNG through the harness.
pub(crate) fn bootstrap_ci_mean(xs: &[f64], q_lo: f64, q_hi: f64, seed: u64) -> (f64, f64) {
    assert!(!xs.is_empty());
    if xs.len() == 1 {
        return (xs[0], xs[0]);
    }
    const RESAMPLES: usize = 2000;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let n = xs.len();
    let mut means = Vec::with_capacity(RESAMPLES);
    for _ in 0..RESAMPLES {
        let mut acc = 0.0;
        for _ in 0..n {
            let idx = (next() % n as u64) as usize;
            acc += xs[idx];
        }
        means.push(acc / n as f64);
    }
    means.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (percentile_sorted(&means, q_lo), percentile_sorted(&means, q_hi))
}

/// Streaming mean / variance accumulator (Welford's algorithm). Used for the
/// DDPG state normalizer and engine-side running metrics.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (`0.0` if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (`0.0` with fewer than two observations).
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// A five-number-ish summary used throughout the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub mean: f64,
    pub ci_lo: f64,
    pub ci_hi: f64,
}

impl Summary {
    /// Mean with a percentile-bootstrap `[5%, 95%]` CI, like the paper's
    /// tables.
    pub fn from_samples(xs: &[f64]) -> Self {
        let (ci_lo, ci_hi) = bootstrap_ci_mean(xs, 5.0, 95.0, 0xC0FFEE);
        Summary { mean: mean(xs), ci_lo, ci_hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_std_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample std of this classic data set is sqrt(32/7).
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        // p95 of 1..=4 with linear interpolation: rank 2.85 -> 3.85.
        assert!((percentile(&xs, 95.0) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 95.0), 42.0);
    }

    #[test]
    fn bootstrap_ci_brackets_mean_and_is_deterministic() {
        let xs = [10.0, 11.0, 9.0, 10.5, 9.5];
        let (lo1, hi1) = bootstrap_ci_mean(&xs, 5.0, 95.0, 7);
        let (lo2, hi2) = bootstrap_ci_mean(&xs, 5.0, 95.0, 7);
        assert_eq!((lo1, hi1), (lo2, hi2));
        assert!(lo1 <= mean(&xs));
        assert!(hi1 >= mean(&xs));
        assert!(lo1 >= 9.0 && hi1 <= 11.0);
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [1.0, 2.0, 3.5, -1.0, 0.25];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), 5);
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.std_dev() - std_dev(&xs)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn percentile_is_monotone_in_q(mut xs in proptest::collection::vec(-100.0f64..100.0, 1..40),
                                       q1 in 0.0f64..100.0, q2 in 0.0f64..100.0) {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(percentile_sorted(&xs, qa) <= percentile_sorted(&xs, qb) + 1e-12);
        }

        #[test]
        fn percentile_within_range(xs in proptest::collection::vec(-100.0f64..100.0, 1..40),
                                   q in 0.0f64..100.0) {
            let p = percentile(&xs, q);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p >= lo - 1e-12 && p <= hi + 1e-12);
        }

        #[test]
        fn bootstrap_ci_contains_only_plausible_values(
            xs in proptest::collection::vec(0.0f64..10.0, 2..20), seed in 0u64..1000) {
            let (lo, hi) = bootstrap_ci_mean(&xs, 5.0, 95.0, seed);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(lo >= min - 1e-9 && hi <= max + 1e-9);
            prop_assert!(lo <= hi);
        }
    }
}
