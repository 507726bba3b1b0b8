//! Order statistics with the benchmark's sample-count rules.
//!
//! A percentile is reported only when at least ten samples lie beyond
//! it (choosing-metrics §1): the median needs 20 samples to be a
//! percentile claim, p95 needs 200. Below that the value would be set
//! by a handful of outliers and would not repeat.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Smallest sample count for which the `q`-quantile may be reported.
pub fn min_samples(q: f64) -> usize {
    let tail = (1.0 - q).min(q).max(f64::EPSILON);
    (TAIL_SAMPLES as f64 / tail).ceil() as usize
}

/// The `q`-quantile (`llamatune_math::percentile`: linear interpolation
/// between closest ranks), or `None` when fewer than [`min_samples`]
/// were taken.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    (samples.len() >= min_samples(q)).then(|| llamatune_math::percentile(samples, q * 100.0))
}

/// Median of any non-empty sample set, with no tail claim made: for
/// per-call timings and per-pass aggregates.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| llamatune_math::percentile(samples, 50.0))
}

/// First quartile, median and third quartile by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)` — the rule the driver
/// applies to a result set, so `compare` reads spreads the same way.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_refused_under_200_samples() {
        let few: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(percentile(&few, 0.95), None);
        let enough: Vec<f64> = (0..=200).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.95), Some(190.0));
    }

    #[test]
    fn a_p50_claim_needs_twenty_samples() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(percentile(&[1.0; 19], 0.5), None);
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.5));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
    }
}
