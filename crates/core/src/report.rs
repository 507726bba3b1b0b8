//! Evaluation metrics (Section 6.1): final performance improvement,
//! time-to-optimal speedup, and the iteration-vs-iteration convergence map
//! of Figure 10.

/// Final performance improvement of `candidate` over `baseline`, in
/// percent, comparing best scores at the end of tuning.
/// Positive = candidate better. Works for negated-latency scores too
/// (a less-negative score is an improvement).
pub fn final_improvement_pct(baseline_best: f64, candidate_best: f64) -> f64 {
    (candidate_best - baseline_best) / baseline_best.abs().max(1e-12) * 100.0
}

/// The earliest candidate iteration whose best-so-far reaches (or exceeds)
/// the baseline's *final* best — the paper's time-to-optimal. Returns
/// `None` when the candidate never catches up. Curves are best-so-far per
/// tuning iteration (index 0 = first tuning iteration).
pub fn time_to_optimal(candidate_curve: &[f64], baseline_final_best: f64) -> Option<usize> {
    candidate_curve.iter().position(|&v| v >= baseline_final_best).map(|i| i + 1)
}

/// Time-to-optimal speedup: baseline length over catch-up iteration.
pub fn time_to_optimal_speedup(candidate_curve: &[f64], baseline_curve: &[f64]) -> Option<f64> {
    let baseline_final = *baseline_curve.last()?;
    let iter = time_to_optimal(candidate_curve, baseline_final)?;
    Some(baseline_curve.len() as f64 / iter as f64)
}

/// Figure 10's convergence map: for every candidate iteration `i`, the
/// earliest baseline iteration achieving the same (or better) best score;
/// `None` entries mean the baseline never gets there.
pub fn convergence_map(candidate_curve: &[f64], baseline_curve: &[f64]) -> Vec<Option<usize>> {
    candidate_curve
        .iter()
        .map(|&target| baseline_curve.iter().position(|&b| b >= target).map(|i| i + 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_pct_signs() {
        assert!((final_improvement_pct(100.0, 120.0) - 20.0).abs() < 1e-12);
        assert!((final_improvement_pct(100.0, 90.0) + 10.0).abs() < 1e-12);
        // Latency scores (negated): -40ms vs -50ms baseline is +20%.
        assert!((final_improvement_pct(-50.0, -40.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn time_to_optimal_finds_first_crossing() {
        let candidate = [10.0, 50.0, 90.0, 95.0];
        assert_eq!(time_to_optimal(&candidate, 90.0), Some(3));
        assert_eq!(time_to_optimal(&candidate, 10.0), Some(1));
        assert_eq!(time_to_optimal(&candidate, 99.0), None);
    }

    #[test]
    fn speedup_matches_paper_semantics() {
        // Baseline needs 100 iterations to reach 90; candidate reaches it
        // at iteration 9 -> 11.1x speedup.
        let mut baseline = vec![0.0f64; 100];
        baseline[99] = 90.0;
        for i in 1..100 {
            baseline[i] = baseline[i].max(baseline[i - 1]);
        }
        let mut candidate = vec![0.0f64; 100];
        for (i, c) in candidate.iter_mut().enumerate() {
            *c = if i >= 8 { 91.0 } else { 0.0 };
        }
        let s = time_to_optimal_speedup(&candidate, &baseline).unwrap();
        assert!((s - 100.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_none_when_never_catching_up() {
        let baseline = [1.0, 2.0, 3.0];
        let candidate = [0.5, 1.0, 2.0];
        assert_eq!(time_to_optimal_speedup(&candidate, &baseline), None);
    }

    #[test]
    fn convergence_map_is_monotone_for_monotone_curves() {
        let candidate = [1.0, 2.0, 3.0, 4.0];
        let baseline = [0.5, 1.5, 2.5, 3.5, 4.5];
        let map = convergence_map(&candidate, &baseline);
        assert_eq!(map, vec![Some(2), Some(3), Some(4), Some(5)]);
        // Larger candidate targets need later baseline iterations.
        let positions: Vec<usize> = map.into_iter().flatten().collect();
        assert!(positions.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn convergence_map_none_beyond_baseline_best() {
        let candidate = [5.0, 10.0];
        let baseline = [6.0, 7.0];
        let map = convergence_map(&candidate, &baseline);
        assert_eq!(map, vec![Some(1), None]);
    }
}
