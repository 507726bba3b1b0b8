//! Early-stopping policies for the deployment scenario (Appendix A).
//!
//! A policy `(x, k)` terminates the session when `k` consecutive
//! iterations fail to improve the best performance by at least `x` percent
//! in aggregate.

/// An `(min-improv %, patience)` early-stopping policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStopPolicy {
    /// Minimum aggregate best-performance improvement over the window, in
    /// percent.
    pub min_improvement_pct: f64,
    /// Window length in iterations.
    pub patience: usize,
}

impl EarlyStopPolicy {
    /// The paper's three evaluated configurations.
    pub const HALF_PCT_10: EarlyStopPolicy =
        EarlyStopPolicy { min_improvement_pct: 0.5, patience: 10 };
    pub const ONE_PCT_10: EarlyStopPolicy =
        EarlyStopPolicy { min_improvement_pct: 1.0, patience: 10 };
    pub const ONE_PCT_20: EarlyStopPolicy =
        EarlyStopPolicy { min_improvement_pct: 1.0, patience: 20 };

    /// Decides whether to stop given the best-so-far curve (one entry per
    /// completed tuning iteration, monotone non-decreasing).
    pub(crate) fn should_stop(&self, best_curve: &[f64]) -> bool {
        self.stop_index(best_curve).is_some_and(|i| i == best_curve.len())
    }

    /// The first iteration count (1-based) at which the policy would have
    /// stopped a session with this best-so-far curve, or `None` if it
    /// never fires. Applying this to a recorded history reproduces the
    /// online behaviour exactly (Table 11 is computed this way).
    pub fn stop_index(&self, best_curve: &[f64]) -> Option<usize> {
        if self.patience == 0 {
            return Some(1.min(best_curve.len()));
        }
        for end in self.patience..best_curve.len() {
            let reference = best_curve[end - self.patience];
            let current = best_curve[end];
            let improvement_pct = if reference.abs() < 1e-12 {
                if current > reference {
                    f64::INFINITY
                } else {
                    0.0
                }
            } else {
                (current - reference) / reference.abs() * 100.0
            };
            if improvement_pct < self.min_improvement_pct {
                return Some(end + 1);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_curve_stops_after_patience() {
        let policy = EarlyStopPolicy::ONE_PCT_10;
        let curve = vec![100.0; 30];
        assert_eq!(policy.stop_index(&curve), Some(11));
    }

    #[test]
    fn steadily_improving_curve_never_stops() {
        let policy = EarlyStopPolicy::ONE_PCT_10;
        // +5% every iteration.
        let curve: Vec<f64> = (0..40).map(|i| 100.0 * 1.05f64.powi(i)).collect();
        assert_eq!(policy.stop_index(&curve), None);
        assert!(!policy.should_stop(&curve));
    }

    #[test]
    fn improvement_below_threshold_stops() {
        let policy = EarlyStopPolicy { min_improvement_pct: 2.0, patience: 5 };
        // +0.1% per iteration: 5-iteration aggregate ~0.5% < 2%.
        let curve: Vec<f64> = (0..20).map(|i| 100.0 * 1.001f64.powi(i)).collect();
        assert_eq!(policy.stop_index(&curve), Some(6));
    }

    #[test]
    fn more_patience_stops_later() {
        let curve: Vec<f64> =
            (0..15).map(|i| if i < 8 { 100.0 + i as f64 * 2.0 } else { 114.0 }).collect();
        let impatient = EarlyStopPolicy { min_improvement_pct: 1.0, patience: 3 };
        let patient = EarlyStopPolicy { min_improvement_pct: 1.0, patience: 10 };
        let early = impatient.stop_index(&curve);
        let late = patient.stop_index(&curve);
        match (early, late) {
            (Some(e), Some(l)) => assert!(e < l, "{e} vs {l}"),
            (Some(_), None) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lower_threshold_is_more_lenient() {
        // +0.7%-per-window curve: stops under a 1% threshold, survives 0.5%.
        let curve: Vec<f64> = (0..30).map(|i| 100.0 * 1.0007f64.powi(i)).collect();
        let strict = EarlyStopPolicy { min_improvement_pct: 1.0, patience: 10 };
        let lenient = EarlyStopPolicy { min_improvement_pct: 0.5, patience: 10 };
        let s = strict.stop_index(&curve).unwrap();
        if let Some(l) = lenient.stop_index(&curve) {
            assert!(l >= s)
        }
    }

    #[test]
    fn short_curves_do_not_stop() {
        let policy = EarlyStopPolicy::ONE_PCT_10;
        assert_eq!(policy.stop_index(&[100.0, 100.0, 100.0]), None);
    }

    #[test]
    fn negative_scores_handled() {
        // Negated-latency curves improve toward zero.
        let policy = EarlyStopPolicy { min_improvement_pct: 1.0, patience: 5 };
        let flat: Vec<f64> = vec![-50.0; 12];
        assert_eq!(policy.stop_index(&flat), Some(6));
        let improving: Vec<f64> = (0..12).map(|i| -50.0 + i as f64 * 2.0).collect();
        assert_eq!(policy.stop_index(&improving), None);
    }
}
