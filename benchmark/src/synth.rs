//! The synthetic evaluator: stands in for a DBMS run that in production
//! is external and minutes long, so that what stays on the clock is the
//! tuner. The score is a smooth bowl over the unit knob space, so
//! model-based optimizers have structure to fit, times a measurement
//! noise of one part in ten thousand that the salt selects. Score and
//! metrics are a pure function of (configuration, salt). The noise is
//! what `--seed` varies, as the evaluation seed is for the simulated
//! DBMS: every seed hands the tuner different numbers, and what the
//! tuner costs and finds stays comparable from seed to seed.

use llamatune::session::{EvalResult, Trial, TrialExecutor};
use llamatune_optim::DEFAULT_METRIC_DIM;
use llamatune_space::{Config, ConfigSpace};

/// SplitMix64 step: the benchmark's only source of generated inputs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distance, per knob and in unit coordinates, between the server
/// default and the bowl's centre.
pub const CENTRE_OFFSET: f64 = 0.3;

/// Half-width of the multiplicative measurement noise.
pub const NOISE: f64 = 1e-4;

/// A free, never-failing objective over `space`.
#[derive(Debug, Clone)]
pub struct SyntheticEvaluator {
    space: ConfigSpace,
    /// Bowl centre per knob, in unit coordinates.
    centre: Vec<f64>,
    salt: u64,
}

impl SyntheticEvaluator {
    /// The evaluator the run's `--seed` selects.
    pub fn new(space: &ConfigSpace, salt: u64) -> Self {
        let default = space.config_to_unit(&space.default_config());
        // Above the default where that fits in the unit range, else below.
        let centre = default
            .iter()
            .map(|&d| if d + CENTRE_OFFSET <= 1.0 { d + CENTRE_OFFSET } else { d - CENTRE_OFFSET })
            .collect();
        SyntheticEvaluator { space: space.clone(), centre, salt }
    }

    /// Scores one configuration: `1000 · (2 − mean squared distance to
    /// the centre)` — positive, throughput-like, maximized at the centre
    /// — times `1 ± NOISE`.
    pub fn evaluate(&self, config: &Config) -> EvalResult {
        let mut metrics = vec![0.0; DEFAULT_METRIC_DIM];
        let (mut sq, mut hash) = (0.0, self.salt);
        for (i, (v, c)) in config.values().iter().zip(&self.centre).enumerate() {
            let u = self.space.value_to_unit(i, v);
            let d = u - c;
            sq += d * d;
            metrics[i % DEFAULT_METRIC_DIM] += d;
            hash = hash.rotate_left(7) ^ u.to_bits();
        }
        let noise = (splitmix(hash) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        let score = 1000.0 * (2.0 - sq / self.centre.len() as f64) * (1.0 + NOISE * noise);
        EvalResult { score: Some(score), metrics, ..Default::default() }
    }
}

impl TrialExecutor for &SyntheticEvaluator {
    fn run_batch(&mut self, trials: &[Trial]) -> Vec<EvalResult> {
        trials.iter().map(|t| self.evaluate(&t.config)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_space::catalog::postgres_v9_6;

    #[test]
    fn evaluation_is_a_pure_function_of_config_and_salt() {
        let space = postgres_v9_6();
        let cfg = space.config_from_unit(&vec![0.3; space.len()]);
        let a = SyntheticEvaluator::new(&space, 7).evaluate(&cfg);
        let b = SyntheticEvaluator::new(&space, 7).evaluate(&cfg);
        assert_eq!(a.score, b.score);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.len(), DEFAULT_METRIC_DIM);
        let other_salt = SyntheticEvaluator::new(&space, 8).evaluate(&cfg);
        assert_ne!(a.score, other_salt.score, "the salt selects the noise");
        let relative = (a.score.unwrap() - other_salt.score.unwrap()).abs() / a.score.unwrap();
        assert!(relative <= 2.0 * NOISE * 1.001, "and the noise stays small: {relative}");
        let other_cfg = space.config_from_unit(&vec![0.6; space.len()]);
        assert_ne!(a.score, SyntheticEvaluator::new(&space, 7).evaluate(&other_cfg).score);
    }

    #[test]
    fn scores_are_positive_and_never_fail() {
        let space = postgres_v9_6();
        let eval = SyntheticEvaluator::new(&space, 1);
        for u in [0.0, 0.5, 1.0] {
            let r = eval.evaluate(&space.config_from_unit(&vec![u; space.len()]));
            assert!(r.score.unwrap() > 999.0 && r.score.unwrap() < 2001.0);
            assert!(!r.is_retryable());
        }
    }
}
