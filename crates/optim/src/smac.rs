//! SMAC: Sequential Model-based Algorithm Configuration (Hutter, Hoos &
//! Leyton-Brown, 2011) — random-forest BO with Expected Improvement,
//! local search around incumbents, and interleaved random suggestions.
//!
//! # Settings
//!
//! SMAC runs at one fixed setting: LlamaTune tunes the search space, not
//! the optimizer it wraps. Each value is a private constant beside the
//! code that reads it:
//!
//! * `N_RANDOM_CANDIDATES` = 1 500 uniform configurations scored by EI
//!   per suggestion;
//! * `N_LOCAL_STARTS` = 5 best incumbents, each hill-climbed for
//!   `LOCAL_STEPS` = 20 one-exchange steps (SMAC's local search);
//! * `RANDOM_INTERLEAVE` = 9: every 9th suggestion is uniformly random,
//!   the paper's "random configurations proposed periodically" (§4.1);
//! * `XI` = 0.01, the EI exploration margin;
//! * the surrogate is [`RandomForest::fit`], at the settings listed in
//!   [`crate::rf`].

use crate::rf::RandomForest;
use crate::spec::{expected_improvement, Observation, Optimizer, ParamKind, SearchSpec};
use llamatune_math::Normal;
use llamatune_obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Random candidates scored by EI per suggestion.
const N_RANDOM_CANDIDATES: usize = 1_500;
/// Incumbents used as local-search starting points.
const N_LOCAL_STARTS: usize = 5;
/// Hill-climbing steps per local-search start.
const LOCAL_STEPS: usize = 20;
/// Every `RANDOM_INTERLEAVE`-th suggestion is uniformly random ("random
/// configurations proposed periodically", Section 4.1).
const RANDOM_INTERLEAVE: usize = 9;
/// EI exploration margin.
const XI: f64 = 0.01;

/// The SMAC optimizer.
pub struct Smac {
    spec: SearchSpec,
    rng: StdRng,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    suggestions: usize,
    seed: u64,
    /// Forest fitted to the current history, reused across suggestions
    /// until the next observation invalidates it — a q-wide
    /// `suggest_batch` fits once, not q times.
    forest: Option<RandomForest>,
    /// Where `optim.smac.forest_fit_ms` goes: private (and dropped with
    /// the optimizer) unless [`Smac::with_metrics`] set it.
    metrics: Arc<MetricsRegistry>,
}

/// A [`Smac`] state checkpoint (see [`Optimizer::snapshot`]).
#[derive(Clone)]
struct SmacSnapshot {
    rng: StdRng,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    suggestions: usize,
    forest: Option<RandomForest>,
}

impl Smac {
    /// Creates a SMAC instance over `spec`.
    pub fn new(spec: SearchSpec, seed: u64) -> Self {
        Smac {
            spec,
            rng: StdRng::seed_from_u64(seed),
            xs: Vec::new(),
            ys: Vec::new(),
            suggestions: 0,
            seed,
            forest: None,
            metrics: Arc::default(),
        }
    }

    /// Records this optimizer's `optim.smac.*` metrics into `registry`
    /// — the registry of the session it serves.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = registry;
        self
    }

    /// One-exchange neighbour: perturb a single dimension. `step` is the
    /// continuous neighbourhood's Gaussian, hoisted like `std_norm`.
    fn neighbour(&mut self, x: &[f64], step: &Normal) -> Vec<f64> {
        let mut n = x.to_vec();
        let d = self.rng.random_range(0..n.len());
        match self.spec.params[d] {
            ParamKind::Categorical { n: k } => {
                let new_cat = self.rng.random_range(0..k);
                n[d] = (new_cat as f64 + 0.5) / k as f64;
            }
            ParamKind::Continuous { .. } => {
                // Gaussian perturbation, SMAC's continuous neighbourhood.
                let delta = step.sample(&mut self.rng);
                n[d] = self.spec.params[d].snap((x[d] + delta).clamp(0.0, 1.0));
            }
        }
        n
    }

    fn best_y(&self) -> f64 {
        self.ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Random candidates drawn and scored together (see [`Smac::suggest`]).
const SCORE_BLOCK: usize = 64;

impl Optimizer for Smac {
    fn suggest(&mut self) -> Vec<f64> {
        self.suggestions += 1;
        // Cold start or interleaved random suggestion.
        if self.xs.len() < 2 || self.suggestions.is_multiple_of(RANDOM_INTERLEAVE) {
            return self.spec.sample(&mut self.rng);
        }

        // Reuse the forest fitted to this exact history if one is
        // cached (observations invalidate it); `take` releases the
        // borrow so local search can perturb through `&mut self`.
        let forest = self.forest.take().unwrap_or_else(|| {
            // Wall time lands in the `optim.smac.forest_fit_ms`
            // histogram (timing only).
            let hot_path_start = std::time::Instant::now();
            let forest = RandomForest::fit(
                &self.spec,
                &self.xs,
                &self.ys,
                self.seed ^ (self.suggestions as u64) << 17,
            );
            self.metrics
                .observe("optim.smac.forest_fit_ms", hot_path_start.elapsed().as_secs_f64() * 1e3);
            forest
        });
        let best = self.best_y();
        let std_norm = Normal::new(0.0, 1.0);
        let step = Normal::new(0.0, 0.2);
        let score = |x: &[f64]| {
            let (mean, var) = forest.predict(x);
            expected_improvement(mean, var, best, XI, &std_norm)
        };

        let mut champion: Option<(f64, Vec<f64>)> = None;
        let consider = |ei: f64, x: Vec<f64>, champion: &mut Option<(f64, Vec<f64>)>| {
            if champion.as_ref().is_none_or(|(b, _)| ei > *b) {
                *champion = Some((ei, x));
            }
        };

        // Random candidates, drawn `SCORE_BLOCK` at a time (scoring draws
        // nothing, so the RNG stream is the one-at-a-time loop's) and each
        // block scored in one walk. Holding all 1 500 at once would grow
        // the heap by their size on every suggestion, only to hand it back.
        let mut left = N_RANDOM_CANDIDATES;
        while left > 0 {
            let block: Vec<Vec<f64>> =
                (0..left.min(SCORE_BLOCK)).map(|_| self.spec.sample(&mut self.rng)).collect();
            left -= block.len();
            let scores = forest.predict_batch(&block);
            for (x, (mean, var)) in block.into_iter().zip(scores) {
                consider(expected_improvement(mean, var, best, XI, &std_norm), x, &mut champion);
            }
        }

        // Local search from the best incumbents.
        let mut order: Vec<usize> = (0..self.ys.len()).collect();
        order.sort_by(|&a, &b| self.ys[b].partial_cmp(&self.ys[a]).unwrap());
        for &start in order.iter().take(N_LOCAL_STARTS) {
            let mut current = self.xs[start].clone();
            let mut current_ei = score(&current);
            for _ in 0..LOCAL_STEPS {
                let candidate = self.neighbour(&current, &step);
                let ei = score(&candidate);
                if ei > current_ei {
                    current = candidate;
                    current_ei = ei;
                }
            }
            consider(current_ei, current, &mut champion);
        }

        self.forest = Some(forest);
        champion.expect("at least one candidate").1
    }

    fn observe(&mut self, obs: Observation) {
        debug_assert_eq!(obs.x.len(), self.spec.len());
        self.xs.push(obs.x);
        self.ys.push(obs.y);
        // The cached forest no longer reflects the history.
        self.forest = None;
    }

    fn name(&self) -> &'static str {
        "smac"
    }

    /// The history, the RNG, the suggestion counter and the cached forest
    /// (empty right after an observation, which is when the constant liar
    /// snapshots). The forest cannot be left out: its fit seed depends on
    /// the suggestion counter at fit time, so a re-fit after restore
    /// would not be bit-identical.
    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(SmacSnapshot {
            rng: self.rng.clone(),
            xs: self.xs.clone(),
            ys: self.ys.clone(),
            suggestions: self.suggestions,
            forest: self.forest.clone(),
        }))
    }

    fn restore(&mut self, snapshot: &(dyn std::any::Any + Send)) -> bool {
        let Some(s) = snapshot.downcast_ref::<SmacSnapshot>() else { return false };
        self.rng = s.rng.clone();
        self.xs = s.xs.clone();
        self.ys = s.ys.clone();
        self.suggestions = s.suggestions;
        self.forest = s.forest.clone();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<O: Optimizer>(opt: &mut O, f: impl Fn(&[f64]) -> f64, iters: usize) -> f64 {
        let mut best = f64::NEG_INFINITY;
        for _ in 0..iters {
            let x = opt.suggest();
            let y = f(&x);
            best = best.max(y);
            opt.observe(Observation { x, y, metrics: Vec::new() });
        }
        best
    }

    /// A 6-dimensional function with a single optimum at (0.8, 0.2, ...).
    fn objective(x: &[f64]) -> f64 {
        let target = [0.8, 0.2, 0.5, 0.9, 0.1, 0.5];
        -x.iter().zip(target).map(|(a, t)| (a - t) * (a - t)).sum::<f64>()
    }

    #[test]
    fn smac_beats_random_search_on_budget() {
        // Averaged over seeds: a single run of either method is noisy.
        let spec = SearchSpec::continuous(6);
        let mut smac_bests = Vec::new();
        let mut random_bests = Vec::new();
        for seed in 0..5 {
            let mut smac = Smac::new(spec.clone(), seed);
            smac_bests.push(drive(&mut smac, objective, 50));
            let mut random = crate::spec::RandomSearch::new(spec.clone(), seed);
            random_bests.push(drive(&mut random, objective, 50));
        }
        let smac_mean = llamatune_math::mean(&smac_bests);
        let random_mean = llamatune_math::mean(&random_bests);
        assert!(
            smac_mean > random_mean,
            "SMAC {smac_mean} should beat random {random_mean} on average"
        );
        assert!(smac_mean > -0.15, "SMAC should approach the optimum: {smac_mean}");
    }

    #[test]
    fn ei_prefers_high_mean_and_high_variance() {
        let std_norm = Normal::new(0.0, 1.0);
        let better_mean = expected_improvement(1.0, 0.1, 0.5, 0.0, &std_norm);
        let worse_mean = expected_improvement(0.4, 0.1, 0.5, 0.0, &std_norm);
        assert!(better_mean > worse_mean);
        let high_var = expected_improvement(0.4, 1.0, 0.5, 0.0, &std_norm);
        assert!(high_var > worse_mean, "uncertainty adds exploration value");
        // EI is non-negative.
        assert!(expected_improvement(-5.0, 0.01, 0.5, 0.0, &std_norm) >= 0.0);
    }

    #[test]
    fn interleaved_randoms_occur() {
        let spec = SearchSpec::continuous(2);
        let mut smac = Smac::new(spec, 7);
        // Seed with two observations so the model path is live.
        smac.observe(Observation { x: vec![0.1, 0.1], y: 0.0, metrics: vec![] });
        smac.observe(Observation { x: vec![0.9, 0.9], y: 1.0, metrics: vec![] });
        // Every `RANDOM_INTERLEAVE`-th suggestion is the spec's next
        // uniform draw and draws nothing else; the others go through the
        // forest, which draws 1 500 candidates and local-search steps.
        for i in 1..=2 * RANDOM_INTERLEAVE {
            let mut one_draw = smac.rng.clone();
            let uniform = smac.spec.sample(&mut one_draw);
            let x = smac.suggest();
            assert!(x.iter().all(|v| (0.0..=1.0).contains(v)));
            let interleaved = one_draw.random::<u64>() == smac.rng.clone().random::<u64>();
            assert_eq!(interleaved, i % RANDOM_INTERLEAVE == 0, "suggestion {i}");
            if interleaved {
                assert_eq!(x, uniform, "suggestion {i}");
            }
        }
    }

    #[test]
    fn handles_mixed_spaces() {
        let spec = SearchSpec {
            params: vec![
                ParamKind::Continuous { buckets: None },
                ParamKind::Categorical { n: 3 },
                ParamKind::Continuous { buckets: Some(100) },
            ],
        };
        // Optimum: x0 high, category 1, x2 low.
        let f = |x: &[f64]| {
            let cat = ((x[1] * 3.0).floor() as usize).min(2);
            x[0] + if cat == 1 { 1.0 } else { 0.0 } - x[2]
        };
        let mut smac = Smac::new(spec, 3);
        let best = drive(&mut smac, f, 35);
        assert!(best > 1.5, "mixed-space optimum not found: {best}");
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = SearchSpec::continuous(3);
        let mut a = Smac::new(spec.clone(), 11);
        let mut b = Smac::new(spec, 11);
        for _ in 0..8 {
            let xa = a.suggest();
            let xb = b.suggest();
            assert_eq!(xa, xb);
            let y = objective(&xa);
            a.observe(Observation { x: xa, y, metrics: vec![] });
            b.observe(Observation { x: xb, y, metrics: vec![] });
        }
    }

    #[test]
    fn suggestions_respect_bucket_grids() {
        let spec = SearchSpec { params: vec![ParamKind::Continuous { buckets: Some(5) }] };
        let mut smac = Smac::new(spec, 13);
        for i in 0..10 {
            let x = smac.suggest();
            let snapped = (x[0] * 4.0).round() / 4.0;
            assert!((x[0] - snapped).abs() < 1e-9, "iteration {i}: {} off-grid", x[0]);
            smac.observe(Observation { x, y: i as f64, metrics: vec![] });
        }
    }
}
