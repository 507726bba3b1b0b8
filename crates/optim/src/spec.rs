//! The optimizer-facing search-space description and the [`Optimizer`]
//! trait shared by SMAC, GP-BO, and DDPG.

use llamatune_math::Normal;
use llamatune_obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::sync::Arc;

/// One dimension of the search space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamKind {
    /// Numerical dimension on `[0, 1]`; when `buckets` is set, only that
    /// many evenly spaced values exist (LlamaTune's bucketized space —
    /// the optimizer snaps its suggestions to the grid so it "is aware of
    /// the larger sampling intervals", Section 5).
    Continuous { buckets: Option<u64> },
    /// Unordered categorical dimension with `n` choices, encoded as the
    /// bin midpoints of `[0, 1]`.
    Categorical { n: usize },
}

/// The choice (of `n`) a categorical dimension's unit value decodes to.
#[inline]
pub(crate) fn category(u: f64, n: usize) -> usize {
    ((u.clamp(0.0, 1.0) * n as f64).floor() as usize).min(n - 1)
}

/// Expected improvement of a predicted `(mean, var)` over `best` with
/// exploration margin `xi` — SMAC's and GP-BO's acquisition function.
/// `std_norm` is the standard normal, hoisted out of the candidate loops
/// (1500 candidates per suggestion share one instance).
#[inline]
pub(crate) fn expected_improvement(
    mean: f64,
    var: f64,
    best: f64,
    xi: f64,
    std_norm: &Normal,
) -> f64 {
    let sigma = var.sqrt().max(1e-9);
    let z = (mean - best - xi) / sigma;
    sigma * (z * std_norm.cdf(z) + std_norm.pdf(z))
}

impl ParamKind {
    /// Snaps a unit value onto this dimension's grid (bucketized continuous
    /// dims and categorical bin midpoints); plain continuous dims pass
    /// through.
    pub(crate) fn snap(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match self {
            ParamKind::Continuous { buckets: None } => u,
            ParamKind::Continuous { buckets: Some(k) } => {
                let k = (*k).max(2) as f64;
                (u * (k - 1.0)).round() / (k - 1.0)
            }
            ParamKind::Categorical { n } => {
                let idx = ((u * *n as f64).floor() as usize).min(n - 1);
                (idx as f64 + 0.5) / *n as f64
            }
        }
    }
}

/// A search space: an ordered list of dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    pub params: Vec<ParamKind>,
}

impl SearchSpec {
    /// All-continuous space of `d` dimensions (the low-dimensional
    /// projected space is of this shape).
    pub fn continuous(d: usize) -> Self {
        SearchSpec { params: vec![ParamKind::Continuous { buckets: None }; d] }
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Samples a uniform random point (snapped to grids).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.params.iter().map(|p| p.snap(rng.random())).collect()
    }

    /// Snaps every coordinate of `x` onto the space's grids.
    pub fn snap(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        self.params.iter().zip(x).map(|(p, &u)| p.snap(u)).collect()
    }
}

/// One evaluated configuration, in optimizer coordinates.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The suggested point (unit space).
    pub x: Vec<f64>,
    /// Objective value; optimizers always maximize.
    pub y: f64,
    /// Internal DBMS metrics of the run (used by DDPG; others ignore it).
    pub metrics: Vec<f64>,
}

/// A sequential black-box optimizer over a [`SearchSpec`].
pub trait Optimizer: Send {
    /// Proposes the next point to evaluate.
    fn suggest(&mut self) -> Vec<f64>;
    /// Feeds back the result of evaluating a suggestion.
    fn observe(&mut self, obs: Observation);
    /// Short display name.
    fn name(&self) -> &'static str;

    /// Proposes `q` points to evaluate concurrently.
    ///
    /// The default implementation re-suggests `q` times without
    /// intermediate feedback, which is exact for stochastic optimizers
    /// (random search, interleaved-random SMAC rounds) but lets strongly
    /// model-driven optimizers propose near-duplicate points. Wrappers
    /// that fantasize pending results (e.g. the runtime crate's
    /// constant-liar `BatchSuggest`) provide diversity on top of this
    /// trait without optimizers having to change.
    fn suggest_batch(&mut self, q: usize) -> Vec<Vec<f64>> {
        (0..q).map(|_| self.suggest()).collect()
    }

    /// Feeds back a completed batch, in the order the points were
    /// suggested. Implementations that fantasized pending evaluations
    /// use this to retract the fantasies; the default simply observes
    /// each result sequentially.
    fn observe_batch(&mut self, obs: Vec<Observation>) {
        for o in obs {
            self.observe(o);
        }
    }

    /// Captures the optimizer's complete mutable state as an opaque
    /// checkpoint, or `None` when the optimizer cannot be checkpointed
    /// (the default). Every optimizer of [`OptimizerKind`] implements it.
    ///
    /// Contract: a successful [`Optimizer::restore`] of this snapshot
    /// must return the optimizer to a state *bit-identical* to the one
    /// captured — every subsequent `suggest`/`observe` behaves exactly
    /// as it would have had the intervening calls never happened. The
    /// runtime's constant-liar wrapper retracts fantasized observations
    /// this way, and refuses an optimizer that returns `None`.
    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        None
    }

    /// Unread: the constant liar retracts by snapshot-restore whatever
    /// this says. Kept because implementations outside the workspace
    /// still override it.
    fn snapshot_beats_replay(&self) -> bool {
        true
    }

    /// Restores state previously captured by [`Optimizer::snapshot`].
    /// Returns `false` (leaving the optimizer untouched) when the
    /// snapshot is of a foreign type or the optimizer does not support
    /// checkpointing.
    fn restore(&mut self, snapshot: &(dyn std::any::Any + Send)) -> bool {
        let _ = snapshot;
        false
    }

    /// Takes the degradation events accumulated since the last call.
    /// Only wrappers that can degrade (the numerical-failure guard in
    /// [`GuardedOptimizer`](crate::GuardedOptimizer)) produce any; plain optimizers return nothing.
    /// Batch wrappers forward to their inner optimizer so events
    /// surface through any composition.
    fn drain_degradations(&mut self) -> Vec<crate::guard::DegradationEvent> {
        Vec::new()
    }
}

/// Dimension of the DBMS's internal-metrics vector fed to DDPG's state
/// (the engine exposes 27 internal metrics; see
/// `llamatune_engine::METRIC_NAMES`).
pub const DEFAULT_METRIC_DIM: usize = 27;

/// The optimizer families of the evaluation, as a buildable registry —
/// the one place that knows how to construct each optimizer with its
/// default configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    Random,
    Smac,
    GpBo,
    Ddpg,
}

impl OptimizerKind {
    /// Short label used in session names and table rows.
    pub fn label(&self) -> &'static str {
        match self {
            OptimizerKind::Random => "random",
            OptimizerKind::Smac => "smac",
            OptimizerKind::GpBo => "gp_bo",
            OptimizerKind::Ddpg => "ddpg",
        }
    }

    /// Parses a [`OptimizerKind::label`] back into the kind — the
    /// inverse used by wire protocols and CLI flags.
    pub fn parse(label: &str) -> Option<OptimizerKind> {
        match label {
            "random" => Some(OptimizerKind::Random),
            "smac" => Some(OptimizerKind::Smac),
            "gp_bo" => Some(OptimizerKind::GpBo),
            "ddpg" => Some(OptimizerKind::Ddpg),
            _ => None,
        }
    }

    /// Builds a fresh optimizer instance over `spec` whose `optim.*`
    /// metrics nobody reads (see [`OptimizerKind::build_in`]).
    pub fn build(self, spec: &SearchSpec, seed: u64) -> Box<dyn Optimizer> {
        self.build_in(spec, seed, &Arc::default())
    }

    /// Builds a fresh optimizer instance over `spec` that records its
    /// `optim.*` metrics into `metrics` — the registry of the session
    /// it serves, so a rebuilt optimizer keeps writing where the one it
    /// replaces did.
    pub fn build_in(
        self,
        spec: &SearchSpec,
        seed: u64,
        metrics: &Arc<MetricsRegistry>,
    ) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Random => Box::new(RandomSearch::new(spec.clone(), seed)),
            OptimizerKind::Smac => {
                Box::new(crate::Smac::new(spec.clone(), seed).with_metrics(metrics.clone()))
            }
            OptimizerKind::GpBo => {
                Box::new(crate::GpBo::new(spec.clone(), seed).with_metrics(metrics.clone()))
            }
            OptimizerKind::Ddpg => Box::new(crate::Ddpg::new(spec.clone(), seed)),
        }
    }
}

/// Pure random search — the weakest baseline and a useful control.
///
/// Every observation reseeds the stream from `(seed, observations
/// seen)`, so a draw is a pure function of the history: a constant-liar
/// round that restores the pre-batch state and feeds the real results
/// moves on to fresh points instead of redrawing the round it retracted.
/// Without observations (the guard's fallback) the stream is the seed's.
#[derive(Debug)]
pub struct RandomSearch {
    spec: SearchSpec,
    seed: u64,
    seen: u64,
    rng: StdRng,
}

impl RandomSearch {
    /// Creates a random-search optimizer.
    pub fn new(spec: SearchSpec, seed: u64) -> Self {
        RandomSearch { spec, seed, seen: 0, rng: StdRng::seed_from_u64(seed) }
    }
}

impl Optimizer for RandomSearch {
    fn suggest(&mut self) -> Vec<f64> {
        self.spec.sample(&mut self.rng)
    }

    fn observe(&mut self, _obs: Observation) {
        self.seen += 1;
        self.rng = StdRng::seed_from_u64(self.seed ^ self.seen.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }

    fn name(&self) -> &'static str {
        "random"
    }

    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        // The stream and the count it was seeded from are the entire
        // mutable state.
        Some(Box::new((self.rng.clone(), self.seen)))
    }

    fn restore(&mut self, snapshot: &(dyn std::any::Any + Send)) -> bool {
        match snapshot.downcast_ref::<(StdRng, u64)>() {
            Some((rng, seen)) => {
                (self.rng, self.seen) = (rng.clone(), *seen);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl super::ParamKind {
        /// Decodes a categorical dimension's unit value into its choice index.
        pub(crate) fn to_category(self, u: f64) -> Option<usize> {
            match self {
                ParamKind::Categorical { n } => Some(category(u, n)),
                ParamKind::Continuous { .. } => None,
            }
        }
    }

    #[test]
    fn categorical_decode_covers_all_bins() {
        let p = ParamKind::Categorical { n: 4 };
        assert_eq!(p.to_category(0.0), Some(0));
        assert_eq!(p.to_category(0.26), Some(1));
        assert_eq!(p.to_category(0.99), Some(3));
        assert_eq!(p.to_category(1.0), Some(3), "u=1 must not overflow");
        assert_eq!(ParamKind::Continuous { buckets: None }.to_category(0.5), None);
    }

    #[test]
    fn snap_bucketized_grid() {
        let p = ParamKind::Continuous { buckets: Some(5) };
        // Grid: 0, 0.25, 0.5, 0.75, 1.
        assert_eq!(p.snap(0.1), 0.0);
        assert_eq!(p.snap(0.13), 0.25);
        assert_eq!(p.snap(0.49), 0.5);
        assert_eq!(p.snap(1.0), 1.0);
    }

    #[test]
    fn snap_categorical_returns_bin_midpoint() {
        let p = ParamKind::Categorical { n: 2 };
        assert_eq!(p.snap(0.1), 0.25);
        assert_eq!(p.snap(0.9), 0.75);
    }

    #[test]
    fn plain_continuous_passes_through() {
        let p = ParamKind::Continuous { buckets: None };
        assert_eq!(p.snap(0.37), 0.37);
        assert_eq!(p.snap(-0.5), 0.0);
        assert_eq!(p.snap(1.5), 1.0);
    }

    #[test]
    fn random_search_is_deterministic_and_in_bounds() {
        let spec = SearchSpec {
            params: vec![
                ParamKind::Continuous { buckets: None },
                ParamKind::Categorical { n: 3 },
                ParamKind::Continuous { buckets: Some(10) },
            ],
        };
        let mut a = RandomSearch::new(spec.clone(), 5);
        let mut b = RandomSearch::new(spec, 5);
        for _ in 0..20 {
            let xa = a.suggest();
            let xb = b.suggest();
            assert_eq!(xa, xb);
            assert!(xa.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn suggest_batch_default_matches_repeated_suggest() {
        let spec = SearchSpec::continuous(3);
        let mut batched = RandomSearch::new(spec.clone(), 11);
        let mut sequential = RandomSearch::new(spec, 11);
        let batch = batched.suggest_batch(4);
        let singles: Vec<_> = (0..4).map(|_| sequential.suggest()).collect();
        assert_eq!(batch, singles);
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn observe_batch_default_matches_sequential_observes() {
        let spec = SearchSpec::continuous(2);
        let mut batched = crate::Smac::new(spec.clone(), 3);
        let mut sequential = crate::Smac::new(spec, 3);
        let obs: Vec<Observation> = (0..12)
            .map(|i| {
                let t = i as f64 / 12.0;
                Observation { x: vec![t, 1.0 - t], y: -(t - 0.3) * (t - 0.3), metrics: vec![] }
            })
            .collect();
        for o in obs.clone() {
            sequential.observe(o);
        }
        batched.observe_batch(obs);
        // Identical internal state ⇒ identical next suggestions.
        for _ in 0..3 {
            assert_eq!(batched.suggest(), sequential.suggest());
        }
    }

    proptest! {
        /// Snapping is idempotent for every parameter kind.
        #[test]
        fn snap_is_idempotent(u in 0.0f64..=1.0, n in 2usize..10, k in 2u64..1000) {
            for p in [
                ParamKind::Continuous { buckets: None },
                ParamKind::Continuous { buckets: Some(k) },
                ParamKind::Categorical { n },
            ] {
                let once = p.snap(u);
                prop_assert!((p.snap(once) - once).abs() < 1e-12);
            }
        }

        /// Bucketized snapping produces at most k distinct values.
        #[test]
        fn bucket_count_respected(k in 2u64..50) {
            let p = ParamKind::Continuous { buckets: Some(k) };
            let mut values = std::collections::BTreeSet::new();
            for i in 0..1000 {
                let u = i as f64 / 999.0;
                values.insert(p.snap(u).to_bits());
            }
            prop_assert!(values.len() <= k as usize);
        }
    }
}
