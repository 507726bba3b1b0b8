//! The unified LlamaTune pipeline (Section 5) and the baseline adapter.
//!
//! A [`SearchSpaceAdapter`] is the boundary between an optimizer (which
//! works on some unit hypercube) and the DBMS (which wants a [`Config`]).
//! The [`IdentityAdapter`] exposes the knob space directly — the vanilla
//! baseline. The [`LlamaTunePipeline`] exposes a bucketized low-dimensional
//! synthetic space and decodes suggestions by projecting, biasing special
//! values, and converting to knob values, in exactly the order of Figure 8:
//!
//! 1. the optimizer proposes `p` in the bucketized low-dim space;
//! 2. `p` is projected to the scaled knob space `[0, 1]^D`;
//! 3. special-value biasing is applied to hybrid knobs only;
//! 4. values are re-scaled to physical knob ranges.

use crate::bias::apply_special_value_bias;
use crate::projection::{HesboProjection, RemboProjection};
use llamatune_optim::{ParamKind, SearchSpec};
use llamatune_space::{Config, ConfigSpace, Domain};

/// Which random projection to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectionKind {
    /// Count-sketch projection (the paper's choice).
    Hesbo,
    /// Dense Gaussian projection with clipping (the weaker baseline).
    Rembo,
}

/// LlamaTune hyperparameters. Defaults are the paper's final setting:
/// HeSBO with `d = 16`, 20% special-value bias, `K = 10,000` buckets.
#[derive(Debug, Clone)]
pub struct LlamaTuneConfig {
    pub target_dim: usize,
    pub projection: ProjectionKind,
    /// `None` disables biasing (ablation); `Some(p)` biases with
    /// probability `p`.
    pub special_value_bias: Option<f64>,
    /// `None` disables bucketization (ablation); `Some(k)` limits each
    /// synthetic dimension to `k` unique values.
    pub bucket_count: Option<u64>,
}

impl Default for LlamaTuneConfig {
    fn default() -> Self {
        LlamaTuneConfig {
            target_dim: 16,
            projection: ProjectionKind::Hesbo,
            special_value_bias: Some(crate::bias::DEFAULT_BIAS),
            bucket_count: Some(10_000),
        }
    }
}

/// Maps optimizer suggestions to DBMS configurations.
pub trait SearchSpaceAdapter: Send + Sync {
    /// The space the optimizer should search.
    fn optimizer_spec(&self) -> &SearchSpec;
    /// Decodes a suggestion into a configuration of [`Self::space`].
    fn decode(&self, x: &[f64]) -> Config;
    /// The knob space configurations live in.
    fn space(&self) -> &ConfigSpace;
}

/// Baseline adapter: one optimizer dimension per knob. Optionally applies
/// special-value biasing and/or bucketization *without* the projection —
/// the standalone configurations studied in Sections 4.1 and 4.2
/// (Figures 6 and 7).
#[derive(Debug, Clone)]
pub struct IdentityAdapter {
    space: ConfigSpace,
    spec: SearchSpec,
    bias: Option<f64>,
}

impl IdentityAdapter {
    /// Exposes `space` directly to the optimizer (categorical knobs are
    /// declared as such; numerical knobs are continuous unit dimensions).
    pub fn new(space: &ConfigSpace) -> Self {
        Self::with_options(space, None, None)
    }

    /// Like [`Self::new`] but with special-value biasing probability
    /// and/or a per-knob unique-value cap `K` (knobs with fewer values than
    /// `K` are unaffected, as in Section 4.2).
    pub fn with_options(space: &ConfigSpace, bias: Option<f64>, bucket_count: Option<u64>) -> Self {
        let spec = SearchSpec {
            params: space
                .knobs()
                .iter()
                .map(|k| match &k.domain {
                    Domain::Categorical { choices } => ParamKind::Categorical { n: choices.len() },
                    _ => {
                        let buckets = bucket_count.map(|k_max| match k.domain.cardinality() {
                            Some(card) => card.min(k_max),
                            None => k_max,
                        });
                        ParamKind::Continuous { buckets }
                    }
                })
                .collect(),
        };
        IdentityAdapter { space: space.clone(), spec, bias }
    }
}

impl SearchSpaceAdapter for IdentityAdapter {
    fn optimizer_spec(&self) -> &SearchSpec {
        &self.spec
    }

    fn decode(&self, x: &[f64]) -> Config {
        let mut unit = self.spec.snap(x);
        if let Some(p) = self.bias {
            apply_special_value_bias(&self.space, &mut unit, p);
        }
        self.space.config_from_unit(&unit)
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }
}

enum AnyProjection {
    Hesbo(HesboProjection),
    Rembo(RemboProjection),
}

impl AnyProjection {
    fn project_unit(&self, low: &[f64]) -> Vec<f64> {
        match self {
            AnyProjection::Hesbo(p) => p.project_unit(low),
            AnyProjection::Rembo(p) => p.project_unit(low),
        }
    }
}

/// The unified LlamaTune pipeline.
pub struct LlamaTunePipeline {
    space: ConfigSpace,
    spec: SearchSpec,
    projection: AnyProjection,
    bias: Option<f64>,
}

impl LlamaTunePipeline {
    /// Builds the pipeline over `space`. The projection matrix is sampled
    /// once from `seed` and stays fixed for the whole session (Section 3.3).
    pub fn new(space: &ConfigSpace, config: &LlamaTuneConfig, seed: u64) -> Self {
        let d = config.target_dim.min(space.len()).max(1);
        let projection = match config.projection {
            ProjectionKind::Hesbo => {
                AnyProjection::Hesbo(HesboProjection::new(d, space.len(), seed))
            }
            ProjectionKind::Rembo => {
                AnyProjection::Rembo(RemboProjection::new(d, space.len(), seed))
            }
        };
        // The optimizer sees a d-dimensional continuous space, bucketized
        // so it "is aware of the larger sampling intervals" (Section 5).
        let spec =
            SearchSpec { params: vec![ParamKind::Continuous { buckets: config.bucket_count }; d] };
        LlamaTunePipeline {
            space: space.clone(),
            spec,
            projection,
            bias: config.special_value_bias,
        }
    }

    /// Decodes and also reports which hybrid knobs were biased to their
    /// special value (used by the pipeline-walkthrough example).
    pub fn decode_traced(&self, x: &[f64]) -> (Config, Vec<usize>) {
        let snapped = self.spec.snap(x);
        let mut high = self.projection.project_unit(&snapped);
        let hit = match self.bias {
            Some(p) => apply_special_value_bias(&self.space, &mut high, p),
            None => Vec::new(),
        };
        (self.space.config_from_unit(&high), hit)
    }

    /// The projected (pre-bias) unit point, exposed for diagnostics.
    pub fn project_only(&self, x: &[f64]) -> Vec<f64> {
        self.projection.project_unit(&self.spec.snap(x))
    }
}

impl SearchSpaceAdapter for LlamaTunePipeline {
    fn optimizer_spec(&self) -> &SearchSpec {
        &self.spec
    }

    fn decode(&self, x: &[f64]) -> Config {
        self.decode_traced(x).0
    }

    fn space(&self) -> &ConfigSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_space::catalog::{postgres_v13_6, postgres_v9_6};
    use llamatune_space::KnobValue;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn identity_adapter_mirrors_the_space() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        assert_eq!(adapter.optimizer_spec().len(), 90);
        // Categorical knobs declared categorical.
        let idx = space.index_of("synchronous_commit").unwrap();
        assert_eq!(adapter.optimizer_spec().params[idx], ParamKind::Categorical { n: 4 });
        let sb = space.index_of("shared_buffers").unwrap();
        assert_eq!(adapter.optimizer_spec().params[sb], ParamKind::Continuous { buckets: None });
        // Decoding mid-point gives a valid config.
        let cfg = adapter.decode(&vec![0.5; 90]);
        assert!(space.validate(&cfg).is_ok());
    }

    #[test]
    fn pipeline_exposes_bucketized_low_dim_space() {
        let space = postgres_v9_6();
        let pipe = LlamaTunePipeline::new(&space, &LlamaTuneConfig::default(), 1);
        let spec = pipe.optimizer_spec();
        assert_eq!(spec.len(), 16, "paper's d = 16");
        for p in &spec.params {
            assert_eq!(*p, ParamKind::Continuous { buckets: Some(10_000) });
        }
    }

    proptest! {
        /// Whatever the seed, projection, target dimension, bias, bucket
        /// count and catalog: every decoded suggestion is a configuration
        /// of the catalog, no knob is reported biased when biasing is off,
        /// and a knob bucketized to K values takes at most K.
        #[test]
        fn decoded_configs_are_always_valid(
            seed in any::<u64>(),
            rembo in any::<bool>(),
            d in 1usize..=24,
            bias in (any::<bool>(), 0.05f64..0.3),
            buckets in (any::<bool>(), 3u64..=20_000),
            v13 in any::<bool>(),
        ) {
            let space = if v13 { postgres_v13_6() } else { postgres_v9_6() };
            let (bias, buckets) = (bias.0.then_some(bias.1), buckets.0.then_some(buckets.1));
            let config = LlamaTuneConfig {
                target_dim: d,
                projection: if rembo { ProjectionKind::Rembo } else { ProjectionKind::Hesbo },
                special_value_bias: bias,
                bucket_count: buckets,
            };
            let pipe = LlamaTunePipeline::new(&space, &config, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                let x: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
                let (decoded, biased) = pipe.decode_traced(&x);
                prop_assert!(space.validate(&decoded).is_ok());
                prop_assert!(bias.is_some() || biased.is_empty(), "biased {biased:?} with bias off");
            }

            let point = |rng: &mut StdRng| -> Vec<f64> {
                (0..space.len()).map(|_| rng.random::<f64>()).collect()
            };
            let identity = IdentityAdapter::with_options(&space, bias, buckets);
            for _ in 0..50 {
                prop_assert!(space.validate(&identity.decode(&point(&mut rng))).is_ok());
            }

            // Biasing adds the special value to a knob's grid, so count
            // without it; and 2 000 points can only show more than K values
            // of a knob when K is smaller.
            if let Some(k) = buckets.filter(|k| *k < 2_000) {
                let identity = IdentityAdapter::with_options(&space, None, Some(k));
                let bucketized: Vec<usize> = (0..space.len())
                    .filter(|&i| {
                        let param = &identity.optimizer_spec().params[i];
                        matches!(param, ParamKind::Continuous { buckets: Some(_) })
                    })
                    .collect();
                let mut seen = vec![std::collections::HashSet::new(); bucketized.len()];
                for _ in 0..2_000 {
                    let decoded = identity.decode(&point(&mut rng));
                    for (values, &i) in seen.iter_mut().zip(&bucketized) {
                        values.insert(decoded.values()[i].to_string());
                    }
                }
                for (values, i) in seen.iter().zip(&bucketized) {
                    prop_assert!(values.len() as u64 <= k, "knob {i}: {} values", values.len());
                }
            }
        }
    }

    #[test]
    fn bias_hits_at_the_expected_rate() {
        // Each hybrid knob's projected value is ~uniform, so ~20% of
        // (suggestion, hybrid knob) pairs should be special.
        let space = postgres_v9_6();
        let pipe = LlamaTunePipeline::new(&space, &LlamaTuneConfig::default(), 6);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 400;
        let mut hits = 0usize;
        for _ in 0..trials {
            let x: Vec<f64> = (0..16).map(|_| rng.random::<f64>()).collect();
            hits += pipe.decode_traced(&x).1.len();
        }
        let rate = hits as f64 / (trials * 17) as f64;
        assert!((rate - 0.2).abs() < 0.05, "special-value rate {rate}");
    }

    #[test]
    fn same_seed_same_projection() {
        let space = postgres_v9_6();
        let a = LlamaTunePipeline::new(&space, &LlamaTuneConfig::default(), 9);
        let b = LlamaTunePipeline::new(&space, &LlamaTuneConfig::default(), 9);
        let x: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        assert_eq!(a.decode(&x), b.decode(&x));
    }

    #[test]
    fn bucketization_snaps_before_projecting() {
        let space = postgres_v9_6();
        let cfg = LlamaTuneConfig { bucket_count: Some(3), ..Default::default() };
        let pipe = LlamaTunePipeline::new(&space, &cfg, 10);
        // 0.4 and 0.6 snap to the same grid point 0.5 on a 3-bucket grid.
        let a = pipe.decode(&[0.4; 16]);
        let b = pipe.decode(&[0.6; 16]);
        assert_eq!(a, b, "bucketized suggestions collapse to the grid");
    }

    #[test]
    fn small_spaces_clamp_target_dim() {
        let space = postgres_v9_6().subspace(&["shared_buffers", "commit_delay"]);
        let pipe = LlamaTunePipeline::new(&space, &LlamaTuneConfig::default(), 11);
        assert_eq!(pipe.optimizer_spec().len(), 2, "d cannot exceed D");
        let cfg = pipe.decode(&[0.3, 0.7]);
        assert!(space.validate(&cfg).is_ok());
    }

    #[test]
    fn default_pipeline_reaches_special_values_of_table2_knobs() {
        // End-to-end: suggestions must be able to produce wal_buffers = -1
        // and backend_flush_after = 0.
        let space = postgres_v9_6();
        let pipe = LlamaTunePipeline::new(&space, &LlamaTuneConfig::default(), 12);
        let wb = space.index_of("wal_buffers").unwrap();
        let bfa = space.index_of("backend_flush_after").unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut saw_wb = false;
        let mut saw_bfa = false;
        for _ in 0..300 {
            let x: Vec<f64> = (0..16).map(|_| rng.random::<f64>()).collect();
            let cfg = pipe.decode(&x);
            saw_wb |= cfg.values()[wb] == KnobValue::Int(-1);
            saw_bfa |= cfg.values()[bfa] == KnobValue::Int(0);
        }
        assert!(saw_wb && saw_bfa, "special values unreachable");
    }
}
