//! The search-space adapter of Section 5: one pipeline, three optional
//! stages.
//!
//! A [`SearchSpaceAdapter`] is the boundary between an optimizer (which
//! works on some unit hypercube) and the DBMS (which wants a [`Config`]).
//! The [`LlamaTunePipeline`] is the one adapter. It decodes a suggestion
//! in exactly the order of Figure 8:
//!
//! 1. the optimizer proposes `p`, snapped onto the bucket grid;
//! 2. `p` is projected to the scaled knob space `[0, 1]^D`;
//! 3. special-value biasing is applied to hybrid knobs only;
//! 4. values are re-scaled to physical knob ranges.
//!
//! Each stage of [`LlamaTuneConfig`] can be switched off, which is how
//! the paper's ablations (Figures 3, 6, 7 and 11) are built. Without a
//! projection the optimizer searches the knob space itself, one
//! dimension per knob, and categorical knobs stay categorical. Bucketing
//! then caps each knob at `K` values, and a knob with fewer values keeps
//! them all (§4.2). With a projection, each of the `d` synthetic
//! dimensions takes `K` values, so the optimizer "is aware of the larger
//! sampling intervals" (§5). With all three stages off
//! ([`LlamaTuneConfig::IDENTITY`]) the pipeline is the vanilla baseline.

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

impl ProjectionKind {
    /// The lowercase name adapter tags and the wire protocol spell.
    pub fn name(self) -> &'static str {
        match self {
            ProjectionKind::Hesbo => "hesbo",
            ProjectionKind::Rembo => "rembo",
        }
    }
}

/// LlamaTune hyperparameters: one optional setting per stage of
/// Figure 8. Defaults are the paper's final setting: HeSBO with
/// `d = 16`, 20% special-value bias, `K = 10,000` buckets.
#[derive(Debug, Clone)]
pub struct LlamaTuneConfig {
    /// The projection's `d`, clamped to `[1, D]`; unused without one.
    pub target_dim: usize,
    /// `None` disables the projection (ablation): the optimizer searches
    /// the knob space itself.
    pub projection: Option<ProjectionKind>,
    /// `None` disables biasing (ablation); `Some(p)` biases with
    /// probability `p`.
    pub special_value_bias: Option<f64>,
    /// `None` disables bucketization (ablation); `Some(k)` limits each
    /// optimizer dimension to `k` unique values.
    pub bucket_count: Option<u64>,
}

impl LlamaTuneConfig {
    /// Every stage off: one optimizer dimension per knob, decoded as it
    /// stands — the vanilla baseline.
    pub const IDENTITY: LlamaTuneConfig = LlamaTuneConfig {
        target_dim: 16,
        projection: None,
        special_value_bias: None,
        bucket_count: None,
    };
}

impl Default for LlamaTuneConfig {
    fn default() -> Self {
        LlamaTuneConfig {
            target_dim: 16,
            projection: Some(ProjectionKind::Hesbo),
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

/// The LlamaTune pipeline, with whichever stages its config keeps.
pub struct LlamaTunePipeline {
    space: ConfigSpace,
    spec: SearchSpec,
    projection: Option<AnyProjection>,
    bias: Option<f64>,
}

impl LlamaTunePipeline {
    /// Builds the pipeline over `space`. A projection matrix is sampled
    /// once from `seed` and stays fixed for the whole session (Section
    /// 3.3); without a projection the seed is not used.
    pub fn new(space: &ConfigSpace, config: &LlamaTuneConfig, seed: u64) -> Self {
        let buckets = config.bucket_count;
        let (params, projection) = match config.projection {
            Some(kind) => {
                let (d, n) = (config.target_dim.min(space.len()).max(1), space.len());
                let projection = match kind {
                    ProjectionKind::Hesbo => AnyProjection::Hesbo(HesboProjection::new(d, n, seed)),
                    ProjectionKind::Rembo => AnyProjection::Rembo(RemboProjection::new(d, n, seed)),
                };
                (vec![ParamKind::Continuous { buckets }; d], Some(projection))
            }
            None => {
                let knob = |domain: &Domain| match domain {
                    Domain::Categorical { choices } => ParamKind::Categorical { n: choices.len() },
                    _ => ParamKind::Continuous {
                        buckets: buckets.map(|k| domain.cardinality().map_or(k, |c| c.min(k))),
                    },
                };
                (space.knobs().iter().map(|k| knob(&k.domain)).collect(), None)
            }
        };
        LlamaTunePipeline {
            space: space.clone(),
            spec: SearchSpec { params },
            projection,
            bias: config.special_value_bias,
        }
    }

    /// Decodes and also reports which hybrid knobs were biased to their
    /// special value (used by the pipeline-walkthrough example).
    pub fn decode_traced(&self, x: &[f64]) -> (Config, Vec<usize>) {
        let mut unit = self.project_only(x);
        let hit = match self.bias {
            Some(p) => apply_special_value_bias(&self.space, &mut unit, p),
            None => Vec::new(),
        };
        (self.space.config_from_unit(&unit), hit)
    }

    /// The snapped and (with a projection) projected unit point, before
    /// biasing; exposed for diagnostics.
    pub fn project_only(&self, x: &[f64]) -> Vec<f64> {
        let snapped = self.spec.snap(x);
        match &self.projection {
            Some(projection) => projection.project_unit(&snapped),
            None => snapped,
        }
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
        let adapter = LlamaTunePipeline::new(&space, &LlamaTuneConfig::IDENTITY, 1);
        assert_eq!(adapter.optimizer_spec().len(), 90);
        // Categorical knobs declared categorical.
        let idx = space.index_of("synchronous_commit").unwrap();
        assert_eq!(adapter.optimizer_spec().params[idx], ParamKind::Categorical { n: 4 });
        let sb = space.index_of("shared_buffers").unwrap();
        assert_eq!(adapter.optimizer_spec().params[sb], ParamKind::Continuous { buckets: None });
        // Decoding is the knob space's own map, whatever the seed.
        let x: Vec<f64> = (0..90).map(|i| i as f64 / 90.0).collect();
        let cfg = adapter.decode(&x);
        assert_eq!(cfg, space.config_from_unit(&x));
        assert_eq!(cfg, LlamaTunePipeline::new(&space, &LlamaTuneConfig::IDENTITY, 2).decode(&x));
        assert!(space.validate(&cfg).is_ok());
        // Bucketing without a projection caps each knob at its own
        // cardinality.
        let coarse = LlamaTuneConfig { bucket_count: Some(64), ..LlamaTuneConfig::IDENTITY };
        let params = LlamaTunePipeline::new(&space, &coarse, 1).optimizer_spec().params.clone();
        let bfa = space.index_of("backend_flush_after").unwrap();
        assert_eq!(params[bfa], ParamKind::Continuous { buckets: Some(64) });
        let hp = space.index_of("huge_pages_try").unwrap();
        assert_eq!(params[hp], ParamKind::Continuous { buckets: Some(3) });
        assert_eq!(params[idx], ParamKind::Categorical { n: 4 });
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
        /// Whatever the seed, projection (or none), target dimension,
        /// bias, bucket count and catalog: every decoded suggestion is a
        /// configuration of the catalog, no knob is reported biased when
        /// biasing is off, and without a projection a knob bucketized to
        /// K values takes at most K.
        #[test]
        fn decoded_configs_are_always_valid(
            seed in any::<u64>(),
            projection in 0u8..3,
            d in 1usize..=24,
            bias in (any::<bool>(), 0.05f64..0.3),
            buckets in (any::<bool>(), 3u64..=20_000),
            v13 in any::<bool>(),
        ) {
            let space = if v13 { postgres_v13_6() } else { postgres_v9_6() };
            let (bias, buckets) = (bias.0.then_some(bias.1), buckets.0.then_some(buckets.1));
            let config = LlamaTuneConfig {
                target_dim: d,
                projection: [None, Some(ProjectionKind::Hesbo), Some(ProjectionKind::Rembo)]
                    [projection as usize],
                special_value_bias: bias,
                bucket_count: buckets,
            };
            let pipe = LlamaTunePipeline::new(&space, &config, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let point = |rng: &mut StdRng, n: usize| -> Vec<f64> {
                (0..n).map(|_| rng.random::<f64>()).collect()
            };
            for _ in 0..50 {
                let (decoded, biased) = pipe.decode_traced(&point(&mut rng, pipe.spec.len()));
                prop_assert!(space.validate(&decoded).is_ok());
                prop_assert!(bias.is_some() || biased.is_empty(), "biased {biased:?} with bias off");
            }

            // Biasing adds the special value to a knob's grid, so count
            // without it; and 2 000 points can only show more than K values
            // of a knob when K is smaller.
            if let Some(k) = buckets.filter(|k| *k < 2_000) {
                let config = LlamaTuneConfig { bucket_count: Some(k), ..LlamaTuneConfig::IDENTITY };
                let identity = LlamaTunePipeline::new(&space, &config, seed);
                let bucketized: Vec<usize> = (0..space.len())
                    .filter(|&i| {
                        let param = &identity.optimizer_spec().params[i];
                        matches!(param, ParamKind::Continuous { buckets: Some(_) })
                    })
                    .collect();
                let mut seen = vec![std::collections::HashSet::new(); bucketized.len()];
                for _ in 0..2_000 {
                    let decoded = identity.decode(&point(&mut rng, space.len()));
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
