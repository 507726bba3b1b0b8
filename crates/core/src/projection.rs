//! Random low-dimensional projections (Section 3).
//!
//! Both projections map a point of the optimizer's unit cube `[0, 1]^d`
//! to the scaled knob cube `[0, 1]^D` (internally they work on `[-1, 1]`
//! ranges exactly as the paper describes, converting at the boundaries).

use llamatune_math::{Matrix, Normal};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// HeSBO (Nayebi et al. 2019): a count-sketch projection. Each original
/// dimension `i` is controlled by exactly one synthetic dimension `h(i)`
/// with sign `sigma(i)`; projections can never leave the box, so no
/// clipping occurs and interior points stay reachable.
#[derive(Debug, Clone)]
pub(crate) struct HesboProjection {
    h: Vec<usize>,
    sign: Vec<f64>,
    d: usize,
}

impl HesboProjection {
    /// Samples the two hash functions uniformly, as in the paper.
    pub(crate) fn new(low_dim: usize, high_dim: usize, seed: u64) -> Self {
        assert!(low_dim >= 1, "need at least one synthetic dimension");
        let mut rng = StdRng::seed_from_u64(seed);
        let h = (0..high_dim).map(|_| rng.random_range(0..low_dim)).collect();
        let sign = (0..high_dim).map(|_| if rng.random::<bool>() { 1.0 } else { -1.0 }).collect();
        HesboProjection { h, sign, d: low_dim }
    }

    /// Projects a unit-cube point of the low space to a unit-cube point
    /// of the high space.
    pub(crate) fn project_unit(&self, low: &[f64]) -> Vec<f64> {
        assert_eq!(low.len(), self.d, "low-dimensional point has wrong arity");
        (0..self.h.len())
            .map(|i| {
                // [0,1] -> [-1,1], apply the signed copy, -> [0,1].
                let p = 2.0 * low[self.h[i]] - 1.0;
                let hat = self.sign[i] * p;
                (hat + 1.0) / 2.0
            })
            .collect()
    }
}

/// REMBO (Wang et al. 2016): a dense Gaussian projection. The synthetic
/// space is `[-sqrt(d), sqrt(d)]^d`; projected points outside `[-1, 1]^D`
/// are clipped to the box — the behaviour that (per Section 3.2) pushes
/// the optimization onto the facets and hurts performance.
#[derive(Debug)]
pub(crate) struct RemboProjection {
    a: Matrix,
    d: usize,
}

impl RemboProjection {
    /// Samples the projection matrix `A` with i.i.d. standard normal
    /// entries.
    pub(crate) fn new(low_dim: usize, high_dim: usize, seed: u64) -> Self {
        assert!(low_dim >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let normal = Normal::new(0.0, 1.0);
        let mut a = Matrix::zeros(high_dim, low_dim);
        for i in 0..high_dim {
            for j in 0..low_dim {
                a[(i, j)] = normal.sample(&mut rng);
            }
        }
        RemboProjection { a, d: low_dim }
    }

    /// Projects a unit-cube point of the low space to a unit-cube point
    /// of the high space, clipping the coordinates that overshoot.
    pub(crate) fn project_unit(&self, low: &[f64]) -> Vec<f64> {
        assert_eq!(low.len(), self.d);
        let sqrt_d = (self.d as f64).sqrt();
        // [0,1]^d -> [-sqrt(d), sqrt(d)]^d.
        let p: Vec<f64> = low.iter().map(|u| (2.0 * u - 1.0) * sqrt_d).collect();
        // Clip to [-1,1], then to [0,1].
        self.a.matvec(&p).into_iter().map(|v| (v.clamp(-1.0, 1.0) + 1.0) / 2.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl super::HesboProjection {
        /// The synthetic dimension controlling original dimension `i`.
        fn controlling_dim(&self, i: usize) -> usize {
            self.h[i]
        }

        /// The sign applied to original dimension `i`.
        fn sign_of(&self, i: usize) -> f64 {
            self.sign[i]
        }
    }

    #[test]
    fn hesbo_each_row_has_one_controller() {
        let p = HesboProjection::new(16, 90, 1);
        for i in 0..90 {
            assert!(p.controlling_dim(i) < 16);
            assert!(p.sign_of(i) == 1.0 || p.sign_of(i) == -1.0);
        }
    }

    #[test]
    fn hesbo_never_needs_clipping() {
        let p = HesboProjection::new(8, 50, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let low: Vec<f64> = (0..8).map(|_| rng.random::<f64>()).collect();
            let high = p.project_unit(&low);
            assert_eq!(high.len(), 50);
            assert!(high.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn hesbo_identity_structure() {
        // With sign +1 the projected coordinate equals the controlling
        // synthetic coordinate; with -1 it mirrors it.
        let p = HesboProjection::new(4, 10, 7);
        let low = [0.1, 0.4, 0.6, 0.9];
        let high = p.project_unit(&low);
        for (i, v) in high.iter().enumerate() {
            let src = low[p.controlling_dim(i)];
            if p.sign_of(i) > 0.0 {
                assert!((v - src).abs() < 1e-12);
            } else {
                assert!((v - (1.0 - src)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hesbo_center_maps_to_center() {
        let p = HesboProjection::new(6, 30, 4);
        let high = p.project_unit(&[0.5; 6]);
        assert!(high.iter().all(|v| (v - 0.5).abs() < 1e-12));
    }

    #[test]
    fn rembo_clips_most_coordinates_in_high_dim() {
        // The pathology of Section 3.2: random Gaussian projections from a
        // scaled box overwhelmingly land outside [-1,1] and get clipped.
        // A clipped coordinate lands exactly on a face of the unit cube.
        let p = RemboProjection::new(16, 90, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let (mut clipped, mut total) = (0, 0);
        for _ in 0..100 {
            let low: Vec<f64> = (0..16).map(|_| rng.random::<f64>()).collect();
            let high = p.project_unit(&low);
            assert!(high.iter().all(|v| (0.0..=1.0).contains(v)));
            clipped += high.iter().filter(|&&v| v == 0.0 || v == 1.0).count();
            total += high.len();
        }
        let fraction = clipped as f64 / total as f64;
        assert!(fraction > 0.5, "REMBO should clip most coordinates: {fraction}");
    }

    #[test]
    fn rembo_zero_point_is_interior() {
        let p = RemboProjection::new(4, 20, 8);
        // The center of the low space maps to A*0 = 0 -> 0.5 in unit terms.
        let high = p.project_unit(&[0.5; 4]);
        assert!(high.iter().all(|v| (v - 0.5).abs() < 1e-12));
    }

    #[test]
    fn projections_are_deterministic_by_seed() {
        let a = HesboProjection::new(8, 40, 11);
        let b = HesboProjection::new(8, 40, 11);
        let c = HesboProjection::new(8, 40, 12);
        let low: Vec<f64> = (0..8).map(|i| i as f64 / 8.0).collect();
        assert_eq!(a.project_unit(&low), b.project_unit(&low));
        assert_ne!(a.project_unit(&low), c.project_unit(&low));
    }

    proptest! {
        /// Every HeSBO projection stays in the unit cube and each output
        /// coordinate is a (possibly mirrored) copy of an input coordinate.
        #[test]
        fn hesbo_membership(seed in 0u64..100, low in proptest::collection::vec(0.0f64..=1.0, 8)) {
            let p = HesboProjection::new(8, 33, seed);
            let high = p.project_unit(&low);
            for (i, v) in high.iter().enumerate() {
                prop_assert!((0.0..=1.0).contains(v));
                let src = low[p.controlling_dim(i)];
                let expected = if p.sign_of(i) > 0.0 { src } else { 1.0 - src };
                prop_assert!((v - expected).abs() < 1e-12);
            }
        }

        /// REMBO projections always land in the unit cube after clipping.
        #[test]
        fn rembo_membership(seed in 0u64..50, low in proptest::collection::vec(0.0f64..=1.0, 6)) {
            let p = RemboProjection::new(6, 25, seed);
            let high = p.project_unit(&low);
            prop_assert_eq!(high.len(), 25);
            for v in high {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
