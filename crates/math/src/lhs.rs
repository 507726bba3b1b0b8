//! Latin Hypercube Sampling (McKay, Beckman & Conover 1979).
//!
//! Every tuning session in the paper bootstraps its optimizer with 10
//! LHS-generated configurations, and the important-knob ranking experiments
//! (Table 1) evaluate 2,500 LHS samples. The design guarantees one sample in
//! each of `n` equal-width strata per dimension.

use rand::seq::SliceRandom;
use rand::{Rng, RngExt};

/// Generates `n` points in the unit hypercube `[0, 1)^dims` with the Latin
/// hypercube property: projected onto any dimension, exactly one point falls
/// into each of the `n` strata `[i/n, (i+1)/n)`.
///
/// Returns an empty vector when `n == 0`.
pub fn latin_hypercube<R: Rng + ?Sized>(n: usize, dims: usize, rng: &mut R) -> Vec<Vec<f64>> {
    if n == 0 {
        return Vec::new();
    }
    let mut points = vec![vec![0.0; dims]; n];
    let mut perm: Vec<usize> = (0..n).collect();
    for d in 0..dims {
        perm.shuffle(rng);
        for (i, point) in points.iter_mut().enumerate() {
            let stratum = perm[i] as f64;
            point[d] = (stratum + rng.random::<f64>()) / n as f64;
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn has_lhs_property(points: &[Vec<f64>], dims: usize) -> bool {
        let n = points.len();
        for d in 0..dims {
            let mut seen = vec![false; n];
            for p in points {
                let stratum = (p[d] * n as f64).floor() as usize;
                if stratum >= n || seen[stratum] {
                    return false;
                }
                seen[stratum] = true;
            }
        }
        true
    }

    #[test]
    fn lhs_covers_every_stratum() {
        let mut rng = StdRng::seed_from_u64(11);
        let pts = latin_hypercube(10, 5, &mut rng);
        assert_eq!(pts.len(), 10);
        assert!(has_lhs_property(&pts, 5));
    }

    #[test]
    fn lhs_zero_points() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(latin_hypercube(0, 3, &mut rng).is_empty());
    }

    #[test]
    fn lhs_single_point_in_unit_cube() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = latin_hypercube(1, 4, &mut rng);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = latin_hypercube(8, 4, &mut StdRng::seed_from_u64(7));
        let b = latin_hypercube(8, 4, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn lhs_property_holds(n in 1usize..30, dims in 1usize..8, seed in 0u64..500) {
            let pts = latin_hypercube(n, dims, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(pts.len(), n);
            prop_assert!(has_lhs_property(&pts, dims));
            for p in &pts {
                for &x in p {
                    prop_assert!((0.0..1.0).contains(&x));
                }
            }
        }
    }
}
