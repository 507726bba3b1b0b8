//! Sampling distributions implemented from scratch: standard/scaled normal
//! (Box–Muller, plus pdf/cdf needed by the Expected-Improvement acquisition
//! function), YCSB-style Zipfian over item ranks (for skewed key access),
//! exponential inter-arrival times (for the fixed-rate tail-latency runner),
//! and [`splitmix64`], the stateless hash behind every seeded draw that must
//! not depend on call order.

use parking_lot::Mutex;
use rand::{Rng, RngExt};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The splitmix64 finalizer: a fast, well-mixed 64-bit hash, so a draw
/// keyed by `(seed, index)` is a pure function of the key.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Normal distribution `N(mean, std^2)`.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    /// Panics if `std` is negative or non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0 && std.is_finite(), "invalid std: {std}");
        Normal { mean, std }
    }

    /// Draws one sample using the Box–Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.std * z
    }

    /// Probability density function.
    pub fn pdf(&self, x: f64) -> f64 {
        if self.std == 0.0 {
            return if x == self.mean { f64::INFINITY } else { 0.0 };
        }
        let z = (x - self.mean) / self.std;
        (-0.5 * z * z).exp() / (self.std * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function via a high-accuracy `erf`
    /// approximation (Abramowitz & Stegun 7.1.26, |error| < 1.5e-7).
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std == 0.0 {
            return if x < self.mean { 0.0 } else { 1.0 };
        }
        let z = (x - self.mean) / (self.std * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Exponential distribution with the given rate (events per unit time).
/// Used for Poisson arrivals in the open-loop workload runner.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution.
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "invalid rate: {rate}");
        Exponential { rate }
    }

    /// Draws one inter-arrival interval.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        -u.ln() / self.rate
    }
}

/// Cache of `zeta(n, theta)` values: computing the generalized harmonic
/// number is O(n) for tens of millions of items, so it is shared across all
/// evaluations of the same workload in a process.
static ZETA_CACHE: OnceLock<Mutex<HashMap<(u64, u64), f64>>> = OnceLock::new();

fn zeta(n: u64, theta: f64) -> f64 {
    let key = (n, theta.to_bits());
    let cache = ZETA_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&v) = cache.lock().get(&key) {
        return v;
    }
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    cache.lock().insert(key, sum);
    sum
}

/// Zipfian distribution over ranks `0..n`, following the YCSB generator
/// (Gray et al.'s method): rank 0 is the most popular item.
///
/// A caller that needs scattered hot keys (as YCSB does) should additionally
/// hash the returned rank.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `0.5^theta`, the width of rank 1's slice of `u * zetan`.
    half_pow_theta: f64,
}

impl Zipfian {
    /// Creates a Zipfian distribution over `n` items with skew `theta`
    /// (YCSB uses `theta = 0.99`).
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian over zero items");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1): {theta}");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian { n, alpha, zetan, eta, half_pow_theta: 0.5_f64.powf(theta) }
    }

    /// Draws a rank in `0..n`, rank 0 being the hottest.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sample_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Normal::new(3.0, 2.0);
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let m = crate::stats::mean(&samples);
        let s = crate::stats::std_dev(&samples);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
        assert!((s - 2.0).abs() < 0.05, "std {s}");
    }

    #[test]
    fn normal_cdf_pdf_known_values() {
        let std_norm = Normal::new(0.0, 1.0);
        assert!((std_norm.cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((std_norm.cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((std_norm.pdf(0.0) - 0.398_942_28).abs() < 1e-6);
        // Symmetry.
        assert!((std_norm.cdf(-1.0) + std_norm.cdf(1.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn erf_known_values() {
        // A&S 7.1.26 has |error| < 1.5e-7 everywhere (including a ~1e-9
        // residual at exactly 0 because the coefficients don't sum to 1).
        assert!(erf(0.0).abs() < 1.5e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Exponential::new(4.0);
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        assert!((crate::stats::mean(&samples) - 0.25).abs() < 0.01);
    }

    #[test]
    fn zipfian_rank_zero_is_hottest() {
        let mut rng = StdRng::seed_from_u64(3);
        let z = Zipfian::new(1000, 0.99);
        let mut counts = vec![0u64; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 should dominate and the tail should decay.
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[999]);
        let head: u64 = counts[..10].iter().sum();
        // With theta=0.99, the top-10 of 1000 items take a large share.
        assert!(head as f64 / 50_000.0 > 0.3, "head share {}", head as f64 / 50_000.0);
    }

    #[test]
    fn zipfian_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let z = Zipfian::new(37, 0.5);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 37);
        }
    }

    #[test]
    fn zeta_cache_consistent() {
        let a = zeta(1000, 0.99);
        let b = zeta(1000, 0.99);
        assert_eq!(a, b);
        assert!(a > 0.0);
        // zeta(2, 1/2) = 1 + 1/sqrt(2)
        assert!((zeta(2, 0.5) - (1.0 + 1.0 / 2.0_f64.sqrt())).abs() < 1e-12);
    }
}
