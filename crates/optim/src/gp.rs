//! GP-BO: Gaussian-process Bayesian optimization with a Matérn 5/2 kernel
//! over continuous dimensions and a Hamming kernel over categorical ones
//! (the CoCaBO-style mixed-space GP of Ru et al. 2020, which the paper
//! evaluates as its second BO baseline).
//!
//! # Settings
//!
//! GP-BO runs at one fixed setting, private constants beside the code
//! that reads them: `N_CANDIDATES` = 1 500 random candidates scored by EI
//! per suggestion, with margin `XI` = 0.01; the kernel hyperparameters
//! refitted every `REFIT_EVERY` = 5 observations, as the best by marginal
//! likelihood of the current setting and `MLE_DRAWS` − 1 = 23 random
//! draws. The values are this crate's.
//!
//! # The EI scoring pass and its contract
//!
//! A suggestion scores 1 500 random candidates against the whole history:
//! `n × 1500` kernel entries, a triangular solve, a mean and a variance
//! per candidate. `GpBo::ei_batch` does it row-wise. The candidates are
//! copied once into columns (one contiguous run per continuous dimension,
//! decoded categories per categorical one), and `kstar` is filled one
//! history point — one contiguous row — at a time by
//! `GpBo::kernel_row`; posterior mean and variance accumulate into one
//! accumulator per candidate as the rows go by.
//!
//! **The contract is bit identity with the pointwise posterior**,
//! `GpBo::predict` over the scalar `GpBo::kernel` (which the refit
//! and the factor append still use): checked by the
//! `ei_batch_matches_pointwise_predict_bit_for_bit` proptest and pinned
//! by the two streams in `tests/gp_golden.rs`. As in [`crate::rf`] and
//! [`crate::nn`], a lane is another *result* — another candidate — never
//! a partial sum of one: candidate `j`'s squared distance starts at `0.0`
//! and takes `(c[k][j] - x[k])²` in `dims.cont` order, its mean and
//! explained variance start at `-0.0` (what `Iterator::sum` folds from)
//! and take their terms with the history index ascending — the additions
//! the pointwise code performs, in its order. Both spellings share
//! `GpBo::kernel_value` for the Matérn tail and its `exp`; the Hamming
//! factor costs a second `exp` only when the space has a categorical
//! dimension (`exp(-γ·0)` is exactly `1.0`, and `x * 1.0` is `x`).
//!
//! The two lane kernels of [`Matrix`] that GP-BO calls
//! (`solve_lower_batch` here, `cholesky` in the refit) run the AVX2 copy
//! where the CPU has it (see `llamatune_math::Isa`). A wider register
//! computes more candidates per instruction, never a candidate's sum in
//! another order, and nothing is fused, so both copies give these bits.
//! `kernel_row` has the portable copy only: its pass is bound by the
//! `exp` of `kernel_value`, and an AVX2 copy of it measured no faster.
//!
//! A refit scores `MLE_DRAWS` hyperparameter draws on one history. The
//! pairwise squared distances and mismatch counts do not depend on the
//! draw, so `GpBo::pair_stats` computes them once per refit, each as the
//! pointwise `kernel` would, and every draw's matrix is `kernel_value` of
//! them.

use crate::spec::{category, expected_improvement, Observation, Optimizer, ParamKind, SearchSpec};
use llamatune_math::{Matrix, Normal};
use llamatune_obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Random EI candidates per suggestion.
const N_CANDIDATES: usize = 1_500;
/// Refit kernel hyperparameters every this many observations.
const REFIT_EVERY: usize = 5;
/// Random hyperparameter draws per MLE search.
const MLE_DRAWS: usize = 24;
/// EI exploration margin.
const XI: f64 = 0.01;

/// Kernel hyperparameters.
#[derive(Debug, Clone, Copy)]
struct Hyper {
    signal_var: f64,
    lengthscale: f64,
    cat_gamma: f64,
    noise_var: f64,
}

impl Default for Hyper {
    fn default() -> Self {
        Hyper { signal_var: 1.0, lengthscale: 0.4, cat_gamma: 1.0, noise_var: 1e-3 }
    }
}

/// The continuous/categorical dimension split of the search space,
/// computed once at construction so the kernel inner loop walks two
/// index lists instead of re-matching on `spec.params` per call.
#[derive(Debug, Clone)]
struct DimSplit {
    /// Indices of continuous dimensions.
    cont: Vec<usize>,
    /// `(index, n_choices)` of categorical dimensions.
    cat: Vec<(usize, usize)>,
}

impl DimSplit {
    fn of(spec: &SearchSpec) -> Self {
        let mut cont = Vec::new();
        let mut cat = Vec::new();
        for (i, p) in spec.params.iter().enumerate() {
            match p {
                ParamKind::Continuous { .. } => cont.push(i),
                ParamKind::Categorical { n } => cat.push((i, *n)),
            }
        }
        DimSplit { cont, cat }
    }
}

/// The GP-BO optimizer.
pub struct GpBo {
    spec: SearchSpec,
    dims: DimSplit,
    rng: StdRng,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    hyper: Hyper,
    /// Cached Cholesky factor and weights for the standardized targets.
    cache: Option<GpCache>,
    y_mean: f64,
    y_std: f64,
    /// Where the `optim.gp.*` timings and counts go: private (and
    /// dropped with the optimizer) unless [`GpBo::with_metrics`] set it.
    metrics: Arc<MetricsRegistry>,
}

#[derive(Clone)]
struct GpCache {
    chol: Matrix,
    alpha: Vec<f64>,
}

/// See [`GpBo::pair_stats`]: `(squared distance, mismatches)` of pair
/// `(i, j)`, `j <= i`, at `i * (i + 1) / 2 + j`.
struct PairStats(Vec<(f64, f64)>);

impl PairStats {
    fn get(&self, i: usize, j: usize) -> (f64, f64) {
        self.0[i * (i + 1) / 2 + j]
    }
}

/// See [`GpBo::candidate_columns`].
struct CandidateColumns {
    /// One column (a value per candidate) per continuous dimension.
    cont: Vec<f64>,
    /// One column of decoded categories per categorical dimension.
    cat: Vec<usize>,
    /// Per-candidate accumulators of the row being filled.
    sq: Vec<f64>,
    mismatches: Vec<f64>,
}

/// A [`GpBo`] state checkpoint (see [`Optimizer::snapshot`]): the full
/// mutable state, cloneable in O(n²) — dominated by the factor.
#[derive(Clone)]
struct GpSnapshot {
    rng: StdRng,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    hyper: Hyper,
    cache: Option<GpCache>,
    y_mean: f64,
    y_std: f64,
}

impl GpBo {
    /// Creates a GP-BO instance over `spec`.
    pub fn new(spec: SearchSpec, seed: u64) -> Self {
        let dims = DimSplit::of(&spec);
        GpBo {
            spec,
            dims,
            rng: StdRng::seed_from_u64(seed),
            xs: Vec::new(),
            ys: Vec::new(),
            hyper: Hyper::default(),
            cache: None,
            y_mean: 0.0,
            y_std: 1.0,
            metrics: Arc::default(),
        }
    }

    /// Records this optimizer's `optim.gp.*` metrics into `registry` —
    /// the registry of the session it serves.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = registry;
        self
    }

    /// Cholesky factorization with wall time recorded in the
    /// `optim.gp.cholesky_ms` histogram.
    fn timed_cholesky(&self, k: &Matrix) -> Option<Matrix> {
        let hot_path_start = std::time::Instant::now();
        let chol = k.cholesky(1e-8).ok();
        self.metrics.observe("optim.gp.cholesky_ms", hot_path_start.elapsed().as_secs_f64() * 1e3);
        chol
    }

    /// Matérn 5/2 x Hamming kernel.
    fn kernel(&self, h: &Hyper, a: &[f64], b: &[f64]) -> f64 {
        let (sq, mismatches) = self.distance(a, b);
        self.kernel_value(h, sq, mismatches)
    }

    /// The two sufficient statistics of a kernel entry (see
    /// [`GpBo::kernel_value`]), each summed from `0.0` in dimension order.
    fn distance(&self, a: &[f64], b: &[f64]) -> (f64, f64) {
        let mut sq = 0.0;
        for &i in &self.dims.cont {
            let d = a[i] - b[i];
            sq += d * d;
        }
        let mut mismatches = 0.0;
        for &(i, n) in &self.dims.cat {
            if category(a[i], n) != category(b[i], n) {
                mismatches += 1.0;
            }
        }
        (sq, mismatches)
    }

    /// One kernel entry from its two sufficient statistics: the squared
    /// distance over the continuous dimensions and the number of
    /// categorical dimensions that disagree. Shared by the pointwise
    /// [`GpBo::kernel`] and the row-wise [`GpBo::kernel_row`].
    #[inline]
    fn kernel_value(&self, h: &Hyper, sq: f64, mismatches: f64) -> f64 {
        let n_cont = self.dims.cont.len();
        let r = if n_cont == 0 { 0.0 } else { (sq / n_cont as f64).sqrt() / h.lengthscale };
        let sqrt5r = 5.0f64.sqrt() * r;
        let matern = (1.0 + sqrt5r + 5.0 * r * r / 3.0) * (-sqrt5r).exp();
        if self.dims.cat.is_empty() {
            // The Hamming factor of no categorical dimension is
            // exp(-γ·0) = 1.0 exactly, and `x * 1.0` is `x` bit for bit:
            // LlamaTune's projected space never pays the second `exp`.
            return h.signal_var * matern;
        }
        let hamming = (-h.cat_gamma * mismatches).exp();
        h.signal_var * matern * hamming
    }

    /// `out[j] = kernel(candidate j, x)` for every candidate of `cands`,
    /// bit for bit: per continuous dimension, in `dims.cont` order,
    /// `sq[j] += (c[j] - x)²` for all `j` — the lanes are candidates, each
    /// with the pointwise kernel's own chain of additions from `0.0` —
    /// then the mismatch counts the same way (skipped without categorical
    /// dimensions), then [`GpBo::kernel_value`] per entry.
    fn kernel_row(&self, h: &Hyper, cands: &mut CandidateColumns, x: &[f64], out: &mut [f64]) {
        let CandidateColumns { cont, cat, sq, mismatches } = cands;
        let m = sq.len();
        sq.fill(0.0);
        for (col, &k) in cont.chunks_exact(m).zip(&self.dims.cont) {
            let xk = x[k];
            for (sq, c) in sq.iter_mut().zip(col) {
                let d = c - xk;
                *sq += d * d;
            }
        }
        mismatches.fill(0.0);
        for (col, &(k, n)) in cat.chunks_exact(m).zip(&self.dims.cat) {
            let xk = category(x[k], n);
            for (mismatches, &c) in mismatches.iter_mut().zip(col) {
                if c != xk {
                    *mismatches += 1.0;
                }
            }
        }
        for ((out, &sq), &mismatches) in out.iter_mut().zip(&*sq).zip(&*mismatches) {
            *out = self.kernel_value(h, sq, mismatches);
        }
    }

    /// The column-major copy of an EI candidate set that
    /// [`GpBo::kernel_row`] sweeps: one contiguous run of `m` values per
    /// continuous dimension, one of decoded categories per categorical
    /// dimension, plus the row routine's two accumulators.
    fn candidate_columns(&self, candidates: &[Vec<f64>]) -> CandidateColumns {
        let m = candidates.len();
        let cont = self.dims.cont.iter().flat_map(|&k| candidates.iter().map(move |c| c[k]));
        let cat = self
            .dims
            .cat
            .iter()
            .flat_map(|&(k, n)| candidates.iter().map(move |c| category(c[k], n)));
        CandidateColumns {
            cont: cont.collect(),
            cat: cat.collect(),
            sq: vec![0.0; m],
            mismatches: vec![0.0; m],
        }
    }

    fn standardized_ys(&self) -> Vec<f64> {
        self.ys.iter().map(|y| (y - self.y_mean) / self.y_std).collect()
    }

    /// The factor, weights and log marginal likelihood of the history
    /// under `h`; `pairs` is [`GpBo::pair_stats`] of the history.
    fn build_cache(&self, h: &Hyper, pairs: &PairStats) -> Option<(GpCache, f64)> {
        let n = self.xs.len();
        let k = Matrix::from_symmetric_fn(n, |i, j| {
            let (sq, mismatches) = pairs.get(i, j);
            self.kernel_value(h, sq, mismatches) + if i == j { h.noise_var } else { 0.0 }
        });
        let chol = self.timed_cholesky(&k)?;
        let ys = self.standardized_ys();
        let alpha = chol.cholesky_solve(&ys);
        // Log marginal likelihood: -0.5 yᵀα - Σ ln L_ii - n/2 ln 2π.
        let fit: f64 = ys.iter().zip(&alpha).map(|(y, a)| y * a).sum();
        let lml =
            -0.5 * fit - chol.log_diag_sum() - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        Some((GpCache { chol, alpha }, lml))
    }

    /// [`GpBo::distance`] of every pair of history points `(i, j)`,
    /// `j <= i`, with `xs[i]` first, as [`GpBo::kernel`] fills the matrix.
    fn pair_stats(&self) -> PairStats {
        let mut stats = Vec::with_capacity(self.xs.len() * (self.xs.len() + 1) / 2);
        for (i, a) in self.xs.iter().enumerate() {
            stats.extend(self.xs[..=i].iter().map(|b| self.distance(a, b)));
        }
        PairStats(stats)
    }

    /// Maximum-likelihood hyperparameter search (random draws in log space,
    /// keeping the best).
    fn refit(&mut self) {
        self.y_mean = llamatune_math::mean(&self.ys);
        self.y_std = llamatune_math::std_dev(&self.ys).max(1e-6);
        let pairs = self.pair_stats();
        let mut best: Option<(f64, Hyper, GpCache)> = None;
        for i in 0..MLE_DRAWS {
            let h = if i == 0 {
                self.hyper // warm start from the current setting
            } else {
                Hyper {
                    signal_var: 10f64.powf(self.rng.random_range(-1.0..1.0)),
                    lengthscale: 10f64.powf(self.rng.random_range(-1.3..0.5)),
                    cat_gamma: 10f64.powf(self.rng.random_range(-1.0..1.0)),
                    noise_var: 10f64.powf(self.rng.random_range(-6.0..-1.0)),
                }
            };
            if let Some((cache, lml)) = self.build_cache(&h, &pairs) {
                if best.as_ref().is_none_or(|(b, _, _)| lml > *b) {
                    best = Some((lml, h, cache));
                }
            }
        }
        if let Some((_, h, cache)) = best {
            self.hyper = h;
            self.cache = Some(cache);
        } else {
            // Every draw failed to factor (pathological history). The
            // old cache no longer matches the observation count, so
            // serving it would panic in predict — fall back to the
            // prior until the data becomes factorable again.
            self.cache = None;
        }
    }

    /// Posterior mean and variance at `x` (in standardized units).
    fn predict(&self, x: &[f64]) -> (f64, f64) {
        let Some(cache) = &self.cache else { return (0.0, 1.0) };
        let kstar: Vec<f64> = self.xs.iter().map(|xi| self.kernel(&self.hyper, x, xi)).collect();
        let mean: f64 = kstar.iter().zip(&cache.alpha).map(|(k, a)| k * a).sum();
        let v = cache.chol.solve_lower(&kstar);
        let kss = self.hyper.signal_var + self.hyper.noise_var;
        let var = (kss - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12);
        (mean, var)
    }

    /// Expected improvement of every candidate over `best_standardized`,
    /// scored in one pass: the candidates' cross-covariance vectors form
    /// the columns of a single matrix whose triangular solve is blocked
    /// ([`Matrix::solve_lower_batch`]), and the standard normal is
    /// constructed once per batch instead of once per candidate.
    /// Per-candidate arithmetic matches [`GpBo::predict`] bit for bit.
    ///
    /// Wall time lands in the `optim.gp.ei_score_ms` histogram (timing
    /// only — nothing about the result depends on it).
    fn ei_batch(&self, candidates: &[Vec<f64>], best_standardized: f64) -> Vec<f64> {
        let hot_path_start = std::time::Instant::now();
        let eis = self.ei_batch_inner(candidates, best_standardized);
        self.metrics.observe("optim.gp.ei_score_ms", hot_path_start.elapsed().as_secs_f64() * 1e3);
        eis
    }

    fn ei_batch_inner(&self, candidates: &[Vec<f64>], best_standardized: f64) -> Vec<f64> {
        let std_norm = Normal::new(0.0, 1.0);
        let ei_of =
            |mean: f64, var: f64| expected_improvement(mean, var, best_standardized, XI, &std_norm);
        let Some(cache) = &self.cache else {
            // No usable factor (prior-only model): fall back to the
            // pointwise posterior, which reports (0, 1) everywhere.
            return candidates
                .iter()
                .map(|x| {
                    let (mean, var) = self.predict(x);
                    ei_of(mean, var)
                })
                .collect();
        };
        let (n, m) = (self.xs.len(), candidates.len());
        if m == 0 {
            return Vec::new();
        }
        // `kstar` is filled one history point — one contiguous row — at a
        // time, and the posterior mean and variance accumulate row-wise
        // too: candidate `j`'s accumulator starts at `-0.0` (what
        // `Iterator::sum` folds from in `predict`) and takes its terms
        // with `i` ascending, so every candidate sees `predict`'s sums.
        let mut cols = self.candidate_columns(candidates);
        let mut kstar = Matrix::zeros(n, m);
        let mut means = vec![-0.0; m];
        for (i, (xi, &alpha)) in self.xs.iter().zip(&cache.alpha).enumerate() {
            let row = kstar.row_mut(i);
            self.kernel_row(&self.hyper, &mut cols, xi, row);
            for (mean, k) in means.iter_mut().zip(&*row) {
                *mean += k * alpha;
            }
        }
        let v = cache.chol.solve_lower_batch(&kstar);
        let mut explained = vec![-0.0; m];
        for i in 0..n {
            for (acc, v) in explained.iter_mut().zip(v.row(i)) {
                *acc += v * v;
            }
        }
        let kss = self.hyper.signal_var + self.hyper.noise_var;
        means
            .iter()
            .zip(&explained)
            .map(|(&mean, &explained)| ei_of(mean, (kss - explained).max(1e-12)))
            .collect()
    }

    /// Extends the cached Cholesky factor with the newest observation's
    /// kernel row (O(n²)) and refreshes the target standardization and
    /// weights. Falls back to a full refit when the bordered matrix is
    /// numerically indefinite. Requires `xs`/`ys` to already hold the
    /// new observation and a live cache.
    fn append_to_cache(&mut self) {
        if self.append_row_to_factor() {
            self.refresh_alpha();
        } else {
            // An ill-conditioned border silently downgrades the O(n²)
            // append to an O(n³) refit; count it so reports surface
            // the hidden cost at large n.
            self.metrics.incr("optim.gp.append_fallback", 1);
            self.refit();
        }
    }

    /// The factor-extension half of [`GpBo::append_to_cache`]: appends
    /// the kernel row only, leaving `alpha` and the y standardization
    /// stale (callers must [`GpBo::refresh_alpha`] before the next
    /// prediction). Returns `false` if the border is not positive
    /// definite. Wall time lands in the `optim.gp.cholesky_append_ms`
    /// histogram.
    fn append_row_to_factor(&mut self) -> bool {
        let hot_path_start = std::time::Instant::now();
        let ok = self.append_row_to_factor_inner();
        self.metrics
            .observe("optim.gp.cholesky_append_ms", hot_path_start.elapsed().as_secs_f64() * 1e3);
        ok
    }

    fn append_row_to_factor_inner(&mut self) -> bool {
        let n = self.xs.len();
        let x_new = &self.xs[n - 1];
        let h = self.hyper;
        let mut row = Vec::with_capacity(n);
        for xi in &self.xs[..n - 1] {
            row.push(self.kernel(&h, x_new, xi));
        }
        row.push(self.kernel(&h, x_new, x_new) + h.noise_var);
        // `cholesky_append_row` only validates the new *diagonal*
        // pivot; a non-finite off-diagonal entry (NaN knob value, say)
        // would poison the factor silently. Reject the row here and
        // let the refit fallback quarantine the bad observation.
        if row.iter().any(|v| !v.is_finite()) {
            return false;
        }
        let cache = self.cache.as_mut().expect("incremental append requires a cached factor");
        match cache.chol.cholesky_append_row(&row, 1e-8) {
            Ok(chol) => {
                cache.chol = chol;
                true
            }
            Err(_) => false,
        }
    }

    /// Recomputes the target standardization and the weight vector
    /// `alpha` against the current factor — O(n²), shared by the
    /// incremental observe path and the batched replay path.
    fn refresh_alpha(&mut self) {
        self.y_mean = llamatune_math::mean(&self.ys);
        self.y_std = llamatune_math::std_dev(&self.ys).max(1e-6);
        let ys = self.standardized_ys();
        let cache = self.cache.as_mut().expect("refresh_alpha requires a cached factor");
        cache.alpha = cache.chol.cholesky_solve(&ys);
    }

    /// Whether pushing the `n`-th observation lands on a full-refit
    /// boundary (or there is no factor to extend yet).
    fn needs_refit(&self) -> bool {
        self.xs.len().is_multiple_of(REFIT_EVERY) || self.cache.is_none()
    }
}

impl Optimizer for GpBo {
    fn suggest(&mut self) -> Vec<f64> {
        if self.xs.len() < 2 {
            return self.spec.sample(&mut self.rng);
        }
        if self.cache.is_none() {
            self.refit();
        }
        let best_std =
            (self.ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max) - self.y_mean) / self.y_std;
        // Draw every candidate first (the RNG stream is identical to
        // drawing them inside the scoring loop), then score the whole
        // batch against the factor in one blocked triangular solve.
        let candidates: Vec<Vec<f64>> =
            (0..N_CANDIDATES).map(|_| self.spec.sample(&mut self.rng)).collect();
        let eis = self.ei_batch(&candidates, best_std);
        let mut champion: Option<(f64, usize)> = None;
        for (j, &ei) in eis.iter().enumerate() {
            if champion.is_none_or(|(b, _)| ei > b) {
                champion = Some((ei, j));
            }
        }
        let (_, j) = champion.expect("candidates > 0");
        candidates.into_iter().nth(j).expect("champion index in range")
    }

    fn observe(&mut self, obs: Observation) {
        debug_assert_eq!(obs.x.len(), self.spec.len());
        self.xs.push(obs.x);
        self.ys.push(obs.y);
        if self.needs_refit() {
            self.refit();
        } else {
            // Extend the cached factor in O(n²): bit-identical to
            // refactoring from scratch (see `Matrix::cholesky_append_row`
            // and `incremental_gp_matches_rebuild_gp_exactly`).
            self.append_to_cache();
        }
    }

    fn observe_batch(&mut self, obs: Vec<Observation>) {
        // Sequentially equivalent to observe() per item, but the weight
        // vector (and y standardization) is only refreshed once at the
        // end — replaying a stored history costs one O(n²) solve, not
        // one per trial. Refit boundaries still fire exactly where the
        // sequential path would, so the final state is bit-identical.
        let mut stale_alpha = false;
        for o in obs {
            debug_assert_eq!(o.x.len(), self.spec.len());
            self.xs.push(o.x);
            self.ys.push(o.y);
            if self.needs_refit() {
                self.refit();
                stale_alpha = false;
            } else if self.append_row_to_factor() {
                stale_alpha = true;
            } else {
                self.metrics.incr("optim.gp.append_fallback", 1);
                self.refit();
                stale_alpha = false;
            }
        }
        if stale_alpha {
            self.refresh_alpha();
        }
    }

    fn name(&self) -> &'static str {
        "gp-bo"
    }

    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(GpSnapshot {
            rng: self.rng.clone(),
            xs: self.xs.clone(),
            ys: self.ys.clone(),
            hyper: self.hyper,
            cache: self.cache.clone(),
            y_mean: self.y_mean,
            y_std: self.y_std,
        }))
    }

    fn restore(&mut self, snapshot: &(dyn std::any::Any + Send)) -> bool {
        let Some(s) = snapshot.downcast_ref::<GpSnapshot>() else { return false };
        self.rng = s.rng.clone();
        self.xs = s.xs.clone();
        self.ys = s.ys.clone();
        self.hyper = s.hyper;
        self.cache = s.cache.clone();
        self.y_mean = s.y_mean;
        self.y_std = s.y_std;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RandomSearch;

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

    #[test]
    fn gp_interpolates_observations() {
        let spec = SearchSpec::continuous(1);
        let mut gp = GpBo::new(spec, 1);
        for (x, y) in [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)] {
            gp.observe(Observation { x: vec![x], y, metrics: vec![] });
        }
        gp.refit();
        let (m_mid, _) = gp.predict(&[0.5]);
        let (m_edge, _) = gp.predict(&[0.0]);
        // Standardized units: the mid point should predict above the edge.
        assert!(m_mid > m_edge, "mid {m_mid} vs edge {m_edge}");
    }

    #[test]
    fn posterior_variance_shrinks_at_observed_points() {
        let spec = SearchSpec::continuous(2);
        let mut gp = GpBo::new(spec, 2);
        for i in 0..6 {
            let x = vec![i as f64 / 5.0, 1.0 - i as f64 / 5.0];
            gp.observe(Observation { x, y: i as f64, metrics: vec![] });
        }
        gp.refit();
        let (_, var_seen) = gp.predict(&[0.2, 0.8]);
        let (_, var_unseen) = gp.predict(&[0.95, 0.9]);
        assert!(
            var_seen < var_unseen,
            "observed region should be more certain: {var_seen} vs {var_unseen}"
        );
    }

    #[test]
    fn gp_bo_beats_random_search() {
        let f = |x: &[f64]| -((x[0] - 0.7) * (x[0] - 0.7) + (x[1] - 0.3) * (x[1] - 0.3));
        let spec = SearchSpec::continuous(2);
        let mut gp = GpBo::new(spec.clone(), 5);
        let gp_best = drive(&mut gp, f, 30);
        let mut rs = RandomSearch::new(spec, 5);
        let rs_best = drive(&mut rs, f, 30);
        assert!(gp_best >= rs_best, "GP {gp_best} vs random {rs_best}");
        assert!(gp_best > -0.01, "GP should approach the optimum: {gp_best}");
    }

    #[test]
    fn hamming_kernel_separates_categories() {
        let spec = SearchSpec {
            params: vec![ParamKind::Categorical { n: 3 }, ParamKind::Continuous { buckets: None }],
        };
        let gp = GpBo::new(spec, 3);
        let h = Hyper::default();
        let same = gp.kernel(&h, &[0.17, 0.5], &[0.17, 0.5]);
        let diff_cat = gp.kernel(&h, &[0.17, 0.5], &[0.84, 0.5]);
        assert!(same > diff_cat, "category mismatch must reduce covariance");
        // Within-bin encoding jitter must NOT reduce covariance.
        let same_bin = gp.kernel(&h, &[0.01, 0.5], &[0.30, 0.5]);
        assert!((same_bin - same).abs() < 1e-12);
    }

    #[test]
    fn mixed_space_optimization_works() {
        let spec = SearchSpec {
            params: vec![ParamKind::Continuous { buckets: None }, ParamKind::Categorical { n: 4 }],
        };
        let f = |x: &[f64]| {
            let cat = ((x[1] * 4.0).floor() as usize).min(3);
            -(x[0] - 0.25) * (x[0] - 0.25) + if cat == 2 { 0.5 } else { 0.0 }
        };
        let mut gp = GpBo::new(spec, 8);
        let best = drive(&mut gp, f, 35);
        assert!(best > 0.4, "should find category 2 near x0=0.25: {best}");
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = SearchSpec::continuous(2);
        let f = |x: &[f64]| -(x[0] - 0.5).abs();
        let mut a = GpBo::new(spec.clone(), 11);
        let mut b = GpBo::new(spec, 11);
        for _ in 0..10 {
            let xa = a.suggest();
            let xb = b.suggest();
            assert_eq!(xa, xb);
            a.observe(Observation { x: xa.clone(), y: f(&xa), metrics: vec![] });
            b.observe(Observation { x: xb.clone(), y: f(&xb), metrics: vec![] });
        }
    }

    /// The O(n²) append between refits is a refactorization in all but
    /// its cost: after every observe, the cached factor and weights are,
    /// bit for bit, what `build_cache` computes from scratch over the
    /// same points with the same hyperparameters.
    #[test]
    fn incremental_gp_matches_rebuild_gp_exactly() {
        let spec = SearchSpec {
            params: vec![
                ParamKind::Continuous { buckets: None },
                ParamKind::Categorical { n: 3 },
                ParamKind::Continuous { buckets: Some(50) },
            ],
        };
        let f = |x: &[f64]| x.iter().map(|v| -(v - 0.6) * (v - 0.6) + (7.0 * v).sin() * 0.05).sum();
        let mut gp = GpBo::new(spec, 11);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for i in 0..25 {
            let x = gp.suggest();
            let y = f(&x);
            gp.observe(Observation { x, y, metrics: vec![] });
            // The weights are solved against the current standardization.
            assert_eq!(gp.y_mean.to_bits(), llamatune_math::mean(&gp.ys).to_bits(), "obs {i}");
            let y_std = llamatune_math::std_dev(&gp.ys).max(1e-6);
            assert_eq!(gp.y_std.to_bits(), y_std.to_bits(), "obs {i}");
            let cache = gp.cache.as_ref().expect("a factorable history");
            let (rebuilt, _) =
                gp.build_cache(&gp.hyper, &gp.pair_stats()).expect("the same matrix factors");
            for r in 0..cache.chol.rows() {
                assert_eq!(bits(cache.chol.row(r)), bits(rebuilt.chol.row(r)), "obs {i}, row {r}");
            }
            assert_eq!(bits(&cache.alpha), bits(&rebuilt.alpha), "obs {i}: alpha");
        }
        let appends = gp.metrics.snapshot().hists["optim.gp.cholesky_append_ms"].count();
        // Refits at n = 1 (no factor yet), 5, 10, 15, 20, 25; appends elsewhere.
        assert_eq!(appends, 19);
    }

    /// A random scoring problem: a continuous-only, mixed or
    /// categorical-only spec of 1..20 dimensions (bucketized ones put
    /// candidates exactly on history coordinates), 2..60 observations,
    /// and — three times in four; otherwise the prior-only model — a
    /// refit's hyperparameters and cached factor.
    fn random_model(seed: u64) -> GpBo {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = rng.random_range(1..20);
        // 0: continuous only, 1: mixed, 2: categorical only.
        let shape = rng.random_range(0..3);
        let params = (0..d)
            .map(|_| match (shape, rng.random_range(0..3)) {
                (0, 0) | (1, 0) => ParamKind::Continuous { buckets: Some(rng.random_range(2..9)) },
                (0, _) | (1, 1) => ParamKind::Continuous { buckets: None },
                _ => ParamKind::Categorical { n: rng.random_range(2..6) },
            })
            .collect();
        let spec = SearchSpec { params };
        let mut gp = GpBo::new(spec.clone(), seed);
        for _ in 0..rng.random_range(2..60) {
            let x = spec.sample(&mut rng);
            let y = x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum::<f64>() + rng.random::<f64>();
            gp.xs.push(x);
            gp.ys.push(y);
        }
        if rng.random_range(0..4) > 0 {
            gp.refit();
        }
        gp
    }

    proptest::proptest! {
        /// `ei_batch`'s promise since it was written: every candidate's
        /// score is the pointwise posterior's (`predict`, which still goes
        /// through the scalar `kernel`) under the same EI formula, bit for
        /// bit — at candidate counts below, at and past any lane width.
        #[test]
        fn ei_batch_matches_pointwise_predict_bit_for_bit(seed in proptest::any::<u64>()) {
            let gp = random_model(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xe1);
            let best = rng.random_range(-1.0..2.0);
            let std_norm = Normal::new(0.0, 1.0);
            for m in [1, 7, 64, 129] {
                let candidates: Vec<Vec<f64>> = (0..m).map(|_| gp.spec.sample(&mut rng)).collect();
                let got: Vec<u64> =
                    gp.ei_batch(&candidates, best).iter().map(|ei| ei.to_bits()).collect();
                let want: Vec<u64> = candidates
                    .iter()
                    .map(|x| {
                        let (mean, var) = gp.predict(x);
                        expected_improvement(mean, var, best, XI, &std_norm).to_bits()
                    })
                    .collect();
                assert_eq!(got, want, "seed {seed}, {m} candidates, {:?}", gp.spec);
            }
        }
    }
}
