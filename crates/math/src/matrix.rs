//! Minimal dense linear algebra: row-major matrices, Cholesky factorization
//! and triangular solves.
//!
//! This is everything the Gaussian-process surrogate in `llamatune-optim`
//! needs: building a kernel matrix, factoring it, solving against it, and
//! computing its log-determinant for the marginal likelihood.
//!
//! # The lane kernels and their contract
//!
//! Two routines are lane kernels, run through [`Isa::run`] (the AVX2 copy
//! where the CPU has it, see [`crate::dispatch`]):
//!
//! * [`Matrix::cholesky`] builds the factor column by column. The entries
//!   `L[i][j]`, `i > j`, of column `j` depend only on earlier columns, so
//!   they are computed `CHOLESKY_LANES` rows at a time from a column-major
//!   copy of the factor, where the textbook row-by-row loop runs one
//!   dependent chain of subtractions per entry;
//! * [`Matrix::solve_lower_batch`] substitutes a whole batch of
//!   right-hand sides row by row, a lane per right-hand side.
//!
//! **The contract is bit identity with the textbook loops**: the row-major
//! Cholesky (kept under `#[cfg(test)]` as `reference_cholesky`, the oracle
//! of `cholesky_matches_the_textbook_loop_bit_for_bit`) and one
//! [`Matrix::solve_lower`] per right-hand side. It holds because a lane is
//! another *result*, never a partial sum of one: entry `L[i][j]` starts
//! from `A[i][j]` (plus the jitter on the diagonal), takes
//! `-= L[i][k] * L[j][k]` with `k` ascending and is divided by `L[j][j]`,
//! exactly the textbook's operations in its order; nothing is fused and
//! nothing is reassociated, at either vector width. The pivots are checked
//! in the same order (column `j`'s diagonal is its first entry), so a
//! matrix that is not positive definite, or holds a NaN, fails at the same
//! pivot.

use crate::dispatch::Isa;
use std::fmt;

/// Rows of one column that [`Matrix::cholesky`] computes together.
const CHOLESKY_LANES: usize = 8;

/// Error returned when a Cholesky factorization fails because the input is
/// not (numerically) positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CholeskyError {
    /// Index of the pivot that was non-positive.
    pub pivot: usize,
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix not positive definite at pivot {}", self.pivot)
    }
}

impl std::error::Error for CholeskyError {}

/// A dense, row-major `rows x cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows * cols");
        Matrix { rows, cols, data }
    }

    /// Builds an `n x n` symmetric matrix by evaluating `f(i, j)` for the
    /// lower triangle and mirroring it.
    pub fn from_symmetric_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = f(i, j);
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Borrows row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len()` is not the number of columns.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in matvec");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v) {
                acc += a * b;
            }
            *o = acc;
        }
        out
    }

    /// Cholesky factorization: returns lower-triangular `L` with
    /// `self = L * L^T`. The input must be symmetric positive definite; a
    /// small `jitter` is added to the diagonal to absorb round-off. Only
    /// the lower triangle of `self` is read.
    pub fn cholesky(&self, jitter: f64) -> Result<Matrix, CholeskyError> {
        self.cholesky_on(Isa::best(), jitter)
    }

    fn cholesky_on(&self, isa: Isa, jitter: f64) -> Result<Matrix, CholeskyError> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        // The factor column-major while it is built: row `i` of column `j`
        // at `lt[j * stride + i]`. The padding lets the last block of a
        // column run `CHOLESKY_LANES` wide; what the padded lanes compute is
        // never read into a real entry.
        let stride = n + CHOLESKY_LANES;
        let mut lt = vec![0.0; n * stride];
        isa.run(
            #[inline(always)]
            || {
                for j in 0..n {
                    let (done, rest) = lt.split_at_mut(j * stride);
                    let col = &mut rest[..stride];
                    let mut diag = 0.0;
                    for top in (j..n).step_by(CHOLESKY_LANES) {
                        let mut acc = [0.0; CHOLESKY_LANES];
                        for (lane, acc) in acc.iter_mut().enumerate().take(n - top) {
                            *acc = self[(top + lane, j)];
                        }
                        if top == j {
                            acc[0] += jitter;
                        }
                        for done_col in done.chunks_exact(stride) {
                            let ljk = done_col[j];
                            let rows: &[f64; CHOLESKY_LANES] =
                                done_col[top..top + CHOLESKY_LANES].try_into().expect("padded");
                            for (acc, &lik) in acc.iter_mut().zip(rows) {
                                *acc -= lik * ljk;
                            }
                        }
                        if top == j {
                            let pivot = acc[0];
                            if pivot <= 0.0 || !pivot.is_finite() {
                                return Err(CholeskyError { pivot: j });
                            }
                            diag = pivot.sqrt();
                        }
                        let out: &mut [f64; CHOLESKY_LANES] =
                            (&mut col[top..top + CHOLESKY_LANES]).try_into().expect("padded");
                        for (out, acc) in out.iter_mut().zip(acc) {
                            *out = acc / diag;
                        }
                        if top == j {
                            out[0] = diag;
                        }
                    }
                }
                Ok(())
            },
        )?;
        let mut l = Matrix::zeros(n, n);
        for (j, col) in lt.chunks_exact(stride).enumerate() {
            for (i, &v) in col[..n].iter().enumerate().skip(j) {
                l[(i, j)] = v;
            }
        }
        Ok(l)
    }

    /// Extends a Cholesky factor by one row in O(n²): given `self` = the
    /// lower-triangular factor `L` of an `n x n` SPD matrix `A`, and the
    /// new bordering row `row = [A[n,0], .., A[n,n-1], A[n,n]]` (its last
    /// entry is the new diagonal element), returns the `(n+1) x (n+1)`
    /// factor of the bordered matrix. `jitter` is added to the new
    /// diagonal entry exactly as [`Matrix::cholesky`] would.
    ///
    /// The new row is computed with the same recurrences (and the same
    /// floating-point operation order) as a full refactorization, so the
    /// result is bit-identical to `bordered_A.cholesky(jitter)` — which
    /// is what lets the GP surrogate append observations incrementally
    /// without perturbing any recorded history.
    ///
    /// # Panics
    /// Panics if `self` is not square or `row.len() != self.rows() + 1`.
    pub fn cholesky_append_row(&self, row: &[f64], jitter: f64) -> Result<Matrix, CholeskyError> {
        assert_eq!(self.rows, self.cols, "cholesky_append_row requires a square factor");
        let n = self.rows;
        assert_eq!(row.len(), n + 1, "bordering row must have n + 1 entries");
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            let (dst, src) = (&mut l.data[i * (n + 1)..i * (n + 1) + n], self.row(i));
            dst.copy_from_slice(src);
        }
        // New off-diagonal entries: the forward-substitution recurrence
        // w[j] = (A[n,j] - Σ_{k<j} L[j,k] w[k]) / L[j,j] is exactly the
        // full factorization's formula for row n.
        for j in 0..n {
            let mut sum = row[j];
            for k in 0..j {
                sum -= l[(n, k)] * l[(j, k)];
            }
            l[(n, j)] = sum / l[(j, j)];
        }
        let mut diag = row[n] + jitter;
        for k in 0..n {
            diag -= l[(n, k)] * l[(n, k)];
        }
        if diag <= 0.0 || !diag.is_finite() {
            return Err(CholeskyError { pivot: n });
        }
        l[(n, n)] = diag.sqrt();
        Ok(l)
    }

    /// Solves `L * x = b` where `self` is lower triangular (forward
    /// substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self[(i, j)] * x[j];
            }
            x[i] = sum / self[(i, i)];
        }
        x
    }

    /// Solves `L * X = B` for many right-hand sides at once, where `self`
    /// is lower triangular and `B` is `n x m` (one RHS per column).
    /// Returns `X` with the same shape.
    ///
    /// The substitution runs row-outer / column-inner, so every `L` row
    /// is streamed through the cache once per *batch* rather than once
    /// per RHS — the blocked layout that makes scoring thousands of EI
    /// candidates against one factor cheap. Each column's arithmetic is
    /// performed in the same order as [`Matrix::solve_lower`], so results
    /// are bit-identical to m independent solves.
    ///
    /// # Panics
    /// Panics if `self` is not square or `b.rows() != self.rows()`.
    pub fn solve_lower_batch(&self, b: &Matrix) -> Matrix {
        self.solve_lower_batch_on(Isa::best(), b)
    }

    fn solve_lower_batch_on(&self, isa: Isa, b: &Matrix) -> Matrix {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.rows, self.rows, "RHS row count must match the factor dimension");
        let (n, m) = (self.rows, b.cols);
        let mut x = b.clone();
        isa.run(
            #[inline(always)]
            || {
                for i in 0..n {
                    let (solved, rest) = x.data.split_at_mut(i * m);
                    let xi = &mut rest[..m];
                    let li = self.row(i);
                    for (j, &lij) in li[..i].iter().enumerate() {
                        let xj = &solved[j * m..(j + 1) * m];
                        for (acc, &v) in xi.iter_mut().zip(xj) {
                            *acc -= lij * v;
                        }
                    }
                    let d = li[i];
                    for acc in xi.iter_mut() {
                        *acc /= d;
                    }
                }
            },
        );
        x
    }

    /// Solves `L^T * x = b` where `self` is lower triangular (backward
    /// substitution against the transpose).
    pub fn solve_lower_transpose(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.len(), self.rows);
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for j in (i + 1)..n {
                sum -= self[(j, i)] * x[j];
            }
            x[i] = sum / self[(i, i)];
        }
        x
    }

    /// Given the Cholesky factor `L` of `A`, solves `A * x = b`.
    pub fn cholesky_solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.solve_lower(b);
        self.solve_lower_transpose(&y)
    }

    /// Sum of `ln` of the diagonal entries; for a Cholesky factor `L` of `A`,
    /// `2 * L.log_diag_sum()` is `ln det A`.
    pub fn log_diag_sum(&self) -> f64 {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)].ln()).sum()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// The textbook row-by-row factorization [`Matrix::cholesky`] replaced,
/// kept as the oracle of its bit-identity test.
#[cfg(test)]
fn reference_cholesky(a: &Matrix, jitter: f64) -> Result<Matrix, CholeskyError> {
    let n = a.rows;
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            if i == j {
                sum += jitter;
            }
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(CholeskyError { pivot: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn identity_matvec_is_identity() {
        let m = Matrix::identity(4);
        let v = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(m.matvec(&v), v);
    }

    #[test]
    fn matvec_known_values() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let out = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(out, vec![-2.0, -2.0]);
    }

    #[test]
    fn cholesky_known_factor() {
        // A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let l = a.cholesky(0.0).unwrap();
        assert!(approx_eq(l[(0, 0)], 2.0, 1e-12));
        assert!(approx_eq(l[(1, 0)], 1.0, 1e-12));
        assert!(approx_eq(l[(1, 1)], 2.0_f64.sqrt(), 1e-12));
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(a.cholesky(0.0).is_err());
    }

    #[test]
    fn cholesky_solve_roundtrip() {
        let a = Matrix::from_vec(3, 3, vec![6.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 4.0]);
        let l = a.cholesky(0.0).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = l.cholesky_solve(&b);
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!(approx_eq(*u, *v, 1e-10), "{u} vs {v}");
        }
    }

    #[test]
    fn log_det_matches_known() {
        // det([[4,2],[2,3]]) = 8 -> ln det = ln 8.
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let l = a.cholesky(0.0).unwrap();
        assert!(approx_eq(2.0 * l.log_diag_sum(), 8.0_f64.ln(), 1e-12));
    }

    #[test]
    fn from_symmetric_fn_evaluates_each_pair_once() {
        // The kernel is the hot callback: symmetric fill must evaluate
        // it once per unordered (i, j) pair, not once per cell.
        let mut calls = 0usize;
        let m = Matrix::from_symmetric_fn(5, |i, j| {
            calls += 1;
            (i + j) as f64
        });
        assert_eq!(calls, 5 * 6 / 2, "n(n+1)/2 evaluations for n = 5");
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(m[(i, j)], (i + j) as f64);
                assert_eq!(m[(i, j)], m[(j, i)]);
            }
        }
    }

    /// Builds a random SPD matrix of size n (B*Bᵀ + n*I).
    fn random_spd(n: usize, seed: u64) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let b = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.random_range(-2.0..2.0)).collect());
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b[(i, k)] * b[(j, k)];
                }
                a[(i, j)] = s + if i == j { n as f64 } else { 0.0 };
            }
        }
        a
    }

    #[test]
    fn cholesky_append_row_matches_full_rebuild_bitwise() {
        // Grow a factor one bordered row at a time and compare against
        // refactorizing from scratch at every size: the incremental
        // update must agree not merely to 1e-9 but to the last bit,
        // because the GP's recorded histories are compared bitwise.
        for seed in 0..5u64 {
            let a = random_spd(12, seed);
            let jitter = 1e-8;
            let l = a.cholesky(jitter).unwrap();
            // Start from the 1x1 factor and regrow one border at a time.
            let mut small = Matrix::from_vec(1, 1, vec![(a[(0, 0)] + jitter).sqrt()]);
            for n in 1..12 {
                let row: Vec<f64> = (0..=n).map(|j| a[(n, j)]).collect();
                small = small.cholesky_append_row(&row, jitter).unwrap();
            }
            for i in 0..12 {
                for j in 0..12 {
                    assert_eq!(
                        small[(i, j)].to_bits(),
                        l[(i, j)].to_bits(),
                        "entry ({i}, {j}) diverged at seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn cholesky_append_row_rejects_non_spd_borders() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let l = a.cholesky(0.0).unwrap();
        // A bordering row that makes the matrix singular: the new row
        // equals the first row, so the Schur complement is <= 0.
        let err = l.cholesky_append_row(&[4.0, 2.0, 4.0], 0.0).unwrap_err();
        assert_eq!(err.pivot, 2);
    }

    #[test]
    fn solve_lower_batch_matches_columnwise_solves_bitwise() {
        let a = random_spd(9, 3);
        let l = a.cholesky(0.0).unwrap();
        let m = 7;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let b = Matrix::from_vec(9, m, (0..9 * m).map(|_| rng.random_range(-5.0..5.0)).collect());
        for isa in Isa::available() {
            let x = l.solve_lower_batch_on(isa, &b);
            for j in 0..m {
                let col: Vec<f64> = (0..9).map(|i| b[(i, j)]).collect();
                let single = l.solve_lower(&col);
                for i in 0..9 {
                    assert_eq!(
                        x[(i, j)].to_bits(),
                        single[i].to_bits(),
                        "{isa:?} column {j} row {i}"
                    );
                }
            }
        }
    }

    /// A kernel matrix of the GP's kind, `n` from 1 to 130: squared-
    /// exponential covariances of random points plus a noise floor from
    /// generous to vanishing (so some factorizations fail on round-off),
    /// then, one time in four each, a diagonal entry made negative or an
    /// entry of the lower triangle made NaN or infinite.
    fn random_kernel_matrix(seed: u64) -> (Matrix, f64) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, d) = (rng.random_range(1..=130), rng.random_range(1..6));
        let points: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect();
        let scale: f64 = rng.random_range(0.05..2.0);
        let noise = 10f64.powf(rng.random_range(-14.0..0.0));
        let mut a = Matrix::from_symmetric_fn(n, |i, j| {
            let sq: f64 = points[i].iter().zip(&points[j]).map(|(p, q)| (p - q) * (p - q)).sum();
            (-sq / scale).exp() + if i == j { noise } else { 0.0 }
        });
        let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
        match rng.random_range(0..4) {
            0 => a[(i, i)] = -a[(i, i)],
            1 => a[(i.max(j), i.min(j))] = [f64::NAN, f64::INFINITY][rng.random_range(0..2usize)],
            _ => {}
        }
        (a, [0.0, 1e-8][rng.random_range(0..2usize)])
    }

    proptest! {
        /// The lane factorization's contract, at both vector widths: the
        /// textbook loop's factor to the last bit, or its error at the same
        /// pivot.
        #[test]
        fn cholesky_matches_the_textbook_loop_bit_for_bit(seed in any::<u64>()) {
            let (a, jitter) = random_kernel_matrix(seed);
            let bits = |r: &Result<Matrix, CholeskyError>| {
                r.as_ref().map(|l| l.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()).map_err(|e| *e)
            };
            let want = bits(&reference_cholesky(&a, jitter));
            for isa in Isa::available() {
                prop_assert_eq!(&bits(&a.cholesky_on(isa, jitter)), &want, "{:?}, n = {}", isa, a.rows);
            }
        }

        /// Any matrix of the form B*B^T + eps*I is SPD, so Cholesky must
        /// succeed and reconstruct the input.
        #[test]
        fn cholesky_reconstructs_spd(vals in proptest::collection::vec(-3.0f64..3.0, 16)) {
            let b = Matrix::from_vec(4, 4, vals);
            // a = b * b^T + I
            let mut a = Matrix::zeros(4, 4);
            for i in 0..4 {
                for j in 0..4 {
                    let mut s = 0.0;
                    for k in 0..4 {
                        s += b[(i, k)] * b[(j, k)];
                    }
                    a[(i, j)] = s + if i == j { 1.0 } else { 0.0 };
                }
            }
            let l = a.cholesky(0.0).unwrap();
            for i in 0..4 {
                for j in 0..4 {
                    let mut s = 0.0;
                    for k in 0..4 {
                        s += l[(i, k)] * l[(j, k)];
                    }
                    prop_assert!(approx_eq(s, a[(i, j)], 1e-9));
                }
            }
        }

        /// solve_lower / solve_lower_transpose invert the corresponding
        /// triangular products.
        #[test]
        fn triangular_solves_invert(vals in proptest::collection::vec(0.5f64..2.0, 10),
                                    b in proptest::collection::vec(-5.0f64..5.0, 4)) {
            // Build a well-conditioned lower-triangular matrix.
            let mut l = Matrix::zeros(4, 4);
            let mut it = vals.into_iter();
            for i in 0..4 {
                for j in 0..=i {
                    let v = it.next().unwrap();
                    l[(i, j)] = if i == j { v + 1.0 } else { v - 1.25 };
                }
            }
            let x = l.solve_lower(&b);
            // L * x should equal b.
            for i in 0..4 {
                let mut s = 0.0;
                for j in 0..=i {
                    s += l[(i, j)] * x[j];
                }
                prop_assert!(approx_eq(s, b[i], 1e-9));
            }
        }
    }
}
