//! Minimal dense linear algebra: row-major matrices, Cholesky factorization
//! and triangular solves.
//!
//! This is everything the Gaussian-process surrogate in `llamatune-optim`
//! needs: building a kernel matrix, factoring it, solving against it, and
//! computing its log-determinant for the marginal likelihood.

use std::fmt;

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
    /// small `jitter` is added to the diagonal to absorb round-off.
    pub fn cholesky(&self, jitter: f64) -> Result<Matrix, CholeskyError> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
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
        assert_eq!(self.rows, self.cols);
        assert_eq!(b.rows, self.rows, "RHS row count must match the factor dimension");
        let (n, m) = (self.rows, b.cols);
        let mut x = b.clone();
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
        let x = l.solve_lower_batch(&b);
        for j in 0..m {
            let col: Vec<f64> = (0..9).map(|i| b[(i, j)]).collect();
            let single = l.solve_lower(&col);
            for i in 0..9 {
                assert_eq!(x[(i, j)].to_bits(), single[i].to_bits(), "column {j} row {i}");
            }
        }
    }

    proptest! {
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
