//! Numerical substrate for the LlamaTune reproduction.
//!
//! This crate deliberately implements everything the upper layers need from
//! first principles — dense matrices with Cholesky factorization (for the
//! Gaussian-process surrogate), robust summary statistics with percentile
//! confidence intervals (for the paper's `[5%, 95%]` CI tables), sampling
//! distributions (normal, Zipfian, exponential) and Latin hypercube designs
//! (the space-filling initializer used by every tuning session) — so that the
//! workspace has no dependency on external linear-algebra or statistics
//! crates.

pub mod dist;
pub mod lhs;
pub mod matrix;
pub mod stats;

pub use dist::{splitmix64, Exponential, Normal, Zipfian};
pub use lhs::latin_hypercube;
pub use matrix::{CholeskyError, Matrix};
pub use stats::{bootstrap_ci_mean, mean, percentile, std_dev, RunningStats, Summary};
