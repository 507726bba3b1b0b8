//! Black-box configuration optimizers, implemented from scratch:
//!
//! * [`Smac`] — Sequential Model-based Algorithm Configuration (Hutter et
//!   al. 2011): a random-forest surrogate with Expected Improvement,
//!   local search around incumbents, and periodically interleaved random
//!   suggestions. The paper's best-performing baseline.
//! * [`GpBo`] — Gaussian-process BO with a Matérn 5/2 kernel on continuous
//!   dimensions and a Hamming kernel on categorical ones (Ru et al. 2020).
//! * [`Ddpg`] — Deep Deterministic Policy Gradient (Lillicrap et al. 2016)
//!   as used by CDBTune/QTune: actor–critic MLPs over the DBMS's internal
//!   metrics, trained with a replay buffer and OU exploration noise.
//!
//! All optimizers operate on the *unit hypercube*: a suggestion is a vector
//! `x ∈ [0, 1]^d` which the caller converts to knob values (or through the
//! LlamaTune pipeline). Categorical dimensions are declared in the
//! [`SearchSpec`] so surrogates can treat them as unordered.
//!
//! LlamaTune's knobs live in its adapter; the optimizers it wraps run at
//! fixed settings. So each constructor takes only the search space and a
//! seed (`Smac::new`, `GpBo::new`, `Ddpg::new`, and `RandomForest::fit`
//! the history besides), and each setting is a private constant, listed
//! once with its source in its module's doc (`smac.rs`, `rf.rs`, `gp.rs`,
//! `ddpg.rs`).

mod ddpg;
mod gp;
mod guard;
mod nn;
mod rf;
pub mod shap;
mod smac;
mod spec;

pub use ddpg::Ddpg;
pub use gp::GpBo;
pub use guard::{DegradationEvent, GuardFactory, GuardedOptimizer};
pub use rf::RandomForest;
pub use smac::Smac;
pub use spec::{
    Observation, Optimizer, OptimizerKind, ParamKind, RandomSearch, SearchSpec, DEFAULT_METRIC_DIM,
};
