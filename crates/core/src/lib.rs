//! # LlamaTune: sample-efficient DBMS configuration tuning
//!
//! A from-scratch Rust implementation of *LlamaTune* (Kanellis et al.,
//! VLDB 2022): a search-space transformation layer that makes any black-box
//! configuration optimizer dramatically more sample-efficient by exploiting
//! three pieces of DBMS domain knowledge:
//!
//! 1. **Random low-dimensional projections** ([`projection`]) — the
//!    optimizer tunes a synthetic `d`-dimensional space (default `d = 16`)
//!    that a HeSBO count-sketch projects onto the full `D`-dimensional knob
//!    space, exploiting the low effective dimensionality of DBMS
//!    performance. A REMBO (dense Gaussian) projection is included as the
//!    paper's baseline.
//! 2. **Special-value biasing** ([`bias`]) — *hybrid* knobs have special
//!    values that flip semantics discontinuously; a fixed probability slice
//!    (default 20%) of each hybrid knob's post-projection range maps onto
//!    the special value so the optimizer observes the discontinuity early.
//! 3. **Search-space bucketization** ([`pipeline`], via
//!    `llamatune_optim::ParamKind`) — each synthetic dimension exposes at
//!    most `K` unique values (default 10,000) so the optimizer stops
//!    distinguishing performance-equivalent knob settings.
//!
//! The [`pipeline::LlamaTunePipeline`] composes the three exactly as
//! Section 5 prescribes: the optimizer sees the bucketized low-dimensional
//! space; biasing is applied *after* projection, only to hybrid knobs, and
//! before re-scaling to physical values.
//!
//! [`session`] provides the end-to-end tuning loop (LHS initialization,
//! crash penalty, knowledge base, best-so-far tracking), [`early_stop`] the
//! deployment-scenario stopping policies of Appendix A, and [`report`] the
//! evaluation metrics used throughout the paper (final improvement %,
//! time-to-optimal speedup, iteration-vs-iteration convergence maps).
//!
//! ## Quickstart
//!
//! ```no_run
//! use llamatune::pipeline::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
//! use llamatune::session::{run_session, EvalResult, SessionOptions};
//! use llamatune_optim::{Smac, SmacConfig};
//! use llamatune_space::catalog::postgres_v9_6;
//!
//! let space = postgres_v9_6();
//! let pipeline = LlamaTunePipeline::new(&space, &LlamaTuneConfig::default(), 42);
//! let optimizer = Smac::new(pipeline.optimizer_spec().clone(), SmacConfig::default(), 42);
//! let history = run_session(
//!     &pipeline,
//!     Box::new(optimizer),
//!     |config| {
//!         // Run your DBMS benchmark here; higher scores are better.
//!         let throughput = 0.0; // measure...
//!         let _ = config;
//!         EvalResult { score: Some(throughput), metrics: Vec::new(), ..Default::default() }
//!     },
//!     &SessionOptions::default(),
//! );
//! println!("best = {:?}", history.best_score());
//! ```

pub mod backoff;
pub mod bias;
pub mod early_stop;
pub mod history_io;
pub mod par;
pub mod pipeline;
pub mod projection;
pub mod report;
pub mod session;

pub use backoff::{Backoff, BackoffPolicy};
pub use bias::apply_special_value_bias;
pub use early_stop::EarlyStopPolicy;
pub use pipeline::{
    IdentityAdapter, LlamaTuneConfig, LlamaTunePipeline, ProjectionKind, SearchSpaceAdapter,
};
pub use projection::{HesboProjection, RemboProjection};
pub use report::{convergence_map, final_improvement_pct, time_to_optimal};
pub use session::{
    replay_cutoff, run_session, run_session_resumable, EvalResult, FnExecutor, PriorTrial, Session,
    SessionHistory, SessionOptions, Trial, TrialExecutor, TrialRecord, TrialStatus,
};
