//! Experiment harness: the paper's tables and figures as one gated bench,
//! plus the layer benches behind the committed `BENCH_*.json` artifacts.
//!
//! `cargo bench -p llamatune-bench --bench paper` measures every row of
//! [`claims`] — the paper's claims as one table of (source, cell, arms,
//! measure, band, status) — through the loop in [`paper`]: each distinct
//! tuning arm runs once, each of the 17 sources prints its table, its
//! curves and the verdict on its claims, `BENCH_paper.json` records one
//! row per claim, and the exit status is non-zero when a `reproduced`
//! claim misses its band. `-- table5` (any source name) runs one source.
//! A `not_reproduced` row is a claim the simulator is known to miss: it
//! is measured and printed all the same, and its note carries the gap.
//!
//! Scale is controlled by environment variables:
//!
//! * `LLAMATUNE_SEEDS` — tuning sessions per arm (default 5, as in the
//!   paper);
//! * `LLAMATUNE_ITERS` — iterations per session (default 100);
//! * `LLAMATUNE_QUICK=1` — shrink to 3 seeds x 50 iterations and fewer
//!   SHAP samples: what CI runs and what `BENCH_paper.json` records.

pub mod artifact;
pub mod claims;
pub mod exp;
pub mod gate;
pub mod paper;
pub mod printing;

pub use exp::{
    aggregate_curves, paired_rows, run_tuning_arm, ArmResult, ExpScale, OptimizerKind, PairedRow,
};
pub use printing::{print_curve_table, print_header, print_table};
