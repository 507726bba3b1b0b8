//! Experiment harness: the paper's tables and figures as one gated bench,
//! plus the layer benches behind the committed `BENCH_*.json` artifacts.
//!
//! `cargo bench -p llamatune-bench --bench paper` measures every row of
//! [`claims`] — the paper's claims as one table of (source, cell, arms,
//! measure, band) — through the loop in [`paper`]: each distinct tuning
//! arm runs once, and each of the 17 sources prints its table, its curves
//! and the verdict on its claims. `-- table5` (any source name) runs one
//! source. Which claims are *reproduced* is recorded data, not code: the
//! rows that both `BENCH_paper.json` (3 × 50) and `BENCH_paper_full.json`
//! (5 × 100) record as holding. The exit status is non-zero when one of
//! them misses its band; every other row is measured and printed all the
//! same. An unfiltered run at one of those two scales re-records its own
//! artifact.
//!
//! The layer benches' artifacts are gated by the `bench_gate` bin:
//! [`gate`] turns a committed `BENCH_*.json` and a fresh one into checks
//! (one per `_us` latency, identity numbers required equal), and
//! `llamatune_obs::gate` judges them by the one regression rule that
//! `llamatune-report diff` applies to stored telemetry.
//!
//! Scale is controlled by environment variables:
//!
//! * `LLAMATUNE_SEEDS` — tuning sessions per arm (default 5, as in the
//!   paper);
//! * `LLAMATUNE_ITERS` — iterations per session (default 100);
//! * `LLAMATUNE_QUICK=1` — shrink to 3 seeds x 50 iterations and fewer
//!   SHAP samples (CI runs this scale and the default one).

pub mod artifact;
pub mod claims;
pub mod exp;
pub mod gate;
pub mod paper;

pub use exp::{
    aggregate_curves, paired_rows, run_tuning_arm, ArmResult, ExpScale, OptimizerKind, PairedRow,
};
