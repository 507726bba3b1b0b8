//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each bench target (`cargo bench -p llamatune-bench --bench <name>`)
//! prints the corresponding table rows or figure series. Scale is
//! controlled by environment variables:
//!
//! * `LLAMATUNE_SEEDS` — tuning sessions per arm (default 5, as in the
//!   paper);
//! * `LLAMATUNE_ITERS` — iterations per session (default 100);
//! * `LLAMATUNE_QUICK=1` — shrink to 3 seeds x 50 iterations and shorter
//!   simulated runs, for smoke-testing the harness.

pub mod artifact;
pub mod exp;
pub mod gate;
pub mod printing;

pub use exp::{
    aggregate_curves, arm_summary, paired_rows, run_tuning_arm, ArmResult, ExpScale, OptimizerKind,
    PairedRow,
};
pub use printing::{print_curve_table, print_header, print_row, print_table};
