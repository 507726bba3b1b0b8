//! The six OLTP workloads of the paper's evaluation (Table 4), plus the
//! YCSB-F read-modify-write mix, built as
//! [`llamatune_engine::WorkloadSpec`]s, plus the benchmark runner used by
//! every tuning session.
//!
//! | Workload | Tables (cols) | RO txns |
//! |----------|---------------|---------|
//! | YCSB-A   | 1 (11)        | 50%     |
//! | YCSB-B   | 1 (11)        | 95%     |
//! | YCSB-F   | 1 (11)        | 50%     |
//! | TPC-C    | 9 (92)        | 8%      |
//! | SEATS    | 10 (189)      | 45%     |
//! | Twitter  | 5 (18)        | 1%      |
//! | RS       | 4 (23)        | 33%     |
//!
//! All databases are sized to roughly 20 GB and driven by 40 clients
//! (Section 6.1). Schemas and transaction mixes follow the YCSB suite
//! \[6\] and BenchBase \[8\] definitions, simplified to the
//! logical-operation vocabulary of the engine.

mod faulty;
mod fingerprint;
mod runner;
mod suites;

pub use faulty::{config_fingerprint, AttemptOutcome, FaultPlan, FaultyRunner, TrialRunner};
pub use fingerprint::{workload_fingerprint, FINGERPRINT_PROBE_SEED};
pub use runner::{suggested_options, Objective, WorkloadRunner};
pub use suites::{
    all_workloads, resource_stresser, seats, tpcc, twitter, workload_by_name, ycsb_a, ycsb_b,
    ycsb_f, PAPER_WORKLOAD_NAMES, WORKLOAD_NAMES,
};
