//! Benchmark runner: evaluates a DBMS configuration on a workload and
//! reduces the run to the single objective value a tuning session optimizes.

use llamatune_engine::{run_workload, Arrival, RunOptions, RunResult, WorkloadSpec};
use llamatune_space::{Config, ConfigSpace};
use std::sync::Arc;

/// What a tuning session optimizes (Section 6.1/6.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Maximize committed transactions per second (closed loop).
    Throughput,
    /// Minimize 95th-percentile latency at a fixed request rate (open loop).
    TailLatency95 { rate_tps: f64 },
}

/// Evaluates configurations of a fixed workload: the paper's "experiment
/// controller" plus benchmark client.
///
/// The workload spec and knob catalog are held behind [`Arc`]s, so
/// cloning a runner — one clone per worker in the parallel runtime — is
/// a couple of reference-count bumps, not a deep copy of a multi-table
/// schema and a 90-knob catalog.
#[derive(Debug, Clone)]
pub struct WorkloadRunner {
    spec: Arc<WorkloadSpec>,
    catalog: Arc<ConfigSpace>,
    objective: Objective,
    opts: RunOptions,
}

impl WorkloadRunner {
    /// Creates a throughput-oriented runner with per-workload simulation
    /// windows (heavier workloads need longer virtual windows, lighter ones
    /// produce enough transactions in less virtual time).
    pub fn new(spec: WorkloadSpec, catalog: ConfigSpace) -> Self {
        let opts = suggested_options(spec.name);
        WorkloadRunner {
            spec: Arc::new(spec),
            catalog: Arc::new(catalog),
            objective: Objective::Throughput,
            opts,
        }
    }

    /// Switches the objective (tail-latency mode also switches the arrival
    /// process to open-loop at the fixed rate).
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        if let Objective::TailLatency95 { rate_tps } = objective {
            self.opts.arrival = Arrival::Open { rate_tps };
        }
        self
    }

    /// Overrides the run options (tests use shorter windows).
    pub fn with_options(mut self, opts: RunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The knob catalog configurations resolve against.
    pub fn catalog(&self) -> &ConfigSpace {
        &self.catalog
    }

    /// Virtual milliseconds one evaluation simulates (the run window).
    /// The engine is a simulator, so this — not wall time — is what the
    /// execution policy's watchdog compares against its timeout.
    pub fn virtual_duration_ms(&self) -> f64 {
        self.opts.duration_s * 1000.0
    }

    /// Runs one evaluation. `space` may be a subset of the catalog; any
    /// knob it does not mention stays at its default.
    pub fn run(&self, space: &ConfigSpace, config: &Config, seed: u64) -> RunResult {
        let assignment = space.assignment(config);
        let mut opts = self.opts.clone();
        opts.seed = seed;
        run_workload(&assignment, &self.catalog, &self.spec, &opts)
    }

    /// Runs one evaluation and reduces it to the objective value, which is
    /// always maximized (latencies are negated). Crashed runs return `None`
    /// — the tuning session applies the paper's ¼-of-worst penalty.
    pub fn evaluate(&self, space: &ConfigSpace, config: &Config, seed: u64) -> EvalOutcome {
        let result = self.run(space, config, seed);
        if result.crashed {
            return EvalOutcome { score: None, result };
        }
        let score = match self.objective {
            Objective::Throughput => result.throughput_tps,
            Objective::TailLatency95 { .. } => -result.p95_latency_ms,
        };
        EvalOutcome { score: Some(score), result }
    }
}

/// One evaluation: the maximizable score (None when crashed) and the raw
/// run result (metrics feed the DDPG optimizer).
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    pub score: Option<f64>,
    pub result: RunResult,
}

/// Per-workload simulation windows, chosen so each evaluation simulates a
/// statistically useful number of transactions (~20-60k) regardless of the
/// workload's absolute throughput.
pub fn suggested_options(workload: &str) -> RunOptions {
    let (duration_s, warmup_s) = match workload {
        "ycsb_a" => (1.6, 0.35),
        "ycsb_b" => (0.8, 0.2),
        "ycsb_f" => (1.4, 0.3),
        "tpcc" => (2.6, 0.5),
        "seats" => (1.6, 0.35),
        "twitter" => (0.5, 0.12),
        "resource_stresser" => (1.6, 0.35),
        _ => (1.6, 0.35),
    };
    RunOptions { duration_s, warmup_s, ..RunOptions::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::{ycsb_a, ycsb_b};
    use llamatune_space::catalog::postgres_v9_6;
    use llamatune_space::KnobValue;

    impl super::WorkloadRunner {
        /// The workload being tuned.
        fn spec(&self) -> &WorkloadSpec {
            &self.spec
        }
    }

    fn quick(spec: WorkloadSpec) -> WorkloadRunner {
        let catalog = postgres_v9_6();
        let mut opts = suggested_options(spec.name);
        opts.duration_s = 0.3;
        opts.warmup_s = 0.08;
        opts.max_txns = 30_000;
        WorkloadRunner::new(spec, catalog).with_options(opts)
    }

    #[test]
    fn default_ycsb_a_scores_positive_throughput() {
        let r = quick(ycsb_a());
        let cfg = r.catalog().default_config();
        let space = r.catalog().clone();
        let out = r.evaluate(&space, &cfg, 1);
        assert!(out.score.unwrap() > 100.0);
        assert!(!out.result.crashed);
    }

    #[test]
    fn crashed_config_scores_none() {
        let r = quick(ycsb_a());
        let space = r.catalog().clone();
        let mut cfg = space.default_config();
        let sb = space.index_of("shared_buffers").unwrap();
        cfg.values_mut()[sb] = KnobValue::Int(2_097_152); // 16 GB -> OOM
        let out = r.evaluate(&space, &cfg, 1);
        assert!(out.score.is_none());
        assert!(out.result.crashed);
    }

    #[test]
    fn tail_latency_objective_negates_latency() {
        let spec = ycsb_b();
        let catalog = postgres_v9_6();
        let mut opts = suggested_options(spec.name);
        opts.duration_s = 0.3;
        opts.warmup_s = 0.08;
        let r = WorkloadRunner::new(spec, catalog)
            .with_options(opts)
            .with_objective(Objective::TailLatency95 { rate_tps: 2_000.0 });
        let space = r.catalog().clone();
        let cfg = space.default_config();
        let out = r.evaluate(&space, &cfg, 3);
        let score = out.score.unwrap();
        assert!(score < 0.0, "latency objective must be negated: {score}");
        assert!((-score - out.result.p95_latency_ms).abs() < 1e-12);
    }

    #[test]
    fn subset_space_evaluations_work() {
        let r = quick(ycsb_a());
        let sub = r.catalog().subspace(&["shared_buffers", "commit_delay"]);
        let cfg = sub.default_config();
        let out = r.evaluate(&sub, &cfg, 5);
        assert!(out.score.is_some());
    }

    #[test]
    fn clones_share_spec_and_catalog_allocations() {
        let r = quick(ycsb_a());
        let clones: Vec<WorkloadRunner> = (0..8).map(|_| r.clone()).collect();
        for c in &clones {
            // Arc-backed: a clone points at the same spec and catalog.
            assert!(std::ptr::eq(r.spec(), c.spec()));
            assert!(std::ptr::eq(r.catalog(), c.catalog()));
        }
        // Clones evaluate identically to the original.
        let space = r.catalog().clone();
        let cfg = space.default_config();
        let a = r.evaluate(&space, &cfg, 4).score;
        let b = clones[7].evaluate(&space, &cfg, 4).score;
        assert_eq!(a, b);
    }

    #[test]
    fn evaluations_are_deterministic_per_seed() {
        let r = quick(ycsb_a());
        let space = r.catalog().clone();
        let cfg = space.default_config();
        let a = r.evaluate(&space, &cfg, 9).score.unwrap();
        let b = r.evaluate(&space, &cfg, 9).score.unwrap();
        let c = r.evaluate(&space, &cfg, 10).score.unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
