//! LlamaTune generalizes across optimizers (Section 6.4): the same
//! pipeline accelerates SMAC (random-forest BO), GP-BO (Gaussian process),
//! and DDPG (reinforcement learning) on TPC-C. Each optimizer runs at its
//! fixed settings, so its constructor takes the search space and a seed.
//!
//! Run with: `cargo run --release --example compare_optimizers`

use llamatune::pipeline::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
use llamatune::session::{run_session, EvalResult, SessionOptions};
use llamatune_optim::{Ddpg, GpBo, Optimizer, Smac};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_workloads::{tpcc, WorkloadRunner};

fn main() {
    let catalog = postgres_v9_6();
    let runner = WorkloadRunner::new(tpcc(), catalog.clone());
    let opts = SessionOptions { iterations: 30, ..Default::default() };

    println!("{:<10} {:>14} {:>14} {:>10}", "optimizer", "default tps", "best tps", "gain");
    for name in ["smac", "gp-bo", "ddpg"] {
        let pipeline = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::default(), 5);
        let spec = pipeline.optimizer_spec().clone();
        let optimizer: Box<dyn Optimizer> = match name {
            "smac" => Box::new(Smac::new(spec, 5)),
            "gp-bo" => Box::new(GpBo::new(spec, 5)),
            _ => Box::new(Ddpg::new(spec, 5)),
        };
        let history = run_session(
            &pipeline,
            optimizer,
            |config| {
                let out = runner.evaluate(&catalog, config, 5);
                EvalResult { score: out.score, metrics: out.result.metrics, ..Default::default() }
            },
            &opts,
        );
        let d = history.default_score();
        let b = history.best_score().unwrap();
        println!("{name:<10} {d:>14.0} {b:>14.0} {:>9.1}%", (b - d) / d * 100.0);
    }
}
