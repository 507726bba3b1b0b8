//! Side-by-side tuning of YCSB-A: vanilla SMAC over all 90 knobs vs
//! LlamaTune's 16-dimensional projected space — the paper's headline
//! comparison, at small scale.
//!
//! Run with: `cargo run --release --example tune_ycsb [iterations]`

use llamatune::pipeline::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
use llamatune::report::{final_improvement_pct, time_to_optimal};
use llamatune::session::{run_session, EvalResult, SessionOptions};
use llamatune_optim::Smac;
use llamatune_space::catalog::postgres_v9_6;
use llamatune_workloads::{ycsb_a, WorkloadRunner};

fn main() {
    let iterations: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(40);
    let catalog = postgres_v9_6();
    let runner = WorkloadRunner::new(ycsb_a(), catalog.clone());
    let opts = SessionOptions { iterations, ..Default::default() };

    let objective = |config: &llamatune_space::Config| {
        let out = runner.evaluate(&catalog, config, 11);
        EvalResult { score: out.score, metrics: out.result.metrics, ..Default::default() }
    };

    println!("Tuning YCSB-A for {iterations} iterations with each method...\n");

    let baseline_adapter = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::IDENTITY, 0);
    let baseline = run_session(
        &baseline_adapter,
        Box::new(Smac::new(baseline_adapter.optimizer_spec().clone(), 1)),
        objective,
        &opts,
    );

    let pipeline = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::default(), 1);
    let llama = run_session(
        &pipeline,
        Box::new(Smac::new(pipeline.optimizer_spec().clone(), 1)),
        objective,
        &opts,
    );

    println!("{:>6} {:>16} {:>16}", "iter", "SMAC (tps)", "LlamaTune (tps)");
    for i in (0..=iterations).step_by((iterations / 10).max(1)) {
        println!(
            "{i:>6} {:>16.0} {:>16.0}",
            baseline.best_curve[i.min(baseline.best_curve.len() - 1)],
            llama.best_curve[i.min(llama.best_curve.len() - 1)],
        );
    }

    let b = baseline.best_score().unwrap();
    let l = llama.best_score().unwrap();
    println!("\nfinal improvement: {:+.2}%", final_improvement_pct(b, l));
    match time_to_optimal(&llama.best_curve[1..], b) {
        Some(iter) => println!(
            "time-to-optimal: LlamaTune matched SMAC's final best at iteration {iter} \
             ({:.1}x speedup)",
            iterations as f64 / iter as f64
        ),
        None => println!("LlamaTune did not reach SMAC's final best within the budget"),
    }
}
