//! Quickstart: tune the simulated PostgreSQL for YCSB-A with LlamaTune in
//! ~30 iterations and print what it found.
//!
//! Run with: `cargo run --release --example quickstart`

use llamatune::pipeline::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
use llamatune::session::{run_session, EvalResult, SessionOptions};
use llamatune_optim::Smac;
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::conf_file::to_conf;
use llamatune_workloads::{ycsb_a, WorkloadRunner};

fn main() {
    // 1. The knob space: PostgreSQL v9.6, 90 knobs, 17 with special values.
    let catalog = postgres_v9_6();
    println!(
        "Tuning {} knobs ({} hybrid) for YCSB-A...",
        catalog.len(),
        catalog.hybrid_knobs().count()
    );

    // 2. The benchmark: YCSB-A (50/50 zipfian reads/updates, ~20 GB) on the
    //    simulated DBMS, optimizing throughput.
    let runner = WorkloadRunner::new(ycsb_a(), catalog.clone());

    // 3. The LlamaTune pipeline with the paper's defaults: HeSBO projection
    //    to 16 dimensions, 20% special-value bias, K = 10,000 buckets.
    let pipeline = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::default(), 42);

    // 4. Any optimizer works; the paper's best baseline is SMAC.
    let optimizer = Smac::new(pipeline.optimizer_spec().clone(), 42);

    // 5. Run the tuning session (iteration 0 = server defaults, then 10
    //    LHS samples, then model-guided suggestions).
    let history = run_session(
        &pipeline,
        Box::new(optimizer),
        |config| {
            let out = runner.evaluate(&catalog, config, 42);
            EvalResult { score: out.score, metrics: out.result.metrics, ..Default::default() }
        },
        &SessionOptions { iterations: 30, ..Default::default() },
    );

    let default_tps = history.default_score();
    let best_tps = history.best_score().expect("session ran");
    println!("\n  default configuration: {default_tps:>9.0} tps");
    println!(
        "  best found (30 iters): {best_tps:>9.0} tps  ({:+.1}%)",
        (best_tps - default_tps) / default_tps * 100.0
    );

    // 6. Show the knobs the best configuration moved away from defaults.
    let best = history.best_config().expect("non-empty history");
    println!("\n  knobs changed from default:");
    for line in to_conf(&catalog, best, true).lines() {
        println!("    {line}");
    }
}
