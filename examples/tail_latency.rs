//! Tail-latency tuning (Section 6.2): minimize p95 latency for TPC-C at a
//! fixed request rate using the open-loop runner.
//!
//! Run with: `cargo run --release --example tail_latency`

use llamatune::pipeline::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
use llamatune::session::{run_session, EvalResult, SessionOptions};
use llamatune_optim::Smac;
use llamatune_space::catalog::postgres_v9_6;
use llamatune_workloads::{tpcc, Objective, WorkloadRunner};

fn main() {
    let catalog = postgres_v9_6();

    // Pick a fixed rate: ~60% of the default config's closed-loop tput.
    let probe = WorkloadRunner::new(tpcc(), catalog.clone());
    let default_tput = probe.evaluate(&catalog, &catalog.default_config(), 0).score.unwrap();
    let rate = default_tput * 0.6;
    println!("TPC-C at a fixed rate of {rate:.0} txn/s, minimizing p95 latency\n");

    let runner = WorkloadRunner::new(tpcc(), catalog.clone())
        .with_objective(Objective::TailLatency95 { rate_tps: rate });

    let pipeline = LlamaTunePipeline::new(&catalog, &LlamaTuneConfig::default(), 3);
    let history = run_session(
        &pipeline,
        Box::new(Smac::new(pipeline.optimizer_spec().clone(), 3)),
        |config| {
            let out = runner.evaluate(&catalog, config, 3);
            EvalResult { score: out.score, metrics: out.result.metrics, ..Default::default() }
        },
        &SessionOptions { iterations: 30, ..Default::default() },
    );

    // Scores are negated latencies; flip them back for display.
    println!("{:>6} {:>18}", "iter", "best p95 (ms)");
    for i in (0..history.best_curve.len()).step_by(5) {
        println!("{i:>6} {:>18.2}", -history.best_curve[i]);
    }
    let default_p95 = -history.default_score();
    let best_p95 = -history.best_score().unwrap();
    println!(
        "\np95 latency: default {default_p95:.2} ms -> tuned {best_p95:.2} ms ({:+.1}%)",
        (best_p95 - default_p95) / default_p95 * 100.0
    );
}
