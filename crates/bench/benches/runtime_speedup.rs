//! Runtime speedup: wall-clock of a multi-workload tuning campaign under
//! the parallel trial-execution runtime at 1/2/4/8 workers, against the
//! strictly sequential session loop.
//!
//! Scores are identical at every worker count (see the runtime crate's
//! determinism test); only wall-clock changes. Speedup saturates at the
//! machine's core count — the printed `available_parallelism` line tells
//! you what ceiling to expect.

use llamatune::pipeline::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
use llamatune::session::{run_session, EvalResult, SessionOptions};
use llamatune_engine::RunOptions;
use llamatune_runtime::{AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_workloads::{workload_by_name, WorkloadRunner};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["ycsb_a", "tpcc", "ycsb_f"];
const ITERATIONS: usize = 24;
const SEEDS: [u64; 2] = [0, 1];
/// Fixed across every row: varying only the worker count keeps the
/// suggestion stream — and therefore the evaluated configurations —
/// identical, so the sweep measures parallelism, not batching effects.
const BATCH: usize = 8;

fn quick_run_options() -> RunOptions {
    RunOptions { duration_s: 0.3, warmup_s: 0.08, max_txns: 30_000, ..Default::default() }
}

fn campaign_spec() -> CampaignSpec {
    CampaignSpec {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: SEEDS.to_vec(),
    }
}

/// The paper's loop, verbatim: one trial at a time, one thread.
fn sequential_campaign(catalog: &llamatune_space::ConfigSpace) -> f64 {
    let t = Instant::now();
    for workload in WORKLOADS {
        for seed in SEEDS {
            let spec = workload_by_name(workload).expect("workload");
            let runner =
                WorkloadRunner::new(spec, catalog.clone()).with_options(quick_run_options());
            let pipe = LlamaTunePipeline::new(catalog, &LlamaTuneConfig::default(), seed);
            let opt = OptimizerKind::Smac.build(pipe.optimizer_spec(), seed);
            run_session(
                &pipe,
                opt,
                |cfg| {
                    let out = runner.evaluate(catalog, cfg, seed ^ 0x5EED);
                    EvalResult {
                        score: out.score,
                        metrics: out.result.metrics,
                        ..Default::default()
                    }
                },
                &SessionOptions { iterations: ITERATIONS, n_init: 10, seed, ..Default::default() },
            );
        }
    }
    t.elapsed().as_secs_f64()
}

fn parallel_campaign(catalog: &llamatune_space::ConfigSpace, workers: usize) -> f64 {
    let opts = CampaignOptions {
        session: SessionOptions { iterations: ITERATIONS, n_init: 10, ..Default::default() },
        batch_size: BATCH,
        trial_workers: workers,
        session_parallelism: 1,
        run_options: Some(quick_run_options()),
        ..Default::default()
    };
    let campaign = Campaign::new(catalog.clone(), campaign_spec(), opts);
    let t = Instant::now();
    let results = campaign.run();
    let elapsed = t.elapsed().as_secs_f64();
    assert_eq!(results.len(), WORKLOADS.len() * SEEDS.len());
    elapsed
}

fn main() {
    let catalog = postgres_v9_6();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let detail = format!(
        "{} workloads x {} seeds x {} iterations; available_parallelism = {cores}",
        WORKLOADS.len(),
        SEEDS.len(),
        ITERATIONS
    );
    print!(
        "{}",
        llamatune_obs::fmt::header(
            "Runtime speedup: parallel campaign vs sequential sessions",
            &detail
        )
    );

    let seq = sequential_campaign(&catalog);
    let mut rows = vec![vec![
        "sequential run_session".to_string(),
        format!("{seq:.2}s"),
        "1.00x".to_string(),
        String::new(),
    ]];
    for workers in [1usize, 2, 4, 8] {
        let t = parallel_campaign(&catalog, workers);
        rows.push(vec![
            format!("parallel, {workers} worker(s)"),
            format!("{t:.2}s"),
            format!("{:.2}x", seq / t),
            if workers > cores { "(more workers than cores)".to_string() } else { String::new() },
        ]);
    }
    print!("{}", llamatune_obs::fmt::table(&["config", "time", "speedup", ""], &rows));
}
