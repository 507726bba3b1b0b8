//! Runtime speedup: wall-clock of a multi-workload tuning campaign under
//! the parallel trial-execution runtime at 1/2/4/8 workers, against the
//! same campaign run strictly sequentially (one trial per round, one
//! worker — the paper's loop).
//!
//! Scores are identical at every worker count (see the runtime crate's
//! determinism test); only wall-clock changes. Speedup saturates at the
//! machine's core count — the printed `available_parallelism` line tells
//! you what ceiling to expect.

use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_engine::RunOptions;
use llamatune_obs::fmt::{header, table};
use llamatune_runtime::{AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::ConfigSpace;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["ycsb_a", "tpcc", "ycsb_f"];
const ITERATIONS: usize = 24;
const SEEDS: [u64; 2] = [0, 1];
/// Fixed across the parallel rows: varying only the worker count keeps the
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

/// Wall-clock of the campaign at `batch_size` suggestions per round on
/// `workers` trial workers.
fn campaign_seconds(catalog: &ConfigSpace, batch_size: usize, workers: usize) -> f64 {
    let opts = CampaignOptions {
        session: SessionOptions { iterations: ITERATIONS, n_init: 10, ..Default::default() },
        batch_size,
        trial_workers: workers,
        session_parallelism: 1,
        run_options: Some(quick_run_options()),
        ..Default::default()
    };
    let campaign = Campaign::new(catalog.clone(), campaign_spec(), opts);
    let t = Instant::now();
    assert_eq!(campaign.run().len(), WORKLOADS.len() * SEEDS.len());
    t.elapsed().as_secs_f64()
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
    print!("{}", header("Runtime speedup: parallel vs sequential campaign", &detail));

    // The paper's loop: one trial per round, one thread.
    let seq = campaign_seconds(&catalog, 1, 1);
    let row = |config: String, t: f64, note: &str| {
        vec![config, format!("{t:.2}s"), format!("{:.2}x", seq / t), note.to_string()]
    };
    let mut rows = vec![row("sequential (batch 1, 1 worker)".to_string(), seq, "")];
    for workers in [1usize, 2, 4, 8] {
        let t = campaign_seconds(&catalog, BATCH, workers);
        let note = if workers > cores { "(more workers than cores)" } else { "" };
        rows.push(row(format!("parallel, {workers} worker(s)"), t, note));
    }
    print!("{}", table(&["config", "time", "speedup", ""], &rows));
}
