//! Runs a small parallel tuning campaign in memory (`Campaign::run`) —
//! two workloads, LlamaTune vs the identity baseline, SMAC, two seeds —
//! with batched constant-liar suggestions, a worker pool per batch, and
//! a deduplicating evaluation cache, then prints the best score and the
//! cache counters per session, and writes the sessions' JSONL trial
//! events (the schema the trial store exports) to a file.
//!
//!     cargo run --release --example parallel_campaign

use llamatune::history_io::{
    events_from_jsonl, events_to_jsonl, history_to_events, session_curves,
};
use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_runtime::{AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind};
use llamatune_space::catalog::postgres_v9_6;
use std::time::Instant;

fn main() {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let spec = CampaignSpec {
        workloads: vec!["ycsb_a".into(), "tpcc".into()],
        adapters: vec![AdapterKind::Identity, AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![0, 1],
    };
    let opts = CampaignOptions {
        session: SessionOptions { iterations: 30, n_init: 10, ..Default::default() },
        batch_size: 4,
        trial_workers: workers,
        session_parallelism: 2,
        ..Default::default()
    };
    let sessions =
        spec.workloads.len() * spec.adapters.len() * spec.optimizers.len() * spec.seeds.len();
    println!(
        "campaign: {sessions} sessions x {} iterations, batch 4, {workers} trial workers\n",
        opts.session.iterations
    );

    let campaign = Campaign::new(postgres_v9_6(), spec, opts);
    let t = Instant::now();
    let results = campaign.run();
    let elapsed = t.elapsed();

    println!("{:<28} {:>12} {:>12} {:>16}", "session", "default", "best", "cache hits/miss");
    let mut log = String::new();
    for r in &results {
        let cache =
            format!("{}/{}", r.metrics.counter("cache.hits"), r.metrics.counter("cache.misses"));
        println!(
            "{:<28} {:>12.1} {:>12.1} {:>16}",
            r.label,
            r.history.default_score(),
            r.history.best_score().unwrap_or(f64::NAN),
            cache
        );
        log.push_str(&events_to_jsonl(&history_to_events(&r.label, &r.history)));
    }
    let log_path = std::env::temp_dir().join("llamatune_parallel_campaign.jsonl");
    std::fs::write(&log_path, &log).expect("write JSONL log");

    // The JSONL log replays into the same curves the results carry.
    let events = events_from_jsonl(&log).expect("parse log");
    let curves = session_curves(&events).expect("regroup");
    assert_eq!(curves.len(), results.len());
    println!(
        "\n{} trial events -> {} (replayed into {} per-session curves)",
        events.len(),
        log_path.display(),
        curves.len()
    );
    println!("wall clock: {elapsed:.2?}");
}
