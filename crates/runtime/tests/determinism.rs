//! The runtime's reproducibility contract, pinned bit-for-bit: a
//! fixed-seed campaign records identical histories no matter how many
//! workers evaluate its trials, and LlamaTune's bucketization actually
//! exercises the evaluation cache.

use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_engine::RunOptions;
use llamatune_runtime::{
    AdapterKind, Campaign, CampaignOptions, CampaignResult, CampaignSpec, OptimizerKind,
};
use llamatune_space::catalog::postgres_v9_6;

fn quick_run_options() -> RunOptions {
    RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() }
}

fn campaign_with_workers(trial_workers: usize, session_parallelism: usize) -> Vec<CampaignResult> {
    let spec = CampaignSpec {
        workloads: vec!["ycsb_a".into(), "tpcc".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![3, 4],
    };
    let opts = CampaignOptions {
        session: SessionOptions { iterations: 10, n_init: 4, ..Default::default() },
        batch_size: 4,
        trial_workers,
        session_parallelism,
        run_options: Some(quick_run_options()),
        ..Default::default()
    };
    Campaign::new(postgres_v9_6(), spec, opts).run()
}

/// The headline guarantee: worker counts 1, 2, and 8 produce
/// byte-identical scores, trial results joined by iteration index.
#[test]
fn worker_count_never_changes_recorded_scores() {
    let reference = campaign_with_workers(1, 1);
    assert_eq!(reference.len(), 4);
    for (workers, lanes) in [(2, 1), (8, 1), (8, 4)] {
        let candidate = campaign_with_workers(workers, lanes);
        assert_eq!(candidate.len(), reference.len());
        for (a, b) in reference.iter().zip(&candidate) {
            assert_eq!(a.label, b.label);
            // Bitwise, not approximate: join by iteration index and
            // compare the raw f64 bits of every recorded score.
            let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&a.history.scores),
                bits(&b.history.scores),
                "{}: scores diverged at {workers} workers / {lanes} lanes",
                a.label
            );
            assert_eq!(
                bits(&a.history.best_curve),
                bits(&b.history.best_curve),
                "{}: best curve diverged",
                a.label
            );
            assert_eq!(a.history.raw_scores, b.history.raw_scores);
            assert_eq!(a.history.points, b.history.points);
            assert_eq!(a.history.configs, b.history.configs);
        }
    }
}

/// Coarse bucketization (16 values per synthetic dimension) collapses
/// suggestions onto few distinct configs — the cache must observe hits.
#[test]
fn bucketized_session_reports_cache_hits() {
    let spec = CampaignSpec {
        workloads: vec!["ycsb_b".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig {
            bucket_count: Some(16),
            ..Default::default()
        })],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![0],
    };
    let opts = CampaignOptions {
        session: SessionOptions { iterations: 40, n_init: 5, ..Default::default() },
        batch_size: 4,
        trial_workers: 2,
        run_options: Some(quick_run_options()),
        ..Default::default()
    };
    let results = Campaign::new(postgres_v9_6(), spec, opts).run();
    let (hits, misses) =
        (results[0].metrics.counter("cache.hits"), results[0].metrics.counter("cache.misses"));
    // Repeated *successful* configs are answered by the cache; repeated
    // *failed* configs by the quarantine (the cache refuses retryable
    // results). Either way, a repeat must not re-run the benchmark.
    let quarantined = results[0]
        .history
        .statuses
        .iter()
        .filter(|s| **s == llamatune::session::TrialStatus::Quarantined)
        .count();
    assert!(
        hits as usize + quarantined > 0,
        "bucket_count = Some(16) over 40 iterations must repeat configs: \
         {hits} hits, {misses} misses, {quarantined} quarantined"
    );
    assert!(misses > 0, "first sighting of each config is a miss");
}
