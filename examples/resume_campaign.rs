//! Checkpoint/resume against the persistent knowledge store: runs a
//! small campaign with every trial flushed to a `TrialStore`, simulates
//! a crash by tearing the final record off the store's segment, reopens
//! the store (recovery drops the torn record), and resumes — the
//! campaign continues from its last recorded round boundary and the
//! final exported history is identical to the uninterrupted run's.
//! Finally, a second workload warm-starts from the stored campaign.
//!
//!     cargo run --release --example resume_campaign

use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_runtime::{
    AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind, WarmStartOptions,
};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::TrialStore;
use std::time::Instant;

fn main() {
    let catalog = postgres_v9_6();
    let spec = CampaignSpec {
        workloads: vec!["ycsb_b".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![0],
    };
    let opts = CampaignOptions {
        session: SessionOptions { iterations: 30, n_init: 10, ..Default::default() },
        batch_size: 4,
        trial_workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
        ..Default::default()
    };
    let campaign = Campaign::new(catalog.clone(), spec, opts.clone());

    // 1. Checkpointed run: every completed trial lands in the store.
    let truth_dir = std::env::temp_dir().join("llamatune_resume_example_truth");
    let _ = std::fs::remove_dir_all(&truth_dir);
    let store = TrialStore::open(&truth_dir).expect("open store");
    let t = Instant::now();
    let results = campaign.resume(&store).expect("campaign");
    println!(
        "uninterrupted: {} trials checkpointed in {:.1}s, best = {:.1}",
        store.trial_count(),
        t.elapsed().as_secs_f64(),
        results[0].history.best_score().unwrap(),
    );
    let truth_export = store.export_jsonl();

    // 2. Simulated crash: copy a prefix of the record stream — torn
    // mid-record, exactly what a SIGKILL during an append leaves — into
    // a store whose manifest still lists it as the killed writer
    // `local`'s active segment.
    let crash_dir = std::env::temp_dir().join("llamatune_resume_example_crash");
    let _ = std::fs::remove_dir_all(&crash_dir);
    std::fs::create_dir_all(&crash_dir).expect("create dir");
    let seg = std::fs::read_to_string(truth_dir.join("seg-local-000001.jsonl")).expect("segment");
    let cut = seg.len() / 2;
    let manifest = "llamatune-store v1\nactive seg-local-000001.jsonl\n";
    std::fs::write(crash_dir.join("MANIFEST"), manifest).expect("manifest");
    std::fs::write(crash_dir.join("seg-local-000001.jsonl"), &seg[..cut]).expect("torn segment");

    // 3. Recovery + resume: reopen, continue from the last round
    // boundary, and end with the identical history.
    let recovered = TrialStore::open(&crash_dir).expect("recovery");
    println!(
        "after the crash: {} of {} trials survived; resuming...",
        recovered.trial_count(),
        store.trial_count(),
    );
    let t = Instant::now();
    let resumed = campaign.resume(&recovered).expect("resume");
    assert_eq!(recovered.export_jsonl(), truth_export, "byte-identical history");
    println!(
        "resumed in {:.1}s; exported history is byte-identical to the uninterrupted run \
         (best = {:.1})",
        t.elapsed().as_secs_f64(),
        resumed[0].history.best_score().unwrap(),
    );

    // 4. A second resume is free: every session is already Done.
    let t = Instant::now();
    campaign.resume(&recovered).expect("second resume");
    println!("second resume: no evaluations, {:.3}s", t.elapsed().as_secs_f64());

    // 5. Warm-start transfer: tune YCSB-A seeded from the stored
    // YCSB-B campaign (fingerprint-matched).
    let target = CampaignSpec {
        workloads: vec!["ycsb_a".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![0],
    };
    let warm_opts = CampaignOptions { warm_start: Some(WarmStartOptions::default()), ..opts };
    let warm = Campaign::new(catalog, target, warm_opts).resume(&recovered).expect("warm campaign");
    let meta = recovered.session_meta(&warm[0].label).expect("meta");
    println!(
        "warm start: ycsb_a seeded with {} configs from the stored ycsb_b campaign, \
         best = {:.1}",
        meta.warm_points.len(),
        warm[0].history.best_score().unwrap(),
    );

    let _ = std::fs::remove_dir_all(&truth_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}
