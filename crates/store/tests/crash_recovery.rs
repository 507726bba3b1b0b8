//! Crash-recovery smoke test (run explicitly in CI): a campaign is
//! "killed" mid-flight — its store left with a torn, half-written final
//! record — then resumed. The resumed store must recover cleanly, finish
//! the campaign, and export a final history identical to an
//! uninterrupted run's; resuming again must be a no-op.

use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_engine::RunOptions;
use llamatune_runtime::{AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::{SessionStatus, TrialStore};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("llamatune_crash_recovery")
        .join(format!("{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn campaign() -> Campaign {
    let run_opts =
        RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() };
    let spec = CampaignSpec {
        workloads: vec!["ycsb_b".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![3],
    };
    let opts = CampaignOptions {
        session: SessionOptions { iterations: 8, n_init: 3, ..Default::default() },
        batch_size: 3,
        trial_workers: 2,
        run_options: Some(run_opts),
        ..Default::default()
    };
    Campaign::new(postgres_v9_6(), spec, opts)
}

#[test]
fn kill_mid_campaign_then_resume_yields_the_identical_final_history() {
    let campaign = campaign();

    // Uninterrupted ground truth.
    let truth_dir = tmp_dir("truth");
    let truth_store = TrialStore::open(&truth_dir).unwrap();
    campaign.resume(&truth_store).unwrap();
    let truth_export = truth_store.export_jsonl();

    // The "crashed" store: the truth store's segment cut mid-record —
    // the bytes a SIGKILL during an append would leave on disk — still
    // registered as the killed writer `local`'s active segment.
    let crash_dir = tmp_dir("crashed");
    std::fs::create_dir_all(&crash_dir).unwrap();
    let seg = std::fs::read_to_string(truth_dir.join("seg-local-000001.jsonl")).unwrap();
    let cut = (0..seg.len() * 3 / 5).rev().find(|&i| seg.is_char_boundary(i)).unwrap();
    assert!(seg.as_bytes()[cut.saturating_sub(1)] != b'\n', "cut tears a record in half");
    let manifest = "llamatune-store v1\nactive seg-local-000001.jsonl\n";
    std::fs::write(crash_dir.join("MANIFEST"), manifest).unwrap();
    std::fs::write(crash_dir.join("seg-local-000001.jsonl"), &seg[..cut]).unwrap();

    // Recovery drops the torn record and the campaign resumes.
    let store = TrialStore::open(&crash_dir).unwrap();
    assert!(store.trial_count() < truth_store.trial_count(), "the kill lost work");
    let session = store.sessions()[0].clone();
    assert_eq!(store.session_meta(&session).unwrap().status, SessionStatus::Running);
    let results = campaign.resume(&store).unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(store.export_jsonl(), truth_export, "resumed history is byte-identical");
    assert_eq!(store.session_meta(&session).unwrap().status, SessionStatus::Done);

    // A second resume (e.g. a supervisor restarting an already-finished
    // campaign) re-evaluates nothing and changes nothing on disk.
    let records = store.trial_records();
    campaign.resume(&store).unwrap();
    assert_eq!(store.trial_records(), records);
    assert_eq!(store.export_jsonl(), truth_export);

    std::fs::remove_dir_all(&truth_dir).unwrap();
    std::fs::remove_dir_all(&crash_dir).unwrap();
}
