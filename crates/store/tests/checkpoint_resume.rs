//! Determinism under interruption — the acceptance test of the
//! persistent knowledge store: a campaign checkpointed into a store,
//! killed at an *arbitrary* point in its record stream (any trial
//! boundary, and even mid-write), and resumed produces a byte-identical
//! exported JSONL event history to the same campaign run uninterrupted.
//!
//! The interruption is simulated at the storage layer, which is exactly
//! where a real `kill -9` bites: the uninterrupted campaign's record
//! stream is replayed up to a cut point into a fresh store directory
//! (optionally tearing the final line in half, as a crash mid-`write`
//! would), and `Campaign::resume` continues from whatever survived.

use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_engine::RunOptions;
use llamatune_runtime::{
    AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind, WarmStartOptions,
};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::{
    ObjectStoreBackend, ObjectStoreOptions, StoreBackend, StoreOptions, TrialStore,
};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("llamatune_checkpoint_resume")
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
        seeds: vec![1, 2],
    };
    let opts = CampaignOptions {
        session: SessionOptions { iterations: 8, n_init: 3, ..Default::default() },
        batch_size: 3,
        trial_workers: 2,
        session_parallelism: 1,
        run_options: Some(run_opts),
        ..Default::default()
    };
    Campaign::new(postgres_v9_6(), spec, opts)
}

/// A one-writer store's raw record stream: the text of every segment
/// its `manifest` lists, in order — the sealed ones, then the writer's
/// `active` one.
fn stream_of(manifest: &str, read: impl Fn(&str) -> String) -> String {
    let names = manifest.lines().skip(1).filter(|l| !l.trim().is_empty());
    names.map(|l| read(l.strip_prefix("active ").unwrap_or(l))).collect()
}

/// [`stream_of`] a local store directory.
fn record_stream(dir: &std::path::Path) -> String {
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    stream_of(&manifest, |name| std::fs::read_to_string(dir.join(name)).unwrap())
}

/// The manifest a writer `local` killed before its first seal leaves:
/// its active segment registered, nothing sealed.
const KILLED_MANIFEST: &str = "llamatune-store v1\nactive seg-local-000001.jsonl\n";

/// Writes a prefix of a record stream as a fresh store directory: the
/// on-disk state a kill of the writer `local` at that byte would leave
/// ([`KILLED_MANIFEST`] and its active segment, cut), which the resume
/// reclaims and repairs.
fn store_from_prefix(dir: &std::path::Path, stream_prefix: &str) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("MANIFEST"), KILLED_MANIFEST).unwrap();
    std::fs::write(dir.join("seg-local-000001.jsonl"), stream_prefix).unwrap();
}

#[test]
fn resume_from_any_cut_reproduces_the_uninterrupted_history() {
    let campaign = campaign();

    // Ground truth: the same campaign, uninterrupted (with rotation
    // exercised: tiny segments).
    let truth_dir = tmp_dir("truth");
    let truth_store =
        TrialStore::open_with(&truth_dir, StoreOptions { segment_records: 7 }).unwrap();
    let truth = campaign.resume(&truth_store).unwrap();
    assert!(truth_store.sealed_segments().len() >= 2, "rotation exercised");
    let truth_export = truth_store.export_jsonl();
    let stream = record_stream(&truth_dir);
    let lines: Vec<&str> = stream.lines().collect();
    assert!(lines.len() > 20, "2 sessions x (meta + 9 trials + meta)");

    // Kill the campaign after K whole records, for cuts inside session
    // 1, at the session boundary, and inside session 2.
    for cut_records in [1, 4, 8, 12, 15, lines.len() - 1] {
        let prefix: String = lines[..cut_records].iter().map(|l| format!("{l}\n")).collect();
        let dir = tmp_dir(&format!("cut_{cut_records}"));
        store_from_prefix(&dir, &prefix);
        let store = TrialStore::open(&dir).unwrap();
        let resumed = campaign.resume(&store).unwrap();
        assert_eq!(
            store.export_jsonl(),
            truth_export,
            "cut after {cut_records} records must resume to the identical history"
        );
        for (a, b) in truth.iter().zip(&resumed) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.history.scores, b.history.scores);
            assert_eq!(a.history.points, b.history.points);
            assert_eq!(a.history.configs, b.history.configs);
            assert_eq!(a.history.best_curve, b.history.best_curve);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&truth_dir).unwrap();
}

#[test]
fn resume_after_a_torn_write_reproduces_the_uninterrupted_history() {
    let campaign = campaign();
    let truth_dir = tmp_dir("torn_truth");
    let truth_store = TrialStore::open(&truth_dir).unwrap();
    campaign.resume(&truth_store).unwrap();
    let truth_export = truth_store.export_jsonl();
    let stream = record_stream(&truth_dir);

    // Kill mid-write: cut the stream at raw byte offsets, leaving a
    // half-written final line behind.
    for frac in [0.2, 0.5, 0.8] {
        let cut = (stream.len() as f64 * frac) as usize;
        let cut = (cut..stream.len()).find(|&i| stream.is_char_boundary(i)).unwrap();
        let dir = tmp_dir(&format!("torn_{cut}"));
        store_from_prefix(&dir, &stream[..cut]);
        let store = TrialStore::open(&dir).unwrap();
        let resumed_export_before = store.export_jsonl();
        assert!(
            truth_export.starts_with(&resumed_export_before) || !resumed_export_before.is_empty(),
            "recovered prefix is a clean subset"
        );
        campaign.resume(&store).unwrap();
        assert_eq!(store.export_jsonl(), truth_export, "torn cut at byte {cut}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&truth_dir).unwrap();
}

#[test]
fn resumed_thrice_campaign_compacts_to_the_same_export() {
    let campaign = campaign();

    // Ground truth: the uninterrupted campaign.
    let truth_dir = tmp_dir("compact_truth");
    let truth_store = TrialStore::open(&truth_dir).unwrap();
    campaign.resume(&truth_store).unwrap();
    let truth_export = truth_store.export_jsonl();

    // Kill-and-resume the campaign three times: each cycle truncates
    // the previous cycle's record stream mid-flight and resumes from
    // the survivors, re-running the partial trailing round and thereby
    // appending duplicate (session, iteration) records.
    let mut stream = record_stream(&truth_dir);
    let mut final_dir = None;
    for (cycle, frac) in [(1, 0.3), (2, 0.55), (3, 0.8)] {
        let lines: Vec<&str> = stream.lines().collect();
        let keep = ((lines.len() as f64 * frac) as usize).max(1);
        let prefix: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        let dir = tmp_dir(&format!("compact_cycle_{cycle}"));
        store_from_prefix(&dir, &prefix);
        let store = TrialStore::open(&dir).unwrap();
        campaign.resume(&store).unwrap();
        assert_eq!(store.export_jsonl(), truth_export, "cycle {cycle} resumed to truth");
        stream = record_stream(&dir);
        if let Some(old) = final_dir.replace(dir) {
            std::fs::remove_dir_all(old).unwrap();
        }
    }

    // The thrice-resumed store drags duplicate records and superseded
    // metadata; compaction rewrites them away without changing the
    // exported history — byte for byte.
    let dir = final_dir.unwrap();
    let store = TrialStore::open(&dir).unwrap();
    assert!(
        store.trial_records() > store.trial_count(),
        "resume cycles must have appended duplicates for this test to bite"
    );
    let stats = store.compact().unwrap();
    assert_eq!(stats.trial_records_after, store.trial_count());
    assert!(stats.trial_records_before > stats.trial_records_after);
    assert_eq!(store.export_jsonl(), truth_export, "compaction preserves the export");

    // And the compacted store still resumes for free: rebuilt
    // histories, zero re-evaluation, identical export.
    drop(store);
    let store = TrialStore::open(&dir).unwrap();
    assert_eq!(store.export_jsonl(), truth_export);
    let records_before = store.trial_records();
    campaign.resume(&store).unwrap();
    assert_eq!(store.trial_records(), records_before, "no re-evaluation after compaction");
    assert_eq!(store.export_jsonl(), truth_export);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&truth_dir).unwrap();
}

// ---------------------------------------------------------------------
// The same guarantees, parameterized over the S3-style object backend:
// no rename (manifest committed by conditional put), eventual listings
// on. The cut/torn states are installed through backend puts — the
// object-store equivalent of the wreckage a killed worker leaves.
// ---------------------------------------------------------------------

fn object_backend() -> Arc<dyn StoreBackend> {
    Arc::new(ObjectStoreBackend::new(ObjectStoreOptions { eventual_list: true }))
}

/// The object-store analogue of [`store_from_prefix`]: the killed
/// writer's active segment object holding the stream prefix, plus
/// [`KILLED_MANIFEST`] committed.
fn object_store_from_prefix(prefix: &str) -> TrialStore {
    let be = object_backend();
    be.put("seg-local-000001.jsonl", prefix.as_bytes()).unwrap();
    be.commit_manifest(KILLED_MANIFEST.as_bytes(), 0).unwrap().unwrap();
    TrialStore::open_shared(be, "local", StoreOptions::default()).unwrap()
}

/// [`stream_of`] a store on an object backend.
fn object_record_stream(be: &dyn StoreBackend) -> String {
    let manifest = String::from_utf8(be.read_manifest().unwrap().0.unwrap()).unwrap();
    stream_of(&manifest, |name| String::from_utf8(be.get(name).unwrap().unwrap()).unwrap())
}

#[test]
fn object_store_campaign_matches_the_local_store_byte_for_byte() {
    // The backend must be invisible to the recorded history: the same
    // campaign checkpointed into a local directory and into the object
    // store exports identical JSONL.
    let campaign = campaign();
    let local_dir = tmp_dir("object_vs_local");
    let local = TrialStore::open(&local_dir).unwrap();
    campaign.resume(&local).unwrap();

    let opts = StoreOptions { segment_records: 7 };
    let store = TrialStore::open_shared(object_backend(), "local", opts).unwrap();
    campaign.resume(&store).unwrap();
    assert!(store.sealed_segments().len() >= 2, "CAS rotation exercised");
    assert_eq!(store.export_jsonl(), local.export_jsonl());
    std::fs::remove_dir_all(&local_dir).unwrap();
}

#[test]
fn object_store_resume_from_any_cut_reproduces_the_uninterrupted_history() {
    let campaign = campaign();
    let truth_be = object_backend();
    let opts = StoreOptions { segment_records: 7 };
    let truth_store = TrialStore::open_shared(truth_be.clone(), "local", opts).unwrap();
    let truth = campaign.resume(&truth_store).unwrap();
    let truth_export = truth_store.export_jsonl();
    let stream = object_record_stream(&*truth_be);
    let lines: Vec<&str> = stream.lines().collect();
    assert!(lines.len() > 20, "2 sessions x (meta + 9 trials + meta)");

    for cut_records in [1, 4, 8, 12, 15, lines.len() - 1] {
        let prefix: String = lines[..cut_records].iter().map(|l| format!("{l}\n")).collect();
        let store = object_store_from_prefix(&prefix);
        let resumed = campaign.resume(&store).unwrap();
        assert_eq!(
            store.export_jsonl(),
            truth_export,
            "cut after {cut_records} records must resume to the identical history"
        );
        for (a, b) in truth.iter().zip(&resumed) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.history.scores, b.history.scores);
            assert_eq!(a.history.points, b.history.points);
            assert_eq!(a.history.configs, b.history.configs);
            assert_eq!(a.history.best_curve, b.history.best_curve);
        }
    }
}

#[test]
fn object_store_resume_after_a_torn_write_reproduces_the_history() {
    let campaign = campaign();
    let truth_be = object_backend();
    let truth_store =
        TrialStore::open_shared(truth_be.clone(), "local", StoreOptions::default()).unwrap();
    campaign.resume(&truth_store).unwrap();
    let truth_export = truth_store.export_jsonl();
    let stream = object_record_stream(&*truth_be);

    for frac in [0.2, 0.5, 0.8] {
        let cut = (stream.len() as f64 * frac) as usize;
        let cut = (cut..stream.len()).find(|&i| stream.is_char_boundary(i)).unwrap();
        let store = object_store_from_prefix(&stream[..cut]);
        campaign.resume(&store).unwrap();
        assert_eq!(store.export_jsonl(), truth_export, "torn cut at byte {cut}");

        // And the resumed object store still compacts losslessly.
        store.compact().unwrap();
        assert_eq!(store.export_jsonl(), truth_export, "compaction after torn-cut resume");
    }
}

#[test]
fn gp_campaign_is_worker_invariant_and_resumes_byte_identically() {
    // The workspace's one campaign-level run of a GP surrogate: batches
    // of 3 evaluated on `trial_workers` threads must not leak their
    // width into recorded histories. The same campaign at different
    // worker counts must export byte-identical JSONL, and a mid-flight
    // kill must resume to that same export.
    let run_opts =
        RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() };
    let spec = CampaignSpec {
        workloads: vec!["ycsb_b".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::GpBo],
        seeds: vec![1],
    };
    let opts_for = |workers: usize| CampaignOptions {
        session: SessionOptions { iterations: 8, n_init: 3, ..Default::default() },
        batch_size: 3,
        trial_workers: workers,
        session_parallelism: 1,
        run_options: Some(run_opts.clone()),
        ..Default::default()
    };

    let truth_dir = tmp_dir("gp_truth");
    let truth_store = TrialStore::open(&truth_dir).unwrap();
    let campaign = Campaign::new(postgres_v9_6(), spec.clone(), opts_for(1));
    campaign.resume(&truth_store).unwrap();
    let truth_export = truth_store.export_jsonl();

    for workers in [2usize, 4] {
        let dir = tmp_dir(&format!("gp_w{workers}"));
        let store = TrialStore::open(&dir).unwrap();
        Campaign::new(postgres_v9_6(), spec.clone(), opts_for(workers)).resume(&store).unwrap();
        assert_eq!(
            store.export_jsonl(),
            truth_export,
            "trial_workers={workers} changed the GP campaign's history"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Kill at a few trial boundaries and resume (at yet another worker
    // count) to the identical export.
    let stream = record_stream(&truth_dir);
    let lines: Vec<&str> = stream.lines().collect();
    let resume_campaign = Campaign::new(postgres_v9_6(), spec, opts_for(2));
    for cut_records in [2, lines.len() / 2, lines.len() - 1] {
        let prefix: String = lines[..cut_records].iter().map(|l| format!("{l}\n")).collect();
        let dir = tmp_dir(&format!("gp_cut_{cut_records}"));
        store_from_prefix(&dir, &prefix);
        let store = TrialStore::open(&dir).unwrap();
        resume_campaign.resume(&store).unwrap();
        assert_eq!(
            store.export_jsonl(),
            truth_export,
            "GP campaign cut after {cut_records} records must resume to truth"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&truth_dir).unwrap();
}

#[test]
fn warm_started_campaign_resumes_with_its_recorded_warm_points() {
    // A warm-started session interrupted during initialization must
    // resume with the warm points recorded in its metadata — not
    // re-match against a store that may have learned more since.
    let catalog = postgres_v9_6();
    let run_opts =
        RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() };
    let base_opts = CampaignOptions {
        session: SessionOptions { iterations: 6, n_init: 3, ..Default::default() },
        batch_size: 2,
        trial_workers: 2,
        run_options: Some(run_opts),
        ..Default::default()
    };
    let source = CampaignSpec {
        workloads: vec!["ycsb_a".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![7],
    };
    let dir = tmp_dir("warm_resume");
    let store = TrialStore::open(&dir).unwrap();
    Campaign::new(catalog.clone(), source, base_opts.clone()).resume(&store).unwrap();

    let target = CampaignSpec {
        workloads: vec!["ycsb_f".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![7],
    };
    let opts = CampaignOptions {
        warm_start: Some(WarmStartOptions { k: 2, max_distance: 1.9 }),
        ..base_opts
    };
    let campaign = Campaign::new(catalog, target, opts);
    let truth = campaign.resume(&store).unwrap();
    let label = &truth[0].label;
    let meta = store.session_meta(label).unwrap();
    assert!(
        !meta.warm_points.is_empty(),
        "the target session must have transferred at least one warm point"
    );
    let truth_export = store.export_jsonl();

    // Interrupt the *target* session right after its first trial: keep
    // the stream up to (and including) the target's meta + 2 records.
    let stream = record_stream(&dir);
    let target_meta_line = stream
        .lines()
        .position(|l| l.contains("\"kind\":\"session\"") && l.contains("ycsb_f"))
        .expect("target session meta recorded");
    let keep = target_meta_line + 3;
    let prefix: String = stream.lines().take(keep).map(|l| format!("{l}\n")).collect();
    let cut_dir = tmp_dir("warm_resume_cut");
    store_from_prefix(&cut_dir, &prefix);
    let cut_store = TrialStore::open(&cut_dir).unwrap();
    let resumed_meta = cut_store.session_meta(label).unwrap();
    assert_eq!(resumed_meta.warm_points, meta.warm_points, "warm points survive the cut");
    campaign.resume(&cut_store).unwrap();
    assert_eq!(cut_store.export_jsonl(), truth_export);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&cut_dir).unwrap();
}
