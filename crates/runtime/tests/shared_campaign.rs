//! Fleet campaigns: N workers sharing one knowledge base through
//! `Campaign::run_fleet`.
//!
//! The acceptance bar (mirroring the single-store checkpoint suite):
//! a 4-worker fleet writing into one object-store backend produces the
//! *same exported event history* as the single-store run, and killing
//! any worker mid-round — injected at the storage seam, where a real
//! `kill -9` bites — followed by a fresh fleet run (any worker
//! count) converges to that history byte for byte.

use llamatune::history_io::{dedup_events, events_from_jsonl, session_curves};
use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_engine::RunOptions;
use llamatune_runtime::{
    AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind, WarmStartOptions,
};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::{
    FailingBackend, FaultPlan, ObjectStoreBackend, ObjectStoreOptions, SessionStatus, StoreBackend,
    StoreOptions, TrialStore,
};
use std::sync::Arc;

fn object_backend() -> Arc<dyn StoreBackend> {
    Arc::new(ObjectStoreBackend::new(ObjectStoreOptions { eventual_list: true }))
}

fn fleet_store_opts() -> StoreOptions {
    // Tiny segments so every session crosses several CAS rotations.
    StoreOptions { segment_records: 5 }
}

fn campaign() -> Campaign {
    let run_opts =
        RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() };
    let spec = CampaignSpec {
        workloads: vec!["ycsb_b".into(), "ycsb_f".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![1, 2],
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
fn four_worker_fleet_matches_the_single_store_run_and_resumes_for_free() {
    let campaign = campaign();

    // Single-store ground truth.
    let truth_be = object_backend();
    let truth_store = TrialStore::open_shared(truth_be, "local", StoreOptions::default()).unwrap();
    let truth = campaign.resume(&truth_store).unwrap();
    let truth_export = truth_store.export_jsonl();

    // 4 workers, one backend, 4 sessions pulled from a shared queue.
    let be = object_backend();
    let results = campaign.run_fleet(be.clone(), 4, fleet_store_opts()).unwrap();
    assert_eq!(results.len(), 4);
    for (a, b) in truth.iter().zip(&results) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.history.scores, b.history.scores);
        assert_eq!(a.history.points, b.history.points);
        assert_eq!(a.history.best_curve, b.history.best_curve);
    }

    let reader = TrialStore::open_reader(be.clone(), StoreOptions::default()).unwrap();
    assert_eq!(reader.export_jsonl(), truth_export, "merged fleet view equals the single store");
    for r in &results {
        let meta = reader.session_meta(&r.label).expect("meta recorded");
        assert_eq!(meta.status, SessionStatus::Done);
        assert!(meta.lease.is_none(), "lease released on completion: {:?}", meta.lease);
    }
    // The raw merged stream is curve-consumable after deduplication.
    let events = dedup_events(&events_from_jsonl(&reader.export_jsonl()).unwrap());
    assert_eq!(session_curves(&events).unwrap().len(), 4);

    // Re-running the finished fleet re-evaluates nothing.
    let records_before = reader.trial_records();
    let resumed = campaign.run_fleet(be.clone(), 2, fleet_store_opts()).unwrap();
    let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
    assert_eq!(reader.trial_records(), records_before, "no re-evaluation on fleet resume");
    for (a, b) in truth.iter().zip(&resumed) {
        assert_eq!(a.history.scores, b.history.scores);
        assert_eq!(a.history.configs, b.history.configs);
    }
}

#[test]
fn killing_any_worker_mid_round_resumes_byte_identically() {
    let campaign = campaign();

    // Fleet ground truth (fleet runs are deterministic per cell, so a
    // clean fleet's export is the reference for every kill scenario).
    let clean_be = object_backend();
    campaign.run_fleet(clean_be.clone(), 4, fleet_store_opts()).unwrap();
    let truth_export =
        TrialStore::open_reader(clean_be, StoreOptions::default()).unwrap().export_jsonl();

    // Kill each of the four sessions' workers in turn: appends carrying
    // that session's label start failing mid-round (allow = 5 lets the
    // lease metadata and the first trials through), which is the
    // storage-visible footprint of that worker dying.
    let victims = [
        "ycsb_b/llamatune/smac/s1",
        "ycsb_b/llamatune/smac/s2",
        "ycsb_f/llamatune/smac/s1",
        "ycsb_f/llamatune/smac/s2",
    ];
    for victim in victims {
        let inner = object_backend();
        let failing: Arc<dyn StoreBackend> = Arc::new(FailingBackend::new(
            inner.clone(),
            FaultPlan::FailAppendsMatching { needle: victim.to_string(), allow: 5 },
        ));
        let err = campaign.run_fleet(failing, 4, fleet_store_opts()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe, "kill {victim}: {err}");

        // The victim's session is stranded mid-round, still leased...
        let reader = TrialStore::open_reader(inner.clone(), StoreOptions::default()).unwrap();
        let meta = reader.session_meta(victim).expect("victim's lease metadata survived");
        assert_eq!(meta.status, SessionStatus::Running, "kill {victim}");
        assert!(meta.lease.is_some(), "kill {victim}: lease still held by the dead worker");
        assert!(
            reader.export_jsonl() != truth_export,
            "kill {victim}: the kill must actually lose work for this test to bite"
        );

        // ...and a fresh fleet (different worker count) takes it over
        // and converges to the identical exported history.
        campaign.run_fleet(inner.clone(), 2, fleet_store_opts()).unwrap();
        let reader = TrialStore::open_reader(inner, StoreOptions::default()).unwrap();
        assert_eq!(reader.export_jsonl(), truth_export, "kill {victim}: resume diverged");
        let meta = reader.session_meta(victim).unwrap();
        assert_eq!(meta.status, SessionStatus::Done, "kill {victim}");
        assert!(meta.lease.is_none(), "kill {victim}: lease released after takeover");
    }
}

#[test]
fn fleet_warm_start_reads_the_merged_view_of_past_fleets() {
    // Phase 1: a 2-worker fleet tunes the source workload to completion.
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
        seeds: vec![7, 8],
    };
    let be = object_backend();
    Campaign::new(catalog.clone(), source, base_opts.clone())
        .run_fleet(be.clone(), 2, fleet_store_opts())
        .unwrap();

    // Phase 2: a later fleet tunes a fingerprint-adjacent workload with
    // warm start on; its sessions must seed from the merged store the
    // first fleet's workers wrote.
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
    let results =
        Campaign::new(catalog, target, opts).run_fleet(be.clone(), 2, fleet_store_opts()).unwrap();
    let reader = TrialStore::open_reader(be, StoreOptions::default()).unwrap();
    let meta = reader.session_meta(&results[0].label).unwrap();
    assert!(!meta.warm_points.is_empty(), "transfer found the first fleet's session");
    assert_eq!(
        meta.warm_points,
        reader.top_points("ycsb_a/llamatune/smac/s7", 2),
        "warm points come from the matched source session (same adapter identity and seed)"
    );
}

#[test]
fn a_fleet_whose_workers_cannot_open_the_store_runs_nothing_and_says_why() {
    // Every mutation fails, so no worker can register as a writer.
    let dead: Arc<dyn StoreBackend> =
        Arc::new(FailingBackend::new(object_backend(), FaultPlan::KillAtByte(0)));
    let err = campaign().run_fleet(dead, 2, fleet_store_opts()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe, "{err}");
    assert!(err.to_string().starts_with("fleet worker w"), "the error names the worker: {err}");
}
