//! One daemon, one store handle: what serving a session leaves behind —
//! open descriptors, `active` lines in the manifest, files in the store
//! directory — must not grow with the number of sessions served.
//!
//! Alone in its test binary on purpose: the descriptor count is the
//! process's, and a neighbouring test's sockets would be counted too.

use llamatune::session::TrialStatus;
use llamatune_engine::RunOptions;
use llamatune_runtime::{AdapterKind, CampaignOptions};
use llamatune_server::wire::{CreateSession, Report, SuggestReply, WireResult};
use llamatune_server::{Attach, SessionRegistry};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::{LocalDirBackend, StoreOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Drives one two-iteration session to completion against the registry
/// itself (no sockets), reporting made-up scores.
fn serve_one(registry: &SessionRegistry, seed: u64) {
    let create = CreateSession {
        workload: "ycsb_a".to_string(),
        adapter: AdapterKind::Identity,
        optimizer: "random".to_string(),
        seed,
        iterations: 2,
        n_init: 1,
        batch_size: 1,
    };
    let Attach::Live { label, .. } = registry.attach(&create).unwrap() else {
        panic!("session {seed} is new to this store");
    };
    while let SuggestReply::Round { round, trials } =
        registry.suggest(&label, Duration::from_secs(30)).unwrap()
    {
        let results = trials
            .iter()
            .map(|t| WireResult {
                score: Some(1000.0 + (seed * 10 + t.iteration as u64) as f64),
                metrics: vec![1.0, 2.0],
                status: TrialStatus::Ok,
                attempts: 1,
                virtual_ms: 0.0,
            })
            .collect();
        registry.report(&Report { session: label.clone(), round, results }).unwrap();
    }
    assert!(matches!(registry.attach(&create).unwrap(), Attach::Done { .. }));
    assert_eq!(registry.status(&label).unwrap().trials, 3, "default run + 2 iterations");
}

/// `(open descriptors, "active" lines in MANIFEST, files in the store)`.
fn footprint(dir: &Path) -> (Option<usize>, usize, usize) {
    let fds =
        cfg!(target_os = "linux").then(|| std::fs::read_dir("/proc/self/fd").unwrap().count());
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    let actives = manifest.lines().filter(|l| l.starts_with("active ")).count();
    (fds, actives, std::fs::read_dir(dir).unwrap().count())
}

#[test]
fn forty_sessions_leave_the_footprint_of_one() {
    let dir = std::env::temp_dir()
        .join("llamatune_server_registry")
        .join(format!("footprint_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run_opts =
        RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() };
    let registry = SessionRegistry::new(
        Arc::new(LocalDirBackend::create(&dir).unwrap()),
        postgres_v9_6(),
        CampaignOptions { run_options: Some(run_opts), ..Default::default() },
        StoreOptions::default(),
    );

    serve_one(&registry, 0);
    let after_one = footprint(&dir);
    assert_eq!(after_one.1, 1, "one writer registered: the daemon");
    for seed in 1..40 {
        serve_one(&registry, seed);
    }
    assert_eq!(footprint(&dir), after_one, "(descriptors, active lines, files) after 40 sessions");

    registry.shutdown_all();
    std::fs::remove_dir_all(&dir).unwrap();
}
