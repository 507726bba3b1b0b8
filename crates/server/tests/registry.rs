//! One daemon, one store handle, no thread per session: what serving a
//! session leaves behind — open descriptors, `active` lines in the
//! manifest, files in the store directory, threads — must not grow with
//! the number of sessions served, and what a `report` acknowledges must
//! be in the store.
//!
//! The descriptor and thread counts are the process's, so every test
//! here holds one lock and runs alone in it; nothing else belongs in
//! this binary.

use llamatune::session::{EvalResult, TrialStatus};
use llamatune_engine::RunOptions;
use llamatune_runtime::{AdapterKind, CampaignOptions};
use llamatune_server::wire::{self, CreateSession, Report, SuggestReply, WireResult, WireTrial};
use llamatune_server::{Attach, SessionRegistry};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::{
    FailingBackend, FaultPlan, LocalDirBackend, ObjectStoreBackend, StoreBackend, StoreOptions,
    TrialStore,
};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn registry_over(backend: Arc<dyn StoreBackend>) -> SessionRegistry {
    let run_opts =
        RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() };
    SessionRegistry::new(
        backend,
        postgres_v9_6(),
        CampaignOptions { run_options: Some(run_opts), ..Default::default() },
        StoreOptions::default(),
    )
}

fn session(seed: u64, iterations: usize, n_init: usize, batch_size: usize) -> CreateSession {
    CreateSession {
        workload: "ycsb_a".to_string(),
        adapter: AdapterKind::Identity,
        optimizer: "random".to_string(),
        seed,
        iterations,
        n_init,
        batch_size,
    }
}

fn attach_live(registry: &SessionRegistry, create: &CreateSession) -> String {
    match registry.attach(create).unwrap() {
        Attach::Live { label, .. } => label,
        Attach::Done { label } => panic!("session {label} is not finished in this store"),
    }
}

fn suggest(registry: &SessionRegistry, label: &str) -> SuggestReply {
    registry.suggest(label, Duration::from_secs(30)).unwrap()
}

/// Made-up scores, a function of the session seed and the iteration.
fn made_up(label: &str, round: usize, seed: u64, trials: &[WireTrial]) -> Report {
    let results = trials
        .iter()
        .map(|t| {
            WireResult(EvalResult {
                score: Some(1000.0 + (seed * 10 + t.iteration as u64) as f64),
                metrics: vec![1.0, 2.0],
                status: TrialStatus::Ok,
                attempts: 1,
                virtual_ms: 0.0,
            })
        })
        .collect();
    Report { session: label.to_string(), round, results }
}

/// Answers the session's rounds (no sockets) until none is left.
fn finish(registry: &SessionRegistry, label: &str, seed: u64) {
    while let SuggestReply::Round { round, trials } = suggest(registry, label) {
        registry.report(&made_up(label, round, seed, &trials)).unwrap();
    }
}

/// Drives one two-iteration session to completion against the registry
/// itself.
fn serve_one(registry: &SessionRegistry, seed: u64) {
    let create = session(seed, 2, 1, 1);
    let label = attach_live(registry, &create);
    finish(registry, &label, seed);
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
    let _alone = alone();
    let dir = std::env::temp_dir()
        .join("llamatune_server_registry")
        .join(format!("footprint_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = registry_over(Arc::new(LocalDirBackend::create(&dir).unwrap()));

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

/// A session waiting for its client is a value, not a parked thread,
/// and its unanswered round is the same round however often it is
/// asked for.
#[cfg(target_os = "linux")]
#[test]
fn forty_live_sessions_cost_no_thread() {
    let _alone = alone();
    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let registry = registry_over(Arc::new(ObjectStoreBackend::default()));
    let before = threads();
    for seed in 0..40 {
        let label = attach_live(&registry, &session(seed, 4, 2, 2));
        let (first, again) = (suggest(&registry, &label), suggest(&registry, &label));
        assert!(matches!(first, SuggestReply::Round { round: 0, .. }));
        assert_eq!(first.encode(), again.encode(), "an unanswered round is redelivered verbatim");
    }
    assert_eq!(registry.session_count(), 40);
    // Not `==`: the harness may have started this binary's two other
    // tests since `before`, each parked on `alone` in a thread of its own.
    assert!(threads() <= before + 2, "40 sessions attached and left mid-round");
}

/// An acknowledged round is a recorded one: the report whose record the
/// store refuses is the call that fails, nothing of it is acknowledged,
/// and the session resumes from what *was* recorded.
#[test]
fn a_refused_report_is_not_acknowledged() {
    let _alone = alone();
    let create = session(5, 6, 2, 2);
    let reference = registry_over(Arc::new(ObjectStoreBackend::default()));
    let label = attach_live(&reference, &create);
    finish(&reference, &label, 5);
    let uninterrupted = reference.export(&label).unwrap();

    let inner: Arc<dyn StoreBackend> = Arc::new(ObjectStoreBackend::default());
    let refuse = FaultPlan::FailAppendsMatching { needle: "\"iteration\":3".into(), allow: 0 };
    let failing = registry_over(Arc::new(FailingBackend::new(inner.clone(), refuse)));
    assert_eq!(attach_live(&failing, &create), label);
    let mut answers = Vec::new();
    while let Ok(SuggestReply::Round { round, trials }) =
        failing.suggest(&label, Duration::from_secs(30))
    {
        let answer = failing.report(&made_up(&label, round, 5, &trials));
        answers.push((round, answer.map_err(|e| e.code)));
    }
    assert_eq!(
        answers,
        [(0, Ok(())), (1, Ok(())), (3, Err(wire::code::SESSION_FAILED.to_string()))],
        "the report of the round the store refused is the one that fails"
    );
    let recorded = TrialStore::open_reader(inner.clone(), StoreOptions::default()).unwrap();
    let iterations: Vec<usize> = recorded.trials_for(&label).iter().map(|t| t.iteration).collect();
    assert_eq!(iterations, [0, 1, 2], "what was acknowledged, and nothing else");

    let healthy = registry_over(inner);
    assert_eq!(attach_live(&healthy, &create), label);
    assert!(matches!(suggest(&healthy, &label), SuggestReply::Round { round: 3, .. }));
    finish(&healthy, &label, 5);
    assert_eq!(healthy.export(&label).unwrap(), uninterrupted);
}
