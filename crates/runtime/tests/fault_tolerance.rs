//! Chaos suite: trial-level fault tolerance under *seeded* fault
//! schedules (part of the CI `fault-injection` gate).
//!
//! Three layers of property, in increasing blast radius:
//!
//! 1. **Session properties** (proptest, 96 seeded cases each): under any
//!    `FaultPlan::chaos(seed)` schedule a session terminates, records
//!    every trial exactly once (finite penalty scores, truthful
//!    statuses, attempt counts within the retry budget), and
//!    produces bit-identical histories at any worker count.
//! 2. **Optimizer degradation**: a panicking optimizer under
//!    `GuardedOptimizer` degrades rounds to random search — recorded as
//!    [`DegradationEvent`]s — instead of killing the session.
//! 3. **Campaign resume**: a store-backed campaign running under runner
//!    faults, killed at arbitrary record boundaries (and, in the
//!    env-driven CI matrix case, killed by *store-level* byte-budget
//!    faults at the same time), resumes to a byte-identical exported
//!    history.
//!
//! Everything here is deterministic: fault schedules key on
//! `(plan seed, config fingerprint)`, watchdogs run on the virtual
//! clock, and backoff jitter is seeded — so a red case replays exactly
//! from its printed seed.

use llamatune::pipeline::{IdentityAdapter, LlamaTuneConfig, SearchSpaceAdapter};
use llamatune::session::{
    run_session_parallel, EvalResult, FnExecutor, SessionHistory, SessionOptions, TrialStatus,
};
use llamatune_engine::RunOptions;
use llamatune_optim::{GuardedOptimizer, Observation, Optimizer, RandomSearch};
use llamatune_runtime::{
    AdapterKind, Campaign, CampaignOptions, CampaignSpec, CellSpec, ExecutionPolicy, OptimizerKind,
    SessionDriver, WorkloadExecutor,
};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::{Config, ConfigSpace};
use llamatune_store::{
    FailingBackend, FaultPlan as StoreFaultPlan, ObjectStoreBackend, StoreBackend, StoreOptions,
    TrialStore,
};
use llamatune_workloads::{AttemptOutcome, FaultPlan, FaultyRunner, TrialRunner};
use proptest::prelude::*;
use std::sync::Arc;

/// Injected panics are expected noise here; keep every *other* panic
/// (real assertion failures) on the default hook.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") && !msg.contains("flaky optimizer") {
                prev(info);
            }
        }));
    });
}

/// A deterministic stand-in benchmark: cheap enough for thousands of
/// property cases, with config-dependent scores and virtual durations so
/// timeouts have something to bite on.
struct SimRunner;

impl TrialRunner for SimRunner {
    fn evaluate_attempt(
        &self,
        _space: &ConfigSpace,
        config: &Config,
        seed: u64,
        _attempt: u32,
    ) -> AttemptOutcome {
        let h = llamatune_workloads::config_fingerprint(config) ^ seed;
        AttemptOutcome {
            score: Some(1_000.0 + (h % 10_000) as f64 / 10.0),
            metrics: vec![(h % 97) as f64],
            virtual_ms: 500.0 + (h % 1_500) as f64,
            retryable: false,
        }
    }
}

const ITERS: usize = 9; // + iteration 0 = 10 recorded trials

fn run_chaos_session(
    seed: u64,
    workers: usize,
    plan: FaultPlan,
    policy: ExecutionPolicy,
) -> SessionHistory {
    let catalog = postgres_v9_6();
    let adapter = IdentityAdapter::new(&catalog);
    let optimizer: Box<dyn Optimizer> =
        Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), seed));
    let runner: Arc<dyn TrialRunner> = Arc::new(FaultyRunner::new(Arc::new(SimRunner), plan));
    let mut executor =
        WorkloadExecutor::from_trial_runner(runner, catalog.clone(), seed ^ 0x5EED, workers)
            .with_policy(policy);
    let opts = SessionOptions { iterations: ITERS, n_init: 4, seed, ..Default::default() };
    run_session_parallel(&adapter, optimizer, &mut executor, &opts, 3)
}

proptest! {
    /// Termination + no-lost-trial: any seeded fault schedule, any
    /// policy in the grid — the session ends with every iteration
    /// recorded exactly once, failures penalty-scored (finite), statuses
    /// truthful about raw scores, and attempt counts inside the
    /// retry budget.
    #[test]
    fn any_fault_schedule_terminates_with_every_trial_accounted(
        seed in 0u64..1_000_000,
        workers in 1usize..5,
        max_attempts in 1u32..4,
        watchdog in any::<bool>(),
    ) {
        silence_injected_panics();
        let policy = ExecutionPolicy {
            max_attempts,
            timeout_ms: if watchdog { 10_000.0 } else { f64::INFINITY },
        };
        let h = run_chaos_session(seed, workers, FaultPlan::chaos(seed), policy);
        prop_assert_eq!(h.scores.len(), ITERS + 1);
        prop_assert_eq!(h.raw_scores.len(), ITERS + 1);
        prop_assert_eq!(h.statuses.len(), ITERS + 1);
        prop_assert_eq!(h.attempts.len(), ITERS + 1);
        for i in 0..=ITERS {
            prop_assert!(h.scores[i].is_finite(), "seed {seed} trial {i}: penalty not applied");
            // Budget: max_attempts attempts.
            prop_assert!(
                h.attempts[i] >= 1 && h.attempts[i] <= max_attempts,
                "seed {seed} trial {i}: attempts {} outside budget", h.attempts[i]
            );
            match h.raw_scores[i] {
                Some(raw) => {
                    prop_assert!(raw.is_finite());
                    prop_assert_eq!(h.statuses[i], TrialStatus::Ok, "seed {seed} trial {i}");
                }
                None => prop_assert!(
                    h.statuses[i].is_failure(),
                    "seed {seed} trial {i}: scoreless trial with status {:?}", h.statuses[i]
                ),
            }
        }
    }

    /// Worker-count invariance under chaos: the recorded history —
    /// scores, raw scores, statuses, attempt counts — is a pure function
    /// of the seeds, bit-identical at 1 and 4 workers even while panics,
    /// hangs, and retries land on different threads.
    #[test]
    fn chaos_histories_are_worker_count_invariant(seed in 0u64..1_000_000) {
        silence_injected_panics();
        let policy = ExecutionPolicy::hardened();
        let plan = FaultPlan::chaos(seed);
        let a = run_chaos_session(seed, 1, plan, policy);
        let b = run_chaos_session(seed, 4, plan, policy);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&a.scores), bits(&b.scores), "seed {seed}: scores diverged");
        prop_assert_eq!(&a.raw_scores, &b.raw_scores, "seed {seed}");
        prop_assert_eq!(&a.statuses, &b.statuses, "seed {seed}: statuses diverged");
        prop_assert_eq!(&a.attempts, &b.attempts, "seed {seed}: attempts diverged");
        prop_assert_eq!(bits(&a.best_curve), bits(&b.best_curve), "seed {seed}");
    }

    /// Fault-free inertness: with no fault plan, a hardened policy must
    /// not change a single recorded bit relative to the inert default —
    /// retries and watchdogs only engage on actual faults.
    #[test]
    fn hardened_policy_is_score_inert_without_faults(seed in 0u64..1_000_000) {
        let a = run_chaos_session(seed, 2, FaultPlan::default(), ExecutionPolicy::default());
        let b = run_chaos_session(seed, 2, FaultPlan::default(), ExecutionPolicy::hardened());
        prop_assert_eq!(&a.raw_scores, &b.raw_scores, "seed {seed}");
        prop_assert_eq!(&a.statuses, &b.statuses, "seed {seed}");
        for s in &a.statuses {
            prop_assert_eq!(*s, TrialStatus::Ok, "seed {seed}: fault-free run must be clean");
        }
    }
}

/// A panicking optimizer: suggestion number `panic_on` (and every
/// `panic_on`-th after a rebuild) blows up.
struct FlakyOptimizer {
    inner: RandomSearch,
    calls: u32,
    panic_on: u32,
}

impl Optimizer for FlakyOptimizer {
    fn suggest(&mut self) -> Vec<f64> {
        self.calls += 1;
        if self.calls == self.panic_on {
            panic!("flaky optimizer: injected suggestion failure");
        }
        self.inner.suggest()
    }

    fn observe(&mut self, obs: Observation) {
        self.inner.observe(obs);
    }

    fn name(&self) -> &'static str {
        "flaky"
    }
}

#[test]
fn optimizer_panics_degrade_to_random_search_and_are_recorded() {
    silence_injected_panics();
    let catalog = postgres_v9_6();
    let adapter = IdentityAdapter::new(&catalog);
    let spec = adapter.optimizer_spec().clone();
    let factory_spec = spec.clone();
    let optimizer: Box<dyn Optimizer> = Box::new(GuardedOptimizer::new(
        Box::new(move || {
            Box::new(FlakyOptimizer {
                inner: RandomSearch::new(factory_spec.clone(), 11),
                calls: 0,
                panic_on: 4,
            })
        }),
        spec,
        11,
    ));
    let runner: Arc<dyn TrialRunner> = Arc::new(SimRunner);
    let mut executor = WorkloadExecutor::from_trial_runner(runner, catalog.clone(), 7, 2);
    let opts = SessionOptions { iterations: ITERS, n_init: 2, seed: 11, ..Default::default() };
    let h = run_session_parallel(&adapter, optimizer, &mut executor, &opts, 3);
    assert_eq!(h.scores.len(), ITERS + 1, "session survives its optimizer");
    assert!(h.scores.iter().all(|s| s.is_finite()));
    assert!(!h.degradations.is_empty(), "degradations must be recorded");
    for d in &h.degradations {
        assert_eq!(d.optimizer, "flaky");
        assert!(d.iteration <= ITERS);
        assert!(!d.reason.is_empty());
    }
}

/// An executor that reports `NaN` or `±inf` has not measured anything.
/// The session folds such a score as a crashed trial (no raw score, §6
/// penalty), so the store never holds a number its reader cannot lex:
/// the store reopens — mid-segment and at the very tail — and exports
/// what the run whose executor returned `None` there exports.
#[test]
fn non_finite_scores_fold_as_crashes_and_survive_a_store_reopen() {
    const ITERS: usize = 8;
    let catalog = postgres_v9_6();
    let opts = CampaignOptions {
        session: SessionOptions { iterations: ITERS, n_init: 3, ..Default::default() },
        batch_size: 2,
        ..Default::default()
    };
    let cell = CellSpec::new("ycsb_a", AdapterKind::Identity, OptimizerKind::Random, 1);
    let run = |bad: [Option<f64>; 3]| {
        let backend: Arc<dyn StoreBackend> = Arc::new(ObjectStoreBackend::default());
        let store_opts = StoreOptions { segment_records: 4 };
        let store = TrialStore::open_backend(backend.clone(), store_opts.clone()).unwrap();
        // `FnExecutor` evaluates in iteration order, so the call count
        // is the iteration: score by it, except at the scripted three.
        let mut iteration = 0;
        let mut executor = FnExecutor(|_: &Config| {
            let scripted = [2, 5, ITERS].iter().position(|&i| i == iteration).map(|k| bad[k]);
            let score = scripted.unwrap_or(Some(100.0 + iteration as f64));
            iteration += 1;
            EvalResult { score, metrics: vec![iteration as f64], ..Default::default() }
        });
        let result = SessionDriver::new(&catalog, &opts, cell.clone())
            .with_store(&store)
            .run_with_executor(&mut executor)
            .unwrap();
        drop(store);
        let reopened = TrialStore::open_backend(backend, store_opts).unwrap();
        assert_eq!(reopened.trials_for(&cell.label).len(), ITERS + 1, "no record lost");
        (result.history, reopened.export_jsonl())
    };
    let (history, export) = run([Some(f64::NAN), Some(f64::INFINITY), Some(f64::NEG_INFINITY)]);
    let (crashed, crashed_export) = run([None, None, None]);
    assert_eq!(export, crashed_export);
    for i in [2, 5, ITERS] {
        assert_eq!(history.raw_scores[i], None);
        assert_eq!(history.statuses[i], TrialStatus::Crashed);
        assert_eq!(history.scores[i], 25.0, "a quarter of the default run's 100");
    }
    assert!(history.scores.iter().all(|s| s.is_finite()));
    assert_eq!(history.scores, crashed.scores);
}

fn chaos_campaign(seed: u64, workers: usize) -> Campaign {
    let run_opts =
        RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() };
    let spec = CampaignSpec {
        workloads: vec!["ycsb_b".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Random],
        seeds: vec![seed],
    };
    let opts = CampaignOptions {
        session: SessionOptions { iterations: 8, n_init: 3, ..Default::default() },
        batch_size: 3,
        trial_workers: workers,
        session_parallelism: 1,
        run_options: Some(run_opts),
        fault_plan: Some(FaultPlan::chaos(seed ^ 0xC4405)),
        policy: ExecutionPolicy::hardened(),
        ..Default::default()
    };
    Campaign::new(postgres_v9_6(), spec, opts)
}

/// The store's raw record stream, in manifest order, active segment
/// last (same helper as the checkpoint_resume suite).
fn record_stream(dir: &std::path::Path) -> String {
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    let sealed: Vec<&str> = manifest.lines().skip(1).filter(|l| !l.trim().is_empty()).collect();
    let mut out = String::new();
    for name in &sealed {
        out.push_str(&std::fs::read_to_string(dir.join(name)).unwrap());
    }
    let active = dir.join(format!("seg-{:06}.jsonl", sealed.len() + 1));
    if active.exists() {
        out.push_str(&std::fs::read_to_string(active).unwrap());
    }
    out
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("llamatune_fault_tolerance")
        .join(format!("{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_mid_chaos_campaign_resumes_byte_identically() {
    silence_injected_panics();
    for seed in [6u64, 9] {
        let campaign = chaos_campaign(seed, 2);

        // Ground truth: the chaos campaign, uninterrupted.
        let truth_dir = tmp_dir(&format!("truth_{seed}"));
        let truth_store = TrialStore::open(&truth_dir).unwrap();
        let truth = campaign.resume(&truth_store).unwrap();
        let truth_export = truth_store.export_jsonl();
        let failures = truth[0].history.statuses.iter().filter(|s| s.is_failure()).count();
        assert!(failures > 0, "seed {seed}: chaos plan must actually fault some trials");
        assert!(
            truth_export.contains("\"status\""),
            "failure statuses must be persisted in the export"
        );

        // Kill after K whole records — including cuts that land right
        // after a faulted trial — and resume from the wreckage.
        let stream = record_stream(&truth_dir);
        let lines: Vec<&str> = stream.lines().collect();
        for cut in [2usize, 5, 8, lines.len() - 1] {
            let prefix: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
            let dir = tmp_dir(&format!("cut_{seed}_{cut}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("MANIFEST"), "llamatune-store v1\n").unwrap();
            std::fs::write(dir.join("seg-000001.jsonl"), prefix).unwrap();
            let store = TrialStore::open(&dir).unwrap();
            let resumed = campaign.resume(&store).unwrap();
            assert_eq!(
                store.export_jsonl(),
                truth_export,
                "seed {seed}: resume from cut {cut} must reproduce the chaos history"
            );
            assert_eq!(resumed[0].history.statuses, truth[0].history.statuses);
            assert_eq!(resumed[0].history.attempts, truth[0].history.attempts);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&truth_dir).unwrap();
    }
}

/// The CI chaos-matrix entry point: seed, worker count, and the
/// store-fault leg come from the environment (`CHAOS_SEED`,
/// `CHAOS_WORKERS`, `CHAOS_STORE_FAULTS=1`), so one test binary covers
/// the whole matrix. Locally (no env) it runs one representative case.
#[test]
fn chaos_matrix_case_from_env() {
    silence_injected_panics();
    let seed: u64 = std::env::var("CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(5);
    let workers: usize =
        std::env::var("CHAOS_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);
    let store_faults = std::env::var("CHAOS_STORE_FAULTS").is_ok_and(|v| v == "1");
    let campaign = chaos_campaign(seed, workers);

    // Truth on a clean backend.
    let clean: Arc<dyn StoreBackend> = Arc::new(ObjectStoreBackend::default());
    let truth_store = TrialStore::open_backend(clean.clone(), StoreOptions::default()).unwrap();
    let truth = campaign.resume(&truth_store).unwrap();
    let truth_export = truth_store.export_jsonl();
    assert_eq!(truth[0].history.scores.len(), 9);
    assert!(truth[0].history.scores.iter().all(|s| s.is_finite()));

    if store_faults {
        // Combined leg: runner faults AND a store that dies at a seeded
        // byte budget mid-campaign. The campaign errors out (never
        // panics), and resuming on the surviving backend converges to
        // the clean-run export.
        let inner: Arc<dyn StoreBackend> = Arc::new(ObjectStoreBackend::default());
        let budget = 2_000 + (seed % 7) * 900;
        let failing: Arc<dyn StoreBackend> =
            Arc::new(FailingBackend::new(inner.clone(), StoreFaultPlan::KillAtByte(budget)));
        if let Ok(store) = TrialStore::open_backend(failing, StoreOptions { segment_records: 4 }) {
            let _ = campaign.resume(&store); // dies at the byte budget
        }
        let survivor = TrialStore::open_backend(inner, StoreOptions::default()).unwrap();
        if std::env::var("CHAOS_DEBUG").is_ok() {
            eprintln!("=== survivor before resume ===\n{}", survivor.export_jsonl());
        }
        campaign.resume(&survivor).unwrap();
        assert_eq!(
            survivor.export_jsonl(),
            truth_export,
            "seed {seed}, budget {budget}: combined runner+store faults must resume to truth"
        );
    } else {
        // Runner-faults-only leg: a second identical run is bit-equal.
        let again: Arc<dyn StoreBackend> = Arc::new(ObjectStoreBackend::default());
        let store = TrialStore::open_backend(again, StoreOptions::default()).unwrap();
        campaign.resume(&store).unwrap();
        assert_eq!(store.export_jsonl(), truth_export, "seed {seed}: chaos run not deterministic");
    }
}
