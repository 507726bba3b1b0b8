//! The acceptance contract of tuning-as-a-service: a session served
//! over the wire exports a history byte-identical to the same cell run
//! in-process through [`SessionDriver`], and a client killed mid-session
//! (or a daemon restarted mid-session) resumes without re-evaluating a
//! single completed trial.

use llamatune::history_io::{events_to_jsonl, history_to_events};
use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::{Trial, TrialExecutor};
use llamatune_client::{run_remote_session, Client, RemoteSessionOptions};
use llamatune_engine::RunOptions;
use llamatune_runtime::{
    AdapterKind, CampaignOptions, CellSpec, OptimizerKind, SessionDriver, WorkloadExecutor,
};
use llamatune_server::wire::{CreateSession, Report, SuggestReply, WireResult};
use llamatune_server::{Server, ServerConfig, ServerHandle, SessionRegistry};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::ConfigSpace;
use llamatune_store::{ObjectStoreBackend, StoreBackend, StoreOptions, TrialStore};
use llamatune_workloads::{workload_by_name, TrialRunner, WorkloadRunner};
use std::sync::Arc;
use std::time::Duration;

const ITERATIONS: usize = 8;
const N_INIT: usize = 3;
const BATCH: usize = 3;
const TOTAL_TRIALS: usize = ITERATIONS + 1; // + the iteration-0 default

fn run_opts() -> RunOptions {
    RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() }
}

fn quick_opts() -> CampaignOptions {
    CampaignOptions {
        session: llamatune::session::SessionOptions {
            iterations: ITERATIONS,
            n_init: N_INIT,
            ..Default::default()
        },
        batch_size: BATCH,
        trial_workers: 2,
        run_options: Some(run_opts()),
        ..Default::default()
    }
}

fn spec(seed: u64) -> CreateSession {
    CreateSession {
        workload: "ycsb_b".to_string(),
        adapter: AdapterKind::LlamaTune(LlamaTuneConfig::default()),
        optimizer: "smac".to_string(),
        seed,
        iterations: ITERATIONS,
        n_init: N_INIT,
        batch_size: BATCH,
    }
}

fn client_opts() -> RemoteSessionOptions {
    RemoteSessionOptions { trial_workers: 2, run_options: Some(run_opts()), ..Default::default() }
}

/// The reference: the same cell driven in-process by [`SessionDriver`],
/// rendered through the identical event path.
fn in_process_jsonl(catalog: &ConfigSpace, seed: u64) -> String {
    let opts = quick_opts();
    let cell = CellSpec::new(
        "ycsb_b",
        AdapterKind::LlamaTune(LlamaTuneConfig::default()),
        OptimizerKind::Smac,
        seed,
    );
    let result = SessionDriver::new(catalog, &opts, cell).run().unwrap();
    events_to_jsonl(&history_to_events(&result.label, &result.history))
}

fn start_daemon(
    backend: Arc<dyn StoreBackend>,
) -> (ServerHandle, std::thread::JoinHandle<()>, String) {
    let registry = Arc::new(SessionRegistry::new(
        backend,
        postgres_v9_6(),
        quick_opts(),
        StoreOptions::default(),
    ));
    let cfg = ServerConfig { suggest_timeout: Duration::from_secs(30), ..Default::default() };
    let server = Server::bind("127.0.0.1:0", registry, cfg).unwrap();
    let handle = server.handle().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let join = std::thread::spawn(move || server.serve().unwrap());
    (handle, join, addr)
}

#[test]
fn served_session_exports_byte_identical_history() {
    let catalog = postgres_v9_6();
    let expected = in_process_jsonl(&catalog, 7);

    let (handle, join, addr) = start_daemon(Arc::new(ObjectStoreBackend::default()));
    let outcome = run_remote_session(&addr, &catalog, &spec(7), &client_opts()).unwrap();
    assert_eq!(outcome.trials_evaluated, TOTAL_TRIALS);
    assert!(outcome.rounds_evaluated >= 3, "default round + batched rounds");
    assert_eq!(outcome.jsonl, expected, "wire round trip must be byte-identical");

    // Re-attaching to the finished session re-evaluates nothing and
    // exports the same bytes.
    let again = run_remote_session(&addr, &catalog, &spec(7), &client_opts()).unwrap();
    assert_eq!(again.trials_evaluated, 0, "attach to a finished session runs nothing");
    assert_eq!(again.jsonl, expected);

    handle.shutdown();
    join.join().unwrap();
}

/// A hand-rolled client evaluating exactly like the library loop does,
/// so tests can stop ("kill") it between arbitrary rounds.
fn evaluate_rounds(
    client: &mut Client,
    catalog: &ConfigSpace,
    session: &str,
    seed: u64,
    rounds: usize,
) -> usize {
    evaluate_rounds_with(client, catalog, session, seed, rounds, |_| {})
}

/// [`evaluate_rounds`] with a hook that may rewrite a round's results
/// before they are reported.
fn evaluate_rounds_with(
    client: &mut Client,
    catalog: &ConfigSpace,
    session: &str,
    seed: u64,
    rounds: usize,
    tamper: impl Fn(&mut Vec<WireResult>),
) -> usize {
    let runner: Arc<dyn TrialRunner> = Arc::new(
        WorkloadRunner::new(workload_by_name("ycsb_b").unwrap(), catalog.clone())
            .with_options(run_opts()),
    );
    let mut executor =
        WorkloadExecutor::from_trial_runner(runner, catalog.clone(), seed ^ 0x5EED, 2);
    let mut evaluated = 0;
    for _ in 0..rounds {
        match client.suggest_batch(session).unwrap() {
            SuggestReply::Done => panic!("session finished before the kill point"),
            SuggestReply::Round { round, trials } => {
                let batch: Vec<Trial> = trials
                    .iter()
                    .map(|t| Trial { iteration: t.iteration, config: t.to_config().unwrap() })
                    .collect();
                let mut results: Vec<WireResult> =
                    executor.run_batch(&batch).iter().map(WireResult::from_eval).collect();
                evaluated += results.len();
                tamper(&mut results);
                client.report(&Report { session: session.to_string(), round, results }).unwrap();
            }
        }
    }
    evaluated
}

#[test]
fn killed_client_resumes_without_reevaluating() {
    let catalog = postgres_v9_6();
    let expected = in_process_jsonl(&catalog, 11);
    let (handle, join, addr) = start_daemon(Arc::new(ObjectStoreBackend::default()));

    // Client A: attach, evaluate two rounds, then die without a word.
    let evaluated_by_a;
    {
        let mut a = Client::connect(&addr).unwrap();
        let attached = a.create_session(&spec(11)).unwrap();
        assert!(!attached.done);
        evaluated_by_a = evaluate_rounds(&mut a, &catalog, &attached.session, 11, 2);
        // dropped here: the TCP connection dies mid-session
    }
    assert!(evaluated_by_a > 0 && evaluated_by_a < TOTAL_TRIALS);

    // Client B: re-attach and finish. Every trial A reported is already
    // recorded server-side; B must evaluate exactly the remainder.
    let outcome = run_remote_session(&addr, &catalog, &spec(11), &client_opts()).unwrap();
    assert_eq!(
        outcome.trials_evaluated,
        TOTAL_TRIALS - evaluated_by_a,
        "resume must not re-evaluate completed trials"
    );
    assert_eq!(outcome.jsonl, expected, "kill + resume must stay byte-identical");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn daemon_restart_resumes_from_the_store() {
    let catalog = postgres_v9_6();
    let expected = in_process_jsonl(&catalog, 23);
    let backend: Arc<dyn StoreBackend> = Arc::new(ObjectStoreBackend::default());

    // Daemon 1: evaluate two rounds, kill the client, stop the daemon
    // mid-session. Nothing unreported is recorded; the session stays
    // Running in the store.
    let evaluated_first;
    {
        let (handle, join, addr) = start_daemon(backend.clone());
        let mut a = Client::connect(&addr).unwrap();
        let attached = a.create_session(&spec(23)).unwrap();
        evaluated_first = evaluate_rounds(&mut a, &catalog, &attached.session, 23, 2);
        drop(a);
        handle.shutdown();
        join.join().unwrap();
    }

    // Daemon 2, same backend: the session resumes from its recorded
    // round boundary and completes byte-identically.
    let (handle, join, addr) = start_daemon(backend.clone());
    let outcome = run_remote_session(&addr, &catalog, &spec(23), &client_opts()).unwrap();
    assert_eq!(outcome.trials_evaluated, TOTAL_TRIALS - evaluated_first);
    assert_eq!(outcome.jsonl, expected, "daemon restart must stay byte-identical");
    assert_eq!(
        active_lines(&*backend),
        ["active seg-svc-000001.jsonl"],
        "the reborn daemon adopted the segment its predecessor registered"
    );

    handle.shutdown();
    join.join().unwrap();
}

/// The manifest's `active` lines: one per registered writer.
fn active_lines(backend: &dyn StoreBackend) -> Vec<String> {
    let manifest = String::from_utf8(backend.read_manifest().unwrap().0.unwrap()).unwrap();
    manifest.lines().filter(|l| l.starts_with("active ")).map(str::to_string).collect()
}

/// Daemons before the single store handle registered one fleet writer
/// per session thread (`svc0`, `svc1`, …) and never unregistered them.
/// A store they left behind is served as it is: their segments are
/// other writers' segments, replayed when the daemon's handle opens.
#[test]
fn a_store_left_by_per_session_writers_is_served() {
    let catalog = postgres_v9_6();
    let backend: Arc<dyn StoreBackend> = Arc::new(ObjectStoreBackend::default());
    let opts = quick_opts();
    for (writer, seed) in [("svc0", 41), ("svc1", 43)] {
        let store =
            TrialStore::open_shared(backend.clone(), writer, StoreOptions::default()).unwrap();
        let cell = CellSpec::new("ycsb_b", spec(seed).adapter, OptimizerKind::Smac, seed);
        SessionDriver::new(&catalog, &opts, cell).with_store(&store).run().unwrap();
    }

    let (handle, join, addr) = start_daemon(backend.clone());
    for seed in [41, 43] {
        let mut client = Client::connect(&addr).unwrap();
        assert!(client.create_session(&spec(seed)).unwrap().done, "finished before this daemon");
        let outcome = run_remote_session(&addr, &catalog, &spec(seed), &client_opts()).unwrap();
        assert_eq!(outcome.trials_evaluated, 0);
        assert_eq!(outcome.jsonl, in_process_jsonl(&catalog, seed), "their bytes, unchanged");
    }
    assert_eq!(active_lines(&*backend).len(), 3, "svc0 and svc1 stay listed beside svc");

    handle.shutdown();
    join.join().unwrap();
}

/// An evaluator that returns one metric the DBMS could not produce (NaN)
/// must still be able to complete its round: the store has accepted such
/// records since PR 16, and `report` used to refuse them (`bad metric`),
/// leaving the remote client stuck on that round for good.
#[test]
fn a_non_finite_metric_is_reported_and_recorded() {
    let catalog = postgres_v9_6();
    let backend: Arc<dyn StoreBackend> = Arc::new(ObjectStoreBackend::default());
    let (handle, join, addr) = start_daemon(backend.clone());
    let mut client = Client::connect(&addr).unwrap();
    let session = client.create_session(&spec(31)).unwrap().session;

    // Round 0 is the default configuration alone; poison one metric of it.
    let evaluated = evaluate_rounds_with(&mut client, &catalog, &session, 31, 1, |results| {
        results[0].0.metrics[2] = f64::NAN;
    });
    assert_eq!(evaluated, 1);
    // The next round is only handed out once the reported one is recorded.
    assert!(matches!(client.suggest_batch(&session).unwrap(), SuggestReply::Round { .. }));

    let store = TrialStore::open_reader(backend, StoreOptions::default()).unwrap();
    let recorded = store.trials_for(&session);
    assert_eq!(recorded.len(), 1, "the reported trial is in the store");
    assert!(recorded[0].metrics[2].is_nan(), "{:?}", recorded[0].metrics);
    assert!(recorded[0].metrics[3].is_finite());

    drop(client);
    handle.shutdown();
    join.join().unwrap();
}
