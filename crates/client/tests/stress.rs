//! Many-clients stress: one daemon, 100 concurrent sessions, a third of
//! the clients killed mid-session and reconnected — every exported
//! history must come out byte-identical to the same cell run
//! in-process.

use llamatune::history_io::{events_to_jsonl, history_to_events};
use llamatune::session::SessionOptions;
use llamatune_client::{run_remote_session, Client, RemoteSessionOptions};
use llamatune_engine::RunOptions;
use llamatune_runtime::{AdapterKind, CampaignOptions, CellSpec, OptimizerKind, SessionDriver};
use llamatune_server::wire::CreateSession;
use llamatune_server::{Server, ServerConfig, SessionRegistry};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::ConfigSpace;
use llamatune_store::{ObjectStoreBackend, StoreOptions};
use std::sync::Arc;
use std::time::Duration;

const SESSIONS: usize = 100;
const ITERATIONS: usize = 4;
const N_INIT: usize = 2;
const BATCH: usize = 2;
const WORKLOADS: [&str; 4] = ["ycsb_a", "ycsb_b", "ycsb_f", "twitter"];

fn run_opts() -> RunOptions {
    RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() }
}

fn quick_opts() -> CampaignOptions {
    CampaignOptions {
        session: SessionOptions { iterations: ITERATIONS, n_init: N_INIT, ..Default::default() },
        batch_size: BATCH,
        trial_workers: 1,
        run_options: Some(run_opts()),
        ..Default::default()
    }
}

fn spec(i: usize) -> CreateSession {
    CreateSession {
        workload: WORKLOADS[i % WORKLOADS.len()].to_string(),
        adapter: AdapterKind::Identity,
        optimizer: "random".to_string(),
        seed: i as u64,
        iterations: ITERATIONS,
        n_init: N_INIT,
        batch_size: BATCH,
    }
}

fn in_process_jsonl(catalog: &ConfigSpace, i: usize) -> String {
    let opts = quick_opts();
    let cell = CellSpec::new(
        WORKLOADS[i % WORKLOADS.len()],
        AdapterKind::Identity,
        OptimizerKind::Random,
        i as u64,
    );
    let result = SessionDriver::new(catalog, &opts, cell).run().unwrap();
    events_to_jsonl(&history_to_events(&result.label, &result.history))
}

#[test]
fn hundred_concurrent_sessions_with_kills_stay_byte_identical() {
    let catalog = postgres_v9_6();
    let backend = Arc::new(ObjectStoreBackend::default());
    let registry = Arc::new(SessionRegistry::new(
        backend,
        postgres_v9_6(),
        quick_opts(),
        StoreOptions::default(),
    ));
    // Generous suggest window: 100 session threads append through the
    // daemon's one store handle.
    let cfg = ServerConfig { suggest_timeout: Duration::from_secs(120), ..Default::default() };
    let server = Server::bind("127.0.0.1:0", registry.clone(), cfg).unwrap();
    let handle = server.handle().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let serve = std::thread::spawn(move || server.serve().unwrap());

    let client_opts = RemoteSessionOptions {
        trial_workers: 1,
        run_options: Some(run_opts()),
        reconnect_attempts: 10,
        ..Default::default()
    };

    let mut clients = Vec::new();
    for i in 0..SESSIONS {
        let addr = addr.clone();
        let catalog = catalog.clone();
        let client_opts = client_opts.clone();
        clients.push(std::thread::spawn(move || {
            let spec = spec(i);
            // A deterministic third of the clients "die" mid-session:
            // attach, pull the first round, and hang up without
            // reporting — then a fresh client resumes the session.
            if i % 3 == 0 {
                let mut doomed = Client::connect(&addr).unwrap();
                let attached = doomed.create_session(&spec).unwrap();
                let _ = doomed.suggest_batch(&attached.session).unwrap();
                drop(doomed); // killed holding an unreported round
            }
            let outcome = run_remote_session(&addr, &catalog, &spec, &client_opts).unwrap();
            (i, outcome)
        }));
    }

    let mut outcomes: Vec<(usize, llamatune_client::RemoteOutcome)> =
        clients.into_iter().map(|c| c.join().unwrap()).collect();
    outcomes.sort_by_key(|(i, _)| *i);

    assert_eq!(registry.session_count(), SESSIONS);
    for (i, outcome) in &outcomes {
        assert_eq!(
            outcome.trials_evaluated,
            ITERATIONS + 1,
            "session {i}: every trial evaluated exactly once, kills included"
        );
        let expected = in_process_jsonl(&catalog, *i);
        assert_eq!(
            outcome.jsonl, expected,
            "session {i}: served export must be byte-identical to in-process"
        );
    }

    handle.shutdown();
    serve.join().unwrap();
}
