//! The tuning service's wire, layer by layer and end to end.
//!
//! **`wire` rows** — one per message kind of the protocol's hot and bulky
//! messages, encoded and decoded standalone (no socket) through the calls
//! the daemon and `llamatune_client::Client` make: the `suggest_batch`
//! request and its reply (four trials of the 90-knob default
//! configuration), the `report` request (four results of 27 metrics) and
//! its reply, a `create_session` request, and an `export_history` reply
//! carrying a 300-trial JSONL. `encode_us` / `decode_us` are the wall time
//! of **100 messages**, fastest of the samples taken (the machine's other
//! tenants only ever slow a sample down): one `suggest_reply` is a handful of
//! microseconds, and the gate's absolute slack (25 µs) would hide a 2×
//! regression of a figure that small.
//!
//! **`round_trip` rows** — a daemon on a loopback port over a local
//! directory store, `sessions` clients (a connection and a thread each)
//! running one `random`-optimizer session at batch 4 with a synthetic
//! score: the wall time of one round as the client sees it
//! (`suggest_batch` + `report`), median and 99th percentile over every
//! round of every session. Each row is the run with the lowest median of
//! three: with more threads than cores, which of them the scheduler runs
//! moves a whole run, and only ever upwards. The artifact holds the
//! median in microseconds, which the gate compares, and the 99th
//! percentile as a multiple of it, which it does not.
//!
//! Results are printed as a table and recorded in `BENCH_server.json` (at
//! the workspace root) — the baseline the CI bench-regression gate
//! (`bench_gate`) compares freshly generated artifacts against:
//!
//!     cargo bench -p llamatune-bench --bench server_wire
//!
//! `LLAMATUNE_QUICK=1` shrinks repeats and rounds to smoke-test scale;
//! such a run prints its tables and records nothing.

use llamatune::history_io::{events_to_jsonl, TrialEvent};
use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::{EvalResult, TrialStatus};
use llamatune_bench::artifact::{self, num, round, Artifact, Field::*, Row};
use llamatune_client::Client;
use llamatune_obs::json;
use llamatune_runtime::{AdapterKind, CampaignOptions};
use llamatune_server::wire::{
    self, encode_ok, CreateSession, Report, Request, Response, SuggestReply, WireResult,
};
use llamatune_server::{Server, ServerConfig, SessionRegistry};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::KnobValue;
use llamatune_store::{LocalDirBackend, StoreBackend, StoreOptions};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SESSION: &str = "ycsb_a/llamatune/random/s1";
/// Messages per timed sample of a `wire` row.
const MESSAGES: usize = 100;
const BATCH: usize = 4;
const METRICS: usize = 27;

// -- Where the envelope hands over to the payload. What passes between
// -- them is the one thing this bench cannot spell the same way on either
// -- side of the commit that made it source text: to time the commit
// -- before, these six functions are re-spelled for a `JsonValue` (and
// -- nothing else in the file changes).

/// The daemon reading which session a `suggest_batch` names.
fn session_of(req: &Request<'_>) -> String {
    wire::string_member(req.params, "session").expect("round-trips").into_owned()
}

/// The client reading a `suggest_batch` reply.
fn suggested(frame: &str) -> SuggestReply {
    let body = Response::decode(frame).expect("round-trips").result.expect("ok reply");
    SuggestReply::decode(body).expect("round-trips")
}

/// The daemon reading the params of a `report` …
fn reported(req: &Request<'_>) -> Report {
    Report::decode(req.params).expect("round-trips")
}

/// … and of a `create_session`.
fn created(req: &Request<'_>) -> CreateSession {
    CreateSession::decode(req.params).expect("round-trips")
}

/// The daemon framing an `export_history` reply (inline in `daemon.rs`).
fn export_reply(id: u64, jsonl: &str) -> String {
    let mut out = String::new();
    wire::begin_ok(&mut out, id);
    out.push_str("{\"jsonl\":\"");
    json::write_escaped(&mut out, jsonl);
    out.push_str("\"}}");
    out
}

/// The client taking the JSONL out of it (inline in `client/src/lib.rs`).
fn export_jsonl(frame: &str) -> String {
    let body = Response::decode(frame).expect("round-trips").result.expect("ok reply");
    wire::string_member(body, "jsonl").expect("round-trips").into_owned()
}

// -- End of the hand-over.

/// What an evaluation hands back: a score and the engine's metrics, with
/// the digits real measurements have.
fn result(iteration: usize) -> EvalResult {
    let x = 1.0 + iteration as f64;
    EvalResult {
        score: Some(12_345.678_9 * x / 7.0),
        metrics: (0..METRICS).map(|m| (m as f64 + 0.123_456_789) * x / 3.0).collect(),
        status: TrialStatus::Ok,
        attempts: 1,
        virtual_ms: 5_000.25,
    }
}

/// Microseconds of the fastest of `reps` samples of `MESSAGES` calls of
/// `f`: the codec is deterministic, so the samples differ only by what
/// else the machine was doing, and that only ever slows one down.
fn per_100_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let sample = |_| {
        let t = Instant::now();
        for _ in 0..MESSAGES {
            black_box(f());
        }
        t.elapsed().as_secs_f64() * 1e6
    };
    (0..reps).map(sample).fold(f64::INFINITY, f64::min)
}

/// One `wire` row: `encode` renders the frame body, `decode` reads it
/// back the way its receiver does.
fn wire_row<T>(
    message: &'static str,
    reps: usize,
    encode: impl Fn() -> String,
    decode: impl Fn(&str) -> T,
) -> Row<'static> {
    let frame = encode();
    vec![
        ("message", Text(message)),
        ("bytes", Num(frame.len() as f64)),
        ("encode_us", Num(round(per_100_us(reps, &encode), 1))),
        ("decode_us", Num(round(per_100_us(reps, || decode(black_box(&frame))), 1))),
    ]
}

fn wire_rows(reps: usize) -> Vec<Row<'static>> {
    let default = postgres_v9_6().default_config();
    let trials: Vec<(usize, Vec<KnobValue>)> =
        (11..11 + BATCH).map(|iteration| (iteration, default.values().to_vec())).collect();
    let report = Report {
        session: SESSION.to_string(),
        round: 11,
        results: (11..11 + BATCH).map(|i| WireResult::from_eval(&result(i))).collect(),
    };
    let session_params = format!("{{\"session\":\"{SESSION}\"}}");
    let create = CreateSession {
        workload: "ycsb_a".to_string(),
        adapter: AdapterKind::LlamaTune(LlamaTuneConfig::default()),
        optimizer: "random".to_string(),
        seed: 1,
        iterations: 300,
        n_init: 10,
        batch_size: BATCH,
    };
    let events: Vec<TrialEvent> = (0..300)
        .map(|i| TrialEvent {
            session: SESSION.to_string(),
            iteration: i,
            raw_score: result(i).score,
            score: result(i).score.expect("scored"),
            point: (0..16).map(|d| ((i * 31 + d) % 9973) as f64 / 9973.0).collect(),
            status: TrialStatus::Ok,
            attempts: 1,
        })
        .collect();
    let jsonl = events_to_jsonl(&events);

    vec![
        wire_row(
            "suggest_request",
            reps,
            || Request::encode(7, "suggest_batch", &session_params),
            |frame| session_of(&Request::decode(frame).expect("round-trips")),
        ),
        wire_row(
            "suggest_reply",
            reps,
            || encode_ok(7, &SuggestReply::from_trials(11, &trials).encode()),
            |frame| {
                let SuggestReply::Round { trials, .. } = suggested(frame) else {
                    panic!("a round was encoded");
                };
                trials.iter().map(|t| t.to_config().expect("valid tokens")).collect::<Vec<_>>()
            },
        ),
        wire_row(
            "report_request",
            reps,
            || Request::encode(8, "report", &report.encode()),
            |frame| {
                let report = reported(&Request::decode(frame).expect("round-trips"));
                report.results.iter().map(WireResult::to_eval).collect::<Vec<_>>()
            },
        ),
        wire_row(
            "report_reply",
            reps,
            || encode_ok(8, "{}"),
            |frame| Response::decode(frame).expect("round-trips").id,
        ),
        wire_row(
            "create_session",
            reps,
            || Request::encode(1, "create_session", &create.encode()),
            |frame| created(&Request::decode(frame).expect("round-trips")).seed,
        ),
        wire_row("export_history", reps.div_ceil(4), || export_reply(9, &jsonl), export_jsonl),
    ]
}

/// One client's session: every round timed from the `suggest_batch` call
/// to the `report` answer, evaluation excluded.
fn client_rounds(addr: &str, seed: u64, iterations: usize) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("loopback connects");
    let create = CreateSession {
        workload: "ycsb_a".to_string(),
        adapter: AdapterKind::LlamaTune(LlamaTuneConfig::default()),
        optimizer: "random".to_string(),
        seed,
        iterations,
        n_init: 10,
        batch_size: BATCH,
    };
    let session = client.create_session(&create).expect("attaches").session;
    let mut rounds = Vec::new();
    loop {
        let asked = Instant::now();
        let reply = client.suggest_batch(&session).expect("suggests");
        let suggested = asked.elapsed();
        let SuggestReply::Round { round, trials } = reply else { break };
        let results = trials
            .iter()
            .map(|t| {
                black_box(t.to_config().expect("valid tokens"));
                WireResult::from_eval(&result(t.iteration))
            })
            .collect();
        let report = Report { session: session.clone(), round, results };
        let reporting = Instant::now();
        client.report(&report).expect("reports");
        rounds.push((suggested + reporting.elapsed()).as_secs_f64() * 1e6);
    }
    assert!(client.export_history(&session).expect("exports").lines().count() >= iterations);
    rounds
}

fn round_trip_row(sessions: usize, iterations: usize) -> Row<'static> {
    let dir = std::env::temp_dir()
        .join("llamatune_server_bench")
        .join(format!("s{sessions}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend: Arc<dyn StoreBackend> = Arc::new(LocalDirBackend::create(&dir).unwrap());
    let registry = Arc::new(SessionRegistry::new(
        backend,
        postgres_v9_6(),
        CampaignOptions::default(),
        StoreOptions::default(),
    ));
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let handle = server.handle().unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let daemon = std::thread::spawn(move || server.serve().unwrap());

    let mut rounds: Vec<f64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..sessions)
            .map(|s| {
                let addr = addr.as_str();
                scope.spawn(move || client_rounds(addr, 1 + s as u64, iterations))
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect()
    });
    handle.shutdown();
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);

    rounds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let at = |q: f64| rounds[((rounds.len() - 1) as f64 * q).round() as usize];
    vec![
        ("sessions", Num(sessions as f64)),
        ("rounds", Num(rounds.len() as f64)),
        ("round_p50_us", Num(round(at(0.5), 1))),
        // As a multiple of the median, which the gate does not read: a
        // tail on a shared runner is mostly its neighbours'.
        ("round_p99_over_p50", Num(round(at(0.99) / at(0.5), 2))),
    ]
}

fn main() {
    let quick = artifact::quick();
    let reps = if quick { 3 } else { 41 };
    // Iterations per session, so that each row times about two thousand
    // rounds (iteration 0 is a round of its own).
    let (solo, ten) = if quick { (81, 41) } else { (8001, 801) };

    let detail = format!(
        "wire: fastest of {reps} samples of {MESSAGES} messages; round trips: batch {BATCH}, \
             random optimizer, synthetic scores, local directory store; available_parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    print!(
        "{}",
        llamatune_obs::fmt::header("Tuning service: wire codec and loopback round trips", &detail)
    );
    let mut artifact = Artifact::new(vec![
        ("quick", Flag(quick)),
        ("reps", Num(reps as f64)),
        ("messages", Num(MESSAGES as f64)),
        ("batch", Num(BATCH as f64)),
    ]);
    artifact.show("wire", "encode / decode of 100 messages", wire_rows(reps));
    let best_of_3 = |sessions, iterations| {
        let runs = (0..3).map(|_| round_trip_row(sessions, iterations));
        runs.min_by(|a, b| num(a, "round_p50_us").total_cmp(&num(b, "round_p50_us")))
            .expect("three runs")
    };
    let trips = vec![best_of_3(1, solo), best_of_3(10, ten)];
    artifact.show("round_trip", "suggest_batch + report as the client sees it", trips);
    artifact.record("BENCH_server.json");
}
