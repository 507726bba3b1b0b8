//! Runs a small store-backed campaign with a live [`RecordingTracer`]
//! and leaves the telemetry on disk — the CI observability job's
//! driver, and a worked example of the tracing stack end to end.
//!
//! Usage: `traced_campaign <dir> [--workers N]`. The directory receives
//! the trial store (MANIFEST + seg-*.jsonl) plus telemetry pairs, each
//! named after the store writer that ran it: without `--workers` the
//! campaign resumes into `TrialStore::open(dir)`, the writer `local`,
//! and persists `telemetry-local.{trace.jsonl,metrics.json}`; with
//! `--workers N` (N ≥ 1) the campaign runs as an N-worker fleet and
//! persists one `telemetry-wK.*` pair per worker and nothing else —
//! `llamatune-report <dir>` merges them into the campaign view.
//! Every persisted pair is validated through the schema-checking
//! parsers before the process exits, so a zero exit status certifies
//! well-formed telemetry.

use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_engine::RunOptions;
use llamatune_obs::trace::{parse_trace_jsonl, RecordingTracer};
use llamatune_runtime::{AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::{LocalDirBackend, StoreOptions, TrialStore};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (dir, workers) = match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        [dir] => (dir.to_string(), None),
        [dir, "--workers", n] => match n.parse::<usize>() {
            Ok(n) if n >= 1 => (dir.to_string(), Some(n)),
            _ => {
                eprintln!("traced_campaign: --workers takes a positive integer");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!("usage: traced_campaign <dir> [--workers N]");
            return ExitCode::FAILURE;
        }
    };
    match run(&dir, workers) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("traced_campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(dir: &str, workers: Option<usize>) -> Result<(), String> {
    let tracer = Arc::new(RecordingTracer::new());
    let opts = CampaignOptions {
        session: SessionOptions { iterations: 8, n_init: 3, ..Default::default() },
        batch_size: 3,
        trial_workers: 2,
        session_parallelism: 2,
        run_options: Some(RunOptions {
            duration_s: 0.2,
            warmup_s: 0.05,
            max_txns: 20_000,
            ..Default::default()
        }),
        tracer: tracer.clone(),
        ..Default::default()
    };
    let spec = CampaignSpec {
        workloads: vec!["ycsb_b".to_string(), "ycsb_f".to_string()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![1],
    };
    let campaign = Campaign::new(postgres_v9_6(), spec, opts);

    let (results, tags) = match workers {
        // Fleet mode: N shared writers pull sessions from one queue;
        // each persists its own telemetry pair.
        Some(n) => {
            let backend: Arc<dyn llamatune_store::StoreBackend> = Arc::new(
                LocalDirBackend::create(dir).map_err(|e| format!("open store {dir}: {e}"))?,
            );
            let results = campaign
                .run_fleet(backend, n, StoreOptions::default())
                .map_err(|e| format!("campaign: {e}"))?;
            (results, (0..n).map(|w| format!("w{w}")).collect())
        }
        None => {
            let store = TrialStore::open(dir).map_err(|e| format!("open store {dir}: {e}"))?;
            let results = campaign.resume(&store).map_err(|e| format!("campaign: {e}"))?;
            (results, vec!["local".to_string()])
        }
    };

    // Re-read every persisted telemetry pair through the
    // schema-validating parser: the exit status certifies what is on
    // disk, not what was in memory. (A fleet worker that never won a
    // session still writes a pair — possibly with zero events.)
    let reader: Arc<dyn llamatune_store::StoreBackend> =
        Arc::new(LocalDirBackend::create(dir).map_err(|e| format!("reopen store {dir}: {e}"))?);
    let store = TrialStore::open_reader(reader, StoreOptions::default())
        .map_err(|e| format!("reopen store {dir}: {e}"))?;
    let mut total_events = 0usize;
    for tag in &tags {
        let trace = store
            .read_telemetry(&format!("{tag}.trace.jsonl"))
            .map_err(|e| format!("read trace {tag}: {e}"))?
            .ok_or_else(|| format!("telemetry-{tag}.trace.jsonl was not written"))?;
        let trace = String::from_utf8(trace).map_err(|e| format!("trace {tag} not UTF-8: {e}"))?;
        let events =
            parse_trace_jsonl(&trace).map_err(|e| format!("trace {tag} validation: {e}"))?;
        total_events += events.len();
        let metrics = store
            .read_telemetry(&format!("{tag}.metrics.json"))
            .map_err(|e| format!("read metrics {tag}: {e}"))?
            .ok_or_else(|| format!("telemetry-{tag}.metrics.json was not written"))?;
        let metrics =
            String::from_utf8(metrics).map_err(|e| format!("metrics {tag} not UTF-8: {e}"))?;
        llamatune_obs::MetricsSnapshot::from_json(&metrics)
            .map_err(|e| format!("metrics {tag} validation: {e}"))?;
    }

    println!(
        "traced {} sessions across {} telemetry pair(s): {} trace events, telemetry in {dir}",
        results.len(),
        tags.len(),
        total_events
    );
    Ok(())
}
