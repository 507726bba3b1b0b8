//! The observability stack's out-of-band contract, pinned end to end:
//! tracing never perturbs what a campaign records or persists, traces
//! themselves are deterministic across worker counts, and the session
//! report is reproducible from the stored telemetry alone.

use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_engine::RunOptions;
use llamatune_obs::trace::{events_to_jsonl, parse_trace_jsonl, RecordingTracer, Tracer};
use llamatune_obs::{
    build_report, prometheus_text, MemoryProgressSink, MetricsRegistry, MetricsSnapshot,
    TelemetrySet,
};
use llamatune_runtime::{
    AdapterKind, Campaign, CampaignOptions, CampaignResult, CampaignSpec, OptimizerKind,
};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_store::{LocalDirBackend, StoreBackend, StoreOptions, TrialStore};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

fn quick_run_options() -> RunOptions {
    RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() }
}

fn spec() -> CampaignSpec {
    CampaignSpec {
        workloads: vec!["ycsb_b".into(), "ycsb_f".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![1],
    }
}

fn opts(trial_workers: usize, tracer: Option<Arc<RecordingTracer>>) -> CampaignOptions {
    let mut opts = CampaignOptions {
        session: SessionOptions { iterations: 8, n_init: 3, ..Default::default() },
        batch_size: 3,
        trial_workers,
        session_parallelism: 1,
        run_options: Some(quick_run_options()),
        ..Default::default()
    };
    if let Some(t) = tracer {
        opts.tracer = t;
    }
    opts
}

fn history_bits(results: &[CampaignResult]) -> Vec<(String, Vec<u64>, Vec<u64>)> {
    results
        .iter()
        .map(|r| {
            let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (r.label.clone(), bits(&r.history.scores), bits(&r.history.best_curve))
        })
        .collect()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("llamatune_obs_test")
        .join(format!("{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every store artifact that belongs to the checkpoint: the manifest
/// and the trial segments — telemetry objects excluded by name.
fn checkpoint_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if name == "MANIFEST" || name.starts_with("seg-") {
            out.insert(name, std::fs::read(entry.path()).unwrap());
        }
    }
    out
}

/// Tracing is strictly out-of-band: a traced campaign records
/// bit-identical histories to an untraced one, at every worker count.
#[test]
fn traced_and_untraced_histories_are_bit_identical() {
    let catalog = postgres_v9_6();
    for workers in [1usize, 4] {
        let untraced = Campaign::new(catalog.clone(), spec(), opts(workers, None)).run();
        let tracer = Arc::new(RecordingTracer::new());
        let traced =
            Campaign::new(catalog.clone(), spec(), opts(workers, Some(tracer.clone()))).run();
        assert_eq!(
            history_bits(&untraced),
            history_bits(&traced),
            "histories diverged under tracing at {workers} workers"
        );
        assert!(tracer.export_jsonl().is_some(), "tracer saw no events at {workers} workers");
    }
}

/// Store-backed campaigns persist byte-identical checkpoints traced vs
/// untraced; the traced store additionally carries telemetry objects
/// that never enter the manifest.
#[test]
fn tracing_never_changes_checkpoint_bytes() {
    let catalog = postgres_v9_6();

    let plain_dir = tmp_dir("untraced");
    let store = TrialStore::open(&plain_dir).unwrap();
    Campaign::new(catalog.clone(), spec(), opts(2, None)).resume(&store).unwrap();

    let traced_dir = tmp_dir("traced");
    let store = TrialStore::open(&traced_dir).unwrap();
    let tracer = Arc::new(RecordingTracer::new());
    Campaign::new(catalog, spec(), opts(2, Some(tracer))).resume(&store).unwrap();

    assert_eq!(
        checkpoint_bytes(&plain_dir),
        checkpoint_bytes(&traced_dir),
        "tracing perturbed the persisted checkpoint"
    );
    let telemetry = |dir: &Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("telemetry-"))
            .collect();
        names.sort();
        names
    };
    assert_eq!(telemetry(&plain_dir), Vec::<String>::new());
    assert_eq!(
        telemetry(&traced_dir),
        vec!["telemetry-local.metrics.json".to_string(), "telemetry-local.trace.jsonl".to_string()]
    );
}

/// Traces are a pure function of (seed, config): the exported JSONL is
/// byte-identical across worker counts, and round-trips through the
/// schema-validating parser.
#[test]
fn trace_export_is_worker_count_invariant_and_round_trips() {
    let catalog = postgres_v9_6();
    let export = |workers: usize| {
        let tracer = Arc::new(RecordingTracer::new());
        Campaign::new(catalog.clone(), spec(), opts(workers, Some(tracer.clone()))).run();
        tracer.export_jsonl().expect("traced campaign produced no events")
    };
    let reference = export(1);
    assert_eq!(reference, export(4), "trace bytes diverged across worker counts");

    let events = parse_trace_jsonl(&reference).unwrap();
    assert!(!events.is_empty());
    let rendered: String = events.iter().map(|e| format!("{}\n", e.to_json())).collect();
    assert_eq!(rendered, reference, "trace JSONL did not round-trip through the parser");
    for span in ["session.start", "round", "trial", "session.end"] {
        assert!(events.iter().any(|e| e.span == span), "no {span} span in the trace");
    }
}

/// `llamatune-report`'s input contract: the report built from the
/// *stored* telemetry alone reproduces the campaign's best-so-far
/// curves and fault totals.
#[test]
fn report_is_reproducible_from_stored_telemetry_alone() {
    let catalog = postgres_v9_6();
    let dir = tmp_dir("report");
    let store = TrialStore::open(&dir).unwrap();
    let tracer = Arc::new(RecordingTracer::new());
    let results = Campaign::new(catalog, spec(), opts(2, Some(tracer))).resume(&store).unwrap();

    let trace = store.read_telemetry("local.trace.jsonl").unwrap().unwrap();
    let events = parse_trace_jsonl(std::str::from_utf8(&trace).unwrap()).unwrap();
    let metrics = store.read_telemetry("local.metrics.json").unwrap().unwrap();
    let metrics = MetricsSnapshot::from_json(std::str::from_utf8(&metrics).unwrap()).unwrap();
    let report = build_report(&events, Some(metrics)).unwrap();

    assert_eq!(report.sessions.len(), results.len());
    for (s, r) in report.sessions.iter().zip(&results) {
        assert_eq!(s.session, r.label);
        assert_eq!(s.best_curve, r.history.best_curve, "{}: best curve diverged", r.label);
    }
    let totals = report.metrics.as_ref().unwrap();
    let expected: u64 = results.iter().map(|r| r.metrics.counter("policy.quarantine_hits")).sum();
    assert_eq!(totals.counter("policy.quarantine_hits"), expected);
    let expected: u64 = results.iter().map(|r| r.metrics.counter("policy.retries")).sum();
    assert_eq!(totals.counter("policy.retries"), expected);
}

/// Every metric has one owner, so two campaigns in one process do not
/// see each other: a GP-BO session's result carries its own `optim.gp.*`
/// (the same counts on a second run — fits and factorizations are
/// functions of the seeds), a random-search session's carries no
/// `optim.*` at all, and the second campaign's persisted
/// `telemetry-local.metrics.json` counts its own sessions only.
#[test]
fn optimizer_timings_belong_to_the_session_that_paid_for_them() {
    let catalog = postgres_v9_6();
    let spec = CampaignSpec {
        workloads: vec!["ycsb_b".into()],
        optimizers: vec![OptimizerKind::GpBo, OptimizerKind::Random],
        ..spec()
    };
    let run = |tag: &str| {
        let store = TrialStore::open(tmp_dir(tag)).unwrap();
        let tracer = Arc::new(RecordingTracer::new());
        let results = Campaign::new(catalog.clone(), spec.clone(), opts(2, Some(tracer)))
            .resume(&store)
            .unwrap();
        let stored = store.read_telemetry("local.metrics.json").unwrap().unwrap();
        (results, MetricsSnapshot::from_json(std::str::from_utf8(&stored).unwrap()).unwrap())
    };
    let (first, _) = run("owner_first");
    let (second, stored) = run("owner_second");
    for results in [&first, &second] {
        let [gp, random] = &results[..] else { panic!("two cells, got {}", results.len()) };
        assert_eq!((gp.optimizer.as_str(), random.optimizer.as_str()), ("gp_bo", "random"));
        let optim = |r: &CampaignResult| -> Vec<String> {
            let m = &r.metrics;
            m.counters
                .keys()
                .chain(m.hists.keys())
                .filter(|k| k.starts_with("optim."))
                .cloned()
                .collect()
        };
        assert!(optim(gp).iter().any(|k| k == "optim.gp.ei_score_ms"), "{:?}", optim(gp));
        assert_eq!(optim(random), Vec::<String>::new(), "random search times no optimizer");
    }
    let cholesky = |r: &CampaignResult| r.metrics.hists["optim.gp.cholesky_ms"].count();
    assert!(cholesky(&first[0]) > 0);
    assert_eq!(cholesky(&first[0]), cholesky(&second[0]), "a function of the seeds");
    assert_eq!(stored.hists["optim.gp.cholesky_ms"].count(), cholesky(&second[0]));
    let sessions = MetricsSnapshot::merged(second.iter().map(|r| &r.metrics));
    assert_eq!(
        stored.hists["session.suggest_ms"].count(),
        sessions.hists["session.suggest_ms"].count()
    );
}

fn run_traced_fleet(workers: usize, tag: &str) -> (std::path::PathBuf, Vec<CampaignResult>) {
    let dir = tmp_dir(tag);
    let backend: Arc<dyn StoreBackend> = Arc::new(LocalDirBackend::create(&dir).unwrap());
    let tracer = Arc::new(RecordingTracer::new());
    let results = Campaign::new(postgres_v9_6(), spec(), opts(2, Some(tracer)))
        .run_fleet(backend, workers, StoreOptions::default())
        .unwrap();
    (dir, results)
}

/// A traced fleet writes its telemetry once: exactly one pair per
/// writer, no campaign-wide pair, and what those pairs load to is the
/// sum of the sessions' own snapshots plus the store handles'
/// `store.cas_retries`, in every counter and every histogram count —
/// the optimizer's timings included.
#[test]
fn per_writer_telemetry_is_all_a_fleet_writes() {
    let (dir, results) = run_traced_fleet(2, "fleet_sum");
    let mut telemetry: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("telemetry-"))
        .collect();
    telemetry.sort();
    assert_eq!(
        telemetry,
        [
            "telemetry-w0.metrics.json",
            "telemetry-w0.trace.jsonl",
            "telemetry-w1.metrics.json",
            "telemetry-w1.trace.jsonl"
        ]
    );

    let loaded = TelemetrySet::load_dir(&dir).unwrap().merged_metrics();
    let mut expected = MetricsSnapshot::merged(results.iter().map(|r| &r.metrics));
    // Retries are counted on the handles, which only the written pairs
    // report; no session counts any.
    assert!(loaded.counters.contains_key("store.cas_retries"), "{:?}", loaded.counters);
    assert!(!expected.counters.contains_key("store.cas_retries"));
    expected.counters.insert("store.cas_retries".into(), loaded.counter("store.cas_retries"));
    let counts = |m: &MetricsSnapshot| -> BTreeMap<String, u64> {
        m.hists.iter().map(|(k, h)| (k.clone(), h.count())).collect()
    };
    assert_eq!(loaded.counters, expected.counters);
    assert_eq!(counts(&loaded), counts(&expected));
    assert!(loaded.hists["optim.smac.forest_fit_ms"].count() > 0);
}

/// A traced fleet persists one `telemetry-<tag>.*` pair per registered
/// writer, and the aggregate module's merged view of those pairs is
/// byte-identical at every worker count — and identical to the merged
/// view of a single-writer store of the same campaign.
#[test]
fn fleet_persists_per_writer_telemetry_and_merge_is_worker_count_invariant() {
    let catalog = postgres_v9_6();
    let (dir1, _) = run_traced_fleet(1, "fleet_w1");
    let (dir2, _) = run_traced_fleet(2, "fleet_w2");

    for (dir, workers) in [(&dir1, 1usize), (&dir2, 2)] {
        for w in 0..workers {
            for suffix in ["trace.jsonl", "metrics.json"] {
                let name = format!("telemetry-w{w}.{suffix}");
                assert!(dir.join(&name).exists(), "{workers}-worker fleet missing {name}");
            }
        }
    }

    let merged = |dir: &Path| {
        let set = TelemetrySet::load_dir(dir).unwrap();
        (events_to_jsonl(&set.merged_events()), set.merged_metrics())
    };
    let (trace1, metrics1) = merged(&dir1);
    let (trace2, metrics2) = merged(&dir2);
    assert!(!trace1.is_empty());
    assert_eq!(trace1, trace2, "merged fleet trace diverged across worker counts");
    assert_eq!(
        metrics1.counter("policy.retries"),
        metrics2.counter("policy.retries"),
        "merged fault counters diverged across worker counts"
    );

    // A single-writer store of the same campaign merges to the same
    // bytes: the fleet changes who records, never what is recorded.
    let single = tmp_dir("fleet_single");
    let store = TrialStore::open(&single).unwrap();
    let tracer = Arc::new(RecordingTracer::new());
    Campaign::new(catalog, spec(), opts(2, Some(tracer))).resume(&store).unwrap();
    let (trace_single, _) = merged(&single);
    assert_eq!(trace1, trace_single, "fleet merge diverged from the single-writer store");
}

/// The progress sink receives one update per completed round, and the
/// stream is deterministic: same values at every trial-worker count,
/// with cumulative counters and a monotone best-so-far.
#[test]
fn progress_stream_is_per_round_and_worker_count_invariant() {
    let catalog = postgres_v9_6();
    let run = |trial_workers: usize| {
        let sink = Arc::new(MemoryProgressSink::new());
        let mut o = opts(trial_workers, None);
        o.progress = Some(sink.clone());
        let results = Campaign::new(catalog.clone(), spec(), o).run();
        (sink.updates(), results)
    };
    let (updates, results) = run(1);
    let (updates4, _) = run(4);
    assert_eq!(updates, updates4, "progress updates diverged across trial-worker counts");

    for r in &results {
        let mine: Vec<_> = updates.iter().filter(|u| u.session == r.label).collect();
        assert!(!mine.is_empty(), "{}: no progress updates", r.label);
        assert_eq!(mine[0].iteration, 0, "{}: first update is the default round", r.label);
        assert_eq!(mine[0].phase, "default");
        let evaluated: u64 = mine.iter().map(|u| u.round_size).sum();
        assert_eq!(evaluated as usize, r.history.scores.len(), "{}: rounds ≠ trials", r.label);
        let mut best = f64::NEG_INFINITY;
        for u in &mine {
            assert!(u.best_so_far >= best, "{}: best-so-far regressed", r.label);
            best = u.best_so_far;
            assert!(u.regret >= 0.0);
            assert!(u.attempts >= u.round_size || u.iteration == 0);
        }
        let last = mine.last().unwrap();
        assert_eq!(last.best_so_far, *r.history.best_curve.last().unwrap());
    }
}

/// A campaign-wide live registry sees every session's writes as they
/// happen (via registry forwarding) and renders as a Prometheus scrape
/// body — while each session's own snapshot stays session-scoped.
#[test]
fn live_metrics_registry_aggregates_the_campaign_and_renders_prometheus() {
    let catalog = postgres_v9_6();
    let live = Arc::new(MetricsRegistry::new());
    let mut o = opts(2, None);
    o.live_metrics = Some(live.clone());
    let results = Campaign::new(catalog, spec(), o).run();

    let scraped = live.snapshot();
    for name in ["cache.misses", "policy.retries"] {
        let expected: u64 = results.iter().map(|r| r.metrics.counter(name)).sum();
        assert_eq!(scraped.counter(name), expected, "live {name} ≠ sum of session snapshots");
    }
    // Per-session snapshots stayed session-scoped: each strictly below
    // the campaign-wide total (two sessions both evaluate trials).
    let total = scraped.counter("cache.misses");
    assert!(total > 0);
    for r in &results {
        assert!(r.metrics.counter("cache.misses") < total, "{}: snapshot not scoped", r.label);
    }

    let body = prometheus_text(&live.snapshot(), "llamatune");
    assert!(body.contains("# TYPE llamatune_cache_misses_total counter\n"));
    assert!(body.contains(&format!("llamatune_cache_misses_total {total}\n")));
    assert!(body.contains("# TYPE llamatune_session_evaluate_ms histogram\n"));
}
