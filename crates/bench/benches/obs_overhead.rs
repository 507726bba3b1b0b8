//! Observability overhead: what the tracing seam costs a run that does
//! not trace, and what live recording costs a run that does.
//!
//! Two measurements:
//!
//! * **Span site** — one guarded instrumentation site (`enabled()`
//!   check through `Arc<dyn Tracer>`; build + record the event only
//!   when live) hammered in a tight loop. The [`NoopTracer`] row is the
//!   price every untraced hot path pays per site — one virtual call
//!   returning a constant, the event never built. The
//!   [`RecordingTracer`] row adds event construction and the locked
//!   append.
//! * **Campaign** — one small in-memory campaign, untraced vs traced:
//!   the end-to-end overhead, which the per-site numbers predict should
//!   be lost in evaluation noise.
//!
//! Results are printed and recorded in `BENCH_obs.json` (workspace
//! root) for the CI bench gate:
//!
//!     cargo bench -p llamatune-bench --bench obs_overhead
//!
//! `LLAMATUNE_QUICK=1` shrinks call counts and repetitions; such a run
//! prints its tables and records nothing.

use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_bench::artifact::{self, median, num, round, Artifact, Field::*, Row};
use llamatune_engine::RunOptions;
use llamatune_obs::trace::{NoopTracer, RecordingTracer, TraceEvent, Tracer};
use llamatune_runtime::{AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind};
use llamatune_space::catalog::postgres_v9_6;
use std::sync::Arc;
use std::time::Instant;

/// One instrumentation site, shaped exactly like the session loop's:
/// guard on `enabled()`, build the event only when someone listens.
#[inline(never)]
fn span_site(tracer: &Arc<dyn Tracer>, iteration: u64) {
    if tracer.enabled() {
        tracer.record(
            TraceEvent::new("bench", "trial").field("iteration", iteration).field("score", 1.0),
        );
    }
}

fn span_site_row(tracer_name: &'static str, n: usize, reps: usize) -> Row<'static> {
    let mut times = Vec::new();
    for _ in 0..reps {
        // A fresh recorder per rep: recording costs must include the
        // growing-vector reality, not an ever-warmer allocation.
        let tracer: Arc<dyn Tracer> = match tracer_name {
            "noop" => Arc::new(NoopTracer),
            _ => Arc::new(RecordingTracer::new()),
        };
        let t = Instant::now();
        for i in 0..n {
            span_site(&tracer, i as u64);
        }
        std::hint::black_box(&tracer);
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let total_us = median(times);
    vec![
        ("tracer", Text(tracer_name)),
        ("n", Num(n as f64)),
        ("total_us", Num(round(total_us, 2))),
        ("per_call_ns", Num(round(total_us * 1e3 / n as f64, 3))),
    ]
}

fn campaign_row(tracer_name: &'static str, reps: usize) -> Row<'static> {
    let catalog = postgres_v9_6();
    let spec = CampaignSpec {
        workloads: vec!["ycsb_b".into(), "ycsb_f".into()],
        adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
        optimizers: vec![OptimizerKind::Smac],
        seeds: vec![1],
    };
    let sessions = spec.workloads.len();
    let mut times = Vec::new();
    for _ in 0..reps {
        let tracer: Arc<dyn Tracer> = match tracer_name {
            "noop" => Arc::new(NoopTracer),
            _ => Arc::new(RecordingTracer::new()),
        };
        let opts = CampaignOptions {
            session: SessionOptions { iterations: 6, n_init: 2, ..Default::default() },
            batch_size: 2,
            trial_workers: 2,
            session_parallelism: 1,
            run_options: Some(RunOptions {
                duration_s: 0.02,
                warmup_s: 0.005,
                max_txns: 5_000,
                ..Default::default()
            }),
            tracer,
            ..Default::default()
        };
        let t = Instant::now();
        let results = Campaign::new(catalog.clone(), spec.clone(), opts).run();
        times.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(results.len(), sessions);
    }
    vec![
        ("tracer", Text(tracer_name)),
        ("sessions", Num(sessions as f64)),
        ("total_us", Num(round(median(times), 2))),
    ]
}

fn main() {
    let quick = artifact::quick();
    let (noop_n, rec_n, reps, campaign_reps): (usize, usize, usize, usize) =
        if quick { (100_000, 10_000, 3, 1) } else { (2_000_000, 200_000, 5, 3) };

    let detail = format!(
        "guarded span site (noop vs recording) and end-to-end campaign; \
             medians over {reps} reps"
    );
    print!("{}", llamatune_obs::fmt::header("Observability overhead", &detail));
    let mut artifact = Artifact::new(vec![("quick", Flag(quick)), ("reps", Num(reps as f64))]);

    let span_rows =
        vec![span_site_row("noop", noop_n, reps), span_site_row("recording", rec_n, reps)];
    artifact.show("span_site", "one guarded instrumentation point", span_rows);

    let campaign_rows =
        vec![campaign_row("noop", campaign_reps), campaign_row("recording", campaign_reps)];
    let (noop, traced) = (num(&campaign_rows[0], "total_us"), num(&campaign_rows[1], "total_us"));
    artifact.show("campaign", "2 sessions, 6 iterations, in-memory", campaign_rows);
    println!(
        "tracing overhead end to end: {:+.1}%",
        if noop > 0.0 { (traced - noop) / noop * 100.0 } else { 0.0 }
    );
    artifact.record("BENCH_obs.json");
}
