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
//! `LLAMATUNE_QUICK=1` shrinks call counts and repetitions.

use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_bench::artifact::{record, round, write_field, Field};
use llamatune_engine::RunOptions;
use llamatune_obs::json::write_object;
use llamatune_obs::trace::{NoopTracer, RecordingTracer, TraceEvent, Tracer};
use llamatune_runtime::{AdapterKind, Campaign, CampaignOptions, CampaignSpec, OptimizerKind};
use llamatune_space::catalog::postgres_v9_6;
use std::sync::Arc;
use std::time::Instant;

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

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

struct SpanSiteRow {
    tracer: &'static str,
    n: usize,
    total_us: f64,
    per_call_ns: f64,
}

fn span_site_row(tracer_name: &'static str, n: usize, reps: usize) -> SpanSiteRow {
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
    let total_us = median_us(times);
    SpanSiteRow { tracer: tracer_name, n, total_us, per_call_ns: total_us * 1e3 / n as f64 }
}

struct CampaignRow {
    tracer: &'static str,
    sessions: usize,
    total_us: f64,
}

fn campaign_row(tracer_name: &'static str, reps: usize) -> CampaignRow {
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
    CampaignRow { tracer: tracer_name, sessions, total_us: median_us(times) }
}

fn main() {
    let quick = std::env::var("LLAMATUNE_QUICK").is_ok_and(|v| v == "1");
    let (noop_n, rec_n, reps, campaign_reps): (usize, usize, usize, usize) =
        if quick { (100_000, 10_000, 3, 1) } else { (2_000_000, 200_000, 5, 3) };

    let detail = format!(
        "guarded span site (noop vs recording) and end-to-end campaign; \
             medians over {reps} reps"
    );
    print!("{}", llamatune_obs::fmt::header("Observability overhead", &detail));

    let span_rows =
        vec![span_site_row("noop", noop_n, reps), span_site_row("recording", rec_n, reps)];
    println!("\nSpan site (one guarded instrumentation point):");
    println!("{:>10} {:>10} {:>12} {:>12}", "tracer", "calls", "total", "per call");
    for r in &span_rows {
        println!("{:>10} {:>10} {:>10.0}us {:>10.2}ns", r.tracer, r.n, r.total_us, r.per_call_ns);
    }

    let campaign_rows =
        vec![campaign_row("noop", campaign_reps), campaign_row("recording", campaign_reps)];
    println!("\nCampaign (2 sessions, 6 iterations, in-memory):");
    println!("{:>10} {:>10} {:>12}", "tracer", "sessions", "total");
    for r in &campaign_rows {
        println!("{:>10} {:>10} {:>10.0}us", r.tracer, r.sessions, r.total_us);
    }
    let (noop, traced) = (campaign_rows[0].total_us, campaign_rows[1].total_us);
    println!(
        "tracing overhead end to end: {:+.1}%",
        if noop > 0.0 { (traced - noop) / noop * 100.0 } else { 0.0 }
    );

    // The regression artifact.
    let mut json = String::from("{\n  \"config\": ");
    let config = [("quick", Field::Flag(quick)), ("reps", Field::Num(reps as f64))];
    write_object(&mut json, config, write_field);
    json.push_str(",\n  \"span_site\": [");
    for (i, r) in span_rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [
            ("tracer", Field::Text(r.tracer)),
            ("n", Field::Num(r.n as f64)),
            ("total_us", Field::Num(round(r.total_us, 2))),
            ("per_call_ns", Field::Num(round(r.per_call_ns, 3))),
        ];
        write_object(&mut json, members, write_field);
    }
    json.push_str("\n  ],\n  \"campaign\": [");
    for (i, r) in campaign_rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [
            ("tracer", Field::Text(r.tracer)),
            ("sessions", Field::Num(r.sessions as f64)),
            ("total_us", Field::Num(round(r.total_us, 2))),
        ];
        write_object(&mut json, members, write_field);
    }
    json.push_str("\n  ]\n}\n");
    println!("\nrecorded {}", record("BENCH_obs.json", &json).display());
}
