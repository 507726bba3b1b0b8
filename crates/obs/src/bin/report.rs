//! `llamatune-report`: renders diagnostics from stored telemetry alone.
//!
//! Three modes:
//!
//! * `llamatune-report <trace.jsonl> [metrics.json]` — one telemetry
//!   pair: best-so-far/regret curves, fault totals, per-phase
//!   latencies, optimizer hot-path timings and each round's
//!   virtual-clock critical path.
//! * `llamatune-report --fleet <store-dir>` — every per-writer
//!   telemetry pair a fleet campaign persisted: a per-worker breakdown
//!   table, then the full report over the merged campaign view (which
//!   is byte-identical at every worker count).
//! * `llamatune-report diff <old-dir> <new-dir>` — compares two stored
//!   telemetry sets and exits nonzero when the candidate regresses a
//!   phase latency or fault counter past the gate (>2x plus absolute
//!   slack), or when the sets are not comparable.
//!
//! Exits nonzero on unreadable input or schema violations.

use llamatune_obs::{
    build_report, diff_telemetry, fmt, parse_trace_jsonl, render_diff, render_report,
    MetricsSnapshot, TelemetrySet,
};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: llamatune-report <trace.jsonl> [metrics.json]\n       \
                     llamatune-report --fleet <store-dir>\n       \
                     llamatune-report diff <old-dir> <new-dir>";

fn run_single(trace_path: &str, metrics_path: Option<&str>) -> Result<String, String> {
    let trace_text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let events =
        parse_trace_jsonl(&trace_text).map_err(|e| format!("invalid trace {trace_path}: {e}"))?;
    let metrics = match metrics_path {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Some(
                MetricsSnapshot::from_json(&text)
                    .map_err(|e| format!("invalid metrics {path}: {e}"))?,
            )
        }
        None => None,
    };
    Ok(render_report(&build_report(&events, metrics)?))
}

fn run_fleet(dir: &str) -> Result<String, String> {
    let set = TelemetrySet::load_dir(Path::new(dir))?;
    let mut out =
        fmt::header("fleet telemetry", &format!("{} writer(s) in {dir}", set.writers.len()));
    let rows: Vec<Vec<String>> = set
        .writers
        .iter()
        .map(|w| {
            let sessions = w
                .events
                .iter()
                .map(|e| e.session.as_str())
                .collect::<std::collections::BTreeSet<_>>();
            let trials = w.events.iter().filter(|e| e.span == "trial").count();
            let faults: u64 = w
                .metrics
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with("policy."))
                .map(|(_, v)| *v)
                .sum();
            vec![
                w.writer.clone(),
                sessions.len().to_string(),
                w.events.len().to_string(),
                trials.to_string(),
                faults.to_string(),
            ]
        })
        .collect();
    out.push_str(&fmt::table(&["writer", "sessions", "spans", "trials", "faults"], &rows));
    out.push_str(&render_report(&build_report(&set.merged_events(), Some(set.merged_metrics()))?));
    Ok(out)
}

/// `Ok(true)` — comparable, no regression; `Ok(false)` — comparable but
/// regressed (the rendered diff goes to stdout either way).
fn run_diff(old_dir: &str, new_dir: &str) -> Result<(String, bool), String> {
    let old = TelemetrySet::load_dir(Path::new(old_dir)).map_err(|e| format!("baseline: {e}"))?;
    let new = TelemetrySet::load_dir(Path::new(new_dir)).map_err(|e| format!("candidate: {e}"))?;
    let diff = diff_telemetry(
        &old.merged_events(),
        &old.merged_metrics(),
        &new.merged_events(),
        &new.merged_metrics(),
    )?;
    Ok((render_diff(&diff), !diff.has_regressions()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["--fleet", dir] => run_fleet(dir).map(|text| (text, true)),
        ["diff", old, new] => run_diff(old, new),
        [trace] => run_single(trace, None).map(|text| (text, true)),
        [trace, metrics] if *trace != "--fleet" && *trace != "diff" => {
            run_single(trace, Some(metrics)).map(|text| (text, true))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok((text, clean)) => {
            print!("{text}");
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("llamatune-report: {e}");
            ExitCode::FAILURE
        }
    }
}
