//! `llamatune-report`: renders diagnostics from stored telemetry alone.
//!
//! * `llamatune-report <store-dir>` — every `telemetry-<tag>.*` pair the
//!   store directory holds, one per writer (a resumed campaign's `local`
//!   pair is a fleet of one): a per-writer breakdown table, then the full
//!   report over the merged campaign view — best-so-far/regret curves,
//!   fault totals, per-phase latencies, optimizer hot-path timings and
//!   each round's virtual-clock critical path. The merged view is
//!   byte-identical at every worker count.
//! * `llamatune-report diff <old-dir> <new-dir>` — judges the candidate
//!   telemetry against the baseline through `llamatune_obs::gate`.
//!
//! Exit status: 0 on success with every check passed, 1 when a check
//! regressed, 2 on unreadable or schema-invalid input and on telemetry
//! sets that are not comparable.

use llamatune_obs::{build_report, fmt, gate, render_report, TelemetrySet};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: llamatune-report <store-dir>\n       \
                     llamatune-report diff <old-dir> <new-dir>";

fn run_report(dir: &str) -> Result<String, String> {
    let set = TelemetrySet::load_dir(Path::new(dir))?;
    let mut out = fmt::header("telemetry", &format!("{} writer(s) in {dir}", set.writers.len()));
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

fn run_diff(old_dir: &str, new_dir: &str) -> Result<(String, bool), String> {
    let old = TelemetrySet::load_dir(Path::new(old_dir)).map_err(|e| format!("baseline: {e}"))?;
    let new = TelemetrySet::load_dir(Path::new(new_dir)).map_err(|e| format!("candidate: {e}"))?;
    let checks = gate::telemetry_checks(&old, &new)?;
    let title = format!("llamatune-report diff: {old_dir} (baseline) vs {new_dir} (candidate)");
    Ok((gate::render(&title, &checks), !checks.iter().any(gate::Check::regressed)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["diff", old, new] => run_diff(old, new),
        [dir] if *dir != "diff" => run_report(dir).map(|text| (text, true)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok((text, passed)) => {
            print!("{text}");
            if passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("llamatune-report: {e}");
            ExitCode::from(2)
        }
    }
}
