//! CI bench-regression gate.
//!
//! ```text
//! bench_gate <baseline.json> <current.json>
//! ```
//!
//! Compares the committed baseline artifact against a freshly generated
//! one: `llamatune_bench::gate` turns every `_us` latency into a check,
//! `llamatune_obs::gate` judges and renders them. Exits 0 when every
//! check passed, 1 when a latency regressed, and 2 when an artifact is
//! unreadable or the two are not comparable (different scales, reordered
//! rows — that is a workflow bug, not a pass).

use llamatune_bench::gate::artifact_checks;
use llamatune_obs::gate::{render, Check};
use llamatune_obs::json::{self, JsonValue};
use std::process::ExitCode;

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: bench_gate <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };
    match artifact_checks(&baseline, &current) {
        Ok(checks) => {
            let title =
                format!("bench_gate: {baseline_path} (baseline) vs {current_path} (current)");
            print!("{}", render(&title, &checks));
            if checks.iter().any(Check::regressed) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench_gate: artifacts are not comparable: {e}");
            ExitCode::from(2)
        }
    }
}
