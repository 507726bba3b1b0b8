//! CI bench-regression gate (see `llamatune_bench::gate` for the rules).
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [factor]
//! ```
//!
//! Compares the committed baseline artifact against a freshly generated
//! one and exits non-zero when any `_us` latency regressed by more than
//! `factor` (default 2.0, or `BENCH_GATE_FACTOR`), or when the two
//! artifacts are not comparable (different scales, reordered rows —
//! that is a workflow bug, not a pass).

use llamatune_bench::gate;
use llamatune_obs::json::{self, JsonValue};
use std::process::ExitCode;

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, current_path, factor_arg) = match args.as_slice() {
        [b, c] => (b, c, None),
        [b, c, f] => (b, c, Some(f.clone())),
        _ => {
            eprintln!("usage: bench_gate <baseline.json> <current.json> [factor]");
            return ExitCode::from(2);
        }
    };
    let factor: f64 = factor_arg
        .or_else(|| std::env::var("BENCH_GATE_FACTOR").ok())
        .map(|s| s.parse().expect("factor must be a number"))
        .unwrap_or(2.0);

    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    println!("bench_gate: {baseline_path} (baseline) vs {current_path} (current)\n");
    match gate::compare(&baseline, &current, factor) {
        Ok(cmp) => {
            print!("{}", cmp.report(factor));
            if cmp.regressions().is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_gate: artifacts are not comparable: {e}");
            ExitCode::from(2)
        }
    }
}
