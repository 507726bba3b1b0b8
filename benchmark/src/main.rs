//! The repo benchmark. One invocation runs one workload in its own
//! process:
//!
//! ```text
//! llamatune-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! llamatune-benchmark compare <a.jsonl> <b.jsonl>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, taken with tracing
//! off; with `--trace 1` it runs the same workload with the benchmark's
//! own spans around every call into the crates and prints the per-layer
//! metrics. The last line of standard output is the result as one JSON
//! object; everything for people goes to standard error. See
//! `README.md` for what each name means.

mod compare;
mod layers;
mod probes;
mod run;
mod seams;
mod session;
mod stats;
mod synth;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{Kind, Scale};

const USAGE: &str = "usage: llamatune-benchmark --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--smoke]\n       llamatune-benchmark compare <a.jsonl> <b.jsonl>";

/// One run's command line.
pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut scale) =
        (None, None, None, None, Scale::Full);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(RunArgs {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("compare") | None => Err(USAGE.to_string()),
        Some(_) => parse_run(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|run_args| run::run(&run_args).map_err(|e| e.to_string())),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
