//! The paper's tables and figures as one gated run over
//! [`llamatune_bench::claims`]:
//!
//!     cargo bench -p llamatune-bench --bench paper            # all 17 sources
//!     cargo bench -p llamatune-bench --bench paper -- table5  # one of them
//!
//! An unfiltered run records `BENCH_paper.json` at the workspace root.
//! Exits non-zero when a `reproduced` claim is measured outside its band.

use llamatune_bench::artifact::record;
use llamatune_bench::claims::{select, SOURCES};
use llamatune_bench::{paper, ExpScale};

fn main() {
    // cargo appends `--bench`; the one positional argument names a source.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    if let Some(name) = &filter {
        assert!(SOURCES.iter().any(|(s, _)| s == name), "no source {name:?}: one of {SOURCES:?}");
    }
    let scale = ExpScale::from_env();
    let report = paper::run(&select(filter.as_deref()), scale);

    let failures = report.failures();
    println!(
        "\n{} claims measured, {} tuning arms run; {} reproduced claim(s) outside their band{}",
        report.rows.len(),
        report.arm_runs,
        failures.len(),
        failures.iter().map(|id| format!("\n  {id}")).collect::<String>(),
    );
    if filter.is_none() {
        println!("recorded {}", record("BENCH_paper.json", &report.json(scale)).display());
    }
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}
