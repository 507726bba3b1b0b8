//! The paper's tables and figures as one gated run over
//! [`llamatune_bench::claims`]:
//!
//!     cargo bench -p llamatune-bench --bench paper            # all 17 sources, 5 x 100
//!     cargo bench -p llamatune-bench --bench paper -- table5  # one of them
//!     LLAMATUNE_QUICK=1 cargo bench -p llamatune-bench --bench paper  # 3 x 50
//!
//! Before it runs, it reads the committed `BENCH_paper.json` (3 × 50) and
//! `BENCH_paper_full.json` (5 × 100) at the workspace root; a claim both
//! record as holding is reproduced. Exits 2 when either is missing or
//! unparsable, 1 when a reproduced claim is measured outside its band.
//! The closing lines count the reproduced claims and list every claim
//! whose verdict differs from the artifact of the run's own scale. An
//! unfiltered run at one of those two scales re-records that artifact;
//! a run at any other scale records nothing.

use llamatune_bench::artifact::{read, record};
use llamatune_bench::claims::{select, SOURCES};
use llamatune_bench::paper::{self, Verdicts};
use llamatune_bench::ExpScale;

/// The verdicts `scale`'s committed artifact records; exit 2 without them.
fn committed(scale: ExpScale) -> Verdicts {
    let file = scale.artifact().expect("a recorded scale");
    let verdicts =
        read(file).and_then(|json| paper::recorded(&json).map_err(|e| format!("{file}: {e}")));
    verdicts.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn main() {
    // cargo appends `--bench`; the one positional argument names a source.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    if let Some(name) = &filter {
        assert!(SOURCES.iter().any(|(s, _)| s == name), "no source {name:?}: one of {SOURCES:?}");
    }
    let scale = ExpScale::from_env();
    let (quick, full) = (committed(ExpScale::QUICK), committed(ExpScale::PAPER));
    let reproduced = paper::reproduced(&quick, &full);
    let report = paper::run(&select(filter.as_deref()), scale, [&quick, &full], &reproduced);

    let failures = report.failures(&reproduced);
    println!(
        "\n{} claims measured, {} tuning arms run; {} reproduced (held at 3 x 50 and 5 x 100), \
         {} of them outside their band{}",
        report.rows.len(),
        report.arm_runs,
        reproduced.len(),
        failures.len(),
        failures.iter().map(|id| format!("\n  {id}")).collect::<String>(),
    );
    if let Some(file) = scale.artifact() {
        let flips = report.flips(if scale == ExpScale::QUICK { &quick } else { &full });
        println!("{} claim(s) whose verdict differs from {file}", flips.len());
        for (id, holds) in flips {
            println!("  {id}: {}", if holds { "holds" } else { "misses" });
        }
        if filter.is_none() {
            println!("recorded {}", record(file, &report.json(scale)).display());
        }
    }
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}
