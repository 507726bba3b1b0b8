//! Engine evaluation per suite: what one sample costs a tuning session.
//!
//! One row per workload suite: the median wall time of one
//! [`WorkloadRunner::evaluate`] at the suite's default windows over a fixed
//! configuration set — the `postgres_v9_6` default plus seeded uniform
//! draws over the whole catalog. Draws that crash the simulated server
//! return at once and would only dilute the figure; they are left out of
//! the timing and counted in the artifact's `config`. Uniform draws all
//! but always set `backend_flush_after`, so foreground writeback (a
//! `BufferPool::clean_dirty` per flush) is on the clock in every row.
//!
//! Each configuration is evaluated `reps` times and its fastest time
//! kept (the engine is deterministic, so the repeats differ only by what
//! else the machine was doing); `eval_us` is the median of those over the
//! set, `committed` the transactions committed by one pass over it (equal
//! across hosts and commits unless the model itself changed) and `txn_ns`
//! the wall time of that pass per committed transaction.
//!
//! Results are printed as a table and recorded in `BENCH_engine.json` (at
//! the workspace root) — the baseline the CI bench-regression gate
//! (`bench_gate`) compares freshly generated artifacts against:
//!
//!     cargo bench -p llamatune-bench --bench engine_eval
//!
//! `LLAMATUNE_QUICK=1` shrinks the configuration set and the repeats to
//! smoke-test scale.

use llamatune_bench::artifact::{record, round, write_field, Field};
use llamatune_obs::json::write_object;
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::Config;
use llamatune_workloads::{workload_by_name, WorkloadRunner, WORKLOAD_NAMES};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const DRAW_SEED: u64 = 0xE7A1;
const EVAL_SEED: u64 = 11;

struct Row {
    suite: &'static str,
    n: usize,
    eval_us: f64,
    committed: u64,
    txn_ns: f64,
}

fn suite_row(suite: &'static str, configs: &[Config], reps: usize) -> Row {
    let runner = WorkloadRunner::new(workload_by_name(suite).unwrap(), postgres_v9_6());
    let mut committed = 0;
    let mut best_us: Vec<f64> = configs
        .iter()
        .map(|cfg| {
            let mut best = f64::INFINITY;
            for rep in 0..reps {
                let t = Instant::now();
                let out = std::hint::black_box(runner.evaluate(
                    runner.catalog(),
                    std::hint::black_box(cfg),
                    EVAL_SEED,
                ));
                best = best.min(t.elapsed().as_secs_f64() * 1e6);
                assert!(out.score.is_some(), "crashing draws were filtered out");
                if rep == 0 {
                    committed += out.result.committed;
                }
            }
            best
        })
        .collect();
    let pass_us: f64 = best_us.iter().sum();
    best_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Row {
        suite,
        n: configs.len(),
        eval_us: best_us[best_us.len() / 2],
        committed,
        txn_ns: pass_us * 1e3 / committed as f64,
    }
}

fn main() {
    let quick = std::env::var("LLAMATUNE_QUICK").is_ok_and(|v| v == "1");
    let (draws, reps) = if quick { (5, 1) } else { (23, 3) };

    // The default plus `draws` uniform points; whether one crashes hangs
    // on the knobs alone, so one probe on the cheapest suite sorts them.
    let catalog = postgres_v9_6();
    let mut rng = StdRng::seed_from_u64(DRAW_SEED);
    let probe = WorkloadRunner::new(workload_by_name("ycsb_b").unwrap(), catalog.clone());
    let configs: Vec<Config> = std::iter::once(catalog.default_config())
        .chain((0..draws).map(|_| {
            let point: Vec<f64> = (0..catalog.len()).map(|_| rng.random()).collect();
            catalog.config_from_unit(&point)
        }))
        .filter(|cfg| !probe.run(&catalog, cfg, EVAL_SEED).crashed)
        .collect();
    let crashed = 1 + draws - configs.len();

    let detail = format!(
        "one WorkloadRunner::evaluate at default windows; {} configurations \
             ({crashed} more crashed), best of {reps}",
        configs.len()
    );
    print!("{}", llamatune_obs::fmt::header("Engine evaluation per suite", &detail));
    let rows: Vec<Row> = WORKLOAD_NAMES.iter().map(|s| suite_row(s, &configs, reps)).collect();
    println!(
        "\n{:>18} {:>4} {:>12} {:>10} {:>10}",
        "suite", "n", "median eval", "committed", "per txn"
    );
    for r in &rows {
        println!(
            "{:>18} {:>4} {:>10.0}us {:>10} {:>8.0}ns",
            r.suite, r.n, r.eval_us, r.committed, r.txn_ns
        );
    }

    // The regression artifact.
    let mut json = String::from("{\n  \"config\": ");
    let config = [
        ("quick", Field::Flag(quick)),
        ("reps", Field::Num(reps as f64)),
        ("catalog", Field::Text("postgres_v9_6")),
        ("crashed", Field::Num(crashed as f64)),
    ];
    write_object(&mut json, config, write_field);
    json.push_str(",\n  \"engine_eval\": [");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [
            ("suite", Field::Text(r.suite)),
            ("n", Field::Num(r.n as f64)),
            ("eval_us", Field::Num(round(r.eval_us, 2))),
            ("committed", Field::Num(r.committed as f64)),
            ("txn_ns", Field::Num(round(r.txn_ns, 2))),
        ];
        write_object(&mut json, members, write_field);
    }
    json.push_str("\n  ]\n}\n");
    println!("\nrecorded {}", record("BENCH_engine.json", &json).display());
}
