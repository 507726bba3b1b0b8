//! One run: set up, measure for `--seconds`, check outputs, print.

use crate::layers::{Aggregates, Values, PER_LAYER};
use crate::probes;
use crate::session::Cell;
use crate::stats::median;
use crate::trace::{self, SessionTrace};
use crate::workloads::{export, Env, Kind, Pass, Prepared, Scale, Variant};
use crate::RunArgs;
use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::SessionOptions;
use llamatune_obs::json::format_f64;
use llamatune_runtime::{AdapterKind, CampaignOptions, CellSpec, OptimizerKind, SessionDriver};
use llamatune_space::catalog::postgres_v9_6;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("trial_overhead_us_p50", "us"),
    ("best_improvement_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Set-ups per untraced run: at least three, then more while they have
/// taken less than [`SETUP_BUDGET_S`] in all, up to fifteen. `setup_s`
/// is the fastest of them, for the reason [`best_wall_s`] gives: every
/// set-up does the same work.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=15;
const SETUP_BUDGET_S: f64 = 3.0;

/// Where traces and temporary stores go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Operations attempted and failed, and whether every check held.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn pass(&mut self, pass: &Pass) {
        self.attempted += pass.trials;
        self.failed += pass.failed;
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("output check failed: {name}");
        }
    }
}

/// Catalog build, workload preparation and one smoke-sized warm-up pass
/// (lazy initialisation, allocator, thread start-up): what stands
/// between process start and the first timed pass.
fn set_up(args: &RunArgs, scratch: &Path) -> io::Result<(Env, Prepared)> {
    let env = Env::new(postgres_v9_6(), args.seed, scratch.to_path_buf());
    let prepared = Prepared::new(&env, args.kind, args.scale)?;
    if args.scale == Scale::Full {
        Prepared::new(&env, args.kind, Scale::Smoke)?.pass(&env, None)?;
    } else {
        prepared.pass(&env, None)?;
    }
    Ok((env, prepared))
}

/// Output check (a): the benchmark-built real executor drives a session
/// to the same exported history as `SessionDriver::run()`.
fn check_real_executor(env: &Env) -> io::Result<bool> {
    let opts = CampaignOptions {
        session: SessionOptions { iterations: 6, n_init: 3, ..SessionOptions::default() },
        batch_size: 2,
        trial_workers: 2,
        ..CampaignOptions::default()
    };
    let spec = CellSpec::new(
        "ycsb_b",
        AdapterKind::LlamaTune(LlamaTuneConfig::default()),
        OptimizerKind::Smac,
        env.seed,
    );
    let reference = SessionDriver::new(&env.catalog, &opts, spec.clone()).run()?;
    let cell = Cell {
        catalog: &env.catalog,
        opts: &opts,
        eval_seed: Cell::driver_eval_seed(spec.seed),
        spec,
        store: None,
        synthetic: None,
    };
    let ours = cell.run()?;
    Ok(export(&cell.spec.label, &ours.history) == export(&reference.label, &reference.history))
}

/// Wall time of the fastest pass. Every pass of a run does the same
/// work, and what disturbs a pass (another tenant of the machine, a
/// page-cache miss) only ever slows it down, so the fastest pass is the
/// steadiest estimate of what the work costs: over three 15 s runs of
/// `opt-bound` the median pass differed by 4 %, the fastest by 0.5 %.
fn best_wall_s(passes: &[Pass]) -> f64 {
    passes.iter().map(|p| p.wall_s).fold(f64::INFINITY, f64::min)
}

/// Trials per second of the fastest pass.
fn trials_per_s(passes: &[Pass]) -> f64 {
    passes[0].trials as f64 / best_wall_s(passes)
}

/// Median tuner-side time per trial, of the pass where it was lowest
/// (the same one-sided-noise argument as [`best_wall_s`]).
fn overhead_us_p50(passes: &[Pass]) -> Option<f64> {
    passes.iter().filter_map(|p| median(&p.overhead_us)).reduce(f64::min)
}

/// Runs passes until `seconds` have gone by; `traced` picks which.
/// Every pass repeats the same sessions, so it must export the same
/// histories as the first: the flag returned says whether all did. Only
/// the first pass keeps its exports.
fn measure(
    env: &Env,
    prepared: &Prepared,
    seconds: f64,
    mut traced: impl FnMut(usize) -> Option<Instant>,
) -> io::Result<(Vec<Pass>, bool)> {
    let mut passes: Vec<Pass> = Vec::new();
    let mut repeated = true;
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut pass = prepared.pass(env, traced(passes.len()))?;
        if let Some(first) = passes.first() {
            repeated &=
                pass.trials == first.trials && std::mem::take(&mut pass.exports) == first.exports;
        }
        passes.push(pass);
    }
    Ok((passes, repeated))
}

/// The end-to-end run: tracing off.
fn run_untraced(args: &RunArgs, scratch: &Path, tally: &mut Tally) -> io::Result<Measured> {
    let mut setups: Vec<f64> = Vec::new();
    let mut ready = None;
    while setups.len() < *SETUP_REPS.start()
        || (setups.len() < *SETUP_REPS.end() && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous set-up first: its store directory is reused.
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(set_up(args, scratch)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (env, prepared) = ready.expect("at least one set-up ran");

    let (passes, repeated) = measure(&env, &prepared, args.seconds, |_| None)?;
    passes.iter().for_each(|p| tally.pass(p));
    tally.check("every pass exports the same histories", repeated);
    tally.check(
        "(a) benchmark-built executor matches SessionDriver::run",
        check_real_executor(&env)?,
    );
    if args.kind == Kind::Served {
        // Output check (b): a served session's `export_history` is
        // byte-identical to the same cell run in process.
        tally.check(
            "(b) served export matches the in-process run",
            passes[0].exports.first() == Some(&prepared.served_reference(&env)?),
        );
    }

    let overhead_samples: usize = passes.iter().map(|p| p.overhead_us.len()).sum();
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    eprintln!("passes: {} of {} s", passes.len(), walls.join(" "));
    eprintln!("set-ups: {}  overhead_samples: {overhead_samples}", setups.len());
    let improvements = &passes[0].improvements;
    let mut measured = Measured::default();
    measured.adopt(
        Values::from([
            ("setup_s", setups.iter().copied().fold(f64::INFINITY, f64::min)),
            ("trials_per_s", trials_per_s(&passes)),
            (
                "trial_overhead_us_p50",
                overhead_us_p50(&passes).ok_or_else(|| io::Error::other("no round was timed"))?,
            ),
            ("best_improvement_pct", llamatune_math::mean(improvements)),
            // Peak memory as the first timed pass ended: what set-up and
            // one pass of the workload need. Read at exit it would also
            // depend on how many passes fitted into `--seconds` (the
            // allocator's high-water mark creeps up over repeated
            // multi-threaded passes) and on the output checks above.
            ("peak_rss_mb", passes[0].peak_rss_mb),
        ]),
        args.kind.name(),
    );
    Ok(measured)
}

/// What a traced measurement of one workload yields.
struct Traced {
    layers: Aggregates,
    /// Traces of the first traced pass, for the span file.
    traces: Vec<Arc<SessionTrace>>,
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
}

/// Alternates untraced and traced passes of one workload for `seconds`
/// (at least one of each) and holds them to the same histories — output
/// check (d).
fn measure_traced(
    env: &Env,
    prepared: &Prepared,
    seconds: f64,
    origin: Instant,
    tally: &mut Tally,
) -> io::Result<Traced> {
    let (mut passes, mut repeated) =
        measure(env, prepared, seconds, |n| (n % 2 == 1).then_some(origin))?;
    if passes.len() % 2 == 1 {
        let last = prepared.pass(env, Some(origin))?;
        repeated &= last.exports == passes[0].exports;
        passes.push(last);
    }
    passes.iter().for_each(|p| tally.pass(p));
    tally.check(
        &format!("(d) traced {} histories match the untraced run's", prepared.kind.name()),
        repeated,
    );
    let mut out = Traced {
        layers: Aggregates::default(),
        traces: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    for mut pass in passes {
        match pass.layers.take() {
            None => out.untraced.push(pass),
            Some(mut layers) => {
                let traces = std::mem::take(&mut layers.traces);
                if out.traced.is_empty() {
                    out.traces = traces;
                }
                out.layers.merge(layers);
                out.traced.push(pass);
            }
        }
    }
    Ok(out)
}

/// Per-layer numbers that compare two variants of a pass rather than
/// read spans: the program's own tracer on `store-append`, one client
/// against two on `served`, one compaction of the store `store-resume`
/// read.
fn variants(env: &Env, prepared: &Prepared, tally: &mut Tally, out: &mut Values) -> io::Result<()> {
    // Plain and varied passes alternate and the fastest of each side is
    // compared. A full-size `served` pass takes most of a second; all
    // others here are a third of one or less.
    let reps = if (prepared.kind, prepared.scale) == (Kind::Served, Scale::Full) { 2 } else { 5 };
    let mut against = |variant: Variant| -> io::Result<(Vec<Pass>, Vec<Pass>)> {
        let (mut plain, mut varied) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            plain.push(prepared.pass(env, None)?);
            varied.push(prepared.pass_with(env, None, variant)?);
        }
        plain.iter().chain(&varied).for_each(|p| tally.pass(p));
        Ok((plain, varied))
    };
    match prepared.kind {
        Kind::StoreAppend => {
            let (plain, recording) = against(Variant::RecordingTracer)?;
            let pct = (best_wall_s(&recording) / best_wall_s(&plain) - 1.0) * 100.0;
            out.insert("obs.recording_overhead_pct", pct);
        }
        Kind::Served => {
            let (two, one) = against(Variant::SingleClient)?;
            let (c1, c2) = (trials_per_s(&one), trials_per_s(&two));
            eprintln!("served trials/s: 1 client {c1:.1}, 2 clients {c2:.1}");
            out.insert("server.c2_over_c1", c2 / c1);
        }
        Kind::StoreResume => {
            out.insert("store.compact_ms", probes::compact_ms(prepared.dir())?);
        }
        Kind::SimBound | Kind::OptBound => {}
    }
    Ok(())
}

/// The traced run: the selected workload for `--seconds`, then a
/// smoke-sized traced pass of every other workload to fill in the
/// layers the selected one does not exercise, then the standalone
/// probes.
fn run_traced(args: &RunArgs, scratch: &Path, tally: &mut Tally) -> io::Result<Measured> {
    let (env, prepared) = set_up(args, scratch)?;
    let origin = Instant::now();
    let own = measure_traced(&env, &prepared, args.seconds, origin, tally)?;

    let mut own_values = own.layers.shares();
    own_values.extend(own.layers.timings());
    let overhead_pct = (best_wall_s(&own.traced) / best_wall_s(&own.untraced) - 1.0) * 100.0;
    own_values.insert("obs.trace_overhead_pct", overhead_pct);
    for g in own.layers.phase_gaps() {
        eprintln!(
            "phase {}: {:.3} ms by the benchmark's spans, {:.3} ms by session.{}_ms",
            g.phase, g.outside_ms, g.inside_ms, g.phase
        );
    }
    variants(&env, &prepared, tally, &mut own_values)?;
    let mut measured = Measured::default();
    measured.adopt(own_values, args.kind.name());
    let mut client_round_us = own.layers.client_round_us();

    for kind in Kind::ALL.into_iter().filter(|k| *k != args.kind) {
        let fill = Prepared::new(&env, kind, Scale::Smoke)?;
        let filled = measure_traced(&env, &fill, 0.0, origin, tally)?;
        let mut values = filled.layers.timings();
        variants(&env, &fill, tally, &mut values)?;
        measured.adopt(values, kind.name());
        client_round_us = client_round_us.or(filled.layers.client_round_us());
    }
    let mut probed = Values::new();
    probes::standalone(&env, &mut probed)?;
    if let Some(round) = client_round_us {
        probed.insert("server.wire_share", 1.0 - probed["server.registry_round_us"] / round);
    }
    measured.adopt(probed, "probe");

    let path = out_dir().join(format!("trace-{}.jsonl", args.kind.name()));
    let mut file = io::BufWriter::new(std::fs::File::create(&path)?);
    trace::write_jsonl(&mut file, &own.traces.iter().map(Arc::as_ref).collect::<Vec<_>>())?;
    file.flush()?;
    eprintln!("spans of the first traced pass: {}", path.display());

    let missing: Vec<&str> =
        PER_LAYER.iter().map(|m| m.0).filter(|name| !measured.0.contains_key(name)).collect();
    if !missing.is_empty() {
        return Err(io::Error::other(format!("per-layer metrics not measured: {missing:?}")));
    }
    Ok(measured)
}

/// Metric values with where each was measured: the selected workload, a
/// smoke-sized fill pass of another workload, or a standalone probe.
#[derive(Debug, Default)]
struct Measured(std::collections::BTreeMap<&'static str, (f64, &'static str)>);

impl Measured {
    /// Takes every value whose name has none yet.
    fn adopt(&mut self, values: Values, source: &'static str) {
        for (name, value) in values {
            self.0.entry(name).or_insert((value, source));
        }
    }
}

/// Runs one workload and prints its result; `Ok(false)` when an output
/// check failed.
pub fn run(args: &RunArgs) -> io::Result<bool> {
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let mut tally = Tally::default();
    let outcome = if args.trace {
        run_traced(args, &scratch, &mut tally)
    } else {
        run_untraced(args, &scratch, &mut tally)
    };
    // Temporary stores go even when a check or a pass failed.
    let _ = std::fs::remove_dir_all(&scratch);
    let measured = outcome?;

    let units: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let correct = tally.failed == 0;
    eprintln!("workload {}  seed {}  trace {}", args.kind.name(), args.seed, u8::from(args.trace));
    let mut metrics = Vec::new();
    for (name, unit) in units {
        let (value, source) = measured.0[name];
        eprintln!("  {name:<36} {value:>16.4} {unit:<6} {source}");
        metrics.push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", format_f64(value)));
    }
    eprintln!(
        "  failed_share {} / {} operations; outputs {}",
        tally.failed,
        tally.attempted,
        if correct { "correct" } else { "INCORRECT" }
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(",")
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::rule;
    use llamatune_obs::json::{self, JsonValue};

    fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
        entry.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("no {key}"))
    }

    fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        match doc.get(key) {
            Some(JsonValue::Arr(items)) => items,
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly what this
    /// program measures, with the units it prints and the bounds
    /// `compare` applies.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads: Vec<&str> =
            entries(&doc, "workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, Kind::ALL.map(Kind::name));

        let end_to_end = entries(&doc, "end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!((field(entry, "name"), field(entry, "unit")), (*name, *unit));
            let r = rule(name);
            assert_eq!(field(entry, "better") == "higher", r.higher_is_better, "{name}");
            assert_eq!(entry.get("bound").and_then(JsonValue::as_f64), Some(r.bound), "{name}");
        }

        let per_layer = entries(&doc, "per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            let listed = (field(entry, "name"), field(entry, "unit"), field(entry, "better"));
            assert_eq!(listed, (*name, *unit, *better));
        }
    }
}
