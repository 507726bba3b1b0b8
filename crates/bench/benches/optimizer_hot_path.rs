//! Optimizer hot-path latency: what one suggest / observe / retract
//! costs as the observation history grows.
//!
//! The measurements, each at history sizes n = 50 / 100 / 200 (the
//! paper's sessions run 100 iterations):
//!
//! * **GP-BO observe** — one observation off a refit boundary: the
//!   O(n²) Cholesky append (what a full O(n³) refactorization would
//!   cost instead is the kernel-level pair `math.cholesky_n200_us` /
//!   `math.cholesky_append_n200_us` of the repository benchmark).
//! * **SMAC suggest** — forest cold (history changed, must fit) vs warm
//!   (cached fit reused across a batch round).
//! * **Forest fit** — `RandomForest::fit` alone (the cold suggest's
//!   dominant term) and 1500 `predict` calls (one suggestion's random
//!   candidates), at the LlamaTune width d = 16 and the vanilla 90-knob
//!   width.
//! * **DDPG observe** — one `Ddpg::observe` (reward, replay push, five
//!   minibatch training steps) at the LlamaTune width d = 16 and the
//!   vanilla 90-knob width, 27 metrics, with the replay buffer pinned at
//!   32 (the first trial that trains) and 100 (a paper session's end)
//!   transitions.
//! * **GP-BO suggest** — one `GpBo::suggest` (1500 candidates
//!   drawn and EI-scored against the cached factor) and, inside it, the
//!   scoring pass alone (`optim.gp.ei_score_ms`).
//! * **Constant-liar retract, q = 8** — GP-BO, SMAC and DDPG at n = 100
//!   and 200: the snapshot `BatchSuggest::suggest_batch` takes before
//!   fantasizing, plus the restore and the replay of the q real results
//!   in `observe_batch`.
//!
//! Results are printed as a table and recorded in
//! `BENCH_optimizer.json` (in the working directory) so later PRs have
//! a trajectory to regress against:
//!
//!     cargo bench -p llamatune-bench --bench optimizer_hot_path
//!
//! `LLAMATUNE_QUICK=1` shrinks history sizes and repetitions to
//! smoke-test scale.

use llamatune_bench::artifact::{record, round, write_field, Field};
use llamatune_obs::json::{write_f64, write_object};
use llamatune_obs::MetricsRegistry;
use llamatune_optim::{
    Ddpg, DdpgConfig, GpBo, Observation, Optimizer, RandomForest, RandomForestConfig, SearchSpec,
    Smac, SmacConfig, DEFAULT_METRIC_DIM,
};
use llamatune_runtime::BatchSuggest;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The LlamaTune projected space: 16 continuous dimensions.
const DIMS: usize = 16;
const SEED: u64 = 7;

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// `n` synthetic observations over a smooth objective.
fn synthetic_history(n: usize) -> Vec<Observation> {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x1157);
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..DIMS).map(|_| rng.random::<f64>()).collect();
            let y = -x.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>();
            Observation { x, y, metrics: vec![] }
        })
        .collect()
}

struct GpObserveRow {
    n: usize,
    incremental_us: f64,
}

/// Times one GP observation at exactly history size `n`, repeatedly,
/// by rewinding through the optimizer's own snapshot/restore.
fn gp_observe_row(n: usize, reps: usize) -> GpObserveRow {
    let history = synthetic_history(n + 1);
    let (prefill, probe) = history.split_at(n);
    let mut gp = GpBo::new(SearchSpec::continuous(DIMS), SEED);
    gp.observe_batch(prefill.to_vec());
    let snap = gp.snapshot().expect("GP supports snapshots");
    let mut times = Vec::new();
    for _ in 0..reps {
        assert!(gp.restore(snap.as_ref()));
        let t = Instant::now();
        gp.observe(probe[0].clone());
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    GpObserveRow { n, incremental_us: median_us(times) }
}

struct SmacSuggestRow {
    n: usize,
    cold_us: f64,
    warm_us: f64,
}

/// Times a SMAC suggestion with the forest invalidated (cold: must
/// fit) and with the forest cached from the previous suggestion (warm).
fn smac_suggest_row(n: usize, reps: usize) -> SmacSuggestRow {
    // Interleaved random suggestions would pollute the medians with
    // near-free iterations; disable them for measurement.
    let config = SmacConfig { random_interleave: 0, ..SmacConfig::default() };
    let mut smac = Smac::new(SearchSpec::continuous(DIMS), config, SEED);
    for o in synthetic_history(n) {
        smac.observe(o);
    }
    let snap = smac.snapshot().expect("SMAC supports snapshots");
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        assert!(smac.restore(snap.as_ref()));
        let t = Instant::now();
        let _ = std::hint::black_box(smac.suggest());
        cold.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let _ = std::hint::black_box(smac.suggest());
        warm.push(t.elapsed().as_secs_f64() * 1e6);
    }
    SmacSuggestRow { n, cold_us: median_us(cold), warm_us: median_us(warm) }
}

struct ForestFitRow {
    d: usize,
    n: usize,
    fit_us: f64,
    predict_1500_us: f64,
}

/// Times the SMAC surrogate by itself on a `d`-dim history of `n`
/// points: one default-config fit, and the 1500 `predict` calls a
/// suggestion spends on its random candidates.
fn forest_fit_row(d: usize, n: usize, reps: usize) -> ForestFitRow {
    let spec = SearchSpec::continuous(d);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xf0e5);
    let xs: Vec<Vec<f64>> = (0..n).map(|_| spec.sample(&mut rng)).collect();
    let ys: Vec<f64> =
        xs.iter().map(|x| -x.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>()).collect();
    let candidates: Vec<Vec<f64>> = (0..1500).map(|_| spec.sample(&mut rng)).collect();
    let config = RandomForestConfig::default();
    let (mut fit, mut predict) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let t = Instant::now();
        let forest = std::hint::black_box(RandomForest::fit(&spec, &xs, &ys, &config, rep as u64));
        fit.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        for x in &candidates {
            std::hint::black_box(forest.predict(std::hint::black_box(x)));
        }
        predict.push(t.elapsed().as_secs_f64() * 1e6);
    }
    ForestFitRow { d, n, fit_us: median_us(fit), predict_1500_us: median_us(predict) }
}

struct DdpgObserveRow {
    d: usize,
    replay: usize,
    observe_us: f64,
}

/// Times `Ddpg::observe` with the replay buffer holding exactly `replay`
/// transitions (the capacity is pinned there and filled before the clock
/// starts), on a `d`-dim space with the DBMS's 27 metrics as a smooth
/// function of the action.
fn ddpg_observe_row(d: usize, replay: usize, reps: usize) -> DdpgObserveRow {
    let config = DdpgConfig { replay_capacity: replay, ..DdpgConfig::default() };
    let mut ddpg = Ddpg::new(SearchSpec::continuous(d), DEFAULT_METRIC_DIM, config, SEED);
    let mut times = Vec::new();
    // `replay + 1` observations fill the buffer; the rest are timed.
    for trial in 0..=replay + reps {
        let x = ddpg.suggest();
        let y = 100.0 * (-x.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>() / d as f64).exp();
        let metrics =
            (0..DEFAULT_METRIC_DIM).map(|m| (x[m % d] * (1 + m % 5) as f64 + m as f64).sin());
        let obs = Observation { y, metrics: metrics.collect(), x };
        let t = Instant::now();
        ddpg.observe(obs);
        if trial > replay {
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    DdpgObserveRow { d, replay, observe_us: median_us(times) }
}

struct GpSuggestRow {
    n: usize,
    suggest_us: f64,
    ei_score_us: f64,
}

/// Times one GP suggestion at history size `n`, and the share
/// of it the optimizer itself books to `optim.gp.ei_score_ms`.
fn gp_suggest_row(n: usize, reps: usize) -> GpSuggestRow {
    let registry = Arc::new(MetricsRegistry::new());
    let mut gp = GpBo::new(SearchSpec::continuous(DIMS), SEED).with_metrics(registry.clone());
    gp.observe_batch(synthetic_history(n));
    let ei_score_ms =
        || registry.snapshot().hists.get("optim.gp.ei_score_ms").map_or(0.0, |h| h.sum);
    let (mut suggest, mut ei_score) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let before = ei_score_ms();
        let t = Instant::now();
        let _ = std::hint::black_box(gp.suggest());
        suggest.push(t.elapsed().as_secs_f64() * 1e6);
        ei_score.push((ei_score_ms() - before) * 1e3);
    }
    GpSuggestRow { n, suggest_us: median_us(suggest), ei_score_us: median_us(ei_score) }
}

struct RetractRow {
    optimizer: &'static str,
    n: usize,
    q: usize,
    retract_us: f64,
}

/// Forwards to the optimizer it wraps, adding the time its `snapshot`
/// takes to `spent_ns`.
struct SnapshotClock {
    inner: Box<dyn Optimizer>,
    spent_ns: Arc<AtomicU64>,
}

impl Optimizer for SnapshotClock {
    fn suggest(&mut self) -> Vec<f64> {
        self.inner.suggest()
    }
    fn observe(&mut self, obs: Observation) {
        self.inner.observe(obs)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn observe_batch(&mut self, obs: Vec<Observation>) {
        self.inner.observe_batch(obs)
    }
    fn snapshot(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let t = Instant::now();
        let snapshot = self.inner.snapshot();
        self.spent_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        snapshot
    }
    fn restore(&mut self, snapshot: &(dyn std::any::Any + Send)) -> bool {
        self.inner.restore(snapshot)
    }
}

/// Times what retracting a q-wide constant-liar round costs: the
/// snapshot `suggest_batch` takes before fantasizing, plus the restore
/// and the replay of the q real results in `observe_batch`.
fn retract_row(
    optimizer: &'static str,
    build: fn() -> Box<dyn Optimizer>,
    n: usize,
    q: usize,
    rounds: usize,
) -> RetractRow {
    let spent_ns = Arc::new(AtomicU64::new(0));
    let mut wrapped = BatchSuggest::new(|| {
        Box::new(SnapshotClock { inner: build(), spent_ns: spent_ns.clone() })
    });
    wrapped.observe_batch(synthetic_history(n));
    let mut times = Vec::new();
    for _ in 0..rounds {
        spent_ns.store(0, Ordering::Relaxed);
        let batch = wrapped.suggest_batch(q);
        let snapshot_us = spent_ns.load(Ordering::Relaxed) as f64 / 1e3;
        let obs: Vec<Observation> = batch
            .into_iter()
            .map(|x| {
                let y = -x.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>();
                Observation { x, y, metrics: vec![] }
            })
            .collect();
        let t = Instant::now();
        wrapped.observe_batch(obs);
        times.push(snapshot_us + t.elapsed().as_secs_f64() * 1e6);
    }
    RetractRow { optimizer, n, q, retract_us: median_us(times) }
}

fn ratio(slow: f64, fast: f64) -> f64 {
    if fast <= 0.0 {
        f64::INFINITY
    } else {
        slow / fast
    }
}

fn main() {
    let quick = std::env::var("LLAMATUNE_QUICK").is_ok_and(|v| v == "1");
    // History sizes are chosen so the probing observation does not land
    // on a refit boundary (refit_every = 5), which both paths pay alike.
    let (ns, reps, q, rounds): (&[usize], usize, usize, usize) =
        if quick { (&[12, 26], 5, 4, 2) } else { (&[50, 100, 200], 9, 8, 3) };

    let detail = format!(
        "suggest/observe/retract latency vs history size; {DIMS}-dim space, \
             medians over {reps} reps (retract: {rounds} rounds), q = {q}"
    );
    print!("{}", llamatune_obs::fmt::header("Optimizer hot path", &detail));

    let gp_rows: Vec<GpObserveRow> = ns.iter().map(|&n| gp_observe_row(n, reps)).collect();
    println!("\nGP-BO observe (one new observation at history n, Cholesky append):");
    println!("{:>6} {:>16}", "n", "observe");
    for r in &gp_rows {
        println!("{:>6} {:>14.1}us", r.n, r.incremental_us);
    }

    let smac_rows: Vec<SmacSuggestRow> = ns.iter().map(|&n| smac_suggest_row(n, reps)).collect();
    println!("\nSMAC suggest (forest cold vs cached):");
    println!("{:>6} {:>16} {:>16} {:>10}", "n", "cold (fit)", "warm (cached)", "speedup");
    for r in &smac_rows {
        println!(
            "{:>6} {:>14.1}us {:>14.1}us {:>9.1}x",
            r.n,
            r.cold_us,
            r.warm_us,
            ratio(r.cold_us, r.warm_us)
        );
    }

    let forest_rows: Vec<ForestFitRow> = [DIMS, 90]
        .iter()
        .flat_map(|&d| ns.iter().map(move |&n| forest_fit_row(d, n, reps)))
        .collect();
    println!("\nForest fit (SMAC's surrogate alone, default config):");
    println!("{:>6} {:>6} {:>16} {:>18}", "d", "n", "fit", "1500 predicts");
    for r in &forest_rows {
        println!("{:>6} {:>6} {:>14.1}us {:>16.1}us", r.d, r.n, r.fit_us, r.predict_1500_us);
    }

    let ddpg_rows: Vec<DdpgObserveRow> = [DIMS, 90]
        .iter()
        .flat_map(|&d| [32, 100].map(|replay| ddpg_observe_row(d, replay, reps)))
        .collect();
    println!("\nDDPG observe (replay push + 5 minibatch steps, 27 metrics):");
    println!("{:>6} {:>8} {:>16}", "d", "replay", "observe");
    for r in &ddpg_rows {
        println!("{:>6} {:>8} {:>14.1}us", r.d, r.replay, r.observe_us);
    }

    let gp_suggest_rows: Vec<GpSuggestRow> = ns.iter().map(|&n| gp_suggest_row(n, reps)).collect();
    println!("\nGP-BO suggest (1500 candidates against the cached factor):");
    println!("{:>6} {:>16} {:>16}", "n", "suggest", "EI scoring");
    for r in &gp_suggest_rows {
        println!("{:>6} {:>14.1}us {:>14.1}us", r.n, r.suggest_us, r.ei_score_us);
    }

    let retract_ns: &[usize] = if quick { &[26] } else { &[100, 200] };
    let mut retract_rows = Vec::new();
    for &n in retract_ns {
        retract_rows.push(retract_row(
            "gp_bo",
            || Box::new(GpBo::new(SearchSpec::continuous(DIMS), SEED)),
            n,
            q,
            rounds,
        ));
        retract_rows.push(retract_row(
            "smac",
            || Box::new(Smac::new(SearchSpec::continuous(DIMS), SmacConfig::default(), SEED)),
            n,
            q,
            rounds,
        ));
        retract_rows.push(retract_row(
            "ddpg",
            || {
                let config = DdpgConfig::default();
                Box::new(Ddpg::new(SearchSpec::continuous(DIMS), DEFAULT_METRIC_DIM, config, SEED))
            },
            n,
            q,
            rounds,
        ));
    }
    println!("\nConstant-liar retract (snapshot + restore + replay of a q = {q} round):");
    println!("{:>8} {:>6} {:>14}", "opt", "n", "retract");
    for r in &retract_rows {
        println!("{:>8} {:>6} {:>12.1}us", r.optimizer, r.n, r.retract_us);
    }

    // The regression artifact.
    let mut json = String::from("{\n  \"config\": ");
    let config = [
        ("dims", Field::Num(DIMS as f64)),
        ("quick", Field::Flag(quick)),
        ("reps", Field::Num(reps as f64)),
        ("q", Field::Num(q as f64)),
        ("rounds", Field::Num(rounds as f64)),
    ];
    write_object(&mut json, config, write_field);
    json.push_str(",\n  \"gp_observe\": [");
    for (i, r) in gp_rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [("n", r.n as f64), ("incremental_us", round(r.incremental_us, 2))];
        write_object(&mut json, members, write_f64);
    }
    json.push_str("\n  ],\n  \"smac_suggest\": [");
    for (i, r) in smac_rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [
            ("n", r.n as f64),
            ("cold_us", round(r.cold_us, 2)),
            ("warm_us", round(r.warm_us, 2)),
            ("speedup", round(ratio(r.cold_us, r.warm_us), 2)),
        ];
        write_object(&mut json, members, write_f64);
    }
    json.push_str("\n  ],\n  \"forest_fit\": [");
    for (i, r) in forest_rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [
            ("d", r.d as f64),
            ("n", r.n as f64),
            ("fit_us", round(r.fit_us, 2)),
            ("predict_1500_us", round(r.predict_1500_us, 2)),
        ];
        write_object(&mut json, members, write_f64);
    }
    json.push_str("\n  ],\n  \"ddpg_observe\": [");
    for (i, r) in ddpg_rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [
            ("d", r.d as f64),
            ("replay", r.replay as f64),
            ("observe_us", round(r.observe_us, 2)),
        ];
        write_object(&mut json, members, write_f64);
    }
    json.push_str("\n  ],\n  \"gp_suggest\": [");
    for (i, r) in gp_suggest_rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [
            ("n", r.n as f64),
            ("suggest_us", round(r.suggest_us, 2)),
            ("ei_score_us", round(r.ei_score_us, 2)),
        ];
        write_object(&mut json, members, write_f64);
    }
    json.push_str("\n  ],\n  \"retract\": [");
    for (i, r) in retract_rows.iter().enumerate() {
        json.push_str(if i == 0 { "\n    " } else { ",\n    " });
        let members = [
            ("optimizer", Field::Text(r.optimizer)),
            ("n", Field::Num(r.n as f64)),
            ("q", Field::Num(r.q as f64)),
            ("retract_us", Field::Num(round(r.retract_us, 2))),
        ];
        write_object(&mut json, members, write_field);
    }
    json.push_str("\n  ]\n}\n");
    println!("\nrecorded {}", record("BENCH_optimizer.json", &json).display());
}
