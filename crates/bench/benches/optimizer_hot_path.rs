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
//!   dominant term) and one `predict_batch` of 1500 points (how a
//!   suggestion scores its random candidates), at the LlamaTune width
//!   d = 16 and the vanilla 90-knob width.
//! * **DDPG observe** — one `Ddpg::observe` (reward, replay push, five
//!   minibatch training steps) at the LlamaTune width d = 16 and the
//!   vanilla 90-knob width, 27 metrics, with the replay buffer holding
//!   32 (the first trial that trains) and 100 (a paper session's end)
//!   transitions when the clock starts.
//! * **GP-BO suggest** — one `GpBo::suggest` (1500 candidates
//!   drawn and EI-scored against the cached factor) and, inside it, the
//!   scoring pass alone (`optim.gp.ei_score_ms`).
//! * **Constant-liar retract, q = 8** — GP-BO, SMAC and DDPG at n = 100
//!   and 200: the snapshot `BatchSuggest::suggest_batch` takes before
//!   fantasizing, plus the restore and the replay of the q real results
//!   in `observe_batch`.
//!
//! Results are printed as tables and recorded in `BENCH_optimizer.json`
//! (at the workspace root), the trajectory later changes regress
//! against:
//!
//!     cargo bench -p llamatune-bench --bench optimizer_hot_path
//!
//! `LLAMATUNE_QUICK=1` shrinks history sizes and repetitions to
//! smoke-test scale; such a run prints its tables and records nothing.

use llamatune_bench::artifact::{self, median, round, Artifact, Field::*, Row};
use llamatune_obs::MetricsRegistry;
use llamatune_optim::{
    Ddpg, GpBo, Observation, Optimizer, RandomForest, SearchSpec, Smac, DEFAULT_METRIC_DIM,
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

/// Times one GP observation at exactly history size `n`, repeatedly,
/// by rewinding through the optimizer's own snapshot/restore.
fn gp_observe_row(n: usize, reps: usize) -> Row<'static> {
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
    vec![("n", Num(n as f64)), ("incremental_us", Num(round(median(times), 2)))]
}

/// Times a SMAC suggestion with the forest invalidated (cold: must
/// fit) and with the forest cached from the previous suggestion (warm).
/// Each rep restores the snapshot taken before the first suggestion, so
/// the timed ones are always the 1st and 2nd: never an interleaved
/// random suggestion (every 9th), which would be near free.
fn smac_suggest_row(n: usize, reps: usize) -> Row<'static> {
    let mut smac = Smac::new(SearchSpec::continuous(DIMS), SEED);
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
    let (cold_us, warm_us) = (median(cold), median(warm));
    vec![
        ("n", Num(n as f64)),
        ("cold_us", Num(round(cold_us, 2))),
        ("warm_us", Num(round(warm_us, 2))),
        ("speedup", Num(round(ratio(cold_us, warm_us), 2))),
    ]
}

/// Times the SMAC surrogate by itself on a `d`-dim history of `n`
/// points: one fit, and the `predict_batch` of 1500
/// points a suggestion scores its random candidates with.
fn forest_fit_row(d: usize, n: usize, reps: usize) -> Row<'static> {
    let spec = SearchSpec::continuous(d);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xf0e5);
    let xs: Vec<Vec<f64>> = (0..n).map(|_| spec.sample(&mut rng)).collect();
    let ys: Vec<f64> =
        xs.iter().map(|x| -x.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>()).collect();
    let candidates: Vec<Vec<f64>> = (0..1500).map(|_| spec.sample(&mut rng)).collect();
    let (mut fit, mut predict) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let t = Instant::now();
        let forest = std::hint::black_box(RandomForest::fit(&spec, &xs, &ys, rep as u64));
        fit.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(forest.predict_batch(std::hint::black_box(&candidates)));
        predict.push(t.elapsed().as_secs_f64() * 1e6);
    }
    vec![
        ("d", Num(d as f64)),
        ("n", Num(n as f64)),
        ("fit_us", Num(round(median(fit), 2))),
        ("predict_1500_us", Num(round(median(predict), 2))),
    ]
}

/// Times `Ddpg::observe` with the replay buffer holding `replay`
/// transitions when the clock starts (filled before), on a `d`-dim space
/// with the DBMS's 27 metrics as a smooth function of the action. Each
/// timed observe adds one; the buffer's 2 000 cap is never reached, and a
/// training step samples a 32-transition minibatch whatever the buffer
/// holds, so every timed observe does the same work.
fn ddpg_observe_row(d: usize, replay: usize, reps: usize) -> Row<'static> {
    let mut ddpg = Ddpg::new(SearchSpec::continuous(d), SEED);
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
    vec![
        ("d", Num(d as f64)),
        ("replay", Num(replay as f64)),
        ("observe_us", Num(round(median(times), 2))),
    ]
}

/// Times one GP suggestion at history size `n`, and the share
/// of it the optimizer itself books to `optim.gp.ei_score_ms`.
fn gp_suggest_row(n: usize, reps: usize) -> Row<'static> {
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
    vec![
        ("n", Num(n as f64)),
        ("suggest_us", Num(round(median(suggest), 2))),
        ("ei_score_us", Num(round(median(ei_score), 2))),
    ]
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
) -> Row<'static> {
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
    vec![
        ("optimizer", Text(optimizer)),
        ("n", Num(n as f64)),
        ("q", Num(q as f64)),
        ("retract_us", Num(round(median(times), 2))),
    ]
}

fn ratio(slow: f64, fast: f64) -> f64 {
    if fast <= 0.0 {
        f64::INFINITY
    } else {
        slow / fast
    }
}

fn main() {
    let quick = artifact::quick();
    // History sizes are chosen so the probing observation does not land
    // on a refit boundary (refit_every = 5), which both paths pay alike.
    let (ns, reps, q, rounds): (&[usize], usize, usize, usize) =
        if quick { (&[12, 26], 5, 4, 2) } else { (&[50, 100, 200], 9, 8, 3) };

    let detail = format!(
        "suggest/observe/retract latency vs history size; {DIMS}-dim space, \
             medians over {reps} reps (retract: {rounds} rounds), q = {q}"
    );
    print!("{}", llamatune_obs::fmt::header("Optimizer hot path", &detail));
    let mut artifact = Artifact::new(vec![
        ("dims", Num(DIMS as f64)),
        ("quick", Flag(quick)),
        ("reps", Num(reps as f64)),
        ("q", Num(q as f64)),
        ("rounds", Num(rounds as f64)),
    ]);

    artifact.show(
        "gp_observe",
        "GP-BO observe, one new observation at history n (Cholesky append)",
        ns.iter().map(|&n| gp_observe_row(n, reps)).collect(),
    );
    artifact.show(
        "smac_suggest",
        "SMAC suggest, forest cold (fit) vs cached",
        ns.iter().map(|&n| smac_suggest_row(n, reps)).collect(),
    );
    artifact.show(
        "forest_fit",
        "SMAC's surrogate alone",
        [DIMS, 90]
            .iter()
            .flat_map(|&d| ns.iter().map(move |&n| forest_fit_row(d, n, reps)))
            .collect(),
    );
    artifact.show(
        "ddpg_observe",
        "DDPG observe, replay push + 5 minibatch steps, 27 metrics",
        [DIMS, 90]
            .iter()
            .flat_map(|&d| [32, 100].map(|replay| ddpg_observe_row(d, replay, reps)))
            .collect(),
    );
    artifact.show(
        "gp_suggest",
        "GP-BO suggest, 1500 candidates against the cached factor",
        ns.iter().map(|&n| gp_suggest_row(n, reps)).collect(),
    );

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
            || Box::new(Smac::new(SearchSpec::continuous(DIMS), SEED)),
            n,
            q,
            rounds,
        ));
        retract_rows.push(retract_row(
            "ddpg",
            || Box::new(Ddpg::new(SearchSpec::continuous(DIMS), SEED)),
            n,
            q,
            rounds,
        ));
    }
    let caption = format!("constant-liar retract, snapshot + restore + replay of a q = {q} round");
    artifact.show("retract", &caption, retract_rows);
    artifact.record("BENCH_optimizer.json");
}
