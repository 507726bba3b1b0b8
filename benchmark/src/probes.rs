//! Standalone layer probes: per-layer metrics that no workload's spans
//! can give, each a median over repetitions of one public call on
//! inputs generated from `--seed`. Every traced run takes all of them.

use crate::layers::Values;
use crate::stats::median;
use crate::synth::splitmix;
use crate::workloads::{evaluate_round, Env};
use llamatune::pipeline::LlamaTuneConfig;
use llamatune_math::Matrix;
use llamatune_runtime::{AdapterKind, CampaignOptions};
use llamatune_server::wire::{
    encode_ok, CreateSession, Report, Request, Response, SuggestReply, WireResult,
};
use llamatune_server::{Attach, SessionRegistry};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::KnobValue;
use llamatune_store::{LocalDirBackend, StoreBackend, StoreOptions, TrialStore};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median microseconds of `reps` calls of `f`.
fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples).expect("at least one repetition")
}

/// `space.catalog_build_us`: building the 90-knob PostgreSQL 9.6 space.
pub fn catalog_build_us() -> f64 {
    median_us(20, postgres_v9_6)
}

/// `math.*`: a full Cholesky factorization and a one-row append at
/// n = 200, on a Matérn-5/2 kernel matrix over seeded points of the
/// 16-dimensional LlamaTune space — the GP surrogate's two hot calls.
fn math(seed: u64, out: &mut Values) {
    const N: usize = 200;
    const DIMS: u64 = 16;
    const JITTER: f64 = 1e-6;
    let unit = |i: u64| (splitmix(seed ^ i) >> 11) as f64 / (1u64 << 53) as f64;
    let points: Vec<Vec<f64>> =
        (0..N as u64).map(|p| (0..DIMS).map(|d| unit(p * DIMS + d)).collect()).collect();
    let kernel = |i: usize, j: usize| {
        let r2: f64 = points[i].iter().zip(&points[j]).map(|(a, b)| (a - b) * (a - b)).sum();
        let s = (5.0 * r2).sqrt();
        (1.0 + s + 5.0 * r2 / 3.0) * (-s).exp()
    };
    let full = Matrix::from_symmetric_fn(N, kernel);
    out.insert(
        "math.cholesky_n200_us",
        median_us(20, || full.cholesky(JITTER).expect("kernel matrix is positive definite")),
    );
    let head = Matrix::from_symmetric_fn(N - 1, kernel)
        .cholesky(JITTER)
        .expect("kernel matrix is positive definite");
    let last_row: Vec<f64> = (0..N).map(|j| kernel(N - 1, j)).collect();
    out.insert(
        "math.cholesky_append_n200_us",
        median_us(50, || head.cholesky_append_row(&last_row, JITTER).expect("positive definite")),
    );
}

/// `server.wire_*`: the three messages of one batch-4 round — the
/// `suggest_batch` request, its reply, the `report` request — encoded
/// and decoded standalone, no socket.
fn wire(env: &Env, out: &mut Values) {
    const SESSION: &str = "ycsb_a/llamatune/random/s1";
    let default = env.catalog.default_config();
    let trials: Vec<(usize, Vec<KnobValue>)> =
        (11..15).map(|iteration| (iteration, default.values().to_vec())).collect();
    let results: Vec<WireResult> =
        (0..4).map(|_| WireResult::from_eval(&env.synthetic.evaluate(&default))).collect();
    let report = Report { session: SESSION.to_string(), round: 11, results };
    let session_params = format!("{{\"session\":\"{SESSION}\"}}");
    let encode = || {
        [
            Request::encode(7, "suggest_batch", &session_params),
            encode_ok(7, &SuggestReply::from_trials(11, &trials).encode()),
            Request::encode(8, "report", &report.encode()),
        ]
    };
    out.insert("server.wire_encode_us", median_us(200, encode));
    let [suggest, reply, reported] = encode();
    let decode = || {
        let asked = Request::decode(&suggest).expect("round-trips");
        let body = Response::decode(&reply).expect("round-trips").result.expect("ok reply");
        let round = SuggestReply::decode(&body).expect("round-trips");
        let told = Request::decode(&reported).expect("round-trips");
        (asked, round, Report::decode(&told.params).expect("round-trips"))
    };
    out.insert("server.wire_decode_us", median_us(200, decode));
}

/// `server.registry_round_us`: one round through
/// `SessionRegistry::{suggest, report}` called directly — everything a
/// served round costs except the wire.
fn registry_round(env: &Env, dir: &Path, out: &mut Values) -> io::Result<()> {
    let backend: Arc<dyn StoreBackend> = Arc::new(LocalDirBackend::create(dir)?);
    let registry = SessionRegistry::new(
        backend,
        env.catalog.clone(),
        CampaignOptions::default(),
        StoreOptions::default(),
    );
    let create = CreateSession {
        workload: "ycsb_a".to_string(),
        adapter: AdapterKind::LlamaTune(LlamaTuneConfig::default()),
        optimizer: "random".to_string(),
        seed: env.seed,
        iterations: 400,
        n_init: 10,
        batch_size: 4,
    };
    let wire_err = |e: llamatune_server::WireError| io::Error::other(e.to_string());
    let Attach::Live { label, .. } = registry.attach(&create).map_err(wire_err)? else {
        return Err(io::Error::other("a fresh store holds a finished session"));
    };
    let mut rounds = Vec::new();
    loop {
        let t0 = Instant::now();
        let reply = registry.suggest(&label, Duration::from_secs(30)).map_err(wire_err)?;
        let mut blocked = t0.elapsed();
        let SuggestReply::Round { round, trials } = reply else { break };
        let results = evaluate_round(env, &trials)?;
        let t0 = Instant::now();
        registry.report(&Report { session: label.clone(), round, results }).map_err(wire_err)?;
        blocked += t0.elapsed();
        rounds.push(blocked.as_secs_f64() * 1e6);
    }
    registry.shutdown_all();
    out.insert("server.registry_round_us", median(&rounds).expect("the session ran rounds"));
    Ok(())
}

/// `store.compact_ms`: one `compact()` of a store the fleet populated,
/// through a writer handle that reclaims the first writer's tag.
pub fn compact_ms(dir: &Path) -> io::Result<f64> {
    let backend: Arc<dyn StoreBackend> = Arc::new(LocalDirBackend::create(dir)?);
    let store = TrialStore::open_shared(backend, "w0", StoreOptions::default())?;
    let t0 = Instant::now();
    let stats = store.compact()?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if stats.trial_records_after == 0 {
        return Err(io::Error::other("compaction found no trial records"));
    }
    Ok(ms)
}

/// Runs every probe that needs no workload pass.
pub fn standalone(env: &Env, out: &mut Values) -> io::Result<()> {
    out.insert("space.catalog_build_us", catalog_build_us());
    math(env.seed, out);
    wire(env, out);
    let dir = env.scratch.join("probe-registry");
    std::fs::create_dir_all(&dir)?;
    let outcome = registry_round(env, &dir, out);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}
