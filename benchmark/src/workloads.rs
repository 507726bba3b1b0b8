//! The five workloads. Each is a closed loop (a tuning client always
//! waits for a suggestion, evaluates, reports) of at most two load
//! threads, and each pass is a pure function of `--seed`: every timed
//! pass of a run repeats the same sessions, so per-pass wall times are
//! directly comparable and their median is the run's figure.
//!
//! What `--seed` selects: the measurement noise of the synthetic
//! evaluator in `store-append`, `store-resume` and `served`, the
//! fingerprint of the warm-start lookup, and the cell of output check
//! (a). It never selects a tuner's own seed, and `sim-bound` and
//! `opt-bound` run the same sessions on every seed. There, what a
//! session costs hangs on which configurations it tries — on the
//! simulated DBMS a crashing configuration is a hundred times cheaper
//! than a running one, and a model-based optimizer turns a 1e-4 change
//! of one score into another trajectory (measured over six seeds:
//! `sim-bound` 16.5 to 32.4 trials/s, `opt-bound` 8.9 to 17.8 MiB) — so
//! seeding them from `--seed` would make each run a draw from a lottery
//! wider than any change the benchmark is there to see.

use crate::layers::Aggregates;
use crate::seams::{overhead_us_per_trial, EngineCounts, Round};
use crate::session::{Cell, CellOutcome};
use crate::synth::{splitmix, SyntheticEvaluator};
use crate::trace::{maybe_span, SessionTrace};
use llamatune::history_io::{events_from_jsonl, events_to_jsonl, history_to_events};
use llamatune::pipeline::LlamaTuneConfig;
use llamatune::session::{SessionHistory, SessionOptions};
use llamatune_client::Client;
use llamatune_engine::RunOptions;
use llamatune_obs::trace::{RecordingTracer, Tracer};
use llamatune_runtime::{AdapterKind, CampaignOptions, CellSpec, OptimizerKind, SessionDriver};
use llamatune_server::wire::{CreateSession, Report, SuggestReply, WireResult, WireTrial};
use llamatune_server::{Server, ServerConfig, SessionRegistry};
use llamatune_space::ConfigSpace;
use llamatune_store::{
    rebuild_history, LocalDirBackend, SessionStatus, StoreBackend, StoreOptions, TrialStore,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workload names of `BENCHMARK.json`, in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    SimBound,
    OptBound,
    StoreAppend,
    StoreResume,
    Served,
}

impl Kind {
    pub const ALL: [Kind; 5] =
        [Kind::SimBound, Kind::OptBound, Kind::StoreAppend, Kind::StoreResume, Kind::Served];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SimBound => "sim-bound",
            Kind::OptBound => "opt-bound",
            Kind::StoreAppend => "store-append",
            Kind::StoreResume => "store-resume",
            Kind::Served => "served",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How much work one pass does. `full` is what `BENCHMARK.json` runs;
/// `smoke` is the same code at a size that finishes in about a second,
/// used for warm-up, for the unit tests, and in traced runs to measure
/// the layers the selected workload does not exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One in-process session of `sim-bound` or `opt-bound`.
struct Arm {
    workload: &'static str,
    adapter: AdapterKind,
    optimizer: OptimizerKind,
    /// The session's own seed (adapter projection, optimizer, LHS).
    seed: u64,
    iterations: usize,
    batch_size: usize,
    /// Evaluate on the simulated DBMS (else the synthetic evaluator).
    real: bool,
}

fn llamatune_adapter() -> AdapterKind {
    AdapterKind::LlamaTune(LlamaTuneConfig::default())
}

/// `sim-bound`: what a researcher reproducing a paper table pays — the
/// real evaluator with the per-workload default windows, LlamaTune +
/// SMAC, two trial workers, cache on.
fn sim_arms(scale: Scale) -> Vec<Arm> {
    let (ycsb, tpcc) = match scale {
        Scale::Full => (20, 8),
        Scale::Smoke => (4, 2),
    };
    let arm = |workload, seed, iterations| Arm {
        workload,
        adapter: llamatune_adapter(),
        optimizer: OptimizerKind::Smac,
        seed,
        iterations,
        batch_size: 2,
        real: true,
    };
    vec![arm("ycsb_a", 1, ycsb), arm("tpcc", 2, tpcc)]
}

/// `opt-bound`: what the tuner itself costs per trial when the DBMS is
/// somewhere else (paper Table 10) — free evaluation, the three
/// optimizers under LlamaTune, and vanilla SMAC on all 90 knobs.
fn opt_arms(scale: Scale) -> Vec<Arm> {
    let (iterations, identity) = match scale {
        Scale::Full => (100, 50),
        Scale::Smoke => (24, 16),
    };
    let arm = |adapter, optimizer, seed, iterations, batch_size| Arm {
        workload: SYNTHETIC_WORKLOAD,
        adapter,
        optimizer,
        seed,
        iterations,
        batch_size,
        real: false,
    };
    vec![
        arm(llamatune_adapter(), OptimizerKind::Smac, 1, iterations, 4),
        arm(llamatune_adapter(), OptimizerKind::GpBo, 2, iterations, 4),
        arm(llamatune_adapter(), OptimizerKind::Ddpg, 3, iterations, 1),
        arm(AdapterKind::Identity, OptimizerKind::Smac, 4, identity, 1),
    ]
}

/// Sessions of the store and served workloads: cheap enough (random
/// search, free evaluation) that store and wire are what is on the
/// clock.
#[derive(Debug, Clone, Copy)]
struct Fleet {
    /// Writer threads or client connections.
    lanes: usize,
    sessions_per_lane: usize,
    iterations: usize,
}

const FLEET_BATCH: usize = 4;

fn append_fleet(scale: Scale) -> Fleet {
    match scale {
        Scale::Full => Fleet { lanes: 2, sessions_per_lane: 8, iterations: 1000 },
        Scale::Smoke => Fleet { lanes: 2, sessions_per_lane: 2, iterations: 1000 },
    }
}

fn served_fleet(scale: Scale) -> Fleet {
    match scale {
        Scale::Full => Fleet { lanes: 2, sessions_per_lane: 2, iterations: 300 },
        Scale::Smoke => Fleet { lanes: 2, sessions_per_lane: 1, iterations: 400 },
    }
}

/// The workload name synthetic sessions carry: `SessionDriver` resolves
/// it and, store-backed, probes its fingerprint once per session.
const SYNTHETIC_WORKLOAD: &str = "ycsb_a";

/// Simulation window of that fingerprint probe, small enough that the
/// probe is under a millisecond and the store stays what is measured.
fn tiny_run_options() -> RunOptions {
    RunOptions { duration_s: 0.01, warmup_s: 0.002, max_txns: 100, ..RunOptions::default() }
}

/// Everything a pass needs that does not change between passes.
pub struct Env {
    pub catalog: ConfigSpace,
    pub seed: u64,
    /// The synthetic evaluator with the noise `--seed` selects.
    pub synthetic: SyntheticEvaluator,
    /// The same evaluator with one fixed noise draw, for `opt-bound`.
    pub noiseless: SyntheticEvaluator,
    /// Directory for temporary stores, inside the checkout.
    pub scratch: PathBuf,
}

impl Env {
    pub fn new(catalog: ConfigSpace, seed: u64, scratch: PathBuf) -> Self {
        let synthetic = SyntheticEvaluator::new(&catalog, splitmix(seed));
        let noiseless = SyntheticEvaluator::new(&catalog, 0);
        Env { catalog, seed, synthetic, noiseless, scratch }
    }
}

/// What one pass did and how long it took.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Trials completed (evaluated, or in `store-resume` replayed).
    pub trials: u64,
    /// Tuner-side microseconds per trial, one sample per round (per
    /// resumed session in `store-resume`).
    pub overhead_us: Vec<f64>,
    /// `(best − default) / default × 100` of every session.
    pub improvements: Vec<f64>,
    /// Exported history of every session, in a fixed order — what the
    /// output checks compare.
    pub exports: Vec<String>,
    /// Operations the tuner failed to complete.
    pub failed: u64,
    /// The process's peak resident memory when the pass ended, MiB.
    pub peak_rss_mb: f64,
    /// What the traced seams saw (traced passes only).
    pub layers: Option<Aggregates>,
    /// Sessions that finished while the clock ran, exported by
    /// [`Pass::stop_clock`] once it has stopped.
    finished: Vec<(String, SessionHistory)>,
}

impl Pass {
    /// Takes a finished session. Cheap, because it runs on the clock:
    /// the export is left for later, and the configurations, which the
    /// export does not carry and which are nine tenths of a history, are
    /// let go at once as the program's own paths let them go.
    fn absorb(&mut self, label: String, mut history: SessionHistory, rounds: &[Round]) {
        self.trials += history.scores.len() as u64;
        self.overhead_us.extend(overhead_us_per_trial(rounds));
        self.improvements.push(improvement_pct(history.default_score(), history.best_score()));
        history.configs = Vec::new();
        self.finished.push((label, history));
    }

    /// Records the pass's wall time, then does the benchmark's own
    /// bookkeeping off the clock.
    fn stop_clock(&mut self, start: Instant) {
        self.wall_s = start.elapsed().as_secs_f64();
        for (label, history) in self.finished.drain(..) {
            self.exports.push(export(&label, &history));
        }
    }

    fn merge(&mut self, other: Pass) {
        self.trials += other.trials;
        self.overhead_us.extend(other.overhead_us);
        self.improvements.extend(other.improvements);
        self.exports.extend(other.exports);
        self.finished.extend(other.finished);
        self.failed += other.failed;
        match (&mut self.layers, other.layers) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }
}

/// The paper's axis: how much better than the server default the best
/// configuration found is.
fn improvement_pct(default: f64, best: Option<f64>) -> f64 {
    (best.unwrap_or(default) - default) / default.abs() * 100.0
}

/// The process's `VmHWM`, MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))?;
    Ok(kib / 1024.0)
}

/// Empties `dir`, creating it if need be.
fn reset_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// A history as the JSONL every export path of the program produces.
pub fn export(label: &str, history: &SessionHistory) -> String {
    events_to_jsonl(&history_to_events(label, history))
}

fn campaign_options(iterations: usize, batch_size: usize, real: bool) -> CampaignOptions {
    // The paper's ten LHS points go with its hundred iterations; the
    // short `sim-bound` sessions keep the share, so that most of their
    // rounds are the optimizer's and the median overhead is one of those.
    let n_init = SessionOptions::default().n_init.min(iterations / 5);
    CampaignOptions {
        session: SessionOptions { iterations, n_init, ..SessionOptions::default() },
        batch_size,
        trial_workers: 2,
        run_options: (!real).then(tiny_run_options),
        ..CampaignOptions::default()
    }
}

/// Runs one cell traced or not and folds it into `pass`.
fn run_cell(cell: &Cell<'_>, traced: Option<Instant>, pass: &mut Pass) -> io::Result<()> {
    let label = cell.spec.label.clone();
    let outcome = match traced {
        None => cell.run()?,
        Some(origin) => {
            let trace = Arc::new(SessionTrace::new(label.clone(), origin));
            let engine = Arc::new(EngineCounts::default());
            let outcome = cell.run_traced(&trace, &engine)?;
            let layers = pass.layers.get_or_insert_with(Aggregates::default);
            layers.add_session(trace, cell, &outcome, &engine);
            outcome
        }
    };
    let CellOutcome { history, rounds, .. } = outcome;
    pass.absorb(label, history, &rounds);
    Ok(())
}

/// `sim-bound` and `opt-bound`: the arms one after the other, in
/// process, no store.
fn run_arms(env: &Env, arms: &[Arm], traced: Option<Instant>) -> io::Result<Pass> {
    let mut pass = Pass::default();
    let start = Instant::now();
    for arm in arms {
        let opts = campaign_options(arm.iterations, arm.batch_size, arm.real);
        let cell = Cell {
            catalog: &env.catalog,
            opts: &opts,
            spec: CellSpec::new(arm.workload, arm.adapter.clone(), arm.optimizer, arm.seed),
            eval_seed: Cell::driver_eval_seed(arm.seed),
            store: None,
            synthetic: (!arm.real).then_some(&env.noiseless),
        };
        run_cell(&cell, traced, &mut pass)?;
    }
    pass.stop_clock(start);
    Ok(pass)
}

/// Seed of the `index`-th session of a fleet.
fn fleet_seed(index: usize) -> u64 {
    1 + index as u64
}

fn fleet_cell_spec(index: usize) -> CellSpec {
    let seed = fleet_seed(index);
    CellSpec::new(SYNTHETIC_WORKLOAD, llamatune_adapter(), OptimizerKind::Random, seed)
}

/// Store options of the timed `store-append` passes: segments never
/// fill, so no pass seals one. Sealing syncs the segment to the disk,
/// and on a shared virtual disk that made the workload a measurement of
/// the disk's mood: ten 15 s runs spread by 25 % in trials/s with the
/// process two-thirds of its time in I/O wait, against 3 % when the
/// disk was quiet. What stays on the clock is encoding, the `write`
/// call into the page cache, the index and the store mutex; sealing
/// still runs in `store-resume`'s population and `store.compact_ms`.
fn unsealed() -> StoreOptions {
    StoreOptions { segment_records: usize::MAX }
}

/// `store-append`: writer threads, each a shared writer on one local
/// directory, each driving its sessions through the store-backed
/// driver. Leaves the populated store in `dir`.
fn append_pass(
    env: &Env,
    fleet: Fleet,
    dir: &Path,
    store_opts: StoreOptions,
    traced: Option<Instant>,
    tracer: Option<Arc<dyn Tracer>>,
) -> io::Result<Pass> {
    let mut opts = campaign_options(fleet.iterations, FLEET_BATCH, false);
    if let Some(tracer) = tracer {
        opts.tracer = tracer;
    }
    let backend: Arc<dyn StoreBackend> = Arc::new(LocalDirBackend::create(dir)?);
    let start = Instant::now();
    let lanes: Vec<io::Result<Pass>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..fleet.lanes)
            .map(|lane| {
                let (backend, opts, store_opts) = (backend.clone(), &opts, store_opts.clone());
                scope.spawn(move || {
                    let store = TrialStore::open_shared(backend, &format!("w{lane}"), store_opts)?;
                    let mut pass = Pass::default();
                    for s in 0..fleet.sessions_per_lane {
                        let cell = Cell {
                            catalog: &env.catalog,
                            opts,
                            spec: fleet_cell_spec(lane * fleet.sessions_per_lane + s),
                            eval_seed: 0,
                            store: Some(&store),
                            synthetic: Some(&env.synthetic),
                        };
                        run_cell(&cell, traced, &mut pass)?;
                    }
                    Ok(pass)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("writer thread panicked")).collect()
    });
    let mut pass = Pass::default();
    for lane in lanes {
        pass.merge(lane?);
    }
    pass.stop_clock(start);
    if let Some(layers) = &mut pass.layers {
        layers.store_bytes += dir_bytes(dir)?;
        layers.store_records += pass.trials;
    }
    Ok(pass)
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// A fresh 27-dimensional unit fingerprint for the warm-start lookup.
fn probe_fingerprint(seed: u64) -> Vec<f64> {
    let raw: Vec<f64> = (0..27u64).map(|i| (splitmix(seed ^ i) >> 11) as f64 + 1.0).collect();
    let norm = raw.iter().map(|x| x * x).sum::<f64>().sqrt();
    raw.iter().map(|x| x / norm).collect()
}

/// `store-resume`: reopen the populated store read-only, rebuild every
/// finished session from its records, export, look up a warm start.
fn resume_pass(env: &Env, fleet: Fleet, dir: &Path, traced: Option<Instant>) -> io::Result<Pass> {
    let opts = campaign_options(fleet.iterations, FLEET_BATCH, false);
    let trace = traced.map(|origin| Arc::new(SessionTrace::new("store-resume", origin)));
    let span = trace.as_deref();
    let mut pass = Pass::default();
    let start = Instant::now();
    let (exported, found) = maybe_span(span, "resume.pass", || -> io::Result<_> {
        let store = maybe_span(span, "store.open", || {
            let backend: Arc<dyn StoreBackend> = Arc::new(LocalDirBackend::create(dir)?);
            TrialStore::open_reader(backend, StoreOptions::default())
        })?;
        for index in 0..fleet.lanes * fleet.sessions_per_lane {
            let spec = fleet_cell_spec(index);
            let t0 = Instant::now();
            let history = match span {
                // The driver's rebuild, seam by seam.
                Some(t) => {
                    let meta = store.session_meta(&spec.label);
                    let meta = meta
                        .filter(|m| m.status == SessionStatus::Done)
                        .ok_or_else(|| io::Error::other("stored session is not done"))?;
                    let trials = t.span("store.trials_for", || store.trials_for(&spec.label));
                    t.span("store.rebuild_history", || rebuild_history(&trials, meta.stopped_at))
                }
                None => {
                    let driver = SessionDriver::new(&env.catalog, &opts, spec.clone());
                    driver.with_store(&store).run()?.history
                }
            };
            let replayed = history.scores.len().max(1) as f64;
            pass.overhead_us.push(t0.elapsed().as_secs_f64() * 1e6 / replayed);
            pass.absorb(spec.label, history, &[]);
        }
        let exported = maybe_span(span, "store.export", || store.export_jsonl());
        let found = maybe_span(span, "store.warm_points", || {
            let fingerprint = probe_fingerprint(env.seed);
            let done = |m: &llamatune_store::SessionMeta| m.status == SessionStatus::Done;
            store.nearest_session_where(&fingerprint, done).is_some()
                && !store.warm_points(&fingerprint, 5, 2.0, done).is_empty()
        });
        Ok((exported, found))
    })?;
    pass.stop_clock(start);

    if !found {
        pass.failed += 1;
    }
    // The store's own export must be the sessions' exports in label
    // order — the canonical transcript.
    let mut by_label: Vec<(String, &String)> =
        (0..pass.exports.len()).map(|i| fleet_cell_spec(i).label).zip(&pass.exports).collect();
    by_label.sort();
    if exported != by_label.into_iter().map(|(_, e)| e.as_str()).collect::<String>() {
        pass.failed += 1;
    }
    if let Some(t) = trace {
        let mut layers = Aggregates::default();
        layers.add_trace(t);
        layers.store_records += pass.trials;
        // Off the clock: what the JSONL codec costs per trial, on the
        // transcript just exported.
        let t0 = Instant::now();
        let events = events_from_jsonl(&exported).map_err(io::Error::other)?;
        let parsed = t0.elapsed();
        let t0 = Instant::now();
        let encoded = events_to_jsonl(&events);
        let per_trial = |d: Duration| vec![d.as_secs_f64() * 1e6 / events.len().max(1) as f64];
        layers.samples.insert("core.jsonl_encode_us_per_trial", per_trial(t0.elapsed()));
        layers.samples.insert("core.jsonl_parse_us_per_trial", per_trial(parsed));
        if encoded != exported {
            pass.failed += 1;
        }
        pass.layers = Some(layers);
    }
    Ok(pass)
}

/// What a served client does with a round: decode every configuration,
/// evaluate it on the synthetic evaluator, wrap the result for `report`.
pub fn evaluate_round(env: &Env, trials: &[WireTrial]) -> io::Result<Vec<WireResult>> {
    trials
        .iter()
        .map(|t| Ok(WireResult::from_eval(&env.synthetic.evaluate(&t.to_config()?))))
        .collect::<Result<_, llamatune_server::WireError>>()
        .map_err(|e| io::Error::other(e.to_string()))
}

/// One client connection's share of a `served` pass.
fn serve_lane(
    env: &Env,
    addr: &str,
    fleet: Fleet,
    lane: usize,
    traced: Option<Instant>,
) -> io::Result<Pass> {
    let client_err = |e: llamatune_client::ClientError| io::Error::other(e.to_string());
    let trace = traced.map(|origin| Arc::new(SessionTrace::new(format!("client{lane}"), origin)));
    let span = trace.as_deref();
    let mut pass = Pass::default();
    let mut client = Client::connect(addr).map_err(client_err)?;
    if span.is_some() {
        for _ in 0..PINGS {
            maybe_span(span, "client.ping", || client.ping()).map_err(client_err)?;
        }
    }
    for s in 0..fleet.sessions_per_lane {
        let create = CreateSession {
            workload: SYNTHETIC_WORKLOAD.to_string(),
            adapter: llamatune_adapter(),
            optimizer: OptimizerKind::Random.label().to_string(),
            seed: fleet_seed(lane * fleet.sessions_per_lane + s),
            iterations: fleet.iterations,
            n_init: campaign_options(fleet.iterations, FLEET_BATCH, false).session.n_init,
            batch_size: FLEET_BATCH,
        };
        // The loop of `llamatune_client::run_remote_session`, with the
        // synthetic evaluator in place of a local `WorkloadExecutor`.
        let jsonl = maybe_span(span, "client.session", || -> io::Result<String> {
            let attached =
                maybe_span(span, "client.create_session", || client.create_session(&create));
            let session = attached.map_err(client_err)?.session;
            loop {
                let asked = Instant::now();
                let reply =
                    maybe_span(span, "client.suggest_batch", || client.suggest_batch(&session));
                let SuggestReply::Round { round, trials } = reply.map_err(client_err)? else {
                    break;
                };
                let suggested = asked.elapsed();
                let results = evaluate_round(env, &trials)?;
                let report = Report { session: session.clone(), round, results };
                let reporting = Instant::now();
                maybe_span(span, "client.report", || client.report(&report)).map_err(client_err)?;
                let blocked = suggested + reporting.elapsed();
                pass.overhead_us.push(blocked.as_secs_f64() * 1e6 / trials.len().max(1) as f64);
                pass.trials += trials.len() as u64;
            }
            maybe_span(span, "client.export_history", || client.export_history(&session))
                .map_err(client_err)
        })?;
        pass.exports.push(jsonl);
    }
    if let Some(t) = trace {
        let mut layers = Aggregates::default();
        layers.add_trace(t);
        pass.layers = Some(layers);
    }
    Ok(pass)
}

/// Pings per connection in a traced `served` pass.
const PINGS: usize = 50;

/// [`improvement_pct`] from an exported history, all a client has.
fn exported_improvement_pct(jsonl: &str) -> io::Result<f64> {
    let events = events_from_jsonl(jsonl).map_err(io::Error::other)?;
    let default =
        events.first().map(|e| e.score).ok_or_else(|| io::Error::other("empty export"))?;
    Ok(improvement_pct(default, events.iter().skip(1).map(|e| e.score).reduce(f64::max)))
}

/// `served`: the daemon inside this process on an ephemeral loopback
/// port over a fresh local store, and `fleet.lanes` client connections
/// driving their sessions back to back. Only the clients are timed.
fn served_pass(env: &Env, fleet: Fleet, dir: &Path, traced: Option<Instant>) -> io::Result<Pass> {
    let backend: Arc<dyn StoreBackend> = Arc::new(LocalDirBackend::create(dir)?);
    let base =
        CampaignOptions { run_options: Some(tiny_run_options()), ..CampaignOptions::default() };
    let registry =
        Arc::new(SessionRegistry::new(backend, env.catalog.clone(), base, StoreOptions::default()));
    let cfg = ServerConfig { suggest_timeout: Duration::from_secs(30), ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", registry, cfg)?;
    let handle = server.handle()?;
    let addr = server.local_addr()?.to_string();
    let daemon = std::thread::spawn(move || server.serve());

    let start = Instant::now();
    let lanes: Vec<io::Result<Pass>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..fleet.lanes)
            .map(|lane| {
                let addr = addr.as_str();
                scope.spawn(move || serve_lane(env, addr, fleet, lane, traced))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut pass = Pass::default();
    pass.stop_clock(start);
    handle.shutdown();
    daemon.join().expect("daemon thread panicked")?;
    for lane in lanes {
        pass.merge(lane?);
    }
    for jsonl in &pass.exports {
        pass.improvements.push(exported_improvement_pct(jsonl)?);
    }
    Ok(pass)
}

/// A workload made ready to run passes: `store-resume` owns a populated
/// store, the others nothing.
pub struct Prepared {
    pub kind: Kind,
    pub scale: Scale,
    /// Exports of the population `store-resume` reads back.
    written: Vec<String>,
    dir: PathBuf,
}

impl Prepared {
    /// Builds whatever `kind` needs before its first pass.
    pub fn new(env: &Env, kind: Kind, scale: Scale) -> io::Result<Prepared> {
        let dir = env.scratch.join(format!("{}-{scale:?}", kind.name()));
        reset_dir(&dir)?;
        let mut written = Vec::new();
        if kind == Kind::StoreResume {
            let sealing = StoreOptions::default();
            written = append_pass(env, append_fleet(scale), &dir, sealing, None, None)?.exports;
        }
        Ok(Prepared { kind, scale, written, dir })
    }

    /// Runs one pass; `traced` carries the span clock's origin.
    pub fn pass(&self, env: &Env, traced: Option<Instant>) -> io::Result<Pass> {
        self.pass_with(env, traced, Variant::Plain)
    }

    /// [`Prepared::pass`], or the variation of it a per-layer metric asks
    /// for.
    pub fn pass_with(
        &self,
        env: &Env,
        traced: Option<Instant>,
        variant: Variant,
    ) -> io::Result<Pass> {
        let mut pass = match self.kind {
            Kind::SimBound => run_arms(env, &sim_arms(self.scale), traced)?,
            Kind::OptBound => run_arms(env, &opt_arms(self.scale), traced)?,
            Kind::StoreAppend => {
                reset_dir(&self.dir)?;
                let tracer = (variant == Variant::RecordingTracer)
                    .then(|| Arc::new(RecordingTracer::new()) as Arc<dyn Tracer>);
                append_pass(env, append_fleet(self.scale), &self.dir, unsealed(), traced, tracer)?
            }
            Kind::StoreResume => {
                let mut pass = resume_pass(env, append_fleet(self.scale), &self.dir, traced)?;
                // Output check (c): what was rebuilt is what was written.
                if pass.exports != self.written {
                    pass.failed += 1;
                }
                pass
            }
            Kind::Served => {
                reset_dir(&self.dir)?;
                let mut fleet = served_fleet(self.scale);
                if variant == Variant::SingleClient {
                    fleet.lanes = 1;
                }
                served_pass(env, fleet, &self.dir, traced)?
            }
        };
        pass.peak_rss_mb = peak_rss_mb()?;
        Ok(pass)
    }

    /// The directory holding this workload's store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The export of `served`'s first session when the same cell runs in
    /// process against the same evaluator — the reference of output
    /// check (b).
    pub fn served_reference(&self, env: &Env) -> io::Result<String> {
        let fleet = served_fleet(self.scale);
        let opts = campaign_options(fleet.iterations, FLEET_BATCH, false);
        let cell = Cell {
            catalog: &env.catalog,
            opts: &opts,
            spec: fleet_cell_spec(0),
            eval_seed: 0,
            store: None,
            synthetic: Some(&env.synthetic),
        };
        Ok(export(&cell.spec.label, &cell.run()?.history))
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        // Temporary stores go even when a check failed on the way.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Variations of a pass that only per-layer metrics ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Plain,
    /// `store-append` with the program's own `RecordingTracer` on.
    RecordingTracer,
    /// `served` with one client connection instead of two.
    SingleClient,
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_space::catalog::postgres_v9_6;

    /// An environment with its own scratch directory, removed on drop.
    struct TestEnv(Env);

    impl TestEnv {
        fn new(tag: &str, seed: u64) -> Self {
            let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-{tag}-{}", std::process::id()));
            TestEnv(Env::new(postgres_v9_6(), seed, scratch))
        }
    }

    impl Drop for TestEnv {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0.scratch);
        }
    }

    /// Two untraced and one traced smoke pass of `kind`.
    fn three_passes(tag: &str, kind: Kind, seed: u64) -> [Pass; 3] {
        let env = TestEnv::new(tag, seed);
        let prepared = Prepared::new(&env.0, kind, Scale::Smoke).unwrap();
        let run = |traced| prepared.pass(&env.0, traced).unwrap();
        [run(None), run(None), run(Some(Instant::now()))]
    }

    /// All five workloads at smoke size: no operation fails, the same
    /// seed repeats trial counts, histories and improvements exactly,
    /// and the traced pass computes what the untraced one does.
    #[test]
    fn smoke_passes_repeat_exactly_traced_or_not() {
        for kind in Kind::ALL {
            let [a, b, traced] = three_passes(kind.name(), kind, 7);
            for (what, other) in [("second pass", &b), ("traced pass", &traced)] {
                assert_eq!(a.trials, other.trials, "{} {what}", kind.name());
                assert_eq!(a.improvements, other.improvements, "{} {what}", kind.name());
                assert_eq!(a.exports, other.exports, "{} {what}", kind.name());
                assert_eq!(other.failed, 0, "{} {what}", kind.name());
            }
            assert!(a.trials > 0 && !a.overhead_us.is_empty() && !a.improvements.is_empty());
            assert!(a.improvements.iter().all(|i| i.is_finite()));
            assert!(a.layers.is_none() && traced.layers.is_some());
        }
    }

    #[test]
    fn different_seeds_generate_different_inputs() {
        let (one, two) = (TestEnv::new("seed1", 1), TestEnv::new("seed2", 2));
        let default = one.0.catalog.default_config();
        assert_ne!(
            one.0.synthetic.evaluate(&default).score,
            two.0.synthetic.evaluate(&default).score
        );
        assert_ne!(probe_fingerprint(1), probe_fingerprint(2));
        let norm: f64 = probe_fingerprint(1).iter().map(|x| x * x).sum();
        assert!((norm - 1.0).abs() < 1e-9, "fingerprints are unit vectors");
        // The stored histories differ in every score, not in their shape.
        let append = |env: &TestEnv| {
            Prepared::new(&env.0, Kind::StoreAppend, Scale::Smoke)
                .unwrap()
                .pass(&env.0, None)
                .unwrap()
        };
        let (a, b) = (append(&one), append(&two));
        assert_eq!(a.trials, b.trials);
        assert_ne!(a.exports, b.exports);
    }

    #[test]
    fn served_export_matches_the_in_process_reference() {
        let env = TestEnv::new("served-ref", 3);
        let prepared = Prepared::new(&env.0, Kind::Served, Scale::Smoke).unwrap();
        let pass = prepared.pass(&env.0, None).unwrap();
        assert_eq!(pass.exports[0], prepared.served_reference(&env.0).unwrap());
    }
}
