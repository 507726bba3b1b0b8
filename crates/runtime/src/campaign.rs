//! The campaign scheduler: fans a grid of tuning sessions across
//! threads.
//!
//! A campaign is the cross product (workload × adapter × optimizer ×
//! seed). Each cell runs through one [`SessionDriver`] — the single
//! execution path shared with the `llamatune-server` daemon — and the
//! campaign layer only decides *where* drivers run and where they
//! persist. There are three entry points, one per persistence mode:
//! [`Campaign::run`] (in memory), [`Campaign::resume`] (checkpointed
//! into one [`TrialStore`]) and [`Campaign::run_fleet`] (N shared
//! writers over one [`StoreBackend`], pulling sessions from a queue).
//! All three fan out through [`llamatune::par::ordered_map`]: `run` and
//! `resume` map the grid over `session_parallelism`, `run_fleet` maps
//! its worker tags.
//!
//! Determinism: every session's history is a pure function of
//! (workload, adapter, optimizer, session seed, batch size). Neither
//! `trial_workers` nor `session_parallelism` nor fleet worker counts
//! influence any recorded number — they only change wall-clock time.

use crate::driver::{CellSpec, SessionDriver};
use crate::policy::ExecutionPolicy;
use llamatune::par::ordered_map;
use llamatune::pipeline::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
use llamatune::session::{SessionHistory, SessionOptions};
use llamatune_engine::RunOptions;
use llamatune_obs::trace::{FanoutTracer, NoopTracer, RecordingTracer, Tracer};
use llamatune_obs::{MetricsRegistry, MetricsSnapshot, ProgressSink};
use llamatune_space::ConfigSpace;
use llamatune_store::{StoreBackend, StoreOptions, TrialStore};
use llamatune_workloads::FaultPlan;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which search-space adapter a campaign arm uses. Both kinds build
/// the one [`LlamaTunePipeline`]; they differ only in which of its
/// stages are on.
#[derive(Debug, Clone)]
pub enum AdapterKind {
    /// The pipeline with every stage off ([`LlamaTuneConfig::IDENTITY`]):
    /// one optimizer dimension per knob, the vanilla baseline.
    Identity,
    /// The pipeline with the stages `config` keeps (projection, biasing,
    /// bucketization; the default keeps all three).
    LlamaTune(LlamaTuneConfig),
}

impl AdapterKind {
    /// Short label used in session names.
    pub fn label(&self) -> &'static str {
        match self {
            AdapterKind::Identity => "identity",
            AdapterKind::LlamaTune(_) => "llamatune",
        }
    }

    /// The pipeline's stages.
    fn config(&self) -> &LlamaTuneConfig {
        match self {
            AdapterKind::Identity => &LlamaTuneConfig::IDENTITY,
            AdapterKind::LlamaTune(cfg) => cfg,
        }
    }

    /// Builds the adapter over `space`, seeded per session (the
    /// projection matrix varies with the seed, as in the paper).
    pub fn build(&self, space: &ConfigSpace, seed: u64) -> Box<dyn SearchSpaceAdapter> {
        Box::new(LlamaTunePipeline::new(space, self.config(), seed))
    }

    /// Full identity of the adapter a session decodes through: every
    /// stage's hyperparameters and the session seed. Two sessions map
    /// optimizer-space points to the same configurations iff their
    /// identity tags are equal — the precondition for transferring
    /// points between them (recorded in the store's session metadata,
    /// so a tag once written never changes). With every stage off the
    /// tag is `identity/s{seed}`; a tag without a projection leaves out
    /// its `d`.
    pub fn identity_tag(&self, seed: u64) -> String {
        let cfg = self.config();
        let projection = match (cfg.projection, cfg.special_value_bias, cfg.bucket_count) {
            (None, None, None) => return format!("identity/s{seed}"),
            (None, ..) => String::new(),
            (Some(kind), ..) => format!("-d{}-{}", cfg.target_dim, kind.name()),
        };
        let off = |v: Option<String>| v.unwrap_or_else(|| "off".to_string());
        let bias = off(cfg.special_value_bias.map(|p| p.to_string()));
        let buckets = off(cfg.bucket_count.map(|k| k.to_string()));
        format!("llamatune{projection}-b{bias}-k{buckets}/s{seed}")
    }
}

pub use llamatune_optim::OptimizerKind;

/// The session grid of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Workload names (must resolve via `workload_by_name`).
    pub workloads: Vec<String>,
    /// Adapter arms.
    pub adapters: Vec<AdapterKind>,
    /// Optimizer arms.
    pub optimizers: Vec<OptimizerKind>,
    /// Session seeds.
    pub seeds: Vec<u64>,
}

/// How a store-backed campaign warm-starts sessions from past
/// campaigns (see `llamatune_store::transfer`).
#[derive(Debug, Clone)]
pub struct WarmStartOptions {
    /// Number of initial trials seeded from the matched session's top
    /// configurations (capped by the session's `n_init`).
    pub k: usize,
    /// Maximum fingerprint cosine distance for a match; farther
    /// sessions are ignored and the session falls back to pure LHS.
    pub max_distance: f64,
}

impl Default for WarmStartOptions {
    fn default() -> Self {
        WarmStartOptions { k: 5, max_distance: 0.25 }
    }
}

/// Execution knobs of a campaign: every field is public and `Default`
/// is sensible, so callers write a struct literal.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Per-session loop parameters (iterations, n_init, early stop; the
    /// per-cell session seed overrides `session.seed`).
    pub session: SessionOptions,
    /// Trials per suggest→evaluate round (q of the constant liar).
    pub batch_size: usize,
    /// Worker threads evaluating one session's batch of trials; nothing
    /// else takes its width from this (optimizers run single-threaded).
    pub trial_workers: usize,
    /// Sessions running concurrently.
    pub session_parallelism: usize,
    /// Wrap optimizers in constant-liar [`BatchSuggest`] when
    /// `batch_size > 1` (otherwise batches fall back to the optimizer's
    /// naive `suggest_batch`). Store-backed campaigns wrap whenever
    /// this is set, regardless of batch size: the wrapper restores each
    /// round's pre-fantasy snapshot, which keeps optimizer state a pure
    /// function of the recorded history and so makes resumed optimizer
    /// state bit-identical.
    ///
    /// [`BatchSuggest`]: crate::BatchSuggest
    pub constant_liar: bool,
    /// Warm-start sessions from similar stored campaigns (store-backed
    /// campaigns only; `None` disables transfer).
    pub warm_start: Option<WarmStartOptions>,
    /// Override the runner's simulation window (tests and benches use
    /// shorter windows than the per-workload defaults).
    pub run_options: Option<RunOptions>,
    /// Deterministic fault injection: wrap every session's runner in a
    /// [`FaultyRunner`](llamatune_workloads::FaultyRunner) with this
    /// plan (`None` = faults off). Chaos testing only; the plan's seed
    /// is part of the determinism contract, exactly like the session
    /// seed.
    pub fault_plan: Option<FaultPlan>,
    /// Trial-level fault-tolerance policy (watchdog and retry; a trial
    /// that still fails is quarantined in the session's
    /// [`EvalCache`](crate::EvalCache)). The default is inert on healthy
    /// evaluations.
    pub policy: ExecutionPolicy,
    /// Wrap each session's optimizer in a `GuardedOptimizer`: a panic
    /// or numerical failure inside the optimizer degrades that round to
    /// random-search suggestions (recorded in
    /// `SessionHistory::degradations`) instead of killing the session.
    /// Pass-through on healthy runs — the fallback RNG advances only on
    /// degradation.
    pub guard: bool,
    /// Structured-trace sink shared by every session of the campaign;
    /// each session labels its spans with its cell label. The default
    /// [`NoopTracer`] keeps tracing compiled-out-cheap; pass a
    /// `RecordingTracer` to capture the campaign's span stream.
    /// Strictly out-of-band: recorded histories and checkpoints are
    /// byte-identical with tracing on or off.
    pub tracer: Arc<dyn Tracer>,
    /// Live progress sink shared by every session: one
    /// [`llamatune_obs::ProgressUpdate`] per completed round, emitted
    /// from the session fold path while the campaign runs. `None` (the
    /// default) emits nothing. Like the tracer, strictly out-of-band.
    pub progress: Option<Arc<dyn ProgressSink>>,
    /// Campaign-wide live metrics registry: when set, every session's
    /// private registry forwards its writes here
    /// ([`MetricsRegistry::with_parent`]), so a scrape of this registry
    /// ([`llamatune_obs::prometheus_text`] over its snapshot) sees the
    /// whole campaign accumulate in real time. Per-session
    /// snapshots in [`CampaignResult::metrics`] stay session-scoped
    /// either way.
    pub live_metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            session: SessionOptions::default(),
            batch_size: 4,
            trial_workers: 4,
            session_parallelism: 1,
            constant_liar: true,
            warm_start: None,
            run_options: None,
            fault_plan: None,
            policy: ExecutionPolicy::default(),
            guard: true,
            tracer: Arc::new(NoopTracer),
            progress: None,
            live_metrics: None,
        }
    }
}

/// One finished session of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// `workload/adapter/optimizer/s<seed>`.
    pub label: String,
    pub workload: String,
    pub adapter: String,
    pub optimizer: String,
    pub seed: u64,
    pub history: SessionHistory,
    /// Everything this session — and only this session — counted and
    /// timed: what the execution-policy layer did (`policy.timeouts`,
    /// `retries`, `panics_caught`, `quarantine_hits`; all zero under the
    /// inert default policy on healthy workloads, except
    /// `quarantine_hits`, which fires whenever a crashed configuration
    /// is re-suggested), the cache counters (`cache.hits` counts trials
    /// answered with a measured result; `cache.misses` counts the
    /// distinct configurations of a batch that were not — run, or
    /// answered from quarantine — so a within-batch duplicate is
    /// neither), the `session.*_ms`
    /// phase-latency histograms and its optimizer's `optim.*` hot-path
    /// timings. Empty for sessions rebuilt from a store without running.
    pub metrics: MetricsSnapshot,
}

/// A configured campaign, ready to run.
pub struct Campaign {
    catalog: ConfigSpace,
    spec: CampaignSpec,
    opts: CampaignOptions,
}

impl Campaign {
    /// Creates a campaign tuning `catalog` over the given grid.
    pub fn new(catalog: ConfigSpace, spec: CampaignSpec, opts: CampaignOptions) -> Self {
        Campaign { catalog, spec, opts }
    }

    /// The campaign's session grid in run order — one [`CellSpec`] per
    /// (workload × adapter × optimizer × seed) combination, each
    /// directly runnable through a [`SessionDriver`].
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for w in &self.spec.workloads {
            for a in &self.spec.adapters {
                for o in &self.spec.optimizers {
                    for &seed in &self.spec.seeds {
                        cells.push(CellSpec::new(w.clone(), a.clone(), *o, seed));
                    }
                }
            }
        }
        cells
    }

    /// Runs every session of the grid in memory, `session_parallelism`
    /// at a time.
    pub fn run(&self) -> Vec<CampaignResult> {
        self.run_grid(None).expect("in-memory campaign performs no fallible I/O")
    }

    /// Resumes (or starts) the campaign from a persistent store: every
    /// completed trial is flushed to the store before the next round is
    /// suggested, sessions already recorded as finished are
    /// reconstructed without re-running anything, and interrupted
    /// sessions resume from their last recorded round boundary. Calling
    /// this on an empty store is simply a checkpointed run — open the
    /// store a crashed process left behind, call `resume`, and the
    /// campaign continues where it stopped.
    ///
    /// Determinism: a campaign checkpointed into a store, killed at any
    /// trial boundary, and resumed produces a byte-identical exported
    /// event history to the same campaign run uninterrupted (pinned by
    /// `crates/store/tests/checkpoint_resume.rs`). The guarantee
    /// requires `constant_liar` (the default): optimizer state is then
    /// a pure function of the recorded observation history.
    ///
    /// With [`CampaignOptions::warm_start`] set, a session starting
    /// from scratch probes its workload's fingerprint and seeds its
    /// first *k* initialization trials from the most similar finished
    /// session in the store (matching adapter and seed, so transferred
    /// points decode identically). The chosen warm points are persisted
    /// in the session's metadata — a resume reuses them verbatim even
    /// if the store has since learned better candidates.
    pub fn resume(&self, store: &TrialStore) -> io::Result<Vec<CampaignResult>> {
        store.set_tracer(self.opts.tracer.clone());
        let results = self.run_grid(Some(store))?;
        // Named after the writer (`local` for `TrialStore::open`); a
        // reader writes nothing.
        if let Some(writer) = store.writer().filter(|_| self.opts.tracer.enabled()) {
            let sessions = results.iter().map(|r| &r.metrics);
            let backend = store.backend().as_ref();
            persist_telemetry(backend, writer, &*self.opts.tracer, sessions, store.cas_retries())?;
        }
        Ok(results)
    }

    /// Maps the grid over `session_parallelism` threads, each cell one
    /// driver run (checkpointed into `store` when given), in grid order.
    /// Every cell runs; the first failed one is the error.
    fn run_grid(&self, store: Option<&TrialStore>) -> io::Result<Vec<CampaignResult>> {
        ordered_map(self.opts.session_parallelism, &self.cells(), |cell| {
            let driver = SessionDriver::new(&self.catalog, &self.opts, cell.clone());
            match store {
                Some(store) => driver.with_store(store).run(),
                None => driver.run(),
            }
        })
        .into_iter()
        .collect()
    }

    /// Runs the campaign as a *fleet*: `workers` threads each register
    /// as a shared writer on `backend` (tags `w0..`, via
    /// [`TrialStore::open_shared`]) and pull sessions from a shared
    /// queue, so N workers append into one knowledge base — local
    /// directory or object store alike. Each worker leases the sessions
    /// it runs through [`llamatune_store::SessionMeta::lease`],
    /// refreshes its merged view of the store before every claim
    /// (finished sessions are rebuilt without re-evaluation, and
    /// warm-start transfer sees what the whole fleet has learned so
    /// far), and checkpoints per trial exactly like [`Campaign::resume`].
    ///
    /// Crash/resume semantics are the fleet generalization of the
    /// single-store contract: kill any worker (or the whole fleet) at
    /// any point, run the fleet again with any worker count, and the
    /// store's exported event history converges to the uninterrupted
    /// run's, byte for byte — sessions are pure functions of their
    /// recorded history, dead workers' partial rounds are re-run
    /// deterministically, and dead workers' registered active segments
    /// are reclaimed by the next fleet. A worker that fails to open the
    /// store steps aside — the first such error is returned only when no
    /// worker opened it, so no session ran. A worker that hits a storage
    /// error mid-session reports it for that session and moves on; the
    /// first error is returned after every queued session has been
    /// attempted.
    pub fn run_fleet(
        &self,
        backend: Arc<dyn StoreBackend>,
        workers: usize,
        store_opts: StoreOptions,
    ) -> io::Result<Vec<CampaignResult>> {
        let cells = self.cells();
        let tags: Vec<String> =
            (0..workers.clamp(1, cells.len().max(1))).map(|w| format!("w{w}")).collect();
        let next = AtomicUsize::new(0);
        let outcomes = ordered_map(tags.len(), &tags, |tag| {
            let store = TrialStore::open_shared(backend.clone(), tag, store_opts.clone())
                .map_err(|e| io::Error::new(e.kind(), format!("fleet worker {tag}: {e}")))?;
            // Tee this worker's spans into a private recorder, persisted
            // as the `telemetry-<tag>.*` pair; the caller's tracer keeps
            // seeing the whole campaign.
            let traced = self.opts.tracer.enabled();
            let recorder = Arc::new(RecordingTracer::new());
            let tracer: Arc<dyn Tracer> = if traced {
                Arc::new(FanoutTracer::new(recorder.clone(), self.opts.tracer.clone()))
            } else {
                self.opts.tracer.clone()
            };
            store.set_tracer(tracer.clone());
            let (mut ran, mut worker_metrics) = (Vec::new(), MetricsSnapshot::default());
            loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(cell) = cells.get(i) else { break };
                let res = store.refresh().and_then(|()| {
                    SessionDriver::new(&self.catalog, &self.opts, cell.clone())
                        .with_store(&store)
                        .with_tracer(tracer.clone())
                        .run()
                });
                if let Ok(r) = &res {
                    worker_metrics.merge(&r.metrics);
                }
                ran.push((i, res));
            }
            let persisted = if traced {
                let (backend, retries) = (store.backend().as_ref(), store.cas_retries());
                persist_telemetry(backend, tag, &*recorder, [&worker_metrics], retries)
            } else {
                Ok(())
            };
            Ok((ran, persisted))
        });
        let (mut ran, mut open_failure, mut telemetry) = (Vec::new(), None, Ok(()));
        for outcome in outcomes {
            match outcome {
                Ok((sessions, persisted)) => {
                    ran.extend(sessions);
                    telemetry = telemetry.and(persisted);
                }
                Err(e) => open_failure = open_failure.or(Some(e)),
            }
        }
        // Any worker that opened the store drained the whole queue, so
        // sessions are left unrun only when none did.
        if let Some(e) = open_failure.filter(|_| ran.len() < cells.len()) {
            return Err(e);
        }
        ran.sort_unstable_by_key(|&(i, _)| i);
        let results = ran.into_iter().map(|(_, res)| res).collect::<io::Result<_>>()?;
        telemetry.map(|()| results)
    }
}

/// Writes one store writer's telemetry pair next to the trial segments:
/// `telemetry-<tag>.trace.jsonl` (the spans `tracer` holds) and
/// `telemetry-<tag>.metrics.json` — the sum of `snapshots` plus
/// `cas_retries`, the `store.cas_retries` of the handle the sessions
/// behind them wrote through. Callers write telemetry only when a live
/// tracer is installed, so untraced runs leave backend contents
/// byte-identical; telemetry objects never match the `seg-` pattern and
/// never enter the manifest, so they cannot perturb recovery or
/// checkpoint bytes either way.
fn persist_telemetry<'a>(
    backend: &dyn StoreBackend,
    tag: &str,
    tracer: &dyn Tracer,
    snapshots: impl IntoIterator<Item = &'a MetricsSnapshot>,
    cas_retries: u64,
) -> std::io::Result<()> {
    if let Some(jsonl) = tracer.export_jsonl() {
        backend.put(&format!("telemetry-{tag}.trace.jsonl"), jsonl.as_bytes())?;
    }
    let mut metrics = MetricsSnapshot::merged(snapshots);
    *metrics.counters.entry("store.cas_retries".to_string()).or_insert(0) += cas_retries;
    backend.put(&format!("telemetry-{tag}.metrics.json"), metrics.to_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_space::catalog::postgres_v9_6;
    use llamatune_store::SessionStatus;

    fn quick_opts() -> CampaignOptions {
        let run_opts =
            RunOptions { duration_s: 0.2, warmup_s: 0.05, max_txns: 20_000, ..Default::default() };
        CampaignOptions {
            session: SessionOptions { iterations: 8, n_init: 3, ..Default::default() },
            batch_size: 3,
            trial_workers: 2,
            session_parallelism: 2,
            run_options: Some(run_opts),
            ..Default::default()
        }
    }

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            workloads: vec!["ycsb_b".into(), "ycsb_f".into()],
            adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
            optimizers: vec![OptimizerKind::Random],
            seeds: vec![1, 2],
        }
    }

    #[test]
    fn campaign_covers_the_grid() {
        let campaign = Campaign::new(postgres_v9_6(), small_spec(), quick_opts());
        let results = campaign.run();
        assert_eq!(results.len(), 4, "2 workloads x 1 adapter x 1 optimizer x 2 seeds");
        for r in &results {
            assert_eq!(r.history.scores.len(), 9, "{}: default + 8 iterations", r.label);
            assert!(r.history.best_score().is_some());
        }
    }

    fn tmp_store(tag: &str) -> TrialStore {
        let dir = std::env::temp_dir()
            .join("llamatune_campaign_store")
            .join(format!("{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TrialStore::open(dir).unwrap()
    }

    #[test]
    fn store_backed_campaign_matches_plain_run_and_resumes_for_free() {
        let campaign = Campaign::new(postgres_v9_6(), small_spec(), quick_opts());
        let plain = campaign.run();
        let store = tmp_store("match_plain");
        let stored = campaign.resume(&store).unwrap();
        assert_eq!(plain.len(), stored.len());
        for (a, b) in plain.iter().zip(&stored) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.history.scores, b.history.scores);
            assert_eq!(a.history.raw_scores, b.history.raw_scores);
            assert_eq!(a.history.points, b.history.points);
        }
        // Every trial of every session is persisted, plus Done metadata.
        assert_eq!(store.trial_count(), 4 * 9);
        for r in &stored {
            let m = store.session_meta(&r.label).expect("meta recorded");
            assert_eq!(m.status, SessionStatus::Done);
            assert!(!m.fingerprint.is_empty(), "fingerprint probed and persisted");
        }
        // Resuming a finished campaign re-evaluates nothing: the trial
        // record count is unchanged and histories are rebuilt bit-equal.
        let records_before = store.trial_records();
        let resumed = campaign.resume(&store).unwrap();
        assert_eq!(store.trial_records(), records_before, "no re-evaluation on resume");
        for (a, b) in stored.iter().zip(&resumed) {
            assert_eq!(a.history.scores, b.history.scores);
            assert_eq!(a.history.best_curve, b.history.best_curve);
            assert_eq!(a.history.configs, b.history.configs);
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn store_campaign_with_parallel_sessions_checkpoints_everything() {
        let opts = CampaignOptions { session_parallelism: 4, ..quick_opts() };
        let campaign = Campaign::new(postgres_v9_6(), small_spec(), opts);
        let store = tmp_store("parallel_lanes");
        let results = campaign.resume(&store).unwrap();
        assert_eq!(results.len(), 4);
        // Concurrent lanes interleave appends; the export still regroups
        // into exactly the recorded histories.
        let events = store.export_events();
        let curves = llamatune::history_io::session_curves(&events).unwrap();
        assert_eq!(curves.len(), 4);
        for r in &results {
            let (scores, raw) = &curves[&r.label];
            assert_eq!(scores, &r.history.scores);
            assert_eq!(raw, &r.history.raw_scores);
        }
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn warm_start_seeds_init_from_a_similar_stored_session() {
        let catalog = postgres_v9_6();
        // Source campaign: ycsb_a with SMAC, finished and stored.
        let source_spec = CampaignSpec {
            workloads: vec!["ycsb_a".into()],
            optimizers: vec![OptimizerKind::Smac],
            ..small_spec()
        };
        let mut opts = quick_opts();
        opts.session_parallelism = 1;
        let store = tmp_store("warm");
        Campaign::new(catalog.clone(), source_spec, opts.clone()).resume(&store).unwrap();
        // Target campaign: ycsb_f (fingerprint-adjacent), warm start on.
        let target_spec = CampaignSpec {
            workloads: vec!["ycsb_f".into()],
            optimizers: vec![OptimizerKind::Smac],
            seeds: vec![1],
            ..small_spec()
        };
        opts.warm_start = Some(WarmStartOptions { k: 2, max_distance: 1.9 });
        let campaign = Campaign::new(catalog, target_spec, opts);
        let results = campaign.resume(&store).unwrap();
        let target = &results[0];
        let meta = store.session_meta(&target.label).unwrap();
        assert_eq!(meta.warm_points.len(), 2, "two points transferred from the source");
        // The transferred points come from the matched source session
        // (same adapter arm, same seed) and show up as the first init
        // trials of the target history, snapped onto the space's grids.
        let source_label = "ycsb_a/llamatune/smac/s1";
        let top = store.top_points(source_label, 2);
        assert_eq!(meta.warm_points, top);
        let adapter = AdapterKind::LlamaTune(LlamaTuneConfig::default()).build(&postgres_v9_6(), 1);
        let spec = adapter.optimizer_spec();
        assert_eq!(target.history.points[1], spec.snap(&top[0]));
        assert_eq!(target.history.points[2], spec.snap(&top[1]));
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn adapter_identity_tags_discriminate_every_hyperparameter() {
        use llamatune::pipeline::ProjectionKind;
        let base = LlamaTuneConfig::default();
        let llamatune = |cfg: LlamaTuneConfig| AdapterKind::LlamaTune(cfg).identity_tag(1);
        let unprojected = LlamaTuneConfig { projection: None, ..base.clone() };
        // Stores already key warm-start matching on these strings.
        let pinned = [
            (AdapterKind::Identity.identity_tag(1), "identity/s1"),
            (AdapterKind::Identity.identity_tag(2), "identity/s2"),
            (llamatune(base.clone()), "llamatune-d16-hesbo-b0.2-k10000/s1"),
            (
                AdapterKind::LlamaTune(base.clone()).identity_tag(2),
                "llamatune-d16-hesbo-b0.2-k10000/s2",
            ),
            (
                llamatune(LlamaTuneConfig { target_dim: 8, ..base.clone() }),
                "llamatune-d8-hesbo-b0.2-k10000/s1",
            ),
            (
                llamatune(LlamaTuneConfig { special_value_bias: None, ..base.clone() }),
                "llamatune-d16-hesbo-boff-k10000/s1",
            ),
            (
                llamatune(LlamaTuneConfig { bucket_count: None, ..base.clone() }),
                "llamatune-d16-hesbo-b0.2-koff/s1",
            ),
            (
                llamatune(LlamaTuneConfig { bucket_count: Some(64), ..base.clone() }),
                "llamatune-d16-hesbo-b0.2-k64/s1",
            ),
            (
                llamatune(LlamaTuneConfig {
                    projection: Some(ProjectionKind::Rembo),
                    ..base.clone()
                }),
                "llamatune-d16-rembo-b0.2-k10000/s1",
            ),
            (llamatune(unprojected.clone()), "llamatune-b0.2-k10000/s1"),
            (
                llamatune(LlamaTuneConfig { special_value_bias: None, ..unprojected.clone() }),
                "llamatune-boff-k10000/s1",
            ),
            (
                llamatune(LlamaTuneConfig { bucket_count: None, ..unprojected.clone() }),
                "llamatune-b0.2-koff/s1",
            ),
        ];
        for (tag, literal) in &pinned {
            assert_eq!(tag, literal);
        }
        let distinct: std::collections::HashSet<&String> = pinned.iter().map(|(t, _)| t).collect();
        assert_eq!(distinct.len(), pinned.len(), "every variant gets its own tag: {pinned:?}");
        // Without a projection `d` means nothing, so the tag leaves it
        // out; with every stage off the pipeline is the identity.
        assert_eq!(
            llamatune(LlamaTuneConfig { target_dim: 8, ..unprojected }),
            "llamatune-b0.2-k10000/s1"
        );
        assert_eq!(llamatune(LlamaTuneConfig::IDENTITY), "identity/s1");
        // Equal arms agree, so warm start still matches across campaigns.
        assert_eq!(
            AdapterKind::LlamaTune(base.clone()).identity_tag(3),
            AdapterKind::LlamaTune(base).identity_tag(3),
        );
    }

    #[test]
    fn warm_start_ignores_sessions_with_a_different_adapter_config() {
        // Same label-visible arm ("llamatune"), same seed, but different
        // bucketization: the stored session's points decode differently,
        // so transfer must not borrow them.
        let catalog = postgres_v9_6();
        let coarse = LlamaTuneConfig { bucket_count: Some(16), ..LlamaTuneConfig::default() };
        let source_spec = CampaignSpec {
            workloads: vec!["ycsb_a".into()],
            adapters: vec![AdapterKind::LlamaTune(coarse)],
            optimizers: vec![OptimizerKind::Smac],
            seeds: vec![1],
        };
        let mut opts = quick_opts();
        opts.session_parallelism = 1;
        let store = tmp_store("adapter_mismatch");
        Campaign::new(catalog.clone(), source_spec, opts.clone()).resume(&store).unwrap();
        let target_spec = CampaignSpec {
            workloads: vec!["ycsb_f".into()],
            adapters: vec![AdapterKind::LlamaTune(LlamaTuneConfig::default())],
            optimizers: vec![OptimizerKind::Smac],
            seeds: vec![1],
        };
        opts.warm_start = Some(WarmStartOptions { k: 3, max_distance: 1.9 });
        let results = Campaign::new(catalog, target_spec, opts).resume(&store).unwrap();
        let meta = store.session_meta(&results[0].label).unwrap();
        assert!(
            meta.warm_points.is_empty(),
            "incompatible adapter config must not transfer: {:?}",
            meta.warm_points
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn session_parallelism_does_not_change_results() {
        let sequential = Campaign::new(
            postgres_v9_6(),
            small_spec(),
            CampaignOptions { session_parallelism: 1, ..quick_opts() },
        )
        .run();
        let parallel = Campaign::new(
            postgres_v9_6(),
            small_spec(),
            CampaignOptions { session_parallelism: 4, ..quick_opts() },
        )
        .run();
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.history.scores, b.history.scores);
        }
    }

    #[test]
    fn session_driver_matches_the_campaign_cell() {
        // One driver run per cell reproduces Campaign::run exactly —
        // the campaign is nothing but a scheduler over drivers.
        let catalog = postgres_v9_6();
        let opts = quick_opts();
        let campaign = Campaign::new(catalog.clone(), small_spec(), opts.clone());
        let grid = campaign.run();
        for (cell, expect) in campaign.cells().into_iter().zip(&grid) {
            let solo = SessionDriver::new(&catalog, &opts, cell).run().unwrap();
            assert_eq!(solo.label, expect.label);
            assert_eq!(solo.history.scores, expect.history.scores);
            assert_eq!(solo.history.points, expect.history.points);
        }
    }
}
