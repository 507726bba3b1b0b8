//! The session driver: one tuning session, from spec to history.
//!
//! [`SessionDriver`] is the single execution path behind every way a
//! session can run — the in-process library surface ([`Campaign`]
//! schedules a grid of drivers), the persistent/checkpointed path (a
//! [`TrialStore`] attachment turns on durability seams: per-trial
//! flushes, resume-from-round-boundary, warm-start transfer, lease
//! takeover), and the tuning-as-a-service path (`llamatune-server`,
//! whose trials are evaluated by a remote client). Because all three
//! surfaces share this one fold, the byte-identity contract — history
//! is a pure function of (adapter seed, optimizer seed, session seed,
//! batch size) — holds across them by construction.
//!
//! The driver has one seam, in three steps: [`SessionDriver::open`]
//! (a session the store records as finished is rebuilt; any other is
//! set up — metadata, lease, warm points, optimizer stack, replay —
//! into a [`LiveSession`]), [`SessionDriver::report`] (one round's
//! results folded in, every trial in the store before it returns) and
//! [`SessionDriver::finish`] (the `Done` record and the
//! [`CampaignResult`]). A caller that evaluates inline never sees it:
//! [`SessionDriver::run_with_executor`] is the loop over the three, and
//! [`SessionDriver::run`] that loop with the driver's own executor. The
//! daemon, which waits minutes between handing a round out and hearing
//! back, calls the three steps itself and holds the [`LiveSession`] in
//! between.
//!
//! Attachments compose builder-style and are all optional:
//!
//! ```no_run
//! use llamatune_runtime::{AdapterKind, CampaignOptions, CellSpec, OptimizerKind, SessionDriver};
//! use llamatune_space::catalog::postgres_v9_6;
//!
//! let catalog = postgres_v9_6();
//! let opts = CampaignOptions::default();
//! let cell = CellSpec::new("ycsb_a", AdapterKind::Identity, OptimizerKind::Smac, 7);
//! let result = SessionDriver::new(&catalog, &opts, cell).run().unwrap();
//! assert!(result.history.best_score().is_some());
//! ```
//!
//! [`Campaign`]: crate::Campaign

use crate::batch::BatchSuggest;
use crate::cache::EvalCache;
use crate::campaign::{AdapterKind, CampaignOptions, CampaignResult};
use crate::executor::{eval_seed, WorkloadExecutor};
use llamatune::pipeline::SearchSpaceAdapter;
use llamatune::session::{
    replay_cutoff, EvalResult, Session, SessionHistory, SessionOptions, Trial, TrialExecutor,
    TrialRecord,
};
use llamatune_obs::trace::Tracer;
use llamatune_obs::{MetricsRegistry, MetricsSnapshot};
use llamatune_optim::{GuardFactory, GuardedOptimizer, Optimizer, OptimizerKind, SearchSpec};
use llamatune_space::{Config, ConfigSpace};
use llamatune_store::{
    rebuild_history, SessionMeta, SessionStatus, StoreRecord, StoredTrial, TrialStore,
};
use llamatune_workloads::{
    workload_by_name, workload_fingerprint, FaultyRunner, TrialRunner, WorkloadRunner,
    FINGERPRINT_PROBE_SEED,
};
use std::sync::Arc;

/// One cell of a campaign grid: the full identity of a tuning session.
/// The label (`workload/adapter/optimizer/s<seed>`) is the session's
/// name everywhere — trace spans, store records, wire protocol.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// `workload/adapter/optimizer/s<seed>`.
    pub label: String,
    /// Workload name (must resolve via `workload_by_name`).
    pub workload: String,
    /// Search-space adapter arm.
    pub adapter: AdapterKind,
    /// Optimizer arm.
    pub optimizer: OptimizerKind,
    /// Session seed (also seeds the adapter's projection).
    pub seed: u64,
}

impl CellSpec {
    /// Builds a cell with the canonical label.
    pub fn new(
        workload: impl Into<String>,
        adapter: AdapterKind,
        optimizer: OptimizerKind,
        seed: u64,
    ) -> Self {
        let workload = workload.into();
        let label = format!("{workload}/{}/{}/s{seed}", adapter.label(), optimizer.label());
        CellSpec { label, workload, adapter, optimizer, seed }
    }
}

/// A session [`SessionDriver::open`] set up and nobody finished yet:
/// its adapter, the stepped [`Session`], the store metadata its `Done`
/// record completes, and its metrics registry. Step it only through the
/// driver that opened it (or one built from the same parts).
pub struct LiveSession {
    adapter: Box<dyn SearchSpaceAdapter>,
    session: Session,
    meta: Option<SessionMeta>,
    metrics: Arc<MetricsRegistry>,
}

impl LiveSession {
    /// The round to evaluate next — [`Session::next_round`]: drawn on
    /// the first call after a report, handed back unchanged until it is
    /// answered, `None` once the session has no round left.
    pub fn next_round(&mut self) -> Option<&[Trial]> {
        self.session.next_round(self.adapter.as_ref())
    }
}

/// What [`SessionDriver::open`] found.
pub enum Opened {
    /// The store records the session as finished: its result, rebuilt
    /// from the records with zero evaluations.
    Done(Box<CampaignResult>),
    /// The session has rounds left (fresh, or resumed from the store's
    /// last recorded round boundary).
    Live(Box<LiveSession>),
}

/// Drives one tuning session to completion. Construct with
/// [`SessionDriver::new`], compose attachments (`with_store`,
/// `with_tracer`), then call [`SessionDriver::run`] (the
/// driver owns evaluation: a local [`WorkloadExecutor`] with cache,
/// policy, and fault wiring) or [`SessionDriver::run_with_executor`]
/// (the caller owns evaluation) — or step the session yourself through
/// [`SessionDriver::open`] / [`SessionDriver::report`] /
/// [`SessionDriver::finish`], as the server does.
pub struct SessionDriver<'a> {
    catalog: &'a ConfigSpace,
    opts: &'a CampaignOptions,
    cell: CellSpec,
    store: Option<&'a TrialStore>,
    tracer: Option<Arc<dyn Tracer>>,
}

impl<'a> SessionDriver<'a> {
    /// A driver for one session of `catalog`, with no attachments.
    pub fn new(catalog: &'a ConfigSpace, opts: &'a CampaignOptions, cell: CellSpec) -> Self {
        SessionDriver { catalog, opts, cell, store: None, tracer: None }
    }

    /// Attaches a persistent store: every completed trial is flushed
    /// before the next round is suggested, a session the store records
    /// as finished is rebuilt without re-running anything, and an
    /// interrupted session resumes from its last recorded round
    /// boundary — byte-identical to the uninterrupted run. Also turns
    /// on warm-start transfer (when [`CampaignOptions::warm_start`] is
    /// set) and fleet lease takeover for shared stores.
    pub fn with_store(mut self, store: &'a TrialStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Overrides the campaign tracer for this session — fleet workers
    /// pass their private [`llamatune_obs::trace::FanoutTracer`] tee
    /// here so per-writer telemetry separates from the campaign stream.
    pub(crate) fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    fn tracer(&self) -> Arc<dyn Tracer> {
        self.tracer.clone().unwrap_or_else(|| self.opts.tracer.clone())
    }

    /// Builds this session's search-space adapter (seeded projection).
    pub(crate) fn build_adapter(&self) -> Box<dyn SearchSpaceAdapter> {
        self.cell.adapter.build(self.catalog, self.cell.seed)
    }

    /// The failed-terminally configurations of the session's replayed
    /// prefix — what a resuming executor must preload into quarantine
    /// before its first live round, so re-encounters answer from
    /// quarantine exactly like the uninterrupted run (trials past the
    /// round boundary are re-run, and re-quarantine themselves). Empty
    /// without a store attachment. The server ships these to clients on
    /// session attach; [`SessionDriver::run`] preloads them itself.
    pub fn quarantine_preload(&self) -> Vec<Config> {
        let Some(store) = self.store else { return Vec::new() };
        let session_opts = self.session_options(Vec::new());
        let prior = store.prior_trials(&self.cell.label);
        let cut = replay_cutoff(prior.len(), &session_opts, self.opts.batch_size);
        prior[..cut].iter().filter(|t| t.status.is_failure()).map(|t| t.config.clone()).collect()
    }

    /// Runs the session with a driver-owned local executor: the
    /// workload runner (wrapped for seeded fault injection when a plan
    /// is set) under the campaign's execution policy, evaluation cache,
    /// and observability wiring.
    pub fn run(&self) -> std::io::Result<CampaignResult> {
        let live = match self.open()? {
            Opened::Done(result) => return Ok(*result),
            Opened::Live(live) => *live,
        };
        // The persistent half of the evaluation cache: every trial
        // already recorded for this session is a measurement already
        // paid for — a resumed partial round replays from here instead
        // of re-running the DBMS. (Failed trials are refused by the
        // cache; the quarantine preload covers them.)
        let cache = Arc::new(EvalCache::new());
        for t in self.store.map(|s| s.trials_for(&self.cell.label)).unwrap_or_default() {
            cache.insert(
                &Config::new(t.config),
                EvalResult {
                    score: t.raw_score,
                    metrics: t.metrics,
                    status: t.status,
                    attempts: t.attempts,
                    virtual_ms: 0.0,
                },
            );
        }
        let mut executor =
            session_executor(self.catalog, self.opts, &self.cell.workload, self.cell.seed)
                .unwrap_or_else(|| panic!("unknown workload {:?}", self.cell.workload))
                .with_cache(cache)
                .with_observability(live.metrics.clone(), self.tracer(), self.cell.label.clone());
        executor.preload_quarantine(self.quarantine_preload().iter());
        self.drive(live, &mut executor)
    }

    /// Runs the session through a caller-owned executor. All store
    /// seams (resume, per-trial flush, warm start, lease, completion
    /// metadata) stay active; cache and quarantine preloading are the
    /// caller's responsibility (see
    /// [`SessionDriver::quarantine_preload`]), since the driver cannot
    /// see inside an arbitrary [`TrialExecutor`].
    pub fn run_with_executor(
        &self,
        executor: &mut dyn TrialExecutor,
    ) -> std::io::Result<CampaignResult> {
        match self.open()? {
            Opened::Done(result) => Ok(*result),
            Opened::Live(live) => self.drive(*live, executor),
        }
    }

    /// The loop over the driver's seam for a caller that evaluates
    /// inline.
    fn drive(
        &self,
        mut live: LiveSession,
        executor: &mut dyn TrialExecutor,
    ) -> std::io::Result<CampaignResult> {
        while let Some(trials) = live.next_round() {
            let results = executor.run_batch(trials);
            self.report(&mut live, results)?;
        }
        self.finish(live)
    }

    fn result(&self, history: SessionHistory, metrics: MetricsSnapshot) -> CampaignResult {
        CampaignResult {
            label: self.cell.label.clone(),
            workload: self.cell.workload.clone(),
            adapter: self.cell.adapter.label().to_string(),
            optimizer: self.cell.optimizer.label().to_string(),
            seed: self.cell.seed,
            history,
            metrics,
        }
    }

    fn session_options(&self, warm_points: Vec<Vec<f64>>) -> SessionOptions {
        let mut opts = SessionOptions {
            seed: self.cell.seed,
            tracer: self.tracer(),
            trace_label: self.cell.label.clone(),
            progress: self.opts.progress.clone(),
            ..self.opts.session.clone()
        };
        if self.store.is_some() {
            // Store-backed sessions take their warm points from session
            // metadata (recorded once, reused verbatim on resume);
            // plain sessions keep whatever the caller put in
            // `opts.session.warm_points`.
            opts.warm_points = warm_points;
        }
        opts
    }

    /// The session's workload runner, under the campaign's simulation
    /// window.
    fn runner(&self) -> WorkloadRunner {
        workload_runner(self.catalog, self.opts, &self.cell.workload)
            .unwrap_or_else(|| panic!("unknown workload {:?}", self.cell.workload))
    }

    /// Opens the session: a session the store knows is finished is
    /// rebuilt from its records; any other gets its store metadata
    /// (lease, fingerprint and warm points — recorded once, reused
    /// verbatim on resume), its optimizer stack, and a [`Session`]
    /// resumed from whatever the store already holds.
    pub fn open(&self) -> std::io::Result<Opened> {
        let cell = &self.cell;
        let meta = self.store.and_then(|s| s.session_meta(&cell.label));
        if let (Some(store), Some(m)) = (self.store, &meta) {
            if m.status == SessionStatus::Done {
                let history = rebuild_history(&store.trials_for(&cell.label), m.stopped_at);
                // Rebuilt without an executor: nothing ran, no faults.
                let result = self.result(history, MetricsSnapshot::default());
                return Ok(Opened::Done(Box::new(result)));
            }
        }
        let adapter = self.build_adapter();

        // Session metadata (store only): reuse the recorded fingerprint
        // and warm points (determinism across resumes), or probe and
        // match afresh.
        let meta = match self.store {
            None => None,
            Some(store) => Some(match meta {
                Some(mut m) => {
                    // Fleet takeover: a resumed running session is
                    // re-leased to the worker that now owns it (the
                    // previous holder is dead — live fleet workers never
                    // contend for a cell).
                    if let Some(w) = store.writer() {
                        if m.lease.as_deref() != Some(w) {
                            m.lease = Some(w.to_string());
                            store.append_session(&m)?;
                        }
                    }
                    m
                }
                None => {
                    let fingerprint = workload_fingerprint(&self.runner(), FINGERPRINT_PROBE_SEED);
                    let warm_points = self.transfer_warm_points(store, &*adapter, &fingerprint);
                    let m = SessionMeta {
                        session: cell.label.clone(),
                        workload: cell.workload.clone(),
                        adapter: cell.adapter.identity_tag(cell.seed),
                        status: SessionStatus::Running,
                        stopped_at: None,
                        fingerprint,
                        warm_points,
                        lease: store.writer().map(str::to_string),
                    };
                    store.append_session(&m)?;
                    m
                }
            }),
        };

        // Store-backed sessions always wrap under `constant_liar`, even
        // at batch size 1: retracting each round by restoring the
        // pre-round snapshot keeps optimizer state a pure function of
        // the recorded history, which is what lets a resume continue
        // bit-identically. Plain sessions wrap only when batching
        // actually happens.
        let wrap_liar = self.store.is_some() || self.opts.batch_size > 1;
        let metrics = self.session_metrics();
        let optimizer = self.build_optimizer(adapter.optimizer_spec().clone(), wrap_liar, &metrics);

        let warm_points = meta.as_ref().map(|m| m.warm_points.clone()).unwrap_or_default();
        let session_opts =
            SessionOptions { metrics: metrics.clone(), ..self.session_options(warm_points) };
        let prior = self.store.map(|s| s.prior_trials(&cell.label)).unwrap_or_default();
        let session = Session::resume(
            adapter.as_ref(),
            optimizer,
            &session_opts,
            self.opts.batch_size,
            &prior,
        )
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(Opened::Live(Box::new(LiveSession { adapter, session, meta, metrics })))
    }

    /// Folds the results of the round `live` handed out last. With a
    /// store attached every trial of the round is appended before this
    /// returns; the first append that fails is the call's error (the
    /// rest of the round is not written), and the session must not be
    /// stepped further — reopen it, and it resumes from the store.
    pub fn report(&self, live: &mut LiveSession, results: Vec<EvalResult>) -> std::io::Result<()> {
        let mut sink_err: Option<std::io::Error> = None;
        let mut sink = self.store.map(|store| {
            let sink_err = &mut sink_err;
            move |t: TrialRecord<'_>| {
                if sink_err.is_some() {
                    return;
                }
                let rec = StoredTrial {
                    session: self.cell.label.clone(),
                    iteration: t.iteration,
                    raw_score: t.raw_score,
                    score: t.score,
                    point: t.point.to_vec(),
                    config: t.config.values().to_vec(),
                    metrics: t.metrics.to_vec(),
                    status: t.status,
                    attempts: t.attempts,
                };
                if let Err(e) = store.append_record(StoreRecord::Trial(rec)) {
                    *sink_err = Some(e);
                }
            }
        });
        live.session.report(results, sink.as_mut().map(|s| s as &mut dyn FnMut(TrialRecord<'_>)));
        sink_err.map_or(Ok(()), Err)
    }

    /// Finishes a session that has no round left: the store's `Done`
    /// record (lease released), the result.
    pub fn finish(&self, live: LiveSession) -> std::io::Result<CampaignResult> {
        let history = live.session.finish();
        if let (Some(store), Some(meta)) = (self.store, live.meta) {
            store.append_session(&SessionMeta {
                status: SessionStatus::Done,
                stopped_at: history.stopped_at,
                lease: None, // released on completion
                ..meta
            })?;
        }
        Ok(self.result(history, live.metrics.snapshot()))
    }

    /// Builds the session optimizer stack. Inside out: the raw
    /// optimizer, under constant-liar [`BatchSuggest`] when `wrap_liar`,
    /// under [`GuardedOptimizer`] when `opts.guard`. The guard sits
    /// outermost so its rebuild-and-replay recovery reconstructs the
    /// same batch wrapper the session loop drives. `raw` is the one
    /// place a raw optimizer is built, so every guard or constant-liar
    /// rebuild writes its `optim.*` metrics into `metrics`, the
    /// session's registry, like the optimizer it replaces.
    fn build_optimizer(
        &self,
        spec: SearchSpec,
        wrap_liar: bool,
        metrics: &Arc<MetricsRegistry>,
    ) -> Box<dyn Optimizer> {
        let kind = self.cell.optimizer;
        let seed = self.cell.seed;
        let liar = self.opts.constant_liar && wrap_liar;
        let raw = {
            let (spec, metrics) = (spec.clone(), metrics.clone());
            move || kind.build_in(&spec, seed, &metrics)
        };
        let make: GuardFactory = Box::new(move || -> Box<dyn Optimizer> {
            if liar {
                Box::new(BatchSuggest::new(&raw))
            } else {
                raw()
            }
        });
        if self.opts.guard {
            Box::new(GuardedOptimizer::new(make, spec, seed))
        } else {
            make()
        }
    }

    /// One session's metrics registry: private, but forwarding into the
    /// campaign-wide live registry when one is configured.
    fn session_metrics(&self) -> Arc<MetricsRegistry> {
        match &self.opts.live_metrics {
            Some(live) => Arc::new(MetricsRegistry::with_parent(live.clone())),
            None => Arc::new(MetricsRegistry::new()),
        }
    }

    /// Picks warm-start points for a fresh session: the top
    /// configurations of the store's most similar finished session with
    /// an *identical* adapter identity (kind, hyperparameters, and
    /// projection seed — [`AdapterKind::identity_tag`]), so its
    /// optimizer-space points decode through this session's adapter
    /// unchanged.
    fn transfer_warm_points(
        &self,
        store: &TrialStore,
        adapter: &dyn SearchSpaceAdapter,
        fingerprint: &[f64],
    ) -> Vec<Vec<f64>> {
        let Some(ws) = &self.opts.warm_start else {
            return Vec::new();
        };
        let dims = adapter.optimizer_spec().len();
        let identity = self.cell.adapter.identity_tag(self.cell.seed);
        let points = store.warm_points(fingerprint, ws.k, ws.max_distance, |m| {
            m.session != self.cell.label && m.status == SessionStatus::Done && m.adapter == identity
        });
        points.into_iter().filter(|p| p.len() == dims).collect()
    }
}

/// `workload`'s runner over `catalog`, under the campaign's simulation
/// window; `None` when the workload is unknown.
fn workload_runner(
    catalog: &ConfigSpace,
    opts: &CampaignOptions,
    workload: &str,
) -> Option<WorkloadRunner> {
    let runner = WorkloadRunner::new(workload_by_name(workload)?, catalog.clone());
    Some(match opts.run_options.clone() {
        Some(run_opts) => runner.with_options(run_opts),
        None => runner,
    })
}

/// The trial executor of the session of `workload` seeded `seed`: the
/// workload runner — wrapped for seeded fault injection when
/// `opts.fault_plan` is set — on `opts.trial_workers` threads under
/// `opts.policy`, evaluating at [`eval_seed`]`(seed)`.
/// [`SessionDriver::run`] evaluates on it and so does a remote client
/// given the daemon's `opts`, which is what keeps served and in-process
/// histories byte-identical. `None` when the workload is unknown.
pub fn session_executor(
    catalog: &ConfigSpace,
    opts: &CampaignOptions,
    workload: &str,
    seed: u64,
) -> Option<WorkloadExecutor> {
    let base: Arc<dyn TrialRunner> = Arc::new(workload_runner(catalog, opts, workload)?);
    let runner: Arc<dyn TrialRunner> = match &opts.fault_plan {
        Some(plan) => Arc::new(FaultyRunner::new(base, *plan)),
        None => base,
    };
    let executor = WorkloadExecutor::from_trial_runner(
        runner,
        catalog.clone(),
        eval_seed(seed),
        opts.trial_workers,
    );
    Some(executor.with_policy(opts.policy))
}
