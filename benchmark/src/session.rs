//! Running one session cell, two ways.
//!
//! [`Cell::run`] is what the end-to-end numbers are taken with: the
//! program's own `SessionDriver`, with only the evaluator wrapped.
//! [`Cell::run_traced`] rebuilds the same session from the crates'
//! public constructors with a timing wrapper on every trait seam, so
//! each layer's calls become spans; output check (d) holds the two to
//! byte-identical histories, which is the proof that the traced run
//! measured the same computation.

use crate::seams::{
    EngineCounts, Round, TimedAdapter, TimedExecutor, TimedOptimizer, TimedRunner, INNER, OUTER,
};
use crate::synth::SyntheticEvaluator;
use crate::trace::SessionTrace;
use llamatune::session::{
    run_session_resumable, SessionHistory, SessionOptions, TrialExecutor, TrialRecord,
};
use llamatune_obs::{MetricsRegistry, MetricsSnapshot};
use llamatune_optim::{GuardFactory, GuardedOptimizer, Optimizer};
use llamatune_runtime::{
    BatchSuggest, CacheStats, CampaignOptions, CellSpec, EvalCache, SessionDriver, WorkloadExecutor,
};
use llamatune_space::ConfigSpace;
use llamatune_store::{SessionMeta, SessionStatus, StoredTrial, TrialStore};
use llamatune_workloads::{
    workload_by_name, workload_fingerprint, TrialRunner, WorkloadRunner, FINGERPRINT_PROBE_SEED,
};
use std::io;
use std::sync::Arc;

/// One session to run: the cell, how it evaluates, where it persists.
pub struct Cell<'a> {
    pub catalog: &'a ConfigSpace,
    pub opts: &'a CampaignOptions,
    pub spec: CellSpec,
    /// Seed of the simulated benchmark runs (unused by the synthetic
    /// evaluator, which carries its own salt).
    pub eval_seed: u64,
    pub store: Option<&'a TrialStore>,
    /// `None` evaluates on the simulated DBMS.
    pub synthetic: Option<&'a SyntheticEvaluator>,
}

/// What one session produced, plus what the benchmark saw from outside.
pub struct CellOutcome {
    pub history: SessionHistory,
    /// Every `run_batch` call, in order.
    pub rounds: Vec<Round>,
    /// Evaluation-cache counters (real evaluator only).
    pub cache: Option<CacheStats>,
    /// The program's own per-session metrics (`session.*_ms` phases).
    pub metrics: MetricsSnapshot,
}

fn invalid(e: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

impl Cell<'_> {
    /// The workload runner, exactly as `SessionDriver` builds it.
    fn runner(&self) -> WorkloadRunner {
        let spec = workload_by_name(&self.spec.workload)
            .unwrap_or_else(|| panic!("unknown workload {:?}", self.spec.workload));
        let runner = WorkloadRunner::new(spec, self.catalog.clone());
        match self.opts.run_options.clone() {
            Some(run_opts) => runner.with_options(run_opts),
            None => runner,
        }
    }

    /// The evaluation seed `SessionDriver` and `llamatune-client` derive
    /// from a session seed.
    pub fn driver_eval_seed(session_seed: u64) -> u64 {
        session_seed ^ 0x5EED
    }

    /// The real evaluator, built exactly as `SessionDriver::build_executor`
    /// and `llamatune-client` build theirs: same worker pool, policy and
    /// per-session cache. Output check (a) pins it.
    fn real_executor(&self, runner: Arc<dyn TrialRunner>) -> (WorkloadExecutor, Arc<EvalCache>) {
        let cache = Arc::new(EvalCache::new());
        let executor = WorkloadExecutor::from_trial_runner(
            runner,
            self.catalog.clone(),
            self.eval_seed,
            self.opts.trial_workers,
        )
        .with_policy(self.opts.policy)
        .with_cache(cache.clone());
        (executor, cache)
    }

    /// Runs the session through `SessionDriver`, tracing off.
    pub fn run(&self) -> io::Result<CellOutcome> {
        let mut driver = SessionDriver::new(self.catalog, self.opts, self.spec.clone());
        if let Some(store) = self.store {
            driver = driver.with_store(store);
        }
        let drive = |executor: &mut dyn TrialExecutor, cache: Option<&EvalCache>| {
            let mut timed = TimedExecutor::new(executor, None);
            let result = driver.run_with_executor(&mut timed)?;
            Ok(CellOutcome {
                history: result.history,
                rounds: timed.rounds,
                cache: cache.map(EvalCache::stats),
                metrics: result.metrics,
            })
        };
        match self.synthetic {
            Some(mut synthetic) => drive(&mut synthetic, None),
            None => {
                let (mut executor, cache) = self.real_executor(Arc::new(self.runner()));
                drive(&mut executor, Some(&cache))
            }
        }
    }

    /// Runs a *fresh* session with a span on every seam. Mirrors
    /// `SessionDriver::run_internal` for the options the benchmark uses
    /// (no warm start, no fault plan, no early stop); a session the
    /// store already knows is refused rather than resumed.
    pub fn run_traced(
        &self,
        trace: &Arc<SessionTrace>,
        engine: &Arc<EngineCounts>,
    ) -> io::Result<CellOutcome> {
        let (opts, cell) = (self.opts, &self.spec);
        assert!(opts.warm_start.is_none() && opts.fault_plan.is_none(), "not mirrored");
        let session_span = trace.open("session");

        let runner = self.runner();
        let adapter = TimedAdapter {
            inner: trace.span("adapter.build", || cell.adapter.build(self.catalog, cell.seed)),
            trace: trace.clone(),
        };

        let meta = match self.store {
            None => None,
            Some(store) => {
                if store.session_meta(&cell.label).is_some() {
                    return Err(invalid(format!("session {} is already stored", cell.label)));
                }
                let fingerprint = trace.span("workloads.fingerprint", || {
                    workload_fingerprint(&runner, FINGERPRINT_PROBE_SEED)
                });
                let meta = SessionMeta {
                    session: cell.label.clone(),
                    workload: cell.workload.clone(),
                    adapter: cell.adapter.identity_tag(cell.seed),
                    status: SessionStatus::Running,
                    stopped_at: None,
                    fingerprint,
                    warm_points: Vec::new(),
                    lease: store.writer().map(str::to_string),
                };
                trace.span("store.append_session", || store.append_session(&meta))?;
                Some(meta)
            }
        };

        // Inside out: raw optimizer, constant liar, guard — each rebuilt
        // from its public constructor with a timed layer on both sides
        // of the liar.
        let wrap_liar = opts.constant_liar && (self.store.is_some() || opts.batch_size > 1);
        let spec = adapter.inner.optimizer_spec().clone();
        let make: GuardFactory = {
            let (spec, trace, kind, seed) =
                (spec.clone(), trace.clone(), cell.optimizer, cell.seed);
            Box::new(move || -> Box<dyn Optimizer> {
                if !wrap_liar {
                    return kind.build(&spec, seed);
                }
                let (spec, trace) = (spec.clone(), trace.clone());
                Box::new(BatchSuggest::new(Box::new(move || -> Box<dyn Optimizer> {
                    Box::new(TimedOptimizer {
                        inner: kind.build(&spec, seed),
                        trace: trace.clone(),
                        spans: &INNER,
                    })
                })))
            })
        };
        let stack: Box<dyn Optimizer> = if opts.guard {
            Box::new(GuardedOptimizer::new(make, spec, cell.seed))
        } else {
            make()
        };
        let optimizer =
            Box::new(TimedOptimizer { inner: stack, trace: trace.clone(), spans: &OUTER });

        let metrics = Arc::new(MetricsRegistry::new());
        let session_opts = SessionOptions {
            seed: cell.seed,
            tracer: opts.tracer.clone(),
            trace_label: cell.label.clone(),
            progress: opts.progress.clone(),
            metrics: metrics.clone(),
            ..opts.session.clone()
        };

        let mut sink_err: Option<io::Error> = None;
        let mut sink = self.store.map(|store| {
            let sink_err = &mut sink_err;
            move |t: TrialRecord<'_>| {
                if sink_err.is_some() {
                    return;
                }
                let rec = StoredTrial {
                    session: cell.label.clone(),
                    iteration: t.iteration,
                    raw_score: t.raw_score,
                    score: t.score,
                    point: t.point.to_vec(),
                    config: t.config.values().to_vec(),
                    metrics: t.metrics.to_vec(),
                    status: t.status,
                    attempts: t.attempts,
                };
                if let Err(e) = trace.span("store.append_trial", || store.append_trial(&rec)) {
                    *sink_err = Some(e);
                }
            }
        });

        let fold = |executor: &mut dyn TrialExecutor| {
            let mut timed = TimedExecutor::new(executor, Some(trace));
            let history = trace.span("fold", || {
                run_session_resumable(
                    &adapter,
                    optimizer,
                    &mut timed,
                    &session_opts,
                    opts.batch_size,
                    &[],
                    sink.as_mut().map(|s| s as &mut dyn FnMut(TrialRecord<'_>)),
                )
            });
            (history, timed.rounds)
        };
        let (history, rounds, cache) = match self.synthetic {
            Some(mut synthetic) => {
                let (history, rounds) = fold(&mut synthetic);
                (history, rounds, None)
            }
            None => {
                let timed_runner =
                    TimedRunner { inner: runner, trace: trace.clone(), counts: engine.clone() };
                let (mut executor, cache) = self.real_executor(Arc::new(timed_runner));
                let (history, rounds) = fold(&mut executor);
                (history, rounds, Some(cache.stats()))
            }
        };
        let history = history.map_err(invalid)?;
        if let Some(e) = sink_err {
            return Err(e);
        }
        if let (Some(store), Some(meta)) = (self.store, meta) {
            let done = SessionMeta {
                status: SessionStatus::Done,
                stopped_at: history.stopped_at,
                lease: None,
                ..meta
            };
            trace.span("store.append_session", || store.append_session(&done))?;
        }
        trace.close(session_span);
        Ok(CellOutcome { history, rounds, cache, metrics: metrics.snapshot() })
    }
}
