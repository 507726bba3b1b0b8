//! The parallel trial executor.
//!
//! [`WorkloadExecutor`] implements [`TrialExecutor`] by mapping a batch
//! over `workers` threads with [`llamatune::par::ordered_map`]: the
//! calling thread is one of them, each takes the next unevaluated trial,
//! and a batch of one (or one worker) runs inline. Results come back in
//! batch order no matter which worker finishes first — the property
//! `run_session_parallel` relies on for worker-count-independent
//! histories.
//!
//! Trials run against a shared [`TrialRunner`] (a plain [`WorkloadRunner`], or a
//! fault-injecting wrapper around one) under an [`ExecutionPolicy`] —
//! watchdog, retry, hedging, quarantine — and an optional shared
//! [`EvalCache`] short-circuits configurations that were already
//! measured. Quarantine is consulted through a per-batch snapshot and
//! new keys are committed only after the batch folds, so recorded
//! statuses stay independent of worker count and completion order.

use crate::cache::{config_key, EvalCache};
use crate::policy::{run_trial_policy, ExecutionPolicy, TrialOutcome};
use llamatune::par::ordered_map;
use llamatune::session::{EvalResult, Trial, TrialExecutor, TrialStatus};
use llamatune_obs::trace::{NoopTracer, TraceEvent, Tracer};
use llamatune_obs::MetricsRegistry;
use llamatune_space::{Config, ConfigSpace};
use llamatune_workloads::{config_fingerprint, TrialRunner, WorkloadRunner};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// What one batch resolved against the cache — counted locally (not by
/// delta against the shared [`CacheStats`], which other sessions may be
/// advancing concurrently), so the `cache.lookup` trace span stays
/// deterministic.
#[derive(Debug, Clone, Copy, Default)]
struct BatchCacheOutcome {
    /// Trials answered from the cache.
    hits: u64,
    /// Distinct configurations that had to run.
    misses: u64,
    /// Trials served from a within-batch duplicate's fresh result.
    duplicates: u64,
}

/// Runs a batch through the cache: cached configurations short-circuit,
/// within-batch duplicates are evaluated once, and fresh results are
/// recorded. `eval_all` receives the trial indices and configurations
/// that actually need a run and must return results positionally.
fn run_batch_cached(
    cache: &EvalCache,
    trials: &[Trial],
    eval_all: impl FnOnce(&[usize], &[&Config]) -> Vec<EvalResult>,
) -> (Vec<EvalResult>, BatchCacheOutcome) {
    let mut resolved: Vec<Option<EvalResult>> = vec![None; trials.len()];
    // Key -> index into `unique` for within-batch duplicates.
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut unique: Vec<usize> = Vec::new(); // trial indices to evaluate
    let mut dup_of: Vec<(usize, usize)> = Vec::new(); // (trial, unique slot)
    for (i, t) in trials.iter().enumerate() {
        if let Some(hit) = cache.lookup(&t.config) {
            resolved[i] = Some(hit);
            continue;
        }
        match seen.entry(config_key(&t.config)) {
            std::collections::hash_map::Entry::Occupied(e) => dup_of.push((i, *e.get())),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(unique.len());
                unique.push(i);
            }
        }
    }
    let outcome = BatchCacheOutcome {
        hits: (trials.len() - unique.len() - dup_of.len()) as u64,
        misses: unique.len() as u64,
        duplicates: dup_of.len() as u64,
    };
    let configs: Vec<&Config> = unique.iter().map(|&i| &trials[i].config).collect();
    let fresh = eval_all(&unique, &configs);
    assert_eq!(fresh.len(), configs.len(), "eval_all must be positional");
    for (&i, r) in unique.iter().zip(&fresh) {
        cache.insert(&trials[i].config, r.clone());
        resolved[i] = Some(r.clone());
    }
    for (i, u) in dup_of {
        resolved[i] = Some(fresh[u].clone());
    }
    (resolved.into_iter().map(|r| r.expect("resolved or evaluated")).collect(), outcome)
}

/// The DBMS-benchmark [`TrialExecutor`]: a shared [`TrialRunner`]
/// evaluated by `workers` scoped threads, a fixed evaluation seed (the
/// paper evaluates every configuration of a session under the same
/// simulated conditions), an [`ExecutionPolicy`] shepherding each trial
/// through failures, and an optional deduplicating cache.
pub struct WorkloadExecutor {
    runner: Arc<dyn TrialRunner>,
    workers: usize,
    space: ConfigSpace,
    eval_seed: u64,
    cache: Option<Arc<EvalCache>>,
    policy: ExecutionPolicy,
    /// Fingerprints of configurations that failed terminally. Consulted
    /// via per-batch snapshot; new keys merge after each batch.
    quarantined: Mutex<HashSet<u64>>,
    /// Receives the `policy.*` fault counters.
    metrics: Arc<MetricsRegistry>,
    /// Receives `trial.attempt`, `cache.lookup`, and `policy.quarantine`
    /// spans — emitted only from the caller's thread after a batch
    /// settles (never from worker threads), so traces stay deterministic.
    tracer: Arc<dyn Tracer>,
    trace_label: String,
}

impl WorkloadExecutor {
    /// Creates an executor over `workers` threads sharing one runner.
    /// `space` is the tuned knob space (may be a subset of the runner's
    /// catalog); `eval_seed` drives the simulated benchmark.
    pub fn new(
        runner: &WorkloadRunner,
        space: ConfigSpace,
        eval_seed: u64,
        workers: usize,
    ) -> Self {
        WorkloadExecutor::from_trial_runner(Arc::new(runner.clone()), space, eval_seed, workers)
    }

    /// Creates an executor over an arbitrary [`TrialRunner`] — a plain
    /// workload runner, or a fault-injecting wrapper around one.
    pub fn from_trial_runner(
        runner: Arc<dyn TrialRunner>,
        space: ConfigSpace,
        eval_seed: u64,
        workers: usize,
    ) -> Self {
        WorkloadExecutor {
            runner,
            workers: workers.max(1),
            space,
            eval_seed,
            cache: None,
            policy: ExecutionPolicy::default(),
            quarantined: Mutex::new(HashSet::new()),
            metrics: Arc::new(MetricsRegistry::new()),
            tracer: Arc::new(NoopTracer),
            trace_label: String::new(),
        }
    }

    /// Attaches a (possibly shared) metrics registry and a tracer whose
    /// spans carry `label` as their session field.
    pub fn with_observability(
        mut self,
        metrics: Arc<MetricsRegistry>,
        tracer: Arc<dyn Tracer>,
        label: String,
    ) -> Self {
        self.metrics = metrics;
        self.tracer = tracer;
        self.trace_label = label;
        self
    }

    /// Sets the execution policy (the default is inert: one attempt, no
    /// watchdog, no hedging).
    pub fn with_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a (possibly shared) evaluation cache. Share a cache only
    /// between executors with the same workload and evaluation seed.
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Number of quarantined configurations.
    pub fn quarantine_len(&self) -> usize {
        self.lock_quarantine().len()
    }

    /// Seeds the quarantine set, used on resume: configurations whose
    /// replayed trials failed terminally must be quarantined *before*
    /// the first live round, or a resumed campaign would re-run (and
    /// possibly re-score) a poisoned config that the uninterrupted run
    /// answered from quarantine — breaking byte-identical resume.
    pub fn preload_quarantine<'a>(&self, configs: impl IntoIterator<Item = &'a Config>) {
        let mut q = self.lock_quarantine();
        for cfg in configs {
            q.insert(config_fingerprint(cfg));
        }
    }

    fn lock_quarantine(&self) -> std::sync::MutexGuard<'_, HashSet<u64>> {
        // A worker panicking between lock and unlock cannot leave the
        // set logically torn (inserts are atomic); recover the data.
        self.quarantined.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Evaluates `configs` under the execution policy: quarantine
    /// snapshot, per-trial retry loop, straggler hedging, then a single
    /// post-batch quarantine merge (deterministic in worker count).
    /// `iterations` aligns with `configs` and only labels trace spans.
    fn eval_with_policy(&self, iterations: &[usize], configs: &[&Config]) -> Vec<EvalResult> {
        let snapshot: HashSet<u64> = self.lock_quarantine().clone();
        let (space, seed, policy) = (&self.space, self.eval_seed, &self.policy);
        let metrics = &*self.metrics;
        let runner = &*self.runner;
        let mut outs: Vec<TrialOutcome> = ordered_map(self.workers, configs, |cfg| {
            run_trial_policy(
                runner,
                space,
                cfg,
                seed,
                policy,
                &snapshot,
                metrics,
                1,
                policy.max_attempts.max(1),
            )
        });
        if policy.hedge_ms.is_finite() {
            self.hedge_stragglers(configs, &mut outs, &snapshot);
        }
        if policy.quarantine {
            let mut q = self.lock_quarantine();
            let mut committed = 0u64;
            for out in &outs {
                if let Some(key) = out.quarantine_key {
                    if q.insert(key) {
                        committed += 1;
                    }
                }
            }
            if self.tracer.enabled() && committed > 0 {
                self.tracer.record(
                    TraceEvent::new(&self.trace_label, "policy.quarantine")
                        .field("iteration", iterations.first().copied().unwrap_or(0) as u64)
                        .field("committed", committed)
                        .field("total", q.len() as u64),
                );
            }
        }
        // Attempt spans, emitted positionally from the caller's thread
        // after the whole batch (including hedges) has settled. Every
        // field is virtual-clock or attempt-count data, so the spans are
        // identical at any worker count.
        if self.tracer.enabled() {
            for (k, out) in outs.iter().enumerate() {
                let iteration = iterations.get(k).copied().unwrap_or(0) as u64;
                for a in &out.attempts_log {
                    self.tracer.record(
                        TraceEvent::new(&self.trace_label, "trial.attempt")
                            .field("iteration", iteration)
                            .field("attempt", u64::from(a.attempt))
                            .field("virtual_ms", a.virtual_ms)
                            .field("disposition", a.disposition),
                    );
                }
            }
        }
        outs.into_iter().map(|o| o.result).collect()
    }

    /// Straggler hedging: any successful trial whose virtual time
    /// exceeds the policy's absolute `hedge_ms` threshold gets one
    /// extra attempt, and the faster successful outcome wins. The
    /// threshold is per-trial, never batch-relative, so whether a trial
    /// hedges is a pure function of the trial itself — a batch median
    /// would shift when part of a round is answered by the cache (on
    /// resume, or under bucketized repeats) and recorded attempt
    /// counts would diverge from the uninterrupted run.
    fn hedge_stragglers(
        &self,
        configs: &[&Config],
        outs: &mut [TrialOutcome],
        snapshot: &HashSet<u64>,
    ) {
        let threshold = self.policy.hedge_ms;
        for (i, cfg) in configs.iter().enumerate() {
            if outs[i].result.status != TrialStatus::Ok || outs[i].virtual_ms <= threshold {
                continue;
            }
            self.metrics.incr("policy.hedges", 1);
            let mut hedge = run_trial_policy(
                &*self.runner,
                &self.space,
                cfg,
                self.eval_seed,
                &self.policy,
                snapshot,
                &self.metrics,
                outs[i].result.attempts + 1,
                1,
            );
            if hedge.result.status == TrialStatus::Ok && hedge.virtual_ms < outs[i].virtual_ms {
                // The hedge wins, but its attempt log still records the
                // original's attempts (attempt numbers are absolute).
                let mut log = std::mem::take(&mut outs[i].attempts_log);
                log.append(&mut hedge.attempts_log);
                hedge.attempts_log = log;
                outs[i] = hedge;
            } else {
                // The original stands, but the hedge attempt happened:
                // account for it so attempt counts stay truthful.
                outs[i].result.attempts = hedge.result.attempts;
                outs[i].attempts_log.append(&mut hedge.attempts_log);
            }
        }
    }
}

impl TrialExecutor for WorkloadExecutor {
    fn run_batch(&mut self, trials: &[Trial]) -> Vec<EvalResult> {
        let eval_all = |idxs: &[usize], configs: &[&Config]| {
            let iterations: Vec<usize> = idxs.iter().map(|&i| trials[i].iteration).collect();
            self.eval_with_policy(&iterations, configs)
        };
        match &self.cache {
            Some(cache) => {
                let (results, batch) = run_batch_cached(cache, trials, eval_all);
                if self.tracer.enabled() {
                    self.tracer.record(
                        TraceEvent::new(&self.trace_label, "cache.lookup")
                            .field(
                                "iteration",
                                trials.first().map(|t| t.iteration).unwrap_or(0) as u64,
                            )
                            .field("hits", batch.hits)
                            .field("misses", batch.misses)
                            .field("duplicates", batch.duplicates),
                    );
                }
                self.metrics.incr("cache.hits", batch.hits);
                self.metrics.incr("cache.misses", batch.misses);
                results
            }
            None => {
                let iterations: Vec<usize> = trials.iter().map(|t| t.iteration).collect();
                let configs: Vec<&Config> = trials.iter().map(|t| &t.config).collect();
                self.eval_with_policy(&iterations, &configs)
            }
        }
    }

    fn max_parallelism(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_space::catalog::postgres_v9_6;
    use llamatune_space::KnobValue;

    fn trial(space: &ConfigSpace, sb: i64) -> Trial {
        let mut cfg = space.default_config();
        let idx = space.index_of("shared_buffers").unwrap();
        cfg.values_mut()[idx] = KnobValue::Int(sb);
        Trial { iteration: 0, config: cfg }
    }

    #[test]
    fn cache_short_circuits_repeats_and_batch_duplicates() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let space = postgres_v9_6();
        let evals = AtomicUsize::new(0);
        let idx = space.index_of("shared_buffers").unwrap();
        let eval = |cfg: &Config| {
            evals.fetch_add(1, Ordering::SeqCst);
            EvalResult { score: Some(cfg.values()[idx].as_float()), ..Default::default() }
        };
        let cache = EvalCache::new();
        let run_batch = |batch: &[Trial]| {
            let eval_all =
                |_: &[usize], configs: &[&Config]| ordered_map(2, configs, |cfg| eval(cfg));
            run_batch_cached(&cache, batch, eval_all).0
        };
        // Batch with an internal duplicate: 3 trials, 2 distinct configs.
        let batch = vec![trial(&space, 1000), trial(&space, 2000), trial(&space, 1000)];
        let r1 = run_batch(&batch);
        assert_eq!(evals.load(Ordering::SeqCst), 2, "duplicate evaluated once");
        assert_eq!(r1[0].score, r1[2].score);
        // Second round: everything cached.
        let r2 = run_batch(&batch);
        assert_eq!(evals.load(Ordering::SeqCst), 2, "no new evaluations");
        assert_eq!(r2[1].score, Some(2000.0));
        let stats = cache.stats();
        assert_eq!(stats.hits, 3, "second round served from cache");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn workload_executor_matches_direct_evaluation() {
        use llamatune_workloads::{suggested_options, ycsb_b, WorkloadRunner};
        let catalog = postgres_v9_6();
        let mut opts = suggested_options("ycsb_b");
        opts.duration_s = 0.2;
        opts.warmup_s = 0.05;
        opts.max_txns = 20_000;
        let runner = WorkloadRunner::new(ycsb_b(), catalog.clone()).with_options(opts);
        let trials: Vec<Trial> = (1..=4).map(|i| trial(&catalog, 16_384 + i * 8_192)).collect();
        let direct: Vec<Option<f64>> =
            trials.iter().map(|t| runner.evaluate(&catalog, &t.config, 7).score).collect();
        for workers in [1, 3] {
            let mut ex = WorkloadExecutor::new(&runner, catalog.clone(), 7, workers);
            let scores: Vec<Option<f64>> =
                ex.run_batch(&trials).into_iter().map(|r| r.score).collect();
            assert_eq!(scores, direct, "workers = {workers}");
        }
    }

    #[test]
    fn quarantine_snapshot_keeps_statuses_worker_count_independent() {
        use llamatune_workloads::{AttemptOutcome, FaultPlan, FaultyRunner};
        // A plan aggressive enough that several configs fail terminally.
        struct Flat;
        impl TrialRunner for Flat {
            fn evaluate_attempt(
                &self,
                _space: &ConfigSpace,
                _config: &Config,
                _seed: u64,
                _attempt: u32,
            ) -> AttemptOutcome {
                AttemptOutcome {
                    score: Some(1.0),
                    metrics: vec![],
                    virtual_ms: 100.0,
                    retryable: false,
                }
            }
        }
        let catalog = postgres_v9_6();
        let plan = FaultPlan { seed: 3, panic_per_mille: 250, ..Default::default() };
        let batches: Vec<Vec<Trial>> = (0..3)
            .map(|round| {
                (0..8).map(|i| trial(&catalog, 1_000 + round * 8_000 + i * 1_000)).collect()
            })
            .collect();
        // Round 2 repeats round 0's configs: by then the failed ones are
        // quarantined, and that disposition must not depend on workers.
        let mut rounds = batches.clone();
        rounds.push(batches[0].clone());

        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence injected panics
        let mut per_worker: Vec<Vec<TrialStatus>> = Vec::new();
        for workers in [1, 4] {
            let runner = Arc::new(FaultyRunner::new(Arc::new(Flat), plan)) as Arc<dyn TrialRunner>;
            let mut ex = WorkloadExecutor::from_trial_runner(runner, catalog.clone(), 7, workers);
            let mut statuses = Vec::new();
            for batch in &rounds {
                for r in ex.run_batch(batch) {
                    statuses.push(r.status);
                }
            }
            assert!(ex.quarantine_len() > 0, "plan must quarantine something");
            assert!(
                statuses.contains(&TrialStatus::Quarantined),
                "repeated round must hit quarantine"
            );
            per_worker.push(statuses);
        }
        std::panic::set_hook(prev);
        assert_eq!(per_worker[0], per_worker[1], "statuses depend on worker count");
    }
}
