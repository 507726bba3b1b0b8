//! The parallel trial executor.
//!
//! [`WorkloadExecutor`] implements [`TrialExecutor`] by mapping a batch
//! over `workers` threads with [`llamatune::par::ordered_map`]: the
//! calling thread is one of them, each takes the next unevaluated trial,
//! and a batch of one (or one worker) runs inline. Results come back in
//! batch order no matter which worker finishes first — the property
//! [`llamatune::run_session_resumable`] relies on for worker-count-independent
//! histories.
//!
//! Trials run against a shared [`TrialRunner`] (a plain
//! [`WorkloadRunner`], or a fault-injecting wrapper around one) under an [`ExecutionPolicy`] —
//! watchdog, retry, panic isolation — and the executor's [`EvalCache`]
//! settles each configuration once: a batch is resolved in one pass over
//! it (measured repeats are answered, quarantined configurations are
//! scored as quarantined, and everything else runs once however often
//! the batch holds it), and the cache is written only after the batch
//! folds, so recorded statuses stay independent of worker count and
//! completion order.
//!
//! [`WorkloadRunner`]: llamatune_workloads::WorkloadRunner

use crate::cache::EvalCache;
use crate::policy::{run_trial_policy, AttemptTrace, ExecutionPolicy};
use llamatune::par::ordered_map;
use llamatune::session::{EvalResult, Trial, TrialExecutor, TrialStatus};
use llamatune_obs::trace::{NoopTracer, TraceEvent, Tracer};
use llamatune_obs::MetricsRegistry;
use llamatune_space::{Config, ConfigSpace};
use llamatune_workloads::{config_fingerprint, TrialRunner};
use std::collections::HashMap;
use std::sync::Arc;

/// The evaluation seed of the session seeded `session_seed`: the one
/// seed every trial of that session is evaluated under. Every session
/// evaluator derives it here — [`crate::session_executor`] (in-process
/// campaigns and the served client) and the paper harness — so their
/// histories agree, and changing how a session's trials are seeded is
/// an edit to this function alone.
pub fn eval_seed(session_seed: u64) -> u64 {
    session_seed ^ 0x5EED
}

/// The DBMS-benchmark [`TrialExecutor`]: a shared [`TrialRunner`]
/// evaluated by `workers` scoped threads, a fixed evaluation seed (the
/// paper evaluates every configuration of a session under the same
/// simulated conditions), an [`ExecutionPolicy`] shepherding each trial
/// through failures, and the [`EvalCache`] that settles each
/// configuration once.
pub struct WorkloadExecutor {
    runner: Arc<dyn TrialRunner>,
    workers: usize,
    space: ConfigSpace,
    eval_seed: u64,
    cache: Arc<EvalCache>,
    policy: ExecutionPolicy,
    /// Receives the `cache.*` and `policy.*` counters.
    metrics: Arc<MetricsRegistry>,
    /// Receives `trial.attempt`, `cache.lookup`, and `policy.quarantine`
    /// spans — emitted only from the caller's thread after a batch
    /// settles (never from worker threads), so traces stay deterministic.
    tracer: Arc<dyn Tracer>,
    trace_label: String,
}

impl WorkloadExecutor {
    /// Creates an executor over `workers` threads sharing `runner` — a
    /// plain workload runner, or a fault-injecting wrapper around one —
    /// with a fresh cache. `space` is the tuned knob space (may be a
    /// subset of the runner's catalog); `eval_seed` drives the simulated
    /// benchmark.
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
            cache: Arc::default(),
            policy: ExecutionPolicy::default(),
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
    /// watchdog).
    pub fn with_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the executor's cache with a (possibly pre-loaded or
    /// shared) one. Share a cache only between executors with the same
    /// workload and evaluation seed.
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Seeds the quarantine, used on resume: configurations whose
    /// replayed trials failed terminally must be quarantined *before*
    /// the first live round, or a resumed campaign would re-run (and
    /// possibly re-score) a poisoned config that the uninterrupted run
    /// answered from quarantine — breaking byte-identical resume. Writes
    /// into the executor's cache, so call it after
    /// [`WorkloadExecutor::with_cache`].
    pub fn preload_quarantine<'a>(&self, configs: impl IntoIterator<Item = &'a Config>) {
        for cfg in configs {
            self.cache.quarantine(cfg);
        }
    }
}

impl TrialExecutor for WorkloadExecutor {
    /// Resolves the batch in one pass over the cache — a measured repeat
    /// is answered; every other configuration takes one slot in `unique`
    /// however often the batch holds it, settled already when it is
    /// quarantined — runs the unsettled slots under the policy, and
    /// writes the cache once the whole batch has folded.
    fn run_batch(&mut self, trials: &[Trial]) -> Vec<EvalResult> {
        let mut answers: Vec<Result<EvalResult, usize>> = Vec::with_capacity(trials.len());
        let mut unique: Vec<(&Trial, Option<EvalResult>)> = Vec::new();
        let mut slots: HashMap<u64, usize> = HashMap::new();
        for t in trials {
            match self.cache.lookup(&t.config) {
                Some(hit) if hit.status == TrialStatus::Ok => answers.push(Ok(hit)),
                settled => {
                    let slot = *slots.entry(config_fingerprint(&t.config)).or_insert_with(|| {
                        if settled.is_some() {
                            self.metrics.incr("policy.quarantine_hits", 1);
                        }
                        unique.push((t, settled));
                        unique.len() - 1
                    });
                    answers.push(Err(slot));
                }
            }
        }
        let hits = answers.iter().filter(|a| a.is_ok()).count() as u64;
        let duplicates = trials.len() as u64 - hits - unique.len() as u64;

        let (space, seed, policy) = (&self.space, self.eval_seed, &self.policy);
        let (runner, metrics) = (&*self.runner, &*self.metrics);
        let settled: Vec<(EvalResult, Vec<AttemptTrace>)> =
            ordered_map(self.workers, &unique, |(t, quarantined)| match quarantined {
                Some(q) => {
                    let log =
                        AttemptTrace { attempt: 1, virtual_ms: 0.0, disposition: "quarantined" };
                    (q.clone(), vec![log])
                }
                None => run_trial_policy(runner, space, &t.config, seed, policy, metrics),
            });

        // Write the cache: fresh measurements are recorded, fresh
        // failures quarantined.
        let mut committed = 0u64;
        for ((t, quarantined), (result, _)) in unique.iter().zip(&settled) {
            if quarantined.is_some() {
                continue;
            }
            if result.status == TrialStatus::Ok {
                self.cache.insert(&t.config, result.clone());
            } else if self.cache.quarantine(&t.config) {
                committed += 1;
            }
        }
        // Spans, from the caller's thread after the whole batch settled.
        // Every field is virtual-clock or count data, so the spans are
        // identical at any worker count.
        if self.tracer.enabled() {
            let label = &self.trace_label;
            let iteration = |t: Option<&Trial>| t.map_or(0, |t| t.iteration as u64);
            if committed > 0 {
                self.tracer.record(
                    TraceEvent::new(label, "policy.quarantine")
                        .field("iteration", iteration(unique.first().map(|(t, _)| *t)))
                        .field("committed", committed)
                        .field("total", self.cache.quarantined() as u64),
                );
            }
            for ((t, _), (_, log)) in unique.iter().zip(&settled) {
                for a in log {
                    self.tracer.record(
                        TraceEvent::new(label, "trial.attempt")
                            .field("iteration", t.iteration as u64)
                            .field("attempt", u64::from(a.attempt))
                            .field("virtual_ms", a.virtual_ms)
                            .field("disposition", a.disposition),
                    );
                }
            }
            self.tracer.record(
                TraceEvent::new(label, "cache.lookup")
                    .field("iteration", iteration(trials.first()))
                    .field("hits", hits)
                    .field("misses", unique.len() as u64)
                    .field("duplicates", duplicates),
            );
        }
        self.metrics.incr("cache.hits", hits);
        self.metrics.incr("cache.misses", unique.len() as u64);
        answers.into_iter().map(|a| a.unwrap_or_else(|slot| settled[slot].0.clone())).collect()
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

    /// Scores each configuration by its `shared_buffers`, counting runs.
    #[derive(Default)]
    struct Counting(std::sync::atomic::AtomicUsize);

    impl TrialRunner for Counting {
        fn evaluate_attempt(
            &self,
            space: &ConfigSpace,
            config: &Config,
            _seed: u64,
            _attempt: u32,
        ) -> llamatune_workloads::AttemptOutcome {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let sb = config.values()[space.index_of("shared_buffers").unwrap()].as_float();
            llamatune_workloads::AttemptOutcome {
                score: Some(sb),
                metrics: vec![],
                virtual_ms: 1.0,
                retryable: false,
            }
        }
    }

    fn counting_executor(workers: usize) -> (WorkloadExecutor, Arc<Counting>, Arc<EvalCache>) {
        let runner = Arc::new(Counting::default());
        let cache = Arc::new(EvalCache::new());
        let ex = WorkloadExecutor::from_trial_runner(runner.clone(), postgres_v9_6(), 7, workers)
            .with_cache(cache.clone());
        (ex, runner, cache)
    }

    #[test]
    fn cache_short_circuits_repeats_and_batch_duplicates() {
        use std::sync::atomic::Ordering;
        let space = postgres_v9_6();
        let (mut ex, runs, cache) = counting_executor(2);
        // Batch with an internal duplicate: 3 trials, 2 distinct configs.
        let batch = vec![trial(&space, 1000), trial(&space, 2000), trial(&space, 1000)];
        let r1 = ex.run_batch(&batch);
        assert_eq!(runs.0.load(Ordering::SeqCst), 2, "duplicate evaluated once");
        assert_eq!(r1[0].score, r1[2].score);
        // Second round: everything cached.
        let r2 = ex.run_batch(&batch);
        assert_eq!(runs.0.load(Ordering::SeqCst), 2, "no new evaluations");
        assert_eq!(r2[1].score, Some(2000.0));
        let stats = cache.stats();
        assert_eq!(stats.hits, 3, "second round served from cache");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn quarantined_configs_are_scored_without_running() {
        use std::sync::atomic::Ordering;
        let space = postgres_v9_6();
        let (mut ex, runs, cache) = counting_executor(2);
        let poisoned = trial(&space, 1000);
        ex.preload_quarantine([&poisoned.config]);
        assert_eq!(cache.quarantined(), 1);
        let results = ex.run_batch(&[poisoned.clone(), trial(&space, 2000), poisoned]);
        assert_eq!(runs.0.load(Ordering::SeqCst), 1, "quarantine must not run the benchmark");
        for r in [&results[0], &results[2]] {
            assert_eq!(r.status, TrialStatus::Quarantined);
            assert!(r.score.is_none());
        }
        assert_eq!(results[1].status, TrialStatus::Ok);
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
            let runner = Arc::new(runner.clone());
            let mut ex = WorkloadExecutor::from_trial_runner(runner, catalog.clone(), 7, workers);
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
            let cache = Arc::new(EvalCache::new());
            let mut ex = WorkloadExecutor::from_trial_runner(runner, catalog.clone(), 7, workers)
                .with_cache(cache.clone());
            let mut statuses = Vec::new();
            for batch in &rounds {
                for r in ex.run_batch(batch) {
                    statuses.push(r.status);
                }
            }
            assert!(cache.quarantined() > 0, "plan must quarantine something");
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
