//! Timing wrappers on the program's public trait seams.
//!
//! [`TimedExecutor`] is on in every run: it marks where evaluation
//! starts and ends, which is all the end-to-end overhead metric needs.
//! The other wrappers exist only in traced runs and record one span per
//! call into the layer behind them.

use crate::trace::SessionTrace;
use llamatune::pipeline::SearchSpaceAdapter;
use llamatune::session::{EvalResult, Trial, TrialExecutor};
use llamatune_optim::{DegradationEvent, Observation, Optimizer, SearchSpec};
use llamatune_space::{Config, ConfigSpace};
use llamatune_workloads::{AttemptOutcome, TrialRunner, WorkloadRunner};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One `run_batch` call as seen from outside.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub start: Instant,
    pub end: Instant,
    pub trials: usize,
}

/// Tuner-side microseconds per trial of every round but the first: the
/// wall time between the end of one evaluation and the start of the
/// next (observe + persist + suggest + decode), over the trials of the
/// round being started.
pub fn overhead_us_per_trial(rounds: &[Round]) -> impl Iterator<Item = f64> + '_ {
    rounds.windows(2).map(|w| {
        w[1].start.duration_since(w[0].end).as_secs_f64() * 1e6 / w[1].trials.max(1) as f64
    })
}

/// Wraps the evaluator of one session and records its rounds.
pub struct TimedExecutor<'a> {
    inner: &'a mut dyn TrialExecutor,
    trace: Option<&'a SessionTrace>,
    pub rounds: Vec<Round>,
}

impl<'a> TimedExecutor<'a> {
    pub fn new(inner: &'a mut dyn TrialExecutor, trace: Option<&'a SessionTrace>) -> Self {
        TimedExecutor { inner, trace, rounds: Vec::new() }
    }
}

impl TrialExecutor for TimedExecutor<'_> {
    fn run_batch(&mut self, trials: &[Trial]) -> Vec<EvalResult> {
        let span = self.trace.map(|t| t.open("exec.run_batch"));
        let start = Instant::now();
        let results = self.inner.run_batch(trials);
        let end = Instant::now();
        if let (Some(t), Some(id)) = (self.trace, span) {
            t.close(id);
        }
        self.rounds.push(Round { start, end, trials: trials.len() });
        results
    }

    fn max_parallelism(&self) -> usize {
        self.inner.max_parallelism()
    }
}

/// Records `adapter.decode` spans.
pub struct TimedAdapter {
    pub inner: Box<dyn SearchSpaceAdapter>,
    pub trace: Arc<SessionTrace>,
}

impl SearchSpaceAdapter for TimedAdapter {
    fn optimizer_spec(&self) -> &SearchSpec {
        self.inner.optimizer_spec()
    }

    fn decode(&self, x: &[f64]) -> Config {
        self.trace.span("adapter.decode", || self.inner.decode(x))
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }
}

/// Span names of one position in the optimizer stack.
#[derive(Debug)]
pub struct OptimizerSpans {
    suggest: &'static str,
    observe: &'static str,
    snapshot: &'static str,
    restore: &'static str,
}

/// Outside every wrapper: what the session fold calls.
pub const OUTER: OptimizerSpans = OptimizerSpans {
    suggest: "opt.suggest",
    observe: "opt.observe",
    snapshot: "opt.snapshot",
    restore: "opt.restore",
};

/// Inside `BatchSuggest`: the raw optimizer the liar drives.
pub const INNER: OptimizerSpans = OptimizerSpans {
    suggest: "opt.inner.suggest",
    observe: "opt.inner.observe",
    snapshot: "opt.inner.snapshot",
    restore: "opt.inner.restore",
};

/// Records one span per optimizer call and forwards everything.
pub struct TimedOptimizer {
    pub inner: Box<dyn Optimizer>,
    pub trace: Arc<SessionTrace>,
    pub spans: &'static OptimizerSpans,
}

impl Optimizer for TimedOptimizer {
    fn suggest(&mut self) -> Vec<f64> {
        self.trace.span(self.spans.suggest, || self.inner.suggest())
    }

    fn observe(&mut self, obs: Observation) {
        self.trace.span(self.spans.observe, || self.inner.observe(obs))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn suggest_batch(&mut self, q: usize) -> Vec<Vec<f64>> {
        self.trace.span(self.spans.suggest, || self.inner.suggest_batch(q))
    }

    fn observe_batch(&mut self, obs: Vec<Observation>) {
        self.trace.span(self.spans.observe, || self.inner.observe_batch(obs))
    }

    fn snapshot(&self) -> Option<Box<dyn Any + Send>> {
        self.trace.span(self.spans.snapshot, || self.inner.snapshot())
    }

    fn snapshot_beats_replay(&self) -> bool {
        self.inner.snapshot_beats_replay()
    }

    fn restore(&mut self, snapshot: &(dyn Any + Send)) -> bool {
        self.trace.span(self.spans.restore, || self.inner.restore(snapshot))
    }

    fn drain_degradations(&mut self) -> Vec<DegradationEvent> {
        self.inner.drain_degradations()
    }
}

/// What the simulated DBMS did across one session's evaluations.
#[derive(Debug, Default)]
pub struct EngineCounts {
    pub evaluations: AtomicU64,
    pub crashes: AtomicU64,
    /// Simulated transactions, committed and aborted.
    pub txns: AtomicU64,
}

/// Records `engine.evaluate` leaf spans from the executor's workers.
/// `evaluate_attempt` mirrors `impl TrialRunner for WorkloadRunner`, the
/// only way to see the `RunResult`; check (d) holds it to the same
/// histories.
pub struct TimedRunner {
    pub inner: WorkloadRunner,
    pub trace: Arc<SessionTrace>,
    pub counts: Arc<EngineCounts>,
}

impl TrialRunner for TimedRunner {
    fn evaluate_attempt(
        &self,
        space: &ConfigSpace,
        config: &Config,
        seed: u64,
        _attempt: u32,
    ) -> AttemptOutcome {
        let start = Instant::now();
        let out = self.inner.evaluate(space, config, seed);
        self.trace.leaf("engine.evaluate", start, Instant::now());
        self.counts.evaluations.fetch_add(1, Ordering::Relaxed);
        self.counts.crashes.fetch_add(u64::from(out.result.crashed), Ordering::Relaxed);
        self.counts.txns.fetch_add(out.result.committed + out.result.aborted, Ordering::Relaxed);
        AttemptOutcome {
            score: out.score,
            metrics: out.result.metrics,
            virtual_ms: self.inner.virtual_duration_ms(),
            retryable: false,
        }
    }
}
