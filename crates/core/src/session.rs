//! The end-to-end tuning session (Figure 1): knowledge base, LHS
//! initialization, optimizer loop, crash handling, best-so-far tracking.
//!
//! The loop is a value, [`Session`], stepped by whoever evaluates:
//! `resume` (validate, replay, design), then `next_round` → evaluate →
//! `report` until no round is left, then `finish`. There is one place
//! that draws a round and one per-trial fold step (`Fold::trial`), and
//! two entry points loop over that one value for callers that evaluate
//! inline, so they cannot drift apart:
//!
//! * [`run_session`] — the paper's strictly sequential loop;
//! * [`run_session_resumable`] — the batched loop: per round it draws
//!   `batch_size` suggestions ([`Optimizer::suggest_batch`]), hands the
//!   decoded configurations to a [`TrialExecutor`] (which may evaluate
//!   them concurrently), then folds the results back *in iteration
//!   order*, so crash penalties, the best curve, and early stopping are
//!   independent of evaluation scheduling. It carries the durability
//!   seams used by the persistent knowledge store: a prefix of
//!   already-evaluated [`PriorTrial`]s is *replayed* (history rebuilt,
//!   observations re-fed to the optimizer, no DBMS runs), and every
//!   freshly folded trial is streamed to an optional [`TrialRecord`]
//!   sink so a checkpointer can flush it before the next round starts.
//!
//! ## Resume determinism
//!
//! Replay truncates the prior trials to the last *round boundary*
//! ([`replay_cutoff`]) — a crash can interrupt a batch halfway, and the
//! trailing partial round is simply re-run (evaluation is deterministic
//! per seed, so the re-run reproduces the recorded results bit for bit).
//! The continued session is bit-identical to an uninterrupted run
//! whenever the optimizer's state is a pure function of the ordered real
//! observation history — which the runtime crate's `BatchSuggest`
//! wrapper guarantees by restoring, every round, the snapshot it took
//! before fantasizing. Optimizers whose `suggest` advances private RNG
//! state (unwrapped SMAC or DDPG) replay their observations correctly
//! but may diverge in later suggestions; store-backed campaigns
//! therefore always run under the constant-liar wrapper.

use crate::early_stop::EarlyStopPolicy;
use crate::pipeline::SearchSpaceAdapter;
use llamatune_math::latin_hypercube;
use llamatune_obs::trace::{NoopTracer, TraceEvent, Tracer};
use llamatune_obs::{MetricsRegistry, ProgressSink, ProgressUpdate};
use llamatune_optim::{DegradationEvent, Observation, Optimizer};
use llamatune_space::Config;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// How a trial's evaluation concluded. Every non-`Ok` status carries no
/// raw score and receives the paper's crash penalty (§6: a quarter of
/// the worst throughput observed so far); the distinctions exist so operators and the
/// execution policy can tell a DBMS crash from a watchdog timeout from
/// a config the quarantine refused to re-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrialStatus {
    /// The evaluation completed and returned a score.
    #[default]
    Ok,
    /// The DBMS (or the evaluation itself) crashed.
    Crashed,
    /// The watchdog timed the evaluation out.
    TimedOut,
    /// The configuration was quarantined after earlier failures and was
    /// scored without being re-run.
    Quarantined,
}

impl TrialStatus {
    /// Stable serialization token.
    pub fn as_str(&self) -> &'static str {
        match self {
            TrialStatus::Ok => "ok",
            TrialStatus::Crashed => "crashed",
            TrialStatus::TimedOut => "timed_out",
            TrialStatus::Quarantined => "quarantined",
        }
    }

    /// Parses an [`TrialStatus::as_str`] token.
    pub fn parse(s: &str) -> Result<TrialStatus, String> {
        match s {
            "ok" => Ok(TrialStatus::Ok),
            "crashed" => Ok(TrialStatus::Crashed),
            "timed_out" => Ok(TrialStatus::TimedOut),
            "quarantined" => Ok(TrialStatus::Quarantined),
            other => Err(format!("unknown trial status {other:?}")),
        }
    }

    /// The status implied by a raw score alone — the rule of the
    /// pre-status schema, used as the serialization default so records
    /// carrying only the implied status keep their old byte layout.
    pub fn derived(raw_score: Option<f64>) -> TrialStatus {
        if raw_score.is_some() {
            TrialStatus::Ok
        } else {
            TrialStatus::Crashed
        }
    }

    /// Whether the trial failed (its score is a penalty substitute).
    pub fn is_failure(&self) -> bool {
        !matches!(self, TrialStatus::Ok)
    }
}

/// Result of one configuration evaluation. `score` is `None` when the
/// configuration crashed the DBMS (or timed out, or was quarantined —
/// `status` tells them apart). A non-finite score (`NaN`, `±inf`) is
/// not a measurement: the session folds it as `None`.
#[derive(Debug, Clone)]
pub struct EvalResult {
    pub score: Option<f64>,
    /// Internal DBMS metrics (feeds DDPG's state; empty is fine).
    pub metrics: Vec<f64>,
    /// How the evaluation concluded.
    pub status: TrialStatus,
    /// Evaluation attempts consumed (1 = first try; >1 after retries).
    pub attempts: u32,
    /// Simulated (virtual-clock) milliseconds the evaluation consumed,
    /// totalled across attempts. Observability only — never persisted,
    /// never folded into scores — so executors that don't track time
    /// leave the default `0.0`.
    pub virtual_ms: f64,
}

impl Default for EvalResult {
    fn default() -> Self {
        EvalResult {
            score: None,
            metrics: Vec::new(),
            status: TrialStatus::Ok,
            attempts: 1,
            virtual_ms: 0.0,
        }
    }
}

impl EvalResult {
    /// Whether this outcome could change on a re-run — a crash, timeout,
    /// quarantine hit, or scoreless evaluation. Retryable results must
    /// never be memoized (a cache that replays a transient crash forever
    /// turns one fault into a permanent penalty); caches gate on this.
    pub fn is_retryable(&self) -> bool {
        self.status.is_failure() || self.score.is_none()
    }
}

/// Session parameters (Section 6.1 defaults: 100 iterations, first 10 from
/// LHS; iteration 0 evaluates the server default configuration).
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Optimizer-driven + LHS iterations (excluding the iteration-0
    /// default-config evaluation).
    pub iterations: usize,
    /// Number of initial LHS samples.
    pub n_init: usize,
    /// Session seed (drives LHS and is handed to nothing else — the
    /// optimizer carries its own seed).
    pub seed: u64,
    /// Optional early-stopping policy (Appendix A).
    pub early_stop: Option<EarlyStopPolicy>,
    /// Warm-start points in *optimizer space*: they replace the leading
    /// LHS samples one for one (iteration 1 gets `warm_points[0]`, and
    /// so on), so a session seeded from a similar past campaign spends
    /// its initialization budget on known-good regions instead of random
    /// ones. Points beyond `n_init` are ignored; each point must have
    /// the optimizer space's dimensionality. Empty (the default) keeps
    /// the pure-LHS initialization of the paper.
    pub warm_points: Vec<Vec<f64>>,
    /// Structured-trace sink. The default [`NoopTracer`] reports
    /// disabled and every emission site is gated on
    /// [`Tracer::enabled`], so untraced sessions pay one virtual call
    /// per round. Traces are emitted from the single-threaded fold loop
    /// against iteration indices and virtual time only, so a recorded
    /// trace is a pure function of (seeds, batch size) — byte-identical
    /// across worker counts.
    pub tracer: Arc<dyn Tracer>,
    /// Session label used for the trace `session` field (and nothing
    /// else). Empty for unlabelled sessions.
    pub trace_label: String,
    /// Metrics registry receiving the `session.*_ms` phase-latency
    /// histograms (wall clock — explicitly outside the determinism
    /// contract, unlike traces). Campaign runners share one registry per
    /// session cell; the default is a fresh private registry.
    pub metrics: Arc<MetricsRegistry>,
    /// Live progress sink: receives one [`ProgressUpdate`] per freshly
    /// evaluated round (replayed rounds are not re-emitted — progress is
    /// monitoring, not history). `None` (the default) emits nothing.
    pub progress: Option<Arc<dyn ProgressSink>>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            iterations: 100,
            n_init: 10,
            seed: 0,
            early_stop: None,
            warm_points: Vec::new(),
            tracer: Arc::new(NoopTracer),
            trace_label: String::new(),
            metrics: Arc::new(MetricsRegistry::new()),
            progress: None,
        }
    }
}

/// The knowledge base plus derived curves of one finished session.
#[derive(Debug, Clone, Default)]
pub struct SessionHistory {
    /// Evaluated configurations, iteration 0 being the default config.
    pub configs: Vec<Config>,
    /// Optimizer-space points (empty vec for iteration 0).
    pub points: Vec<Vec<f64>>,
    /// Scores after crash-penalty substitution.
    pub scores: Vec<f64>,
    /// Raw scores (`None` = crashed).
    pub raw_scores: Vec<Option<f64>>,
    /// `best_curve[i]` = best score among iterations `1..=i` (the default
    /// run at iteration 0 is tracked but, like the paper's plots, does not
    /// participate in "best found by the tuner").
    pub best_curve: Vec<f64>,
    /// Iteration at which early stopping fired, if it did.
    pub stopped_at: Option<usize>,
    /// Per-iteration outcome status (aligned with `scores`).
    pub statuses: Vec<TrialStatus>,
    /// Per-iteration evaluation attempts (aligned with `scores`; 1
    /// unless the execution policy retried).
    pub attempts: Vec<u32>,
    /// Optimizer degradation events of the live run, stamped with the
    /// first iteration of the round they affected. Observability only:
    /// a resumed session replays recorded rounds without re-suggesting,
    /// so degradations are *not* part of the byte-identical resume
    /// contract and are not persisted by the store.
    pub degradations: Vec<DegradationEvent>,
}

impl SessionHistory {
    /// Best (penalized) score found by the tuner.
    pub fn best_score(&self) -> Option<f64> {
        self.best_curve.last().copied()
    }

    /// Configuration achieving the best score.
    pub fn best_config(&self) -> Option<&Config> {
        let (mut best_idx, mut best) = (None, f64::NEG_INFINITY);
        for (i, &s) in self.scores.iter().enumerate().skip(1) {
            if s > best {
                best = s;
                best_idx = Some(i);
            }
        }
        best_idx.map(|i| &self.configs[i])
    }

    /// Score of the default configuration (iteration 0).
    pub fn default_score(&self) -> f64 {
        self.scores[0]
    }
}

/// Applies the paper's crash penalty (Kanellis et al., VLDB 2022, §6):
/// *"runs that crash the DBMS are assigned a throughput of one fourth
/// of the worst throughput seen so far"*. Non-failed scores pass
/// through and lower `worst_seen`; a failed trial — crashed, timed out,
/// or quarantined, anything with `raw = None` — scores
/// `w - 0.75·|w|` where `w` is the worst score seen so far (`0` if
/// nothing succeeded yet). For positive, throughput-style scores this
/// is exactly ¼·w; the `|w|` generalization keeps the penalty *strictly
/// worse than the worst* for negated-latency scores too, so a failure
/// can never look attractive to the optimizer. The same rule covers
/// every [`TrialStatus`] failure: timeouts and quarantined configs are
/// penalized identically to crashes.
fn crash_penalty(raw: Option<f64>, worst_seen: &mut Option<f64>) -> f64 {
    match raw {
        Some(v) => {
            *worst_seen = Some(match *worst_seen {
                Some(w) => w.min(v),
                None => v,
            });
            v
        }
        None => {
            // "One fourth of the worst throughput seen so far";
            // generalized to negative (latency) scores.
            let w = worst_seen.unwrap_or(0.0);
            w - 0.75 * w.abs()
        }
    }
}

/// A trial with no raw score whose status still claims success — e.g. a
/// record from the pre-status schema, or an executor that only set the
/// score — folds as crashed, so `statuses` can never contradict
/// `raw_scores`.
fn normalize_status(status: TrialStatus, raw: Option<f64>) -> TrialStatus {
    if raw.is_none() && status == TrialStatus::Ok {
        TrialStatus::Crashed
    } else {
        status
    }
}

/// The session fold: the history plus the state its derived columns
/// need (penalty floor, best-so-far, cumulative progress totals),
/// advanced one trial at a time by [`Fold::trial`]. Everything that
/// happens to a trial result — penalty, status, persist, trace,
/// history, best curve, early stop — happens there and only there, so
/// replayed and live trials cannot fold differently.
struct Fold {
    traced: bool,
    history: SessionHistory,
    worst_seen: Option<f64>,
    best: f64,
    failures: u64,
    attempts: u64,
    virtual_ms: f64,
}

impl Fold {
    /// Collects the optimizer's pending degradation events, stamped
    /// with the round they affected.
    fn drain_degradations(
        &mut self,
        opts: &SessionOptions,
        optimizer: &mut dyn Optimizer,
        iteration: usize,
    ) {
        for mut e in optimizer.drain_degradations() {
            e.iteration = iteration;
            if self.traced {
                opts.tracer.record(
                    TraceEvent::new(opts.trace_label.as_str(), "optimizer.degraded")
                        .field("iteration", e.iteration as u64)
                        .field("optimizer", e.optimizer.as_str())
                        .field("reason", e.reason.as_str()),
                );
            }
            self.history.degradations.push(e);
        }
    }

    /// Folds one evaluated trial — a replayed record, the iteration-0
    /// default run, or a live result with its `virtual_ms` — in
    /// iteration order and returns whether early stopping fired on it.
    /// `sink` receives the record before the `trial` span is emitted (a
    /// store sink traces its own append first); `observations` collects
    /// what the optimizer is to be told.
    ///
    /// A non-finite raw score is a failed evaluation, not a number: it
    /// folds as `None`/crashed with the §6 penalty, so it can neither
    /// poison the surrogate nor reach a sink as a value JSON cannot
    /// carry.
    fn trial(
        &mut self,
        opts: &SessionOptions,
        t: PriorTrial,
        virtual_ms: f64,
        replayed: bool,
        sink: &mut Option<&mut (dyn FnMut(TrialRecord<'_>) + '_)>,
        observations: &mut Vec<Observation>,
    ) -> bool {
        let raw_score = t.raw_score.filter(|s| s.is_finite());
        let score = crash_penalty(raw_score, &mut self.worst_seen);
        let status = normalize_status(t.status, raw_score);
        let attempts = t.attempts.max(1);
        self.failures += u64::from(status.is_failure());
        self.attempts += u64::from(attempts);
        self.virtual_ms += virtual_ms;
        if let Some(f) = sink.as_mut() {
            let persist_start = Instant::now();
            f(TrialRecord {
                iteration: t.iteration,
                config: &t.config,
                point: &t.point,
                raw_score,
                score,
                metrics: &t.metrics,
                status,
                attempts,
            });
            opts.metrics.observe("session.persist_ms", persist_start.elapsed().as_secs_f64() * 1e3);
        }
        if self.traced {
            // Every field is deterministic; `raw_score` is present only
            // for successful runs and `replayed` only on resume.
            let mut e = TraceEvent::new(opts.trace_label.as_str(), "trial")
                .field("iteration", t.iteration as u64)
                .field("score", score)
                .field("status", status.as_str())
                .field("attempts", u64::from(attempts))
                .field("virtual_ms", virtual_ms);
            if let Some(r) = raw_score {
                e = e.field("raw_score", r);
            }
            if replayed {
                e = e.field("replayed", 1u64);
            }
            opts.tracer.record(e);
        }
        let h = &mut self.history;
        h.configs.push(t.config);
        h.scores.push(score);
        h.raw_scores.push(raw_score);
        h.statuses.push(status);
        h.attempts.push(attempts);
        if t.iteration == 0 {
            // The default run is tracked but, like the paper's plots,
            // is neither "found by the tuner" nor an observation.
            h.points.push(t.point);
            h.best_curve.push(score);
            return false;
        }
        observations.push(Observation { x: t.point.clone(), y: score, metrics: t.metrics });
        h.points.push(t.point);
        self.best = self.best.max(score);
        h.best_curve.push(self.best);
        let stop = opts.early_stop.as_ref().is_some_and(|p| p.should_stop(&h.best_curve[1..]));
        if stop {
            h.stopped_at = Some(t.iteration);
        }
        stop
    }
}

fn session_end_span(label: &str, history: &SessionHistory) -> TraceEvent {
    let mut e = TraceEvent::new(label, "session.end")
        .field("iterations_run", history.scores.len() as u64)
        .field("degradations", history.degradations.len() as u64);
    if let Some(best) = history.best_score() {
        e = e.field("best", best);
    }
    if let Some(at) = history.stopped_at {
        e = e.field("stopped_at", at as u64);
    }
    e
}

/// Runs a tuning session: evaluates the default configuration, then
/// `n_init` LHS samples, then optimizer suggestions, maximizing the score
/// returned by `objective`. Crashed evaluations receive the paper's
/// penalty: one fourth of the worst performance seen so far (initialized
/// to the default configuration's performance).
///
/// This is [`run_session_resumable`] at batch size 1 with an inline
/// executor, no prior trials and no sink — the sequential loop of the
/// paper, kept as the convenient entry point for closures.
///
/// # Panics
/// Panics if a warm-start point's dimensionality does not match the
/// optimizer space (use [`run_session_resumable`] for a fallible entry).
pub fn run_session(
    adapter: &dyn SearchSpaceAdapter,
    optimizer: Box<dyn Optimizer>,
    objective: impl FnMut(&Config) -> EvalResult,
    opts: &SessionOptions,
) -> SessionHistory {
    let mut executor = FnExecutor(objective);
    run_session_resumable(adapter, optimizer, &mut executor, opts, 1, &[], None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// One scheduled evaluation: a decoded configuration tagged with the
/// session iteration it belongs to.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Iteration index within the session (0 = default configuration).
    pub iteration: usize,
    /// The configuration to evaluate.
    pub config: Config,
}

/// Evaluates batches of trials — the seam between the tuning loop and
/// however trials actually run (inline closure, thread pool, remote
/// fleet). Implementations MUST return results in the same order as the
/// input slice; they are free to evaluate in any order or concurrently.
pub trait TrialExecutor {
    /// Evaluates every trial, returning results positionally aligned with
    /// `trials`.
    fn run_batch(&mut self, trials: &[Trial]) -> Vec<EvalResult>;

    /// How many trials the executor can usefully run at once (used by
    /// callers to pick a batch size).
    fn max_parallelism(&self) -> usize {
        1
    }
}

/// Adapts a sequential objective closure into a [`TrialExecutor`].
pub struct FnExecutor<F: FnMut(&Config) -> EvalResult>(pub F);

impl<F: FnMut(&Config) -> EvalResult> TrialExecutor for FnExecutor<F> {
    fn run_batch(&mut self, trials: &[Trial]) -> Vec<EvalResult> {
        trials.iter().map(|t| (self.0)(&t.config)).collect()
    }
}

/// One already-evaluated trial handed back to [`run_session_resumable`]
/// — the replay unit of checkpoint/resume. Scores are *not* carried:
/// penalized scores and the best curve are recomputed during replay, so
/// a resumed history cannot drift from the recorded raw results.
#[derive(Debug, Clone)]
pub struct PriorTrial {
    /// Iteration index within the session (0 = default configuration).
    pub iteration: usize,
    /// Optimizer-space point (empty for iteration 0).
    pub point: Vec<f64>,
    /// The decoded configuration that was evaluated.
    pub config: Config,
    /// Raw score; `None` when the configuration crashed the DBMS.
    pub raw_score: Option<f64>,
    /// Internal DBMS metrics of the run (replayed into the optimizer).
    pub metrics: Vec<f64>,
    /// How the recorded evaluation concluded.
    pub status: TrialStatus,
    /// Evaluation attempts the recorded trial consumed.
    pub attempts: u32,
}

/// A freshly folded trial streamed out of the session loop — the
/// checkpoint hook: a sink receives each record *before* the next round
/// is suggested, so a store that flushes per record never loses more
/// than the round in flight.
#[derive(Debug)]
pub struct TrialRecord<'a> {
    /// Iteration index within the session (0 = default configuration).
    pub iteration: usize,
    /// The evaluated configuration.
    pub config: &'a Config,
    /// Optimizer-space point (empty for iteration 0).
    pub point: &'a [f64],
    /// Raw score; `None` when the configuration crashed the DBMS.
    pub raw_score: Option<f64>,
    /// Score after crash-penalty substitution.
    pub score: f64,
    /// Internal DBMS metrics of the run.
    pub metrics: &'a [f64],
    /// How the evaluation concluded.
    pub status: TrialStatus,
    /// Evaluation attempts consumed.
    pub attempts: u32,
}

/// Largest prefix of `recorded` trials that ends on a *round boundary*
/// of a session with these options and batch size — the point to which
/// [`run_session_resumable`] replays before re-entering the live loop.
/// Rounds are: iteration 0 alone; then LHS rounds of `batch_size`
/// truncated at `n_init` (a round never mixes LHS and optimizer
/// points); then optimizer rounds of `batch_size` truncated at
/// `iterations`.
pub fn replay_cutoff(recorded: usize, opts: &SessionOptions, batch_size: usize) -> usize {
    let q = batch_size.max(1);
    let recorded = recorded.min(opts.iterations + 1);
    if recorded == 0 {
        return 0;
    }
    let init_len = opts.n_init.min(opts.iterations);
    let mut len = 1; // iteration 0 is a round of its own
    while len < recorded {
        let iter = len;
        let count = if iter <= init_len {
            (iter + q - 1).min(init_len) - iter + 1
        } else {
            q.min(opts.iterations - iter + 1)
        };
        if len + count > recorded {
            break;
        }
        len += count;
    }
    len
}

/// A round [`Session::next_round`] drew and [`Session::report`] has not
/// answered yet.
struct Round {
    source: &'static str,
    points: Vec<Vec<f64>>,
    trials: Vec<Trial>,
    drawn: Instant,
}

/// The session loop as a value that is *stepped*: [`Session::resume`]
/// validates, replays and lays out the initialization design,
/// [`Session::next_round`] draws a round, [`Session::report`] folds its
/// results, [`Session::finish`] hands the history back. A caller that
/// evaluates inline loops over the four ([`run_session_resumable`]); one
/// that waits for somebody else's results — the daemon, between a
/// client's `suggest_batch` and its `report` — holds the value in the
/// meantime and needs no thread to park.
pub struct Session {
    opts: SessionOptions,
    q: usize,
    optimizer: Box<dyn Optimizer>,
    fold: Fold,
    init_points: Vec<Vec<f64>>,
    pending: Option<Round>,
    stopped: bool,
}

impl Session {
    /// Starts a session — or, with a non-empty `prior`, picks one up:
    ///
    /// `prior` holds the recorded trials of an interrupted session
    /// (contiguous from iteration 0). They are truncated to the last
    /// round boundary ([`replay_cutoff`]), folded into the history with
    /// penalties and the best curve recomputed, and their observations
    /// re-fed to the optimizer in iteration order — as one
    /// [`Optimizer::observe_batch`] call, so surrogates with incremental
    /// batch paths (the GP's deferred weight refresh) replay a long
    /// history without per-trial rebuild costs. A partial trailing round
    /// is re-evaluated (deterministically) by the live rounds. Early
    /// stopping is re-checked during replay, so a session that had
    /// already stopped has no round left to draw.
    ///
    /// Returns an error on malformed inputs (non-contiguous prior
    /// trials, warm-start points of the wrong dimensionality) instead
    /// of running a corrupt session.
    pub fn resume(
        adapter: &dyn SearchSpaceAdapter,
        mut optimizer: Box<dyn Optimizer>,
        opts: &SessionOptions,
        batch_size: usize,
        prior: &[PriorTrial],
    ) -> Result<Session, String> {
        let q = batch_size.max(1);
        let spec = adapter.optimizer_spec();
        for (i, p) in opts.warm_points.iter().enumerate() {
            if p.len() != spec.len() {
                return Err(format!(
                    "warm point {i} has {} dimensions, optimizer space has {}",
                    p.len(),
                    spec.len()
                ));
            }
        }
        for (i, t) in prior.iter().enumerate() {
            if t.iteration != i {
                return Err(format!(
                    "prior trials must be contiguous from iteration 0: slot {i} holds iteration {}",
                    t.iteration
                ));
            }
        }
        let prior = &prior[..replay_cutoff(prior.len(), opts, q)];

        // All trace emission happens in the single-threaded fold path,
        // gated on `enabled()`, carrying only deterministic fields
        // (iterations, scores, virtual time) — so traces are
        // byte-identical across worker counts and tracing cannot
        // perturb the run.
        let traced = opts.tracer.enabled();
        if traced {
            opts.tracer.record(
                TraceEvent::new(opts.trace_label.as_str(), "session.start")
                    .field("iterations", opts.iterations as u64)
                    .field("n_init", opts.n_init as u64)
                    .field("seed", opts.seed)
                    .field("batch_size", q as u64)
                    .field("replayed", prior.len() as u64),
            );
        }

        let mut fold = Fold {
            traced,
            history: SessionHistory::default(),
            worst_seen: None,
            best: f64::NEG_INFINITY,
            failures: 0,
            attempts: 0,
            virtual_ms: 0.0,
        };
        // Replay: rebuild the fold state (history, penalties, best
        // curve) and collect the observations the optimizer already
        // saw. Replayed trials carry no recorded virtual time (it is
        // not persisted); the report still sees a contiguous session.
        let mut replayed = Vec::with_capacity(prior.len().saturating_sub(1));
        let stopped =
            prior.iter().any(|t| fold.trial(opts, t.clone(), 0.0, true, &mut None, &mut replayed));
        optimizer.observe_batch(replayed);
        fold.drain_degradations(opts, optimizer.as_mut(), fold.history.scores.len());

        // Initialization design in the optimizer's space: the seeded LHS
        // stream (identical to the sequential session), with warm-start
        // points replacing the leading samples one for one.
        let mut lhs_rng = StdRng::seed_from_u64(opts.seed ^ 0x1A5_0001);
        let mut init_points =
            latin_hypercube(opts.n_init.min(opts.iterations), spec.len(), &mut lhs_rng);
        for (slot, warm) in init_points.iter_mut().zip(&opts.warm_points) {
            slot.clone_from(warm);
        }
        Ok(Session { opts: opts.clone(), q, optimizer, fold, init_points, pending: None, stopped })
    }

    /// The round to evaluate next, or `None` once the budget is spent or
    /// early stopping fired. The first call after a [`Session::report`]
    /// (or after [`Session::resume`]) draws the round; every further
    /// call hands back *the same trials* and touches nothing — the
    /// optimizer included — until they are reported, so a round can be
    /// delivered again to whoever lost it.
    pub fn next_round(&mut self, adapter: &dyn SearchSpaceAdapter) -> Option<&[Trial]> {
        let iter = self.fold.history.scores.len();
        if self.pending.is_none() && !self.stopped && iter <= self.opts.iterations {
            self.pending = Some(self.draw(adapter, iter));
        }
        self.pending.as_ref().map(|r| r.trials.as_slice())
    }

    /// Draws the round that starts at iteration `iter`.
    fn draw(&mut self, adapter: &dyn SearchSpaceAdapter, iter: usize) -> Round {
        let opts = &self.opts;
        // Iteration 0 — the server default configuration — is a
        // round of its own. After it, a round never mixes LHS and
        // optimizer points: the LHS phase is truncated at its
        // boundary so the optimizer's first batch starts with the
        // full initialization observed.
        let lhs_round = (1..=self.init_points.len()).contains(&iter);
        let source = match iter {
            0 => "default",
            _ if lhs_round => "lhs",
            _ => "optimizer",
        };
        let round_q = if iter == 0 { 1 } else { self.q.min(opts.iterations - iter + 1) };
        if self.fold.traced {
            opts.tracer.record(
                TraceEvent::new(opts.trace_label.as_str(), "round")
                    .field("iteration", iter as u64)
                    .field("size", round_q as u64)
                    .field("source", source),
            );
        }
        let points: Vec<Vec<f64>> = if iter == 0 {
            vec![Vec::new()]
        } else if lhs_round {
            let spec = adapter.optimizer_spec();
            let end = (iter + round_q - 1).min(self.init_points.len());
            (iter..=end).map(|i| spec.snap(&self.init_points[i - 1])).collect()
        } else {
            let suggest_start = Instant::now();
            let points = self.optimizer.suggest_batch(round_q);
            opts.metrics.observe("session.suggest_ms", suggest_start.elapsed().as_secs_f64() * 1e3);
            if self.fold.traced {
                opts.tracer.record(
                    TraceEvent::new(opts.trace_label.as_str(), "optimizer.suggest")
                        .field("iteration", iter as u64)
                        .field("count", points.len() as u64),
                );
            }
            points
        };
        self.fold.drain_degradations(opts, self.optimizer.as_mut(), iter);
        let trials = points
            .iter()
            .enumerate()
            .map(|(k, p)| Trial {
                iteration: iter + k,
                config: if iter == 0 {
                    adapter.space().default_config()
                } else {
                    adapter.decode(p)
                },
            })
            .collect();
        Round { source, points, trials, drawn: Instant::now() }
    }

    /// Folds the results of the round [`Session::next_round`] handed out
    /// — positionally aligned with its trials — back in iteration
    /// order, so penalties, the best curve and early stopping are
    /// scheduling-independent (if early stopping fires mid-round the
    /// rest of the round is discarded), then tells the optimizer.
    /// `sink`, when present, receives a [`TrialRecord`] for every trial
    /// as soon as it is folded in (replayed trials were *not* emitted).
    ///
    /// # Panics
    /// Panics if no round is pending or `results` is not one per trial.
    pub fn report(
        &mut self,
        results: Vec<EvalResult>,
        mut sink: Option<&mut (dyn FnMut(TrialRecord<'_>) + '_)>,
    ) {
        let opts = &self.opts;
        let Round { source, points, trials, drawn } =
            self.pending.take().expect("report answers the round next_round drew");
        opts.metrics.observe("session.evaluate_ms", drawn.elapsed().as_secs_f64() * 1e3);
        assert_eq!(results.len(), trials.len(), "executor must return one result per trial");
        let iter = trials[0].iteration;

        let mut observations = Vec::with_capacity(results.len());
        self.stopped = points.into_iter().zip(trials).zip(results).any(|((point, trial), eval)| {
            let t = PriorTrial {
                iteration: trial.iteration,
                point,
                config: trial.config,
                raw_score: eval.score,
                metrics: eval.metrics,
                status: eval.status,
                attempts: eval.attempts,
            };
            self.fold.trial(opts, t, eval.virtual_ms, false, &mut sink, &mut observations)
        });
        let fold = &mut self.fold;
        if let Some(progress) = &opts.progress {
            let round_scores = &fold.history.scores[iter..];
            let best_so_far = *fold.history.best_curve.last().expect("a round folds a trial");
            let round_best = round_scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            progress.emit(ProgressUpdate {
                session: opts.trace_label.clone(),
                iteration: iter as u64,
                round_size: round_scores.len() as u64,
                phase: source.to_string(),
                best_so_far,
                round_best,
                regret: (best_so_far - round_best).max(0.0),
                failures: fold.failures,
                attempts: fold.attempts,
                virtual_ms: fold.virtual_ms,
            });
        }
        // The default run is not an observation: the optimizer first
        // hears of the session after round one.
        if iter > 0 {
            let observed = observations.len();
            self.optimizer.observe_batch(observations);
            if fold.traced {
                opts.tracer.record(
                    TraceEvent::new(opts.trace_label.as_str(), "optimizer.observe")
                        .field("iteration", iter as u64)
                        .field("count", observed as u64),
                );
            }
            fold.drain_degradations(opts, self.optimizer.as_mut(), iter);
        }
    }

    /// Ends the session and returns its history.
    pub fn finish(self) -> SessionHistory {
        if self.fold.traced {
            self.opts
                .tracer
                .record(session_end_span(self.opts.trace_label.as_str(), &self.fold.history));
        }
        self.fold.history
    }
}

/// Runs a tuning session whose trials are evaluated in batches of
/// `batch_size` by `executor` — the loop over a [`Session`] for a caller
/// that evaluates inline. It keeps [`run_session`]'s semantics:
/// iteration 0 evaluates the server default configuration, iterations
/// `1..=n_init` come from LHS (or [`SessionOptions::warm_points`]),
/// later ones from the optimizer ([`Optimizer::suggest_batch`]); crash
/// penalties, the best curve, and early stopping are applied in
/// iteration order, so the resulting [`SessionHistory`] is a pure
/// function of the seeds and batch size — independent of how many
/// workers the executor uses or in which order trials physically
/// complete. With `batch_size == 1` it reproduces [`run_session`]
/// exactly. Early stopping is checked per iteration while folding a
/// batch in; if it fires mid-batch, the remaining results of that batch
/// are discarded (the inherent overshoot cost of batched evaluation).
///
/// It also carries the two durability seams of the persistent knowledge
/// store:
///
/// * **Replay** — `prior` is handed to [`Session::resume`]: recorded
///   trials up to the last round boundary are folded back and re-fed to
///   the optimizer without running anything.
/// * **Checkpointing** — `sink`, when present, receives a
///   [`TrialRecord`] for every freshly evaluated trial as soon as its
///   result is folded in (replayed trials are *not* re-emitted).
///
/// Returns an error on malformed inputs (non-contiguous prior trials,
/// warm-start points of the wrong dimensionality) instead of running a
/// corrupt session.
pub fn run_session_resumable(
    adapter: &dyn SearchSpaceAdapter,
    optimizer: Box<dyn Optimizer>,
    executor: &mut dyn TrialExecutor,
    opts: &SessionOptions,
    batch_size: usize,
    prior: &[PriorTrial],
    mut sink: Option<&mut dyn FnMut(TrialRecord<'_>)>,
) -> Result<SessionHistory, String> {
    let mut session = Session::resume(adapter, optimizer, opts, batch_size, prior)?;
    while let Some(trials) = session.next_round(adapter) {
        let results = executor.run_batch(trials);
        session.report(results, sink.as_deref_mut());
    }
    Ok(session.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`run_session_resumable`] from scratch, with no sink.
    fn run_batched(
        adapter: &dyn SearchSpaceAdapter,
        optimizer: Box<dyn Optimizer>,
        executor: &mut dyn TrialExecutor,
        opts: &SessionOptions,
        batch_size: usize,
    ) -> SessionHistory {
        run_session_resumable(adapter, optimizer, executor, opts, batch_size, &[], None).unwrap()
    }
    use crate::pipeline::{IdentityAdapter, LlamaTuneConfig, LlamaTunePipeline};
    use llamatune_optim::{RandomSearch, Smac, SmacConfig};
    use llamatune_space::catalog::postgres_v9_6;
    use llamatune_space::KnobValue;

    /// Synthetic objective over the pg9.6 space: rewards large
    /// shared_buffers (up to a cliff) and commit_delay, crashes when
    /// shared_buffers exceeds 90% of its range.
    fn objective(space: &llamatune_space::ConfigSpace) -> impl FnMut(&Config) -> EvalResult + '_ {
        let sb = space.index_of("shared_buffers").unwrap();
        let cd = space.index_of("commit_delay").unwrap();
        move |cfg: &Config| {
            let sbv = cfg.values()[sb].as_float();
            let cdv = cfg.values()[cd].as_float();
            if sbv > 0.9 * 2_097_152.0 {
                return EvalResult { score: None, metrics: vec![], ..Default::default() };
            }
            let score = sbv / 2_097_152.0 * 100.0 + cdv / 100_000.0 * 20.0;
            EvalResult { score: Some(score), metrics: vec![score], ..Default::default() }
        }
    }

    #[test]
    fn session_records_default_at_iteration_zero() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let opt = RandomSearch::new(adapter.optimizer_spec().clone(), 1);
        let opts = SessionOptions { iterations: 12, n_init: 4, ..Default::default() };
        let h = run_session(&adapter, Box::new(opt), objective(&space), &opts);
        assert_eq!(h.configs.len(), 13);
        assert_eq!(h.configs[0], space.default_config());
        assert!(h.points[0].is_empty());
        // Default shared_buffers = 16384 -> score ~0.78 + commit_delay 0.
        assert!(h.default_score() > 0.0);
    }

    #[test]
    fn best_curve_is_monotone() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let opt = RandomSearch::new(adapter.optimizer_spec().clone(), 2);
        let opts = SessionOptions { iterations: 30, n_init: 10, ..Default::default() };
        let h = run_session(&adapter, Box::new(opt), objective(&space), &opts);
        assert!(h.best_curve.windows(2).skip(1).all(|w| w[1] >= w[0]));
        assert_eq!(h.best_curve.len(), 31);
    }

    #[test]
    fn crashes_receive_quarter_of_worst_penalty() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        // Objective: crash everything except the default.
        let mut first = true;
        let obj = move |_cfg: &Config| {
            if first {
                first = false;
                EvalResult { score: Some(40.0), metrics: vec![], ..Default::default() }
            } else {
                EvalResult { score: None, metrics: vec![], ..Default::default() }
            }
        };
        let opt = RandomSearch::new(adapter.optimizer_spec().clone(), 3);
        let opts = SessionOptions { iterations: 5, n_init: 2, ..Default::default() };
        let h = run_session(&adapter, Box::new(opt), obj, &opts);
        // Worst seen is the default's 40.0 -> crashes score 10.0.
        for i in 1..=5 {
            assert_eq!(h.scores[i], 10.0);
            assert!(h.raw_scores[i].is_none());
        }
    }

    #[test]
    fn statuses_and_attempts_are_recorded_per_iteration() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        // Default succeeds after a retry; everything else times out.
        let mut first = true;
        let obj = move |_cfg: &Config| {
            if first {
                first = false;
                EvalResult { score: Some(40.0), metrics: vec![], attempts: 2, ..Default::default() }
            } else {
                EvalResult {
                    score: None,
                    metrics: vec![],
                    status: TrialStatus::TimedOut,
                    attempts: 3,
                    ..Default::default()
                }
            }
        };
        let opt = RandomSearch::new(adapter.optimizer_spec().clone(), 3);
        let opts = SessionOptions { iterations: 3, n_init: 1, ..Default::default() };
        let h = run_session(&adapter, Box::new(opt), obj, &opts);
        assert_eq!(h.statuses[0], TrialStatus::Ok);
        assert_eq!(h.attempts[0], 2);
        for i in 1..=3 {
            assert_eq!(h.statuses[i], TrialStatus::TimedOut);
            assert_eq!(h.attempts[i], 3);
            assert_eq!(h.scores[i], 10.0, "timeouts get the crash penalty");
        }
        // A score-less result claiming Ok normalizes to Crashed.
        let mut e = FnExecutor(|_: &Config| EvalResult::default());
        let h = run_batched(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 3)),
            &mut e,
            &SessionOptions { iterations: 1, n_init: 1, ..Default::default() },
            1,
        );
        assert!(h.statuses.iter().all(|s| *s == TrialStatus::Crashed));
    }

    #[test]
    fn latency_style_crash_penalty_is_worse_than_worst() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        // Negated-latency scores: default -50ms, then a crash.
        let mut calls = 0;
        let obj = move |_cfg: &Config| {
            calls += 1;
            if calls == 1 {
                EvalResult { score: Some(-50.0), metrics: vec![], ..Default::default() }
            } else {
                EvalResult { score: None, metrics: vec![], ..Default::default() }
            }
        };
        let opt = RandomSearch::new(adapter.optimizer_spec().clone(), 4);
        let opts = SessionOptions { iterations: 2, n_init: 1, ..Default::default() };
        let h = run_session(&adapter, Box::new(opt), obj, &opts);
        assert_eq!(h.scores[1], -87.5, "-50 - 0.75*50: strictly worse than worst");
    }

    #[test]
    fn llamatune_pipeline_runs_end_to_end_with_smac() {
        let space = postgres_v9_6();
        let pipe = LlamaTunePipeline::new(&space, &LlamaTuneConfig::default(), 7);
        let smac = Smac::new(pipe.optimizer_spec().clone(), SmacConfig::default(), 7);
        let opts = SessionOptions { iterations: 20, n_init: 10, ..Default::default() };
        let h = run_session(&pipe, Box::new(smac), objective(&space), &opts);
        assert_eq!(h.best_curve.len(), 21);
        assert!(h.best_score().unwrap() > h.default_score() * 0.5);
        // All decoded configs are valid knob settings.
        for cfg in &h.configs {
            assert!(space.validate(cfg).is_ok());
        }
    }

    #[test]
    fn early_stopping_truncates_the_session() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        // Constant objective: no improvement ever.
        let obj =
            |_: &Config| EvalResult { score: Some(5.0), metrics: vec![], ..Default::default() };
        let opt = RandomSearch::new(adapter.optimizer_spec().clone(), 5);
        let opts = SessionOptions {
            iterations: 100,
            n_init: 5,
            early_stop: Some(EarlyStopPolicy { min_improvement_pct: 1.0, patience: 10 }),
            ..Default::default()
        };
        let h = run_session(&adapter, Box::new(opt), obj, &opts);
        let stopped = h.stopped_at.expect("must stop early");
        assert!(stopped <= 12, "flat curve should stop after ~patience iters: {stopped}");
        assert_eq!(h.best_curve.len(), stopped + 1);
    }

    #[test]
    fn parallel_with_batch_one_reproduces_sequential_exactly() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let opts = SessionOptions { iterations: 18, n_init: 5, ..Default::default() };
        let seq = run_session(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 21)),
            objective(&space),
            &opts,
        );
        let mut executor = FnExecutor(objective(&space));
        let par = run_batched(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 21)),
            &mut executor,
            &opts,
            1,
        );
        assert_eq!(seq.scores, par.scores);
        assert_eq!(seq.raw_scores, par.raw_scores);
        assert_eq!(seq.points, par.points);
        assert_eq!(seq.configs, par.configs);
        assert_eq!(seq.best_curve, par.best_curve);
    }

    #[test]
    fn parallel_smac_batch_one_matches_sequential_smac() {
        let space = postgres_v9_6();
        let pipe = LlamaTunePipeline::new(&space, &LlamaTuneConfig::default(), 5);
        let opts = SessionOptions { iterations: 16, n_init: 8, ..Default::default() };
        let seq = run_session(
            &pipe,
            Box::new(Smac::new(pipe.optimizer_spec().clone(), SmacConfig::default(), 5)),
            objective(&space),
            &opts,
        );
        let mut executor = FnExecutor(objective(&space));
        let par = run_batched(
            &pipe,
            Box::new(Smac::new(pipe.optimizer_spec().clone(), SmacConfig::default(), 5)),
            &mut executor,
            &opts,
            1,
        );
        assert_eq!(seq.scores, par.scores);
        assert_eq!(seq.points, par.points);
    }

    #[test]
    fn parallel_batches_preserve_iteration_zero_and_lhs_prefix() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let opts = SessionOptions { iterations: 12, n_init: 5, ..Default::default() };
        // Batched and unbatched sessions share the LHS design (seeded),
        // so iterations 0..=n_init must be identical at any batch size.
        let mut e1 = FnExecutor(objective(&space));
        let a = run_batched(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 8)),
            &mut e1,
            &opts,
            1,
        );
        let mut e4 = FnExecutor(objective(&space));
        let b = run_batched(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 8)),
            &mut e4,
            &opts,
            4,
        );
        assert_eq!(a.configs[0], space.default_config());
        assert_eq!(b.configs[0], space.default_config());
        assert_eq!(a.scores[..6], b.scores[..6], "default + 5 LHS iterations");
        assert_eq!(a.scores.len(), 13);
        assert_eq!(b.scores.len(), 13);
    }

    #[test]
    fn parallel_crash_penalties_are_applied_in_iteration_order() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        // Default scores 40, everything after crashes: every crashed
        // iteration must see worst_seen = 40 regardless of batching.
        let mut first = true;
        let obj = move |_cfg: &Config| {
            if first {
                first = false;
                EvalResult { score: Some(40.0), metrics: vec![], ..Default::default() }
            } else {
                EvalResult { score: None, metrics: vec![], ..Default::default() }
            }
        };
        let mut executor = FnExecutor(obj);
        let opts = SessionOptions { iterations: 6, n_init: 2, ..Default::default() };
        let h = run_batched(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 3)),
            &mut executor,
            &opts,
            3,
        );
        for i in 1..=6 {
            assert_eq!(h.scores[i], 10.0);
            assert!(h.raw_scores[i].is_none());
        }
    }

    #[test]
    fn parallel_early_stop_discards_the_rest_of_the_batch() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let obj =
            |_: &Config| EvalResult { score: Some(5.0), metrics: vec![], ..Default::default() };
        let mut executor = FnExecutor(obj);
        let opts = SessionOptions {
            iterations: 60,
            n_init: 4,
            early_stop: Some(EarlyStopPolicy { min_improvement_pct: 1.0, patience: 8 }),
            ..Default::default()
        };
        let h = run_batched(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 5)),
            &mut executor,
            &opts,
            4,
        );
        let stopped = h.stopped_at.expect("flat curve must stop early");
        assert!(stopped <= 16, "stopped at {stopped}");
        assert_eq!(h.best_curve.len(), stopped + 1, "results past the stop are discarded");
    }

    /// A deterministic optimizer whose suggestions are a pure function
    /// of the observation history — the state model under which
    /// checkpoint/resume promises bit-identical continuation (the one
    /// the runtime's constant liar keeps).
    struct HistoryHash {
        dims: usize,
        seen: Vec<Observation>,
    }

    impl Optimizer for HistoryHash {
        fn suggest(&mut self) -> Vec<f64> {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix = |bits: u64| {
                for b in bits.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            mix(self.seen.len() as u64);
            for o in &self.seen {
                mix(o.y.to_bits());
                for v in &o.x {
                    mix(v.to_bits());
                }
            }
            (0..self.dims)
                .map(|d| {
                    let mut hd = h ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    hd ^= hd >> 33;
                    hd = hd.wrapping_mul(0xff51_afd7_ed55_8ccd);
                    hd ^= hd >> 33;
                    (hd % 1_000_000) as f64 / 1_000_000.0
                })
                .collect()
        }

        fn observe(&mut self, obs: Observation) {
            self.seen.push(obs);
        }

        fn name(&self) -> &'static str {
            "history-hash"
        }
    }

    fn history_to_prior(h: &SessionHistory) -> Vec<PriorTrial> {
        (0..h.scores.len())
            .map(|i| PriorTrial {
                iteration: i,
                point: h.points[i].clone(),
                config: h.configs[i].clone(),
                raw_score: h.raw_scores[i],
                metrics: vec![],
                status: h.statuses[i],
                attempts: h.attempts[i],
            })
            .collect()
    }

    fn assert_histories_bit_equal(a: &SessionHistory, b: &SessionHistory) {
        assert_eq!(a.configs, b.configs);
        assert_eq!(a.points, b.points);
        assert_eq!(a.raw_scores, b.raw_scores);
        assert_eq!(a.stopped_at, b.stopped_at);
        assert_eq!(a.statuses, b.statuses);
        assert_eq!(a.attempts, b.attempts);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.scores), bits(&b.scores));
        assert_eq!(bits(&a.best_curve), bits(&b.best_curve));
    }

    #[test]
    fn replay_cutoff_respects_round_boundaries() {
        let opts = SessionOptions { iterations: 12, n_init: 5, ..Default::default() };
        // Rounds at q=3: [0], [1..3], [4..5] (LHS truncated), [6..8],
        // [9..11], [12].
        let boundaries = [0, 1, 4, 6, 9, 12, 13];
        for recorded in 0..=13 {
            let cut = replay_cutoff(recorded, &opts, 3);
            assert!(boundaries.contains(&cut), "recorded={recorded} cut={cut}");
            assert!(cut <= recorded);
            let next = boundaries.iter().copied().find(|&b| b > cut).unwrap_or(13);
            assert!(recorded < next || recorded >= 13, "recorded={recorded} cut={cut}");
        }
        // q=1: every prefix is a boundary.
        for recorded in 0..=13 {
            assert_eq!(replay_cutoff(recorded, &opts, 1), recorded.min(13));
        }
    }

    #[test]
    fn resume_at_every_boundary_is_bit_identical() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let opts = SessionOptions { iterations: 11, n_init: 4, ..Default::default() };
        let dims = adapter.optimizer_spec().len();
        let mut e = FnExecutor(objective(&space));
        let full =
            run_batched(&adapter, Box::new(HistoryHash { dims, seen: vec![] }), &mut e, &opts, 3);
        let prior = history_to_prior(&full);
        for cut in 0..=prior.len() {
            let mut e = FnExecutor(objective(&space));
            let resumed = run_session_resumable(
                &adapter,
                Box::new(HistoryHash { dims, seen: vec![] }),
                &mut e,
                &opts,
                3,
                &prior[..cut],
                None,
            )
            .unwrap();
            assert_histories_bit_equal(&full, &resumed);

            // The same resume stepped by hand, as the daemon steps it.
            let mut session = Session::resume(
                &adapter,
                Box::new(HistoryHash { dims, seen: vec![] }),
                &opts,
                3,
                &prior[..cut],
            )
            .unwrap();
            let mut eval = objective(&space);
            while let Some(trials) = session.next_round(&adapter) {
                let results = trials.iter().map(|t| eval(&t.config)).collect();
                session.report(results, None);
            }
            assert_histories_bit_equal(&full, &session.finish());
        }
    }

    /// Steps a random-search session — `suggest` advances private RNG,
    /// so one suggestion too many shifts every later point — asking for
    /// each round `asks` times before answering it.
    fn stepped_asking(asks: usize) -> SessionHistory {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let opts = SessionOptions { iterations: 9, n_init: 2, ..Default::default() };
        let optimizer = RandomSearch::new(adapter.optimizer_spec().clone(), 17);
        let mut session = Session::resume(&adapter, Box::new(optimizer), &opts, 2, &[]).unwrap();
        let mut eval = objective(&space);
        while let Some(first) = session.next_round(&adapter).map(<[Trial]>::to_vec) {
            for _ in 1..asks {
                let again = session.next_round(&adapter).expect("the round is still pending");
                assert_eq!(again.len(), first.len());
                for (a, b) in again.iter().zip(&first) {
                    assert_eq!((a.iteration, &a.config), (b.iteration, &b.config));
                }
            }
            session.report(first.iter().map(|t| eval(&t.config)).collect(), None);
        }
        session.finish()
    }

    #[test]
    fn next_round_redelivers_the_round_and_leaves_the_optimizer_alone() {
        assert_histories_bit_equal(&stepped_asking(1), &stepped_asking(3));
    }

    #[test]
    #[should_panic(expected = "one result per trial")]
    fn report_refuses_a_result_count_that_is_not_the_rounds() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let optimizer = RandomSearch::new(adapter.optimizer_spec().clone(), 1);
        let mut session =
            Session::resume(&adapter, Box::new(optimizer), &SessionOptions::default(), 2, &[])
                .unwrap();
        assert_eq!(session.next_round(&adapter).map(<[Trial]>::len), Some(1));
        session.report(Vec::new(), None);
    }

    #[test]
    fn sink_streams_every_fresh_trial_and_skips_replayed_ones() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let opts = SessionOptions { iterations: 6, n_init: 2, ..Default::default() };
        let dims = adapter.optimizer_spec().len();
        let mut recorded = Vec::new();
        let mut sink = |t: TrialRecord<'_>| recorded.push((t.iteration, t.score));
        let mut e = FnExecutor(objective(&space));
        let full = run_session_resumable(
            &adapter,
            Box::new(HistoryHash { dims, seen: vec![] }),
            &mut e,
            &opts,
            2,
            &[],
            Some(&mut sink),
        )
        .unwrap();
        assert_eq!(recorded.len(), 7, "iteration 0 + 6 trials all streamed");
        assert_eq!(recorded.iter().map(|r| r.0).collect::<Vec<_>>(), (0..=6).collect::<Vec<_>>());
        for (i, (_, score)) in recorded.iter().enumerate() {
            assert_eq!(score.to_bits(), full.scores[i].to_bits());
        }

        // Resume from iteration 3 (a boundary at q=2 with n_init=2):
        // only iterations 3..=6 are re-emitted.
        let prior = history_to_prior(&full);
        let mut resumed_records = Vec::new();
        let mut sink = |t: TrialRecord<'_>| resumed_records.push(t.iteration);
        let mut e = FnExecutor(objective(&space));
        run_session_resumable(
            &adapter,
            Box::new(HistoryHash { dims, seen: vec![] }),
            &mut e,
            &opts,
            2,
            &prior[..3],
            Some(&mut sink),
        )
        .unwrap();
        assert_eq!(resumed_records, vec![3, 4, 5, 6]);
    }

    #[test]
    fn resume_within_lhs_phase_works_for_any_optimizer() {
        // Up to n_init no optimizer suggestion is consumed, so resume is
        // bit-identical even for suggest-side-stateful optimizers.
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let opts = SessionOptions { iterations: 6, n_init: 6, ..Default::default() };
        let mut e = FnExecutor(objective(&space));
        let full = run_batched(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 3)),
            &mut e,
            &opts,
            2,
        );
        let prior = history_to_prior(&full);
        let mut e = FnExecutor(objective(&space));
        let resumed = run_session_resumable(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 3)),
            &mut e,
            &opts,
            2,
            &prior[..3],
            None,
        )
        .unwrap();
        assert_histories_bit_equal(&full, &resumed);
    }

    #[test]
    fn replay_applies_early_stopping_without_running_trials() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let obj =
            |_: &Config| EvalResult { score: Some(5.0), metrics: vec![], ..Default::default() };
        let opts = SessionOptions {
            iterations: 40,
            n_init: 3,
            early_stop: Some(EarlyStopPolicy { min_improvement_pct: 1.0, patience: 6 }),
            ..Default::default()
        };
        let mut e = FnExecutor(obj);
        let full = run_batched(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 9)),
            &mut e,
            &opts,
            1,
        );
        let stopped = full.stopped_at.expect("flat curve must stop");
        let prior = history_to_prior(&full);
        // Feed the complete stopped transcript back: replay must stop at
        // the same iteration without evaluating anything.
        let mut calls = 0usize;
        let mut e = FnExecutor(|_: &Config| {
            calls += 1;
            EvalResult { score: Some(5.0), metrics: vec![], ..Default::default() }
        });
        let resumed = run_session_resumable(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 9)),
            &mut e,
            &opts,
            1,
            &prior,
            None,
        )
        .unwrap();
        assert_eq!(resumed.stopped_at, Some(stopped));
        assert_histories_bit_equal(&full, &resumed);
    }

    #[test]
    fn warm_points_replace_the_lhs_prefix() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let d = adapter.optimizer_spec().len();
        let warm = vec![vec![0.25; d], vec![0.75; d]];
        let opts = SessionOptions { iterations: 5, n_init: 5, ..Default::default() };
        let cold_opts = opts.clone();
        let warm_opts = SessionOptions { warm_points: warm.clone(), ..opts };
        let mut e = FnExecutor(objective(&space));
        let cold = run_batched(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 2)),
            &mut e,
            &cold_opts,
            1,
        );
        let mut e = FnExecutor(objective(&space));
        let warmed = run_batched(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 2)),
            &mut e,
            &warm_opts,
            1,
        );
        let spec = adapter.optimizer_spec();
        assert_eq!(warmed.points[1], spec.snap(&warm[0]), "warm points snap like LHS points");
        assert_eq!(warmed.points[2], spec.snap(&warm[1]));
        // The tail of the design is the cold session's LHS stream.
        assert_eq!(warmed.points[3..6], cold.points[3..6]);
        assert_ne!(warmed.points[1], cold.points[1]);
    }

    #[test]
    fn malformed_resume_inputs_are_rejected() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let opts = SessionOptions { iterations: 4, n_init: 2, ..Default::default() };
        let mut e = FnExecutor(objective(&space));
        let gap = vec![PriorTrial {
            iteration: 3,
            point: vec![],
            config: space.default_config(),
            raw_score: Some(1.0),
            metrics: vec![],
            status: TrialStatus::Ok,
            attempts: 1,
        }];
        assert!(run_session_resumable(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 1)),
            &mut e,
            &opts,
            1,
            &gap,
            None,
        )
        .is_err());
        let bad_warm = SessionOptions { warm_points: vec![vec![0.5; 2]], ..opts };
        let mut e = FnExecutor(objective(&space));
        assert!(run_session_resumable(
            &adapter,
            Box::new(RandomSearch::new(adapter.optimizer_spec().clone(), 1)),
            &mut e,
            &bad_warm,
            1,
            &[],
            None,
        )
        .is_err());
    }

    #[test]
    fn best_config_matches_best_score() {
        let space = postgres_v9_6();
        let adapter = IdentityAdapter::new(&space);
        let sb = space.index_of("shared_buffers").unwrap();
        let opt = RandomSearch::new(adapter.optimizer_spec().clone(), 6);
        let opts = SessionOptions { iterations: 25, n_init: 10, ..Default::default() };
        let h = run_session(&adapter, Box::new(opt), objective(&space), &opts);
        let best_cfg = h.best_config().unwrap();
        // Verify the recorded best config actually reproduces the best
        // score under the same objective.
        let sbv = best_cfg.values()[sb].as_float();
        assert!(sbv <= 0.9 * 2_097_152.0, "best config cannot be a crashed one");
        match best_cfg.values()[sb] {
            KnobValue::Int(_) => {}
            other => panic!("unexpected type {other:?}"),
        }
    }
}
