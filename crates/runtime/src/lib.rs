//! # llamatune-runtime: the parallel trial-execution runtime
//!
//! The paper's tuning loop is strictly sequential: suggest one
//! configuration, run the benchmark, observe, repeat. On real hardware
//! that leaves every core but one idle during the expensive part — the
//! benchmark run. This crate turns the loop into a campaign engine:
//!
//! * [`WorkloadExecutor`] — the `TrialExecutor` that maps a batch of
//!   decoded configurations over worker threads sharing one
//!   [`WorkloadRunner`] (cheap: runners are Arc-backed). Results return
//!   in batch order, so histories are worker-count independent.
//! * [`BatchSuggest`] — extracts q > 1 *diverse* suggestions per round
//!   from any unmodified [`Optimizer`] via constant-liar fantasizing:
//!   observe a pessimistic pseudo-score for each pending point, suggest
//!   again, retract the lies (restore the pre-round snapshot, feed the
//!   real results) when they land.
//! * [`EvalCache`] — the session's one record of what is settled per
//!   configuration, keyed by a hash of the decoded configuration: each
//!   measured result, and each configuration quarantined after it failed
//!   terminally. LlamaTune's bucketization collapses many suggestions
//!   onto identical configs, so repeats are common by design; the cache
//!   answers them without a re-run (a quarantined one with the crash
//!   penalty) and reports hit statistics.
//! * [`ExecutionPolicy`] — trial-level fault tolerance: per-attempt
//!   watchdog timeouts on the *virtual* clock, bounded retry with
//!   deterministic backoff (`llamatune::backoff`), and panic isolation
//!   per worker. Paired with
//!   `llamatune_workloads::FaultyRunner` (seeded fault injection) it
//!   makes campaigns survivable under chaos while keeping histories a
//!   pure function of seeds. Failures never abort a campaign: they are
//!   recorded with the paper's §6 penalty score and a
//!   `TrialStatus`/attempt count, and `GuardedOptimizer` (optim crate)
//!   degrades suggestion to random search if the optimizer itself
//!   fails.
//! * [`SessionDriver`] — drives ONE (workload, adapter, optimizer,
//!   seed) cell through the whole trial loop: warm start, quarantine
//!   preload, batched suggestion, evaluation via any `TrialExecutor`,
//!   per-trial checkpointing, and resume from a recorded round
//!   boundary. Its seam is three steps — `open` (set the session up,
//!   or rebuild a finished one), `report` (fold one round in, every
//!   trial in the store before it returns), `finish` (the `Done`
//!   record and the result) — and `run` / `run_with_executor` are the
//!   loop over them for a caller that evaluates inline. `Campaign` and
//!   the bench bins call the loop; the `llamatune-server` daemon, which
//!   waits for a remote client between rounds, calls the steps and
//!   keeps the [`LiveSession`] in between. One driver under all of
//!   them is what makes their histories comparable byte for byte.
//! * [`Campaign`] — fans a (workload × adapter × optimizer × seed) grid
//!   over threads and yields the same [`SessionHistory`] per session
//!   that the sequential path produces. It has three entry points, one
//!   per persistence mode: `run` keeps everything in memory; `resume`
//!   checkpoints every trial into a persistent
//!   `llamatune_store::TrialStore` (crash-survivable — a second
//!   `resume` continues bit-identically from the last recorded round
//!   boundary — and warm-startable from fingerprint-similar past
//!   campaigns); and `run_fleet` scales the same contract to N workers
//!   registered as shared writers on one store backend (local directory
//!   or S3-style object store — `llamatune_store::backend`), leasing
//!   sessions and appending into one common knowledge base; killing any
//!   worker and re-running converges to the identical exported history.
//!   A campaign's transcript is the store's `export_jsonl`.
//!
//! [`WorkloadRunner`]: llamatune_workloads::WorkloadRunner
//! [`Optimizer`]: llamatune_optim::Optimizer
//! [`SessionHistory`]: llamatune::session::SessionHistory
//!
//! ## Reproducibility contract
//!
//! A session's recorded history is a pure function of (adapter seed,
//! optimizer seed, session seed, batch size). Worker counts and session
//! parallelism change only wall-clock time: results are joined by
//! iteration index, penalties and early stopping are folded in iteration
//! order, and evaluation itself is deterministic per seed. The
//! `determinism` integration test pins this down bit-for-bit.

pub mod batch;
pub mod cache;
pub mod campaign;
pub mod driver;
pub mod executor;
pub mod policy;

pub use batch::BatchSuggest;
pub use cache::{CacheStats, EvalCache};
pub use campaign::{
    AdapterKind, Campaign, CampaignOptions, CampaignResult, CampaignSpec, OptimizerKind,
    WarmStartOptions,
};
pub use driver::{session_executor, CellSpec, LiveSession, Opened, SessionDriver};
pub use executor::WorkloadExecutor;
pub use policy::ExecutionPolicy;
