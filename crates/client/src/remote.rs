//! The whole client-side tuning loop: attach, evaluate locally, report,
//! reconnect on failure, export.

use crate::{Client, ClientError};
use llamatune::session::{Trial, TrialExecutor};
use llamatune_runtime::{session_executor, CampaignOptions, ExecutionPolicy, WorkloadExecutor};
use llamatune_server::wire::{CreateSession, Report, SuggestReply, WireResult};
use llamatune_space::ConfigSpace;
use std::time::Duration;

/// Client-side evaluation knobs.
#[derive(Debug, Clone)]
pub struct RemoteSessionOptions {
    /// Worker threads evaluating one round (results are worker-count
    /// independent, like everywhere else in the stack).
    pub trial_workers: usize,
    /// Fault-tolerance policy applied to local evaluation. Must match
    /// what the equivalent in-process campaign would use for exported
    /// histories to be byte-identical.
    pub policy: ExecutionPolicy,
    /// Reconnect attempts after a transport failure before giving up.
    pub reconnect_attempts: usize,
    /// Sleep between reconnect attempts.
    pub reconnect_backoff: Duration,
    /// Override the runner's simulation window, mirroring
    /// `CampaignOptions::run_options` — the daemon applies its own copy
    /// server-side, but the client's runner does the actual evaluation.
    pub run_options: Option<llamatune_engine::RunOptions>,
}

impl Default for RemoteSessionOptions {
    fn default() -> Self {
        RemoteSessionOptions {
            trial_workers: 1,
            policy: ExecutionPolicy::default(),
            reconnect_attempts: 5,
            reconnect_backoff: Duration::from_millis(100),
            run_options: None,
        }
    }
}

/// What a completed remote session hands back.
#[derive(Debug, Clone)]
pub struct RemoteOutcome {
    /// The session's canonical label.
    pub session: String,
    /// The recorded history as JSONL, via the daemon's canonical store
    /// export — byte-identical to the same campaign run in-process.
    pub jsonl: String,
    /// Rounds this client evaluated (0 when attaching to a finished
    /// session).
    pub rounds_evaluated: usize,
    /// Trials this client evaluated.
    pub trials_evaluated: usize,
}

/// Runs one tuning session against the daemon at `addr`, evaluating
/// trials locally, until the session completes; returns the exported
/// history. Safe to call for a session other clients (or a previous,
/// killed incarnation of this one) already advanced: attach is
/// idempotent, the unanswered round is redelivered, and completed
/// trials are never re-evaluated.
pub fn run_remote_session(
    addr: &str,
    catalog: &ConfigSpace,
    spec: &CreateSession,
    opts: &RemoteSessionOptions,
) -> Result<RemoteOutcome, ClientError> {
    let mut attempts_left = opts.reconnect_attempts;
    let mut rounds_evaluated = 0usize;
    let mut trials_evaluated = 0usize;
    loop {
        match drive_once(addr, catalog, spec, opts, &mut rounds_evaluated, &mut trials_evaluated) {
            Ok(outcome) => return Ok(outcome),
            Err(e) if e.is_retryable() && attempts_left > 0 => {
                attempts_left -= 1;
                std::thread::sleep(opts.reconnect_backoff);
            }
            Err(e) => return Err(e),
        }
    }
}

/// One connection's worth of the loop: connect, attach, build a fresh
/// local executor (quarantine preloaded from the attach reply — the
/// same failed-prefix set a resuming in-process run would preload),
/// evaluate until done or the transport dies.
fn drive_once(
    addr: &str,
    catalog: &ConfigSpace,
    spec: &CreateSession,
    opts: &RemoteSessionOptions,
    rounds_evaluated: &mut usize,
    trials_evaluated: &mut usize,
) -> Result<RemoteOutcome, ClientError> {
    let mut client = Client::connect(addr)?;
    let attached = client.create_session(spec)?;
    let session = attached.session.clone();
    if attached.done {
        let jsonl = client.export_history(&session)?;
        return Ok(RemoteOutcome {
            session,
            jsonl,
            rounds_evaluated: *rounds_evaluated,
            trials_evaluated: *trials_evaluated,
        });
    }

    let mut executor = build_executor(catalog, spec, opts)?;
    executor.preload_quarantine(attached.quarantine.iter());

    loop {
        match client.suggest_batch(&session)? {
            SuggestReply::Done => {
                let jsonl = client.export_history(&session)?;
                return Ok(RemoteOutcome {
                    session,
                    jsonl,
                    rounds_evaluated: *rounds_evaluated,
                    trials_evaluated: *trials_evaluated,
                });
            }
            SuggestReply::Round { round, trials } => {
                let batch: Vec<Trial> = trials
                    .iter()
                    .map(|t| {
                        Ok(Trial {
                            iteration: t.iteration,
                            config: t.to_config().map_err(ClientError::Wire)?,
                        })
                    })
                    .collect::<Result<_, ClientError>>()?;
                let results = executor.run_batch(&batch);
                *rounds_evaluated += 1;
                *trials_evaluated += results.len();
                client.report(&Report {
                    session: session.clone(),
                    round,
                    results: results.iter().map(WireResult::from_eval).collect(),
                })?;
            }
        }
    }
}

/// The client-side executor: the one [`session_executor`] builds for
/// the in-process run of the same session (no fault plan; its own
/// evaluation cache).
fn build_executor(
    catalog: &ConfigSpace,
    spec: &CreateSession,
    opts: &RemoteSessionOptions,
) -> Result<WorkloadExecutor, ClientError> {
    let campaign = CampaignOptions {
        trial_workers: opts.trial_workers,
        policy: opts.policy,
        run_options: opts.run_options.clone(),
        ..CampaignOptions::default()
    };
    session_executor(catalog, &campaign, &spec.workload, spec.seed).ok_or_else(|| {
        ClientError::Wire(llamatune_server::wire::WireError::new(
            llamatune_server::wire::code::BAD_PARAMS,
            format!("unknown workload {:?}", spec.workload),
        ))
    })
}
