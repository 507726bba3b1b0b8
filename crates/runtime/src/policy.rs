//! Per-trial execution policy: watchdog timeouts, bounded retry with
//! deterministic backoff, straggler hedging, panic isolation, and
//! poisoned-config quarantine.
//!
//! The policy sits between the session loop and a
//! [`TrialRunner`]: every trial is
//! evaluated under `catch_unwind` (a panicking runner poisons one
//! worker slot, never the campaign), timed against a *virtual* watchdog
//! (the engine simulates, so timeouts compare simulated milliseconds —
//! recorded histories never contain wall time), retried on retryable
//! failures with delays drawn from the shared
//! [`llamatune::backoff`] schedule, and — when a configuration fails
//! terminally — quarantined, so later rounds that re-suggest it are
//! penalty-scored ([`TrialStatus::Quarantined`]) without re-running.
//!
//! Determinism: every decision here is a pure function of the trial's
//! configuration, the evaluation seed, and the policy — never of wall
//! clock, worker count, or completion order. Quarantine membership is
//! snapshotted per batch (and committed after the batch folds), so two
//! trials of one round can never race on it.
//!
//! The default policy is inert: infinite timeout, one attempt, no
//! hedging. Fault-free campaigns behave — byte for byte — as if the
//! policy layer did not exist.

use llamatune::backoff::{Backoff, BackoffPolicy};
use llamatune::session::{EvalResult, TrialStatus};
use llamatune_obs::MetricsRegistry;
use llamatune_space::{Config, ConfigSpace};
use llamatune_workloads::{config_fingerprint, TrialRunner};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How the executor shepherds each trial through failure modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionPolicy {
    /// Watchdog timeout per attempt, in *virtual* milliseconds; an
    /// attempt whose simulated duration exceeds this is recorded as
    /// [`TrialStatus::TimedOut`]. `f64::INFINITY` (the default)
    /// disables the watchdog.
    pub timeout_ms: f64,
    /// Evaluation attempts per trial (>= 1). Retries fire on panics,
    /// timeouts, and retryable failures; a deterministic crash
    /// (`retryable: false`) is never retried.
    pub max_attempts: u32,
    /// Backoff schedule between attempts; delays are virtual
    /// milliseconds added to the trial's virtual clock, seeded by
    /// `(eval seed, config fingerprint)` so they replay exactly.
    pub retry_backoff: BackoffPolicy,
    /// Straggler hedging threshold, in virtual milliseconds: a
    /// *successful* trial whose virtual time exceeds this is
    /// re-attempted once, and the faster successful outcome wins
    /// (attempt counts record the hedge). The threshold is absolute —
    /// deliberately not batch-relative — so the hedge decision is a
    /// pure function of the trial itself: a batch median would shift
    /// when part of a round is answered by the evaluation cache (e.g.
    /// on resume), silently changing recorded attempt counts.
    /// `f64::INFINITY` (the default) disables hedging.
    pub hedge_ms: f64,
    /// Quarantine configurations that failed terminally: re-encounters
    /// are scored with the crash penalty (status
    /// [`TrialStatus::Quarantined`]) without re-running the benchmark.
    pub quarantine: bool,
}

impl Default for ExecutionPolicy {
    fn default() -> Self {
        ExecutionPolicy {
            timeout_ms: f64::INFINITY,
            max_attempts: 1,
            retry_backoff: BackoffPolicy::TRIAL_RETRY,
            hedge_ms: f64::INFINITY,
            quarantine: true,
        }
    }
}

impl ExecutionPolicy {
    /// A policy hardened for chaotic runners, used by the chaos suites:
    /// a 10-second virtual watchdog (catches hangs and pathological
    /// stragglers), three attempts (clears transient faults), hedging
    /// at a quarter of the watchdog, and quarantine on.
    pub fn hardened() -> ExecutionPolicy {
        ExecutionPolicy {
            timeout_ms: 10_000.0,
            max_attempts: 3,
            hedge_ms: 2_500.0,
            ..ExecutionPolicy::default()
        }
    }
}

/// One attempt's settled disposition, logged by [`run_trial_policy`] so
/// the executor can emit `trial.attempt` spans after the batch folds —
/// attempts run on worker threads, and recording them out-of-band keeps
/// trace emission on the session thread.
#[derive(Debug, Clone)]
pub(crate) struct AttemptTrace {
    /// Absolute attempt number (hedge re-runs continue the count).
    pub attempt: u32,
    /// Virtual milliseconds this attempt consumed.
    pub virtual_ms: f64,
    /// How the attempt settled: `ok`, `crashed`, `timed_out`,
    /// `panicked`, or `quarantined`.
    pub disposition: &'static str,
}

/// One trial's settled outcome plus the policy-internal context the
/// executor needs (hedging compares virtual times; quarantine keys are
/// committed only after the whole batch folds).
#[derive(Debug, Clone)]
pub(crate) struct TrialOutcome {
    pub result: EvalResult,
    /// Total virtual milliseconds consumed (attempts + backoff delays).
    pub virtual_ms: f64,
    /// Fingerprint to quarantine, when the trial failed terminally.
    pub quarantine_key: Option<u64>,
    /// Per-attempt dispositions, in attempt order.
    pub attempts_log: Vec<AttemptTrace>,
}

/// Runs one trial to a settled disposition under `policy`.
///
/// `first_attempt`/`budget` parameterize hedge re-runs: the normal path
/// starts at attempt 1 with the policy's full attempt budget; a hedge
/// re-runs starting past the original's last attempt with a budget of
/// one. Attempt numbers are absolute, so the recorded `attempts` field
/// counts every evaluation the trial consumed.
#[allow(clippy::too_many_arguments)] // internal seam; callers are the executor and its hedger
pub(crate) fn run_trial_policy(
    runner: &dyn TrialRunner,
    space: &ConfigSpace,
    config: &Config,
    seed: u64,
    policy: &ExecutionPolicy,
    quarantined: &HashSet<u64>,
    metrics_reg: &MetricsRegistry,
    first_attempt: u32,
    budget: u32,
) -> TrialOutcome {
    let fp = config_fingerprint(config);
    if policy.quarantine && first_attempt == 1 && quarantined.contains(&fp) {
        metrics_reg.incr("policy.quarantine_hits", 1);
        return TrialOutcome {
            result: EvalResult {
                score: None,
                metrics: Vec::new(),
                status: TrialStatus::Quarantined,
                attempts: 1,
                virtual_ms: 0.0,
            },
            virtual_ms: 0.0,
            quarantine_key: None,
            attempts_log: vec![AttemptTrace {
                attempt: 1,
                virtual_ms: 0.0,
                disposition: "quarantined",
            }],
        };
    }

    let mut clock = 0.0;
    let mut backoff = Backoff::new(policy.retry_backoff, seed ^ fp);
    let mut attempt = first_attempt;
    let last_attempt = first_attempt.saturating_add(budget.max(1)) - 1;
    let mut attempts_log = Vec::new();
    loop {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            runner.evaluate_attempt(space, config, seed, attempt)
        }));
        let (score, metrics, virtual_ms, retryable, panicked) = match outcome {
            Ok(o) => (o.score, o.metrics, o.virtual_ms, o.retryable, false),
            Err(_) => {
                // Panic isolation: the worker slot survives, the trial
                // folds as a crashed (retryable) attempt.
                metrics_reg.incr("policy.panics_caught", 1);
                (None, Vec::new(), 1.0, true, true)
            }
        };
        clock += virtual_ms;
        let timed_out = virtual_ms > policy.timeout_ms;
        if timed_out {
            metrics_reg.incr("policy.timeouts", 1);
        }
        attempts_log.push(AttemptTrace {
            attempt,
            virtual_ms,
            disposition: if timed_out {
                "timed_out"
            } else if panicked {
                "panicked"
            } else if score.is_some() {
                "ok"
            } else {
                "crashed"
            },
        });

        if !timed_out && !panicked && score.is_some() {
            return TrialOutcome {
                result: EvalResult {
                    score,
                    metrics,
                    status: TrialStatus::Ok,
                    attempts: attempt,
                    virtual_ms: clock,
                },
                virtual_ms: clock,
                quarantine_key: None,
                attempts_log,
            };
        }

        // This attempt failed. Deterministic crashes (retryable: false,
        // no panic, no timeout) are final immediately; everything else
        // retries while attempts and the backoff budget allow.
        if attempt < last_attempt && (timed_out || retryable) {
            if let Some(delay) = backoff.next() {
                metrics_reg.incr("policy.retries", 1);
                clock += delay as f64;
                attempt += 1;
                continue;
            }
        }
        let status = if timed_out { TrialStatus::TimedOut } else { TrialStatus::Crashed };
        // Keep the failed attempt's metrics (a crashing benchmark may
        // still report partial counters) — matching what a plain runner
        // records for a crashed configuration.
        return TrialOutcome {
            result: EvalResult {
                score: None,
                metrics,
                status,
                attempts: attempt,
                virtual_ms: clock,
            },
            virtual_ms: clock,
            quarantine_key: policy.quarantine.then_some(fp),
            attempts_log,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_workloads::AttemptOutcome;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Scripted runner: fails the first `fail_first` attempts
    /// retryably, then succeeds with the given virtual duration.
    struct Scripted {
        fail_first: u32,
        virtual_ms: f64,
        calls: AtomicU32,
        panic_on: Option<u32>,
        retryable: bool,
    }

    impl Scripted {
        fn ok(virtual_ms: f64) -> Scripted {
            Scripted {
                fail_first: 0,
                virtual_ms,
                calls: AtomicU32::new(0),
                panic_on: None,
                retryable: true,
            }
        }
    }

    impl TrialRunner for Scripted {
        fn evaluate_attempt(
            &self,
            _space: &ConfigSpace,
            _config: &Config,
            _seed: u64,
            attempt: u32,
        ) -> AttemptOutcome {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if Some(attempt) == self.panic_on {
                panic!("scripted panic");
            }
            if attempt <= self.fail_first {
                AttemptOutcome {
                    score: None,
                    metrics: Vec::new(),
                    virtual_ms: 1.0,
                    retryable: self.retryable,
                }
            } else {
                AttemptOutcome {
                    score: Some(10.0 * attempt as f64),
                    metrics: vec![1.0],
                    virtual_ms: self.virtual_ms,
                    retryable: false,
                }
            }
        }
    }

    fn space() -> ConfigSpace {
        llamatune_space::catalog::postgres_v9_6()
    }

    fn run(
        runner: &dyn TrialRunner,
        policy: &ExecutionPolicy,
        quarantined: &HashSet<u64>,
    ) -> TrialOutcome {
        let sp = space();
        let cfg = sp.default_config();
        let metrics = MetricsRegistry::new();
        run_trial_policy(
            runner,
            &sp,
            &cfg,
            7,
            policy,
            quarantined,
            &metrics,
            1,
            policy.max_attempts,
        )
    }

    #[test]
    fn default_policy_is_single_attempt_pass_through() {
        let r = Scripted::ok(100.0);
        let out = run(&r, &ExecutionPolicy::default(), &HashSet::new());
        assert_eq!(out.result.status, TrialStatus::Ok);
        assert_eq!(out.result.attempts, 1);
        assert_eq!(out.result.score, Some(10.0));
        assert_eq!(r.calls.load(Ordering::SeqCst), 1);
        assert!(out.quarantine_key.is_none());
    }

    #[test]
    fn transient_failures_retry_with_backoff_and_record_attempts() {
        let r = Scripted { fail_first: 2, ..Scripted::ok(100.0) };
        let policy = ExecutionPolicy { max_attempts: 3, ..Default::default() };
        let out = run(&r, &policy, &HashSet::new());
        assert_eq!(out.result.status, TrialStatus::Ok);
        assert_eq!(out.result.attempts, 3);
        assert_eq!(out.result.score, Some(30.0));
        // Virtual clock: two 1ms failures + backoff delays + the run.
        assert!(out.virtual_ms > 102.0, "backoff delays must land on the virtual clock");
    }

    #[test]
    fn exhausted_retries_settle_as_crashed_and_quarantine() {
        let r = Scripted { fail_first: 10, ..Scripted::ok(100.0) };
        let policy = ExecutionPolicy { max_attempts: 3, ..Default::default() };
        let out = run(&r, &policy, &HashSet::new());
        assert_eq!(out.result.status, TrialStatus::Crashed);
        assert_eq!(out.result.attempts, 3);
        assert!(out.result.score.is_none());
        assert!(out.quarantine_key.is_some());
    }

    #[test]
    fn deterministic_crashes_are_never_retried() {
        let r = Scripted { fail_first: 10, retryable: false, ..Scripted::ok(100.0) };
        let policy = ExecutionPolicy { max_attempts: 5, ..Default::default() };
        let out = run(&r, &policy, &HashSet::new());
        assert_eq!(out.result.status, TrialStatus::Crashed);
        assert_eq!(out.result.attempts, 1, "retrying a deterministic crash is waste");
        assert_eq!(r.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn watchdog_times_out_on_virtual_not_wall_time() {
        let r = Scripted::ok(50_000.0);
        let policy =
            ExecutionPolicy { timeout_ms: 10_000.0, max_attempts: 2, ..Default::default() };
        let started = std::time::Instant::now();
        let out = run(&r, &policy, &HashSet::new());
        assert_eq!(out.result.status, TrialStatus::TimedOut);
        assert_eq!(out.result.attempts, 2, "timeouts are retried up to the budget");
        assert!(out.quarantine_key.is_some());
        // 100 virtual seconds, near-zero wall time.
        assert!(started.elapsed().as_secs() < 5);
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let r = Scripted { panic_on: Some(1), ..Scripted::ok(100.0) };
        let policy = ExecutionPolicy { max_attempts: 2, ..Default::default() };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the scripted panic
        let out = run(&r, &policy, &HashSet::new());
        std::panic::set_hook(prev);
        assert_eq!(out.result.status, TrialStatus::Ok);
        assert_eq!(out.result.attempts, 2);
    }

    #[test]
    fn quarantined_configs_are_scored_without_running() {
        let r = Scripted::ok(100.0);
        let sp = space();
        let fp = config_fingerprint(&sp.default_config());
        let out = run(&r, &ExecutionPolicy::default(), &HashSet::from([fp]));
        assert_eq!(out.result.status, TrialStatus::Quarantined);
        assert!(out.result.score.is_none());
        assert_eq!(r.calls.load(Ordering::SeqCst), 0, "quarantine must not run the benchmark");
        // Quarantine off: the trial runs normally.
        let policy = ExecutionPolicy { quarantine: false, ..Default::default() };
        let out = run(&r, &policy, &HashSet::from([fp]));
        assert_eq!(out.result.status, TrialStatus::Ok);
    }

    #[test]
    fn policy_counters_land_in_the_metrics_registry_with_attempt_log() {
        let r = Scripted { fail_first: 2, ..Scripted::ok(100.0) };
        let policy = ExecutionPolicy { max_attempts: 3, ..Default::default() };
        let sp = space();
        let cfg = sp.default_config();
        let metrics = MetricsRegistry::new();
        let out = run_trial_policy(&r, &sp, &cfg, 7, &policy, &HashSet::new(), &metrics, 1, 3);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("policy.retries"), 2);
        assert_eq!(snap.counter("policy.timeouts"), 0);
        let dispositions: Vec<&str> = out.attempts_log.iter().map(|a| a.disposition).collect();
        assert_eq!(dispositions, vec!["crashed", "crashed", "ok"]);
        assert_eq!(out.result.virtual_ms, out.virtual_ms);
    }

    #[test]
    fn settled_outcomes_are_deterministic() {
        let policy = ExecutionPolicy { max_attempts: 3, ..Default::default() };
        let a = run(&Scripted { fail_first: 1, ..Scripted::ok(80.0) }, &policy, &HashSet::new());
        let b = run(&Scripted { fail_first: 1, ..Scripted::ok(80.0) }, &policy, &HashSet::new());
        assert_eq!(a.result.score, b.result.score);
        assert_eq!(a.result.attempts, b.result.attempts);
        assert_eq!(a.virtual_ms, b.virtual_ms, "backoff jitter is seeded, not random");
    }
}
