//! Per-trial execution policy: watchdog timeouts, bounded retry with
//! deterministic backoff, and panic isolation.
//!
//! The policy sits between the executor and a [`TrialRunner`]: every
//! trial is evaluated under `catch_unwind` (a panicking runner poisons
//! one worker slot, never the campaign), timed against a *virtual*
//! watchdog (the engine simulates, so timeouts compare simulated
//! milliseconds — recorded histories never contain wall time), and
//! retried on retryable failures with delays drawn from the shared
//! [`llamatune::backoff`] schedule. A trial that still fails is final:
//! the executor quarantines its configuration in the session's
//! [`EvalCache`](crate::EvalCache), so later rounds that re-suggest it
//! are penalty-scored ([`TrialStatus::Quarantined`]) without re-running.
//!
//! Determinism: every decision here is a pure function of the trial's
//! configuration, the evaluation seed, and the policy — never of wall
//! clock, worker count, or completion order.
//!
//! The default policy is inert: infinite timeout, one attempt.
//! Fault-free campaigns behave — byte for byte — as if the policy layer
//! did not exist.

use llamatune::backoff::{Backoff, BackoffPolicy};
use llamatune::session::{EvalResult, TrialStatus};
use llamatune_obs::MetricsRegistry;
use llamatune_space::{Config, ConfigSpace};
use llamatune_workloads::{config_fingerprint, TrialRunner};
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
    /// (`retryable: false`) is never retried. Delays between attempts
    /// follow [`BackoffPolicy::TRIAL_RETRY`] in virtual milliseconds,
    /// seeded by `(eval seed, config fingerprint)` so they replay
    /// exactly.
    pub max_attempts: u32,
}

impl Default for ExecutionPolicy {
    fn default() -> Self {
        ExecutionPolicy { timeout_ms: f64::INFINITY, max_attempts: 1 }
    }
}

impl ExecutionPolicy {
    /// A policy hardened for chaotic runners, used by the chaos suites:
    /// a 10-second virtual watchdog (catches hangs and pathological
    /// stragglers) and three attempts (clears transient faults).
    pub fn hardened() -> ExecutionPolicy {
        ExecutionPolicy { timeout_ms: 10_000.0, max_attempts: 3 }
    }
}

/// One attempt's settled disposition, logged by [`run_trial_policy`] so
/// the executor can emit `trial.attempt` spans after the batch folds —
/// attempts run on worker threads, and recording them out-of-band keeps
/// trace emission on the session thread.
#[derive(Debug, Clone)]
pub(crate) struct AttemptTrace {
    /// Attempt number, from 1.
    pub attempt: u32,
    /// Virtual milliseconds this attempt consumed.
    pub virtual_ms: f64,
    /// How the attempt settled: `ok`, `crashed`, `timed_out`,
    /// `panicked`, or `quarantined`.
    pub disposition: &'static str,
}

/// Runs one trial to a settled disposition under `policy`: its result,
/// and one [`AttemptTrace`] per attempt, in attempt order. The recorded
/// `attempts` counts every evaluation the trial consumed, and
/// `virtual_ms` totals them with the backoff delays between them.
pub(crate) fn run_trial_policy(
    runner: &dyn TrialRunner,
    space: &ConfigSpace,
    config: &Config,
    seed: u64,
    policy: &ExecutionPolicy,
    metrics_reg: &MetricsRegistry,
) -> (EvalResult, Vec<AttemptTrace>) {
    let fp = config_fingerprint(config);
    let mut clock = 0.0;
    let mut backoff = Backoff::new(BackoffPolicy::TRIAL_RETRY, seed ^ fp);
    let mut attempt = 1;
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

        let status = if timed_out {
            TrialStatus::TimedOut
        } else if panicked || score.is_none() {
            TrialStatus::Crashed
        } else {
            TrialStatus::Ok
        };
        // A failed attempt retries while attempts and the backoff budget
        // allow, unless it is a deterministic crash (retryable: false,
        // no panic, no timeout), which is final immediately.
        if status != TrialStatus::Ok && attempt < policy.max_attempts && (timed_out || retryable) {
            if let Some(delay) = backoff.next() {
                metrics_reg.incr("policy.retries", 1);
                clock += delay as f64;
                attempt += 1;
                continue;
            }
        }
        // A failed attempt keeps its metrics (a crashing benchmark may
        // still report partial counters) — matching what a plain runner
        // records for a crashed configuration.
        let score = if status == TrialStatus::Ok { score } else { None };
        let result = EvalResult { score, metrics, status, attempts: attempt, virtual_ms: clock };
        return (result, attempts_log);
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

    fn run(runner: &dyn TrialRunner, policy: &ExecutionPolicy) -> (EvalResult, Vec<AttemptTrace>) {
        let sp = space();
        let cfg = sp.default_config();
        run_trial_policy(runner, &sp, &cfg, 7, policy, &MetricsRegistry::new())
    }

    #[test]
    fn default_policy_is_single_attempt_pass_through() {
        let r = Scripted::ok(100.0);
        let (out, _) = run(&r, &ExecutionPolicy::default());
        assert_eq!(out.status, TrialStatus::Ok);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.score, Some(10.0));
        assert_eq!(r.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn transient_failures_retry_with_backoff_and_record_attempts() {
        let r = Scripted { fail_first: 2, ..Scripted::ok(100.0) };
        let policy = ExecutionPolicy { max_attempts: 3, ..Default::default() };
        let (out, _) = run(&r, &policy);
        assert_eq!(out.status, TrialStatus::Ok);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.score, Some(30.0));
        // Virtual clock: two 1ms failures + backoff delays + the run.
        assert!(out.virtual_ms > 102.0, "backoff delays must land on the virtual clock");
    }

    #[test]
    fn exhausted_retries_settle_as_crashed_and_quarantine() {
        let r = Scripted { fail_first: 10, ..Scripted::ok(100.0) };
        let policy = ExecutionPolicy { max_attempts: 3, ..Default::default() };
        let (out, _) = run(&r, &policy);
        assert_eq!(out.status, TrialStatus::Crashed);
        assert_eq!(out.attempts, 3);
        assert!(out.score.is_none());
        // A failure is final: the executor quarantines it.
        assert!(out.is_retryable(), "the cache must refuse it");
    }

    #[test]
    fn deterministic_crashes_are_never_retried() {
        let r = Scripted { fail_first: 10, retryable: false, ..Scripted::ok(100.0) };
        let policy = ExecutionPolicy { max_attempts: 5, ..Default::default() };
        let (out, _) = run(&r, &policy);
        assert_eq!(out.status, TrialStatus::Crashed);
        assert_eq!(out.attempts, 1, "retrying a deterministic crash is waste");
        assert_eq!(r.calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn watchdog_times_out_on_virtual_not_wall_time() {
        let r = Scripted::ok(50_000.0);
        let policy = ExecutionPolicy { timeout_ms: 10_000.0, max_attempts: 2 };
        let started = std::time::Instant::now();
        let (out, _) = run(&r, &policy);
        assert_eq!(out.status, TrialStatus::TimedOut);
        assert_eq!(out.attempts, 2, "timeouts are retried up to the budget");
        assert!(out.score.is_none());
        // 100 virtual seconds, near-zero wall time.
        assert!(started.elapsed().as_secs() < 5);
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let r = Scripted { panic_on: Some(1), ..Scripted::ok(100.0) };
        let policy = ExecutionPolicy { max_attempts: 2, ..Default::default() };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the scripted panic
        let (out, _) = run(&r, &policy);
        std::panic::set_hook(prev);
        assert_eq!(out.status, TrialStatus::Ok);
        assert_eq!(out.attempts, 2);
    }

    #[test]
    fn policy_counters_land_in_the_metrics_registry_with_attempt_log() {
        let r = Scripted { fail_first: 2, ..Scripted::ok(100.0) };
        let policy = ExecutionPolicy { max_attempts: 3, ..Default::default() };
        let sp = space();
        let cfg = sp.default_config();
        let metrics = MetricsRegistry::new();
        let (_, log) = run_trial_policy(&r, &sp, &cfg, 7, &policy, &metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("policy.retries"), 2);
        assert_eq!(snap.counter("policy.timeouts"), 0);
        let dispositions: Vec<&str> = log.iter().map(|a| a.disposition).collect();
        assert_eq!(dispositions, vec!["crashed", "crashed", "ok"]);
    }

    #[test]
    fn settled_outcomes_are_deterministic() {
        let policy = ExecutionPolicy { max_attempts: 3, ..Default::default() };
        let (a, _) = run(&Scripted { fail_first: 1, ..Scripted::ok(80.0) }, &policy);
        let (b, _) = run(&Scripted { fail_first: 1, ..Scripted::ok(80.0) }, &policy);
        assert_eq!(a.score, b.score);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.virtual_ms, b.virtual_ms, "backoff jitter is seeded, not random");
    }
}
