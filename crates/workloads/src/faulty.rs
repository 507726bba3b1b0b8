//! Deterministic fault injection at the trial-execution seam — the
//! runner-side mirror of `llamatune_store::faults`.
//!
//! [`FaultyRunner`] wraps any [`TrialRunner`] and misbehaves on a
//! *seeded schedule*: whether a given configuration panics, fails
//! transiently, hangs, slows down, or returns a corrupted score is a
//! pure function of `(schedule seed, configuration)` — independent of
//! evaluation order, worker count, and (except for transient faults,
//! which clear on retry) attempt number. That makes every robustness
//! behavior of the execution policy testable and *replayable*: re-run
//! the same campaign with the same fault seed and the same trials fault
//! the same way, which is what lets kill-mid-fault resume be
//! byte-identical.
//!
//! The injected failure modes map onto real trial-execution hazards:
//!
//! * [`FaultKind::Panic`] — the evaluation itself panics (a bug in the
//!   benchmark client, a poisoned runner). Contained per-trial by the
//!   execution policy's `catch_unwind` isolation.
//! * [`FaultKind::Transient`] — the attempt fails but a retry can
//!   succeed (connection refused, spurious OOM): the fault clears once
//!   the attempt number exceeds [`FaultPlan::transient_attempts`].
//! * [`FaultKind::Hang`] — the run never finishes: modeled (the engine
//!   is a simulator) as an absurdly large virtual duration, so a
//!   watchdog with any finite timeout fires and a policy without one
//!   still terminates.
//! * [`FaultKind::Slow`] — a straggler: the run completes with its
//!   virtual duration inflated, exercising the watchdog's near-timeout
//!   path (or, past the timeout, its retries) without failing.
//! * [`FaultKind::Corrupt`] — a wrong result: the score is
//!   deterministically perturbed but reported as a success, the failure
//!   mode no retry policy can catch (recorded histories stay
//!   deterministic — the corruption is part of the schedule).

use crate::runner::WorkloadRunner;
use llamatune_math::splitmix64;
use llamatune_space::{Config, ConfigSpace, KnobValue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of one evaluation *attempt* — what the execution policy's
/// retry loop consumes. A plain `EvalResult` (core crate) is produced
/// only after the policy settles on a final disposition.
#[derive(Debug, Clone)]
pub struct AttemptOutcome {
    /// Objective score; `None` when the attempt failed.
    pub score: Option<f64>,
    /// Internal DBMS metrics of the run (empty on failure).
    pub metrics: Vec<f64>,
    /// Virtual milliseconds the attempt took. The engine simulates, so
    /// the watchdog compares this — never wall time — to its timeout.
    pub virtual_ms: f64,
    /// Whether the failure is worth retrying: `true` for transient
    /// errors, `false` for deterministic crashes (a config that OOMs
    /// the DBMS will OOM it again).
    pub retryable: bool,
}

/// The seam between the execution policy and whatever actually runs a
/// benchmark. `attempt` is 1-based; deterministic runners ignore it,
/// fault injectors use it to clear transient faults on retry.
pub trait TrialRunner: Send + Sync {
    /// Runs one evaluation attempt of `config` under `seed`.
    fn evaluate_attempt(
        &self,
        space: &ConfigSpace,
        config: &Config,
        seed: u64,
        attempt: u32,
    ) -> AttemptOutcome;
}

impl TrialRunner for WorkloadRunner {
    fn evaluate_attempt(
        &self,
        space: &ConfigSpace,
        config: &Config,
        seed: u64,
        _attempt: u32,
    ) -> AttemptOutcome {
        let out = self.evaluate(space, config, seed);
        AttemptOutcome {
            score: out.score,
            metrics: out.result.metrics,
            virtual_ms: self.virtual_duration_ms(),
            // A simulated DBMS crash is a pure function of the config:
            // retrying cannot help.
            retryable: false,
        }
    }
}

/// What kind of trial fault to inject; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The evaluation panics.
    Panic,
    /// The attempt fails retryably; clears after
    /// [`FaultPlan::transient_attempts`] attempts.
    Transient,
    /// The run "never" finishes (huge virtual duration).
    Hang,
    /// The run finishes late (inflated virtual duration).
    Slow,
    /// The run reports a deterministically wrong score as a success.
    Corrupt,
}

/// A seeded fault schedule over configurations. Rates are per-mille and
/// partition the roll space, so a configuration draws at most one fault
/// kind; the all-zero default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Schedule seed: the same seed reproduces the same faults.
    pub seed: u64,
    /// Per-mille of configs whose evaluation panics.
    pub panic_per_mille: u32,
    /// Per-mille of configs that fail transiently.
    pub transient_per_mille: u32,
    /// Per-mille of configs that hang.
    pub hang_per_mille: u32,
    /// Per-mille of configs that straggle.
    pub slow_per_mille: u32,
    /// Per-mille of configs whose score is corrupted.
    pub corrupt_per_mille: u32,
    /// Attempts a transient fault persists for before a retry succeeds.
    pub transient_attempts: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_per_mille: 0,
            transient_per_mille: 0,
            hang_per_mille: 0,
            slow_per_mille: 0,
            corrupt_per_mille: 0,
            transient_attempts: 1,
        }
    }
}

impl FaultPlan {
    /// A chaos-test mix touching every fault kind (~30% of configs
    /// faulted overall), parameterized by schedule seed.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_per_mille: 60,
            transient_per_mille: 80,
            hang_per_mille: 50,
            slow_per_mille: 70,
            corrupt_per_mille: 40,
            transient_attempts: 1,
        }
    }

    /// The fault assigned to a configuration fingerprint, if any — a
    /// pure function of `(self.seed, fingerprint)`.
    pub fn fault_for(&self, fingerprint: u64) -> Option<FaultKind> {
        let total = self.panic_per_mille
            + self.transient_per_mille
            + self.hang_per_mille
            + self.slow_per_mille
            + self.corrupt_per_mille;
        if total == 0 {
            return None;
        }
        let roll = (splitmix64(self.seed ^ fingerprint) % 1000) as u32;
        let mut band = self.panic_per_mille;
        if roll < band {
            return Some(FaultKind::Panic);
        }
        band += self.transient_per_mille;
        if roll < band {
            return Some(FaultKind::Transient);
        }
        band += self.hang_per_mille;
        if roll < band {
            return Some(FaultKind::Hang);
        }
        band += self.slow_per_mille;
        if roll < band {
            return Some(FaultKind::Slow);
        }
        band += self.corrupt_per_mille;
        if roll < band {
            return Some(FaultKind::Corrupt);
        }
        None
    }
}

/// Virtual duration reported by a hung evaluation — far beyond any
/// sane watchdog timeout, but finite so schedules without a watchdog
/// still fold the trial and terminate.
pub const HANG_VIRTUAL_MS: f64 = 1e12;

/// Inflation factor of a straggling ([`FaultKind::Slow`]) evaluation.
pub const SLOWDOWN_FACTOR: f64 = 8.0;

/// Counts of faults actually injected, by kind (observability for the
/// chaos suites: a green run with zero injections proves nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub panics: u64,
    pub transients: u64,
    pub hangs: u64,
    pub slowdowns: u64,
    pub corruptions: u64,
}

impl FaultCounts {
    /// Total injected faults.
    pub fn total(&self) -> u64 {
        self.panics + self.transients + self.hangs + self.slowdowns + self.corruptions
    }
}

/// A [`TrialRunner`] wrapper that injects trial-execution faults per a
/// [`FaultPlan`]; see the module docs.
pub struct FaultyRunner {
    inner: Arc<dyn TrialRunner>,
    plan: FaultPlan,
    panics: AtomicU64,
    transients: AtomicU64,
    hangs: AtomicU64,
    slowdowns: AtomicU64,
    corruptions: AtomicU64,
}

impl std::fmt::Debug for FaultyRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyRunner")
            .field("plan", &self.plan)
            .field("injected", &self.injected())
            .finish()
    }
}

impl FaultyRunner {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: Arc<dyn TrialRunner>, plan: FaultPlan) -> FaultyRunner {
        FaultyRunner {
            inner,
            plan,
            panics: AtomicU64::new(0),
            transients: AtomicU64::new(0),
            hangs: AtomicU64::new(0),
            slowdowns: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
        }
    }

    /// The schedule this runner injects.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far, by kind.
    pub fn injected(&self) -> FaultCounts {
        FaultCounts {
            panics: self.panics.load(Ordering::Relaxed),
            transients: self.transients.load(Ordering::Relaxed),
            hangs: self.hangs.load(Ordering::Relaxed),
            slowdowns: self.slowdowns.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
        }
    }
}

impl TrialRunner for FaultyRunner {
    fn evaluate_attempt(
        &self,
        space: &ConfigSpace,
        config: &Config,
        seed: u64,
        attempt: u32,
    ) -> AttemptOutcome {
        let fp = config_fingerprint(config);
        match self.plan.fault_for(fp) {
            Some(FaultKind::Panic) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                panic!("injected fault: trial runner panic (config {fp:#018x})");
            }
            Some(FaultKind::Transient) if attempt <= self.plan.transient_attempts => {
                self.transients.fetch_add(1, Ordering::Relaxed);
                AttemptOutcome {
                    score: None,
                    metrics: Vec::new(),
                    // The failure is quick (a refused connection), not a
                    // full run window.
                    virtual_ms: 1.0,
                    retryable: true,
                }
            }
            Some(FaultKind::Hang) => {
                self.hangs.fetch_add(1, Ordering::Relaxed);
                let mut out = self.inner.evaluate_attempt(space, config, seed, attempt);
                out.virtual_ms = HANG_VIRTUAL_MS;
                out
            }
            Some(FaultKind::Slow) => {
                self.slowdowns.fetch_add(1, Ordering::Relaxed);
                let mut out = self.inner.evaluate_attempt(space, config, seed, attempt);
                out.virtual_ms *= SLOWDOWN_FACTOR;
                out
            }
            Some(FaultKind::Corrupt) => {
                self.corruptions.fetch_add(1, Ordering::Relaxed);
                let mut out = self.inner.evaluate_attempt(space, config, seed, attempt);
                if let Some(s) = out.score {
                    // Deterministic wrong answer: scale by a factor in
                    // [0.25, 0.75] drawn from the schedule.
                    let u = (splitmix64(self.plan.seed ^ fp ^ 0xC02_2B47) % 1000) as f64 / 1000.0;
                    out.score = Some(s * (0.25 + 0.5 * u));
                }
                out
            }
            Some(FaultKind::Transient) | None => {
                self.inner.evaluate_attempt(space, config, seed, attempt)
            }
        }
    }
}

/// FNV-1a fingerprint of a decoded configuration — the one
/// configuration hash in the product: it keys the fault schedule here
/// and the runtime's `EvalCache`, which settles each configuration of a
/// session once.
pub fn config_fingerprint(config: &Config) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, v) in config.values().iter().enumerate() {
        mix(&(i as u64).to_le_bytes());
        match v {
            KnobValue::Int(x) => {
                mix(&[1]);
                mix(&x.to_le_bytes());
            }
            KnobValue::Float(x) => {
                mix(&[2]);
                mix(&x.to_bits().to_le_bytes());
            }
            KnobValue::Cat(x) => {
                mix(&[3]);
                mix(&(*x as u64).to_le_bytes());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::suggested_options;
    use crate::suites::ycsb_a;
    use llamatune_space::catalog::postgres_v9_6;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn quick_runner() -> WorkloadRunner {
        let spec = ycsb_a();
        let mut opts = suggested_options(spec.name);
        opts.duration_s = 0.3;
        opts.warmup_s = 0.08;
        opts.max_txns = 30_000;
        WorkloadRunner::new(spec, postgres_v9_6()).with_options(opts)
    }

    fn configs(space: &ConfigSpace, n: usize) -> Vec<Config> {
        // Vary an integer knob to get n distinct fingerprints.
        let sb = space.index_of("shared_buffers").unwrap();
        (0..n)
            .map(|i| {
                let mut cfg = space.default_config();
                cfg.values_mut()[sb] = KnobValue::Int(16_384 + i as i64);
                cfg
            })
            .collect()
    }

    #[test]
    fn fault_assignment_is_deterministic_and_order_independent() {
        let plan = FaultPlan::chaos(42);
        let space = postgres_v9_6();
        let cfgs = configs(&space, 200);
        let forward: Vec<_> = cfgs.iter().map(|c| plan.fault_for(config_fingerprint(c))).collect();
        let mut backward: Vec<_> =
            cfgs.iter().rev().map(|c| plan.fault_for(config_fingerprint(c))).collect();
        backward.reverse();
        assert_eq!(forward, backward);
        // Every kind appears somewhere in 200 configs at chaos rates.
        for kind in [
            FaultKind::Panic,
            FaultKind::Transient,
            FaultKind::Hang,
            FaultKind::Slow,
            FaultKind::Corrupt,
        ] {
            assert!(forward.contains(&Some(kind)), "{kind:?} never drawn");
        }
        // Most configs are healthy (rates sum to 300‰).
        let healthy = forward.iter().filter(|f| f.is_none()).count();
        assert!(healthy > 100, "only {healthy}/200 healthy");
        // A different seed reshuffles the schedule.
        let other = FaultPlan::chaos(43);
        let reshuffled: Vec<_> =
            cfgs.iter().map(|c| other.fault_for(config_fingerprint(c))).collect();
        assert_ne!(forward, reshuffled);
    }

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::default();
        let space = postgres_v9_6();
        for c in configs(&space, 50) {
            assert_eq!(plan.fault_for(config_fingerprint(&c)), None);
        }
    }

    #[test]
    fn transient_fault_clears_after_the_configured_attempts() {
        let space = postgres_v9_6();
        let runner = Arc::new(quick_runner());
        // Find a transiently faulted config under this plan.
        let plan = FaultPlan {
            transient_per_mille: 1000,
            transient_attempts: 2,
            ..FaultPlan { seed: 7, ..Default::default() }
        };
        let faulty = FaultyRunner::new(runner.clone(), plan);
        let cfg = space.default_config();
        let a1 = faulty.evaluate_attempt(&space, &cfg, 1, 1);
        assert!(a1.score.is_none() && a1.retryable, "attempt 1 fails transiently");
        let a2 = faulty.evaluate_attempt(&space, &cfg, 1, 2);
        assert!(a2.score.is_none() && a2.retryable, "attempt 2 still fails");
        let a3 = faulty.evaluate_attempt(&space, &cfg, 1, 3);
        assert!(a3.score.is_some(), "attempt 3 clears the fault");
        // The cleared attempt matches the unfaulted evaluation exactly.
        let clean = runner.evaluate_attempt(&space, &cfg, 1, 1);
        assert_eq!(a3.score, clean.score);
        assert_eq!(faulty.injected().transients, 2);
    }

    #[test]
    fn hang_and_slow_inflate_virtual_time_deterministically() {
        let space = postgres_v9_6();
        let runner = Arc::new(quick_runner());
        let base = runner.evaluate_attempt(&space, &space.default_config(), 1, 1).virtual_ms;
        let hang = FaultyRunner::new(
            runner.clone(),
            FaultPlan { hang_per_mille: 1000, ..Default::default() },
        );
        let out = hang.evaluate_attempt(&space, &space.default_config(), 1, 1);
        assert_eq!(out.virtual_ms, HANG_VIRTUAL_MS);
        assert!(out.score.is_some(), "a hang still completes in virtual time");
        let slow = FaultyRunner::new(
            runner.clone(),
            FaultPlan { slow_per_mille: 1000, ..Default::default() },
        );
        let out = slow.evaluate_attempt(&space, &space.default_config(), 1, 1);
        assert_eq!(out.virtual_ms, base * SLOWDOWN_FACTOR);
        assert_eq!(hang.injected().hangs, 1);
        assert_eq!(slow.injected().slowdowns, 1);
    }

    #[test]
    fn corruption_is_wrong_but_deterministic() {
        let space = postgres_v9_6();
        let runner = Arc::new(quick_runner());
        let cfg = space.default_config();
        let clean = runner.evaluate_attempt(&space, &cfg, 3, 1).score.unwrap();
        let plan = FaultPlan { corrupt_per_mille: 1000, seed: 9, ..Default::default() };
        let a = FaultyRunner::new(runner.clone(), plan);
        let b = FaultyRunner::new(runner.clone(), plan);
        let sa = a.evaluate_attempt(&space, &cfg, 3, 1).score.unwrap();
        let sb = b.evaluate_attempt(&space, &cfg, 3, 1).score.unwrap();
        assert_eq!(sa.to_bits(), sb.to_bits(), "corruption is replayable");
        assert_ne!(sa.to_bits(), clean.to_bits(), "and actually wrong");
        assert!(sa > 0.0 && sa < clean, "bounded perturbation");
    }

    #[test]
    fn panic_fault_panics_and_is_catchable() {
        let space = postgres_v9_6();
        let faulty = FaultyRunner::new(
            Arc::new(quick_runner()),
            FaultPlan { panic_per_mille: 1000, ..Default::default() },
        );
        let cfg = space.default_config();
        let caught = catch_unwind(AssertUnwindSafe(|| faulty.evaluate_attempt(&space, &cfg, 1, 1)));
        assert!(caught.is_err(), "panic fault must panic");
        assert_eq!(faulty.injected().panics, 1);
    }

    #[test]
    fn plain_runner_attempts_are_attempt_invariant() {
        let space = postgres_v9_6();
        let runner = quick_runner();
        let cfg = space.default_config();
        let a = runner.evaluate_attempt(&space, &cfg, 5, 1);
        let b = runner.evaluate_attempt(&space, &cfg, 5, 4);
        assert_eq!(a.score, b.score);
        assert_eq!(a.virtual_ms, b.virtual_ms);
        assert!(!a.retryable);
    }
}
