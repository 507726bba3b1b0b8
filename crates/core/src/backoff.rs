//! Deterministic exponential backoff with jitter.
//!
//! Every retry loop in the workspace — the store's manifest CAS loops,
//! the runtime's trial retry policy — draws its delays from here, so
//! retries are (a) bounded, (b) spread out instead of tight-spinning,
//! and (c) *replayable*: the delay for `(seed, attempt)` is a pure
//! function, independent of wall-clock time or call order. The unit is
//! an abstract "tick"; the store interprets ticks as microseconds of
//! real sleep between CAS attempts, while the trial runtime adds them
//! to a virtual clock (histories never contain wall time).
//!
//! The jitter is "equal jitter": attempt `k` waits between half of and
//! the full capped exponential `min(base << k, cap)`, with the split
//! chosen by a splitmix64 hash of `(seed, attempt)`. Full-range jitter
//! would sometimes wait ~0 ticks and re-collide immediately; equal
//! jitter keeps a floor under the delay while still decorrelating
//! contending writers that share an attempt number.

use llamatune_math::splitmix64;

/// Bounded, seeded exponential-backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay of attempt 0, in ticks (before jitter).
    pub base: u64,
    /// Upper bound on the un-jittered delay of any attempt, in ticks.
    pub cap: u64,
    /// Attempts allowed before the schedule is exhausted.
    pub max_retries: u32,
}

impl BackoffPolicy {
    /// A policy with the given base, cap, and retry budget.
    pub(crate) const fn new(base: u64, cap: u64, max_retries: u32) -> BackoffPolicy {
        BackoffPolicy { base, cap, max_retries }
    }

    /// The store's CAS-loop policy: 50µs base, 5ms cap, 32 retries.
    /// Local CAS conflicts resolve in microseconds; 32 capped attempts
    /// add up to well over a hundred milliseconds of cumulative delay,
    /// far past any transient contention window the concurrency suite
    /// produces, while still turning a livelock into a clean error.
    pub const STORE_CAS: BackoffPolicy = BackoffPolicy::new(50, 5_000, 32);

    /// The trial-retry policy: 250 (virtual) ms base, 60 s cap, 8
    /// retries. Trial retries back off on a *virtual* clock — the
    /// delays land on the trial's simulated duration, never on wall
    /// time — so the ceiling is about operator-realistic pacing, not
    /// real latency.
    pub const TRIAL_RETRY: BackoffPolicy = BackoffPolicy::new(250, 60_000, 8);

    /// The un-jittered delay of `attempt`: `min(base << attempt, cap)`,
    /// saturating (shift overflow clamps to the cap).
    pub(crate) fn raw_delay(&self, attempt: u32) -> u64 {
        if self.base == 0 {
            return 0;
        }
        let exp = if attempt >= 63 { u64::MAX } else { self.base.saturating_mul(1 << attempt) };
        exp.min(self.cap)
    }

    /// The jittered delay of `attempt` for `seed`, in ticks: a value in
    /// `[raw/2, raw]` chosen deterministically by hashing
    /// `(seed, attempt)`. Pure — no clocks, no global state.
    pub(crate) fn delay(&self, seed: u64, attempt: u32) -> u64 {
        let raw = self.raw_delay(attempt);
        if raw == 0 {
            return 0;
        }
        let half = raw / 2;
        half + splitmix64(seed ^ (u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            % (raw - half + 1)
    }

    /// Whether `attempt` is within the retry budget.
    pub(crate) fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }
}

/// One walk through a [`BackoffPolicy`]'s schedule: `next()` yields the
/// delay before each retry, then `None` when the budget is exhausted.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: BackoffPolicy,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// Starts a schedule for `seed` (callers derive the seed from
    /// whatever identifies the contender — writer tag, config hash).
    pub fn new(policy: BackoffPolicy, seed: u64) -> Backoff {
        Backoff { policy, seed, attempt: 0 }
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The delay (in ticks) before the next retry, or `None` when the
    /// retry budget is exhausted.
    #[allow(clippy::should_implement_trait)] // not an Iterator: no item type beyond u64, and
                                             // callers treat exhaustion as an error, not end-of-stream.
    pub fn next(&mut self) -> Option<u64> {
        if !self.policy.allows(self.attempt) {
            return None;
        }
        let d = self.policy.delay(self.seed, self.attempt);
        self.attempt += 1;
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_and_seed_dependent() {
        let p = BackoffPolicy::new(100, 10_000, 8);
        for attempt in 0..8 {
            assert_eq!(p.delay(7, attempt), p.delay(7, attempt));
        }
        // Different seeds decorrelate at least one attempt.
        assert!((0..8).any(|a| p.delay(1, a) != p.delay(2, a)));
    }

    #[test]
    fn delays_grow_exponentially_then_cap() {
        let p = BackoffPolicy::new(100, 1_000, 32);
        assert_eq!(p.raw_delay(0), 100);
        assert_eq!(p.raw_delay(1), 200);
        assert_eq!(p.raw_delay(2), 400);
        assert_eq!(p.raw_delay(3), 800);
        assert_eq!(p.raw_delay(4), 1_000, "capped");
        assert_eq!(p.raw_delay(63), 1_000, "shift overflow clamps to the cap");
    }

    #[test]
    fn jitter_stays_in_the_equal_jitter_band() {
        let p = BackoffPolicy::new(64, 4_096, 32);
        for seed in 0..50u64 {
            for attempt in 0..10 {
                let raw = p.raw_delay(attempt);
                let d = p.delay(seed, attempt);
                assert!(d >= raw / 2 && d <= raw, "seed {seed} attempt {attempt}: {d} vs {raw}");
            }
        }
    }

    #[test]
    fn schedule_exhausts_after_the_retry_budget() {
        let mut b = Backoff::new(BackoffPolicy::new(10, 100, 3), 42);
        assert!(b.next().is_some());
        assert!(b.next().is_some());
        assert!(b.next().is_some());
        assert_eq!(b.next(), None, "budget of 3 exhausted");
        assert_eq!(b.attempts(), 3);
    }

    #[test]
    fn zero_base_yields_zero_delays() {
        let p = BackoffPolicy::new(0, 1_000, 4);
        assert_eq!(p.delay(9, 0), 0);
        assert_eq!(p.delay(9, 3), 0);
    }
}
