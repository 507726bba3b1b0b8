//! Row-level lock manager.
//!
//! Transactions acquire exclusive row locks in sorted key order (so the
//! simulation is deadlock-free by construction; `deadlock_timeout` only
//! bounds the worst-case wait) and hold them until commit, i.e. strict 2PL.
//! Because transactions are simulated in start-time order, the lock table
//! stores *release times*: a later transaction that touches a locked key
//! simply waits until the earlier holder's commit time.

use crate::hash::IntMap;
use crate::sim::Micros;

/// A lockable row address.
pub(crate) type LockKey = (u32, u64);

/// Outcome of acquiring a set of row locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LockGrant {
    /// Time spent waiting for the slowest conflicting holder.
    pub wait_us: Micros,
    /// Number of keys that conflicted.
    pub conflicts: u32,
    /// The wait exceeded the abort horizon and the transaction gives up.
    pub aborted: bool,
}

/// Lock table mapping keys to the time their current holder releases them.
#[derive(Debug, Default)]
pub(crate) struct LockTable {
    release_at: IntMap<LockKey, Micros>,
    ops_since_sweep: u64,
}

impl LockTable {
    /// Creates an empty lock table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire all `keys` at `now`. Waits for conflicting
    /// holders; if the cumulative wait would exceed `abort_after_us`
    /// (derived from `deadlock_timeout`), the transaction aborts instead.
    pub(crate) fn acquire(
        &mut self,
        now: Micros,
        keys: &[LockKey],
        abort_after_us: Micros,
    ) -> LockGrant {
        let mut wait_until = now;
        let mut conflicts = 0;
        for key in keys {
            if let Some(&rel) = self.release_at.get(key) {
                if rel > wait_until {
                    wait_until = rel;
                }
                if rel > now {
                    conflicts += 1;
                }
            }
        }
        let wait = wait_until - now;
        if wait > abort_after_us {
            return LockGrant { wait_us: abort_after_us, conflicts, aborted: true };
        }
        LockGrant { wait_us: wait, conflicts, aborted: false }
    }

    /// Registers that `keys` are held until `commit_time`.
    pub(crate) fn hold_until(&mut self, keys: &[LockKey], commit_time: Micros) {
        for key in keys {
            let slot = self.release_at.entry(*key).or_insert(0);
            if *slot < commit_time {
                *slot = commit_time;
            }
        }
        self.ops_since_sweep += keys.len() as u64;
        // Periodically drop stale entries so the table tracks only the
        // recent working set.
        if self.ops_since_sweep > 100_000 {
            let horizon = commit_time.saturating_sub(5_000_000);
            self.release_at.retain(|_, rel| *rel > horizon);
            self.ops_since_sweep = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl super::LockTable {
        /// Number of keys currently tracked.
        fn tracked_keys(&self) -> usize {
            self.release_at.len()
        }
    }

    #[test]
    fn uncontended_acquire_is_free() {
        let mut lt = LockTable::new();
        let g = lt.acquire(1_000, &[(0, 1), (0, 2)], 1_000_000);
        assert_eq!(g.wait_us, 0);
        assert_eq!(g.conflicts, 0);
        assert!(!g.aborted);
    }

    #[test]
    fn conflicting_acquire_waits_until_release() {
        let mut lt = LockTable::new();
        lt.hold_until(&[(0, 7)], 5_000);
        let g = lt.acquire(2_000, &[(0, 7)], 1_000_000);
        assert_eq!(g.wait_us, 3_000);
        assert_eq!(g.conflicts, 1);
        assert!(g.conflicts > 0, "what the caller counts as one lock wait");
    }

    #[test]
    fn waits_take_the_max_over_keys() {
        let mut lt = LockTable::new();
        lt.hold_until(&[(0, 1)], 4_000);
        lt.hold_until(&[(0, 2)], 9_000);
        let g = lt.acquire(1_000, &[(0, 1), (0, 2)], 1_000_000);
        assert_eq!(g.wait_us, 8_000);
        assert_eq!(g.conflicts, 2);
    }

    #[test]
    fn expired_locks_do_not_block() {
        let mut lt = LockTable::new();
        lt.hold_until(&[(0, 1)], 4_000);
        let g = lt.acquire(10_000, &[(0, 1)], 1_000_000);
        assert_eq!(g.wait_us, 0);
        assert_eq!(g.conflicts, 0);
    }

    #[test]
    fn excessive_wait_aborts() {
        let mut lt = LockTable::new();
        lt.hold_until(&[(0, 1)], 10_000_000);
        let g = lt.acquire(0, &[(0, 1)], 50_000);
        assert!(g.aborted);
        assert_eq!(g.wait_us, 50_000, "abort happens at the horizon");
        // One abort, not one per caller: the holder's release is in reach
        // of a later acquire.
        let later = lt.acquire(9_960_000, &[(0, 1)], 50_000);
        assert!(!later.aborted);
        assert_eq!(later.wait_us, 40_000);
    }

    #[test]
    fn hold_until_keeps_the_later_release() {
        let mut lt = LockTable::new();
        lt.hold_until(&[(0, 1)], 9_000);
        lt.hold_until(&[(0, 1)], 4_000); // earlier commit must not shorten
        let g = lt.acquire(0, &[(0, 1)], 1_000_000);
        assert_eq!(g.wait_us, 9_000);
    }

    #[test]
    fn sweep_prunes_stale_entries() {
        let mut lt = LockTable::new();
        for i in 0..60_000u64 {
            lt.hold_until(&[(0, i)], 100);
        }
        assert_eq!(lt.tracked_keys(), 60_000);
        // A burst of fresh keys far in the future triggers the sweep and
        // drops everything released more than 5 virtual seconds ago.
        for i in 100_000..160_000u64 {
            lt.hold_until(&[(0, i)], 100_000_000);
        }
        assert!(lt.tracked_keys() <= 60_001, "stale keys should be swept");
    }
}
