//! The session's record of what is settled per configuration.
//!
//! LlamaTune's bucketization deliberately collapses the search space: with
//! `bucket_count = Some(K)` each synthetic dimension exposes at most `K`
//! values, so distinct optimizer suggestions frequently decode to the
//! *same* DBMS configuration. Re-running the DBMS benchmark for a
//! configuration that was already measured (under the same evaluation
//! seed) buys no new information, and neither does re-running one that
//! already failed terminally: the paper scores a crash once, with the §6
//! penalty. [`EvalCache`] remembers both — each measured result, and each
//! quarantined configuration — keyed by [`config_fingerprint`], and keeps
//! hit statistics so campaigns can report how much bucketization actually
//! deduplicated. A cache is scoped to one session, so it holds at most one
//! entry per trial; store-backed campaigns pre-load it with every trial
//! already persisted for the session — the persistent half of the
//! evaluation cache.

use llamatune::session::{EvalResult, TrialStatus};
use llamatune_space::Config;
// Shared poison-recovering lock: one panicked worker must not wedge a
// whole campaign. Defined next to the store's index, which has the same
// requirement.
use llamatune_store::lock_recover;
use llamatune_workloads::config_fingerprint;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hit/miss counters of an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (no DBMS run).
    pub hits: u64,
    /// Lookups that fell through to a real evaluation (or to quarantine).
    pub misses: u64,
}

/// A thread-safe record of settled configurations: the measured result,
/// or `None` for a configuration quarantined after it failed terminally.
///
/// Scope it to one (workload, evaluation-seed) context: the key covers
/// only the configuration, so results from different workloads or
/// evaluation seeds must not share a cache.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: Mutex<HashMap<u64, Option<EvalResult>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a configuration. A measured one answers its result and
    /// counts as a hit; a quarantined one answers a penalty-scored
    /// [`TrialStatus::Quarantined`] result and, like an unknown one,
    /// counts as a miss.
    pub(crate) fn lookup(&self, config: &Config) -> Option<EvalResult> {
        let found = lock_recover(&self.map).get(&config_fingerprint(config)).cloned();
        let counter = if matches!(found, Some(Some(_))) { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found.map(|measured| {
            measured.unwrap_or(EvalResult {
                score: None,
                metrics: Vec::new(),
                status: TrialStatus::Quarantined,
                attempts: 1,
                virtual_ms: 0.0,
            })
        })
    }

    /// Records an evaluation result. Re-inserting an existing key
    /// replaces its value.
    ///
    /// Retryable outcomes ([`EvalResult::is_retryable`]: crashes,
    /// timeouts, quarantine hits, anything scoreless) are refused —
    /// memoizing one would replay a possibly-transient failure forever.
    /// A configuration whose failure is final is [quarantined]
    /// instead, once the execution policy has spent its retry budget on
    /// it.
    ///
    /// [quarantined]: EvalCache::quarantine
    pub(crate) fn insert(&self, config: &Config, result: EvalResult) {
        if result.is_retryable() {
            return;
        }
        lock_recover(&self.map).insert(config_fingerprint(config), Some(result));
    }

    /// Quarantines a configuration that failed terminally: later lookups
    /// answer it as [`TrialStatus::Quarantined`] without a re-run.
    /// Returns whether it was newly quarantined.
    pub(crate) fn quarantine(&self, config: &Config) -> bool {
        match lock_recover(&self.map).entry(config_fingerprint(config)) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(None);
                true
            }
        }
    }

    /// Number of quarantined configurations.
    pub(crate) fn quarantined(&self) -> usize {
        lock_recover(&self.map).values().filter(|v| v.is_none()).count()
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_space::catalog::postgres_v9_6;
    use llamatune_space::KnobValue;

    impl super::CacheStats {
        /// Fraction of lookups served from the cache.
        fn hit_rate(&self) -> f64 {
            let total = self.hits + self.misses;
            if total == 0 {
                0.0
            } else {
                self.hits as f64 / total as f64
            }
        }
    }

    impl super::EvalCache {
        /// Number of distinct configurations settled (measured or
        /// quarantined).
        pub(crate) fn len(&self) -> usize {
            lock_recover(&self.map).len()
        }

        /// Whether nothing has been settled yet.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[test]
    fn key_distinguishes_configs_and_is_stable() {
        let space = postgres_v9_6();
        let a = space.default_config();
        let b = config_with_sb(&space, 99_999);
        let cache = EvalCache::new();
        cache.insert(&a, EvalResult { score: Some(1.0), ..Default::default() });
        assert_eq!(cache.lookup(&a.clone()).expect("same bits, same key").score, Some(1.0));
        assert!(cache.lookup(&b).is_none(), "one knob apart is another configuration");
    }

    #[test]
    fn lookup_insert_and_stats() {
        let space = postgres_v9_6();
        let cfg = space.default_config();
        let cache = EvalCache::new();
        assert!(cache.lookup(&cfg).is_none());
        cache.insert(
            &cfg,
            EvalResult { score: Some(123.0), metrics: vec![1.0], ..Default::default() },
        );
        let hit = cache.lookup(&cfg).expect("cached");
        assert_eq!(hit.score, Some(123.0));
        assert_eq!(hit.metrics, vec![1.0]);
        let stats = cache.stats();
        assert_eq!(stats, CacheStats { hits: 1, misses: 1 });
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(cache.len(), 1);
        // Re-inserting a key replaces its value.
        cache.insert(&cfg, EvalResult { score: Some(10.0), ..Default::default() });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&cfg).unwrap().score, Some(10.0));
    }

    #[test]
    fn failed_evaluations_are_never_cached() {
        // Regression test: crashed results used to be cacheable, which
        // turned any transient fault into a permanently memoized penalty.
        let space = postgres_v9_6();
        let cfg = space.default_config();
        let cache = EvalCache::new();
        cache.insert(&cfg, EvalResult { score: None, ..Default::default() });
        assert!(cache.lookup(&cfg).is_none(), "scoreless results must not be cached");
        cache.insert(
            &cfg,
            EvalResult { score: Some(5.0), status: TrialStatus::TimedOut, ..Default::default() },
        );
        assert!(cache.lookup(&cfg).is_none(), "failure statuses must not be cached");
        assert!(cache.is_empty());
        // A later healthy result for the same configuration is welcome.
        cache.insert(&cfg, EvalResult { score: Some(5.0), attempts: 2, ..Default::default() });
        assert_eq!(cache.lookup(&cfg).expect("cached").attempts, 2);
    }

    #[test]
    fn quarantine_answers_without_a_hit_and_only_once() {
        let space = postgres_v9_6();
        let cfg = config_with_sb(&space, 4242);
        let cache = EvalCache::new();
        assert!(cache.quarantine(&cfg), "first quarantine is new");
        assert!(!cache.quarantine(&cfg), "the second is not");
        assert_eq!(cache.quarantined(), 1);
        let answer = cache.lookup(&cfg).expect("quarantined configurations are answered");
        assert_eq!(answer.status, TrialStatus::Quarantined);
        assert_eq!((answer.score, answer.attempts), (None, 1));
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 }, "a quarantine is a miss");
        // `insert` still refuses failures: the quarantined answer does
        // not overwrite the entry as a measurement.
        cache.insert(&cfg, answer);
        assert_eq!(cache.lookup(&cfg).unwrap().status, TrialStatus::Quarantined);
        assert_eq!(cache.quarantined(), 1);
    }

    fn config_with_sb(space: &llamatune_space::ConfigSpace, sb: i64) -> Config {
        let mut cfg = space.default_config();
        let idx = space.index_of("shared_buffers").unwrap();
        cfg.values_mut()[idx] = KnobValue::Int(sb);
        cfg
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_wedging() {
        use std::sync::Arc;
        let space = postgres_v9_6();
        let cache = Arc::new(EvalCache::new());
        let cfg = space.default_config();
        cache.insert(&cfg, EvalResult { score: Some(7.0), ..Default::default() });
        // Poison the mutex: panic while holding the guard.
        let poisoner = cache.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.map.lock().unwrap();
            panic!("worker died mid-campaign");
        })
        .join();
        assert!(cache.map.is_poisoned(), "the panic must have poisoned the lock");
        // Every operation still works on the recovered guard.
        assert_eq!(cache.lookup(&cfg).unwrap().score, Some(7.0));
        let other = config_with_sb(&space, 4242);
        cache.insert(&other, EvalResult { score: Some(1.0), ..Default::default() });
        assert_eq!(cache.len(), 2);
    }
}
