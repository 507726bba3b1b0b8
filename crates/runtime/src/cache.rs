//! Deduplicating evaluation cache.
//!
//! LlamaTune's bucketization deliberately collapses the search space: with
//! `bucket_count = Some(K)` each synthetic dimension exposes at most `K`
//! values, so distinct optimizer suggestions frequently decode to the
//! *same* DBMS configuration. Re-running the DBMS benchmark for a
//! configuration that was already measured (under the same evaluation
//! seed) buys no new information — the cache short-circuits those repeats
//! and keeps hit statistics so campaigns can report how much bucketization
//! actually deduplicated. A cache is scoped to one session, so it holds at
//! most one entry per trial; store-backed campaigns pre-load it with every
//! trial already persisted for the session — the persistent half of the
//! evaluation cache.

use llamatune::session::EvalResult;
use llamatune_space::{Config, KnobValue};
// Shared poison-recovering lock: one panicked worker must not wedge a
// whole campaign. Defined next to the store's index, which has the same
// requirement.
use llamatune_store::lock_recover;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Canonical 64-bit key of a decoded configuration (FNV-1a over each
/// knob's index and value bits). Two configs hash equal iff every knob
/// value is bit-identical, which is the right notion here: decoded
/// configs come from the same deterministic pipeline, so equal settings
/// are equal bits.
pub fn config_key(config: &Config) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |bytes: u64| {
        for b in bytes.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for (i, v) in config.values().iter().enumerate() {
        mix(i as u64);
        match *v {
            KnobValue::Int(x) => {
                mix(1);
                mix(x as u64);
            }
            KnobValue::Float(x) => {
                mix(2);
                mix(x.to_bits());
            }
            KnobValue::Cat(x) => {
                mix(3);
                mix(x as u64);
            }
        }
    }
    h
}

/// Hit/miss counters of an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (no DBMS run).
    pub hits: u64,
    /// Lookups that fell through to a real evaluation.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe evaluation cache keyed by [`config_key`].
///
/// Scope it to one (workload, evaluation-seed) context: the key covers
/// only the configuration, so results from different workloads or
/// evaluation seeds must not share a cache.
#[derive(Debug, Default)]
pub struct EvalCache {
    map: Mutex<HashMap<u64, EvalResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a configuration, counting the outcome.
    pub fn lookup(&self, config: &Config) -> Option<EvalResult> {
        let found = lock_recover(&self.map).get(&config_key(config)).cloned();
        match found {
            Some(r) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records an evaluation result. Re-inserting an existing key
    /// replaces its value.
    ///
    /// Retryable outcomes ([`EvalResult::is_retryable`]: crashes,
    /// timeouts, quarantine hits, anything scoreless) are refused —
    /// memoizing one would replay a possibly-transient failure forever.
    /// Deciding whether a failed configuration is worth re-running is
    /// the execution policy's job (retry budget + quarantine), not the
    /// cache's.
    pub fn insert(&self, config: &Config, result: EvalResult) {
        if result.is_retryable() {
            return;
        }
        lock_recover(&self.map).insert(config_key(config), result);
    }

    /// Number of distinct configurations stored.
    pub fn len(&self) -> usize {
        lock_recover(&self.map).len()
    }

    /// Whether nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    #[test]
    fn key_distinguishes_configs_and_is_stable() {
        let space = postgres_v9_6();
        let a = space.default_config();
        let mut b = a.clone();
        let sb = space.index_of("shared_buffers").unwrap();
        b.values_mut()[sb] = KnobValue::Int(99_999);
        assert_eq!(config_key(&a), config_key(&a.clone()));
        assert_ne!(config_key(&a), config_key(&b));
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
        use llamatune::session::TrialStatus;
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
