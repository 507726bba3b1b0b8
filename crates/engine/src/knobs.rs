//! Resolution of a raw [`KnobAssignment`] into the typed view the engine
//! consumes, including special-value semantics ("-1 means use
//! `maintenance_work_mem`") and the memory-overcommit crash check.

use crate::hardware::HardwareProfile;
use llamatune_space::{ConfigSpace, KnobAssignment, KnobValue};

/// How transaction commit interacts with WAL flushing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncCommit {
    /// Wait for a durable flush (`on`, `local`, `remote_write` all wait in a
    /// single-node deployment).
    Durable,
    /// Return before the WAL is flushed; the WAL writer flushes in the
    /// background.
    Off,
}

/// Fully resolved engine-facing knob values.
///
/// Values are pulled from the assignment when present, and from the catalog
/// default otherwise (which is how subset spaces — e.g. the "top-8 knobs"
/// experiments — leave the remaining knobs at their defaults). Knobs that
/// don't exist in a catalog version (e.g. `jit` on v9.6) resolve to a
/// neutral "feature absent" value.
#[derive(Debug, Clone)]
pub(crate) struct DbmsKnobs {
    // --- memory ---
    pub shared_buffers_pages: u64,
    pub work_mem_kb: u64,
    pub autovacuum_work_mem_kb: u64,
    pub temp_buffers_pages: u64,
    // --- connections ---
    pub max_connections: u32,
    // --- WAL ---
    pub fsync: bool,
    pub synchronous_commit: SyncCommit,
    pub wal_sync_cost_mult: f64,
    pub full_page_writes: bool,
    pub wal_compression: bool,
    pub wal_buffers_pages: u64,
    pub wal_writer_delay_ms: u64,
    /// `None` means the flush-threshold feature is disabled (special value 0).
    pub wal_writer_flush_after_pages: Option<u64>,
    /// `None` means group-commit delay is disabled (special value 0).
    pub commit_delay_us: Option<u64>,
    pub commit_siblings: u32,
    // --- checkpoints ---
    pub checkpoint_timeout_s: u64,
    pub checkpoint_completion_target: f64,
    pub max_wal_size_bytes: u64,
    /// `None` means forced writeback by backends is disabled (special 0).
    pub backend_flush_after_pages: Option<u64>,
    // --- background writer ---
    pub bgwriter_delay_ms: u64,
    /// `None` means the background writer is disabled (special value 0).
    pub bgwriter_lru_maxpages: Option<u64>,
    pub bgwriter_lru_multiplier: f64,
    // --- I/O ---
    /// `None` means prefetching is disabled (special value 0).
    pub effective_io_concurrency: Option<u32>,
    // --- autovacuum ---
    pub autovacuum: bool,
    pub autovacuum_max_workers: u32,
    pub autovacuum_naptime_s: u64,
    pub autovacuum_vacuum_threshold: u64,
    pub autovacuum_vacuum_scale_factor: f64,
    /// Resolved through the special value -1 (use `vacuum_cost_delay`).
    pub av_cost_delay_ms: u64,
    /// Resolved through the special value -1 (use `vacuum_cost_limit`).
    pub av_cost_limit: u64,
    pub vacuum_cost_page_hit: u64,
    pub vacuum_cost_page_miss: u64,
    pub vacuum_cost_page_dirty: u64,
    // --- planner ---
    pub seq_page_cost: f64,
    pub random_page_cost: f64,
    pub cpu_tuple_cost: f64,
    pub cpu_index_tuple_cost: f64,
    pub enable_seqscan: bool,
    pub enable_indexscan: bool,
    pub enable_bitmapscan: bool,
    pub enable_nestloop: bool,
    pub enable_hashjoin: bool,
    pub enable_mergejoin: bool,
    pub geqo_quality: f64,
    pub default_statistics_target: u64,
    // --- locks ---
    pub deadlock_timeout_ms: u64,
    // --- parallel & JIT (v13-era; neutral when absent from the catalog) ---
    pub max_parallel_workers_per_gather: u32,
    /// `None` means JIT is disabled for all queries (special value -1 or
    /// `jit = off`).
    pub jit_above_cost: Option<u64>,
}

fn get<'a>(
    assignment: &'a KnobAssignment,
    catalog: &'a ConfigSpace,
    name: &str,
) -> Option<KnobValue> {
    assignment.get(name).copied().or_else(|| catalog.knob(name).map(|k| k.default))
}

fn int(a: &KnobAssignment, c: &ConfigSpace, name: &str) -> i64 {
    get(a, c, name).unwrap_or_else(|| panic!("knob {name} missing from catalog")).as_int()
}

fn float(a: &KnobAssignment, c: &ConfigSpace, name: &str) -> f64 {
    get(a, c, name).unwrap_or_else(|| panic!("knob {name} missing from catalog")).as_float()
}

/// Boolean knobs are categorical with choices `["off", "on"]`.
fn toggled(a: &KnobAssignment, c: &ConfigSpace, name: &str) -> bool {
    get(a, c, name).unwrap_or_else(|| panic!("knob {name} missing from catalog")).as_cat() == 1
}

impl DbmsKnobs {
    /// Resolves an assignment against a catalog (the catalog supplies
    /// defaults for knobs a subset space does not mention).
    pub(crate) fn resolve(assignment: &KnobAssignment, catalog: &ConfigSpace) -> DbmsKnobs {
        let shared_buffers_pages = int(assignment, catalog, "shared_buffers") as u64;
        let maintenance_work_mem_kb = int(assignment, catalog, "maintenance_work_mem") as u64;
        let av_work_mem = int(assignment, catalog, "autovacuum_work_mem");
        let vacuum_cost_delay = int(assignment, catalog, "vacuum_cost_delay") as u64;
        let vacuum_cost_limit = int(assignment, catalog, "vacuum_cost_limit") as u64;
        let av_cost_delay = int(assignment, catalog, "autovacuum_vacuum_cost_delay");
        let av_cost_limit = int(assignment, catalog, "autovacuum_vacuum_cost_limit");

        let wal_buffers = int(assignment, catalog, "wal_buffers");
        let wal_buffers_pages = if wal_buffers == -1 {
            // Special value: 1/32nd of shared_buffers, >= 8 pages (64 kB),
            // <= one WAL segment (2048 pages).
            (shared_buffers_pages / 32).clamp(8, 2048)
        } else {
            (wal_buffers as u64).max(8)
        };

        let sync_commit_choice = get(assignment, catalog, "synchronous_commit")
            .expect("synchronous_commit in catalog")
            .as_cat();
        let synchronous_commit =
            if sync_commit_choice == 1 { SyncCommit::Off } else { SyncCommit::Durable };

        // fdatasync, fsync, open_datasync, open_sync.
        let wal_sync_cost_mult =
            match get(assignment, catalog, "wal_sync_method").expect("wal_sync_method").as_cat() {
                0 => 1.0,
                1 => 1.05,
                2 => 1.15,
                _ => 1.3,
            };

        let geqo_quality = Self::geqo_quality(assignment, catalog);

        let jit_present = catalog.knob("jit").is_some();
        let jit_enabled = jit_present && toggled(assignment, catalog, "jit");
        let jit_above_cost = if jit_enabled {
            match int(assignment, catalog, "jit_above_cost") {
                -1 => None,
                v => Some(v as u64),
            }
        } else {
            None
        };

        let opt_u64 = |v: i64| if v == 0 { None } else { Some(v as u64) };

        DbmsKnobs {
            shared_buffers_pages,
            work_mem_kb: int(assignment, catalog, "work_mem") as u64,
            autovacuum_work_mem_kb: if av_work_mem == -1 {
                maintenance_work_mem_kb
            } else {
                av_work_mem as u64
            },
            temp_buffers_pages: int(assignment, catalog, "temp_buffers") as u64,
            max_connections: int(assignment, catalog, "max_connections") as u32,
            fsync: toggled(assignment, catalog, "fsync"),
            synchronous_commit,
            wal_sync_cost_mult,
            full_page_writes: toggled(assignment, catalog, "full_page_writes"),
            wal_compression: toggled(assignment, catalog, "wal_compression"),
            wal_buffers_pages,
            wal_writer_delay_ms: int(assignment, catalog, "wal_writer_delay") as u64,
            wal_writer_flush_after_pages: opt_u64(int(
                assignment,
                catalog,
                "wal_writer_flush_after",
            )),
            commit_delay_us: opt_u64(int(assignment, catalog, "commit_delay")),
            commit_siblings: int(assignment, catalog, "commit_siblings") as u32,
            checkpoint_timeout_s: int(assignment, catalog, "checkpoint_timeout") as u64,
            checkpoint_completion_target: float(
                assignment,
                catalog,
                "checkpoint_completion_target",
            ),
            max_wal_size_bytes: int(assignment, catalog, "max_wal_size") as u64 * 16 * 1024 * 1024,
            backend_flush_after_pages: opt_u64(int(assignment, catalog, "backend_flush_after")),
            bgwriter_delay_ms: int(assignment, catalog, "bgwriter_delay") as u64,
            bgwriter_lru_maxpages: opt_u64(int(assignment, catalog, "bgwriter_lru_maxpages")),
            bgwriter_lru_multiplier: float(assignment, catalog, "bgwriter_lru_multiplier"),
            effective_io_concurrency: opt_u64(int(assignment, catalog, "effective_io_concurrency"))
                .map(|v| v as u32),
            autovacuum: toggled(assignment, catalog, "autovacuum"),
            autovacuum_max_workers: int(assignment, catalog, "autovacuum_max_workers") as u32,
            autovacuum_naptime_s: int(assignment, catalog, "autovacuum_naptime") as u64,
            autovacuum_vacuum_threshold: int(assignment, catalog, "autovacuum_vacuum_threshold")
                as u64,
            autovacuum_vacuum_scale_factor: float(
                assignment,
                catalog,
                "autovacuum_vacuum_scale_factor",
            ),
            av_cost_delay_ms: if av_cost_delay == -1 {
                vacuum_cost_delay
            } else {
                av_cost_delay as u64
            },
            av_cost_limit: if av_cost_limit == -1 {
                vacuum_cost_limit.max(1)
            } else {
                (av_cost_limit as u64).max(1)
            },
            vacuum_cost_page_hit: int(assignment, catalog, "vacuum_cost_page_hit") as u64,
            vacuum_cost_page_miss: int(assignment, catalog, "vacuum_cost_page_miss") as u64,
            vacuum_cost_page_dirty: int(assignment, catalog, "vacuum_cost_page_dirty") as u64,
            seq_page_cost: float(assignment, catalog, "seq_page_cost"),
            random_page_cost: float(assignment, catalog, "random_page_cost"),
            cpu_tuple_cost: float(assignment, catalog, "cpu_tuple_cost"),
            cpu_index_tuple_cost: float(assignment, catalog, "cpu_index_tuple_cost"),
            enable_seqscan: toggled(assignment, catalog, "enable_seqscan"),
            enable_indexscan: toggled(assignment, catalog, "enable_indexscan"),
            enable_bitmapscan: toggled(assignment, catalog, "enable_bitmapscan"),
            enable_nestloop: toggled(assignment, catalog, "enable_nestloop"),
            enable_hashjoin: toggled(assignment, catalog, "enable_hashjoin"),
            enable_mergejoin: toggled(assignment, catalog, "enable_mergejoin"),
            geqo_quality,
            default_statistics_target: int(assignment, catalog, "default_statistics_target") as u64,
            deadlock_timeout_ms: int(assignment, catalog, "deadlock_timeout") as u64,
            max_parallel_workers_per_gather: int(
                assignment,
                catalog,
                "max_parallel_workers_per_gather",
            ) as u32,
            jit_above_cost,
        }
    }

    /// Join-plan quality in `[0, 1]` (1 = optimal plans) derived from the
    /// GEQO knobs: the genetic optimizer finds better join orders with more
    /// effort, a larger pool, and higher selection bias. The special value 0
    /// of `geqo_pool_size` / `geqo_generations` uses a decent heuristic.
    fn geqo_quality(a: &KnobAssignment, c: &ConfigSpace) -> f64 {
        if !toggled(a, c, "geqo") {
            // Exhaustive search: optimal but only matters above the
            // (collapse-limited) threshold; treat as near-optimal.
            return 0.95;
        }
        let effort = int(a, c, "geqo_effort") as f64; // 1..10
        let pool = int(a, c, "geqo_pool_size");
        let gens = int(a, c, "geqo_generations");
        let bias = float(a, c, "geqo_selection_bias"); // 1.5..2.0
        let pool_q = if pool == 0 { 0.7 } else { (pool as f64 / 1000.0).powf(0.3).min(1.0) };
        let gen_q = if gens == 0 { 0.7 } else { (gens as f64 / 1000.0).powf(0.3).min(1.0) };
        let bias_q = (bias - 1.5) / 0.5; // 0..1
        (0.5 + 0.2 * (effort / 10.0) + 0.15 * pool_q * gen_q + 0.15 * bias_q).min(1.0)
    }

    /// Estimated peak memory footprint in bytes, used for the crash check.
    ///
    /// Shared memory (`shared_buffers`, WAL buffers) is allocated up front;
    /// `work_mem` and `temp_buffers` are allocated lazily per operation, so
    /// only a small fraction of backends hold them at any instant in an
    /// OLTP workload; autovacuum workers hold maintenance memory while a
    /// table is being vacuumed.
    pub(crate) fn memory_footprint_bytes(&self, active_clients: u32) -> u64 {
        const PAGE: u64 = 8 * 1024;
        const KB: u64 = 1024;
        // Per-backend overhead (stack, caches, catalogs).
        const BACKEND_OVERHEAD: u64 = 6 * 1024 * 1024;
        let backends = u64::from(self.max_connections.min(active_clients + 8));
        let concurrent_sorts = (u64::from(active_clients) / 16).max(2);
        self.shared_buffers_pages * PAGE
            + self.wal_buffers_pages * PAGE
            + backends * BACKEND_OVERHEAD
            + concurrent_sorts * (self.work_mem_kb * KB + self.temp_buffers_pages * PAGE)
            + u64::from(self.autovacuum_max_workers.min(2)) * self.autovacuum_work_mem_kb * KB
    }

    /// Whether this configuration crashes the server on the given hardware:
    /// either it overcommits memory (OOM during the run) or it refuses the
    /// benchmark's connection count.
    pub(crate) fn crashes(&self, hw: &HardwareProfile, clients: u32) -> bool {
        if self.max_connections < clients + 3 {
            return true;
        }
        self.memory_footprint_bytes(clients) > hw.usable_memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_space::catalog::{postgres_v13_6, postgres_v9_6};
    use llamatune_space::KnobValue;

    fn defaults() -> (ConfigSpace, DbmsKnobs) {
        let cat = postgres_v9_6();
        let assignment = cat.assignment(&cat.default_config());
        let k = DbmsKnobs::resolve(&assignment, &cat);
        (cat, k)
    }

    #[test]
    fn defaults_resolve_to_documented_values() {
        let (_, k) = defaults();
        assert_eq!(k.shared_buffers_pages, 16_384); // 128 MB
        assert_eq!(k.work_mem_kb, 4_096);
        assert_eq!(k.max_connections, 100);
        assert!(k.fsync);
        assert_eq!(k.synchronous_commit, SyncCommit::Durable);
        assert!(k.full_page_writes);
        assert_eq!(k.commit_delay_us, None, "default 0 is the special value");
        assert_eq!(k.backend_flush_after_pages, None);
        assert_eq!(k.wal_writer_flush_after_pages, Some(128));
    }

    #[test]
    fn wal_buffers_special_value_tracks_shared_buffers() {
        let cat = postgres_v9_6();
        let mut cfg = cat.default_config();
        let sb = cat.index_of("shared_buffers").unwrap();
        cfg.values_mut()[sb] = KnobValue::Int(1_048_576); // 8 GB
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        // 1/32nd capped at one WAL segment (2048 pages).
        assert_eq!(k.wal_buffers_pages, 2048);

        let mut cfg = cat.default_config();
        cfg.values_mut()[sb] = KnobValue::Int(16_384);
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        assert_eq!(k.wal_buffers_pages, 512);

        // Explicit value overrides the heuristic.
        let wb = cat.index_of("wal_buffers").unwrap();
        let mut cfg = cat.default_config();
        cfg.values_mut()[wb] = KnobValue::Int(100);
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        assert_eq!(k.wal_buffers_pages, 100);
    }

    #[test]
    fn autovacuum_cost_specials_defer_to_vacuum_knobs() {
        let cat = postgres_v9_6();
        let mut cfg = cat.default_config();
        let idx = cat.index_of("autovacuum_vacuum_cost_delay").unwrap();
        cfg.values_mut()[idx] = KnobValue::Int(-1);
        let vd = cat.index_of("vacuum_cost_delay").unwrap();
        cfg.values_mut()[vd] = KnobValue::Int(7);
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        assert_eq!(k.av_cost_delay_ms, 7);
        // Default -1 for the limit defers to vacuum_cost_limit (200).
        assert_eq!(k.av_cost_limit, 200);
    }

    #[test]
    fn synchronous_commit_off_detected() {
        let cat = postgres_v9_6();
        let mut cfg = cat.default_config();
        let idx = cat.index_of("synchronous_commit").unwrap();
        cfg.values_mut()[idx] = KnobValue::Cat(1); // off
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        assert_eq!(k.synchronous_commit, SyncCommit::Off);
        // local / remote_write still wait on the local flush.
        cfg.values_mut()[idx] = KnobValue::Cat(2);
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        assert_eq!(k.synchronous_commit, SyncCommit::Durable);
    }

    #[test]
    fn default_config_does_not_crash() {
        let (_, k) = defaults();
        assert!(!k.crashes(&HardwareProfile::default(), 40));
    }

    #[test]
    fn oversized_shared_buffers_crashes() {
        let cat = postgres_v9_6();
        let mut cfg = cat.default_config();
        let sb = cat.index_of("shared_buffers").unwrap();
        cfg.values_mut()[sb] = KnobValue::Int(2_097_152); // 16 GB
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        assert!(k.crashes(&HardwareProfile::default(), 40));
    }

    #[test]
    fn huge_work_mem_plus_large_buffers_crashes() {
        // work_mem is allocated lazily, so even 2 GB alone survives...
        let cat = postgres_v9_6();
        let mut cfg = cat.default_config();
        let wm = cat.index_of("work_mem").unwrap();
        cfg.values_mut()[wm] = KnobValue::Int(2_097_152); // 2 GB per op
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        assert!(!k.crashes(&HardwareProfile::default(), 40));
        // ...but combined with a large shared_buffers it overcommits.
        let sb = cat.index_of("shared_buffers").unwrap();
        cfg.values_mut()[sb] = KnobValue::Int(1_572_864); // 12 GB
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        assert!(k.crashes(&HardwareProfile::default(), 40));
    }

    #[test]
    fn too_few_connections_crashes_the_benchmark() {
        let cat = postgres_v9_6();
        let mut cfg = cat.default_config();
        let mc = cat.index_of("max_connections").unwrap();
        cfg.values_mut()[mc] = KnobValue::Int(20);
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        assert!(k.crashes(&HardwareProfile::default(), 40));
        assert!(!k.crashes(&HardwareProfile::default(), 10));
    }

    #[test]
    fn subset_space_falls_back_to_catalog_defaults() {
        let cat = postgres_v9_6();
        let sub = cat.subspace(&["shared_buffers", "commit_delay"]);
        let mut cfg = sub.default_config();
        cfg.values_mut()[0] = KnobValue::Int(100_000);
        cfg.values_mut()[1] = KnobValue::Int(500);
        let k = DbmsKnobs::resolve(&sub.assignment(&cfg), &cat);
        assert_eq!(k.shared_buffers_pages, 100_000);
        assert_eq!(k.commit_delay_us, Some(500));
        // Untouched knob resolves to its catalog default.
        assert_eq!(k.work_mem_kb, 4_096);
    }

    #[test]
    fn v13_catalog_resolves_jit() {
        let cat = postgres_v13_6();
        let assignment = cat.assignment(&cat.default_config());
        let k = DbmsKnobs::resolve(&assignment, &cat);
        assert_eq!(k.jit_above_cost, Some(100_000));
        // v9.6 resolves JIT as absent.
        let cat96 = postgres_v9_6();
        let k96 = DbmsKnobs::resolve(&cat96.assignment(&cat96.default_config()), &cat96);
        assert_eq!(k96.jit_above_cost, None);
    }

    #[test]
    fn geqo_quality_increases_with_bias_and_effort() {
        let cat = postgres_v9_6();
        let base = cat.default_config();
        let q_base = DbmsKnobs::resolve(&cat.assignment(&base), &cat).geqo_quality;

        let mut low = base.clone();
        let bias = cat.index_of("geqo_selection_bias").unwrap();
        low.values_mut()[bias] = KnobValue::Float(1.5);
        let q_low = DbmsKnobs::resolve(&cat.assignment(&low), &cat).geqo_quality;
        assert!(q_low < q_base, "lower selection bias should reduce plan quality");

        let mut high = base.clone();
        let effort = cat.index_of("geqo_effort").unwrap();
        high.values_mut()[effort] = KnobValue::Int(10);
        let q_high = DbmsKnobs::resolve(&cat.assignment(&high), &cat).geqo_quality;
        assert!(q_high > q_base);
    }
}
