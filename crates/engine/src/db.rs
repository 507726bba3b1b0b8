//! The simulated DBMS: wires the buffer pool, WAL, checkpointer, background
//! writer, autovacuum, lock manager, and planner together and executes a
//! workload against them on a virtual clock.

use crate::bufferpool::{page_id, Access, BufferPool, OsCache};
use crate::hardware::HardwareProfile;
use crate::knobs::{DbmsKnobs, SyncCommit};
use crate::locks::{LockKey, LockTable};
use crate::metrics::MetricCounters;
use crate::planner;
use crate::sim::{LatencyReservoir, Micros, ResourceMeter};
use crate::vacuum::{TableVacState, VacuumPacing};
use crate::wal::WalState;
use crate::workload_spec::{Arrival, KeyDist, OpTemplate, TxnTemplate, WorkloadSpec};
use llamatune_math::{splitmix64, Zipfian};
use llamatune_space::{ConfigSpace, KnobAssignment};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options controlling one simulated workload run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Measured window, virtual seconds (substitutes the paper's 5-minute
    /// wall-clock runs).
    pub duration_s: f64,
    /// Warmup excluded from measurement, virtual seconds.
    pub warmup_s: f64,
    /// Concurrent workload clients (the paper uses 40).
    pub clients: u32,
    /// Arrival process (closed loop for throughput, open for tail latency).
    pub arrival: Arrival,
    /// Divisor applied to slow daemon periods (checkpoint timeout, vacuum
    /// naptime, max_wal_size accumulation) so their dynamics appear within
    /// the short virtual window; see the [crate docs](crate#scaling).
    pub daemon_time_scale: f64,
    /// Hard cap on simulated transactions (guards pathological configs).
    pub max_txns: u64,
    /// RNG seed; runs are bit-reproducible given (config, spec, seed).
    pub seed: u64,
    /// Hardware profile.
    pub hardware: HardwareProfile,
    /// Divisor applied to the *memory hierarchy* (table sizes, buffer
    /// pool, OS cache) so that cache-capacity effects of a 20 GB database
    /// appear within the short simulated window. Knob values and the crash
    /// check are untouched; only their effective capacities shrink by the
    /// same factor, preserving every ratio; see the
    /// [crate docs](crate#scaling).
    pub memory_scale: f64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            duration_s: 2.0,
            warmup_s: 0.4,
            clients: 40,
            arrival: Arrival::Closed,
            daemon_time_scale: 60.0,
            max_txns: 400_000,
            seed: 0,
            hardware: HardwareProfile::default(),
            memory_scale: 16.0,
        }
    }
}

/// Result of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The configuration crashed the server (OOM / connection exhaustion).
    pub crashed: bool,
    /// Committed transactions per virtual second over the measured window.
    pub throughput_tps: f64,
    /// Median transaction latency, milliseconds.
    pub p50_latency_ms: f64,
    /// 95th-percentile transaction latency, milliseconds.
    pub p95_latency_ms: f64,
    /// 99th-percentile transaction latency, milliseconds.
    pub p99_latency_ms: f64,
    /// Transactions committed in the measured window.
    pub committed: u64,
    /// Transactions aborted in the measured window.
    pub aborted: u64,
    /// The 27 internal metrics (see [`crate::metrics::METRIC_NAMES`]).
    pub metrics: Vec<f64>,
}

impl RunResult {
    fn crashed() -> Self {
        RunResult {
            crashed: true,
            throughput_tps: 0.0,
            p50_latency_ms: 1e9,
            p95_latency_ms: 1e9,
            p99_latency_ms: 1e9,
            committed: 0,
            aborted: 0,
            metrics: vec![0.0; crate::metrics::METRIC_NAMES.len()],
        }
    }
}

/// CPU microseconds charged per logical operation (executor dispatch).
const OP_CPU_US: f64 = 3.0;
/// CPU microseconds per tuple processed.
const TUPLE_CPU_US: f64 = 0.18;
/// CPU microseconds for a buffer-pool hit (pin + locate).
const HIT_CPU_US: f64 = 1.2;
/// CPU microseconds for upper B-tree levels (always cached).
const INDEX_UPPER_CPU_US: f64 = 1.6;
/// Maximum representative page touches per scan/join op; larger logical
/// work is scaled from this sample so op cost stays O(1).
const SCAN_SAMPLE: u32 = 16;
/// Lock wait after which a client gives up and aborts.
const ABORT_HORIZON_US: Micros = 4_000_000;

/// Table id of the index pages of table `table` of `n_tables`: ids stay
/// dense (heap tables `0..n`, their indexes `n..2n`), which is what the
/// buffer pool's page table is indexed by.
fn index_table_id(n_tables: usize, table: usize) -> u32 {
    (n_tables + table) as u32
}

/// Where an op's keys come from: its [`KeyDist`], with the Zipfian case
/// resolved to an index into `Dbms::zipf` when the run is set up, so that
/// a draw is an index and not a lookup by (rows, theta).
#[derive(Debug, Clone, Copy)]
enum KeySource {
    Uniform,
    HotRange(f64),
    Zipfian(usize),
}

/// The buffers of one transaction, owned by the [`Dbms`] and reused so that
/// executing a transaction allocates nothing.
#[derive(Default)]
struct TxnScratch {
    /// Row locks to take, sorted and deduplicated.
    lock_keys: Vec<LockKey>,
    /// Per op: the key sampled for it in the lock phase, if it is a write.
    sampled: Vec<Option<u64>>,
}

struct Dbms<'a> {
    knobs: DbmsKnobs,
    hw: HardwareProfile,
    spec: &'a WorkloadSpec,
    scale: f64,
    /// Effective rows per table after memory scaling.
    eff_rows: Vec<u64>,
    /// Dead-tuple debt multiplier (see `RunOptions::memory_scale`).
    debt_mult: u64,

    cpu: ResourceMeter,
    disk: ResourceMeter,
    bp: BufferPool,
    os: OsCache,
    wal: WalState,
    locks: LockTable,
    tables: Vec<TableVacState>,
    /// One distribution per distinct (rows, theta) of the spec.
    zipf: Vec<Zipfian>,
    /// `key_sources[txn][op]`; `None` for an op that samples no key.
    key_sources: Vec<Vec<Option<KeySource>>>,
    rng: StdRng,
    scratch: TxnScratch,

    // Daemon state.
    wal_writer_next: Micros,
    bgwriter_next: Micros,
    vacuum_next: Micros,
    ckpt_check_next: Micros,
    last_checkpoint: Micros,
    backend_dirty_counter: u64,

    // Counters.
    c: MetricCounters,
    clients_active: u32,
    total_db_pages: u64,
}

impl<'a> Dbms<'a> {
    fn new(knobs: DbmsKnobs, spec: &'a WorkloadSpec, opts: &RunOptions) -> Dbms<'a> {
        let hw = opts.hardware.clone();
        let ms = opts.memory_scale.max(1.0);
        let bp = BufferPool::new((knobs.shared_buffers_pages as f64 / ms) as usize);
        let db_bytes = (spec.total_bytes() as f64 / ms) as u64;
        let pg_bytes = knobs.memory_footprint_bytes(opts.clients);
        let os_free = hw.ram_bytes.saturating_sub(pg_bytes + hw.os_reserved_bytes).max(256 << 20);
        let os = OsCache::new((os_free as f64 / ms) as u64);
        let fsync_us = if knobs.fsync { hw.disk_fsync_us * knobs.wal_sync_cost_mult } else { 30.0 };
        let wal = WalState::new(
            knobs.wal_buffers_pages * 8 * 1024,
            knobs.full_page_writes,
            knobs.wal_compression,
            fsync_us,
        );
        let eff_rows: Vec<u64> =
            spec.tables.iter().map(|t| ((t.rows as f64 / ms) as u64).max(64)).collect();
        let tables = spec
            .tables
            .iter()
            .zip(&eff_rows)
            .map(|(t, &rows)| TableVacState::new(rows, rows.div_ceil(t.rows_per_page()).max(1)))
            .collect();
        let total_db_pages = (db_bytes / 8192).max(1);
        let scale = opts.daemon_time_scale.max(1.0);
        // Dead tuples accrue as if the run lasted the paper's 5 minutes on
        // the scaled-down tables.
        let debt_mult = ((300.0 / opts.duration_s.max(0.1)) / ms).round().max(1.0) as u64;
        // Each Zipfian op draws from the distribution over its table's
        // effective rows; ops that agree on (rows, theta) share one.
        let mut zipf_keys: Vec<(u64, u64)> = Vec::new();
        let mut zipf = Vec::new();
        let mut resolve = |op: &OpTemplate| match op_dist(op)? {
            (_, KeyDist::Uniform) => Some(KeySource::Uniform),
            (_, KeyDist::HotRange(frac)) => Some(KeySource::HotRange(frac)),
            (table, KeyDist::Zipfian(theta)) => {
                let key = (eff_rows[table], theta.to_bits());
                let known = zipf_keys.iter().position(|k| *k == key);
                Some(KeySource::Zipfian(known.unwrap_or_else(|| {
                    zipf_keys.push(key);
                    zipf.push(Zipfian::new(key.0, theta));
                    zipf.len() - 1
                })))
            }
        };
        let key_sources =
            spec.txns.iter().map(|t| t.ops.iter().map(&mut resolve).collect()).collect();
        let mut db = Dbms {
            knobs,
            hw,
            spec,
            scale,
            eff_rows,
            debt_mult,
            cpu: ResourceMeter::new(10.0, 10_000, 4.0),
            disk: ResourceMeter::new(2.0, 10_000, 2.0),
            bp,
            os,
            wal,
            locks: LockTable::new(),
            tables,
            zipf,
            key_sources,
            rng: StdRng::seed_from_u64(opts.seed ^ 0x5EED_CAFE),
            scratch: TxnScratch::default(),
            wal_writer_next: 0,
            bgwriter_next: 0,
            vacuum_next: 0,
            ckpt_check_next: 0,
            last_checkpoint: 0,
            backend_dirty_counter: 0,
            c: MetricCounters::default(),
            clients_active: opts.clients,
            total_db_pages,
        };
        db.prewarm_caches();
        db
    }

    /// Seeds the buffer pool and OS cache with the hottest pages, emulating
    /// the warm steady state a 5-minute run would reach: index leaves
    /// (hottest, aggregating many keys each) first, then heap pages in key
    /// popularity order. Without this, short windows overstate compulsory
    /// misses and understate the value of cache-sizing knobs.
    fn prewarm_caches(&mut self) {
        let n_tables = self.spec.tables.len();
        if n_tables == 0 {
            return;
        }
        // The pool is about to be filled, and the OS cache to take about as
        // many chunks (one per heap page faulted in below).
        self.bp.reserve(self.bp.capacity());
        self.os.reserve(self.bp.capacity());
        // Index leaves for every table.
        'leaves: for (t, spec) in self.spec.tables.iter().enumerate() {
            let leaves = self.eff_rows[t] / (spec.rows_per_page() * 50).max(1) + 1;
            for leaf in 0..leaves {
                if self.bp.resident() >= self.bp.capacity() {
                    break 'leaves;
                }
                self.bp.access(page_id(index_table_id(n_tables, t), leaf), false);
            }
        }
        // Heap pages in popularity order (scattered rank order for zipfian
        // tables, ascending order otherwise), round-robin across tables.
        let mut rank = 0u64;
        while self.bp.resident() < self.bp.capacity() && rank < 4_000_000 / n_tables as u64 {
            let mut progressed = false;
            for t in 0..n_tables {
                if rank >= self.eff_rows[t] {
                    continue;
                }
                progressed = true;
                let key = splitmix64(rank) % self.eff_rows[t];
                let rpp = self.spec.tables[t].rows_per_page();
                self.bp.access(page_id(t as u32, key / rpp), false);
                // The next popularity tier lands in the OS cache.
                let os_key = splitmix64(rank + self.bp.capacity() as u64) % self.eff_rows[t];
                self.os.access(page_id(t as u32, os_key / rpp));
                if self.bp.resident() >= self.bp.capacity() {
                    break;
                }
            }
            if !progressed {
                break;
            }
            rank += 1;
        }
        // Reset counters: prewarming is not part of the measured run.
        self.c = MetricCounters::default();
    }

    /// Samples a row key of `table` from the op's entry of `key_sources`.
    fn sample_key(&mut self, table: usize, source: Option<KeySource>) -> u64 {
        let rows = self.eff_rows[table];
        match source.expect("an op that samples keys has a source") {
            KeySource::Uniform => self.rng.random_range(0..rows),
            KeySource::HotRange(frac) => {
                let hot = ((rows as f64 * frac) as u64).max(1);
                self.rng.random_range(0..hot)
            }
            KeySource::Zipfian(z) => {
                let rank = self.zipf[z].sample(&mut self.rng);
                // Scatter hot ranks across the key space, YCSB-style.
                splitmix64(rank) % rows
            }
        }
    }

    fn heap_page(&self, table: usize, key: u64) -> u64 {
        let rpp = self.spec.tables[table].rows_per_page();
        let bloat = self.tables[table].bloat();
        // Bloat spreads the same rows over more pages.
        ((key / rpp) as f64 * bloat) as u64
    }

    /// Accesses one page through the cache hierarchy; returns foreground
    /// latency in microseconds.
    fn page_access(&mut self, now: Micros, table: u32, page_no: u64, write: bool) -> f64 {
        let pid = page_id(table, page_no);
        match self.bp.access(pid, write) {
            Access::Hit => {
                self.c.blks_hit += 1;
                let mut cost = HIT_CPU_US;
                if write {
                    cost += self.on_page_dirtied(now, pid);
                }
                cost
            }
            Access::Miss { dirty_eviction } => {
                let mut cost = if self.os.access(pid) {
                    self.c.os_cache_hits += 1;
                    self.hw.os_cache_read_us
                } else {
                    self.c.blks_read += 1;
                    let lat = self.disk.request(now, self.hw.disk_random_read_us);
                    self.c.read_latency_sum_us += lat;
                    self.c.read_latency_count += 1;
                    lat
                };
                if dirty_eviction {
                    // The faulting backend writes the victim out first.
                    self.c.dirty_evictions += 1;
                    cost += self.disk.request(now, self.hw.disk_write_us);
                }
                if write {
                    cost += self.on_page_dirtied(now, pid);
                }
                cost
            }
        }
    }

    /// Bookkeeping when a backend dirties a page: WAL append (with
    /// full-page-write amplification and buffer-full stalls) and
    /// `backend_flush_after` foreground writeback.
    fn on_page_dirtied(&mut self, now: Micros, pid: u64) -> f64 {
        let mut cost = 0.0;
        let append = self.wal.append(pid);
        self.c.wal_bytes += append.bytes;
        if append.full_page_image {
            self.c.fpw_pages += 1;
            cost += 1.5; // CPU to copy (and maybe compress) the image
            if self.knobs.wal_compression {
                cost += 7.0;
            }
        }
        if append.stalled {
            // Backend writes the WAL buffer out synchronously.
            self.c.wal_stalls += 1;
            let pages = (self.knobs.wal_buffers_pages).max(1) as f64;
            cost += self.disk.request(now, 60.0 + pages.min(64.0) * 4.0);
        }
        self.backend_dirty_counter += 1;
        match self.knobs.backend_flush_after_pages {
            Some(n) if self.backend_dirty_counter >= n => {
                self.backend_dirty_counter = 0;
                self.c.backend_flushes += 1;
                // sync_file_range on a small batch: fixed queue disruption
                // plus per-page cost; tiny batches are brutally inefficient.
                let batch = n.min(256) as f64;
                cost += self.disk.request(now, 380.0 + batch * 10.0);
                self.bp.clean_dirty(n as usize);
            }
            Some(_) => {}
            None => {
                // Special value 0: the OS absorbs writeback asynchronously,
                // coalescing neighbouring pages.
                self.disk.add_background(now, self.hw.disk_write_us * 0.35, 500_000);
            }
        }
        cost
    }

    /// Index probe: upper levels are cached (CPU only), leaf may fault.
    fn index_probe(&mut self, now: Micros, table: usize, key: u64) -> f64 {
        let t = &self.spec.tables[table];
        let leaf = key / (t.rows_per_page() * 50).max(1);
        let index = index_table_id(self.spec.tables.len(), table);
        INDEX_UPPER_CPU_US + self.page_access(now, index, leaf, false)
    }

    /// Executes one transaction starting at `start`; returns (commit time,
    /// committed?).
    fn execute_txn(&mut self, start: Micros, txn: usize) -> (Micros, bool) {
        // Out of `self` for the call, so the body may borrow both.
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcome = self.run_txn(start, txn, &mut scratch);
        self.scratch = scratch;
        outcome
    }

    fn run_txn(&mut self, start: Micros, txn: usize, scratch: &mut TxnScratch) -> (Micros, bool) {
        let tmpl: &'a TxnTemplate = &self.spec.txns[txn];
        let TxnScratch { lock_keys, sampled } = scratch;
        lock_keys.clear();
        sampled.clear();
        // Phase 1: sample write keys and acquire locks in sorted order.
        for (i, op) in tmpl.ops.iter().enumerate() {
            if let OpTemplate::PointUpdate { table, .. } = op {
                let key = self.sample_key(*table, self.key_sources[txn][i]);
                lock_keys.push((*table as u32, key));
                sampled.push(Some(key));
            } else {
                sampled.push(None);
            }
        }
        let mut now_f = start as f64;
        if !lock_keys.is_empty() {
            lock_keys.sort_unstable();
            lock_keys.dedup();
            let horizon = ABORT_HORIZON_US.max(self.knobs.deadlock_timeout_ms * 1_000 * 4);
            let grant = self.locks.acquire(start, lock_keys, horizon);
            self.c.lock_waits += u64::from(grant.conflicts > 0);
            self.c.lock_wait_us += grant.wait_us;
            if grant.aborted {
                self.c.aborts += 1;
                return (start + grant.wait_us, false);
            }
            now_f += grant.wait_us as f64;
        }

        // Phase 2: base CPU (protocol, parse, plan).
        now_f += self.cpu.request(now_f as Micros, self.spec.base_cpu_us);

        // Phase 3: operations.
        for (i, (op, key)) in tmpl.ops.iter().zip(sampled.iter()).enumerate() {
            let now = now_f as Micros;
            now_f += self.cpu.request(now, OP_CPU_US);
            now_f += self.execute_op(now_f as Micros, op, self.key_sources[txn][i], *key);
        }

        // Phase 4: commit.
        let now = now_f as Micros;
        if tmpl.read_only {
            now_f += self.cpu.request(now, 2.0);
        } else {
            now_f += self.cpu.request(now, 6.0);
            match self.knobs.synchronous_commit {
                SyncCommit::Off => self.wal.commit_async(),
                SyncCommit::Durable => {
                    let siblings_met =
                        self.clients_active.saturating_sub(1) >= self.knobs.commit_siblings;
                    // Flushing also writes the buffered WAL bytes out.
                    let byte_cost =
                        self.wal.unflushed_bytes() as f64 * self.hw.disk_write_us_per_byte;
                    let out = self.wal.commit_durable(
                        now,
                        self.knobs.commit_delay_us,
                        siblings_met,
                        byte_cost,
                    );
                    if out.issued_flush {
                        // The flush occupies the device (latency is already
                        // serialized through the epoch chain).
                        let fsync = if self.knobs.fsync {
                            self.hw.disk_fsync_us * self.knobs.wal_sync_cost_mult
                        } else {
                            30.0
                        };
                        self.disk.add_background(now, fsync + byte_cost, 2_000);
                        self.c.wal_flushes += 1;
                    }
                    now_f += out.wait_us as f64;
                }
            }
        }
        let commit_time = now_f as Micros;
        if !lock_keys.is_empty() {
            self.locks.hold_until(lock_keys, commit_time);
        }
        self.c.commits += 1;
        (commit_time, true)
    }

    /// Executes a single logical operation, returning its latency (µs).
    /// `source` is the op's entry of `key_sources`.
    fn execute_op(
        &mut self,
        now: Micros,
        op: &OpTemplate,
        source: Option<KeySource>,
        presampled: Option<u64>,
    ) -> f64 {
        match op {
            OpTemplate::PointRead { table, .. } => {
                let key = self.sample_key(*table, source);
                let mut cost = self.index_probe(now, *table, key);
                let page = self.heap_page(*table, key);
                cost += self.page_access(now, *table as u32, page, false);
                cost + TUPLE_CPU_US
            }
            OpTemplate::PointUpdate { table, .. } => {
                // Only sampled here when an update op appears without the
                // lock phase having sampled it (not the normal path).
                let key = presampled.unwrap_or_else(|| self.sample_key(*table, source));
                let mut cost = self.index_probe(now, *table, key);
                let page = self.heap_page(*table, key);
                cost += self.page_access(now, *table as u32, page, true);
                // Dead-tuple debt accrues in *scaled* time so that vacuum
                // dynamics of a 5-minute run appear in the short window.
                for _ in 0..self.debt_mult {
                    self.tables[*table].on_update();
                }
                cost + TUPLE_CPU_US * 2.0
            }
            OpTemplate::Insert { table, rows } => {
                let rpp = self.spec.tables[*table].rows_per_page();
                let live = self.tables[*table].live_tuples;
                let base = self.tables[*table].base_pages.max(1);
                let pages = (u64::from(*rows).div_ceil(rpp)).max(1);
                let mut cost = 0.0;
                for p in 0..pages.min(8) {
                    let page_no = (live / rpp + p) % base.max(1);
                    cost += self.page_access(now, *table as u32, page_no, true);
                }
                if pages > 8 {
                    cost *= pages as f64 / 8.0;
                }
                self.tables[*table].on_insert(u64::from(*rows) * self.debt_mult);
                cost + f64::from(*rows) * TUPLE_CPU_US * 2.0
            }
            OpTemplate::RangeScan { table, rows, .. } => {
                self.execute_scan(now, *table, source, *rows)
            }
            OpTemplate::Join { tables, driving_rows, table, .. } => {
                self.execute_join(now, *tables, *driving_rows, source, *table)
            }
            OpTemplate::Compute { us } => self.cpu.request(now, f64::from(*us)),
        }
    }

    fn execute_scan(
        &mut self,
        now: Micros,
        table: usize,
        source: Option<KeySource>,
        rows: u32,
    ) -> f64 {
        let table_rows = self.eff_rows[table];
        let eff_pages = self.tables[table].effective_pages();
        let noise: f64 = self.rng.random();
        let est = (f64::from(rows)
            * planner::estimation_error(self.knobs.default_statistics_target, noise))
            as u64;
        let choice = planner::choose_scan(&self.knobs, eff_pages, table_rows, est.max(1));
        let rows_f = f64::from(rows);
        let mut cost = rows_f * TUPLE_CPU_US;
        match choice {
            planner::ScanChoice::Index | planner::ScanChoice::Bitmap => {
                let start_key = self.sample_key(table, source);
                cost += self.index_probe(now, table, start_key);
                // Unclustered heap: ~one page per row, sampled.
                let touches = rows.min(SCAN_SAMPLE);
                let mut sampled_cost = 0.0;
                for i in 0..touches {
                    let key = (start_key + u64::from(i) * 131) % table_rows;
                    let page = self.heap_page(table, key);
                    sampled_cost += self.page_access(now, table as u32, page, false);
                }
                let mut scale = rows_f / f64::from(touches.max(1));
                if choice == planner::ScanChoice::Bitmap {
                    // Physical-order fetch coalesces neighbouring reads.
                    scale *= 0.6;
                }
                // Prefetch pipelines the random reads.
                if let Some(eic) = self.knobs.effective_io_concurrency {
                    scale /= 1.0 + (f64::from(eic.min(64))).ln();
                }
                cost += sampled_cost * scale;
            }
            planner::ScanChoice::Seq => {
                // Sequential read of the whole table; sample residency.
                let touches = (eff_pages.min(u64::from(SCAN_SAMPLE))) as u32;
                let mut miss = 0u32;
                for i in 0..touches {
                    let page =
                        (u64::from(i) * eff_pages / u64::from(touches.max(1))) % eff_pages.max(1);
                    let pid = page_id(table as u32, page);
                    match self.bp.access(pid, false) {
                        Access::Hit => self.c.blks_hit += 1,
                        Access::Miss { .. } => {
                            miss += 1;
                            self.os.access(pid);
                        }
                    }
                }
                let miss_frac = f64::from(miss) / f64::from(touches.max(1));
                let io_us = eff_pages as f64 * miss_frac * self.hw.disk_seq_read_us;
                cost += self.disk.request(now, io_us.min(200_000.0));
                cost += table_rows as f64 * TUPLE_CPU_US * 0.4; // tight loop
                                                                // Parallel scan (v13): workers split the row-processing CPU.
                let workers = self.knobs.max_parallel_workers_per_gather;
                if workers > 0 && eff_pages > 1024 {
                    let speedup = f64::from(workers.min(4) + 1);
                    cost = cost / speedup + 600.0; // worker startup
                }
            }
        }
        // JIT (v13): compile cost for expensive queries, cheaper execution.
        if let Some(jit_cost) = self.knobs.jit_above_cost {
            let est_cost = rows_f * 25.0 + eff_pages as f64;
            if est_cost > jit_cost as f64 {
                cost = cost * 0.8 + self.cpu.request(now, 1_800.0);
            }
        }
        cost
    }

    fn execute_join(
        &mut self,
        now: Micros,
        tables: u32,
        driving_rows: u32,
        source: Option<KeySource>,
        table: usize,
    ) -> f64 {
        let choice = planner::choose_join(&self.knobs, u64::from(driving_rows));
        let mut mult = planner::join_cost_multiplier(choice, u64::from(driving_rows));
        if tables > 2 {
            // Join-order quality: GEQO and the collapse limits.
            mult *= 2.0 - self.knobs.geqo_quality;
        }
        // Representative inner probes.
        let probes = driving_rows.min(SCAN_SAMPLE);
        let mut sampled = 0.0;
        for _ in 0..probes {
            let key = self.sample_key(table, source);
            sampled += self.index_probe(now, table, key);
            let page = self.heap_page(table, key);
            sampled += self.page_access(now, table as u32, page, false);
        }
        let total_rows = f64::from(driving_rows) * f64::from(tables.max(1));
        let mut cost = sampled * (total_rows / f64::from(probes.max(1))).min(64.0) * mult
            + total_rows * TUPLE_CPU_US;
        // Hash joins spill when the build side exceeds work_mem.
        if choice == planner::JoinChoice::Hash {
            let build_bytes = u64::from(driving_rows) * 96;
            if build_bytes > self.knobs.work_mem_kb * 1024 {
                let spill_pages = (build_bytes / 8192).max(1) as f64;
                cost += self.disk.request(now, spill_pages * self.hw.disk_seq_read_us * 2.0);
            }
        }
        if let Some(jit_cost) = self.knobs.jit_above_cost {
            if total_rows * 40.0 > jit_cost as f64 {
                cost = cost * 0.8 + self.cpu.request(now, 1_800.0);
            }
        }
        cost
    }

    /// Runs every daemon whose wake time has passed.
    fn run_daemons(&mut self, until: Micros) {
        // WAL writer.
        while self.wal_writer_next <= until {
            let t = self.wal_writer_next;
            let threshold_hit = match self.knobs.wal_writer_flush_after_pages {
                Some(pages) => self.wal.unflushed_bytes() > pages * 8 * 1024,
                None => false,
            };
            let bytes = self.wal.background_flush();
            if bytes > 0 {
                let pages = (bytes / 8192 + 1) as f64;
                let fsync = if self.knobs.fsync { self.hw.disk_fsync_us * 0.8 } else { 20.0 };
                self.disk.add_background(t, pages * 6.0 + fsync, 5_000);
                self.c.wal_flushes += 1;
            }
            // The flush-after threshold makes the writer run hotter.
            let delay = if threshold_hit {
                self.knobs.wal_writer_delay_ms.max(1) * 250
            } else {
                self.knobs.wal_writer_delay_ms.max(1) * 1_000
            };
            self.wal_writer_next = t + delay;
        }
        // Background writer.
        while self.bgwriter_next <= until {
            let t = self.bgwriter_next;
            if let Some(maxpages) = self.knobs.bgwriter_lru_maxpages {
                let target =
                    ((maxpages as f64) * self.knobs.bgwriter_lru_multiplier.max(0.1)) as usize;
                let cleaned = self.bp.clean_dirty(target.max(1));
                if cleaned > 0 {
                    self.c.bgwriter_pages += cleaned as u64;
                    self.disk.add_background(
                        t,
                        cleaned as f64 * self.hw.disk_write_us * 0.7,
                        self.knobs.bgwriter_delay_ms * 1_000,
                    );
                }
            }
            self.bgwriter_next = t + self.knobs.bgwriter_delay_ms.max(10) * 1_000;
        }
        // Checkpointer (checked every 100 ms of virtual time).
        while self.ckpt_check_next <= until {
            let t = self.ckpt_check_next;
            let timeout_us = (self.knobs.checkpoint_timeout_s as f64 * 1e6 / self.scale) as Micros;
            let wal_trigger = self.wal.bytes_since_checkpoint() * self.scale as u64
                >= self.knobs.max_wal_size_bytes;
            if t.saturating_sub(self.last_checkpoint) >= timeout_us.max(200_000) || wal_trigger {
                self.perform_checkpoint(t, timeout_us);
            }
            self.ckpt_check_next = t + 100_000;
        }
        // Autovacuum.
        while self.vacuum_next <= until {
            let t = self.vacuum_next;
            if self.knobs.autovacuum {
                self.run_autovacuum(t);
            }
            let naptime_us = (self.knobs.autovacuum_naptime_s as f64 * 1e6 / self.scale) as Micros;
            self.vacuum_next = t + naptime_us.max(50_000);
        }
    }

    fn perform_checkpoint(&mut self, t: Micros, timeout_us: Micros) {
        let dirty = self.bp.dirty();
        if dirty > 0 {
            let spread = ((timeout_us as f64 * self.knobs.checkpoint_completion_target) as Micros)
                .max(100_000);
            // checkpoint_flush_after paces writeback; disabled (special 0)
            // lets the OS burst it out, briefly slamming the device.
            let (cost_mult, duration) = if self.knobs.backend_flush_after_pages.is_some()
                || self.knobs.checkpoint_completion_target > 0.0
            {
                (1.0, spread)
            } else {
                (1.15, spread / 3)
            };
            let written = self.bp.clean_dirty(dirty);
            self.c.checkpoint_pages += written as u64;
            self.disk.add_background(
                t,
                written as f64 * self.hw.disk_write_us * cost_mult,
                duration,
            );
        }
        self.c.checkpoints += 1;
        self.wal.on_checkpoint();
        self.last_checkpoint = t;
    }

    fn run_autovacuum(&mut self, t: Micros) {
        let pacing = VacuumPacing {
            cost_page_hit: self.knobs.vacuum_cost_page_hit,
            cost_page_miss: self.knobs.vacuum_cost_page_miss,
            cost_page_dirty: self.knobs.vacuum_cost_page_dirty,
            cost_limit: self.knobs.av_cost_limit,
            cost_delay_ms: self.knobs.av_cost_delay_ms,
        };
        let hit_rate = (self.bp.capacity() as f64 / self.total_db_pages as f64).min(0.95);
        let mut workers = self.knobs.autovacuum_max_workers;
        for i in 0..self.tables.len() {
            if workers == 0 {
                break;
            }
            let needs = self.tables[i].needs_vacuum(
                self.knobs.autovacuum_vacuum_threshold,
                self.knobs.autovacuum_vacuum_scale_factor,
            );
            if !needs {
                continue;
            }
            workers -= 1;
            // Larger memory lets vacuum finish in one pass.
            let mem_passes = if self.knobs.autovacuum_work_mem_kb < 32_768 { 1.4 } else { 1.0 };
            let work = pacing.plan(&self.tables[i], hit_rate, 9.0 * mem_passes);
            let io = work.pages_scanned as f64 * (1.0 - hit_rate) * self.hw.disk_seq_read_us
                + work.pages_dirtied as f64 * self.hw.disk_write_us * 0.8;
            // Vacuum I/O lands over the (possibly paced) pass duration.
            self.disk.add_background(t, io, work.duration_us.max(100_000));
            self.cpu.add_background(
                t,
                work.pages_scanned as f64 * 2.0,
                work.duration_us.max(100_000),
            );
            self.c.vacuum_runs += 1;
            self.c.vacuum_pages += work.pages_scanned;
            self.tables[i].on_vacuumed();
        }
    }

    fn finalize_metrics(&mut self, elapsed_s: f64, p50_us: f64) -> Vec<f64> {
        self.c.bp_dirty_fraction = self.bp.dirty() as f64 / self.bp.capacity() as f64;
        self.c.group_commit_batch_avg = self.wal.avg_batch_size();
        let (dead, live): (u64, u64) =
            self.tables.iter().fold((0, 0), |(d, l), t| (d + t.dead_tuples, l + t.live_tuples));
        self.c.dead_tuple_ratio = dead as f64 / live.max(1) as f64;
        self.c.avg_bloat_factor = self.tables.iter().map(TableVacState::bloat).sum::<f64>()
            / self.tables.len().max(1) as f64;
        self.c.cpu_utilization =
            self.cpu.total_busy_us() / (elapsed_s.max(1e-9) * 1e6 * f64::from(self.hw.cores));
        self.c.disk_utilization = self.disk.total_busy_us() / (elapsed_s.max(1e-9) * 1e6 * 2.0);
        self.c.txn_latency_p50_us = p50_us;
        self.c.active_clients = self.clients_active;
        self.c.to_vector(elapsed_s)
    }
}

fn op_dist(op: &OpTemplate) -> Option<(usize, KeyDist)> {
    match op {
        OpTemplate::PointRead { table, dist }
        | OpTemplate::PointUpdate { table, dist }
        | OpTemplate::RangeScan { table, dist, .. }
        | OpTemplate::Join { table, dist, .. } => Some((*table, *dist)),
        _ => None,
    }
}

/// Runs `spec` against the simulated DBMS configured by `assignment`
/// (resolved against `catalog` for defaults).
pub fn run_workload(
    assignment: &KnobAssignment,
    catalog: &ConfigSpace,
    spec: &WorkloadSpec,
    opts: &RunOptions,
) -> RunResult {
    spec.validate().expect("invalid workload spec");
    let knobs = DbmsKnobs::resolve(assignment, catalog);
    if knobs.crashes(&opts.hardware, opts.clients) {
        return RunResult::crashed();
    }
    let mut db = Dbms::new(knobs, spec, opts);
    let mut mix_rng = StdRng::seed_from_u64(opts.seed ^ 0x00D1_CE00);

    let warmup_end = (opts.warmup_s * 1e6) as Micros;
    let end = warmup_end + (opts.duration_s * 1e6) as Micros;

    // Cumulative weights for sampling the mix.
    let total_w: f64 = spec.txns.iter().map(|t| t.weight).sum();
    let cumulative: Vec<f64> = spec
        .txns
        .iter()
        .scan(0.0, |acc, t| {
            *acc += t.weight / total_w;
            Some(*acc)
        })
        .collect();
    let sample_txn = |rng: &mut StdRng| -> usize {
        let u: f64 = rng.random();
        cumulative.iter().position(|&c| u <= c).unwrap_or(spec.txns.len() - 1)
    };

    let mut latencies = LatencyReservoir::new(32_768, opts.seed ^ 0xABCD);
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut total = 0u64;

    match opts.arrival {
        Arrival::Closed => {
            let mut heap: BinaryHeap<Reverse<(Micros, u32)>> = BinaryHeap::new();
            for cidx in 0..opts.clients {
                heap.push(Reverse((u64::from(cidx) * 37, cidx)));
            }
            while let Some(Reverse((t, cidx))) = heap.pop() {
                if t >= end || total >= opts.max_txns {
                    break;
                }
                db.run_daemons(t);
                let tmpl_idx = sample_txn(&mut mix_rng);
                let (done, ok) = db.execute_txn(t, tmpl_idx);
                total += 1;
                if done >= warmup_end && done < end {
                    if ok {
                        committed += 1;
                        latencies.record((done - t) as f64);
                    } else {
                        aborted += 1;
                    }
                }
                heap.push(Reverse((done + 5, cidx)));
            }
        }
        Arrival::Open { rate_tps } => {
            let inter = llamatune_math::Exponential::new(rate_tps.max(1.0) / 1e6);
            let mut arrivals = StdRng::seed_from_u64(opts.seed ^ 0xA221);
            let mut client_free: BinaryHeap<Reverse<Micros>> = BinaryHeap::new();
            for _ in 0..opts.clients {
                client_free.push(Reverse(0));
            }
            let mut t_arr = 0f64;
            while total < opts.max_txns {
                t_arr += inter.sample(&mut arrivals);
                let arrival = t_arr as Micros;
                if arrival >= end {
                    break;
                }
                let Reverse(free) = client_free.pop().expect("client pool");
                let start = arrival.max(free);
                db.run_daemons(start);
                let tmpl_idx = sample_txn(&mut mix_rng);
                let (done, ok) = db.execute_txn(start, tmpl_idx);
                total += 1;
                if done >= warmup_end && done < end {
                    if ok {
                        committed += 1;
                        // Latency from *arrival*: queueing included.
                        latencies.record((done - arrival) as f64);
                    } else {
                        aborted += 1;
                    }
                }
                client_free.push(Reverse(done));
            }
        }
    }

    let elapsed_s = (end - warmup_end) as f64 / 1e6;
    let [p50, p95, p99] = latencies.percentiles([50.0, 95.0, 99.0]).unwrap_or([0.0; 3]);
    let metrics = db.finalize_metrics(elapsed_s, p50);
    RunResult {
        crashed: false,
        throughput_tps: committed as f64 / elapsed_s,
        p50_latency_ms: p50 / 1e3,
        p95_latency_ms: p95 / 1e3,
        p99_latency_ms: p99 / 1e3,
        committed,
        aborted,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload_spec::{TableSpec, TxnTemplate};
    use llamatune_space::catalog::postgres_v9_6;
    use llamatune_space::KnobValue;

    /// A small read/write workload for engine-level tests: 200k rows of
    /// 1 kB (≈200 MB), 50/50 zipfian reads and updates.
    fn test_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "engine-test",
            tables: vec![TableSpec { name: "t", rows: 200_000, row_bytes: 1_000, columns: 11 }],
            txns: vec![
                TxnTemplate {
                    name: "read",
                    weight: 0.5,
                    ops: vec![OpTemplate::PointRead { table: 0, dist: KeyDist::Zipfian(0.9) }],
                    read_only: true,
                },
                TxnTemplate {
                    name: "update",
                    weight: 0.5,
                    ops: vec![OpTemplate::PointUpdate { table: 0, dist: KeyDist::Zipfian(0.9) }],
                    read_only: false,
                },
            ],
            base_cpu_us: 60.0,
        }
    }

    fn quick_opts(seed: u64) -> RunOptions {
        RunOptions {
            duration_s: 0.4,
            warmup_s: 0.1,
            max_txns: 60_000,
            seed,
            ..RunOptions::default()
        }
    }

    fn run_with(overrides: &[(&str, KnobValue)], seed: u64) -> RunResult {
        let cat = postgres_v9_6();
        let mut cfg = cat.default_config();
        for (name, v) in overrides {
            cfg.values_mut()[cat.index_of(name).unwrap()] = *v;
        }
        run_workload(&cat.assignment(&cfg), &cat, &test_spec(), &quick_opts(seed))
    }

    #[test]
    fn default_config_runs_and_commits() {
        let r = run_with(&[], 1);
        assert!(!r.crashed);
        assert!(r.throughput_tps > 100.0, "tput {}", r.throughput_tps);
        assert!(r.committed > 0);
        assert!(r.p95_latency_ms > r.p50_latency_ms * 0.99);
        assert_eq!(r.metrics.len(), 27);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run_with(&[], 7);
        let b = run_with(&[], 7);
        assert_eq!(a.throughput_tps, b.throughput_tps);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.metrics, b.metrics);
        let c = run_with(&[], 8);
        assert_ne!(a.committed, c.committed, "different seeds should differ");
    }

    #[test]
    fn larger_buffer_pool_improves_io_bound_throughput() {
        let small = run_with(&[("shared_buffers", KnobValue::Int(2_048))], 3); // 16 MB
        let large = run_with(&[("shared_buffers", KnobValue::Int(131_072))], 3); // 1 GB
        assert!(
            large.throughput_tps > small.throughput_tps,
            "1GB pool {} <= 16MB pool {}",
            large.throughput_tps,
            small.throughput_tps
        );
    }

    #[test]
    fn async_commit_beats_durable_commit() {
        let durable = run_with(&[], 4);
        let async_ = run_with(&[("synchronous_commit", KnobValue::Cat(1))], 4);
        assert!(
            async_.throughput_tps > durable.throughput_tps,
            "async {} <= durable {}",
            async_.throughput_tps,
            durable.throughput_tps
        );
    }

    #[test]
    fn crashed_config_reports_crash() {
        let r = run_with(&[("shared_buffers", KnobValue::Int(2_097_152))], 5); // 16 GB
        assert!(r.crashed);
        assert_eq!(r.throughput_tps, 0.0);
    }

    #[test]
    fn backend_flush_small_values_hurt() {
        // Figure 4: special value 0 performs best; tiny thresholds are the
        // worst; large thresholds recover but stay below 0.
        let disabled = run_with(&[], 6); // default 0 = disabled
        let tiny = run_with(&[("backend_flush_after", KnobValue::Int(2))], 6);
        let large = run_with(&[("backend_flush_after", KnobValue::Int(256))], 6);
        assert!(
            disabled.throughput_tps > tiny.throughput_tps,
            "disabled {} <= tiny {}",
            disabled.throughput_tps,
            tiny.throughput_tps
        );
        assert!(
            large.throughput_tps > tiny.throughput_tps,
            "large {} <= tiny {}",
            large.throughput_tps,
            tiny.throughput_tps
        );
    }

    #[test]
    fn open_arrival_reports_queueing_latency() {
        let cat = postgres_v9_6();
        let cfg = cat.default_config();
        let mut opts = quick_opts(2);
        // First measure closed-loop capacity.
        let closed = run_workload(&cat.assignment(&cfg), &cat, &test_spec(), &opts);
        // An open-loop run at ~30% of capacity must keep latency modest and
        // match the offered rate.
        let rate = closed.throughput_tps * 0.3;
        opts.arrival = Arrival::Open { rate_tps: rate };
        let open = run_workload(&cat.assignment(&cfg), &cat, &test_spec(), &opts);
        assert!(!open.crashed);
        assert!(
            (open.throughput_tps - rate).abs() / rate < 0.25,
            "offered {rate}, carried {}",
            open.throughput_tps
        );
        assert!(open.p95_latency_ms.is_finite());
    }

    #[test]
    fn zipfian_contention_registers_lock_waits() {
        // Extreme skew on a small hot set must produce lock conflicts.
        let mut spec = test_spec();
        spec.txns[1].ops =
            vec![OpTemplate::PointUpdate { table: 0, dist: KeyDist::HotRange(0.0001) }];
        let cat = postgres_v9_6();
        let cfg = cat.default_config();
        let r = run_workload(&cat.assignment(&cfg), &cat, &spec, &quick_opts(9));
        let idx =
            crate::metrics::METRIC_NAMES.iter().position(|n| *n == "lock_waits_per_s").unwrap();
        assert!(r.metrics[idx] > 0.0, "hot updates should conflict");
    }

    #[test]
    fn metrics_vector_is_finite() {
        let r = run_with(&[], 11);
        assert!(r.metrics.iter().all(|m| m.is_finite()), "{:?}", r.metrics);
    }

    #[test]
    fn disabling_autovacuum_leaves_dead_tuples() {
        // Make vacuum eager enough to trigger within the short test window.
        let on = run_with(
            &[
                ("autovacuum_naptime", KnobValue::Int(1)),
                ("autovacuum_vacuum_threshold", KnobValue::Int(10)),
                ("autovacuum_vacuum_scale_factor", KnobValue::Float(0.0)),
            ],
            12,
        );
        let off = run_with(&[("autovacuum", KnobValue::Cat(0))], 12);
        let idx = crate::metrics::METRIC_NAMES.iter().position(|n| *n == "vacuum_runs").unwrap();
        assert_eq!(off.metrics[idx], 0.0);
        assert!(on.metrics[idx] >= 1.0, "naptime=1s (scaled) should vacuum");
    }
}
