//! Internal DBMS metrics: the 27 system-wide counters sampled by the DDPG
//! optimizer (Section 6.4) and reported alongside every run.

/// Names of the 27 metrics, in the order produced by
/// `MetricCounters::to_vector`.
pub const METRIC_NAMES: [&str; 27] = [
    "blks_hit",
    "blks_read",
    "os_cache_hits",
    "dirty_evictions",
    "bp_dirty_fraction",
    "wal_bytes_per_s",
    "wal_flushes_per_s",
    "wal_stalls_per_s",
    "group_commit_batch_avg",
    "fpw_pages_per_s",
    "checkpoints",
    "checkpoint_pages_per_s",
    "bgwriter_pages_per_s",
    "backend_flushes_per_s",
    "vacuum_runs",
    "vacuum_pages_per_s",
    "dead_tuple_ratio",
    "avg_bloat_factor",
    "lock_waits_per_s",
    "lock_wait_avg_us",
    "aborts_per_s",
    "commits_per_s",
    "cpu_utilization",
    "disk_utilization",
    "avg_read_latency_us",
    "txn_latency_p50_us",
    "active_clients",
];

/// Raw counters accumulated during a run.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricCounters {
    pub blks_hit: u64,
    pub blks_read: u64,
    pub os_cache_hits: u64,
    pub dirty_evictions: u64,
    pub bp_dirty_fraction: f64,
    pub wal_bytes: u64,
    pub wal_flushes: u64,
    pub wal_stalls: u64,
    pub group_commit_batch_avg: f64,
    pub fpw_pages: u64,
    pub checkpoints: u64,
    pub checkpoint_pages: u64,
    pub bgwriter_pages: u64,
    pub backend_flushes: u64,
    pub vacuum_runs: u64,
    pub vacuum_pages: u64,
    pub dead_tuple_ratio: f64,
    pub avg_bloat_factor: f64,
    pub lock_waits: u64,
    pub lock_wait_us: u64,
    pub aborts: u64,
    pub commits: u64,
    pub cpu_utilization: f64,
    pub disk_utilization: f64,
    pub read_latency_sum_us: f64,
    pub read_latency_count: u64,
    pub txn_latency_p50_us: f64,
    pub active_clients: u32,
}

impl MetricCounters {
    /// Normalizes the counters over `elapsed_s` virtual seconds into the
    /// 27-element vector matching [`METRIC_NAMES`].
    pub(crate) fn to_vector(&self, elapsed_s: f64) -> Vec<f64> {
        let dt = elapsed_s.max(1e-9);
        let per_s = |v: u64| v as f64 / dt;
        vec![
            per_s(self.blks_hit),
            per_s(self.blks_read),
            per_s(self.os_cache_hits),
            per_s(self.dirty_evictions),
            self.bp_dirty_fraction,
            per_s(self.wal_bytes),
            per_s(self.wal_flushes),
            per_s(self.wal_stalls),
            self.group_commit_batch_avg,
            per_s(self.fpw_pages),
            self.checkpoints as f64,
            per_s(self.checkpoint_pages),
            per_s(self.bgwriter_pages),
            per_s(self.backend_flushes),
            self.vacuum_runs as f64,
            per_s(self.vacuum_pages),
            self.dead_tuple_ratio,
            self.avg_bloat_factor,
            per_s(self.lock_waits),
            if self.lock_waits == 0 {
                0.0
            } else {
                self.lock_wait_us as f64 / self.lock_waits as f64
            },
            per_s(self.aborts),
            per_s(self.commits),
            self.cpu_utilization,
            self.disk_utilization,
            if self.read_latency_count == 0 {
                0.0
            } else {
                self.read_latency_sum_us / self.read_latency_count as f64
            },
            self.txn_latency_p50_us,
            f64::from(self.active_clients),
        ]
    }
}

/// Compresses a 27-metric vector (`MetricCounters::to_vector`) into a
/// scale-free *workload fingerprint*: heavy-tailed rate metrics are
/// log-compressed (`sign(m) · ln(1 + |m|)`, which leaves small ratio
/// metrics essentially untouched) and the result is L2-normalized, so
/// two fingerprints compare by direction (cosine) rather than by the
/// absolute throughput of the machine that produced them. This is the
/// metric-snapshot export behind warm-start transfer: a probe run's
/// fingerprint identifies "workloads that stress the DBMS the same
/// way", the similarity notion under which past tuning knowledge
/// transfers.
pub fn fingerprint_features(metrics: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = metrics.iter().map(|&m| m.signum() * m.abs().ln_1p()).collect();
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_matches_names() {
        let v = MetricCounters::default().to_vector(1.0);
        assert_eq!(v.len(), METRIC_NAMES.len());
        assert_eq!(v.len(), 27, "the paper samples 27 system-wide metrics");
    }

    #[test]
    fn rates_are_normalized_by_duration() {
        let c = MetricCounters { commits: 100, ..Default::default() };
        let v1 = c.to_vector(1.0);
        let v2 = c.to_vector(2.0);
        let idx = METRIC_NAMES.iter().position(|n| *n == "commits_per_s").unwrap();
        assert_eq!(v1[idx], 100.0);
        assert_eq!(v2[idx], 50.0);
    }

    #[test]
    fn averages_guard_division_by_zero() {
        let v = MetricCounters::default().to_vector(0.0);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn lock_wait_average() {
        let c = MetricCounters { lock_waits: 4, lock_wait_us: 2_000, ..Default::default() };
        let v = c.to_vector(1.0);
        let idx = METRIC_NAMES.iter().position(|n| *n == "lock_wait_avg_us").unwrap();
        assert_eq!(v[idx], 500.0);
    }

    #[test]
    fn fingerprint_is_unit_length_and_scale_free() {
        let c = MetricCounters { commits: 5_000, blks_hit: 900_000, ..Default::default() };
        let fp = fingerprint_features(&c.to_vector(1.0));
        assert_eq!(fp.len(), METRIC_NAMES.len());
        let norm: f64 = fp.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12, "L2-normalized: {norm}");
        // Doubling every rate (a 2x faster machine) barely moves the
        // fingerprint direction: cosine similarity stays near 1.
        let c2 = MetricCounters { commits: 10_000, blks_hit: 1_800_000, ..Default::default() };
        let fp2 = fingerprint_features(&c2.to_vector(1.0));
        let cos: f64 = fp.iter().zip(&fp2).map(|(a, b)| a * b).sum();
        assert!(cos > 0.999, "scale shift must not change the direction: {cos}");
    }

    #[test]
    fn fingerprint_of_zeros_is_zero_not_nan() {
        let fp = fingerprint_features(&vec![0.0; 27]);
        assert!(fp.iter().all(|x| *x == 0.0));
    }
}
