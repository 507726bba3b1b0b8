//! Declarative workload description consumed by the engine: table shapes,
//! transaction templates built from logical operations, and the arrival
//! process. The concrete OLTP suites (YCSB, TPC-C, SEATS, Twitter,
//! ResourceStresser) are constructed in `llamatune-workloads`.

/// How keys are selected within a table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// YCSB-style Zipfian over all rows with the given theta (hot keys
    /// scattered by hashing).
    Zipfian(f64),
    /// Uniform over all rows.
    Uniform,
    /// Uniform over the first `fraction` of rows (a fixed hot set, e.g. the
    /// warehouse rows of TPC-C or ResourceStresser's contended table).
    HotRange(f64),
}

/// A table participating in the workload.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name (for reports).
    pub name: &'static str,
    /// Number of rows.
    pub rows: u64,
    /// Bytes per row (determines pages).
    pub row_bytes: u32,
    /// Number of columns (reported in Table 4).
    pub columns: u32,
}

impl TableSpec {
    /// Rows per 8 kB page (fill factor ~90%).
    pub(crate) fn rows_per_page(&self) -> u64 {
        ((8 * 1024 * 9 / 10) / self.row_bytes as u64).max(1)
    }

    /// Heap pages when fully packed.
    pub(crate) fn base_pages(&self) -> u64 {
        self.rows.div_ceil(self.rows_per_page()).max(1)
    }

    /// Pages of the table's primary index (roughly 2% of the heap, at least
    /// one page).
    pub(crate) fn index_pages(&self) -> u64 {
        (self.base_pages() / 50).max(1)
    }

    /// Total bytes on disk (heap + index).
    pub(crate) fn bytes(&self) -> u64 {
        (self.base_pages() + self.index_pages()) * 8 * 1024
    }
}

/// One logical operation inside a transaction template.
#[derive(Debug, Clone)]
pub enum OpTemplate {
    /// Index point read of one row.
    PointRead { table: usize, dist: KeyDist },
    /// Index point update of one row (read + modify + WAL).
    PointUpdate { table: usize, dist: KeyDist },
    /// Append `rows` new rows.
    Insert { table: usize, rows: u32 },
    /// Range scan returning ~`rows` rows starting at a selected key; the
    /// planner picks the access path.
    RangeScan { table: usize, dist: KeyDist, rows: u32 },
    /// Multi-table join driven by ~`driving_rows` outer rows; plan quality
    /// depends on the join knobs and GEQO.
    Join { tables: u32, driving_rows: u32, dist: KeyDist, table: usize },
    /// Pure computation (ResourceStresser's CPU transactions).
    Compute { us: u32 },
}

/// A weighted transaction template.
#[derive(Debug, Clone)]
pub struct TxnTemplate {
    pub name: &'static str,
    /// Relative weight in the mix (normalized by the engine).
    pub weight: f64,
    pub ops: Vec<OpTemplate>,
    /// Read-only transactions skip WAL and commit flushes.
    pub read_only: bool,
}

/// Arrival process for transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Closed loop: each of the configured clients immediately issues the
    /// next transaction when the previous one finishes (throughput mode).
    Closed,
    /// Open loop: transactions arrive at a fixed Poisson `rate_tps`,
    /// queueing for a free client (tail-latency mode, Section 6.2).
    Open { rate_tps: f64 },
}

/// A complete workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub tables: Vec<TableSpec>,
    pub txns: Vec<TxnTemplate>,
    /// Baseline CPU microseconds per transaction (parse/plan/protocol).
    pub base_cpu_us: f64,
}

impl WorkloadSpec {
    /// Database size in bytes (Section 6.1 sizes all databases to ~20 GB).
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(TableSpec::bytes).sum()
    }

    /// Fraction of the mix that is read-only (Table 4's "RO Txns").
    pub fn read_only_fraction(&self) -> f64 {
        let total: f64 = self.txns.iter().map(|t| t.weight).sum();
        let ro: f64 = self.txns.iter().filter(|t| t.read_only).map(|t| t.weight).sum();
        if total == 0.0 {
            0.0
        } else {
            ro / total
        }
    }

    /// Validates table indices inside templates.
    pub fn validate(&self) -> Result<(), String> {
        if self.txns.is_empty() {
            return Err("workload has no transactions".into());
        }
        if self.txns.iter().all(|t| t.weight <= 0.0) {
            return Err("all transaction weights are zero".into());
        }
        for t in &self.txns {
            for op in &t.ops {
                let table = match op {
                    OpTemplate::PointRead { table, .. }
                    | OpTemplate::PointUpdate { table, .. }
                    | OpTemplate::Insert { table, .. }
                    | OpTemplate::RangeScan { table, .. }
                    | OpTemplate::Join { table, .. } => Some(*table),
                    OpTemplate::Compute { .. } => None,
                };
                if let Some(idx) = table {
                    if idx >= self.tables.len() {
                        return Err(format!("txn {} references unknown table {idx}", t.name));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny",
            tables: vec![TableSpec { name: "t", rows: 1_000, row_bytes: 100, columns: 3 }],
            txns: vec![
                TxnTemplate {
                    name: "read",
                    weight: 0.75,
                    ops: vec![OpTemplate::PointRead { table: 0, dist: KeyDist::Uniform }],
                    read_only: true,
                },
                TxnTemplate {
                    name: "write",
                    weight: 0.25,
                    ops: vec![OpTemplate::PointUpdate { table: 0, dist: KeyDist::Uniform }],
                    read_only: false,
                },
            ],
            base_cpu_us: 30.0,
        }
    }

    #[test]
    fn rows_per_page_and_pages() {
        let t = TableSpec { name: "t", rows: 1_000, row_bytes: 1_000, columns: 11 };
        assert_eq!(t.rows_per_page(), 7); // 7372 usable / 1000
        assert_eq!(t.base_pages(), 143);
        assert!(t.index_pages() >= 1);
        assert!(t.bytes() > 1_000 * 1_000);
    }

    #[test]
    fn read_only_fraction_weighted() {
        let spec = tiny_spec();
        assert!((spec.read_only_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_table_index() {
        let mut spec = tiny_spec();
        spec.txns[0].ops = vec![OpTemplate::PointRead { table: 9, dist: KeyDist::Uniform }];
        assert!(spec.validate().is_err());
        assert!(tiny_spec().validate().is_ok());
    }

    #[test]
    fn validation_rejects_empty_mix() {
        let mut spec = tiny_spec();
        spec.txns.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn wide_rows_still_fit_one_per_page() {
        let t = TableSpec { name: "wide", rows: 10, row_bytes: 60_000, columns: 2 };
        assert_eq!(t.rows_per_page(), 1);
        assert_eq!(t.base_pages(), 10);
    }
}
