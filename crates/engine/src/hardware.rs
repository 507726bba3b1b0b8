//! The simulated hardware: a CloudLab c220g5-like node (Section 6.1).
//!
//! 10-core Xeon Silver 4114, 16 GB RAM, 480 GB SATA SSD. The DBMS is pinned
//! to one socket; workload clients and the optimizer run elsewhere, so the
//! full CPU budget belongs to the server.

/// Static hardware parameters of the simulated node.
#[derive(Debug, Clone)]
pub struct HardwareProfile {
    /// CPU cores available to the DBMS.
    pub cores: u32,
    /// Physical memory in bytes.
    pub ram_bytes: u64,
    /// Memory reserved for OS + client tooling, unavailable to the DBMS.
    pub os_reserved_bytes: u64,
    /// Random 8 kB page read from the SSD, microseconds.
    pub disk_random_read_us: f64,
    /// Sequential 8 kB page read (readahead amortized), microseconds.
    pub disk_seq_read_us: f64,
    /// Buffered 8 kB page write, microseconds.
    pub disk_write_us: f64,
    /// Durable fsync of the WAL tail, microseconds (SATA SSD, no NVRAM).
    pub disk_fsync_us: f64,
    /// Microseconds per byte of WAL written during a flush (~330 MB/s).
    pub disk_write_us_per_byte: f64,
    /// Read of an 8 kB page that hits the OS page cache, microseconds.
    pub os_cache_read_us: f64,
}

impl Default for HardwareProfile {
    fn default() -> Self {
        HardwareProfile {
            cores: 10,
            ram_bytes: 16 * GIB,
            os_reserved_bytes: GIB,
            disk_random_read_us: 90.0,
            disk_seq_read_us: 14.0,
            disk_write_us: 55.0,
            disk_fsync_us: 280.0,
            os_cache_read_us: 6.0,
            disk_write_us_per_byte: 0.003,
        }
    }
}

const GIB: u64 = 1024 * 1024 * 1024;

impl HardwareProfile {
    /// Memory the DBMS may use before the OOM killer strikes.
    pub(crate) fn usable_memory_bytes(&self) -> u64 {
        self.ram_bytes - self.os_reserved_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_c220g5() {
        let hw = HardwareProfile::default();
        assert_eq!(hw.cores, 10);
        assert_eq!(hw.ram_bytes, 16 * GIB);
        assert_eq!(hw.usable_memory_bytes(), 15 * GIB);
        assert!(hw.disk_seq_read_us < hw.disk_random_read_us);
        assert!(hw.os_cache_read_us < hw.disk_seq_read_us);
        assert!(hw.disk_fsync_us > hw.disk_write_us);
    }
}
