//! Write-ahead log: append accounting (with full-page-write amplification
//! and buffer-full stalls) and the group-commit flush pipeline that
//! `commit_delay`, `commit_siblings`, and `synchronous_commit` act on.

use crate::bufferpool::PageId;
use crate::hash::IntSet;
use crate::sim::Micros;

/// Outcome of appending WAL for one page modification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AppendOutcome {
    /// Bytes actually appended (record + any full-page image).
    pub bytes: u64,
    /// A full-page image was attached (first touch since checkpoint).
    pub full_page_image: bool,
    /// The WAL buffer overflowed: the backend must perform a synchronous
    /// buffer write before continuing.
    pub stalled: bool,
}

/// Outcome of a durable commit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CommitOutcome {
    /// Microseconds the committing backend waits for its flush.
    pub wait_us: u64,
    /// This commit started a new flush (charge the device); `false` means it
    /// rode an already-scheduled group flush for free.
    pub issued_flush: bool,
}

/// WAL bookkeeping for one run.
#[derive(Debug)]
pub(crate) struct WalState {
    buffers_bytes: u64,
    full_page_writes: bool,
    compression: bool,
    fsync_us: f64,

    /// Bytes appended since the last (any) flush.
    unflushed_bytes: u64,
    /// Bytes appended since the last checkpoint (drives max_wal_size).
    bytes_since_checkpoint: u64,
    /// Pages already carrying a full-page image this checkpoint cycle.
    fpw_done: IntSet<PageId>,

    // Group-commit epoch: the flush currently scheduled.
    epoch_flush_start: Micros,
    epoch_flush_end: Micros,

    // What `avg_batch_size` divides; every other count of a run is made
    // by the caller from the outcomes returned.
    pub flushes: u64,
    pub commits: u64,
}

/// Bytes of an ordinary WAL record for a row-level change.
pub(crate) const RECORD_BYTES: u64 = 180;
/// Bytes of a full-page image (page + header).
pub(crate) const FPI_BYTES: u64 = 8 * 1024 + 64;
/// Compression shrinks full-page images by roughly this factor.
pub(crate) const FPI_COMPRESSION_RATIO: f64 = 0.45;

impl WalState {
    /// Creates WAL state. `fsync_us` is the effective durable-flush cost
    /// (device fsync x `wal_sync_method` multiplier; ~0 when `fsync=off`).
    pub(crate) fn new(
        buffers_bytes: u64,
        full_page_writes: bool,
        compression: bool,
        fsync_us: f64,
    ) -> Self {
        WalState {
            buffers_bytes: buffers_bytes.max(64 * 1024),
            full_page_writes,
            compression,
            fsync_us,
            unflushed_bytes: 0,
            bytes_since_checkpoint: 0,
            fpw_done: IntSet::default(),
            epoch_flush_start: 0,
            epoch_flush_end: 0,
            flushes: 0,
            commits: 0,
        }
    }

    /// Appends a record for a modification of `page`.
    pub(crate) fn append(&mut self, page: PageId) -> AppendOutcome {
        let mut bytes = RECORD_BYTES;
        let mut fpi = false;
        if self.full_page_writes && self.fpw_done.insert(page) {
            fpi = true;
            let image = if self.compression {
                (FPI_BYTES as f64 * FPI_COMPRESSION_RATIO) as u64
            } else {
                FPI_BYTES
            };
            bytes += image;
        }
        self.bytes_since_checkpoint += bytes;
        self.unflushed_bytes += bytes;
        let stalled = self.unflushed_bytes > self.buffers_bytes;
        if stalled {
            // The backend writes the buffer out itself (not a durable
            // flush, just freeing buffer space).
            self.unflushed_bytes = 0;
        }
        AppendOutcome { bytes, full_page_image: fpi, stalled }
    }

    /// Durable commit through the group-commit pipeline.
    ///
    /// A commit arriving before the currently scheduled flush has *started*
    /// rides it for free; otherwise it schedules a new flush that begins
    /// after any configured `commit_delay` (when at least `commit_siblings`
    /// other transactions are in flight) and after the device finishes the
    /// previous flush.
    pub(crate) fn commit_durable(
        &mut self,
        now: Micros,
        commit_delay_us: Option<u64>,
        siblings_met: bool,
        device_flush_us: f64,
    ) -> CommitOutcome {
        self.commits += 1;
        if now <= self.epoch_flush_start {
            // Ride the scheduled group flush.
            return CommitOutcome { wait_us: self.epoch_flush_end - now, issued_flush: false };
        }
        let delay = match commit_delay_us {
            Some(d) if siblings_met => d,
            _ => 0,
        };
        let start = (now + delay).max(self.epoch_flush_end);
        let cost = (self.fsync_us + device_flush_us) as u64;
        self.epoch_flush_start = start;
        self.epoch_flush_end = start + cost;
        self.flushes += 1;
        self.unflushed_bytes = 0;
        CommitOutcome { wait_us: self.epoch_flush_end - now, issued_flush: true }
    }

    /// Asynchronous commit: returns immediately; WAL is left for the WAL
    /// writer daemon.
    pub(crate) fn commit_async(&mut self) {
        self.commits += 1;
    }

    /// Background flush by the WAL writer; returns flushed bytes (0 when
    /// there was nothing to do).
    pub(crate) fn background_flush(&mut self) -> u64 {
        let bytes = self.unflushed_bytes;
        if bytes > 0 {
            self.unflushed_bytes = 0;
            self.flushes += 1;
        }
        bytes
    }

    /// Unflushed bytes currently sitting in the WAL buffer.
    pub(crate) fn unflushed_bytes(&self) -> u64 {
        self.unflushed_bytes
    }

    /// WAL volume since the last checkpoint (compared against
    /// `max_wal_size`).
    pub(crate) fn bytes_since_checkpoint(&self) -> u64 {
        self.bytes_since_checkpoint
    }

    /// Called by the checkpointer: resets the full-page-write epoch.
    pub(crate) fn on_checkpoint(&mut self) {
        self.bytes_since_checkpoint = 0;
        self.fpw_done.clear();
    }

    /// Mean commits per flush (group-commit effectiveness).
    pub(crate) fn avg_batch_size(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.commits as f64 / self.flushes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::page_id;

    fn wal() -> WalState {
        WalState::new(512 * 1024, true, false, 900.0)
    }

    #[test]
    fn first_touch_attaches_full_page_image() {
        let mut w = wal();
        let a = w.append(page_id(0, 1));
        assert!(a.full_page_image);
        assert_eq!(a.bytes, RECORD_BYTES + FPI_BYTES);
        // Second touch of the same page: record only.
        let b = w.append(page_id(0, 1));
        assert!(!b.full_page_image);
        assert_eq!(b.bytes, RECORD_BYTES);
    }

    #[test]
    fn checkpoint_resets_fpw_epoch() {
        let mut w = wal();
        let first = w.append(page_id(0, 1));
        w.on_checkpoint();
        assert_eq!(w.bytes_since_checkpoint(), 0);
        let a = w.append(page_id(0, 1));
        assert!(a.full_page_image, "new checkpoint cycle re-images pages");
        assert_eq!([first, a].iter().filter(|o| o.full_page_image).count(), 2);
    }

    #[test]
    fn fpw_off_never_images() {
        let mut w = WalState::new(512 * 1024, false, false, 900.0);
        let a = w.append(page_id(0, 1));
        assert!(!a.full_page_image);
        assert_eq!(a.bytes, RECORD_BYTES);
    }

    #[test]
    fn compression_shrinks_images() {
        let mut plain = WalState::new(512 * 1024, true, false, 900.0);
        let mut compressed = WalState::new(512 * 1024, true, true, 900.0);
        let a = plain.append(page_id(0, 9));
        let b = compressed.append(page_id(0, 9));
        assert!(b.bytes < a.bytes);
    }

    #[test]
    fn small_buffer_stalls() {
        let mut w = WalState::new(64 * 1024, true, false, 900.0);
        let stalls = (0..20).filter(|&i| w.append(page_id(0, i)).stalled).count();
        assert!(stalls >= 1, "8 FPIs overflow a 64 kB buffer");
        assert_eq!(stalls, 2, "and the next 8 overflow it again");
    }

    #[test]
    fn solo_commit_pays_full_fsync() {
        let mut w = wal();
        let c = w.commit_durable(10_000, None, false, 0.0);
        assert!(c.issued_flush);
        assert_eq!(c.wait_us, 900);
    }

    #[test]
    fn natural_group_commit_under_load() {
        let mut w = wal();
        // A @ t=0 issues a flush ending at 900.
        let a = w.commit_durable(1, None, false, 0.0);
        assert!(a.issued_flush);
        // B @ t=300 schedules the next flush (starts when the device frees).
        let b = w.commit_durable(300, None, false, 0.0);
        assert!(b.issued_flush);
        assert_eq!(b.wait_us, 901 + 900 - 300);
        // C @ t=500 arrives before B's flush starts: rides it for free.
        let c = w.commit_durable(500, None, false, 0.0);
        assert!(!c.issued_flush);
        assert_eq!([a, b, c].iter().filter(|o| !o.issued_flush).count(), 1);
    }

    #[test]
    fn commit_delay_widens_the_batch_window() {
        let mut w = wal();
        // With a 5 ms delay, the flush starts at t=5001.
        let a = w.commit_durable(1, Some(5_000), true, 0.0);
        assert!(a.issued_flush);
        assert_eq!(a.wait_us, 5_000 + 900);
        // Anything arriving in the window batches.
        for t in [500, 1_500, 3_000, 4_999] {
            let c = w.commit_durable(t, Some(5_000), true, 0.0);
            assert!(!c.issued_flush, "commit at {t} should ride the batch");
        }
        assert_eq!(w.flushes, 1);
        assert_eq!(w.avg_batch_size(), 5.0);
    }

    #[test]
    fn commit_delay_ignored_without_siblings() {
        let mut w = wal();
        let a = w.commit_durable(1, Some(5_000), false, 0.0);
        assert_eq!(a.wait_us, 900);
    }

    #[test]
    fn async_commit_skips_flush() {
        let mut w = wal();
        w.append(page_id(0, 1));
        w.commit_async();
        assert_eq!(w.flushes, 0);
        assert!(w.unflushed_bytes() > 0);
        let flushed = w.background_flush();
        assert!(flushed > 0);
        assert_eq!(w.unflushed_bytes(), 0);
        assert_eq!(w.background_flush(), 0, "nothing left to flush");
    }
}
