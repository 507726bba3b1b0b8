//! Dead-tuple accounting, table bloat, and autovacuum scheduling.
//!
//! Updates and deletes leave dead tuples behind; dead tuples inflate the
//! effective page count of a table (bloat), which raises buffer-pool
//! pressure. The autovacuum daemon wakes every `autovacuum_naptime`, picks
//! tables whose dead-tuple count exceeds
//! `threshold + scale_factor * live_tuples` (Section 19.10 of the docs), and
//! scans them at a rate paced by the vacuum cost knobs.

/// Maximum bloat multiplier: beyond this, HOT pruning and opportunistic
/// page-level cleanup hold the line even without vacuum.
pub(crate) const MAX_BLOAT: f64 = 3.0;

/// Per-table vacuum bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct TableVacState {
    /// Pages the table occupies when fully packed.
    pub base_pages: u64,
    /// Live tuples.
    pub live_tuples: u64,
    /// Dead tuples awaiting vacuum.
    pub dead_tuples: u64,
}

impl TableVacState {
    /// Creates state for a table with `rows` live tuples over `base_pages`.
    pub(crate) fn new(rows: u64, base_pages: u64) -> Self {
        TableVacState { base_pages, live_tuples: rows, dead_tuples: 0 }
    }

    /// Bloat multiplier in `[1, MAX_BLOAT]`.
    pub(crate) fn bloat(&self) -> f64 {
        if self.live_tuples == 0 {
            return 1.0;
        }
        (1.0 + self.dead_tuples as f64 / self.live_tuples as f64).min(MAX_BLOAT)
    }

    /// Pages the table effectively occupies, bloat included.
    pub(crate) fn effective_pages(&self) -> u64 {
        (self.base_pages as f64 * self.bloat()).ceil() as u64
    }

    /// Records an update (old version becomes dead).
    pub(crate) fn on_update(&mut self) {
        self.dead_tuples += 1;
    }

    /// Records `n` inserted tuples.
    pub(crate) fn on_insert(&mut self, n: u64) {
        self.live_tuples += n;
    }

    /// Whether autovacuum should process this table.
    pub(crate) fn needs_vacuum(&self, threshold: u64, scale_factor: f64) -> bool {
        self.dead_tuples as f64 > threshold as f64 + scale_factor * self.live_tuples as f64
    }

    /// Completes a vacuum: dead tuples are reclaimed.
    pub(crate) fn on_vacuumed(&mut self) {
        self.dead_tuples = 0;
    }
}

/// Cost-based pacing of one vacuum pass (the `vacuum_cost_*` knobs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct VacuumPacing {
    /// Cost units charged per buffer hit / miss / dirtied page.
    pub cost_page_hit: u64,
    pub cost_page_miss: u64,
    pub cost_page_dirty: u64,
    /// Accumulated cost that triggers a sleep.
    pub cost_limit: u64,
    /// Sleep duration in milliseconds (0 = unpaced).
    pub cost_delay_ms: u64,
}

/// Work summary for one table vacuum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VacuumWork {
    /// Pages scanned (reads).
    pub pages_scanned: u64,
    /// Pages rewritten (dirtied).
    pub pages_dirtied: u64,
    /// Wall-clock duration of the pass in microseconds, pacing included.
    pub duration_us: u64,
}

impl VacuumPacing {
    /// Plans the work for vacuuming a table in `state`, assuming `hit_rate`
    /// of its pages are in shared buffers and a per-page scan cost of
    /// `page_scan_us` microseconds of raw I/O + CPU.
    pub(crate) fn plan(
        &self,
        state: &TableVacState,
        hit_rate: f64,
        page_scan_us: f64,
    ) -> VacuumWork {
        let pages = state.effective_pages();
        // Pages holding dead tuples get dirtied; approximate by the dead
        // fraction of the table, at least one page per 50 dead tuples.
        let dirty_frac = if state.live_tuples == 0 {
            1.0
        } else {
            (state.dead_tuples as f64 / state.live_tuples as f64).min(1.0)
        };
        let pages_dirtied =
            ((pages as f64 * dirty_frac) as u64).min(pages).max(state.dead_tuples / 50);
        let hit_pages = (pages as f64 * hit_rate) as u64;
        let miss_pages = pages - hit_pages.min(pages);
        let cost = hit_pages * self.cost_page_hit
            + miss_pages * self.cost_page_miss
            + pages_dirtied * self.cost_page_dirty;
        let sleeps = if self.cost_delay_ms == 0 { 0 } else { cost / self.cost_limit.max(1) };
        let work_us = pages as f64 * page_scan_us;
        let sleep_us = sleeps * self.cost_delay_ms * 1_000;
        VacuumWork { pages_scanned: pages, pages_dirtied, duration_us: work_us as u64 + sleep_us }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_table_has_no_bloat() {
        let t = TableVacState::new(1_000, 100);
        assert_eq!(t.bloat(), 1.0);
        assert_eq!(t.effective_pages(), 100);
        assert!(!t.needs_vacuum(50, 0.2));
    }

    #[test]
    fn updates_accumulate_dead_tuples_and_bloat() {
        let mut t = TableVacState::new(1_000, 100);
        for _ in 0..500 {
            t.on_update();
        }
        assert_eq!(t.dead_tuples, 500);
        assert!((t.bloat() - 1.5).abs() < 1e-12);
        assert_eq!(t.effective_pages(), 150);
        assert!(t.needs_vacuum(50, 0.2), "500 > 50 + 0.2*1000");
    }

    #[test]
    fn bloat_is_capped() {
        let mut t = TableVacState::new(100, 10);
        for _ in 0..10_000 {
            t.on_update();
        }
        assert_eq!(t.bloat(), MAX_BLOAT);
        assert_eq!(t.effective_pages(), 30);
    }

    #[test]
    fn vacuum_reclaims() {
        let mut t = TableVacState::new(1_000, 100);
        for _ in 0..400 {
            t.on_update();
        }
        t.on_vacuumed();
        assert_eq!(t.dead_tuples, 0);
        assert_eq!(t.effective_pages(), 100);
    }

    #[test]
    fn threshold_formula_matches_docs() {
        let mut t = TableVacState::new(10_000, 1_000);
        for _ in 0..2_050 {
            t.on_update();
        }
        // threshold + scale * live = 50 + 0.2 * 10000 = 2050; the docs say
        // vacuum triggers when dead tuples *exceed* the threshold.
        assert!(!t.needs_vacuum(50, 0.2));
        t.on_update();
        assert!(t.needs_vacuum(50, 0.2));
    }

    #[test]
    fn pacing_slows_vacuum_down() {
        let t = {
            let mut t = TableVacState::new(10_000, 1_000);
            for _ in 0..5_000 {
                t.on_update();
            }
            t
        };
        let unpaced = VacuumPacing {
            cost_page_hit: 1,
            cost_page_miss: 10,
            cost_page_dirty: 20,
            cost_limit: 200,
            cost_delay_ms: 0,
        };
        let paced = VacuumPacing { cost_delay_ms: 20, ..unpaced };
        let w0 = unpaced.plan(&t, 0.5, 20.0);
        let w1 = paced.plan(&t, 0.5, 20.0);
        assert_eq!(w0.pages_scanned, w1.pages_scanned);
        assert!(w1.duration_us > w0.duration_us, "pacing adds sleeps");
        // Raising the limit shrinks the sleeps.
        let generous = VacuumPacing { cost_limit: 10_000, cost_delay_ms: 20, ..unpaced };
        let w2 = generous.plan(&t, 0.5, 20.0);
        assert!(w2.duration_us < w1.duration_us);
    }

    #[test]
    fn inserts_grow_live_count() {
        let mut t = TableVacState::new(100, 10);
        t.on_insert(50);
        assert_eq!(t.live_tuples, 150);
    }

    proptest! {
        #[test]
        fn bloat_bounded(updates in 0u64..100_000, rows in 1u64..100_000) {
            let mut t = TableVacState::new(rows, rows / 8 + 1);
            for _ in 0..updates.min(5_000) {
                t.on_update();
            }
            prop_assert!(t.bloat() >= 1.0);
            prop_assert!(t.bloat() <= MAX_BLOAT);
            prop_assert!(t.effective_pages() >= t.base_pages);
        }

        #[test]
        fn vacuum_duration_monotone_in_delay(delay in 0u64..100) {
            let mut t = TableVacState::new(10_000, 1_000);
            for _ in 0..3_000 {
                t.on_update();
            }
            let base = VacuumPacing {
                cost_page_hit: 1,
                cost_page_miss: 10,
                cost_page_dirty: 20,
                cost_limit: 200,
                cost_delay_ms: 0,
            };
            let with_delay = VacuumPacing { cost_delay_ms: delay, ..base };
            prop_assert!(
                with_delay.plan(&t, 0.5, 20.0).duration_us >= base.plan(&t, 0.5, 20.0).duration_us
            );
        }
    }
}
