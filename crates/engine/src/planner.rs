//! Two-path query planner: chooses between index and sequential access
//! using the cost knobs, with estimation noise controlled by
//! `default_statistics_target`.
//!
//! The planner's *estimates* use the `*_cost` knobs; the *execution* always
//! charges real simulated resources. Misconfigured cost knobs therefore make
//! the planner pick genuinely slower plans — the same indirection real
//! PostgreSQL has.

use crate::knobs::DbmsKnobs;

/// The access path chosen for a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanChoice {
    /// B-tree index range scan: one random heap page per qualifying row.
    Index,
    /// Full sequential scan of the table.
    Seq,
    /// Bitmap scan: index first, then heap pages in physical order
    /// (modelled as sorted random reads at a discount).
    Bitmap,
}

/// Join algorithm selected for a multi-table query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinChoice {
    Hash,
    Merge,
    NestLoop,
}

/// Plans a range scan returning `est_rows` of `table_rows` rows from a table
/// of `table_pages` pages.
pub(crate) fn choose_scan(
    knobs: &DbmsKnobs,
    table_pages: u64,
    table_rows: u64,
    est_rows: u64,
) -> ScanChoice {
    let est_rows = est_rows.max(1) as f64;
    let pages = table_pages.max(1) as f64;
    let rows = table_rows.max(1) as f64;

    let index_cost = est_rows * (knobs.random_page_cost + knobs.cpu_index_tuple_cost)
        + est_rows * knobs.cpu_tuple_cost;
    let seq_cost = pages * knobs.seq_page_cost + rows * knobs.cpu_tuple_cost;
    let bitmap_cost = est_rows * (0.6 * knobs.random_page_cost + knobs.cpu_index_tuple_cost)
        + est_rows * knobs.cpu_tuple_cost
        + 30.0; // bitmap build overhead

    // PostgreSQL models `enable_* = off` as adding a huge constant, so a
    // disabled path can still be chosen when nothing else is possible.
    const DISABLED: f64 = 1.0e10;
    let mut best = (ScanChoice::Seq, seq_cost + if knobs.enable_seqscan { 0.0 } else { DISABLED });
    let index =
        (ScanChoice::Index, index_cost + if knobs.enable_indexscan { 0.0 } else { DISABLED });
    if index.1 < best.1 {
        best = index;
    }
    let bitmap =
        (ScanChoice::Bitmap, bitmap_cost + if knobs.enable_bitmapscan { 0.0 } else { DISABLED });
    if bitmap.1 < best.1 {
        best = bitmap;
    }
    best.0
}

/// Chooses a join algorithm; preference order depends on which strategies
/// are enabled. `large` joins favour hashing, small lookups favour nested
/// loops.
pub(crate) fn choose_join(knobs: &DbmsKnobs, driving_rows: u64) -> JoinChoice {
    let large = driving_rows > 64;
    if large {
        if knobs.enable_hashjoin {
            JoinChoice::Hash
        } else if knobs.enable_mergejoin {
            JoinChoice::Merge
        } else {
            JoinChoice::NestLoop
        }
    } else if knobs.enable_nestloop {
        JoinChoice::NestLoop
    } else if knobs.enable_hashjoin {
        JoinChoice::Hash
    } else {
        JoinChoice::Merge
    }
}

/// Per-row execution multiplier of a join algorithm relative to the ideal
/// choice for the cardinality.
pub(crate) fn join_cost_multiplier(choice: JoinChoice, driving_rows: u64) -> f64 {
    let large = driving_rows > 64;
    match (choice, large) {
        (JoinChoice::Hash, true) => 1.0,
        (JoinChoice::Merge, true) => 1.35,
        (JoinChoice::NestLoop, true) => 2.6,
        (JoinChoice::NestLoop, false) => 1.0,
        (JoinChoice::Hash, false) => 1.4,
        (JoinChoice::Merge, false) => 1.7,
    }
}

/// Multiplicative row-estimation error for one query.
///
/// `default_statistics_target` controls estimate fidelity: at the default
/// (100) errors are within ~±35%; tiny targets produce order-of-magnitude
/// misestimates; large targets converge toward exact. `noise` must be a
/// uniform draw in `[0, 1)`.
pub(crate) fn estimation_error(stats_target: u64, noise: f64) -> f64 {
    let spread = 1.2 / (stats_target.max(1) as f64 / 100.0).sqrt();
    // Symmetric in log space: error in [exp(-spread/2), exp(+spread/2)].
    ((noise - 0.5) * spread).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_space::catalog::postgres_v9_6;
    use llamatune_space::KnobValue;

    fn default_knobs() -> DbmsKnobs {
        let cat = postgres_v9_6();
        DbmsKnobs::resolve(&cat.assignment(&cat.default_config()), &cat)
    }

    fn knobs_with(name: &str, v: KnobValue) -> DbmsKnobs {
        let cat = postgres_v9_6();
        let mut cfg = cat.default_config();
        cfg.values_mut()[cat.index_of(name).unwrap()] = v;
        DbmsKnobs::resolve(&cat.assignment(&cfg), &cat)
    }

    #[test]
    fn point_lookups_use_the_index() {
        let k = default_knobs();
        assert_eq!(choose_scan(&k, 100_000, 10_000_000, 1), ScanChoice::Index);
    }

    #[test]
    fn huge_selectivity_prefers_seqscan() {
        let k = default_knobs();
        // Fetching nearly all rows: sequential wins.
        assert_eq!(choose_scan(&k, 1_000, 100_000, 90_000), ScanChoice::Seq);
    }

    #[test]
    fn disabling_indexscan_falls_back() {
        let k = knobs_with("enable_indexscan", KnobValue::Cat(0));
        let choice = choose_scan(&k, 100_000, 10_000_000, 1);
        assert_ne!(choice, ScanChoice::Index);
    }

    #[test]
    fn all_paths_disabled_still_plans() {
        let cat = postgres_v9_6();
        let mut cfg = cat.default_config();
        for name in ["enable_indexscan", "enable_seqscan", "enable_bitmapscan"] {
            cfg.values_mut()[cat.index_of(name).unwrap()] = KnobValue::Cat(0);
        }
        let k = DbmsKnobs::resolve(&cat.assignment(&cfg), &cat);
        // Must still return something (PostgreSQL behaves the same way).
        let _ = choose_scan(&k, 1_000, 100_000, 10);
    }

    #[test]
    fn cheap_random_pages_shift_choices_toward_index() {
        // random_page_cost = seq_page_cost = 1 (SSD-appropriate): index
        // scans become attractive for larger row counts.
        let k = knobs_with("random_page_cost", KnobValue::Float(1.0));
        let d = default_knobs();
        let rows = 3_000;
        // Default (rpc=4) picks seq for this mid-selectivity scan...
        assert_eq!(choose_scan(&d, 3_000, 300_000, rows), ScanChoice::Seq);
        // ...while an SSD-tuned planner picks an index path.
        assert_ne!(choose_scan(&k, 3_000, 300_000, rows), ScanChoice::Seq);
    }

    #[test]
    fn join_choice_respects_enabled_algorithms() {
        let k = default_knobs();
        assert_eq!(choose_join(&k, 1_000), JoinChoice::Hash);
        assert_eq!(choose_join(&k, 4), JoinChoice::NestLoop);
        let no_hash = knobs_with("enable_hashjoin", KnobValue::Cat(0));
        assert_eq!(choose_join(&no_hash, 1_000), JoinChoice::Merge);
        let no_nest = knobs_with("enable_nestloop", KnobValue::Cat(0));
        assert_eq!(choose_join(&no_nest, 4), JoinChoice::Hash);
    }

    #[test]
    fn ideal_join_has_unit_cost() {
        assert_eq!(join_cost_multiplier(JoinChoice::Hash, 1_000), 1.0);
        assert_eq!(join_cost_multiplier(JoinChoice::NestLoop, 4), 1.0);
        assert!(join_cost_multiplier(JoinChoice::NestLoop, 1_000) > 2.0);
    }

    #[test]
    fn estimation_error_tightens_with_statistics() {
        // Worst-case draws at different targets.
        let coarse = estimation_error(1, 0.999);
        let default = estimation_error(100, 0.999);
        let fine = estimation_error(10_000, 0.999);
        assert!(coarse > default && default > fine);
        assert!(fine < 1.1, "10k target is nearly exact, got {fine}");
        // Median draw is unbiased.
        assert!((estimation_error(100, 0.5) - 1.0).abs() < 1e-12);
    }
}
