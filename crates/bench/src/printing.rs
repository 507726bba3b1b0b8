//! Text rendering of tables and figure series (the harness prints the
//! same rows the paper reports). Rendering itself lives in
//! [`llamatune_obs::fmt`] so bench output and `llamatune-report`
//! session reports share one set of shapes; this module binds those
//! renderers to the harness's row types and to stdout.

use crate::exp::PairedRow;

/// Prints an experiment header banner.
pub fn print_header(title: &str, detail: &str) {
    print!("{}", llamatune_obs::fmt::header(title, detail));
}

/// One paired-comparison row in the style of Tables 5-9, as table cells:
/// the row's name, the baseline it is against, final improvement and its
/// CI, time-to-optimal speedup, catch-up iteration and the speedup's CI.
pub fn paired_cells(row: &PairedRow, baseline: &str) -> Vec<String> {
    let catch = match row.catch_up_iter {
        Some(i) => format!("[{i} iter]"),
        None => "[not reached]".to_string(),
    };
    vec![
        row.workload.clone(),
        baseline.to_string(),
        format!("{:.2}%", row.improvement.mean),
        format!("[{:.1}%, {:.1}%]", row.improvement.ci_lo, row.improvement.ci_hi),
        format!("{:.2}x", row.speedup.mean),
        catch,
        format!("[{:.1}x, {:.1}x]", row.speedup.ci_lo, row.speedup.ci_hi),
    ]
}

/// Prints best-so-far curves as an iteration-indexed table (one column per
/// labelled series), sampled every `step` iterations.
pub fn print_curve_table(labels: &[&str], curves: &[Vec<f64>], step: usize) {
    print!("{}", llamatune_obs::fmt::curve_table(labels, curves, step));
}

/// Prints a column-aligned table (first column left-aligned, the rest
/// right-aligned) — ad-hoc bench rows go through here instead of
/// hand-padded `println!` format strings.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", llamatune_obs::fmt::table(headers, rows));
}
