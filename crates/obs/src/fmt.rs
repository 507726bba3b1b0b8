//! Text rendering shared by bench output and session reports: one
//! banner/table/curve renderer, so every harness prints the same shapes.
//! Every layer bench prints its `BENCH_*.json` tables through [`table`]
//! (`llamatune_bench::artifact`), headed by the artifact's keys.

/// Renders an experiment header banner (BENCH-compatible shape).
pub fn header(title: &str, detail: &str) -> String {
    let mut out = String::from("\n");
    out.push_str("================================================================\n");
    out.push_str(title);
    out.push('\n');
    if !detail.is_empty() {
        out.push_str(detail);
        out.push('\n');
    }
    out.push_str("================================================================\n");
    out
}

/// Renders a column-aligned table: the first column left-aligned,
/// the rest right-aligned, widths fitted to content. `headers` may be
/// empty to render bare rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len().max(rows.iter().map(Vec::len).max().unwrap_or(0));
    let mut widths = vec![0usize; cols];
    for (i, h) in headers.iter().enumerate() {
        widths[i] = widths[i].max(h.len());
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!("{cell:>w$}"));
            }
        }
        while line.ends_with(' ') {
            line.pop();
        }
        line.push('\n');
        line
    };
    let mut out = String::new();
    if !headers.is_empty() {
        out.push_str(&render_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>()));
    }
    for row in rows {
        out.push_str(&render_row(row));
    }
    out
}

/// Renders best-so-far curves as an iteration-indexed table (one column
/// per labelled series), sampled every `step` iterations and always
/// closing with the final iteration.
pub fn curve_table(labels: &[&str], curves: &[Vec<f64>], step: usize) -> String {
    assert_eq!(labels.len(), curves.len());
    let mut out = format!("{:>6}", "iter");
    for l in labels {
        out.push_str(&format!(" {l:>18}"));
    }
    out.push('\n');
    let len = curves.iter().map(Vec::len).max().unwrap_or(0);
    let emit = |i: usize, out: &mut String| {
        out.push_str(&format!("{i:>6}"));
        for c in curves {
            match c.get(i).or(c.last()) {
                Some(v) => out.push_str(&format!(" {v:>18.1}")),
                None => out.push_str(&format!(" {:>18}", "-")),
            }
        }
        out.push('\n');
    };
    let step = step.max(1);
    let mut i = 0;
    while i < len {
        emit(i, &mut out);
        i += step;
    }
    if len > 0 && (len - 1) % step != 0 {
        emit(len - 1, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let rows = vec![
            vec!["sequential".to_string(), "9.21s".to_string(), "1.00x".to_string()],
            vec!["parallel, 8".to_string(), "1.55s".to_string(), "5.94x".to_string()],
        ];
        let text = table(&["config", "time", "speedup"], &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // Right-aligned numeric columns line up on their last character.
        let end = |l: &str, pat: &str| l.find(pat).unwrap() + pat.len();
        assert_eq!(end(lines[1], "9.21s"), end(lines[2], "1.55s"));
        assert_eq!(end(lines[1], "1.00x"), end(lines[2], "5.94x"));
    }

    #[test]
    fn curve_table_samples_and_closes_with_last_iteration() {
        let text = curve_table(&["a"], &[vec![1.0, 2.0, 3.0, 4.0, 5.0]], 2);
        let iters: Vec<&str> =
            text.lines().skip(1).map(|l| l.split_whitespace().next().unwrap()).collect();
        assert_eq!(iters, vec!["0", "2", "4"]);
        let text = curve_table(&["a"], &[vec![1.0, 2.0, 3.0, 4.0]], 2);
        let iters: Vec<&str> =
            text.lines().skip(1).map(|l| l.split_whitespace().next().unwrap()).collect();
        assert_eq!(iters, vec!["0", "2", "3"], "closing row appended");
    }

    #[test]
    fn header_renders_banner() {
        let h = header("Title", "detail");
        assert!(h.contains("Title\ndetail\n"));
        assert!(header("Title", "").lines().filter(|l| l.contains("====")).count() == 2);
    }

    #[test]
    fn empty_inputs_render_without_panicking() {
        assert_eq!(table(&[], &[]), "");
        let headers_only = table(&["a", "b"], &[]);
        assert_eq!(headers_only.lines().count(), 1);
        // No series at all, and a labelled series with no points.
        let empty = curve_table(&[], &[], 5);
        assert_eq!(empty.lines().count(), 1, "header row only");
        let empty_series = curve_table(&["a"], &[vec![]], 5);
        assert_eq!(empty_series.lines().count(), 1, "no data rows for an empty series");
        assert_eq!(curve_table(&["a"], &[vec![]], 0).lines().count(), 1, "step 0 clamps to 1");
    }

    #[test]
    fn single_point_series_renders_one_closing_row() {
        let text = curve_table(&["a"], &[vec![7.0]], 5);
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].contains("7.0"));
    }

    #[test]
    fn constant_score_series_repeats_the_value() {
        let text = curve_table(&["flat"], &[vec![3.0; 6]], 2);
        for line in text.lines().skip(1) {
            assert!(line.ends_with("3.0"), "constant series row changed: {line}");
        }
    }

    #[test]
    fn non_finite_values_render_as_text_not_panics() {
        let text = curve_table(&["a"], &[vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0]], 1);
        assert!(text.contains("NaN"));
        assert!(text.contains("inf"));
        // Tables with NaN-bearing cells align like any other.
        let rows = vec![vec!["x".to_string(), format!("{}", f64::NAN)]];
        assert!(table(&["k", "v"], &rows).contains("NaN"));
    }

    #[test]
    fn ragged_series_pad_with_their_last_value() {
        let text = curve_table(&["long", "short"], &[vec![1.0, 2.0, 3.0], vec![9.0]], 1);
        let last = text.lines().last().unwrap();
        assert!(last.contains("3.0") && last.contains("9.0"), "short series held last value");
    }
}
