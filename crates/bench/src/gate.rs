//! The bench-regression gate: compares a freshly generated `BENCH_*.json`
//! artifact against the committed baseline and flags latency regressions.
//!
//! The benches record latencies in fields ending in `_us`; everything
//! else in the artifacts is either *identity* (which measurement a row
//! is — `n`, `d`, `replay`, `backend`, `optimizer`, …) or *derived*
//! (`speedup` ratios). The gate walks both documents in parallel:
//!
//! * identity mismatches (different `n`, reordered rows, a `quick`-mode
//!   artifact compared against a full-mode baseline, missing keys,
//!   different row counts) are **errors** — the comparison would be
//!   meaningless;
//! * every `_us` pair is compared: a regression is `current >
//!   baseline * factor` **and** `current > baseline + ABS_SLACK_US` —
//!   the multiplicative threshold (default 2x, deliberately tolerant of
//!   shared-runner noise) catches real slowdowns, the absolute slack
//!   keeps micro-measurements (a 3 µs append that jitters to 8 µs)
//!   from crying wolf;
//! * derived ratios and unknown numeric fields are ignored.
//!
//! Artifacts are parsed by `llamatune_obs::json::parse`. Used by
//! `src/bin/bench_gate.rs`, which CI runs after regenerating the
//! artifacts (see `.github/workflows/ci.yml`, job `bench-gate`).

use llamatune_obs::json::JsonValue;
use std::fmt::Write as _;

/// Absolute slack on top of the multiplicative threshold: differences
/// smaller than this many microseconds are never regressions.
pub const ABS_SLACK_US: f64 = 25.0;

/// Numeric identity fields: a mismatch means the two artifacts measure
/// different things, not that one is slower.
const IDENTITY_NUM_KEYS: &[&str] = &[
    "n",
    "d",
    "q",
    "dims",
    "reps",
    "rounds",
    "replay",
    "writers",
    "records",
    "segment_records",
    "sessions",
];

/// One latency pair the gate compared.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyCheck {
    /// Dotted path of the field, e.g. `gp_observe[2].incremental_us`.
    pub path: String,
    pub baseline_us: f64,
    pub current_us: f64,
    /// Whether this pair trips the regression rule.
    pub regressed: bool,
}

/// The gate's verdict over two artifacts.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Every `_us` pair, in document order.
    pub checks: Vec<LatencyCheck>,
}

impl Comparison {
    /// The checks that regressed.
    pub fn regressions(&self) -> Vec<&LatencyCheck> {
        self.checks.iter().filter(|c| c.regressed).collect()
    }

    /// Human-readable report table.
    pub fn report(&self, factor: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>12} {:>8}",
            "measurement", "baseline", "current", "ratio"
        );
        for c in &self.checks {
            let ratio =
                if c.baseline_us > 0.0 { c.current_us / c.baseline_us } else { f64::INFINITY };
            let _ = writeln!(
                out,
                "{:<44} {:>10.1}us {:>10.1}us {:>7.2}x{}",
                c.path,
                c.baseline_us,
                c.current_us,
                ratio,
                if c.regressed { "  << REGRESSION" } else { "" }
            );
        }
        let n_reg = self.regressions().len();
        let _ = writeln!(
            out,
            "{} measurements checked, {} regression{} (threshold {factor}x + {ABS_SLACK_US}us slack)",
            self.checks.len(),
            n_reg,
            if n_reg == 1 { "" } else { "s" },
        );
        out
    }
}

fn walk(
    path: &str,
    baseline: &JsonValue,
    current: &JsonValue,
    factor: f64,
    out: &mut Comparison,
) -> Result<(), String> {
    match (baseline, current) {
        (JsonValue::Obj(base_members), JsonValue::Obj(_)) => {
            for (key, base_val) in base_members {
                let sub = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                let cur_val = current
                    .get(key)
                    .ok_or_else(|| format!("{sub}: present in baseline, missing in current"))?;
                walk(&sub, base_val, cur_val, factor, out)?;
            }
            Ok(())
        }
        (JsonValue::Arr(a), JsonValue::Arr(b)) => {
            if a.len() != b.len() {
                return Err(format!(
                    "{path}: {} baseline rows vs {} current rows",
                    a.len(),
                    b.len()
                ));
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                walk(&format!("{path}[{i}]"), x, y, factor, out)?;
            }
            Ok(())
        }
        (JsonValue::Num(a), JsonValue::Num(b)) => {
            let key = path.rsplit('.').next().unwrap_or(path);
            if key.ends_with("_us") {
                let regressed = *b > *a * factor && *b > *a + ABS_SLACK_US;
                out.checks.push(LatencyCheck {
                    path: path.to_string(),
                    baseline_us: *a,
                    current_us: *b,
                    regressed,
                });
            } else if IDENTITY_NUM_KEYS.contains(&key) && a != b {
                return Err(format!(
                    "{path}: baseline measured {a}, current measured {b} — different scales, not comparable"
                ));
            }
            // Other numerics (speedup ratios etc.) are derived: ignored.
            Ok(())
        }
        (JsonValue::Str(a), JsonValue::Str(b)) => {
            if a != b {
                return Err(format!(
                    "{path}: baseline row is {a:?}, current is {b:?} — rows reordered or renamed"
                ));
            }
            Ok(())
        }
        (JsonValue::Bool(a), JsonValue::Bool(b)) => {
            if a != b {
                return Err(format!(
                    "{path}: baseline {a} vs current {b} (quick-mode artifact compared against full-mode baseline?)"
                ));
            }
            Ok(())
        }
        (JsonValue::Null, JsonValue::Null) => Ok(()),
        _ => Err(format!("{path}: type mismatch between baseline and current")),
    }
}

/// Compares two artifacts. `Err` means the documents are not comparable
/// (shape/identity drift); `Ok` carries every latency check performed.
pub fn compare(
    baseline: &JsonValue,
    current: &JsonValue,
    factor: f64,
) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    walk("", baseline, current, factor, &mut out)?;
    if out.checks.is_empty() {
        return Err("no *_us measurements found — artifact shape changed?".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_obs::json::parse;

    const BASE: &str = r#"{
      "config": {"dims": 16, "quick": false, "reps": 9},
      "rows": [
        {"n": 50, "fast_us": 10.0, "slow_us": 1000.0, "speedup": 100.0},
        {"n": 100, "fast_us": 20.0, "slow_us": 4000.0, "speedup": 200.0}
      ]
    }"#;

    fn base() -> JsonValue {
        parse(BASE).unwrap()
    }

    fn with(f: impl Fn(&mut String)) -> JsonValue {
        let mut s = BASE.to_string();
        f(&mut s);
        parse(&s).unwrap()
    }

    #[test]
    fn identical_artifacts_pass_with_all_checks_counted() {
        let cmp = compare(&base(), &base(), 2.0).unwrap();
        assert_eq!(cmp.checks.len(), 4, "two rows x two _us fields");
        assert!(cmp.regressions().is_empty());
        assert!(cmp.report(2.0).contains("0 regressions"));
    }

    #[test]
    fn a_real_slowdown_is_flagged_and_noise_is_not() {
        // slow_us doubles-plus: regression.
        let cur = with(|s| *s = s.replace("\"slow_us\": 4000.0", "\"slow_us\": 9000.0"));
        let cmp = compare(&base(), &cur, 2.0).unwrap();
        let regs = cmp.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "rows[1].slow_us");
        assert!(cmp.report(2.0).contains("REGRESSION"));

        // fast_us triples but stays inside the absolute slack: noise.
        let cur = with(|s| *s = s.replace("\"fast_us\": 10.0", "\"fast_us\": 30.0"));
        assert!(compare(&base(), &cur, 2.0).unwrap().regressions().is_empty());

        // Getting faster is never a regression.
        let cur = with(|s| *s = s.replace("\"slow_us\": 4000.0", "\"slow_us\": 100.0"));
        assert!(compare(&base(), &cur, 2.0).unwrap().regressions().is_empty());

        // Derived ratios are ignored entirely.
        let cur = with(|s| *s = s.replace("\"speedup\": 200.0", "\"speedup\": 1.0"));
        assert!(compare(&base(), &cur, 2.0).unwrap().regressions().is_empty());
    }

    #[test]
    fn identity_drift_is_an_error_not_a_pass() {
        // Different n: these are different measurements.
        let cur = with(|s| *s = s.replace("\"n\": 100", "\"n\": 200"));
        assert!(compare(&base(), &cur, 2.0).unwrap_err().contains("different scales"));
        // Same n at another width (`forest_fit` rows are keyed d × n).
        let wide = |d: u32| {
            parse(&format!(r#"{{"forest_fit": [{{"d": {d}, "n": 50, "fit_us": 2000.0}}]}}"#))
                .unwrap()
        };
        assert!(compare(&wide(16), &wide(90), 2.0).unwrap_err().contains("forest_fit[0].d"));
        assert!(compare(&wide(16), &wide(16), 2.0).is_ok());
        // Same width at another replay-buffer size (`ddpg_observe` rows
        // are keyed d × replay).
        let buffered = |replay: u32| {
            let row = format!(r#"{{"d": 16, "replay": {replay}, "observe_us": 1800.0}}"#);
            parse(&format!(r#"{{"ddpg_observe": [{row}]}}"#)).unwrap()
        };
        let err = compare(&buffered(32), &buffered(100), 2.0).unwrap_err();
        assert!(err.contains("ddpg_observe[0].replay"), "{err}");
        assert!(compare(&buffered(32), &buffered(32), 2.0).is_ok());
        // Quick-mode artifact vs full-mode baseline.
        let cur = with(|s| *s = s.replace("\"quick\": false", "\"quick\": true"));
        assert!(compare(&base(), &cur, 2.0).is_err());
        // Dropped row.
        let cur = parse(
            r#"{"config": {"dims": 16, "quick": false, "reps": 9},
                "rows": [{"n": 50, "fast_us": 10.0, "slow_us": 1000.0, "speedup": 100.0}]}"#,
        )
        .unwrap();
        assert!(compare(&base(), &cur, 2.0).unwrap_err().contains("rows"));
        // Missing key.
        let cur = with(|s| *s = s.replace("\"slow_us\"", "\"renamed_us\""));
        assert!(compare(&base(), &cur, 2.0).unwrap_err().contains("missing in current"));
        // No latency fields at all.
        let none = parse(r#"{"a": 1}"#).unwrap();
        assert!(compare(&none, &none, 2.0).is_err());
    }

    #[test]
    fn the_factor_is_configurable() {
        let cur = with(|s| *s = s.replace("\"slow_us\": 4000.0", "\"slow_us\": 7000.0"));
        assert!(compare(&base(), &cur, 2.0).unwrap().regressions().is_empty(), "1.75x < 2x");
        assert_eq!(compare(&base(), &cur, 1.5).unwrap().regressions().len(), 1, "1.75x > 1.5x");
    }
}
