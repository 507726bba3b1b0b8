//! The bench side of the regression gate: turns a committed `BENCH_*.json`
//! baseline and a freshly generated artifact into the
//! [`Check`]s that `llamatune_obs::gate` judges.
//!
//! The gate walks both documents in parallel. Every number is one of
//! three things, told apart by its key:
//!
//! * a **latency** — the key ends in `_us` — becomes a [`Check`] with
//!   slack [`SLACK_US`];
//! * a **derived** figure — the key ends in `_ns`, is `speedup`, or reads
//!   `*_over_*` — is ignored: it moves with the latencies it derives from;
//! * every other number is **identity** (`n`, `d`, `reps`, `messages`,
//!   `bytes`, `committed`, …) and must be equal, or the two artifacts
//!   measure different work.
//!
//! Identity drift, reordered or renamed rows, a `quick`-mode artifact
//! against a full-mode baseline, missing keys and different row counts
//! are all errors — the comparison would be meaningless. Used by
//! `src/bin/bench_gate.rs`, which CI runs after regenerating the
//! artifacts (see `.github/workflows/ci.yml`, job `bench-gate`).

use llamatune_obs::gate::{Check, SLACK_US};
use llamatune_obs::json::JsonValue;

/// Whether a numeric key names a figure derived from the latencies.
fn derived(key: &str) -> bool {
    key.ends_with("_ns") || key == "speedup" || key.contains("_over_")
}

fn walk(
    path: &str,
    baseline: &JsonValue,
    current: &JsonValue,
    out: &mut Vec<Check>,
) -> Result<(), String> {
    match (baseline, current) {
        (JsonValue::Obj(base_members), JsonValue::Obj(_)) => {
            for (key, base_val) in base_members {
                let sub = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                let cur_val = current
                    .get(key)
                    .ok_or_else(|| format!("{sub}: present in baseline, missing in current"))?;
                walk(&sub, base_val, cur_val, out)?;
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
                walk(&format!("{path}[{i}]"), x, y, out)?;
            }
            Ok(())
        }
        (JsonValue::Num(a), JsonValue::Num(b)) => {
            let key = path.rsplit('.').next().unwrap_or(path);
            if key.ends_with("_us") {
                out.push(Check { name: path.to_string(), old: *a, new: *b, slack: SLACK_US });
            } else if !derived(key) && a != b {
                return Err(format!(
                    "{path}: baseline measured {a}, current measured {b} — different scales, not comparable"
                ));
            }
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

/// One check per `_us` latency, in document order. `Err` means the
/// artifacts are not comparable (shape or identity drift).
pub fn artifact_checks(baseline: &JsonValue, current: &JsonValue) -> Result<Vec<Check>, String> {
    let mut checks = Vec::new();
    walk("", baseline, current, &mut checks)?;
    if checks.is_empty() {
        return Err("no *_us measurements found — artifact shape changed?".to_string());
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamatune_obs::gate::render;
    use llamatune_obs::json::parse;

    const BASE: &str = r#"{
      "config": {"dims": 16, "quick": false, "reps": 9},
      "rows": [
        {"n": 50, "fast_us": 10.0, "slow_us": 1000.0, "speedup": 100.0, "per_op_ns": 5.0},
        {"n": 100, "fast_us": 20.0, "slow_us": 4000.0, "speedup": 200.0, "p99_over_p50": 2.0}
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

    fn flagged(current: &JsonValue) -> Vec<String> {
        let checks = artifact_checks(&base(), current).unwrap();
        checks.into_iter().filter(Check::regressed).map(|c| c.name).collect()
    }

    #[test]
    fn identical_artifacts_pass_with_all_checks_counted() {
        let checks = artifact_checks(&base(), &base()).unwrap();
        assert_eq!(checks.len(), 4, "two rows x two _us fields");
        assert!(flagged(&base()).is_empty());
        assert!(render("t", &checks).ends_with("4 checked, 0 regressed\n"));
    }

    #[test]
    fn a_real_slowdown_is_flagged_and_noise_is_not() {
        // slow_us doubles-plus: regression.
        let cur = with(|s| *s = s.replace("\"slow_us\": 4000.0", "\"slow_us\": 9000.0"));
        assert_eq!(flagged(&cur), ["rows[1].slow_us"]);
        assert!(render("t", &artifact_checks(&base(), &cur).unwrap()).contains("REGRESSION"));

        // fast_us triples but stays inside the absolute slack: noise.
        let cur = with(|s| *s = s.replace("\"fast_us\": 10.0", "\"fast_us\": 30.0"));
        assert!(flagged(&cur).is_empty());

        // Getting faster is a check that does not regress.
        let cur = with(|s| *s = s.replace("\"slow_us\": 4000.0", "\"slow_us\": 100.0"));
        assert!(flagged(&cur).is_empty());

        // Derived figures are ignored entirely.
        for (from, to) in [
            ("\"speedup\": 200.0", "\"speedup\": 1.0"),
            ("\"per_op_ns\": 5.0", "\"per_op_ns\": 50.0"),
            ("\"p99_over_p50\": 2.0", "\"p99_over_p50\": 9.0"),
        ] {
            let cur = with(|s| *s = s.replace(from, to));
            assert!(flagged(&cur).is_empty(), "{to}");
        }
    }

    #[test]
    fn identity_drift_is_an_error_not_a_pass() {
        // Different n: these are different measurements.
        let cur = with(|s| *s = s.replace("\"n\": 100", "\"n\": 200"));
        assert!(artifact_checks(&base(), &cur).unwrap_err().contains("different scales"));
        // Same n at another width (`forest_fit` rows are keyed d × n).
        let wide = |d: u32| {
            parse(&format!(r#"{{"forest_fit": [{{"d": {d}, "n": 50, "fit_us": 2000.0}}]}}"#))
                .unwrap()
        };
        assert!(artifact_checks(&wide(16), &wide(90)).unwrap_err().contains("forest_fit[0].d"));
        assert!(artifact_checks(&wide(16), &wide(16)).is_ok());
        // Quick-mode artifact vs full-mode baseline.
        let cur = with(|s| *s = s.replace("\"quick\": false", "\"quick\": true"));
        assert!(artifact_checks(&base(), &cur).is_err());
        // Dropped row.
        let cur = parse(
            r#"{"config": {"dims": 16, "quick": false, "reps": 9},
                "rows": [{"n": 50, "fast_us": 10.0, "slow_us": 1000.0, "speedup": 100.0}]}"#,
        )
        .unwrap();
        assert!(artifact_checks(&base(), &cur).unwrap_err().contains("rows"));
        // Missing key.
        let cur = with(|s| *s = s.replace("\"slow_us\"", "\"renamed_us\""));
        assert!(artifact_checks(&base(), &cur).unwrap_err().contains("missing in current"));
        // No latency fields at all.
        let none = parse(r#"{"a": 1}"#).unwrap();
        assert!(artifact_checks(&none, &none).is_err());
    }

    /// Every number of the committed artifacts that is neither a latency
    /// nor derived from one names the work measured: changing any of
    /// them makes the artifacts incomparable.
    #[test]
    fn every_identity_number_of_the_committed_artifacts_is_checked() {
        let server = include_str!("../../../BENCH_server.json");
        let engine = include_str!("../../../BENCH_engine.json");
        for (text, from, to) in [
            (server, "\"messages\":100", "\"messages\":101"),
            (server, "\"batch\":4", "\"batch\":5"),
            (server, "\"bytes\":83,", "\"bytes\":84,"),
            (engine, "\"committed\":240939", "\"committed\":240940"),
            (engine, "\"crashed\":13", "\"crashed\":14"),
        ] {
            assert!(text.contains(from), "{from} is not in the committed artifact");
            let baseline = parse(text).unwrap();
            assert!(artifact_checks(&baseline, &baseline).is_ok());
            let edited = parse(&text.replacen(from, to, 1)).unwrap();
            let err = artifact_checks(&baseline, &edited).unwrap_err();
            assert!(err.contains("different scales"), "{to}: {err}");
        }
    }
}
