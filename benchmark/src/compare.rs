//! `compare`: two result sets, one verdict per workload and end-to-end
//! metric.
//!
//! A result set is what `collect.sh` writes: JSON lines of
//! `{"workload": .., "seed": .., "result": <a run's last line>}`, at
//! least three runs per workload. Side A is the base of every ratio.

use crate::run::END_TO_END;
use crate::stats::quartiles;
use llamatune_obs::json::{self, JsonValue};
use std::collections::BTreeMap;

/// How an end-to-end metric is judged: which way is better and how far
/// it may worsen, as a share of the base's median, before that counts
/// as a regression. Mirrors `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub higher_is_better: bool,
    pub bound: f64,
    /// A worsening smaller than this in the metric's own unit is never a
    /// regression, whatever its share.
    pub absolute_floor: f64,
}

/// The rule of each end-to-end metric.
pub fn rule(metric: &str) -> Rule {
    let (higher_is_better, bound, absolute_floor) = match metric {
        "setup_s" => (false, 0.25, 0.05),
        "trials_per_s" => (true, 0.25, 0.0),
        "trial_overhead_us_p50" => (false, 0.25, 0.0),
        "best_improvement_pct" => (true, 0.10, 0.0),
        "peak_rss_mb" => (false, 0.25, 0.0),
        other => panic!("no rule for end-to-end metric {other:?}"),
    };
    Rule { higher_is_better, bound, absolute_floor }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side spread wider than the bound: the medians
    /// cannot tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// First quartile, median, third quartile and their distance as a share
/// of the median.
fn spread(values: &[f64]) -> ([f64; 3], f64) {
    let q = quartiles(values).expect("result sets hold at least three runs per workload");
    (q, if q[1] == 0.0 { 0.0 } else { (q[2] - q[0]) / q[1].abs() })
}

/// Judges side B against side A.
pub fn verdict(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    let ((qa, spread_a), (qb, spread_b)) = (spread(a), spread(b));
    // Positive when B is worse, in the metric's unit.
    let worsening = if rule.higher_is_better { qa[1] - qb[1] } else { qb[1] - qa[1] };
    let share = if qa[1] == 0.0 { 0.0 } else { worsening / qa[1].abs() };
    if spread_a.max(spread_b) > rule.bound {
        let better = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
        let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
        return if all_better { Verdict::Better } else { Verdict::Unresolved };
    }
    if share > rule.bound && worsening > rule.absolute_floor {
        Verdict::Worse
    } else if share < -rule.bound && -worsening > rule.absolute_floor {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `workload → metric → values`, plus failed operations per workload.
#[derive(Debug, Default)]
struct ResultSet {
    metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, u64>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet::default();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = |what: &str| format!("{path}:{}: {what}", n + 1);
        let doc = json::parse(line).map_err(|e| at(&e))?;
        let workload =
            doc.get("workload").and_then(JsonValue::as_str).ok_or_else(|| at("no workload"))?;
        let result = doc.get("result").ok_or_else(|| at("no result"))?;
        let failed =
            result.get("failed").and_then(JsonValue::as_u64).ok_or_else(|| at("no failed"))?;
        *set.failed.entry(workload.to_string()).or_default() += failed;
        let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
            return Err(at("no metrics"));
        };
        let by_metric = set.metrics.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(JsonValue::as_f64).ok_or_else(|| at("no value"))?;
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// Prints the comparison; `Ok(true)` when no pairing reads `worse` or
/// `unresolved` and neither side failed an operation.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut clean = true;
    println!("A = {path_a} (base of every ratio)\nB = {path_b}");
    for (workload, metrics_a) in &a.metrics {
        let metrics_b =
            b.metrics.get(workload).ok_or_else(|| format!("B has no runs of {workload}"))?;
        println!("\n{workload}");
        for (name, unit) in END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(*name), metrics_b.get(*name)) else {
                return Err(format!("{workload}: {name} is missing from a result set"));
            };
            if va.len().min(vb.len()) < 3 {
                return Err(format!("{workload}: fewer than three runs in a result set"));
            }
            let ((qa, spread_a), (qb, spread_b)) = (spread(va), spread(vb));
            let v = verdict(va, vb, rule(name));
            clean &= matches!(v, Verdict::Better | Verdict::Same);
            println!(
                "  {name:<24} A {:.4} [{:.4}, {:.4}] ±{:.1}%   B {:.4} [{:.4}, {:.4}] ±{:.1}%   \
                 B/A {:.4} of {:.4} {unit}   bound {:.0}%   {}",
                qa[1],
                qa[0],
                qa[2],
                spread_a * 100.0,
                qb[1],
                qb[0],
                qb[2],
                spread_b * 100.0,
                qb[1] / qa[1],
                qa[1],
                rule(name).bound * 100.0,
                v.as_str(),
            );
        }
        let (fa, fb) = (a.failed[workload], b.failed.get(workload).copied().unwrap_or(0));
        println!("  {:<24} A {fa}   B {fb}   (failed operations; must be 0)", "failed_share");
        clean &= fa == 0 && fb == 0;
    }
    println!("\n{}", if clean { "no regression, nothing unresolved" } else { "NOT CLEAN" });
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule { higher_is_better: false, bound: 0.10, absolute_floor: 0.0 };
    const HIGHER: Rule = Rule { higher_is_better: true, bound: 0.10, absolute_floor: 0.0 };

    #[test]
    fn tight_runs_within_the_bound_are_the_same() {
        assert_eq!(verdict(&[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0], LOWER), Verdict::Same);
    }

    #[test]
    fn a_move_past_the_bound_is_worse_or_better_by_direction() {
        let (a, b) = ([100.0, 101.0, 99.0], [120.0, 121.0, 119.0]);
        assert_eq!(verdict(&a, &b, LOWER), Verdict::Worse);
        assert_eq!(verdict(&a, &b, HIGHER), Verdict::Better);
        assert_eq!(verdict(&b, &a, LOWER), Verdict::Better);
        assert_eq!(verdict(&b, &a, HIGHER), Verdict::Worse);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_never_same() {
        let noisy = [80.0, 100.0, 125.0];
        assert_eq!(verdict(&noisy, &[100.0, 100.5, 99.5], LOWER), Verdict::Unresolved);
        assert_eq!(verdict(&[100.0, 100.5, 99.5], &noisy, LOWER), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        assert_eq!(verdict(&noisy, &[50.0, 60.0, 70.0], LOWER), Verdict::Better);
    }

    #[test]
    fn a_small_absolute_change_in_set_up_time_is_not_a_regression() {
        let r = rule("setup_s");
        assert_eq!(verdict(&[0.10, 0.10, 0.10], &[0.14, 0.14, 0.14], r), Verdict::Same);
        assert_eq!(verdict(&[1.0, 1.0, 1.0], &[1.4, 1.4, 1.4], r), Verdict::Worse);
    }
}
