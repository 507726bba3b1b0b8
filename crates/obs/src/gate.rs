//! The regression rule, in one place: a measurement regressed when its
//! new value is more than [`FACTOR`] times the old one **and** more than
//! its slack above it. The ratio catches real slowdowns while tolerating
//! shared-runner noise; the absolute slack keeps micro-measurements (a
//! 3 µs append that jitters to 8 µs, a fault counter going 0 → 1) from
//! crying wolf.
//!
//! Both gates judge through it. `bench_gate` turns two `BENCH_*.json`
//! artifacts into [`Check`]s (`llamatune_bench::gate::artifact_checks`),
//! `llamatune-report diff` turns two stored telemetry sets into checks
//! ([`telemetry_checks`]), and both print [`render`]. Inputs that do not
//! measure the same work are not comparable: the producer returns `Err`
//! instead of checks, because a ratio over different work means nothing.
//! Both bins exit 0 when every check passed, 1 when one regressed and 2
//! when the inputs are not comparable or not readable.
//!
//! Two telemetry sets are comparable when they ran the same sessions for
//! the same number of trials, and they are checked on:
//!
//! * **phase latency** — the mean of every `*_ms` histogram both sets
//!   carry (`session.*_ms`, `optim.*_ms`), with slack [`SLACK_MS`];
//! * **fault counts** — every `policy.*` counter either set carries,
//!   with slack [`SLACK_COUNT`]. `store.cas_retries` is exempt: CAS races
//!   are scheduling contention, not behaviour.

use crate::aggregate::TelemetrySet;
use crate::fmt;
use crate::trace::TraceEvent;
use std::collections::{BTreeMap, BTreeSet};

/// A regression needs the new value above `old × FACTOR` …
pub const FACTOR: f64 = 2.0;
/// … and above `old + slack`: for bench latencies, in microseconds,
pub const SLACK_US: f64 = 25.0;
/// for phase-histogram means, in milliseconds,
pub const SLACK_MS: f64 = 0.25;
/// and for `policy.*` fault counts.
pub const SLACK_COUNT: f64 = 1.0;

/// One measurement compared between a baseline and a candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was measured: an artifact path (`wire[4].encode_us`) or a
    /// metric name (`session.evaluate_ms`).
    pub name: String,
    pub old: f64,
    pub new: f64,
    /// The absolute margin `new` may exceed `old` by before it counts.
    pub slack: f64,
}

impl Check {
    /// Whether this measurement trips the rule.
    pub fn regressed(&self) -> bool {
        self.new > self.old * FACTOR && self.new > self.old + self.slack
    }
}

/// Renders every check with its ratio (`∞` over a zero baseline), flags
/// the regressions and closes with a count line.
pub fn render(title: &str, checks: &[Check]) -> String {
    let mut out =
        fmt::header(title, &format!("a regression is new > {FACTOR}x old and new > old + slack"));
    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            let ratio =
                if c.old == 0.0 { "∞".to_string() } else { format!("{:.2}x", c.new / c.old) };
            vec![
                c.name.clone(),
                format!("{:.3}", c.old),
                format!("{:.3}", c.new),
                ratio,
                c.slack.to_string(),
                if c.regressed() { "REGRESSION" } else { "" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&fmt::table(&["measurement", "baseline", "candidate", "ratio", "slack"], &rows));
    let regressed = checks.iter().filter(|c| c.regressed()).count();
    out.push_str(&format!("{} checked, {regressed} regressed\n", checks.len()));
    out
}

/// Per-session trial counts — the identity two telemetry sets must share.
fn trial_shape(events: &[TraceEvent]) -> BTreeMap<&str, u64> {
    let mut shape = BTreeMap::new();
    for e in events.iter().filter(|e| e.span == "trial") {
        *shape.entry(e.session.as_str()).or_insert(0) += 1;
    }
    shape
}

/// The checks between a baseline telemetry set and a candidate, each
/// merged over its writers: phase-latency means, then fault counts.
/// Errors when the sets ran different sessions or different trial counts
/// (another workload, another config, or a truncated run).
pub fn telemetry_checks(old: &TelemetrySet, new: &TelemetrySet) -> Result<Vec<Check>, String> {
    let (old_events, new_events) = (old.merged_events(), new.merged_events());
    let (old_shape, new_shape) = (trial_shape(&old_events), trial_shape(&new_events));
    if old_shape != new_shape {
        let describe = |shape: &BTreeMap<&str, u64>| {
            shape.iter().map(|(s, n)| format!("{s}×{n}")).collect::<Vec<_>>().join(", ")
        };
        return Err(format!(
            "telemetry sets are not comparable: baseline ran [{}], candidate ran [{}]",
            describe(&old_shape),
            describe(&new_shape)
        ));
    }
    let (old, new) = (old.merged_metrics(), new.merged_metrics());
    let mut checks = Vec::new();
    for (name, new_h) in new.hists.iter().filter(|(name, _)| name.ends_with("_ms")) {
        if let Some((old_mean, new_mean)) =
            old.hists.get(name).and_then(|old_h| Some((old_h.mean()?, new_h.mean()?)))
        {
            checks.push(Check {
                name: name.clone(),
                old: old_mean,
                new: new_mean,
                slack: SLACK_MS,
            });
        }
    }
    let faults: BTreeSet<&String> = old
        .counters
        .keys()
        .chain(new.counters.keys())
        .filter(|n| n.starts_with("policy."))
        .collect();
    for name in faults {
        checks.push(Check {
            name: name.clone(),
            old: old.counter(name) as f64,
            new: new.counter(name) as f64,
            slack: SLACK_COUNT,
        });
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::WriterTelemetry;
    use crate::metrics::MetricsRegistry;

    fn set(trials: u64, evaluate_ms: f64, timeouts: u64) -> TelemetrySet {
        let m = MetricsRegistry::new();
        m.observe("session.evaluate_ms", evaluate_ms);
        if timeouts > 0 {
            m.incr("policy.timeouts", timeouts);
        }
        m.incr("store.cas_retries", 100 * timeouts);
        let events = (0..trials)
            .map(|i| TraceEvent::new("s", "trial").field("iteration", i).field("score", 1.0))
            .collect();
        TelemetrySet {
            writers: vec![WriterTelemetry { writer: "w0".into(), events, metrics: m.snapshot() }],
        }
    }

    fn flagged(old: &TelemetrySet, new: &TelemetrySet) -> Vec<String> {
        let checks = telemetry_checks(old, new).unwrap();
        checks.into_iter().filter(Check::regressed).map(|c| c.name).collect()
    }

    #[test]
    fn each_slack_bounds_the_rule_at_both_edges() {
        for slack in [SLACK_US, SLACK_MS, SLACK_COUNT] {
            let check =
                |old: f64, new: f64| Check { name: "m".into(), old, new, slack }.regressed();
            // Old small against the slack: `old + slack` is the binding edge.
            let old = slack / 4.0;
            assert!(!check(old, old + slack), "at old + {slack}");
            assert!(check(old, (old + slack) * 1.0001), "just above old + {slack}");
            // Old large against the slack: `2 × old` is the binding edge.
            let old = slack * 4.0;
            assert!(!check(old, old * FACTOR), "at 2 × old, slack {slack}");
            assert!(check(old, old * FACTOR * 1.0001), "just above 2 × old, slack {slack}");
        }
    }

    #[test]
    fn identical_sets_diff_clean() {
        let s = set(4, 5.0, 2);
        let checks = telemetry_checks(&s, &s).unwrap();
        let names: Vec<&str> = checks.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["session.evaluate_ms", "policy.timeouts"], "cas retries are exempt");
        assert!(!checks.iter().any(Check::regressed), "{checks:?}");
        assert!(render("t", &checks).ends_with("2 checked, 0 regressed\n"));
    }

    #[test]
    fn a_2x_phase_latency_breach_is_flagged() {
        let checks = telemetry_checks(&set(4, 5.0, 0), &set(4, 10.5, 0)).unwrap();
        assert_eq!(flagged(&set(4, 5.0, 0), &set(4, 10.5, 0)), ["session.evaluate_ms"]);
        let text = render("t", &checks);
        assert!(text.contains("session.evaluate_ms"), "{text}");
        assert!(text.contains("2.10x") && text.contains("REGRESSION"), "{text}");
        assert!(text.ends_with("1 checked, 1 regressed\n"), "{text}");
        // Exactly 2x is within the gate; the breach must exceed it.
        assert!(flagged(&set(4, 5.0, 0), &set(4, 10.0, 0)).is_empty());
    }

    #[test]
    fn near_zero_baselines_are_protected_by_absolute_slack() {
        // 0.01 → 0.05 ms is 5x but far below the 0.25 ms slack.
        assert!(flagged(&set(2, 0.01, 0), &set(2, 0.05, 0)).is_empty());
    }

    #[test]
    fn fault_count_regressions_gate_and_single_steps_do_not() {
        assert_eq!(flagged(&set(2, 1.0, 1), &set(2, 1.0, 3)), ["policy.timeouts"]);
        // 0 → 1 is a single new fault: above any ratio but within slack,
        // and its ratio renders as ∞.
        let checks = telemetry_checks(&set(2, 1.0, 0), &set(2, 1.0, 1)).unwrap();
        assert!(!checks.iter().any(Check::regressed), "{checks:?}");
        assert!(render("t", &checks).contains('∞'));
    }

    #[test]
    fn mismatched_session_shapes_are_incomparable() {
        let err = telemetry_checks(&set(4, 1.0, 0), &set(3, 1.0, 0)).unwrap_err();
        assert!(err.contains("not comparable"), "{err}");
        let mut other = set(4, 1.0, 0);
        for e in &mut other.writers[0].events {
            e.session = "t".into();
        }
        assert!(telemetry_checks(&set(4, 1.0, 0), &other).is_err());
    }

    #[test]
    fn improvements_are_checks_that_do_not_regress() {
        let checks = telemetry_checks(&set(2, 10.0, 4), &set(2, 1.0, 1)).unwrap();
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.new < c.old && !c.regressed()), "{checks:?}");
        assert!(!render("t", &checks).contains("REGRESSION"));
    }
}
