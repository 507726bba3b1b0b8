//! Session diagnostics rebuilt from telemetry alone.
//!
//! [`build_report`] consumes parsed trace events (plus an optional
//! metrics snapshot) and reconstructs, without touching histories or
//! checkpoints: per-session best-so-far and regret curves from `trial`
//! spans, fault totals from the `policy.*` counters, per-phase latency
//! breakdowns from the `session.*_ms` histograms, and optimizer
//! hot-path timings from the `optim.*` histograms. [`render_report`]
//! prints it all through the shared [`crate::fmt`] renderer, in the
//! same shape the bench harness uses.

use crate::fmt;
use crate::metrics::MetricsSnapshot;
use crate::trace::TraceEvent;
use std::collections::BTreeMap;

/// Curves and totals of one session, rebuilt from its `trial` spans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionCurves {
    pub session: String,
    /// Penalized scores by iteration (index 0 = default config).
    pub scores: Vec<f64>,
    /// Best-so-far over iterations `1..=i` (index 0 tracks the default
    /// run, matching `SessionHistory::best_curve`).
    pub best_curve: Vec<f64>,
    /// `final_best - best_curve[i]`: distance to the session's best.
    pub regret: Vec<f64>,
    /// Trials whose status was not `ok`.
    pub failures: u64,
    /// Total evaluation attempts consumed.
    pub attempts: u64,
    /// Total virtual milliseconds of evaluation.
    pub virtual_ms: f64,
}

/// A full diagnostic: per-session curves plus the metrics snapshot the
/// telemetry shipped with.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    pub sessions: Vec<SessionCurves>,
    pub metrics: Option<MetricsSnapshot>,
}

/// Rebuilds a [`Report`] from parsed trace events and an optional
/// metrics snapshot. Returns an error when a session's `trial` spans do
/// not form a contiguous iteration range from 0 (a truncated or
/// corrupted trace).
pub fn build_report(
    events: &[TraceEvent],
    metrics: Option<MetricsSnapshot>,
) -> Result<Report, String> {
    let mut per_session: BTreeMap<String, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.span == "trial") {
        per_session.entry(e.session.clone()).or_default().push(e);
    }
    let mut sessions = Vec::new();
    for (session, mut trials) in per_session {
        trials.sort_by_key(|e| e.get_u64("iteration").unwrap_or(u64::MAX));
        let mut curves = SessionCurves { session: session.clone(), ..Default::default() };
        let mut best = f64::NEG_INFINITY;
        for (i, t) in trials.iter().enumerate() {
            let iter = t
                .get_u64("iteration")
                .ok_or_else(|| format!("session {session:?}: trial span without iteration"))?;
            if iter != i as u64 {
                return Err(format!(
                    "session {session:?}: trial iterations not contiguous (slot {i} holds {iter})"
                ));
            }
            let score = t
                .get_f64("score")
                .ok_or_else(|| format!("session {session:?}: trial {iter} without score"))?;
            curves.scores.push(score);
            if iter == 0 {
                curves.best_curve.push(score);
            } else {
                best = best.max(score);
                curves.best_curve.push(best);
            }
            if t.get_str("status").is_some_and(|s| s != "ok") {
                curves.failures += 1;
            }
            curves.attempts += t.get_u64("attempts").unwrap_or(1);
            curves.virtual_ms += t.get_f64("virtual_ms").unwrap_or(0.0);
        }
        let final_best = curves.best_curve.last().copied().unwrap_or(0.0);
        curves.regret = curves.best_curve.iter().map(|b| final_best - b).collect();
        sessions.push(curves);
    }
    Ok(Report { sessions, metrics })
}

/// Renders the report as text, through the shared table renderer.
pub fn render_report(report: &Report) -> String {
    let mut out = String::new();
    for s in &report.sessions {
        out.push_str(&fmt::header(
            &format!("Session diagnostic: {}", s.session),
            &format!(
                "{} trials, {} failures, {} attempts, {:.1} virtual ms evaluated",
                s.scores.len(),
                s.failures,
                s.attempts,
                s.virtual_ms
            ),
        ));
        let step = (s.best_curve.len() / 12).max(1);
        out.push_str(&fmt::curve_table(
            &["best-so-far", "regret"],
            &[s.best_curve.clone(), s.regret.clone()],
            step,
        ));
    }
    if let Some(m) = &report.metrics {
        let faults: Vec<Vec<String>> = [
            "policy.timeouts",
            "policy.retries",
            "policy.panics_caught",
            "policy.quarantine_hits",
            "policy.hedges",
            "cache.hits",
            "cache.misses",
            "optim.gp.append_fallback",
            "store.cas_retries",
        ]
        .iter()
        .map(|name| vec![name.to_string(), m.counter(name).to_string()])
        .collect();
        out.push_str(&fmt::header("Fault and cache totals", ""));
        out.push_str(&fmt::table(&["counter", "total"], &faults));

        let mut phase_rows = Vec::new();
        let mut hot_rows = Vec::new();
        for (name, h) in &m.hists {
            let row = vec![
                name.clone(),
                h.count().to_string(),
                h.mean().map_or("-".to_string(), |v| format!("{v:.3}")),
                format!("{:.1}", h.sum),
            ];
            if name.starts_with("optim.") {
                hot_rows.push(row);
            } else if name.starts_with("session.") {
                phase_rows.push(row);
            }
        }
        if !phase_rows.is_empty() {
            out.push_str(&fmt::header(
                "Per-phase latency (wall clock)",
                "suggest / evaluate / persist, per round or trial",
            ));
            out.push_str(&fmt::table(&["phase", "count", "mean ms", "total ms"], &phase_rows));
        }
        if !hot_rows.is_empty() {
            out.push_str(&fmt::header(
                "Optimizer hot-path timings (wall clock)",
                "Cholesky append, EI scoring, SMAC forest fit",
            ));
            out.push_str(&fmt::table(&["path", "count", "mean ms", "total ms"], &hot_rows));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::TraceEvent;

    fn trial(session: &str, iter: u64, score: f64, status: &str) -> TraceEvent {
        TraceEvent::new(session, "trial")
            .field("iteration", iter)
            .field("score", score)
            .field("status", status)
            .field("attempts", 1u64)
            .field("virtual_ms", 10.0)
    }

    #[test]
    fn best_and_regret_curves_match_fold_semantics() {
        let events = vec![
            trial("s", 0, 40.0, "ok"),
            trial("s", 1, 10.0, "crashed"),
            trial("s", 2, 50.0, "ok"),
            trial("s", 3, 30.0, "ok"),
        ];
        let report = build_report(&events, None).unwrap();
        let s = &report.sessions[0];
        // Iteration 0 is tracked but excluded from "best found by the
        // tuner": best_curve[1] is the first tuned trial's score.
        assert_eq!(s.best_curve, vec![40.0, 10.0, 50.0, 50.0]);
        assert_eq!(s.regret, vec![10.0, 40.0, 0.0, 0.0]);
        assert_eq!(s.failures, 1);
        assert_eq!(s.attempts, 4);
        assert_eq!(s.virtual_ms, 40.0);
    }

    #[test]
    fn non_contiguous_traces_are_rejected() {
        let events = vec![trial("s", 0, 1.0, "ok"), trial("s", 2, 2.0, "ok")];
        assert!(build_report(&events, None).is_err());
    }

    #[test]
    fn render_includes_curves_faults_and_hot_paths() {
        let m = MetricsRegistry::new();
        m.incr("policy.retries", 3);
        m.observe("session.suggest_ms", 1.5);
        m.observe("optim.gp.cholesky_append_ms", 0.2);
        let events = vec![trial("s", 0, 1.0, "ok"), trial("s", 1, 2.0, "ok")];
        let report = build_report(&events, Some(m.snapshot())).unwrap();
        let text = render_report(&report);
        assert!(text.contains("Session diagnostic: s"));
        assert!(text.contains("best-so-far"));
        assert!(text.contains("policy.retries"));
        assert!(text.contains("session.suggest_ms"));
        assert!(text.contains("optim.gp.cholesky_append_ms"));
    }
}
