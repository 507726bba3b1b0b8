//! Session diagnostics rebuilt from telemetry alone.
//!
//! [`build_report`] consumes parsed trace events (plus an optional
//! metrics snapshot) and reconstructs, without touching histories or
//! checkpoints: per-session best-so-far and regret curves from `trial`
//! spans, each round's virtual-clock cost from its `round` span and the
//! trials it covers, fault totals from the `policy.*` counters,
//! per-phase latency breakdowns from the `session.*_ms` histograms, and
//! optimizer hot-path timings from the `optim.*` histograms.
//! [`render_report`] prints it all through the shared [`crate::fmt`]
//! renderer, in the same shape the bench harness uses.
//!
//! A round's trials are evaluated in parallel, so its *makespan* — its
//! critical path — is its slowest trial's virtual milliseconds, while
//! its serial cost is their sum. Summed over a session, the ratio is the
//! parallelism the executor actually extracted, deterministic because
//! the virtual clock is.

use crate::fmt;
use crate::metrics::MetricsSnapshot;
use crate::trace::TraceEvent;
use std::collections::BTreeMap;

/// Curves and totals of one session, rebuilt from its `trial` and
/// `round` spans.
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
    /// Every `round` span's cost, in trace order.
    rounds: Vec<RoundCost>,
}

/// One round's virtual-clock cost over the trials of `[iteration, end)`.
#[derive(Debug, Clone, PartialEq, Default)]
struct RoundCost {
    iteration: u64,
    end: u64,
    /// Suggestion source: `default`, `lhs`, or `optimizer`.
    source: String,
    trials: u64,
    /// The slowest trial's virtual milliseconds.
    makespan_ms: f64,
    /// The sum over the round's trials.
    serial_ms: f64,
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
    let mut per_session: BTreeMap<&str, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        per_session.entry(e.session.as_str()).or_default().push(e);
    }
    let mut sessions = Vec::new();
    for (session, stream) in per_session {
        let mut trials: Vec<&TraceEvent> =
            stream.iter().copied().filter(|e| e.span == "trial").collect();
        if trials.is_empty() {
            continue;
        }
        trials.sort_by_key(|e| e.get_u64("iteration").unwrap_or(u64::MAX));
        let mut curves = SessionCurves {
            session: session.to_string(),
            rounds: round_costs(&stream),
            ..Default::default()
        };
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

/// Every `round` span of one session's stream (in sequence order) with
/// the trials it covers. A `trial` belongs to the latest round opened
/// since the last `session.end` whose `[iteration, iteration + size)`
/// holds its iteration; one no round covers — a replayed prefix —
/// counts in none.
fn round_costs(stream: &[&TraceEvent]) -> Vec<RoundCost> {
    let mut rounds: Vec<RoundCost> = Vec::new();
    let mut open = 0;
    for e in stream {
        match e.span.as_str() {
            "round" => {
                let iteration = e.get_u64("iteration").unwrap_or(0);
                let size = e.get_u64("size").unwrap_or(1).max(1);
                rounds.push(RoundCost {
                    iteration,
                    end: iteration.saturating_add(size),
                    source: e.get_str("source").unwrap_or("").to_string(),
                    ..Default::default()
                });
            }
            "session.end" => open = rounds.len(),
            "trial" => {
                let Some(it) = e.get_u64("iteration") else { continue };
                let covering =
                    rounds[open..].iter_mut().rev().find(|r| (r.iteration..r.end).contains(&it));
                if let Some(r) = covering {
                    let ms = e.get_f64("virtual_ms").unwrap_or(0.0);
                    r.trials += 1;
                    r.serial_ms += ms;
                    r.makespan_ms = r.makespan_ms.max(ms);
                }
            }
            _ => {}
        }
    }
    rounds
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
    for s in report.sessions.iter().filter(|s| !s.rounds.is_empty()) {
        let makespan: f64 = s.rounds.iter().map(|r| r.makespan_ms).sum();
        let serial: f64 = s.rounds.iter().map(|r| r.serial_ms).sum();
        let speedup =
            if makespan > 0.0 { format!("{:.2}", serial / makespan) } else { "-".to_string() };
        out.push_str(&fmt::header(
            &format!("Virtual-clock critical path: {}", s.session),
            &format!(
                "{} rounds; makespan {makespan:.1} ms vs serial {serial:.1} ms \
                 ({speedup}x parallel speedup)",
                s.rounds.len()
            ),
        ));
        let rows: Vec<Vec<String>> = s
            .rounds
            .iter()
            .map(|r| {
                vec![
                    r.iteration.to_string(),
                    r.source.clone(),
                    r.trials.to_string(),
                    format!("{:.1}", r.makespan_ms),
                    format!("{:.1}", r.serial_ms),
                ]
            })
            .collect();
        out.push_str(&fmt::table(
            &["round@iter", "source", "trials", "critical ms", "serial ms"],
            &rows,
        ));
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

    /// One replayed trial no round covers, an LHS round of 2 (attempts
    /// first, fold spans after — the executor/session emission order)
    /// and an optimizer round of 1; plus a session with no rounds.
    fn round_events() -> Vec<TraceEvent> {
        let s = "w/s1";
        let timed = |iter: u64, ms: f64| {
            TraceEvent::new(s, "trial")
                .field("iteration", iter)
                .field("score", iter as f64)
                .field("virtual_ms", ms)
        };
        let round = |iter: u64, size: u64, source: &str| {
            TraceEvent::new(s, "round")
                .field("iteration", iter)
                .field("size", size)
                .field("source", source)
        };
        let attempt = |iter: u64, ms: f64| {
            TraceEvent::new(s, "trial.attempt")
                .field("iteration", iter)
                .field("attempt", 0u64)
                .field("virtual_ms", ms)
        };
        vec![
            TraceEvent::new(s, "session.start").field("replayed", 1u64),
            timed(0, 99.0).field("replayed", 1u64),
            round(1, 2, "lhs"),
            attempt(1, 10.0),
            attempt(2, 30.0),
            timed(1, 10.0),
            timed(2, 30.0),
            round(3, 1, "optimizer"),
            TraceEvent::new(s, "optimizer.suggest").field("iteration", 3u64).field("count", 1u64),
            timed(3, 20.0),
            TraceEvent::new(s, "session.end").field("iterations_run", 4u64),
            trial("w/s2", 0, 1.0, "ok"),
        ]
    }

    #[test]
    fn critical_path_takes_round_max_and_session_sum() {
        let report = build_report(&round_events(), None).unwrap();
        let rounds = &report.sessions[0].rounds;
        assert_eq!(rounds.len(), 2);
        // Round 1: trials of 10 and 30 virtual ms in parallel.
        assert_eq!(rounds[0].makespan_ms, 30.0);
        assert_eq!(rounds[0].serial_ms, 40.0);
        assert_eq!(rounds[0].source, "lhs");
        // Round 3: one 20 ms trial.
        assert_eq!(rounds[1].makespan_ms, 20.0);
        assert!(report.sessions[1].rounds.is_empty());

        let text = render_report(&report);
        let block = &text[text.find("Virtual-clock critical path: w/s1").unwrap()..];
        let words: Vec<Vec<&str>> = block.lines().map(|l| l.split_whitespace().collect()).collect();
        // Session: makespan 50, serial 60, speedup 1.2 — the replayed
        // trial's 99 ms counts in neither.
        assert_eq!(
            words[1].join(" "),
            "2 rounds; makespan 50.0 ms vs serial 60.0 ms (1.20x parallel speedup)"
        );
        assert_eq!(words[4], ["1", "lhs", "2", "30.0", "40.0"]);
        assert_eq!(words[5], ["3", "optimizer", "1", "20.0", "20.0"]);
    }

    #[test]
    fn render_includes_critical_path_and_each_phase_row_once() {
        let m = MetricsRegistry::new();
        for phase in ["suggest", "evaluate", "persist"] {
            m.observe(&format!("session.{phase}_ms"), 1.0);
        }
        let report = build_report(&round_events(), Some(m.snapshot())).unwrap();
        let text = render_report(&report);
        // Only w/s1 has rounds: w/s2 gets no critical-path block.
        assert_eq!(text.matches("Virtual-clock critical path:").count(), 1, "{text}");
        assert!(text.contains("Virtual-clock critical path: w/s1"));
        assert!(text.contains("1.20x parallel speedup"));
        for phase in ["suggest", "evaluate", "persist"] {
            let row = format!("session.{phase}_ms ");
            assert_eq!(text.lines().filter(|l| l.starts_with(&row)).count(), 1, "{text}");
        }

        let no_rounds = build_report(&[trial("s", 0, 1.0, "ok")], None).unwrap();
        assert!(!render_report(&no_rounds).contains("Virtual-clock critical path"));
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
