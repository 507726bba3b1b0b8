//! Plain-text persistence of tuning sessions (the knowledge base of
//! Figure 1): the JSONL trial-event schema, a transcript that survives
//! process restarts and feeds post-hoc analysis such as the Table 11
//! early-stopping study.
//!
//! A [`TrialEvent`] ([`events_to_jsonl`] / [`events_from_jsonl`]) is one
//! self-describing JSON object per evaluated trial, tagged with a
//! session label so events from many concurrent sessions can interleave
//! in a single append-only log (the trial store's `export_jsonl` writes
//! exactly these lines, and its segment records extend them).
//! [`session_curves`] regroups a mixed log back into per-session score
//! curves. The lines are a closed schema read and written through
//! `llamatune_obs::json` (the workspace's one lexer and writer set);
//! this module owns only the schema, not a tokenizer.

use crate::session::{SessionHistory, TrialStatus};
use llamatune_obs::json::{self, Scanner};
use std::collections::BTreeMap;

/// One evaluated trial of some session, as recorded in a JSONL campaign
/// log. Events carry everything post-hoc curve analysis needs;
/// configurations are intentionally omitted (they are recoverable by
/// re-decoding `point` through the session's adapter).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialEvent {
    /// Label of the session this trial belongs to (e.g.
    /// `"tpcc/llamatune/smac/s3"`).
    pub session: String,
    /// Iteration index within the session (0 = default configuration).
    pub iteration: usize,
    /// Raw score; `None` when the configuration crashed the DBMS.
    pub raw_score: Option<f64>,
    /// Score after crash-penalty substitution.
    pub score: f64,
    /// Optimizer-space point (empty for iteration 0).
    pub point: Vec<f64>,
    /// How the evaluation concluded. Serialized only when it differs
    /// from [`TrialStatus::derived`] of the raw score, so events that
    /// carry no extra information keep the pre-status byte layout.
    pub status: TrialStatus,
    /// Evaluation attempts consumed (serialized only when > 1).
    pub attempts: u32,
}

/// Flattens a finished session into its trial events.
pub fn history_to_events(session: &str, history: &SessionHistory) -> Vec<TrialEvent> {
    (0..history.scores.len())
        .map(|i| TrialEvent {
            session: session.to_string(),
            iteration: i,
            raw_score: history.raw_scores[i],
            score: history.scores[i],
            point: history.points[i].clone(),
            status: history
                .statuses
                .get(i)
                .copied()
                .unwrap_or(TrialStatus::derived(history.raw_scores[i])),
            attempts: history.attempts.get(i).copied().unwrap_or(1),
        })
        .collect()
}

/// A [`TrialEvent`]'s fields, borrowed: what the writers below take, so
/// a record that holds the same fields (the store's trial record) is
/// written from where it lies instead of being copied into an event first.
#[derive(Debug, Clone, Copy)]
pub struct EventRef<'a> {
    pub session: &'a str,
    pub iteration: usize,
    pub raw_score: Option<f64>,
    pub score: f64,
    pub point: &'a [f64],
    pub status: TrialStatus,
    pub attempts: u32,
}

impl<'a> From<&'a TrialEvent> for EventRef<'a> {
    fn from(e: &'a TrialEvent) -> Self {
        EventRef {
            session: &e.session,
            iteration: e.iteration,
            raw_score: e.raw_score,
            score: e.score,
            point: &e.point,
            status: e.status,
            attempts: e.attempts,
        }
    }
}

impl From<EventRef<'_>> for TrialEvent {
    fn from(e: EventRef<'_>) -> Self {
        TrialEvent {
            session: e.session.to_string(),
            iteration: e.iteration,
            raw_score: e.raw_score,
            score: e.score,
            point: e.point.to_vec(),
            status: e.status,
            attempts: e.attempts,
        }
    }
}

/// Appends the event's members — `"session":…,"iteration":…` through
/// the optional `status`/`attempts`, without the surrounding braces —
/// so the store's trial record, a superset of this schema, extends the
/// same bytes instead of re-spelling them.
pub fn write_event_members(out: &mut String, e: EventRef<'_>) {
    out.push_str("\"session\":");
    json::write_str(out, e.session);
    out.push_str(",\"iteration\":");
    json::write_u64(out, e.iteration as u64);
    out.push_str(",\"raw_score\":");
    json::write_opt(out, e.raw_score, json::write_f64);
    out.push_str(",\"score\":");
    json::write_f64(out, e.score);
    out.push_str(",\"point\":");
    json::write_f64_array(out, e.point);
    // Fault-tolerance keys are omitted when they carry no information
    // beyond the raw score (the derived status, first-try attempts), so
    // pre-status transcripts and fault-free sessions are byte-identical
    // to the original schema.
    if e.status != TrialStatus::derived(e.raw_score) {
        out.push_str(",\"status\":\"");
        out.push_str(e.status.as_str());
        out.push('"');
    }
    if e.attempts > 1 {
        out.push_str(",\"attempts\":");
        json::write_u64(out, u64::from(e.attempts));
    }
}

/// Serializes one event as a single JSON line (no trailing newline).
/// `f64` values print via Rust's shortest-roundtrip formatting, so a
/// parse-back is bit-exact for finite values.
pub fn event_to_json(e: &TrialEvent) -> String {
    let mut out = String::with_capacity(96 + 20 * e.point.len());
    write_event(&mut out, e.into());
    out
}

fn write_event(out: &mut String, e: EventRef<'_>) {
    out.push('{');
    write_event_members(out, e);
    out.push('}');
}

/// Serializes events as JSONL (one event per line) — owned events by
/// reference, or anything that lends an [`EventRef`].
pub fn events_to_jsonl<'a, E: Into<EventRef<'a>>>(events: impl IntoIterator<Item = E>) -> String {
    let mut out = String::new();
    for e in events {
        write_event(&mut out, e.into());
        out.push('\n');
    }
    out
}

/// Parses one [`event_to_json`] line. Keys may appear in any order;
/// unknown keys are rejected (the schema is closed).
pub fn event_from_json(line: &str) -> Result<TrialEvent, String> {
    let mut sc = Scanner::new(line);
    let (mut session, mut iteration, mut raw_score, mut score, mut point) =
        (None, None, None, None, None);
    let (mut status, mut attempts) = (None, None);
    sc.object(|key, sc| {
        match key {
            "session" => session = Some(sc.string()?),
            "iteration" => iteration = Some(sc.u64()? as usize),
            "raw_score" => raw_score = Some(if sc.null() { None } else { Some(sc.number()?) }),
            "score" => score = Some(sc.number()?),
            "point" => point = Some(sc.f64_array()?),
            "status" => status = Some(TrialStatus::parse(&sc.string()?)?),
            "attempts" => attempts = Some(sc.u64()? as u32),
            other => return Err(format!("unknown key {other:?}")),
        }
        Ok(())
    })?;
    sc.end()?;
    let raw_score = raw_score.ok_or("missing raw_score")?;
    Ok(TrialEvent {
        session: session.ok_or("missing session")?,
        iteration: iteration.ok_or("missing iteration")?,
        raw_score,
        score: score.ok_or("missing score")?,
        point: point.ok_or("missing point")?,
        status: status.unwrap_or(TrialStatus::derived(raw_score)),
        attempts: attempts.unwrap_or(1),
    })
}

/// Parses a JSONL trial log (blank lines are skipped).
pub fn events_from_jsonl(text: &str) -> Result<Vec<TrialEvent>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| event_from_json(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Collapses event streams that may carry duplicates into the canonical
/// single-history view: the *last* record wins per `(session,
/// iteration)`, and the output is sorted by session label then
/// iteration — the same order the trial store's export produces.
///
/// Duplicates are a feature of the persistence layer, not an error:
/// resumed campaigns re-run their partial trailing round, and in a
/// fleet a worker that takes over a dead peer's session re-appends the
/// records the kill left behind. Concatenating such logs (or several
/// workers' logs) and deduplicating here recovers exactly the
/// transcript of the uninterrupted run, which is what makes merged
/// multi-writer histories consumable by [`session_curves`] and the
/// rest of the sequential tooling.
pub fn dedup_events(events: &[TrialEvent]) -> Vec<TrialEvent> {
    let mut merged: BTreeMap<(String, usize), TrialEvent> = BTreeMap::new();
    for e in events {
        merged.insert((e.session.clone(), e.iteration), e.clone());
    }
    merged.into_values().collect()
}

/// Regroups an interleaved event log into per-session `(scores,
/// raw_scores)` curves, ordered by iteration index. Fails on missing or
/// duplicate iterations (a torn log); deduplicate a resumed or
/// multi-writer log with [`dedup_events`] first.
#[allow(clippy::type_complexity)]
pub fn session_curves(
    events: &[TrialEvent],
) -> Result<BTreeMap<String, (Vec<f64>, Vec<Option<f64>>)>, String> {
    let mut by_session: BTreeMap<String, Vec<&TrialEvent>> = BTreeMap::new();
    for e in events {
        by_session.entry(e.session.clone()).or_default().push(e);
    }
    let mut out = BTreeMap::new();
    for (session, mut evs) in by_session {
        evs.sort_by_key(|e| e.iteration);
        for (i, e) in evs.iter().enumerate() {
            if e.iteration != i {
                return Err(format!(
                    "session {session:?}: expected iteration {i}, found {}",
                    e.iteration
                ));
            }
        }
        let scores = evs.iter().map(|e| e.score).collect();
        let raw = evs.iter().map(|e| e.raw_score).collect();
        out.insert(session, (scores, raw));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
    use crate::session::{run_session, EvalResult, SessionOptions};
    use llamatune_optim::RandomSearch;
    use llamatune_space::catalog::postgres_v9_6;

    fn tiny_history() -> SessionHistory {
        let space = postgres_v9_6();
        let adapter = LlamaTunePipeline::new(&space, &LlamaTuneConfig::IDENTITY, 0);
        let opt = RandomSearch::new(adapter.optimizer_spec().clone(), 1);
        let sb = space.index_of("shared_buffers").unwrap();
        let mut calls = 0;
        run_session(
            &adapter,
            Box::new(opt),
            move |cfg| {
                calls += 1;
                if calls == 3 {
                    EvalResult { score: None, metrics: vec![], ..Default::default() }
                // one crash
                } else {
                    EvalResult {
                        score: Some(cfg.values()[sb].as_float() / 1e4),
                        metrics: vec![],
                        ..Default::default()
                    }
                }
            },
            &SessionOptions { iterations: 6, n_init: 2, ..Default::default() },
        )
    }

    #[test]
    fn jsonl_roundtrip_restores_events_exactly() {
        let h = tiny_history();
        let events = history_to_events("ycsb_a/identity/random/s1", &h);
        let text = events_to_jsonl(&events);
        let parsed = events_from_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        // Scores survive bit-exactly through the text encoding.
        for (a, b) in parsed.iter().zip(&events) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert!(parsed.iter().any(|e| e.raw_score.is_none()), "crash must round-trip");
    }

    #[test]
    fn jsonl_interleaved_sessions_regroup_into_curves() {
        let h = tiny_history();
        let a = history_to_events("arm_a", &h);
        let b = history_to_events("arm_b", &h);
        // Interleave as a concurrent campaign would append them.
        let mut mixed = Vec::new();
        for (x, y) in a.iter().zip(&b) {
            mixed.push(y.clone());
            mixed.push(x.clone());
        }
        let text = events_to_jsonl(&mixed);
        let curves = session_curves(&events_from_jsonl(&text).unwrap()).unwrap();
        assert_eq!(curves.len(), 2);
        for (scores, raw) in curves.values() {
            assert_eq!(scores, &h.scores);
            assert_eq!(raw, &h.raw_scores);
        }
    }

    #[test]
    fn dedup_events_merges_resumed_and_multi_writer_logs_last_wins() {
        let h = tiny_history();
        let truth = history_to_events("arm_a", &h);
        // Worker 1 recorded a prefix before dying; worker 2 re-ran the
        // tail (same content, as determinism guarantees) plus a stale
        // duplicate of iteration 1 with a different score — the later
        // record must win.
        let mut log: Vec<TrialEvent> = truth[..3].to_vec();
        log.extend(truth[1..].iter().cloned());
        assert!(log.len() > truth.len());
        let merged = dedup_events(&log);
        assert_eq!(merged, truth, "merged view equals the uninterrupted transcript");
        // Last-wins: a re-run with a *changed* record overrides.
        let mut override_log = truth.clone();
        let mut rerun = truth[2].clone();
        rerun.score += 1.0;
        override_log.push(rerun.clone());
        let merged = dedup_events(&override_log);
        assert_eq!(merged[2], rerun);
        // The merged view is curve-consumable even when the raw log
        // is not (session_curves rejects duplicates).
        assert!(session_curves(&override_log).is_err());
        assert!(session_curves(&merged).is_ok());
        // Multi-session merges come back sorted by label then iteration.
        let mut two = history_to_events("arm_b", &h);
        two.extend(truth.clone());
        let merged = dedup_events(&two);
        assert!(merged
            .windows(2)
            .all(|w| (&w[0].session, w[0].iteration) < (&w[1].session, w[1].iteration)));
    }

    #[test]
    fn jsonl_escapes_awkward_session_labels() {
        let e = TrialEvent {
            session: "we\"ird\\lab\nel\tname".to_string(),
            iteration: 3,
            raw_score: None,
            score: -12.5,
            point: vec![0.25, 1.0],
            status: TrialStatus::Crashed,
            attempts: 1,
        };
        let parsed = event_from_json(&event_to_json(&e)).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn status_and_attempts_roundtrip_and_are_omitted_when_derivable() {
        // Ok-with-score and crashed-without-score are the derived
        // defaults: their serialization must not mention the new keys,
        // so fault-free transcripts keep the pre-status byte layout.
        let ok = TrialEvent {
            session: "s".into(),
            iteration: 1,
            raw_score: Some(2.5),
            score: 2.5,
            point: vec![0.5],
            status: TrialStatus::Ok,
            attempts: 1,
        };
        let line = event_to_json(&ok);
        assert!(!line.contains("status") && !line.contains("attempts"), "{line}");
        assert_eq!(event_from_json(&line).unwrap(), ok);
        let crashed = TrialEvent {
            raw_score: None,
            score: 0.625,
            status: TrialStatus::Crashed,
            ..ok.clone()
        };
        let line = event_to_json(&crashed);
        assert!(!line.contains("status"), "derived crash needs no status key: {line}");
        assert_eq!(event_from_json(&line).unwrap(), crashed);
        // Non-derivable statuses and retry counts round-trip explicitly.
        let timed_out = TrialEvent {
            raw_score: None,
            status: TrialStatus::TimedOut,
            attempts: 3,
            ..ok.clone()
        };
        let line = event_to_json(&timed_out);
        assert!(line.contains("\"status\":\"timed_out\""), "{line}");
        assert!(line.contains("\"attempts\":3"), "{line}");
        assert_eq!(event_from_json(&line).unwrap(), timed_out);
        let quarantined =
            TrialEvent { raw_score: None, status: TrialStatus::Quarantined, ..ok.clone() };
        assert_eq!(event_from_json(&event_to_json(&quarantined)).unwrap(), quarantined);
        // Unknown status tokens are rejected (closed schema).
        let bad = event_to_json(&timed_out).replace("timed_out", "exploded");
        assert!(event_from_json(&bad).is_err());
    }

    #[test]
    fn malformed_jsonl_is_rejected() {
        assert!(events_from_jsonl("{\"session\":\"x\"}").is_err(), "missing keys");
        assert!(events_from_jsonl("not json").is_err());
        assert!(
            events_from_jsonl(
                "{\"session\":\"x\",\"iteration\":0,\"raw_score\":1,\"score\":1,\"point\":[],\"extra\":1}"
            )
            .is_err(),
            "closed schema"
        );
        // Torn log: duplicate iteration.
        let e = TrialEvent {
            session: "s".into(),
            iteration: 0,
            raw_score: Some(1.0),
            score: 1.0,
            point: vec![],
            status: TrialStatus::Ok,
            attempts: 1,
        };
        assert!(session_curves(&[e.clone(), e]).is_err());
    }

    /// The store's crash-recovery path depends on these three behaviors
    /// staying exactly as they are: a torn final line is a *parse
    /// error* here (the store, which knows the line is final, drops it),
    /// garbage anywhere is a parse error, and duplicate iterations
    /// parse fine but are rejected by [`session_curves`] (the store
    /// deduplicates last-wins before regrouping).
    #[test]
    fn truncated_final_line_is_a_parse_error() {
        let h = tiny_history();
        let events = history_to_events("s", &h);
        let text = events_to_jsonl(&events);
        // Cut the transcript mid-way through its final line, at every
        // possible byte (a crash can tear a write anywhere).
        let last_line_start = text.trim_end().rfind('\n').unwrap() + 1;
        for cut in last_line_start + 1..text.len() - 1 {
            if !text.is_char_boundary(cut) {
                continue;
            }
            let torn = &text[..cut];
            assert!(
                events_from_jsonl(torn).is_err(),
                "torn transcript (cut at byte {cut}) must not parse: {torn:?}"
            );
            // Every line before the torn one is intact and still parses.
            let intact = &text[..last_line_start];
            assert_eq!(events_from_jsonl(intact).unwrap().len(), events.len() - 1);
        }
    }

    #[test]
    fn interleaved_garbage_lines_are_rejected_with_line_numbers() {
        let h = tiny_history();
        let text = events_to_jsonl(&history_to_events("s", &h));
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(2, "!!! not json at all");
        let garbled = lines.join("\n");
        let err = events_from_jsonl(&garbled).unwrap_err();
        assert!(err.starts_with("line 3:"), "error must name the bad line: {err}");
        // Binary-ish garbage and half-JSON garbage are rejected too.
        for garbage in ["\u{0}\u{1}\u{2}", "{\"session\":", "[1,2,3]", "42"] {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.insert(1, garbage);
            assert!(events_from_jsonl(&lines.join("\n")).is_err(), "garbage {garbage:?} accepted");
        }
    }

    #[test]
    fn duplicate_iterations_parse_but_fail_curve_regrouping() {
        let h = tiny_history();
        let mut events = history_to_events("s", &h);
        events.push(events[3].clone()); // duplicate iteration 3
        let text = events_to_jsonl(&events);
        // The transcript itself is well-formed JSONL...
        let parsed = events_from_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), events.len());
        // ...but regrouping refuses the torn log, naming the session.
        let err = session_curves(&parsed).unwrap_err();
        assert!(err.contains("\"s\""), "error must name the session: {err}");
        assert!(err.contains("iteration"), "{err}");
        // A duplicate that *shadows* a missing iteration is also caught.
        let mut shifted = history_to_events("s", &h);
        shifted[2].iteration = 1; // 0,1,1,3,...: both a duplicate and a gap
        assert!(session_curves(&shifted).is_err());
    }
}
