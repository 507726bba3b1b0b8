//! The store's on-disk record vocabulary: one self-describing JSON
//! object per line, discriminated by a `"kind"` key.
//!
//! Two record kinds exist:
//!
//! * **`trial`** — one evaluated configuration. A superset of the core
//!   crate's [`TrialEvent`] schema: besides the event fields it carries
//!   the decoded knob configuration (so resumed sessions and warm-started
//!   caches can reconstruct [`Config`]s without re-decoding through an
//!   adapter) and the run's internal metrics (so replay feeds DDPG the
//!   same state it saw live).
//! * **`session`** — session metadata: owning workload, lifecycle status
//!   (`running`/`done`), the early-stop iteration if any, the workload's
//!   probe fingerprint, and the warm-start points the session was seeded
//!   with (persisted so an interrupted session resumes with the *same*
//!   initialization design even after more campaigns were stored).
//!
//! Both kinds are closed schemas read straight off
//! `llamatune_obs::json::Scanner` (no value tree per record — reopening
//! a store parses every line) and written through the same module's
//! appenders. Floats print with Rust's shortest-roundtrip formatting
//! and parse with the matching parser, so every score, point, metric,
//! and fingerprint survives a store round trip bit-exactly — the
//! property the byte-identical resume guarantee rests on.

use llamatune::history_io::{write_event_members, EventRef, TrialEvent};
use llamatune::session::{PriorTrial, TrialStatus};
use llamatune_obs::json::{self, Scanner};
use llamatune_space::{Config, KnobValue};

/// One evaluated trial, as persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTrial {
    /// Label of the session this trial belongs to.
    pub session: String,
    /// Iteration index within the session (0 = default configuration).
    pub iteration: usize,
    /// Raw score; `None` when the configuration crashed the DBMS.
    pub raw_score: Option<f64>,
    /// Score after crash-penalty substitution.
    pub score: f64,
    /// Optimizer-space point (empty for iteration 0).
    pub point: Vec<f64>,
    /// Decoded knob values, in the tuned space's knob order.
    pub config: Vec<KnobValue>,
    /// Internal DBMS metrics of the run.
    pub metrics: Vec<f64>,
    /// Final disposition of the trial after the execution policy settled
    /// (serialized only when it differs from what `raw_score` implies, so
    /// pre-fault-tolerance stores keep their exact byte layout).
    pub status: TrialStatus,
    /// Number of evaluation attempts the policy made (serialized only
    /// when > 1, for the same byte-compat reason).
    pub attempts: u32,
}

impl<'a> From<&'a StoredTrial> for EventRef<'a> {
    /// The trial's projection onto the core crate's JSONL event schema,
    /// borrowed — what the record writer and the exports serialize.
    fn from(t: &'a StoredTrial) -> Self {
        EventRef {
            session: &t.session,
            iteration: t.iteration,
            raw_score: t.raw_score,
            score: t.score,
            point: &t.point,
            status: t.status,
            attempts: t.attempts,
        }
    }
}

impl StoredTrial {
    /// Projects the trial onto the core crate's JSONL event schema.
    pub fn to_event(&self) -> TrialEvent {
        EventRef::from(self).into()
    }

    /// Converts the trial into the session loop's replay unit.
    pub fn to_prior(&self) -> PriorTrial {
        PriorTrial {
            iteration: self.iteration,
            point: self.point.clone(),
            config: Config::new(self.config.clone()),
            raw_score: self.raw_score,
            metrics: self.metrics.clone(),
            status: self.status,
            attempts: self.attempts,
        }
    }
}

/// Lifecycle of a stored session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Trials are (or were) being appended; the session may be resumed.
    Running,
    /// The session finished (ran its full budget or stopped early).
    Done,
}

/// Session metadata record. The latest record for a label wins, so a
/// session's lifecycle is `running` (written once, with fingerprint and
/// warm points) followed by `done` (same payload, final status).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Session label (e.g. `"tpcc/llamatune/smac/s3"`).
    pub session: String,
    /// Workload name the session tunes.
    pub workload: String,
    /// Full adapter identity — kind, hyperparameters, and projection
    /// seed (e.g. `"llamatune-d16-hesbo-b0.2-k10000/s3"`). Warm-start
    /// transfer moves points in *optimizer space*, so a receiving
    /// session may only borrow from sessions whose adapter identity is
    /// exactly equal: the same point decodes to different
    /// configurations under any other adapter. Empty when unknown.
    pub adapter: String,
    /// Lifecycle status.
    pub status: SessionStatus,
    /// Iteration at which early stopping fired, if it did.
    pub stopped_at: Option<usize>,
    /// Probe fingerprint of the workload (empty if never probed).
    pub fingerprint: Vec<f64>,
    /// Warm-start points the session was seeded with (optimizer space).
    pub warm_points: Vec<Vec<f64>>,
    /// Fleet writer currently leasing the session (`None` outside
    /// shared campaigns, and cleared when the session finishes). Live
    /// workers of one fleet never run the same session; after a worker
    /// dies, a resuming fleet re-leases its `running` sessions — the
    /// field records who owns what, making takeovers auditable. The
    /// key is omitted from the serialized record when `None`, so
    /// single-writer stores are byte-identical to the pre-lease format.
    pub lease: Option<String>,
}

/// One line of a store segment.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreRecord {
    Trial(StoredTrial),
    Session(SessionMeta),
}

/// Parses one token of a [`write_config`] array. The tag is matched as a byte, so
/// a token that opens with a multi-byte character is an error like any
/// other unknown tag.
pub fn knob_value_from_token(s: &str) -> Result<KnobValue, String> {
    let rest = s.get(1..).unwrap_or("");
    match s.as_bytes().first() {
        Some(b'i') => {
            rest.parse().map(KnobValue::Int).map_err(|e| format!("bad int token {s:?}: {e}"))
        }
        Some(b'f') => {
            rest.parse().map(KnobValue::Float).map_err(|e| format!("bad float token {s:?}: {e}"))
        }
        Some(b'c') => {
            rest.parse().map(KnobValue::Cat).map_err(|e| format!("bad cat token {s:?}: {e}"))
        }
        _ => Err(format!("unknown knob token {s:?}")),
    }
}

/// Appends a configuration as the JSON array of its knob tokens — one
/// compact tagged string per value (`"i<int>"`, `"f<float>"`,
/// `"c<choice index>"`; floats in shortest-roundtrip form, and no token
/// holds a character JSON would escape) — the spelling store records and
/// wire frames share. A token is a string, not a JSON number, so a
/// non-finite float keeps Display's spelling (`"finf"`, `"f-inf"`,
/// `"fNaN"`), which [`knob_value_from_token`] reads back.
pub fn write_config(out: &mut String, config: &[KnobValue]) {
    json::write_array(out, config, |out, v| {
        match *v {
            KnobValue::Int(x) => {
                out.push_str("\"i");
                json::write_i64(out, x);
            }
            KnobValue::Float(x) if x.is_finite() => {
                out.push_str("\"f");
                json::write_f64(out, x);
            }
            KnobValue::Float(x) if x.is_nan() => out.push_str("\"fNaN"),
            KnobValue::Float(x) => out.push_str(if x > 0.0 { "\"finf" } else { "\"f-inf" }),
            KnobValue::Cat(x) => {
                out.push_str("\"c");
                json::write_u64(out, x as u64);
            }
        }
        out.push('"');
    });
}

/// Reads a [`write_config`] array, each token parsed from the borrowed
/// literal.
pub fn read_config(sc: &mut Scanner<'_>) -> Result<Vec<KnobValue>, String> {
    sc.vec(|sc| knob_value_from_token(&sc.str_token()?))
}

/// Appends one record as a single JSON line (no trailing newline).
pub fn write_record(out: &mut String, r: &StoreRecord) {
    match r {
        StoreRecord::Trial(t) => {
            // The shared prefix is the core event serializer's, so the
            // two schemas cannot drift apart silently.
            out.push_str("{\"kind\":\"trial\",");
            write_event_members(out, t.into());
            out.push_str(",\"config\":");
            write_config(out, &t.config);
            out.push_str(",\"metrics\":");
            json::write_f64_array(out, &t.metrics);
        }
        StoreRecord::Session(m) => {
            out.push_str("{\"kind\":\"session\",\"session\":");
            json::write_str(out, &m.session);
            out.push_str(",\"workload\":");
            json::write_str(out, &m.workload);
            out.push_str(",\"adapter\":");
            json::write_str(out, &m.adapter);
            out.push_str(match m.status {
                SessionStatus::Running => ",\"status\":\"running\",\"stopped_at\":",
                SessionStatus::Done => ",\"status\":\"done\",\"stopped_at\":",
            });
            json::write_opt(out, m.stopped_at, |out, i| json::write_u64(out, i as u64));
            out.push_str(",\"fingerprint\":");
            json::write_f64_array(out, &m.fingerprint);
            out.push_str(",\"warm_points\":");
            json::write_array(out, &m.warm_points, |out, p| json::write_f64_array(out, p));
            if let Some(w) = &m.lease {
                out.push_str(",\"lease\":");
                json::write_str(out, w);
            }
        }
    }
    out.push('}');
}

/// [`write_record`] into a fresh `String`.
pub fn record_to_json(r: &StoreRecord) -> String {
    let mut out = String::with_capacity(256);
    write_record(&mut out, r);
    out
}

/// Parses one [`record_to_json`] line. Keys may appear in any order;
/// unknown keys are rejected (the schema is closed, like the core
/// crate's event schema).
pub fn record_from_json(line: &str) -> Result<StoreRecord, String> {
    let mut sc = Scanner::new(line);
    let mut kind = None;
    let mut session = None;
    let mut iteration = None;
    let mut raw_score = None;
    let mut score = None;
    let mut point = None;
    let mut config = None;
    let mut metrics = None;
    let mut workload = None;
    let mut adapter = None;
    let mut status = None;
    let mut attempts = None;
    let mut stopped_at = None;
    let mut fingerprint = None;
    let mut warm_points = None;
    let mut lease = None;
    sc.object(|key, sc| {
        match key {
            "kind" => kind = Some(sc.str_token()?),
            "session" => session = Some(sc.string()?),
            "iteration" => iteration = Some(sc.u64()? as usize),
            "raw_score" => raw_score = Some(if sc.null() { None } else { Some(sc.number()?) }),
            "score" => score = Some(sc.number()?),
            "point" => point = Some(sc.f64_array()?),
            "config" => config = Some(read_config(sc)?),
            // A non-finite engine metric (a 0/0 hit ratio) was written as
            // `null`, JSON having no other spelling for it; it reads back
            // as NaN, which re-serializes to the same bytes. Points and
            // fingerprints stay strict: the optimizer and the warm-start
            // lookup cannot use a non-number.
            "metrics" => {
                let metric =
                    |sc: &mut Scanner<'_>| Ok(if sc.null() { f64::NAN } else { sc.number()? });
                metrics = Some(sc.vec(metric)?);
            }
            "workload" => workload = Some(sc.string()?),
            "adapter" => adapter = Some(sc.string()?),
            // Shared by both kinds with disjoint value sets; resolved
            // against `kind` once the whole line is scanned.
            "status" => status = Some(sc.str_token()?),
            "attempts" => attempts = Some(sc.u64()? as u32),
            "stopped_at" => {
                stopped_at = Some(if sc.null() { None } else { Some(sc.u64()? as usize) })
            }
            "fingerprint" => fingerprint = Some(sc.f64_array()?),
            "warm_points" => warm_points = Some(sc.vec(Scanner::f64_array)?),
            "lease" => lease = Some(sc.string()?),
            other => return Err(format!("unknown key {other:?}")),
        }
        Ok(())
    })?;
    sc.end()?;
    match kind.as_deref() {
        Some("trial") => {
            let raw_score = raw_score.ok_or("missing raw_score")?;
            let status = match status {
                Some(s) => TrialStatus::parse(&s)?,
                None => TrialStatus::derived(raw_score),
            };
            Ok(StoreRecord::Trial(StoredTrial {
                session: session.ok_or("missing session")?,
                iteration: iteration.ok_or("missing iteration")?,
                raw_score,
                score: score.ok_or("missing score")?,
                point: point.ok_or("missing point")?,
                config: config.ok_or("missing config")?,
                metrics: metrics.ok_or("missing metrics")?,
                status,
                attempts: attempts.unwrap_or(1),
            }))
        }
        Some("session") => {
            let status = match &*status.ok_or("missing status")? {
                "running" => SessionStatus::Running,
                "done" => SessionStatus::Done,
                other => return Err(format!("unknown session status {other:?}")),
            };
            if attempts.is_some() {
                return Err("unknown key \"attempts\"".to_string());
            }
            Ok(StoreRecord::Session(SessionMeta {
                session: session.ok_or("missing session")?,
                workload: workload.ok_or("missing workload")?,
                adapter: adapter.ok_or("missing adapter")?,
                status,
                stopped_at: stopped_at.ok_or("missing stopped_at")?,
                fingerprint: fingerprint.ok_or("missing fingerprint")?,
                warm_points: warm_points.ok_or("missing warm_points")?,
                lease,
            }))
        }
        Some(other) => Err(format!("unknown record kind {other:?}")),
        None => Err("missing kind".to_string()),
    }
}

/// The record codec before knob tokens were read and written in place,
/// kept as the oracle for the one above: the trial line goes through an
/// owned [`TrialEvent`] and a `String` per knob token on the way out, and a
/// `String` per token, kind and status on the way in. The bodies are the
/// parent commit's, with one repair: its token reader split a token after
/// its first *byte* and panicked on `"é"`; here that is the unknown tag it
/// always should have been.
#[cfg(test)]
mod reference {
    use super::{SessionMeta, SessionStatus, StoreRecord, StoredTrial};
    use llamatune::history_io::write_event_members;
    use llamatune::session::TrialStatus;
    use llamatune_obs::json::{self, Scanner};
    use llamatune_space::KnobValue;

    pub fn knob_value_to_token(v: &KnobValue) -> String {
        match v {
            KnobValue::Int(x) => format!("i{x}"),
            KnobValue::Float(x) => format!("f{x}"),
            KnobValue::Cat(x) => format!("c{x}"),
        }
    }

    pub fn knob_value_from_token(s: &str) -> Result<KnobValue, String> {
        let (tag, rest) = s.split_at_checked(s.len().min(1)).unwrap_or(("", s));
        match tag {
            "i" => {
                rest.parse().map(KnobValue::Int).map_err(|e| format!("bad int token {s:?}: {e}"))
            }
            "f" => rest
                .parse()
                .map(KnobValue::Float)
                .map_err(|e| format!("bad float token {s:?}: {e}")),
            "c" => {
                rest.parse().map(KnobValue::Cat).map_err(|e| format!("bad cat token {s:?}: {e}"))
            }
            _ => Err(format!("unknown knob token {s:?}")),
        }
    }

    pub fn record_to_json(r: &StoreRecord) -> String {
        let mut out = String::with_capacity(256);
        match r {
            StoreRecord::Trial(t) => {
                out.push_str("{\"kind\":\"trial\",");
                write_event_members(&mut out, (&t.to_event()).into());
                out.push_str(",\"config\":");
                let tokens = t.config.iter().map(knob_value_to_token);
                json::write_array(&mut out, tokens, |out, s| json::write_str(out, &s));
                out.push_str(",\"metrics\":");
                json::write_f64_array(&mut out, &t.metrics);
            }
            StoreRecord::Session(m) => {
                out.push_str("{\"kind\":\"session\",\"session\":");
                json::write_str(&mut out, &m.session);
                out.push_str(",\"workload\":");
                json::write_str(&mut out, &m.workload);
                out.push_str(",\"adapter\":");
                json::write_str(&mut out, &m.adapter);
                out.push_str(match m.status {
                    SessionStatus::Running => ",\"status\":\"running\",\"stopped_at\":",
                    SessionStatus::Done => ",\"status\":\"done\",\"stopped_at\":",
                });
                json::write_opt(&mut out, m.stopped_at, |out, i| json::write_u64(out, i as u64));
                out.push_str(",\"fingerprint\":");
                json::write_f64_array(&mut out, &m.fingerprint);
                out.push_str(",\"warm_points\":");
                json::write_array(&mut out, &m.warm_points, |out, p| json::write_f64_array(out, p));
                if let Some(w) = &m.lease {
                    out.push_str(",\"lease\":");
                    json::write_str(&mut out, w);
                }
            }
        }
        out.push('}');
        out
    }

    pub fn record_from_json(line: &str) -> Result<StoreRecord, String> {
        let mut sc = Scanner::new(line);
        let mut kind = None;
        let mut session = None;
        let mut iteration = None;
        let mut raw_score = None;
        let mut score = None;
        let mut point = None;
        let mut config = None;
        let mut metrics = None;
        let mut workload = None;
        let mut adapter = None;
        let mut status: Option<String> = None;
        let mut attempts = None;
        let mut stopped_at = None;
        let mut fingerprint = None;
        let mut warm_points = None;
        let mut lease = None;
        sc.object(|key, sc| {
            match key {
                "kind" => kind = Some(sc.string()?),
                "session" => session = Some(sc.string()?),
                "iteration" => iteration = Some(sc.u64()? as usize),
                "raw_score" => raw_score = Some(if sc.null() { None } else { Some(sc.number()?) }),
                "score" => score = Some(sc.number()?),
                "point" => point = Some(sc.f64_array()?),
                "config" => {
                    let mut values = Vec::new();
                    sc.array(|sc| knob_value_from_token(&sc.string()?).map(|v| values.push(v)))?;
                    values.shrink_to_fit();
                    config = Some(values);
                }
                "metrics" => {
                    let mut values = Vec::new();
                    sc.array(|sc| {
                        values.push(if sc.null() { f64::NAN } else { sc.number()? });
                        Ok(())
                    })?;
                    values.shrink_to_fit();
                    metrics = Some(values);
                }
                "workload" => workload = Some(sc.string()?),
                "adapter" => adapter = Some(sc.string()?),
                "status" => status = Some(sc.string()?),
                "attempts" => attempts = Some(sc.u64()? as u32),
                "stopped_at" => {
                    stopped_at = Some(if sc.null() { None } else { Some(sc.u64()? as usize) })
                }
                "fingerprint" => fingerprint = Some(sc.f64_array()?),
                "warm_points" => {
                    let mut points = Vec::new();
                    sc.array(|sc| sc.f64_array().map(|p| points.push(p)))?;
                    warm_points = Some(points);
                }
                "lease" => lease = Some(sc.string()?),
                other => return Err(format!("unknown key {other:?}")),
            }
            Ok(())
        })?;
        sc.end()?;
        match kind.as_deref() {
            Some("trial") => {
                let raw_score = raw_score.ok_or("missing raw_score")?;
                let status = match status {
                    Some(s) => TrialStatus::parse(&s)?,
                    None => TrialStatus::derived(raw_score),
                };
                Ok(StoreRecord::Trial(StoredTrial {
                    session: session.ok_or("missing session")?,
                    iteration: iteration.ok_or("missing iteration")?,
                    raw_score,
                    score: score.ok_or("missing score")?,
                    point: point.ok_or("missing point")?,
                    config: config.ok_or("missing config")?,
                    metrics: metrics.ok_or("missing metrics")?,
                    status,
                    attempts: attempts.unwrap_or(1),
                }))
            }
            Some("session") => {
                let status = match status.ok_or("missing status")?.as_str() {
                    "running" => SessionStatus::Running,
                    "done" => SessionStatus::Done,
                    other => return Err(format!("unknown session status {other:?}")),
                };
                if attempts.is_some() {
                    return Err("unknown key \"attempts\"".to_string());
                }
                Ok(StoreRecord::Session(SessionMeta {
                    session: session.ok_or("missing session")?,
                    workload: workload.ok_or("missing workload")?,
                    adapter: adapter.ok_or("missing adapter")?,
                    status,
                    stopped_at: stopped_at.ok_or("missing stopped_at")?,
                    fingerprint: fingerprint.ok_or("missing fingerprint")?,
                    warm_points: warm_points.ok_or("missing warm_points")?,
                    lease,
                }))
            }
            Some(other) => Err(format!("unknown record kind {other:?}")),
            None => Err("missing kind".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trial() -> StoredTrial {
        StoredTrial {
            session: "ycsb_a/llamatune/smac/s1".to_string(),
            iteration: 7,
            raw_score: Some(1234.5678901234567),
            score: 1234.5678901234567,
            point: vec![0.1, 0.25, 1.0 / 3.0],
            config: vec![KnobValue::Int(16_384), KnobValue::Float(0.5), KnobValue::Cat(2)],
            metrics: vec![0.0, 42.0, 1e-9],
            status: TrialStatus::Ok,
            attempts: 1,
        }
    }

    fn sample_meta() -> SessionMeta {
        SessionMeta {
            session: "ycsb_a/llamatune/smac/s1".to_string(),
            workload: "ycsb_a".to_string(),
            adapter: "llamatune-d16-hesbo-b0.2-k10000/s1".to_string(),
            status: SessionStatus::Running,
            stopped_at: None,
            fingerprint: vec![0.3, -0.1, 0.955],
            warm_points: vec![vec![0.5, 0.25], vec![0.75, 0.125]],
            lease: None,
        }
    }

    #[test]
    fn trial_roundtrip_is_bit_exact() {
        let t = StoreRecord::Trial(sample_trial());
        let parsed = record_from_json(&record_to_json(&t)).unwrap();
        assert_eq!(parsed, t);
        if let (StoreRecord::Trial(a), StoreRecord::Trial(b)) = (&t, &parsed) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            for (x, y) in a.point.iter().zip(&b.point) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn session_roundtrip_covers_both_statuses() {
        let running = StoreRecord::Session(sample_meta());
        assert_eq!(record_from_json(&record_to_json(&running)).unwrap(), running);
        let done = StoreRecord::Session(SessionMeta {
            status: SessionStatus::Done,
            stopped_at: Some(31),
            ..sample_meta()
        });
        assert_eq!(record_from_json(&record_to_json(&done)).unwrap(), done);
    }

    #[test]
    fn leases_roundtrip_and_are_omitted_when_absent() {
        let leased =
            StoreRecord::Session(SessionMeta { lease: Some("w3".to_string()), ..sample_meta() });
        let line = record_to_json(&leased);
        assert!(line.contains("\"lease\":\"w3\""));
        assert_eq!(record_from_json(&line).unwrap(), leased);
        // No lease → no key: single-writer records keep their exact
        // pre-lease byte layout.
        let unleased = record_to_json(&StoreRecord::Session(sample_meta()));
        assert!(!unleased.contains("lease"));
        assert_eq!(record_from_json(&unleased).unwrap(), StoreRecord::Session(sample_meta()));
    }

    #[test]
    fn crashed_trials_roundtrip() {
        let t = StoreRecord::Trial(StoredTrial {
            raw_score: None,
            score: -87.5,
            status: TrialStatus::Crashed,
            ..sample_trial()
        });
        assert_eq!(record_from_json(&record_to_json(&t)).unwrap(), t);
    }

    #[test]
    fn trial_status_and_attempts_roundtrip_and_are_omitted_when_derivable() {
        // A scored, single-attempt trial serializes without either key:
        // pre-fault-tolerance stores parse and re-serialize byte-exactly.
        let plain = record_to_json(&StoreRecord::Trial(sample_trial()));
        assert!(!plain.contains("\"status\""));
        assert!(!plain.contains("\"attempts\""));

        // A timed-out, retried trial carries both keys and round-trips.
        let t = StoreRecord::Trial(StoredTrial {
            raw_score: None,
            score: -87.5,
            status: TrialStatus::TimedOut,
            attempts: 3,
            ..sample_trial()
        });
        let line = record_to_json(&t);
        assert!(line.contains("\"status\":\"timed_out\""));
        assert!(line.contains("\"attempts\":3"));
        assert_eq!(record_from_json(&line).unwrap(), t);

        // Quarantined-with-score also round-trips (status contradicts
        // what raw_score alone would imply).
        let q = StoreRecord::Trial(StoredTrial {
            status: TrialStatus::Quarantined,
            attempts: 2,
            ..sample_trial()
        });
        assert_eq!(record_from_json(&record_to_json(&q)).unwrap(), q);

        // Unknown trial statuses are rejected; session status tokens do
        // not leak into the trial schema.
        let bad = line.replace("timed_out", "running");
        assert!(record_from_json(&bad).is_err());
        // `attempts` on a session record is rejected (closed schema).
        let meta = record_to_json(&StoreRecord::Session(sample_meta()));
        let bad_meta = meta.replace("\"stopped_at\"", "\"attempts\":2,\"stopped_at\"");
        assert!(record_from_json(&bad_meta).is_err());
    }

    #[test]
    fn knob_tokens_roundtrip() {
        for v in [
            KnobValue::Int(-1),
            KnobValue::Int(i64::MAX),
            KnobValue::Float(0.1 + 0.2),
            KnobValue::Float(-1e300),
            KnobValue::Cat(0),
            KnobValue::Cat(17),
        ] {
            let mut tokens = String::new();
            write_config(&mut tokens, &[v]);
            assert_eq!(read_config(&mut Scanner::new(&tokens)).unwrap(), [v]);
        }
        assert!(knob_value_from_token("x5").is_err());
        assert!(knob_value_from_token("").is_err());
        assert!(knob_value_from_token("i").is_err());
    }

    /// A knob token is a string, not a JSON number: a non-finite float
    /// keeps Display's spelling instead of JSON's `null`, and reads back.
    #[test]
    fn non_finite_knob_tokens_keep_displays_spelling() {
        let config = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN].map(KnobValue::Float);
        let mut tokens = String::new();
        write_config(&mut tokens, &config);
        assert_eq!(tokens, r#"["finf","f-inf","fNaN"]"#);
        let read = read_config(&mut Scanner::new(&tokens)).unwrap();
        let bits = |c: &[KnobValue]| -> Vec<u64> {
            c.iter()
                .map(|v| match v {
                    KnobValue::Float(x) => x.to_bits(),
                    other => panic!("{other:?} is not a float"),
                })
                .collect()
        };
        assert_eq!(bits(&read)[..2], bits(&config)[..2]);
        assert!(matches!(read[2], KnobValue::Float(x) if x.is_nan()));
    }

    /// A token that opens with a multi-byte character is an unknown tag,
    /// in the token reader and in a record line alike (the reader at the
    /// parent commit split it after its first byte and panicked, so a
    /// corrupted segment unwound the open instead of failing it).
    #[test]
    fn a_non_ascii_knob_token_is_an_error_not_a_panic() {
        for token in ["é", "é1", "→", "i\u{e9}", "f1é"] {
            assert!(knob_value_from_token(token).is_err(), "{token}");
        }
        let line = record_to_json(&StoreRecord::Trial(sample_trial()));
        let bad = line.replace("\"i16384\"", "\"é\"");
        assert_ne!(bad, line);
        assert!(record_from_json(&bad).unwrap_err().contains("unknown knob token"));
    }

    #[test]
    fn malformed_records_are_rejected() {
        assert!(record_from_json("{}").is_err());
        assert!(record_from_json("{\"kind\":\"trial\"}").is_err(), "missing fields");
        assert!(record_from_json("{\"kind\":\"nope\",\"session\":\"s\"}").is_err());
        let valid = record_to_json(&StoreRecord::Trial(sample_trial()));
        assert!(record_from_json(&valid[..valid.len() - 2]).is_err(), "truncated");
        assert!(record_from_json(&format!("{valid}garbage")).is_err(), "trailing bytes");
        let extra = valid.replace("\"kind\"", "\"bogus\":1,\"kind\"");
        assert!(record_from_json(&extra).is_err(), "closed schema");
    }

    #[test]
    fn trial_projects_onto_the_core_event_schema() {
        let t = sample_trial();
        let e = t.to_event();
        let line = llamatune::history_io::event_to_json(&e);
        let parsed = llamatune::history_io::event_from_json(&line).unwrap();
        assert_eq!(parsed, e);
        let p = t.to_prior();
        assert_eq!(p.iteration, t.iteration);
        assert_eq!(p.config.values(), t.config.as_slice());
    }
}

/// [`write_record`] / [`record_from_json`] against [`reference`]: the same
/// line for every record, the same record for every line — whatever order
/// its keys come in — and the same lines refused.
#[cfg(test)]
mod oracle {
    use super::reference as old;
    use super::*;
    use proptest::prelude::*;

    type Words<'w> = &'w mut dyn Iterator<Item = u64>;

    fn word(words: Words) -> u64 {
        words.next().expect("enough words")
    }

    /// Finite floats of every size: small, huge, subnormal, negative zero.
    fn float(words: Words) -> f64 {
        let v = match word(words) % 8 {
            0 => (word(words) % 1000) as f64 / 8.0,
            1 => f64::from_bits(word(words) % (1 << 52)), // subnormal
            2 => [-0.0, f64::MAX, f64::MIN_POSITIVE, 1e21][word(words) as usize % 4],
            _ => f64::from_bits(word(words)),
        };
        if v.is_finite() {
            v
        } else {
            0.1
        }
    }

    fn floats(words: Words, max: u64) -> Vec<f64> {
        (0..word(words) % (max + 1)).map(|_| float(words)).collect()
    }

    fn text(words: Words) -> String {
        const PARTS: [&str; 7] = ["ycsb_a", "/", "s1", "é\"", "\\", "\n", "llamatune-d16"];
        (0..word(words) % 6).map(|_| PARTS[word(words) as usize % 7]).collect()
    }

    fn knob(words: Words) -> KnobValue {
        match word(words) % 3 {
            0 => KnobValue::Int(word(words) as i64 >> (word(words) % 64)),
            1 => KnobValue::Float(float(words)),
            _ => KnobValue::Cat((word(words) % 40) as usize),
        }
    }

    fn record(words: Words) -> StoreRecord {
        const STATUSES: [TrialStatus; 4] = [
            TrialStatus::Ok,
            TrialStatus::Crashed,
            TrialStatus::TimedOut,
            TrialStatus::Quarantined,
        ];
        if word(words).is_multiple_of(4) {
            return StoreRecord::Session(SessionMeta {
                session: text(words),
                workload: text(words),
                adapter: text(words),
                status: [SessionStatus::Running, SessionStatus::Done][word(words) as usize % 2],
                stopped_at: (word(words).is_multiple_of(2)).then(|| word(words) as usize % 500),
                fingerprint: floats(words, 12),
                warm_points: (0..word(words) % 4).map(|_| floats(words, 16)).collect(),
                lease: (word(words).is_multiple_of(2)).then(|| text(words)),
            });
        }
        // A metric may be non-finite (it is written `null`); nothing else.
        let metric = |m: f64| if m == 1e21 { f64::NAN } else { m };
        StoreRecord::Trial(StoredTrial {
            session: text(words),
            iteration: word(words) as usize % 5000,
            raw_score: (!word(words).is_multiple_of(4)).then(|| float(words)),
            score: float(words),
            point: floats(words, 16),
            config: (0..word(words) % 201).map(|_| knob(words)).collect(),
            metrics: floats(words, 30).into_iter().map(metric).collect(),
            status: STATUSES[word(words) as usize % 4],
            attempts: if word(words).is_multiple_of(2) { 1 } else { 1 + (word(words) % 9) as u32 },
        })
    }

    /// Both readers on one line: they accept the same lines, and what they
    /// read is the same record — compared through the line it is written
    /// as, where a NaN metric is a value like any other.
    fn agree(line: &str) {
        let (new, old) = (record_from_json(line), old::record_from_json(line));
        assert_eq!(new.is_ok(), old.is_ok(), "{line}: {new:?} / {old:?}");
        if let (Ok(new), Ok(old)) = (new, old) {
            assert_eq!(record_to_json(&new), old::record_to_json(&old), "{line}");
        }
    }

    /// The members of the object `line` as `"key":value` source texts
    /// (a record's keys are plain words).
    fn members(line: &str) -> Vec<String> {
        let mut members = Vec::new();
        let member = |key: &str, sc: &mut Scanner<'_>| {
            members.push(format!("\"{key}\":{}", sc.skip()?));
            Ok(())
        };
        Scanner::new(line).object(member).unwrap();
        members
    }

    proptest! {
        #[test]
        fn records_are_written_and_read_alike(
            words in proptest::collection::vec(any::<u64>(), 2048)
        ) {
            let words: Words = &mut words.into_iter();
            let rec = record(words);
            let line = record_to_json(&rec);
            prop_assert_eq!(&line, &old::record_to_json(&rec));
            // What the raw score already implies is not written and what
            // was written reads back: encode ∘ decode is the identity.
            prop_assert_eq!(&record_to_json(&record_from_json(&line).unwrap()), &line);
            agree(&line);

            // The same members in another order.
            let mut shuffled = members(&line);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, word(words) as usize % (i + 1));
            }
            let shuffled = format!("{{{}}}", shuffled.join(","));
            prop_assert!(record_from_json(&shuffled).is_ok(), "{}", shuffled);
            agree(&shuffled);

            // One byte replaced, dropped or doubled; then the line cut short.
            let mut bytes = line.clone().into_bytes();
            let at = word(words) as usize % bytes.len();
            const STRAYS: &[u8] = b"{}[]\",:e-0\\ xi\xc3";
            match word(words) % 3 {
                0 => bytes[at] = STRAYS[word(words) as usize % STRAYS.len()],
                1 => drop(bytes.remove(at)),
                _ => bytes.insert(at, bytes[at]),
            }
            agree(&String::from_utf8_lossy(&bytes));
            let step = line.len() / 256 + 1;
            for cut in (0..line.len()).step_by(step).filter(|&c| line.is_char_boundary(c)) {
                agree(&line[..cut]);
            }
        }
    }

    #[test]
    fn awkward_lines_are_refused_alike() {
        let trial = record_to_json(&StoreRecord::Trial(StoredTrial {
            session: "s".to_string(),
            iteration: 1,
            raw_score: Some(2.0),
            score: 2.0,
            point: vec![0.5],
            config: vec![KnobValue::Int(7), KnobValue::Float(0.5), KnobValue::Cat(1)],
            metrics: vec![1.0],
            status: TrialStatus::Ok,
            attempts: 1,
        }));
        for (from, to) in [
            ("\"i7\"", "\"é\""),
            ("\"i7\"", "\"i\\u0037\""),
            ("\"i7\"", "\"i007\""),
            ("\"i7\"", "7"),
            ("\"i7\"", "\"x7\""),
            ("\"f0.5\"", "\"f1e999\""),
            ("\"f0.5\"", "\"fNaN\""),
            ("\"c1\"", "\"c-1\""),
            ("\"kind\":\"trial\"", "\"kind\":\"tri\\u0061l\""),
            ("\"kind\":\"trial\"", "\"kind\":\"session\""),
            ("\"kind\":\"trial\"", "\"kind\":7"),
            ("\"metrics\":[1]", "\"metrics\":[null,1e999]"),
            ("\"metrics\":[1]", "\"metrics\":[1],\"status\":\"timed_\\u006fut\""),
            ("\"metrics\":[1]", "\"metrics\":[1],\"status\":\"running\""),
            ("\"metrics\":[1]", "\"metrics\":[1],\"metrics\":[2]"),
            ("\"metrics\":[1]", "\"metrics\":[1],\"extra\":1"),
            ("\"point\":[0.5]", "\"point\":[null]"),
            ("{", " { "),
        ] {
            let line = trial.replace(from, to);
            assert_ne!(line, trial, "{from}");
            agree(&line);
        }
    }
}
