//! Deterministic structured tracing.
//!
//! A [`TraceEvent`] is one span of the tuning stack's execution,
//! identified by a name from the closed `SPAN_TAXONOMY` and carrying
//! only deterministic fields: iteration indices, batch sizes,
//! *virtual*-clock durations, scores, statuses. Events are emitted from
//! single-threaded fold paths (the session loop, the executor's batch
//! epilogue, the store's append path under its lock), each stamped with
//! its session label; the recorder assigns a per-session sequence
//! number, and exports sort by session — so the exported trace of a run
//! is a pure function of (seed, config), byte-identical across
//! trial-worker counts and session-parallelism levels. Wall-clock time
//! never enters a trace event; it belongs in [`crate::MetricsRegistry`].
//!
//! The hierarchy is encoded in span names and shared fields rather than
//! explicit parent ids: a `trial` span's parents are the `round` with
//! the same session and covering iteration range, and the session
//! itself. `trial.attempt` spans are children of the `trial` with the
//! same iteration.

use crate::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Every span name the stack emits, one row per taxonomy entry:
///
/// | span | emitted by | key fields |
/// |---|---|---|
/// | `session.start` | session loop | `iterations`, `n_init`, `seed`, `batch_size`, `replayed` |
/// | `round` | session loop | `iteration`, `size`, `source` (`default`/`lhs`/`optimizer`) |
/// | `optimizer.suggest` | session loop | `iteration`, `count` |
/// | `trial.attempt` | executor epilogue | `iteration`, `attempt`, `virtual_ms`, `disposition` |
/// | `trial` | session fold | `iteration`, `score`, `status`, `attempts`, `virtual_ms`, `raw_score`?, `replayed`? |
/// | `optimizer.observe` | session loop | `iteration`, `count` |
/// | `optimizer.degraded` | session loop | `iteration`, `optimizer`, `reason` |
/// | `cache.lookup` | executor | `iteration`, `hits`, `misses`, `duplicates` |
/// | `policy.quarantine` | executor | `iteration`, `committed`, `total` |
/// | `store.append` | store | `object`, `kind` (`trial`/`session`) |
/// | `store.rotate` | store | `sealed`, `next` |
/// | `store.compact` | store | `segments_before`, `segments_after`, `records_before`, `records_after` |
/// | `session.end` | session loop | `iterations_run`, `degradations`, `best`?, `stopped_at`? |
pub(crate) const SPAN_TAXONOMY: &[&str] = &[
    "session.start",
    "round",
    "optimizer.suggest",
    "trial.attempt",
    "trial",
    "optimizer.observe",
    "optimizer.degraded",
    "cache.lookup",
    "policy.quarantine",
    "store.append",
    "store.rotate",
    "store.compact",
    "session.end",
];

/// One structured field value. Only deterministic scalars: u64 indices
/// and counts, f64 scores and virtual durations, status strings.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    F64(f64),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One recorded span event. `seq` is assigned by the recorder, counting
/// per session, so per-session streams are totally ordered no matter
/// how sessions interleave.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Session label (empty for store-scope events like compaction).
    pub session: String,
    /// Per-session sequence number, assigned on record.
    pub seq: u64,
    /// Span name, from `SPAN_TAXONOMY`.
    pub span: String,
    /// Deterministic fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceEvent {
    /// Starts an event for `span` in `session`.
    pub fn new(session: impl Into<String>, span: &str) -> TraceEvent {
        TraceEvent { session: session.into(), seq: 0, span: span.to_string(), fields: Vec::new() }
    }

    /// Appends a field (builder style).
    pub fn field(mut self, key: &str, value: impl Into<FieldValue>) -> TraceEvent {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Looks up a field by key.
    pub(crate) fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A u64 field, if present with that type.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(FieldValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// An f64 field, if present (u64 fields widen losslessly-enough for
    /// report arithmetic).
    pub(crate) fn get_f64(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(FieldValue::F64(v)) => Some(*v),
            Some(FieldValue::U64(v)) => Some(*v as f64),
            _ => None,
        }
    }

    /// A string field, if present with that type.
    pub(crate) fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"session\":");
        json::write_str(&mut out, &self.session);
        out.push_str(",\"seq\":");
        json::write_u64(&mut out, self.seq);
        out.push_str(",\"span\":");
        json::write_str(&mut out, &self.span);
        out.push_str(",\"fields\":");
        json::write_object(&mut out, self.fields.iter().map(|(k, v)| (k, v)), |out, v| match v {
            FieldValue::U64(n) => json::write_u64(out, *n),
            FieldValue::F64(x) => json::write_f64(out, *x),
            FieldValue::Str(s) => json::write_str(out, s),
        });
        out.push('}');
        out
    }
}

/// The tracing seam. Implementations must be cheap when disabled: every
/// instrumentation site guards on [`Tracer::enabled`] before building
/// an event, so the inert default costs one virtual call returning a
/// constant.
pub trait Tracer: Send + Sync + std::fmt::Debug {
    /// Whether events should be built and recorded at all.
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event (ignored by the inert default).
    fn record(&self, _event: TraceEvent) {}

    /// Exports every recorded event as sorted JSONL, when this tracer
    /// retains events (`None` for the inert default).
    fn export_jsonl(&self) -> Option<String> {
        None
    }
}

/// The inert tracer: every session runs under it unless a recording
/// tracer is wired in.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// Tees every event into two tracers. The fleet campaign driver uses
/// this to record each worker's spans into a private per-writer
/// [`RecordingTracer`] (persisted as that writer's telemetry) while the
/// caller's shared tracer keeps seeing the whole campaign live.
/// `export_jsonl` delegates to the *primary* (first) tracer — the
/// secondary is a pass-through sink, not a source.
#[derive(Debug)]
pub struct FanoutTracer {
    primary: Arc<dyn Tracer>,
    secondary: Arc<dyn Tracer>,
}

impl FanoutTracer {
    pub fn new(primary: Arc<dyn Tracer>, secondary: Arc<dyn Tracer>) -> FanoutTracer {
        FanoutTracer { primary, secondary }
    }
}

impl Tracer for FanoutTracer {
    fn enabled(&self) -> bool {
        self.primary.enabled() || self.secondary.enabled()
    }

    fn record(&self, event: TraceEvent) {
        self.primary.record(event.clone());
        self.secondary.record(event);
    }

    fn export_jsonl(&self) -> Option<String> {
        self.primary.export_jsonl()
    }
}

#[derive(Debug, Default)]
struct RecordingState {
    /// Next sequence number per session label.
    seqs: BTreeMap<String, u64>,
    events: Vec<TraceEvent>,
}

/// A tracer that retains every event in memory and exports them as
/// deterministic JSONL: events are stamped with per-session sequence
/// numbers on arrival and exported stably sorted by session label, so
/// the export is invariant to how concurrent sessions interleaved.
#[derive(Debug, Default)]
pub struct RecordingTracer {
    inner: Mutex<RecordingState>,
}

impl RecordingTracer {
    pub fn new() -> RecordingTracer {
        RecordingTracer::default()
    }

    /// Every recorded event, in export order (sorted by session, then
    /// sequence).
    pub fn events(&self) -> Vec<TraceEvent> {
        let state = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut events = state.events.clone();
        events.sort_by(|a, b| a.session.cmp(&b.session).then(a.seq.cmp(&b.seq)));
        events
    }
}

impl Tracer for RecordingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, mut event: TraceEvent) {
        let mut state = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let seq = state.seqs.entry(event.session.clone()).or_insert(0);
        event.seq = *seq;
        *seq += 1;
        state.events.push(event);
    }

    fn export_jsonl(&self) -> Option<String> {
        Some(events_to_jsonl(&self.events()))
    }
}

/// Serializes events to the canonical JSONL form, one
/// [`TraceEvent::to_json`] line each: what a stored trace holds on disk,
/// and what [`parse_trace_jsonl`] reads back byte for byte.
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// Truncates a malformed payload line for an error message: long lines
/// are cut (on a character boundary) so a megabyte of corruption does
/// not flood a CI log, but enough survives to diagnose the line without
/// re-downloading the telemetry.
fn payload_snippet(line: &str) -> String {
    const MAX_CHARS: usize = 120;
    let mut out: String = line.chars().take(MAX_CHARS).collect();
    if out.len() < line.len() {
        out.push_str("… <truncated>");
    }
    out
}

/// Parses trace JSONL, validating each line against the schema: the
/// required `session`/`seq`/`span`/`fields` keys with their types, a
/// span name from `SPAN_TAXONOMY`, and scalar-only field values.
/// Errors carry the 1-based line number and a truncated copy of the
/// offending payload, so malformed telemetry is diagnosable from the
/// error alone (a CI log, say) without the original file at hand.
pub fn parse_trace_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fail =
            |e: String| format!("line {}: {e} — payload: {}", lineno + 1, payload_snippet(line));
        let doc = json::parse(line).map_err(fail)?;
        events.push(event_from_json(&doc).map_err(fail)?);
    }
    Ok(events)
}

fn event_from_json(doc: &JsonValue) -> Result<TraceEvent, String> {
    let span = doc.str("span")?;
    if !SPAN_TAXONOMY.contains(&span) {
        return Err(format!("span {span:?} is not in the taxonomy"));
    }
    let mut out = TraceEvent::new(doc.str("session")?, span);
    out.seq = doc.u64("seq")?;
    for (k, v) in doc.object("fields")? {
        let fv = match v {
            JsonValue::Str(s) => FieldValue::Str(s.clone()),
            JsonValue::Num(x) => v.as_u64().map_or(FieldValue::F64(*x), FieldValue::U64),
            other => return Err(format!("field {k:?} has non-scalar value {other:?}")),
        };
        out.fields.push((k.clone(), fv));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_assigns_per_session_sequence_numbers() {
        let t = RecordingTracer::new();
        t.record(TraceEvent::new("b", "trial").field("iteration", 0u64));
        t.record(TraceEvent::new("a", "trial").field("iteration", 0u64));
        t.record(TraceEvent::new("b", "trial").field("iteration", 1u64));
        let events = t.events();
        assert_eq!(
            events.iter().map(|e| (e.session.as_str(), e.seq)).collect::<Vec<_>>(),
            vec![("a", 0), ("b", 0), ("b", 1)],
            "export sorts by session, seq"
        );
    }

    #[test]
    fn jsonl_round_trips_byte_identically() {
        let t = RecordingTracer::new();
        t.record(
            TraceEvent::new("w/llamatune/smac/s1", "trial")
                .field("iteration", 3u64)
                .field("score", 12.5)
                .field("status", "ok")
                .field("attempts", 1u32),
        );
        t.record(
            TraceEvent::new("w/llamatune/smac/s1", "session.end").field("iterations_run", 4u64),
        );
        let text = t.export_jsonl().unwrap();
        let parsed = parse_trace_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        let reserialized: String = parsed.iter().map(|e| format!("{}\n", e.to_json())).collect();
        assert_eq!(reserialized, text, "parse → serialize must be byte-stable");
        assert_eq!(parsed[0].get_u64("iteration"), Some(3));
        assert_eq!(parsed[0].get_f64("score"), Some(12.5));
        assert_eq!(parsed[0].get_str("status"), Some("ok"));
    }

    #[test]
    fn schema_validation_rejects_unknown_spans_and_bad_types() {
        for bad in [
            r#"{"session":"s","seq":0,"span":"not.a.span","fields":{}}"#,
            r#"{"session":"s","seq":-1,"span":"trial","fields":{}}"#,
            r#"{"session":"s","seq":0,"span":"trial","fields":{"x":[1]}}"#,
            r#"{"seq":0,"span":"trial","fields":{}}"#,
        ] {
            assert!(parse_trace_jsonl(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn parse_errors_carry_line_number_and_payload_snippet() {
        let good = r#"{"session":"s","seq":0,"span":"trial","fields":{}}"#;
        let bad = r#"{"session":"s","seq":1,"span":"not.a.span","fields":{}}"#;
        let err = parse_trace_jsonl(&format!("{good}\n{bad}\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("not.a.span"), "error must quote the span: {err}");
        assert!(err.contains("payload:"), "{err}");
        assert!(err.contains(bad), "short payloads are quoted whole: {err}");

        // A long corrupt line is truncated, not dumped wholesale.
        let long = format!("{{\"session\":\"{}\",\"seq\":0", "x".repeat(4000));
        let err = parse_trace_jsonl(&long).unwrap_err();
        assert!(err.contains("<truncated>"), "{err}");
        assert!(err.len() < 400, "snippet must stay short: {} bytes", err.len());
    }

    #[test]
    fn fanout_tracer_records_into_both_sinks() {
        let a = Arc::new(RecordingTracer::new());
        let b = Arc::new(RecordingTracer::new());
        let tee = FanoutTracer::new(a.clone(), b.clone());
        assert!(tee.enabled());
        tee.record(TraceEvent::new("s", "trial").field("iteration", 0u64));
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 1);
        assert_eq!(tee.export_jsonl(), a.export_jsonl(), "export delegates to the primary");

        let silent = FanoutTracer::new(Arc::new(NoopTracer), Arc::new(NoopTracer));
        assert!(!silent.enabled());
    }

    #[test]
    fn noop_tracer_is_disabled_and_silent() {
        let t = NoopTracer;
        assert!(!t.enabled());
        t.record(TraceEvent::new("s", "trial"));
        assert!(t.export_jsonl().is_none());
    }
}
