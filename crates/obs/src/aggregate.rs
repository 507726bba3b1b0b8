//! Fleet telemetry aggregation: merging per-writer traces and metrics
//! into one campaign-wide view.
//!
//! A fleet campaign (`Campaign::run_fleet`) persists one
//! telemetry pair per store writer — `telemetry-<tag>.trace.jsonl` and
//! `telemetry-<tag>.metrics.json` — holding exactly the spans, the
//! counters and the timings (`optim.*` included) of the sessions that
//! worker ran, plus the `store.cas_retries` of its store handle — and
//! nothing else: the campaign view is never stored, this module
//! rebuilds it from those pairs on read:
//!
//! * [`merge_traces`] — the deterministic union of every session's span
//!   stream, in stable `(session, seq)` order. Which worker ran which
//!   session is scheduling noise, so the merge is **byte-identical at
//!   every worker count**: each session's stream is recorded whole by
//!   the one worker that held its lease, per-session sequence numbers
//!   are assigned in the session's own fold order, and `store.*` spans
//!   are excluded — they name writer-private segments (`seg-w3-…`),
//!   which *does* depend on scheduling, so they stay in the per-writer
//!   files where that attribution is the point.
//! * [`TelemetrySet::merged_metrics`] — the additive fold of every
//!   writer's snapshot ([`MetricsSnapshot::merge`] semantics: counters
//!   and histograms add, gauges keep the maximum).
//! * [`TelemetrySet::load_dir`] — reads every `telemetry-*` pair out of
//!   a store directory, one [`WriterTelemetry`] per tag.
//!
//! If a worker died mid-session and another finished the session after
//! takeover, two writers carry streams for the same session label. The
//! merge keeps exactly one — the *owner* stream: the one that reached
//! `session.end`, else the longest, with the lexicographically smallest
//! writer tag as the deterministic tie-break. Partial streams are
//! superseded, never interleaved (a resumed session replays its prefix,
//! so the finishing worker's stream is complete on its own).

use crate::metrics::MetricsSnapshot;
use crate::trace::{parse_trace_jsonl, TraceEvent};
use std::collections::BTreeMap;
use std::path::Path;

/// One store writer's telemetry: its recorded spans and its metrics
/// snapshot, tagged with the writer name (`w0`, `w1`, … for fleet
/// workers; `local` for a campaign resumed into `TrialStore::open`).
#[derive(Debug, Clone, Default)]
pub struct WriterTelemetry {
    pub writer: String,
    pub events: Vec<TraceEvent>,
    pub metrics: MetricsSnapshot,
}

/// Every writer's telemetry of one stored campaign, ready to merge.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySet {
    /// Per-writer telemetry, sorted by writer tag.
    pub writers: Vec<WriterTelemetry>,
}

impl TelemetrySet {
    /// Loads every `telemetry-<tag>.trace.jsonl` /
    /// `telemetry-<tag>.metrics.json` pair from a store directory, one
    /// writer per tag (the `local` pair included). A tag may have either
    /// half missing (empty events / default snapshot). Errors on
    /// unreadable files, schema-invalid telemetry, or a directory with no
    /// telemetry at all.
    pub fn load_dir(dir: &Path) -> Result<TelemetrySet, String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        let mut tags: BTreeMap<String, (Option<String>, Option<String>)> = BTreeMap::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(rest) = name.strip_prefix("telemetry-") else { continue };
            let (tag, slot) = if let Some(tag) = rest.strip_suffix(".trace.jsonl") {
                (tag.to_string(), 0)
            } else if let Some(tag) = rest.strip_suffix(".metrics.json") {
                (tag.to_string(), 1)
            } else {
                continue;
            };
            let text =
                std::fs::read_to_string(entry.path()).map_err(|e| format!("read {name}: {e}"))?;
            let pair = tags.entry(tag).or_default();
            if slot == 0 {
                pair.0 = Some(text);
            } else {
                pair.1 = Some(text);
            }
        }
        if tags.is_empty() {
            return Err(format!("no telemetry-* objects in {}", dir.display()));
        }
        let mut writers = Vec::with_capacity(tags.len());
        for (tag, (trace, metrics)) in tags {
            let events = match trace {
                Some(text) => parse_trace_jsonl(&text)
                    .map_err(|e| format!("telemetry-{tag}.trace.jsonl: {e}"))?,
                None => Vec::new(),
            };
            let metrics = match metrics {
                Some(text) => MetricsSnapshot::from_json(&text)
                    .map_err(|e| format!("telemetry-{tag}.metrics.json: {e}"))?,
                None => MetricsSnapshot::default(),
            };
            writers.push(WriterTelemetry { writer: tag, events, metrics });
        }
        Ok(TelemetrySet { writers })
    }

    /// The merged deterministic trace (`merge_traces`).
    pub fn merged_events(&self) -> Vec<TraceEvent> {
        merge_traces(&self.writers)
    }

    /// Every writer's metrics snapshot folded into one (counters and
    /// histograms add; gauges keep the maximum).
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::merged(self.writers.iter().map(|w| &w.metrics))
    }
}

/// Does `candidate` supersede `incumbent` as a session's owner stream?
fn supersedes(candidate: (&str, &[&TraceEvent]), incumbent: (&str, &[&TraceEvent])) -> bool {
    let ended = |stream: &[&TraceEvent]| stream.iter().any(|e| e.span == "session.end");
    let (c_end, i_end) = (ended(candidate.1), ended(incumbent.1));
    if c_end != i_end {
        return c_end;
    }
    if candidate.1.len() != incumbent.1.len() {
        return candidate.1.len() > incumbent.1.len();
    }
    candidate.0 < incumbent.0
}

/// Merges per-writer traces into the fleet view: one owner stream per
/// session (see the module docs for the takeover rule), `store.*` spans
/// excluded, output in stable `(session, seq)` order. Byte-identical
/// regardless of how sessions were distributed over writers.
pub(crate) fn merge_traces(writers: &[WriterTelemetry]) -> Vec<TraceEvent> {
    let mut owners: BTreeMap<&str, (&str, Vec<&TraceEvent>)> = BTreeMap::new();
    for w in writers {
        let mut per: BTreeMap<&str, Vec<&TraceEvent>> = BTreeMap::new();
        for e in &w.events {
            if e.span.starts_with("store.") {
                continue;
            }
            per.entry(e.session.as_str()).or_default().push(e);
        }
        for (session, stream) in per {
            match owners.get_mut(session) {
                None => {
                    owners.insert(session, (w.writer.as_str(), stream));
                }
                Some(current) => {
                    if supersedes((w.writer.as_str(), &stream), (current.0, &current.1)) {
                        *current = (w.writer.as_str(), stream);
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    for (_, (_, mut stream)) in owners {
        stream.sort_by_key(|e| e.seq);
        out.extend(stream.into_iter().cloned());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::{events_to_jsonl, RecordingTracer, Tracer};

    /// Records session `s`'s canonical little stream into `t`,
    /// `complete` meaning it reached `session.end`.
    fn record_session(t: &RecordingTracer, s: &str, complete: bool) {
        t.record(TraceEvent::new(s, "session.start").field("iterations", 2u64));
        t.record(TraceEvent::new(s, "store.append").field("object", "seg-writer-dependent"));
        t.record(TraceEvent::new(s, "trial").field("iteration", 0u64).field("score", 1.0));
        if complete {
            t.record(TraceEvent::new(s, "trial").field("iteration", 1u64).field("score", 2.0));
            t.record(TraceEvent::new(s, "session.end").field("iterations_run", 2u64));
        }
    }

    fn writer(tag: &str, sessions: &[(&str, bool)]) -> WriterTelemetry {
        let t = RecordingTracer::new();
        for (s, complete) in sessions {
            record_session(&t, s, *complete);
            // Worker-local storage noise: must never reach the merge.
            t.record(
                TraceEvent::new("store", "store.rotate").field("sealed", format!("seg-{tag}")),
            );
        }
        WriterTelemetry {
            writer: tag.to_string(),
            events: t.events(),
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn merge_is_invariant_to_session_distribution() {
        // Three sessions on one writer vs split across three: same view.
        let one = [writer("w0", &[("a", true), ("b", true), ("c", true)])];
        let three = [
            writer("w0", &[("b", true)]),
            writer("w1", &[("c", true)]),
            writer("w2", &[("a", true)]),
        ];
        let merged_one = events_to_jsonl(&merge_traces(&one));
        let merged_three = events_to_jsonl(&merge_traces(&three));
        assert_eq!(merged_one, merged_three, "merge must not depend on worker assignment");
        assert!(!merged_one.contains("store."), "storage spans are worker-local");
        assert!(merged_one.contains("session.end"));
    }

    #[test]
    fn takeover_keeps_the_completing_writers_stream_only() {
        // w0 died mid-session "a"; w1 resumed and finished it.
        let parts = [writer("w0", &[("a", false)]), writer("w1", &[("a", true)])];
        let merged = merge_traces(&parts);
        let ends = merged.iter().filter(|e| e.span == "session.end").count();
        assert_eq!(ends, 1);
        let trials = merged.iter().filter(|e| e.span == "trial").count();
        assert_eq!(trials, 2, "the complete stream, not the union: {merged:?}");
        // Equal partial streams: lexicographically-smallest tag wins, so
        // the pick is deterministic whatever the load order.
        let parts = [writer("w1", &[("a", false)]), writer("w0", &[("a", false)])];
        let merged = merge_traces(&parts);
        assert_eq!(merged, merge_traces(&[parts[1].clone(), parts[0].clone()]));
    }

    #[test]
    fn metrics_merge_adds_counters_across_writers() {
        let snap = |n: u64| {
            let m = MetricsRegistry::new();
            m.incr("policy.retries", n);
            m.observe("session.evaluate_ms", n as f64);
            m.snapshot()
        };
        let set = TelemetrySet {
            writers: vec![
                WriterTelemetry { writer: "w0".into(), events: vec![], metrics: snap(2) },
                WriterTelemetry { writer: "w1".into(), events: vec![], metrics: snap(3) },
            ],
        };
        let merged = set.merged_metrics();
        assert_eq!(merged.counter("policy.retries"), 5);
        assert_eq!(merged.hists["session.evaluate_ms"].count(), 2);
    }

    #[test]
    fn load_dir_reads_every_telemetry_pair() {
        let dir = std::env::temp_dir()
            .join("llamatune_obs_aggregate")
            .join(format!("load_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let w0 = writer("w0", &[("a", true)]);
        let w1 = writer("w1", &[("b", true)]);
        for w in [&w0, &w1] {
            std::fs::write(
                dir.join(format!("telemetry-{}.trace.jsonl", w.writer)),
                events_to_jsonl(&w.events),
            )
            .unwrap();
            std::fs::write(
                dir.join(format!("telemetry-{}.metrics.json", w.writer)),
                w.metrics.to_json(),
            )
            .unwrap();
        }
        // The store files a traced fleet leaves beside its telemetry
        // must be ignored: the manifest and each writer's segment.
        let manifest =
            "llamatune-store v1\nactive seg-w0-000001.jsonl\nactive seg-w1-000002.jsonl\n";
        std::fs::write(dir.join("MANIFEST"), manifest).unwrap();
        for (tag, seg) in [("w0", "seg-w0-000001.jsonl"), ("w1", "seg-w1-000002.jsonl")] {
            let meta = format!(
                "{{\"kind\":\"session\",\"session\":\"{tag}\",\"workload\":\"ycsb_a\",\
                 \"adapter\":\"identity/s1\",\"status\":\"running\",\"stopped_at\":null,\
                 \"fingerprint\":[],\"warm_points\":[],\"lease\":\"{tag}\"}}\n"
            );
            std::fs::write(dir.join(seg), meta).unwrap();
        }

        let set = TelemetrySet::load_dir(&dir).unwrap();
        let tags: Vec<&str> = set.writers.iter().map(|w| w.writer.as_str()).collect();
        assert_eq!(tags, ["w0", "w1"]);
        let merged = events_to_jsonl(&merge_traces(&[w0, w1]));
        assert_eq!(events_to_jsonl(&set.merged_events()), merged);

        assert!(TelemetrySet::load_dir(&dir.join("missing")).is_err());
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(TelemetrySet::load_dir(&empty).unwrap_err().contains("no telemetry"));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
