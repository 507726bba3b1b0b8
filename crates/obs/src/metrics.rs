//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms with mergeable snapshots.
//!
//! Metrics are the *wall-clock* half of observability — retry counts,
//! phase latencies, optimizer hot-path timings. They are deliberately
//! outside the determinism contract (two identical runs record
//! identical counters but different latencies); anything that must be a
//! pure function of (seed, config) belongs in a [`crate::TraceEvent`]
//! instead.
//!
//! Naming convention: dotted lowercase paths, unit-suffixed histograms.
//! The stack currently records:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `policy.timeouts` | counter | attempts the watchdog timed out |
//! | `policy.retries` | counter | retries launched |
//! | `policy.panics_caught` | counter | panics contained per trial |
//! | `policy.quarantine_hits` | counter | configurations answered from quarantine (once per batch) |
//! | `cache.hits` / `cache.misses` | counter | trials answered with a measured result / configurations of a batch that were not (run, or quarantined) |
//! | `session.suggest_ms` | histogram | optimizer suggest latency per round |
//! | `session.evaluate_ms` | histogram | batch evaluation latency per round |
//! | `session.persist_ms` | histogram | checkpoint-sink latency per trial |
//! | `optim.gp.cholesky_append_ms` | histogram | GP incremental factor update |
//! | `optim.gp.ei_score_ms` | histogram | GP EI candidate scoring |
//! | `optim.gp.append_fallback` | counter | appends rejected (ill-conditioned or non-finite row) → full refit |
//! | `optim.gp.cholesky_ms` | histogram | GP Cholesky factorization (one per hyperparameter draw of a refit) |
//! | `optim.smac.forest_fit_ms` | histogram | SMAC random-forest refit |
//! | `store.cas_retries` | counter | manifest CAS rounds a store handle retried (races lost in a fleet), added when telemetry is persisted |
//!
//! Every metric has one owner. The session driver makes one registry
//! per session and hands it to the session loop, the executor and — via
//! `OptimizerKind::build_in` — the optimizer, so `optim.*` timings land
//! in the session that paid for them; `store.cas_retries` is counted on
//! the store handle that lost the races and joins the snapshot when a
//! campaign persists its telemetry. There is no process-wide registry.

use crate::json;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Default histogram bounds for millisecond latencies (upper bucket
/// edges; one implicit overflow bucket follows the last bound).
pub(crate) const DEFAULT_MS_BOUNDS: [f64; 12] =
    [0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0, 10000.0];

#[derive(Debug, Clone, PartialEq)]
struct Hist {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
}

impl Hist {
    fn new(bounds: &[f64]) -> Hist {
        Hist { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0 }
    }

    fn observe(&mut self, v: f64) {
        let idx = self.bounds.iter().position(|b| v <= *b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Applies `write` to the entry for `name`, creating it from `init` on
/// first sight of the name — the only time the key is allocated (the
/// `entry` API would build a `String` on every write).
fn upsert<V>(
    map: &Mutex<BTreeMap<String, V>>,
    name: &str,
    init: impl FnOnce() -> V,
    write: impl FnOnce(&mut V),
) {
    let mut map = lock(map);
    if let Some(v) = map.get_mut(name) {
        return write(v);
    }
    let mut v = init();
    write(&mut v);
    map.insert(name.to_string(), v);
}

/// A registry of named counters, gauges, and histograms. Cheap to
/// create (three empty maps); thread-safe; snapshot-merging supports
/// fleet-level aggregation.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    hists: Mutex<BTreeMap<String, Hist>>,
    /// Every write is forwarded here too (live campaign-wide registry
    /// behind per-session registries; see [`MetricsRegistry::with_parent`]).
    parent: Option<std::sync::Arc<MetricsRegistry>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// A registry that *forwards* every write to `parent` as well as
    /// recording it locally. The campaign driver hands each session a
    /// forwarding registry over the shared live registry: per-session
    /// snapshots stay scoped to their session, while a scrape of the
    /// parent ([`crate::prometheus_text`] over its snapshot) sees the
    /// whole campaign accumulate in real time. Snapshots never read
    /// through to the parent.
    pub fn with_parent(parent: std::sync::Arc<MetricsRegistry>) -> MetricsRegistry {
        MetricsRegistry { parent: Some(parent), ..MetricsRegistry::default() }
    }

    /// Adds `delta` to the named counter (created at zero).
    pub fn incr(&self, name: &str, delta: u64) {
        upsert(&self.counters, name, || 0, |c| *c += delta);
        if let Some(p) = &self.parent {
            p.incr(name, delta);
        }
    }

    /// Reads a counter (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).copied().unwrap_or(0)
    }

    /// Records one observation into the named histogram (created with
    /// `DEFAULT_MS_BOUNDS` on first use).
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with(name, &DEFAULT_MS_BOUNDS, value);
    }

    /// Records one observation into the named histogram, creating it
    /// with the given bucket bounds on first use.
    pub(crate) fn observe_with(&self, name: &str, bounds: &[f64], value: f64) {
        upsert(&self.hists, name, || Hist::new(bounds), |h| h.observe(value));
        if let Some(p) = &self.parent {
            p.observe_with(name, bounds, value);
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters).clone(),
            gauges: lock(&self.gauges).clone(),
            hists: lock(&self.hists)
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistSnapshot {
                            bounds: h.bounds.clone(),
                            counts: h.counts.clone(),
                            sum: h.sum,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistSnapshot {
    /// Upper bucket edges; `counts` has one extra overflow bucket.
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    /// Sum of every observed value.
    pub sum: f64,
}

impl HistSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observed value (`None` when empty).
    pub(crate) fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum / n as f64)
    }
}

/// A mergeable point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl MetricsSnapshot {
    /// Reads a counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` into `self`: counters and histograms add (gauges
    /// keep the larger value — the only aggregate meaningful without a
    /// timestamp). Histograms with mismatched bounds keep `self`'s
    /// buckets and add only the sum/total, never silently re-bucketing.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            *slot = slot.max(*v);
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
                Some(mine) if mine.bounds == h.bounds => {
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    mine.sum += h.sum;
                }
                Some(mine) => {
                    // Incompatible buckets: fold the overflow only.
                    let n = mine.counts.len() - 1;
                    mine.counts[n] += h.count();
                    mine.sum += h.sum;
                }
            }
        }
    }

    /// Merges many snapshots into one (fleet aggregation).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a MetricsSnapshot>) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// Serializes the snapshot as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":");
        json::write_object(&mut out, &self.counters, |out, v| json::write_u64(out, *v));
        out.push_str(",\"gauges\":");
        json::write_object(&mut out, &self.gauges, |out, v| json::write_f64(out, *v));
        out.push_str(",\"histograms\":");
        json::write_object(&mut out, &self.hists, |out, h| {
            out.push_str("{\"bounds\":");
            json::write_f64_array(out, &h.bounds);
            out.push_str(",\"counts\":");
            json::write_array(out, &h.counts, |out, c| json::write_u64(out, *c));
            out.push_str(",\"sum\":");
            json::write_f64(out, h.sum);
            out.push('}');
        });
        out.push('}');
        out
    }

    /// Parses [`MetricsSnapshot::to_json`] output, validating the
    /// schema (counter values must be non-negative integers, histogram
    /// counts must have exactly one more entry than bounds).
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let doc = json::parse(text)?;
        let mut snap = MetricsSnapshot::default();
        for (k, v) in doc.object("counters")? {
            let v = v.as_u64().ok_or_else(|| format!("counter {k:?} is not a u64"))?;
            snap.counters.insert(k.clone(), v);
        }
        for (k, v) in doc.object("gauges")? {
            let v = v.as_f64().ok_or_else(|| format!("gauge {k:?} is not a number"))?;
            snap.gauges.insert(k.clone(), v);
        }
        for (k, h) in doc.object("histograms")? {
            let at = |e: String| format!("histogram {k:?}: {e}");
            let bounds = h.f64_array("bounds").map_err(at)?;
            let counts = h
                .array("counts")
                .map_err(at)?
                .iter()
                .map(|v| v.as_u64().ok_or_else(|| at("bad count".to_string())))
                .collect::<Result<Vec<u64>, String>>()?;
            if counts.len() != bounds.len() + 1 {
                return Err(at(format!(
                    "{} counts for {} bounds (want bounds+1)",
                    counts.len(),
                    bounds.len()
                )));
            }
            let sum = h.f64("sum").map_err(at)?;
            snap.hists.insert(k.clone(), HistSnapshot { bounds, counts, sum });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl super::MetricsRegistry {
        /// Sets the named gauge to `value`.
        pub(crate) fn gauge_set(&self, name: &str, value: f64) {
            upsert(&self.gauges, name, || value, |g| *g = value);
            if let Some(p) = &self.parent {
                p.gauge_set(name, value);
            }
        }
    }

    #[test]
    fn counters_gauges_and_histograms_record() {
        let m = MetricsRegistry::new();
        m.incr("policy.retries", 2);
        m.incr("policy.retries", 1);
        m.gauge_set("quarantine.len", 4.0);
        m.observe("session.suggest_ms", 0.02);
        m.observe("session.suggest_ms", 200.0);
        let s = m.snapshot();
        assert_eq!(s.counter("policy.retries"), 3);
        assert_eq!(s.gauges["quarantine.len"], 4.0);
        let h = &s.hists["session.suggest_ms"];
        assert_eq!(h.count(), 2);
        assert!((h.sum - 200.02).abs() < 1e-9);
        // 0.02 lands in the (0.01, 0.05] bucket, 200 in (100, 1000].
        assert_eq!(h.counts[2], 1);
        assert_eq!(h.counts[10], 1);
    }

    #[test]
    fn snapshots_merge_additively() {
        let a = MetricsRegistry::new();
        a.incr("c", 1);
        a.observe("h", 0.5);
        let b = MetricsRegistry::new();
        b.incr("c", 2);
        b.incr("d", 5);
        b.observe("h", 2.0);
        let merged = MetricsSnapshot::merged([&a.snapshot(), &b.snapshot()]);
        assert_eq!(merged.counter("c"), 3);
        assert_eq!(merged.counter("d"), 5);
        assert_eq!(merged.hists["h"].count(), 2);
        assert!((merged.hists["h"].sum - 2.5).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let m = MetricsRegistry::new();
        m.incr("policy.timeouts", 7);
        m.gauge_set("cache.len", 12.5);
        m.observe("session.evaluate_ms", 3.25);
        let snap = m.snapshot();
        let text = snap.to_json();
        let parsed = MetricsSnapshot::from_json(&text).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_json(), text, "re-serialization must be byte-stable");
    }

    #[test]
    fn schema_violations_are_rejected() {
        for bad in [
            r#"{"gauges":{},"histograms":{}}"#,
            r#"{"counters":{"c":-1},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{"c":1.5},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1],"counts":[1],"sum":0}}}"#,
        ] {
            assert!(MetricsSnapshot::from_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn forwarding_registries_mirror_writes_into_the_parent() {
        let live = std::sync::Arc::new(MetricsRegistry::new());
        let s1 = MetricsRegistry::with_parent(live.clone());
        let s2 = MetricsRegistry::with_parent(live.clone());
        s1.incr("policy.retries", 2);
        s2.incr("policy.retries", 1);
        s1.observe("session.suggest_ms", 0.5);
        s2.gauge_set("quarantine.len", 3.0);
        // Sessions stay scoped; the parent sees the campaign-wide sum.
        assert_eq!(s1.counter("policy.retries"), 2);
        assert_eq!(s2.counter("policy.retries"), 1);
        assert_eq!(live.counter("policy.retries"), 3);
        let snap = live.snapshot();
        assert_eq!(snap.hists["session.suggest_ms"].count(), 1);
        assert_eq!(snap.gauges["quarantine.len"], 3.0);
        // Parent writes do not leak back down.
        live.incr("policy.retries", 10);
        assert_eq!(s1.counter("policy.retries"), 2);
    }
}
