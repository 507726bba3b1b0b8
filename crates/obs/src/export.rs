//! Live exposition surfaces: Prometheus text-format rendering of
//! metrics snapshots, and per-round progress sinks for a running
//! campaign.
//!
//! Neither surface is a server. [`prometheus_text`] renders the scrape
//! body a `/metrics` endpoint would serve, from any registry snapshot: a
//! session's `CampaignResult::metrics`, or the campaign-wide registry
//! handed in as `CampaignOptions::live_metrics`. [`ProgressSink`]
//! receives one [`ProgressUpdate`] per completed round while the session
//! loop is still running, the live counterpart of the post-hoc
//! [`crate::report`] curves. Neither can perturb a run: rendering only
//! reads a snapshot, and sinks receive values the fold already computed.

use crate::metrics::MetricsSnapshot;
use std::sync::Mutex;

/// `policy.retries` → `llamatune_policy_retries`: Prometheus metric
/// names allow `[a-zA-Z0-9_:]` only.
fn prom_name(namespace: &str, name: &str) -> String {
    let mut out = String::new();
    if !namespace.is_empty() {
        out.push_str(namespace);
        out.push('_');
    }
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Formats a bucket bound for a `le` label (integral values without a
/// trailing `.0`, matching common exporter output).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a [`MetricsSnapshot`] in the Prometheus text exposition
/// format. Output order is deterministic: counters, gauges, histograms,
/// each alphabetical (snapshot maps are ordered).
pub fn prometheus_text(snapshot: &MetricsSnapshot, namespace: &str) -> String {
    let mut out = String::new();
    for (name, v) in &snapshot.counters {
        let n = prom_name(namespace, name);
        out.push_str(&format!("# TYPE {n}_total counter\n{n}_total {v}\n"));
    }
    for (name, v) in &snapshot.gauges {
        let n = prom_name(namespace, name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", prom_f64(*v)));
    }
    for (name, h) in &snapshot.hists {
        let n = prom_name(namespace, name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.counts) {
            cumulative += count;
            out.push_str(&format!("{n}_bucket{{le=\"{}\"}} {cumulative}\n", prom_f64(*bound)));
        }
        cumulative += h.counts.last().copied().unwrap_or(0);
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("{n}_sum {}\n", prom_f64(h.sum)));
        out.push_str(&format!("{n}_count {cumulative}\n"));
    }
    out
}

/// One completed round of a running session, as the fold computed it.
/// `regret` here is *incumbent regret*: `best_so_far - round_best`,
/// zero when the round improved the incumbent (true regret against the
/// final best is only known post-hoc; the report rebuilds that one).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgressUpdate {
    pub session: String,
    /// First iteration of the round.
    pub iteration: u64,
    /// Trials evaluated in the round.
    pub round_size: u64,
    /// Where the round's points came from: `default`, `lhs`, or
    /// `optimizer` (the `round` span's `source` field).
    pub phase: String,
    /// Best penalized score over every completed tuned iteration.
    pub best_so_far: f64,
    /// Best penalized score inside this round.
    pub round_best: f64,
    /// `best_so_far - round_best` (0 when the round set the incumbent).
    pub regret: f64,
    /// Cumulative trials whose status was not `ok`.
    pub failures: u64,
    /// Cumulative evaluation attempts consumed.
    pub attempts: u64,
    /// Cumulative virtual milliseconds evaluated.
    pub virtual_ms: f64,
}

/// Receives one update per completed round, live. Implementations must
/// tolerate concurrent emitters (parallel sessions of one campaign
/// share a sink) and must never panic — monitoring cannot be allowed to
/// kill the run it monitors.
pub trait ProgressSink: Send + Sync + std::fmt::Debug {
    fn emit(&self, update: ProgressUpdate);
}

/// Retains every update in memory — the test double, and the seam a
/// daemon would poll for its status endpoint.
#[derive(Debug, Default)]
pub struct MemoryProgressSink {
    updates: Mutex<Vec<ProgressUpdate>>,
}

impl MemoryProgressSink {
    pub fn new() -> MemoryProgressSink {
        MemoryProgressSink::default()
    }

    /// Every update so far, in stable (session, iteration) order —
    /// emission order across parallel sessions is scheduling-dependent,
    /// the sorted view is not.
    pub fn updates(&self) -> Vec<ProgressUpdate> {
        let mut v = self.updates.lock().unwrap_or_else(|p| p.into_inner()).clone();
        v.sort_by(|a, b| a.session.cmp(&b.session).then(a.iteration.cmp(&b.iteration)));
        v
    }
}

impl ProgressSink for MemoryProgressSink {
    fn emit(&self, update: ProgressUpdate) {
        self.updates.lock().unwrap_or_else(|p| p.into_inner()).push(update);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn prometheus_text_renders_counters_gauges_and_histograms() {
        let m = MetricsRegistry::new();
        m.incr("policy.retries", 3);
        m.gauge_set("cache.len", 4.0);
        m.observe_with("session.suggest_ms", &[1.0, 10.0], 0.5);
        m.observe_with("session.suggest_ms", &[1.0, 10.0], 5.0);
        m.observe_with("session.suggest_ms", &[1.0, 10.0], 50.0);
        let text = prometheus_text(&m.snapshot(), "llamatune");
        assert!(text.contains("# TYPE llamatune_policy_retries_total counter\n"));
        assert!(text.contains("llamatune_policy_retries_total 3\n"));
        assert!(text.contains("# TYPE llamatune_cache_len gauge\n"));
        assert!(text.contains("llamatune_cache_len 4\n"));
        // Buckets are cumulative and close with +Inf.
        assert!(text.contains("llamatune_session_suggest_ms_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("llamatune_session_suggest_ms_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("llamatune_session_suggest_ms_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("llamatune_session_suggest_ms_sum 55.5\n"));
        assert!(text.contains("llamatune_session_suggest_ms_count 3\n"));
    }

    #[test]
    fn exporter_scrapes_the_live_registry() {
        // Each scrape renders the registry as it stands, not as it stood
        // at the first scrape.
        let registry = MetricsRegistry::new();
        let scrape = || prometheus_text(&registry.snapshot(), "llamatune");
        assert_eq!(scrape(), "");
        registry.incr("cache.hits", 2);
        assert!(scrape().contains("llamatune_cache_hits_total 2\n"));
        registry.incr("cache.hits", 1);
        assert!(scrape().contains("llamatune_cache_hits_total 3\n"));
    }

    #[test]
    fn memory_sink_sorts_updates_stably() {
        let sink = MemoryProgressSink::new();
        sink.emit(ProgressUpdate { session: "b".into(), iteration: 0, ..Default::default() });
        sink.emit(ProgressUpdate { session: "a".into(), iteration: 3, ..Default::default() });
        sink.emit(ProgressUpdate { session: "a".into(), iteration: 0, ..Default::default() });
        let order: Vec<(String, u64)> =
            sink.updates().into_iter().map(|u| (u.session, u.iteration)).collect();
        assert_eq!(order, [("a".into(), 0), ("a".into(), 3), ("b".into(), 0)]);
    }
}
