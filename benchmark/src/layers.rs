//! Per-layer metrics: what the traced seams saw, folded by layer.
//!
//! A traced run reports every name in [`PER_LAYER`]. A metric comes from
//! the selected workload's own spans when that workload exercises the
//! layer, and otherwise from a smoke-sized traced pass of another
//! workload (the *fill*), so a time is always a measurement. Shares are
//! the exception: they are always of the selected workload, and read 0
//! where the layer is absent — which is the claim "absent" makes.

use crate::seams::{overhead_us_per_trial, EngineCounts};
use crate::session::{Cell, CellOutcome};
use crate::stats::{median, percentile};
use crate::trace::{SessionTrace, SpanTotals};
use llamatune_obs::MetricsSnapshot;
use llamatune_runtime::AdapterKind;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// `(name, unit, better)` of every per-layer metric, as in
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("space.catalog_build_us", "us", "lower"),
    ("core.adapter_build_us", "us", "lower"),
    ("core.decode_us", "us", "lower"),
    ("core.decode_identity_us", "us", "lower"),
    ("core.fold_self_us", "us", "lower"),
    ("core.round_overhead_us_p95", "us", "lower"),
    ("core.jsonl_encode_us_per_trial", "us", "lower"),
    ("core.jsonl_parse_us_per_trial", "us", "lower"),
    ("optim.smac.suggest_us", "us", "lower"),
    ("optim.smac.observe_us", "us", "lower"),
    ("optim.smac.share", "ratio", "lower"),
    ("optim.gp_bo.suggest_us", "us", "lower"),
    ("optim.gp_bo.observe_us", "us", "lower"),
    ("optim.gp_bo.share", "ratio", "lower"),
    ("optim.ddpg.suggest_us", "us", "lower"),
    ("optim.ddpg.observe_us", "us", "lower"),
    ("optim.ddpg.share", "ratio", "lower"),
    ("optim.smac_identity.suggest_us", "us", "lower"),
    ("optim.smac_identity.share", "ratio", "lower"),
    ("optim.snapshot_restore_us", "us", "lower"),
    ("math.cholesky_n200_us", "us", "lower"),
    ("math.cholesky_append_n200_us", "us", "lower"),
    ("runtime.liar_self_us", "us", "lower"),
    ("runtime.executor_self_us", "us", "lower"),
    ("runtime.cache_hit_share", "ratio", "higher"),
    ("runtime.session_start_us", "us", "lower"),
    ("workloads.evaluate_ms.ycsb_a", "ms", "lower"),
    ("workloads.evaluate_ms.tpcc", "ms", "lower"),
    ("workloads.fingerprint_us", "us", "lower"),
    ("engine.sim_txns_per_s", "1/s", "higher"),
    ("engine.wall_share", "ratio", "lower"),
    ("engine.crash_share", "ratio", "lower"),
    ("store.append_trial_us", "us", "lower"),
    ("store.append_trial_us_p95", "us", "lower"),
    ("store.append_session_us", "us", "lower"),
    ("store.bytes_per_trial", "bytes", "lower"),
    ("store.wall_share", "ratio", "lower"),
    ("store.open_us_per_record", "us", "lower"),
    ("store.rebuild_us_per_record", "us", "lower"),
    ("store.export_us_per_record", "us", "lower"),
    ("store.warm_points_us", "us", "lower"),
    ("store.compact_ms", "ms", "lower"),
    ("server.wire_encode_us", "us", "lower"),
    ("server.wire_decode_us", "us", "lower"),
    ("server.registry_round_us", "us", "lower"),
    ("server.wire_share", "ratio", "lower"),
    ("server.wall_share", "ratio", "lower"),
    ("server.c2_over_c1", "ratio", "higher"),
    ("client.ping_us", "us", "lower"),
    ("client.create_session_us", "us", "lower"),
    ("client.suggest_batch_us", "us", "lower"),
    ("client.suggest_batch_us_p95", "us", "lower"),
    ("client.report_us", "us", "lower"),
    ("client.export_history_us", "us", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.recording_overhead_pct", "%", "lower"),
    ("obs.phase_gap_pct", "%", "lower"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Spans that start a unit of a workload's work; their durations sum to
/// the thread time a layer's share is taken of. Probes recorded outside
/// them are off that clock.
const ROOTS: [&str; 3] = ["session", "resume.pass", "client.session"];

const STORE_SPANS: [&str; 7] = [
    "store.append_trial",
    "store.append_session",
    "store.open",
    "store.trials_for",
    "store.rebuild_history",
    "store.export",
    "store.warm_points",
];

const CLIENT_CALLS: [&str; 4] =
    ["client.create_session", "client.suggest_batch", "client.report", "client.export_history"];

/// One session phase as the program's histogram and as the benchmark's
/// spans summed it, milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct PhaseGap {
    pub phase: &'static str,
    pub inside_ms: f64,
    pub outside_ms: f64,
}

/// Everything the traced passes of one workload recorded.
#[derive(Debug, Default)]
pub struct Aggregates {
    groups: BTreeMap<String, SpanTotals>,
    /// Trials folded by traced in-process sessions.
    fold_trials: u64,
    overhead_us: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    engine_evaluations: u64,
    engine_crashes: u64,
    engine_txns: u64,
    /// The program's own `session.*_ms` histograms, merged.
    program: MetricsSnapshot,
    /// Bytes on disk and trial records of the stores passes wrote or read.
    pub store_bytes: u64,
    pub store_records: u64,
    /// Measurements that are not spans, by metric name; reported as
    /// their median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The traces folded in, until the caller takes them for the span
    /// file.
    pub traces: Vec<Arc<SessionTrace>>,
}

impl Aggregates {
    /// Folds in a trace that is not an in-process session (a client
    /// connection, a resume pass).
    pub fn add_trace(&mut self, trace: Arc<SessionTrace>) {
        self.groups.entry("all".to_string()).or_default().add(&trace.spans());
        self.traces.push(trace);
    }

    /// Folds one traced in-process session in, under every group it
    /// belongs to: its adapter, its optimizer arm, whether the constant
    /// liar wraps it, whether a store backs it, and for the real
    /// evaluator the workload it ran.
    pub fn add_session(
        &mut self,
        trace: Arc<SessionTrace>,
        cell: &Cell<'_>,
        outcome: &CellOutcome,
        engine: &EngineCounts,
    ) {
        let identity = matches!(cell.spec.adapter, AdapterKind::Identity);
        let arm = cell.spec.optimizer.label();
        let arm = if identity { format!("{arm}_identity") } else { arm.to_string() };
        let mut groups = vec!["all", cell.spec.adapter.label(), &arm];
        if cell.opts.constant_liar && (cell.store.is_some() || cell.opts.batch_size > 1) {
            groups.push("liar");
        }
        if cell.store.is_some() {
            groups.push("stored");
        }
        if cell.synthetic.is_none() {
            groups.extend(["real", &cell.spec.workload]);
        }
        let spans = trace.spans();
        for g in groups {
            self.groups.entry(g.to_string()).or_default().add(&spans);
        }
        self.traces.push(trace);
        self.fold_trials += outcome.history.scores.len() as u64;
        self.overhead_us.extend(overhead_us_per_trial(&outcome.rounds));
        if let Some(cache) = outcome.cache {
            self.cache_hits += cache.hits;
            self.cache_misses += cache.misses;
        }
        self.engine_evaluations += engine.evaluations.load(Ordering::Relaxed);
        self.engine_crashes += engine.crashes.load(Ordering::Relaxed);
        self.engine_txns += engine.txns.load(Ordering::Relaxed);
        self.program.merge(&outcome.metrics);
    }

    pub fn merge(&mut self, other: Aggregates) {
        for (g, totals) in other.groups {
            self.groups.entry(g).or_default().merge(totals);
        }
        self.fold_trials += other.fold_trials;
        self.overhead_us.extend(other.overhead_us);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.engine_evaluations += other.engine_evaluations;
        self.engine_crashes += other.engine_crashes;
        self.engine_txns += other.engine_txns;
        self.program.merge(&other.program);
        self.store_bytes += other.store_bytes;
        self.store_records += other.store_records;
        for (name, s) in other.samples {
            self.samples.entry(name).or_default().extend(s);
        }
        self.traces.extend(other.traces);
    }

    fn group(&self, name: &str) -> &SpanTotals {
        static EMPTY: std::sync::OnceLock<SpanTotals> = std::sync::OnceLock::new();
        self.groups.get(name).unwrap_or_else(|| EMPTY.get_or_init(SpanTotals::default))
    }

    /// Thread time of the workload's units of work, microseconds.
    fn busy_us(&self) -> f64 {
        ROOTS.iter().map(|r| self.group("all").total_us(r)).sum()
    }

    /// Every per-call, per-trial and per-record metric these aggregates
    /// have samples for. Names without samples are left out, so the
    /// caller can take them from another workload's aggregates.
    pub fn timings(&self) -> Values {
        let mut out = Values::new();
        let all = self.group("all");
        let mut med = |name: &'static str, samples: &[f64], scale: f64| {
            if let Some(m) = median(samples) {
                out.insert(name, m * scale);
            }
        };
        med("core.adapter_build_us", all.samples("adapter.build"), 1.0);
        med("core.decode_us", self.group("llamatune").samples("adapter.decode"), 1.0);
        med("core.decode_identity_us", self.group("identity").samples("adapter.decode"), 1.0);
        for (arm, suggest, observe) in [
            ("smac", "optim.smac.suggest_us", "optim.smac.observe_us"),
            ("gp_bo", "optim.gp_bo.suggest_us", "optim.gp_bo.observe_us"),
            ("ddpg", "optim.ddpg.suggest_us", "optim.ddpg.observe_us"),
        ] {
            med(suggest, self.group(arm).samples("opt.suggest"), 1.0);
            med(observe, self.group(arm).samples("opt.observe"), 1.0);
        }
        med(
            "optim.smac_identity.suggest_us",
            self.group("smac_identity").samples("opt.suggest"),
            1.0,
        );
        med("workloads.evaluate_ms.ycsb_a", self.group("ycsb_a").samples("engine.evaluate"), 1e-3);
        med("workloads.evaluate_ms.tpcc", self.group("tpcc").samples("engine.evaluate"), 1e-3);
        med("workloads.fingerprint_us", all.samples("workloads.fingerprint"), 1.0);
        med("store.append_trial_us", all.samples("store.append_trial"), 1.0);
        med("store.append_session_us", all.samples("store.append_session"), 1.0);
        med("store.warm_points_us", all.samples("store.warm_points"), 1.0);
        for (name, samples) in &self.samples {
            med(name, samples, 1.0);
        }
        med("client.ping_us", all.samples("client.ping"), 1.0);
        med("client.create_session_us", all.samples("client.create_session"), 1.0);
        med("client.suggest_batch_us", all.samples("client.suggest_batch"), 1.0);
        med("client.report_us", all.samples("client.report"), 1.0);
        med("client.export_history_us", all.samples("client.export_history"), 1.0);
        // Session start: everything `run_with_executor` does around the
        // fold. Each stored session has one `session` and one `fold`
        // span, recorded in the same order.
        let stored = self.group("stored");
        let starts: Vec<f64> = stored
            .samples("session")
            .iter()
            .zip(stored.samples("fold"))
            .map(|(s, f)| s - f)
            .collect();
        med("runtime.session_start_us", &starts, 1.0);

        let mut p95 = |name: &'static str, samples: &[f64]| {
            if let Some(p) = percentile(samples, 0.95) {
                out.insert(name, p);
            }
        };
        p95("core.round_overhead_us_p95", &self.overhead_us);
        p95("store.append_trial_us_p95", all.samples("store.append_trial"));
        p95("client.suggest_batch_us_p95", all.samples("client.suggest_batch"));

        let mut ratio = |name: &'static str, num: f64, den: f64| {
            if den > 0.0 {
                out.insert(name, num / den);
            }
        };
        ratio("core.fold_self_us", all.self_total_us("fold"), self.fold_trials as f64);
        // The liar's own work per round: outer optimizer calls minus the
        // raw optimizer calls inside them (fantasize + retract).
        let liar = self.group("liar");
        ratio(
            "runtime.liar_self_us",
            liar.self_total_us("opt.suggest") + liar.self_total_us("opt.observe"),
            liar.samples("opt.suggest").len() as f64,
        );
        let real = self.group("real");
        ratio(
            "runtime.executor_self_us",
            real.self_total_us("exec.run_batch"),
            real.samples("exec.run_batch").len() as f64,
        );
        ratio(
            "runtime.cache_hit_share",
            self.cache_hits as f64,
            (self.cache_hits + self.cache_misses) as f64,
        );
        let engine_wall_s = real.covered_us("exec.run_batch") / 1e6;
        ratio("engine.sim_txns_per_s", self.engine_txns as f64, engine_wall_s);
        ratio("engine.crash_share", self.engine_crashes as f64, self.engine_evaluations as f64);
        ratio("store.bytes_per_trial", self.store_bytes as f64, self.store_records as f64);
        let records = self.store_records as f64;
        if all.total_us("store.open") > 0.0 {
            ratio("store.open_us_per_record", all.total_us("store.open"), records);
            ratio(
                "store.rebuild_us_per_record",
                all.total_us("store.trials_for") + all.total_us("store.rebuild_history"),
                records,
            );
            ratio("store.export_us_per_record", all.total_us("store.export"), records);
        }
        let gp = self.group("gp_bo");
        if let (Some(s), Some(r)) =
            (median(gp.samples("opt.inner.snapshot")), median(gp.samples("opt.inner.restore")))
        {
            out.insert("optim.snapshot_restore_us", s + r);
        }
        let gaps = self.phase_gaps();
        let inside_ms: f64 = gaps.iter().map(|g| g.inside_ms).sum();
        if inside_ms > 0.0 {
            let apart_ms: f64 = gaps.iter().map(|g| (g.outside_ms - g.inside_ms).abs()).sum();
            out.insert("obs.phase_gap_pct", apart_ms / inside_ms * 100.0);
        }
        out
    }

    /// Each layer's share of the selected workload's thread time; 0 for
    /// a layer the workload does not run.
    pub fn shares(&self) -> Values {
        let busy = self.busy_us();
        let all = self.group("all");
        let share = |us: f64| if busy > 0.0 { us / busy } else { 0.0 };
        let optim = |arm: &str| {
            let g = self.group(arm);
            share(g.total_us("opt.suggest") + g.total_us("opt.observe"))
        };
        Values::from([
            ("optim.smac.share", optim("smac")),
            ("optim.gp_bo.share", optim("gp_bo")),
            ("optim.ddpg.share", optim("ddpg")),
            ("optim.smac_identity.share", optim("smac_identity")),
            ("engine.wall_share", share(self.group("real").covered_us("exec.run_batch"))),
            ("store.wall_share", share(STORE_SPANS.iter().map(|s| all.total_us(s)).sum())),
            ("server.wall_share", share(CLIENT_CALLS.iter().map(|s| all.total_us(s)).sum())),
        ])
    }

    /// The benchmark's outside split against the program's own
    /// `session.*_ms` phase histograms, for every phase the program
    /// recorded. `obs.phase_gap_pct` is how far the two are apart over
    /// all phases, as a share of the program's total: a phase of a few
    /// microseconds cannot make bench and telemetry "disagree".
    pub fn phase_gaps(&self) -> Vec<PhaseGap> {
        let all = self.group("all");
        [
            ("suggest", "session.suggest_ms", "opt.suggest"),
            ("evaluate", "session.evaluate_ms", "exec.run_batch"),
            ("persist", "session.persist_ms", "store.append_trial"),
        ]
        .into_iter()
        .filter_map(|(phase, hist, span)| {
            let inside_ms = self.program.hists.get(hist)?.sum;
            Some(PhaseGap { phase, inside_ms, outside_ms: all.total_us(span) / 1e3 })
        })
        .collect()
    }

    /// The client-observed round: median blocked time in `suggest_batch`
    /// plus `report`.
    pub fn client_round_us(&self) -> Option<f64> {
        let all = self.group("all");
        Some(median(all.samples("client.suggest_batch"))? + median(all.samples("client.report"))?)
    }
}
