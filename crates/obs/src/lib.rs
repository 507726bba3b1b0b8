//! # llamatune-obs: deterministic tracing, metrics, and reporting
//!
//! The observability substrate of the tuning stack. Three pieces:
//!
//! * **Tracing** ([`trace`]) — a [`Tracer`] trait recording structured,
//!   hierarchical span events (campaign → round → trial → attempt,
//!   optimizer suggest/observe/degrade, store append/rotate/compact,
//!   cache lookups, quarantine commits). Events carry only
//!   deterministic fields — iteration indices, *virtual*-clock
//!   durations, scores, statuses — and are emitted from the session
//!   loop's fold path in iteration order, so a recorded trace is a pure
//!   function of (seed, config): byte-identical across trial-worker
//!   counts and session-parallelism levels. Wall-clock time never
//!   appears in a trace event; it lives in the metrics registry, which
//!   is explicitly outside the determinism contract.
//! * **Metrics** ([`MetricsRegistry`]) — a registry of named counters, gauges,
//!   and fixed-bucket histograms with mergeable snapshots. It absorbs
//!   the runtime crate's former `FaultStats` counters (`policy.*`) and
//!   adds per-phase session latencies (`session.*_ms`) and optimizer
//!   hot-path timings (`optim.*`), all in the registry of the session
//!   that paid for them — no registry is process-wide.
//! * **Reporting** ([`build_report`], [`fmt`]) — a schema-validating trace
//!   parser, one table renderer shared by bench output (every
//!   `BENCH_*.json` table is printed through it, from the rows it
//!   records) and session reports, and the `llamatune-report` binary,
//!   which rebuilds best-so-far and regret curves, fault and hot-path
//!   totals and each round's virtual-clock critical path from a store
//!   directory's telemetry alone.
//! * **Fleet aggregation** ([`TelemetrySet`]) — merges the per-writer
//!   telemetry pairs a fleet campaign persists into one campaign view:
//!   traces in stable `(session, seq)` order (byte-identical at every
//!   worker count), metrics snapshots folded additively.
//! * **Live exposition** — [`prometheus_text`] renders a
//!   registry snapshot as a Prometheus text-format scrape body, and
//!   [`ProgressSink`] receives one summary per completed round while a
//!   campaign runs.
//! * **The regression rule** ([`gate`]) — a [`Check`] per measurement,
//!   which regresses past 2x its baseline plus an absolute slack, and
//!   one renderer; `bench_gate` (over `BENCH_*.json` artifacts) and
//!   `llamatune-report diff` (over two stored telemetry sets) both judge
//!   through it.
//!
//! Instrumentation is strictly out-of-band: with tracing enabled or
//! disabled, recorded histories and checkpoints are bit-identical
//! (pinned by `crates/runtime/tests/observability.rs`), and the inert
//! [`NoopTracer`] costs one virtual call returning a constant on the
//! hot path.

mod aggregate;
mod export;
pub mod fmt;
pub mod gate;
pub mod json;
mod metrics;
mod report;
pub mod trace;

pub use aggregate::TelemetrySet;
pub use export::{prometheus_text, MemoryProgressSink, ProgressSink, ProgressUpdate};
pub use gate::{telemetry_checks, Check};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use report::{build_report, render_report, Report};
pub use trace::{parse_trace_jsonl, FanoutTracer, NoopTracer, RecordingTracer, TraceEvent, Tracer};
