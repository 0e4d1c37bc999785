//! Workspace telemetry: metrics, structured tracing, latency rings, and the
//! workspace's JSON codec.
//!
//! Every crate in the workspace that wants to *observe itself* goes through
//! this one: it has no dependencies, costs one branch when disabled, and
//! never changes a result — the whole layer is write-only from the
//! estimator's point of view, so the bit-exact determinism contract of the
//! DIPE sessions is untouched by attaching or detaching it.
//!
//! Four pieces:
//!
//! * [`metrics`] — a registry of named atomic [`Counter`]s, [`Gauge`]s and
//!   log-linear-bucket [`Histogram`]s with Prometheus-style text
//!   [exposition](MetricsRegistry::render_prometheus). A [`Metrics`] handle
//!   is either backed by a registry or [disabled](Metrics::disabled); the
//!   disabled handle is a static no-op, so instrumented hot paths pay a
//!   single branch (CI asserts the measured-cycle bench regresses by less
//!   than 2 % with telemetry disabled).
//! * [`trace`] — structured estimation tracing as JSON-lines. A [`Tracer`]
//!   wraps an optional shared [`TraceSink`]; [`Tracer::emit`] takes a
//!   closure so disabled tracing never even formats the event. Events carry
//!   a versioned `trace_version` field ([`TRACE_VERSION`]) and encode every
//!   floating-point quantity both human-readably and as exact IEEE-754 bits,
//!   so an estimation run can be reconstructed from its trace bit-for-bit.
//!   Sinks: [`FileSink`] (CLI `--trace`), [`BufferSink`] (the `dipe-serve`
//!   per-job trace buffer behind the `trace` RPC), and any user impl.
//! * [`json`] — the one JSON codec every crate reads and writes through: the
//!   [`Json`] value (numbers kept as raw text, so 64-bit integers and IEEE
//!   bit patterns survive exactly), a bounded parser that runs in linear
//!   time, and one writer with a single-line layout (wire, traces,
//!   checkpoints) and an indented one (`--json` reports, `BENCH_*.json`).
//!   Trace lines stream through the same escaper and number rule.
//! * [`latency`] — a fixed-capacity [`LatencyRing`] of recent observations
//!   with exact order-statistic quantiles (p50/p95 of the retained window),
//!   backing the service's job-latency metrics.
//!
//! # Example
//!
//! ```
//! use telemetry::{BufferSink, Metrics, MetricsRegistry, Tracer};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let metrics = Metrics::on(registry.clone());
//! metrics.counter("jobs_completed").add(3);
//!
//! let sink = Arc::new(BufferSink::bounded(128));
//! let tracer = Tracer::to_sink(sink.clone());
//! tracer.emit("warmup_start", |e| {
//!     e.field_u64("cycles", 256);
//! });
//! assert_eq!(sink.lines().len(), 1);
//! assert!(sink.lines()[0].contains("\"trace_version\":1"));
//!
//! let text = registry.render_prometheus();
//! assert!(text.contains("jobs_completed 3"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod latency;
pub mod metrics;
pub mod trace;

pub use json::{Json, JsonError};

pub use latency::LatencyRing;
pub use metrics::{Counter, Gauge, Histogram, Metrics, MetricsRegistry};
pub use trace::{BufferSink, EventBuilder, FileSink, TraceSink, Tracer, TRACE_VERSION};
