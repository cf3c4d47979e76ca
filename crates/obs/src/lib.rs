//! # qplacer-obs — workspace-wide observability
//!
//! The shared instrumentation layer for the QPlacer workspace: every
//! crate from the numeric kernels to the serving daemon reports through
//! the primitives here, so one registry feeds the CLI, the Prometheus
//! scrape path, and the self-profile report.
//!
//! Five pieces:
//!
//! - **Spans** ([`span!`], [`span_report`]) — scoped wall-clock timers
//!   with relaxed-atomic per-site count and total, near-free when
//!   disabled (the default) and allocation-free when enabled. A guard's
//!   [`finish`](SpanGuard::finish) hands back the time it records, so
//!   every reported duration comes from the span that brackets it.
//! - **Events** ([`EventMode`], [`event_snapshot`], [`adopt_trace_id`])
//!   — a per-thread event timeline fed by the same `span!` sites:
//!   begin/end events with monotonic timestamps and a
//!   propagated 64-bit trace id, recorded into an unbounded capture
//!   buffer or an always-on bounded flight recorder
//!   (overwrite-oldest ring per thread) for post-mortem dumps.
//! - **Metrics** ([`Registry`], [`Counter`], [`Gauge`],
//!   [`LatencyHistogram`]) — named metrics with a process-global
//!   registry ([`global`]) and a Prometheus text renderer
//!   ([`render_prometheus`]). The log₂ latency histogram moved here from
//!   `qplacer-service`, so the service and the pipeline share one
//!   implementation.
//! - **Traces** ([`TraceRecord`], [`TraceSink`]) — per-iteration placer
//!   convergence records and per-phase legalization / frequency records,
//!   flowing into a pre-sized [`RingTraceSink`] (zero-alloc) or a
//!   [`JsonlTraceSink`] file.
//! - **Export** — Prometheus text for scrapes, JSONL for offline
//!   analysis, and three readings of one event timeline, all from one
//!   per-thread nesting walk: the call-path tree `qplacer profile`
//!   prints ([`span_tree`], [`span_tree_text`]), Chrome Trace Event
//!   JSON ([`chrome_trace_json`], loads in Perfetto /
//!   `chrome://tracing`) and collapsed-stack flamegraph text
//!   ([`folded_stacks`]). Span nesting is recorded nowhere else.
//!
//! Instrumentation records wall time into observability state only —
//! never into placement results — so the workspace's determinism
//! contracts (bit-identical results at any thread count) hold with
//! tracing on or off.
//!
//! ```
//! use qplacer_obs as obs;
//!
//! obs::set_spans_enabled(true);
//! {
//!     let _span = obs::span!("demo_outer");
//!     let _inner = obs::span!("demo_inner", items = 42u64);
//! }
//! obs::global().counter("qplacer_demo_total").inc();
//! let text = obs::render_prometheus(obs::global());
//! assert!(text.contains("qplacer_demo_total 1"));
//! obs::set_spans_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod export;
pub mod hist;
pub mod registry;
pub mod span;
pub mod trace;

pub use events::{
    adopt_trace_id, clear_events, current_trace_id, event_mode, event_snapshot, events_enabled,
    flight_capacity, fresh_trace_id, set_event_mode, set_flight_capacity, Event, EventKind,
    EventMode, EventSnapshot, TimelineEvent, TraceScope, DEFAULT_FLIGHT_CAPACITY,
};
pub use export::{
    chrome_trace_json, duration_totals_ns, folded_stacks, span_tree, span_tree_text,
    write_json_string, SpanNode,
};
pub use hist::{
    bucket_bounds_ms, HistogramSnapshot, LatencyHistogram, BUCKET_BOUNDS_MS, HISTOGRAM_BUCKETS,
};
pub use registry::{
    global, render_prometheus, write_prometheus_counter, write_prometheus_gauge,
    write_prometheus_histogram, Counter, Gauge, Registry,
};
pub use span::{
    reset_spans, set_spans_enabled, span_report, spans_enabled, SpanGuard, SpanSite, SpanStat,
    MAX_SPAN_SITES,
};
pub use trace::{JsonlTraceSink, NullTraceSink, RingTraceSink, TraceRecord, TraceSink};
