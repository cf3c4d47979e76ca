//! # QPlacer — frequency-aware placement for superconducting quantum chips
//!
//! A from-scratch Rust reproduction of *"Qplacer: Frequency-Aware
//! Component Placement for Superconducting Quantum Computers"* (Zhang et
//! al., ISCA 2025). QPlacer lays out transmon qubits and bus-resonator
//! segments on a substrate so that near-resonant components are spatially
//! isolated (a "frequency repulsive force"), total area stays compact,
//! and program fidelity under crosstalk is preserved.
//!
//! The pipeline (paper Fig. 7):
//!
//! ```text
//! Topology ─► FrequencyAssigner ─► QuantumNetlist (padding+partitioning)
//!          ─► GlobalPlacer (WL + density + frequency forces)
//!          ─► Legalizer (spiral/MCMF + Tetris + Algorithm 1)
//!          ─► metrics (fidelity, P_h, area) / artwork (SVG, GDS-lite)
//! ```
//!
//! This facade crate wires the subsystem crates together behind
//! [`Qplacer`] and re-exports the pieces a downstream user needs. The
//! pipeline driver and the batch experiment machinery live in
//! [`qplacer_harness`] (re-exported as [`harness`]): declarative
//! [`ExperimentPlan`]s fan out across worker threads via [`Runner`] and
//! stream stable records into JSONL/CSV [`harness::Sink`]s. The serving
//! layer lives in [`qplacer_service`] (re-exported as [`service`]): a
//! multi-threaded TCP daemon (`qplacer serve`) with request batching, a
//! content-addressed result cache, and a versioned JSON-lines protocol
//! spoken by [`ServiceClient`] and `qplacer submit` / `stats`.
//!
//! # Quickstart
//!
//! ```
//! use qplacer::{ExecOptions, Qplacer, Strategy};
//! use qplacer_topology::Topology;
//!
//! let device = Topology::grid(2, 2);
//! let engine = Qplacer::fast(); // reduced iteration budget for docs/tests
//! let layout = engine.execute(&device, Strategy::FrequencyAware, ExecOptions::default());
//! assert_eq!(layout.netlist.overlapping_pairs().len(), 0);
//! let area = layout.area();
//! assert!(area.utilization > 0.2);
//! ```
//!
//! # Batch sweeps
//!
//! ```
//! use qplacer::{DeviceSpec, ExperimentPlan, Profile, Runner, Strategy};
//!
//! let plan = ExperimentPlan::grid(
//!     "quick",
//!     &[DeviceSpec::Grid { width: 2, height: 2 }],
//!     &[Strategy::FrequencyAware],
//!     &["bv-4"],
//!     1,
//!     &[42],
//! )
//! .with_profile(Profile::Fast);
//! let report = Runner::new(0).run(&plan);
//! assert!(report.failures().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qplacer_harness::{
    ExecOptions, PipelineConfig, PipelineWorkspace, PlacedLayout, Qplacer, ReplaceReport,
    StageTimings, Strategy,
};

pub use qplacer_artwork as artwork;
pub use qplacer_baselines as baselines;
pub use qplacer_circuits as circuits;
pub use qplacer_freq as freq;
pub use qplacer_geometry as geometry;
pub use qplacer_harness as harness;
pub use qplacer_legal as legal;
pub use qplacer_metrics as metrics;
pub use qplacer_netlist as netlist;
pub use qplacer_obs as obs;
pub use qplacer_physics as physics;
pub use qplacer_place as place;
pub use qplacer_service as service;
pub use qplacer_topology as topology;

pub use qplacer_circuits::{benchmark_by_name, paper_suite, Benchmark};
pub use qplacer_freq::{FrequencyAssigner, FrequencyAssignment};
pub use qplacer_harness::{
    ArmSummary, CsvSink, DeviceError, DeviceSpec, ExperimentPlan, JobRecord, JobSpec, JobStatus,
    JsonlSink, MemorySink, Profile, RunOptions, RunOutcome, RunReport, Runner, Sink, Summary,
};
pub use qplacer_legal::{LegalReport, Legalizer};
pub use qplacer_metrics::{
    evaluate_benchmark, AreaMetrics, BenchmarkEvaluation, FidelityParams, HotspotConfig,
    HotspotReport,
};
pub use qplacer_netlist::{CouplingKind, NetlistConfig, QuantumNetlist};
pub use qplacer_obs::{
    adopt_trace_id, chrome_trace_json, clear_events, current_trace_id, duration_totals_ns,
    event_mode, event_snapshot, folded_stacks, fresh_trace_id, render_prometheus, set_event_mode,
    set_flight_capacity, span_tree, span_tree_text, EventKind, EventMode, EventSnapshot,
    JsonlTraceSink, LatencyHistogram, NullTraceSink, Registry, RingTraceSink, SpanNode,
    TimelineEvent, TraceRecord, TraceScope, TraceSink,
};
pub use qplacer_place::{GlobalPlacer, PlacementReport, PlacerConfig};
pub use qplacer_service::{
    ClientBuilder, FleetBatch, MetricsSnapshot, PlaceJob, PlacementResult, Priority, Server,
    ServiceClient, ServiceConfig, ServiceError, ShardedClient, TraceDumpReply, TracePolicy,
    PROTOCOL_VERSION,
};
pub use qplacer_topology::{DefectMap, Topology, TopologyDelta};
