//! # qplacer-harness — parallel experiment orchestration
//!
//! Every figure and table in the QPlacer evaluation (§VI) is a sweep
//! over the same four axes: **device × strategy × benchmark × seed**.
//! This crate owns that sweep so no binary ever hand-rolls a serial
//! loop again:
//!
//! - [`ExperimentPlan`] / [`JobSpec`] — a declarative, serde
//!   round-trippable description of the grid ([`ExperimentPlan::grid`],
//!   [`ExperimentPlan::placement_grid`]).
//! - [`Runner`] — fans jobs across scoped worker threads, one job per
//!   thread at a time, with deterministic per-job seeding and per-job
//!   panic isolation.
//! - [`Sink`]s — pluggable record consumers ([`MemorySink`],
//!   [`JsonlSink`], [`CsvSink`]) with a stable [`JobRecord`] schema,
//!   always fed in plan order.
//! - [`Summary`] — per-arm aggregation (mean/min fidelity, P_h, area,
//!   wall time).
//!
//! The end-to-end placement pipeline itself ([`Qplacer`], [`Strategy`],
//! [`PipelineConfig`], [`PlacedLayout`]) lives here too, so the facade
//! crate, the CLI, and the bench binaries all drive one implementation.
//!
//! Determinism contract: every record field except the `wall_*` timings
//! is a pure function of the job spec — running a plan twice, at any
//! thread counts, yields byte-identical JSONL modulo `wall_*`.
//!
//! # Example
//!
//! ```
//! use qplacer_harness::{
//!     DeviceSpec, ExperimentPlan, MemorySink, Profile, RunOptions, Runner, Strategy,
//! };
//!
//! // A 1-device × 2-strategy × 1-benchmark × 2-seed grid (4 jobs).
//! let plan = ExperimentPlan::grid(
//!     "doc-sweep",
//!     &[DeviceSpec::Grid { width: 3, height: 3 }],
//!     &[Strategy::FrequencyAware, Strategy::Classic],
//!     &["bv-4"],
//!     2,      // subsets per job
//!     &[1, 2] // seeds
//! )
//! .with_profile(Profile::Fast); // reduced budgets for docs/tests
//!
//! let mut sink = MemorySink::new();
//! let report = Runner::new(2)
//!     .execute(&plan, RunOptions { sinks: vec![&mut sink], ..Default::default() })
//!     .unwrap()
//!     .report;
//!
//! assert_eq!(report.records.len(), 4);
//! assert!(report.failures().is_empty());
//! // Records arrive in plan order no matter which worker ran them.
//! assert_eq!(sink.records[0].strategy, "Qplacer");
//! let summaries = report.summaries();
//! assert_eq!(summaries.len(), 2); // one arm per strategy
//! assert!(summaries.iter().all(|s| s.mean_fidelity > 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;
pub mod plan;
pub mod replace;
pub mod runner;
pub mod sink;
pub mod summary;

pub use pipeline::{
    ExecOptions, PipelineConfig, PipelineWorkspace, PlacedLayout, Qplacer, StageTimings, Strategy,
};
pub use plan::{DeviceError, DeviceSpec, ExperimentPlan, JobSpec, Profile};
pub use replace::ReplaceReport;
pub use runner::{
    execute_job_traced, execute_job_with, JobRecord, JobStatus, RunOptions, RunOutcome, RunReport,
    Runner,
};
pub use sink::{CsvSink, JsonlSink, MemorySink, Sink};
pub use summary::{ArmSummary, Summary};
