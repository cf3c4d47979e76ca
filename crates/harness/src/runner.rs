//! The parallel experiment runner: fans [`JobSpec`]s across scoped
//! worker threads with deterministic per-job seeding and panic isolation.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use qplacer_obs::{JsonlTraceSink, NullTraceSink, RingTraceSink, TraceSink};
use serde::{Deserialize, Serialize};

use crate::pipeline::Qplacer;
use crate::plan::{ExperimentPlan, JobSpec};
use crate::sink::Sink;
use crate::summary::{ArmSummary, Summary};

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// The job ran to completion.
    Ok,
    /// The job spec could not be executed (e.g. unknown benchmark).
    Failed {
        /// Why.
        error: String,
    },
    /// The pipeline panicked; the panic was contained to this job.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl JobStatus {
    /// Whether the job completed.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Ok)
    }
}

/// One job's structured outcome — the stable record schema every sink
/// receives.
///
/// All fields are deterministic functions of the [`JobSpec`] except the
/// `wall_*` fields, which carry wall-clock timings. Consumers comparing
/// records across runs should ignore the `wall_` prefix (the harness
/// determinism tests do exactly that).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobRecord {
    /// Plan name.
    pub plan: String,
    /// Index of the job within the plan.
    pub job_index: usize,
    /// Device display name.
    pub device: String,
    /// Strategy display name (`Qplacer` / `Classic` / `Human`).
    pub strategy: String,
    /// Benchmark name, or `None` for placement-only jobs.
    pub benchmark: Option<String>,
    /// Subset-sampling seed.
    pub seed: u64,
    /// Segment-size override, if any.
    pub segment_size_mm: Option<f64>,
    /// Terminal status.
    pub status: JobStatus,
    /// Movable instances in the netlist (qubits + segments).
    pub instances: usize,
    /// Global-placement iterations (0 for the Human arm).
    pub place_iterations: usize,
    /// Final half-perimeter wirelength (mm).
    pub hpwl_mm: f64,
    /// Minimum-enclosing-rectangle area (mm²), Eq. 17.
    pub mer_area_mm2: f64,
    /// Area utilization in the MER.
    pub utilization: f64,
    /// Hotspot proportion P_h, Eq. 18.
    pub ph: f64,
    /// Qubits inside at least one violating pair.
    pub impacted_qubits: usize,
    /// Resonant-pair violations in the final layout.
    pub violations: usize,
    /// Subsets requested for evaluation.
    pub subsets_requested: usize,
    /// Subsets that produced a fidelity sample.
    pub subsets_evaluated: usize,
    /// Subsets skipped because the circuit exceeds the device.
    pub subsets_skipped_too_large: usize,
    /// Subsets skipped because routing failed.
    pub subsets_skipped_unroutable: usize,
    /// Mean fidelity over evaluated subsets.
    pub mean_fidelity: f64,
    /// Worst fidelity over evaluated subsets.
    pub min_fidelity: f64,
    /// `log10` of the worst fidelity, from
    /// [`BenchmarkEvaluation::log_fidelities`](qplacer_metrics::BenchmarkEvaluation::log_fidelities):
    /// finite where `min_fidelity` underflows to 0. Zero when no subset
    /// was evaluated.
    pub min_log10_fidelity: f64,
    /// Mean crosstalk-contributing violations per subset.
    pub mean_active_violations: f64,
    /// Total job wall time (ms). Non-deterministic.
    pub wall_ms: f64,
    /// Placement-stage wall time (ms). Non-deterministic.
    pub wall_place_ms: f64,
    /// Global-placement iterations per second of placement wall time
    /// (0 for the Human arm). Non-deterministic.
    pub wall_place_iters_per_sec: f64,
    /// Legalization-stage wall time (ms; 0 for the Human arm).
    /// Non-deterministic.
    pub wall_legalize_ms: f64,
    /// Frequency-assignment wall time (ms). Non-deterministic.
    pub wall_assign_ms: f64,
}

impl JobRecord {
    fn blank(plan: &str, job_index: usize, spec: &JobSpec) -> JobRecord {
        JobRecord {
            plan: plan.to_string(),
            job_index,
            device: spec.device.name(),
            strategy: spec.strategy.to_string(),
            benchmark: spec.benchmark.clone(),
            seed: spec.seed,
            segment_size_mm: spec.segment_size_mm,
            status: JobStatus::Ok,
            instances: 0,
            place_iterations: 0,
            hpwl_mm: 0.0,
            mer_area_mm2: 0.0,
            utilization: 0.0,
            ph: 0.0,
            impacted_qubits: 0,
            violations: 0,
            subsets_requested: 0,
            subsets_evaluated: 0,
            subsets_skipped_too_large: 0,
            subsets_skipped_unroutable: 0,
            mean_fidelity: 0.0,
            min_fidelity: 0.0,
            min_log10_fidelity: 0.0,
            mean_active_violations: 0.0,
            wall_ms: 0.0,
            wall_place_ms: 0.0,
            wall_place_iters_per_sec: 0.0,
            wall_legalize_ms: 0.0,
            wall_assign_ms: 0.0,
        }
    }

    /// The CSV column names, in emission order.
    #[must_use]
    pub fn csv_header() -> &'static str {
        "plan,job_index,device,strategy,benchmark,seed,segment_size_mm,status,\
         instances,place_iterations,hpwl_mm,mer_area_mm2,utilization,ph,\
         impacted_qubits,violations,subsets_requested,subsets_evaluated,\
         subsets_skipped_too_large,subsets_skipped_unroutable,mean_fidelity,\
         min_fidelity,min_log10_fidelity,mean_active_violations,wall_ms,wall_place_ms,\
         wall_place_iters_per_sec,wall_legalize_ms,wall_assign_ms"
    }

    /// One CSV row matching [`JobRecord::csv_header`].
    #[must_use]
    pub fn csv_row(&self) -> String {
        let status = match &self.status {
            JobStatus::Ok => "ok".to_string(),
            JobStatus::Failed { error } => format!("failed: {error}"),
            JobStatus::Panicked { message } => format!("panicked: {message}"),
        };
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_escape(&self.plan),
            self.job_index,
            csv_escape(&self.device),
            csv_escape(&self.strategy),
            self.benchmark
                .as_deref()
                .map(csv_escape)
                .unwrap_or_default(),
            self.seed,
            self.segment_size_mm
                .map(|v| format!("{v:?}"))
                .unwrap_or_default(),
            csv_escape(&status),
            self.instances,
            self.place_iterations,
            self.hpwl_mm,
            self.mer_area_mm2,
            self.utilization,
            self.ph,
            self.impacted_qubits,
            self.violations,
            self.subsets_requested,
            self.subsets_evaluated,
            self.subsets_skipped_too_large,
            self.subsets_skipped_unroutable,
            self.mean_fidelity,
            self.min_fidelity,
            self.min_log10_fidelity,
            self.mean_active_violations,
            self.wall_ms,
            self.wall_place_ms,
            self.wall_place_iters_per_sec,
            self.wall_legalize_ms,
            self.wall_assign_ms,
        )
    }
}

// Hand-written so that records written before `min_log10_fidelity`
// existed keep deserializing, with `log10(min_fidelity)` in its place
// (0 when no subset was evaluated); the vendored serde derive has no
// `#[serde(default)]`.
impl Deserialize for JobRecord {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = value
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "JobRecord"))?;
        let get = |key: &str| serde::Value::field(map, key);
        let subsets_evaluated: usize = Deserialize::from_value(get("subsets_evaluated")?)?;
        let min_fidelity: f64 = Deserialize::from_value(get("min_fidelity")?)?;
        let min_log10_fidelity = match map.iter().find(|(k, _)| k == "min_log10_fidelity") {
            Some((_, v)) => Deserialize::from_value(v)?,
            None if subsets_evaluated == 0 => 0.0,
            None => min_fidelity.log10(),
        };
        Ok(JobRecord {
            plan: Deserialize::from_value(get("plan")?)?,
            job_index: Deserialize::from_value(get("job_index")?)?,
            device: Deserialize::from_value(get("device")?)?,
            strategy: Deserialize::from_value(get("strategy")?)?,
            benchmark: Deserialize::from_value(get("benchmark")?)?,
            seed: Deserialize::from_value(get("seed")?)?,
            segment_size_mm: Deserialize::from_value(get("segment_size_mm")?)?,
            status: Deserialize::from_value(get("status")?)?,
            instances: Deserialize::from_value(get("instances")?)?,
            place_iterations: Deserialize::from_value(get("place_iterations")?)?,
            hpwl_mm: Deserialize::from_value(get("hpwl_mm")?)?,
            mer_area_mm2: Deserialize::from_value(get("mer_area_mm2")?)?,
            utilization: Deserialize::from_value(get("utilization")?)?,
            ph: Deserialize::from_value(get("ph")?)?,
            impacted_qubits: Deserialize::from_value(get("impacted_qubits")?)?,
            violations: Deserialize::from_value(get("violations")?)?,
            subsets_requested: Deserialize::from_value(get("subsets_requested")?)?,
            subsets_evaluated,
            subsets_skipped_too_large: Deserialize::from_value(get("subsets_skipped_too_large")?)?,
            subsets_skipped_unroutable: Deserialize::from_value(get(
                "subsets_skipped_unroutable",
            )?)?,
            mean_fidelity: Deserialize::from_value(get("mean_fidelity")?)?,
            min_fidelity,
            min_log10_fidelity,
            mean_active_violations: Deserialize::from_value(get("mean_active_violations")?)?,
            wall_ms: Deserialize::from_value(get("wall_ms")?)?,
            wall_place_ms: Deserialize::from_value(get("wall_place_ms")?)?,
            wall_place_iters_per_sec: Deserialize::from_value(get("wall_place_iters_per_sec")?)?,
            wall_legalize_ms: Deserialize::from_value(get("wall_legalize_ms")?)?,
            wall_assign_ms: Deserialize::from_value(get("wall_assign_ms")?)?,
        })
    }
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Everything a completed run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Plan name.
    pub plan: String,
    /// Thread count the runner used.
    pub threads: usize,
    /// Total wall time of the run (ms).
    pub wall_ms: f64,
    /// Per-job records, in plan order.
    pub records: Vec<JobRecord>,
}

impl RunReport {
    /// Jobs that did not complete.
    #[must_use]
    pub fn failures(&self) -> Vec<&JobRecord> {
        self.records.iter().filter(|r| !r.status.is_ok()).collect()
    }

    /// Aggregates the records per (device, strategy, benchmark) arm.
    #[must_use]
    pub fn summaries(&self) -> Vec<ArmSummary> {
        Summary::from_records(&self.records)
    }
}

/// Fans an [`ExperimentPlan`]'s jobs across worker threads.
///
/// Each run starts `threads − 1` scoped threads; the calling thread is
/// the last worker, so a one-worker runner spawns nothing. Workers pull
/// job indices from one shared counter, and each job runs start to
/// finish on one thread.
///
/// Guarantees:
///
/// - **Determinism** — all randomness derives from each job's
///   [`JobSpec::seed`]; records (minus `wall_*` fields) are identical for
///   any thread count and any scheduling order. Sinks always receive
///   records in plan order.
/// - **Panic isolation** — a panicking job yields a
///   [`JobStatus::Panicked`] record; sibling jobs are unaffected.
#[derive(Debug)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner over `threads` workers (`0` = one per available core).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        Runner { threads }
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the plan, returning records in plan order. Zero-options
    /// convenience for [`Runner::execute`] — equivalent to
    /// `execute(plan, RunOptions::default())`, which performs no I/O
    /// and therefore cannot fail.
    #[must_use]
    pub fn run(&self, plan: &ExperimentPlan) -> RunReport {
        self.execute(plan, RunOptions::default())
            .expect("a run with no sinks and no trace file performs no I/O")
            .report
    }

    /// Runs the plan with the given [`RunOptions`]; sinks,
    /// convergence-trace capture, and timeline-event capture compose
    /// freely.
    ///
    /// Records land in plan order no matter the scheduling; sink and
    /// trace-file writing happens after the whole run, so file output
    /// is deterministic in everything but the timing values themselves
    /// (the trade-off: a run killed midway leaves file sinks empty —
    /// split very long sweeps into chunked plans for incremental
    /// persistence).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from sinks and the trace file; a run with
    /// neither cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to start a worker thread.
    pub fn execute(
        &self,
        plan: &ExperimentPlan,
        opts: RunOptions<'_>,
    ) -> std::io::Result<RunOutcome> {
        let RunOptions {
            mut sinks,
            trace_path,
            capture_events,
        } = opts;

        // Event capture brackets the run: gates on, buffers cleared,
        // previous state restored afterwards. The gate and buffers are
        // process-global — concurrent runs interleave into the same
        // timeline, distinguishable by trace id.
        let saved_gates = capture_events.then(|| {
            let prev = (qplacer_obs::spans_enabled(), qplacer_obs::event_mode());
            qplacer_obs::set_spans_enabled(true);
            qplacer_obs::set_event_mode(qplacer_obs::EventMode::Capture);
            qplacer_obs::clear_events();
            prev
        });

        let start = Instant::now();
        let mut rings: Option<Vec<RingTraceSink>> = None;
        let records: Vec<JobRecord> = if trace_path.is_some() {
            let results = self.map_jobs(plan.jobs.len(), |index| {
                let _scope = capture_events
                    .then(|| qplacer_obs::adopt_trace_id(qplacer_obs::fresh_trace_id()));
                execute_job_ringed(plan, index)
            });
            let (records, ring_vec): (Vec<_>, Vec<_>) = results.into_iter().unzip();
            rings = Some(ring_vec);
            records
        } else {
            self.map_jobs(plan.jobs.len(), |index| {
                let _scope = capture_events
                    .then(|| qplacer_obs::adopt_trace_id(qplacer_obs::fresh_trace_id()));
                execute_job(plan, index)
            })
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let events = saved_gates.map(|(prev_spans, prev_mode)| {
            let snapshot = qplacer_obs::event_snapshot();
            qplacer_obs::set_event_mode(prev_mode);
            qplacer_obs::set_spans_enabled(prev_spans);
            snapshot
        });

        // Convergence-trace sidecar: per-job rings flushed in plan
        // order, each line labelled `"<plan>/<job index>"`.
        if let (Some(path), Some(rings)) = (trace_path.as_ref(), rings) {
            let mut trace = JsonlTraceSink::create(path)?;
            for (index, ring) in rings.into_iter().enumerate() {
                trace.set_label(Some(format!("{}/{}", plan.name, index)));
                for trace_record in ring.records() {
                    trace.record(&trace_record);
                }
            }
            trace.finish()?;
        }

        let report = RunReport {
            plan: plan.name.clone(),
            threads: self.threads,
            wall_ms,
            records,
        };
        for sink in sinks.iter_mut() {
            sink.begin(plan)?;
            for record in &report.records {
                sink.record(record)?;
            }
            sink.finish()?;
        }
        Ok(RunOutcome { report, events })
    }

    /// Runs `job` on every index in `0..len` across the runner's workers
    /// and returns the results in index order.
    fn map_jobs<T: Send>(&self, len: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.threads.min(len);
        if workers <= 1 {
            return (0..len).map(job).collect();
        }
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= len {
                    return done;
                }
                done.push((index, job(index)));
            }
        };
        let mut done = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for helper in helpers {
                done.extend(
                    helper
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p)),
                );
            }
            done
        });
        done.sort_unstable_by_key(|&(index, _)| index);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

/// Options for [`Runner::execute`]. `Default` is a bare run (no sinks,
/// no trace file, no event capture); the capabilities compose freely.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Record consumers, each fed every record in plan order bracketed
    /// by [`Sink::begin`] / [`Sink::finish`] after the run completes.
    pub sinks: Vec<&'a mut dyn Sink>,
    /// Streams convergence telemetry (placer iterations, legalization /
    /// frequency phases) into a JSONL trace file at this path — the
    /// sidecar meant to sit next to a JSONL result sink. Each job
    /// records into its own pre-sized in-memory ring while jobs run in
    /// parallel; the file is written after the whole run in plan order.
    pub trace_path: Option<std::path::PathBuf>,
    /// Captures the full event timeline of the run: spans and event
    /// capture are enabled for the duration (and restored afterwards),
    /// the capture buffers are cleared, and every job executes under
    /// its own fresh trace id so per-job events stay separable. The
    /// snapshot lands in [`RunOutcome::events`] and feeds the exporters
    /// directly ([`qplacer_obs::chrome_trace_json`],
    /// [`qplacer_obs::folded_stacks`]). Records are bit-identical
    /// either way — event recording never touches the pipeline's
    /// arithmetic.
    pub capture_events: bool,
}

/// What [`Runner::execute`] produced.
pub struct RunOutcome {
    /// Per-job records and run-level aggregates.
    pub report: RunReport,
    /// The captured event timeline when
    /// [`RunOptions::capture_events`] was set, `None` otherwise.
    pub events: Option<qplacer_obs::EventSnapshot>,
}

/// Ring capacity per traced job: comfortably above the paper profile's
/// placement iteration budget plus the fixed per-phase records.
const TRACE_RING_CAPACITY: usize = 4096;

/// [`execute_job`]'s traced twin: same thread-local workspace reuse,
/// with telemetry captured into a per-job ring.
fn execute_job_ringed(plan: &ExperimentPlan, index: usize) -> (JobRecord, RingTraceSink) {
    std::thread_local! {
        static WORKSPACE: std::cell::RefCell<crate::pipeline::PipelineWorkspace> =
            std::cell::RefCell::new(crate::pipeline::PipelineWorkspace::new());
    }
    let mut ring = RingTraceSink::with_capacity(TRACE_RING_CAPACITY);
    let record =
        WORKSPACE.with(|ws| execute_job_traced(plan, index, &mut ws.borrow_mut(), &mut ring).0);
    (record, ring)
}

/// Executes one job, containing panics to its record.
///
/// Uses one thread-local workspace per worker thread, reused across
/// every job that worker executes — the sweep-scale buffer reuse
/// `PipelineWorkspace` exists for. Each stage resets its buffers on
/// entry, so reuse after a panicked sibling job is safe.
fn execute_job(plan: &ExperimentPlan, index: usize) -> JobRecord {
    std::thread_local! {
        static WORKSPACE: std::cell::RefCell<crate::pipeline::PipelineWorkspace> =
            std::cell::RefCell::new(crate::pipeline::PipelineWorkspace::new());
    }
    WORKSPACE.with(|ws| execute_job_with(plan, index, &mut ws.borrow_mut()).0)
}

/// Renders a caught panic payload as the human-readable message
/// `panic!` produced, falling back to a marker for non-string payloads.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Executes one job of `plan` with a caller-owned workspace, containing
/// panics to the record, and returns the
/// [`PlacedLayout`](crate::PlacedLayout) alongside the record when the
/// job completed.
///
/// This is the single-job entry point long-lived callers (e.g. a serving
/// worker holding a persistent
/// [`PipelineWorkspace`](crate::PipelineWorkspace)) use to run plan
/// jobs without going through [`Runner`]'s workers; [`Runner::run`]
/// funnels through it too, so both paths share one implementation.
#[must_use]
pub fn execute_job_with(
    plan: &ExperimentPlan,
    index: usize,
    ws: &mut crate::pipeline::PipelineWorkspace,
) -> (JobRecord, Option<crate::pipeline::PlacedLayout>) {
    execute_job_traced(plan, index, ws, &mut NullTraceSink)
}

/// Like [`execute_job_with`], but streams the job's convergence
/// telemetry into `sink` (see
/// [`Qplacer::execute`](crate::Qplacer::execute)). The record and
/// layout are bit-identical to the untraced path.
#[must_use]
pub fn execute_job_traced(
    plan: &ExperimentPlan,
    index: usize,
    ws: &mut crate::pipeline::PipelineWorkspace,
    sink: &mut dyn TraceSink,
) -> (JobRecord, Option<crate::pipeline::PlacedLayout>) {
    let spec = &plan.jobs[index];
    let mut record = JobRecord::blank(&plan.name, index, spec);
    let start = Instant::now();
    let outcome =
        std::panic::catch_unwind(AssertUnwindSafe(|| run_pipeline_job(plan, index, ws, sink)));
    record.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut layout = None;
    match outcome {
        Ok(Ok(filled)) => {
            let wall_ms = record.wall_ms;
            let (filled_record, placed) = *filled;
            record = filled_record;
            record.wall_ms = wall_ms;
            layout = Some(placed);
        }
        Ok(Err(error)) => record.status = JobStatus::Failed { error },
        Err(payload) => {
            record.status = JobStatus::Panicked {
                message: panic_message(payload),
            };
        }
    }
    (record, layout)
}

/// The happy path of one job: place, measure, optionally evaluate.
#[allow(clippy::type_complexity)]
fn run_pipeline_job(
    plan: &ExperimentPlan,
    index: usize,
    ws: &mut crate::pipeline::PipelineWorkspace,
    sink: &mut dyn TraceSink,
) -> Result<Box<(JobRecord, crate::pipeline::PlacedLayout)>, String> {
    let spec = &plan.jobs[index];
    let mut record = JobRecord::blank(&plan.name, index, spec);
    let benchmark = spec.resolve_benchmark()?;
    // Plan-validation: an unbuildable or unplaceable device (bad
    // parameters, unreadable import, isolated qubits) is a typed job
    // failure, never a panic into the placement engine.
    let device = spec.device.try_build().map_err(|e| e.to_string())?;
    let config = spec.pipeline_config(plan.profile);
    let layout = Qplacer::new(config).execute(
        &device,
        spec.strategy,
        crate::pipeline::ExecOptions {
            workspace: Some(ws),
            sink: Some(sink),
            trace_id: None,
        },
    );

    record.instances = layout.netlist.num_instances();
    record.wall_assign_ms = layout.timings.assign_ms;
    record.wall_legalize_ms = layout.timings.legalize_ms;
    if let Some(placement) = &layout.placement {
        record.place_iterations = placement.iterations;
        record.hpwl_mm = placement.hpwl;
        record.wall_place_ms = placement.elapsed_seconds * 1e3;
        record.wall_place_iters_per_sec = if placement.elapsed_seconds > 0.0 {
            placement.iterations as f64 / placement.elapsed_seconds
        } else {
            0.0
        };
    }
    let area = layout.area();
    record.mer_area_mm2 = area.mer_area;
    record.utilization = area.utilization;
    let hotspots = layout.hotspots();
    record.ph = hotspots.ph;
    record.impacted_qubits = hotspots.impacted_qubits.len();
    record.violations = hotspots.violations.len();

    if let Some(benchmark) = benchmark {
        let eval = layout.evaluate(&device, &benchmark.circuit, spec.subsets, spec.seed);
        record.subsets_requested = eval.requested_subsets;
        record.subsets_evaluated = eval.fidelities.len();
        record.subsets_skipped_too_large = eval.skipped_too_large;
        record.subsets_skipped_unroutable = eval.skipped_unroutable;
        record.mean_fidelity = eval.mean_fidelity;
        record.min_fidelity = eval.min_fidelity;
        let min_ln = eval
            .log_fidelities
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if min_ln.is_finite() {
            record.min_log10_fidelity = min_ln / std::f64::consts::LN_10;
        }
        record.mean_active_violations = eval.mean_active_violations;
    }

    Ok(Box::new((record, layout)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Strategy;
    use crate::plan::{DeviceSpec, Profile};

    fn tiny_plan() -> ExperimentPlan {
        ExperimentPlan::grid(
            "tiny",
            &[DeviceSpec::Grid {
                width: 3,
                height: 3,
            }],
            &[Strategy::FrequencyAware, Strategy::Human],
            &["bv-4"],
            2,
            &[5],
        )
        .with_profile(Profile::Fast)
    }

    #[test]
    fn runner_preserves_plan_order_and_fills_records() {
        let report = Runner::new(2).run(&tiny_plan());
        assert_eq!(report.records.len(), 2);
        for (i, record) in report.records.iter().enumerate() {
            assert_eq!(record.job_index, i);
            assert!(record.status.is_ok(), "{:?}", record.status);
            assert!(record.instances > 0);
            assert!(record.mer_area_mm2 > 0.0);
            assert_eq!(record.subsets_requested, 2);
        }
        assert_eq!(report.records[0].strategy, "Qplacer");
        assert_eq!(report.records[1].strategy, "Human");
        assert!(report.failures().is_empty());
    }

    #[test]
    fn unknown_benchmark_fails_only_that_job() {
        let mut plan = tiny_plan();
        plan.jobs[0].benchmark = Some("not-a-benchmark".to_string());
        let report = Runner::new(2).run(&plan);
        assert!(matches!(report.records[0].status, JobStatus::Failed { .. }));
        assert!(report.records[1].status.is_ok());
        assert_eq!(report.failures().len(), 1);
    }

    #[test]
    fn panicking_job_is_isolated() {
        let mut plan = tiny_plan();
        // A negative segment size panics inside the netlist config
        // (device validation happens earlier and is a typed failure,
        // so it cannot serve as the panic source here).
        plan.jobs[0].segment_size_mm = Some(-1.0);
        let report = Runner::new(2).run(&plan);
        match &report.records[0].status {
            JobStatus::Panicked { message } => assert!(!message.is_empty()),
            other => panic!("expected panic status, got {other:?}"),
        }
        assert!(report.records[1].status.is_ok());
    }

    #[test]
    fn invalid_devices_fail_typed_not_panicked() {
        // Every flavor of unplaceable device must surface as a typed
        // `Failed` record — plan-validation runs before the engine.
        let bad_devices = [
            DeviceSpec::Grid {
                width: 0,
                height: 0,
            },
            DeviceSpec::HeavyHex { distance: 1 },
            DeviceSpec::Ring { qubits: 2 },
            DeviceSpec::FromJson {
                path: "/nonexistent/calibration.json".to_string(),
            },
            // Yield 0 kills every qubit: the surviving component is
            // empty, which must be rejected, not spiraled over.
            DeviceSpec::Defective {
                base: Box::new(DeviceSpec::Falcon27),
                yield_pct: 0,
                seed: 1,
            },
        ];
        for device in bad_devices {
            let mut plan = tiny_plan();
            plan.jobs[0].device = device.clone();
            let report = Runner::new(1).run(&plan);
            match &report.records[0].status {
                JobStatus::Failed { error } => {
                    assert!(!error.is_empty(), "{device:?}")
                }
                other => panic!("{device:?}: expected Failed, got {other:?}"),
            }
        }
    }

    #[test]
    fn execute_job_with_returns_layout_and_matches_runner() {
        let plan = tiny_plan();
        let mut ws = crate::pipeline::PipelineWorkspace::new();
        let (record, layout) = execute_job_with(&plan, 0, &mut ws);
        assert!(record.status.is_ok());
        let layout = layout.expect("completed job returns its layout");
        assert_eq!(layout.netlist.num_instances(), record.instances);
        // Same spec through a two-worker runner yields the same
        // deterministic fields.
        let report = Runner::new(2).run(&plan);
        assert_eq!(report.records[0].hpwl_mm, record.hpwl_mm);
        assert_eq!(report.records[0].mean_fidelity, record.mean_fidelity);

        // A failing spec yields no layout and keeps the message.
        let mut bad = tiny_plan();
        bad.jobs[0].benchmark = Some("missing".to_string());
        let (record, layout) = execute_job_with(&bad, 0, &mut ws);
        assert!(layout.is_none());
        assert!(matches!(record.status, JobStatus::Failed { .. }));
    }

    #[test]
    fn workers_return_results_in_index_order() {
        let caller = std::thread::current().id();
        for threads in [1, 3, 64] {
            let runner = Runner::new(threads);
            let out = runner.map_jobs(10, |i| (i * i, std::thread::current().id()));
            let squares: Vec<usize> = out.iter().map(|&(sq, _)| sq).collect();
            assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
            if threads == 1 {
                assert!(
                    out.iter().all(|&(_, id)| id == caller),
                    "one worker spawns nothing"
                );
            }
        }
        assert!(Runner::new(0).threads() >= 1);
        assert!(Runner::new(4).map_jobs(0, |i| i).is_empty());
    }

    #[test]
    fn min_log10_fidelity_stays_finite_where_fidelity_underflows() {
        // `qplacer evaluate eagle qv-32 --subsets 2 --strategy human`:
        // the worst linear fidelity underflows to 0.
        let plan = ExperimentPlan::grid(
            "evaluate",
            &[DeviceSpec::parse("eagle").unwrap()],
            &[Strategy::Human],
            &["qv-32"],
            2,
            &[0xF1D0],
        );
        let record = &Runner::new(1).run(&plan).records[0];
        assert!(record.status.is_ok(), "{:?}", record.status);
        assert_eq!(record.min_fidelity, 0.0);
        assert!(
            record.min_log10_fidelity.is_finite() && record.min_log10_fidelity < -290.0,
            "{}",
            record.min_log10_fidelity
        );
    }

    #[test]
    fn records_without_min_log10_fidelity_still_deserialize() {
        // Serializes `record`, drops the field, and parses it back.
        let without_field = |record: &JobRecord| -> JobRecord {
            let mut old = record.to_value();
            if let serde::Value::Map(fields) = &mut old {
                fields.retain(|(k, _)| k != "min_log10_fidelity");
            }
            serde_json::from_str(&serde_json::to_string(&old).unwrap()).unwrap()
        };
        let report = Runner::new(1).run(&tiny_plan());
        for record in &report.records {
            let json = serde_json::to_string(record).unwrap();
            assert_eq!(&serde_json::from_str::<JobRecord>(&json).unwrap(), record);
            let parsed = without_field(record);
            assert_eq!(parsed.min_log10_fidelity, record.min_fidelity.log10());
            assert_eq!(parsed.mean_fidelity, record.mean_fidelity);
        }
        let mut blank = report.records[0].clone();
        blank.subsets_evaluated = 0;
        blank.min_fidelity = 0.0;
        assert_eq!(without_field(&blank).min_log10_fidelity, 0.0);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let report = Runner::new(1).run(&tiny_plan());
        let columns = JobRecord::csv_header().split(',').count();
        for record in &report.records {
            assert_eq!(record.csv_row().split(',').count(), columns);
        }
    }
}
