//! A 3-strategy × 3-device batch sweep through the experiment harness.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p qplacer-harness --example batch_sweep
//! ```
//!
//! Builds one declarative [`ExperimentPlan`] over
//! {Grid-4x4, Falcon, Aspen-11} × {Qplacer, Classic, Human} × BV-4,
//! fans it across worker threads, streams JSONL to
//! `batch_sweep.jsonl`, and prints the per-arm summary table.

use qplacer_harness::{
    DeviceSpec, ExperimentPlan, JsonlSink, MemorySink, RunOptions, Runner, Strategy, Summary,
};

fn main() -> std::io::Result<()> {
    let devices = [
        DeviceSpec::Grid {
            width: 4,
            height: 4,
        },
        DeviceSpec::Falcon27,
        DeviceSpec::Aspen { rows: 1, cols: 5 },
    ];
    let strategies = [Strategy::FrequencyAware, Strategy::Classic, Strategy::Human];
    let plan = ExperimentPlan::grid(
        "batch-sweep-example",
        &devices,
        &strategies,
        &["bv-4"],
        10, // subsets per job
        &[0xF1D0],
    );

    let runner = Runner::new(0); // one worker per core
    println!(
        "running {} jobs on {} threads ...",
        plan.len(),
        runner.threads()
    );

    let mut jsonl = JsonlSink::create("batch_sweep.jsonl")?;
    let mut memory = MemorySink::new();
    let report = runner
        .execute(
            &plan,
            RunOptions {
                sinks: vec![&mut jsonl, &mut memory],
                ..Default::default()
            },
        )?
        .report;

    print!("{}", Summary::table(&report.summaries()));
    println!(
        "{} jobs in {:.1} s ({} failed); records -> batch_sweep.jsonl",
        report.records.len(),
        report.wall_ms / 1e3,
        report.failures().len()
    );

    // The records are also in memory for programmatic use:
    let best = memory
        .records
        .iter()
        .max_by(|a, b| a.mean_fidelity.total_cmp(&b.mean_fidelity))
        .expect("plan is non-empty");
    println!(
        "best arm: {} / {} (mean fidelity {:.3e})",
        best.device, best.strategy, best.mean_fidelity
    );
    Ok(())
}
