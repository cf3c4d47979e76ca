//! `eco_eagle`: one cold paper-config Eagle layout is built during
//! set-up; then a seeded stream of topology edits is each re-placed warm
//! from it with `Qplacer::execute_replace`.
//!
//! Single-element edits (coupler and qubit drops) are the primary op;
//! multi-defect `yield_delta` edits are the secondary op.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use qplacer_circuits::Circuit;
use qplacer_harness::{ExecOptions, PipelineWorkspace, PlacedLayout, Qplacer, Strategy};
use qplacer_topology::Topology;

use crate::cold::{fidelities_ok, layout_ok, EAGLE, SETUP_REPEATS};
use crate::inputs::{eco_stream, subset_seed, Edit};
use crate::report::Outcome;
use crate::stats::{mean, median, ops_per_s, process_cpu_s};
use crate::Args;

/// Edits generated per run; the stream wraps if a run gets through all.
const STREAM_LEN: usize = 4096;
/// Edits run even when `--seconds` has already elapsed.
const MIN_EDITS: usize = 40;
/// Quality metrics cover the first this-many edits.
const QUALITY_EDITS: usize = 40;
/// Evaluation subsets per scored edit.
const EDIT_SUBSETS: usize = 10;

/// The ECO base: device, pipeline, workspace and the cold layout every
/// edit warm-starts from.
struct Base {
    /// Eagle-127.
    device: Topology,
    /// The scoring circuit.
    circuit: Circuit,
    /// The paper-config pipeline.
    engine: Qplacer,
    /// Reused stage buffers.
    ws: PipelineWorkspace,
    /// The cold QPlacer layout of `device`.
    layout: PlacedLayout,
}

/// Builds the cold base layout.
fn setup() -> Base {
    let device = (EAGLE.device)();
    let engine = Qplacer::new(EAGLE.config());
    let mut ws = PipelineWorkspace::new();
    let layout = engine.execute(
        &device,
        Strategy::FrequencyAware,
        ExecOptions {
            workspace: Some(&mut ws),
            ..Default::default()
        },
    );
    Base {
        device,
        circuit: EAGLE.circuit(),
        engine,
        ws,
        layout,
    }
}

/// The untraced run.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let mut setups = Vec::new();
    let mut base = None;
    for k in 0..SETUP_REPEATS {
        let t = if k == 0 { 0.0 } else { process_cpu_s() };
        base = Some(setup());
        setups.push(process_cpu_s() - t);
    }
    let mut base = base.expect("set up at least once");
    layout_ok(&mut out, &base.layout, "eco base");
    let stream = eco_stream(&base.device, args.seed, STREAM_LEN);

    let mut single_ms = Vec::new();
    let mut yield_ms = Vec::new();
    let (mut phs, mut areas, mut neg_log_f) = (Vec::new(), Vec::new(), Vec::new());
    let window = Instant::now();
    let mut i = 0;
    while i < MIN_EDITS || window.elapsed().as_secs_f64() < args.seconds {
        let edit: Edit = stream[i % stream.len()];
        let delta = edit.delta(&base.device);
        let Base {
            device,
            engine,
            ws,
            layout,
            ..
        } = &mut base;
        let t = process_cpu_s();
        let replaced = catch_unwind(AssertUnwindSafe(|| {
            engine.execute_replace(
                device,
                layout,
                &delta,
                ExecOptions {
                    workspace: Some(ws),
                    ..Default::default()
                },
            )
        }));
        let elapsed = (process_cpu_s() - t) * 1e3;
        match replaced {
            Ok(Ok((layout, _report))) => {
                let mut ok = layout_ok(&mut out, &layout, &format!("edit {i} {edit:?}"));
                if i < QUALITY_EDITS {
                    phs.push(layout.hotspots().ph);
                    areas.push(layout.area().mer_area);
                    let target = delta
                        .apply(&base.device)
                        .expect("delta applies to its base");
                    let eval = layout.evaluate(
                        &target,
                        &base.circuit,
                        EDIT_SUBSETS,
                        subset_seed(args.seed, i),
                    );
                    ok &= fidelities_ok(&mut out, &eval.fidelities, &format!("edit {i}"));
                    neg_log_f.extend(eval.fidelities.iter().map(|f| -f.log10()));
                }
                out.op(ok);
                if edit.is_single() {
                    single_ms.push(elapsed);
                } else {
                    yield_ms.push(elapsed);
                }
            }
            Ok(Err(e)) => {
                out.op(false);
                out.check(false, || format!("edit {i} {edit:?}: {e}"));
            }
            Err(_) => {
                out.op(false);
                out.check(false, || format!("edit {i} {edit:?} panicked"));
            }
        }
        i += 1;
    }

    out.set("setup_s", median(&setups));
    out.set("op_p50_ms", median(&single_ms));
    out.set("aux_p50_ms", median(&yield_ms));
    out.set(
        "throughput_per_s",
        ops_per_s(&[single_ms, yield_ms].concat()),
    );
    out.set("ph", mean(&phs));
    out.set("neg_log10_fidelity", mean(&neg_log_f));
    out.set("area_mm2", mean(&areas));
    out
}
