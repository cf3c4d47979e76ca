//! `cold_eagle` and `cold_hh_d10`: the paper-config cold pipeline,
//! alternating the QPlacer and Classic arms through `Qplacer::execute`
//! with one reused `PipelineWorkspace`.
//!
//! One QPlacer job is execute + `area()` + `hotspots()` + `evaluate()`
//! of one paper circuit over seeded subsets (the primary op); one
//! Classic job is execute + `area()` + `hotspots()` (the secondary op).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use qplacer_circuits::{benchmark_by_name, Circuit};
use qplacer_harness::{
    ExecOptions, PipelineConfig, PipelineWorkspace, PlacedLayout, Qplacer, Strategy,
};
use qplacer_topology::Topology;

use crate::inputs::subset_seed;
use crate::report::Outcome;
use crate::stats::{mean, median, ops_per_s, process_cpu_s};
use crate::Args;

/// One cold workload.
#[derive(Debug)]
pub struct ColdSpec {
    /// The device's zoo spelling (`DeviceSpec::parse`).
    pub zoo_name: &'static str,
    /// The device.
    pub device: fn() -> Topology,
    /// Multilevel depth (`1` = flat).
    pub levels: usize,
    /// Paper circuit the QPlacer layouts are scored on.
    pub circuit: &'static str,
    /// Evaluation subsets per scored layout (the paper's 50).
    pub subsets: usize,
}

fn heavy_hex_d10() -> Topology {
    Topology::heavy_hex(10)
}

/// Eagle-127 (1864 instances), flat.
pub const EAGLE: ColdSpec = ColdSpec {
    zoo_name: "eagle",
    device: Topology::eagle127,
    levels: 1,
    circuit: "qaoa-9",
    subsets: 50,
};

/// Heavy-hex d10 (433 qubits, 6570 instances), four-level V-cycle.
pub const HH_D10: ColdSpec = ColdSpec {
    zoo_name: "heavy-hex-d10",
    device: heavy_hex_d10,
    levels: 4,
    circuit: "qaoa-9",
    subsets: 50,
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Job pairs run even when `--seconds` has already elapsed.
const MIN_PAIRS: usize = 3;
/// Quality metrics cover the first this-many QPlacer jobs, so they do
/// not depend on how many jobs fit in the window.
const QUALITY_JOBS: usize = 3;

impl ColdSpec {
    /// The paper configuration at this workload's multilevel depth.
    #[must_use]
    pub fn config(&self) -> PipelineConfig {
        let mut config = PipelineConfig::paper();
        config.placer.levels = self.levels;
        config
    }

    /// The scoring circuit.
    #[must_use]
    pub fn circuit(&self) -> Circuit {
        benchmark_by_name(self.circuit)
            .expect("paper circuit")
            .circuit
    }
}

/// Runs one fast-profile placement of a small device: spins up the
/// thread pool and the allocator and faults in the pipeline's code, so
/// the first timed job pays no process-level warm-up.
pub fn warm_up() {
    let device = Topology::grid(3, 3);
    let layout = Qplacer::fast().execute(&device, Strategy::FrequencyAware, ExecOptions::default());
    assert_eq!(
        layout.netlist.overlapping_pairs().len(),
        0,
        "warm-up layout is legal"
    );
}

/// Correctness gate on one engine layout: zero residual overlaps (as
/// reported and as recounted) and a finite global-placement overflow.
pub fn layout_ok(out: &mut Outcome, layout: &PlacedLayout, what: &str) -> bool {
    let reported = layout
        .legalization
        .as_ref()
        .map_or(0, |l| l.remaining_overlaps);
    let recounted = layout.netlist.overlapping_pairs().len();
    let overflow = layout.placement.as_ref().map_or(0.0, |p| p.final_overflow);
    let ok = reported == 0 && recounted == 0 && overflow.is_finite();
    out.check(ok, || {
        format!("{what}: {reported} reported / {recounted} recounted overlaps, overflow {overflow}")
    });
    ok
}

/// Whether every subset fidelity is a finite positive number (a zero
/// fidelity is a failed op).
pub fn fidelities_ok(out: &mut Outcome, fidelities: &[f64], what: &str) -> bool {
    let ok = !fidelities.is_empty() && fidelities.iter().all(|f| f.is_finite() && *f > 0.0);
    out.check(ok, || format!("{what}: fidelities {fidelities:?}"));
    ok
}

struct Setup {
    device: Topology,
    circuit: Circuit,
    engine: Qplacer,
    ws: PipelineWorkspace,
}

fn setup(spec: &ColdSpec) -> Setup {
    let setup = Setup {
        device: (spec.device)(),
        circuit: spec.circuit(),
        engine: Qplacer::new(spec.config()),
        ws: PipelineWorkspace::new(),
    };
    warm_up();
    setup
}

/// The untraced run.
pub fn run(spec: &ColdSpec, args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let mut setups = Vec::new();
    let mut state = None;
    for k in 0..SETUP_REPEATS {
        // The process CPU clock starts at exec, so the first set-up
        // counts from process start.
        let t = if k == 0 { 0.0 } else { process_cpu_s() };
        state = Some(setup(spec));
        setups.push(process_cpu_s() - t);
    }
    let Setup {
        device,
        circuit,
        engine,
        mut ws,
    } = state.expect("set up at least once");

    let mut place_ms = Vec::new();
    let mut classic_ms = Vec::new();
    let (mut phs, mut areas, mut neg_log_f) = (Vec::new(), Vec::new(), Vec::new());
    let window = Instant::now();
    let mut job = 0;
    while job < MIN_PAIRS || window.elapsed().as_secs_f64() < args.seconds {
        let t = process_cpu_s();
        let scored = catch_unwind(AssertUnwindSafe(|| {
            let layout = engine.execute(
                &device,
                Strategy::FrequencyAware,
                ExecOptions {
                    workspace: Some(&mut ws),
                    ..Default::default()
                },
            );
            let area = layout.area();
            let hotspots = layout.hotspots();
            let eval =
                layout.evaluate(&device, &circuit, spec.subsets, subset_seed(args.seed, job));
            (layout, area, hotspots, eval)
        }));
        let elapsed = (process_cpu_s() - t) * 1e3;
        match scored {
            Ok((layout, area, hotspots, eval)) => {
                let legal = layout_ok(&mut out, &layout, "qplacer");
                let scored = fidelities_ok(&mut out, &eval.fidelities, "qplacer");
                out.op(legal && scored);
                place_ms.push(elapsed);
                if job < QUALITY_JOBS {
                    phs.push(hotspots.ph);
                    areas.push(area.mer_area);
                    neg_log_f.extend(eval.fidelities.iter().map(|f| -f.log10()));
                }
            }
            Err(_) => {
                out.op(false);
                out.check(false, || format!("qplacer job {job} panicked"));
            }
        }

        let t = process_cpu_s();
        let classic = catch_unwind(AssertUnwindSafe(|| {
            let layout = engine.execute(
                &device,
                Strategy::Classic,
                ExecOptions {
                    workspace: Some(&mut ws),
                    ..Default::default()
                },
            );
            let _ = (layout.area(), layout.hotspots());
            layout
        }));
        let elapsed = (process_cpu_s() - t) * 1e3;
        match classic {
            Ok(layout) => {
                let legal = layout_ok(&mut out, &layout, "classic");
                out.op(legal);
                classic_ms.push(elapsed);
            }
            Err(_) => {
                out.op(false);
                out.check(false, || format!("classic job {job} panicked"));
            }
        }
        job += 1;
    }

    out.set("setup_s", median(&setups));
    out.set("op_p50_ms", median(&place_ms));
    out.set("aux_p50_ms", median(&classic_ms));
    out.set(
        "throughput_per_s",
        ops_per_s(&[place_ms, classic_ms].concat()),
    );
    out.set("ph", mean(&phs));
    out.set("neg_log10_fidelity", mean(&neg_log_f));
    out.set("area_mm2", mean(&areas));
    out
}
