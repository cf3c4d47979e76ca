//! Quickstart: place a 5×5 grid device with QPlacer and inspect the
//! layout quality.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use qplacer::{ExecOptions, Qplacer, Strategy, Topology};

fn main() {
    // 1. Pick a device topology (Table I's QEC-friendly grid).
    let device = Topology::grid(5, 5);
    println!("device: {device}");

    // 2. Run the full pipeline: frequency assignment, padding +
    //    resonator partitioning, electrostatic global placement with the
    //    frequency repulsive force, and integration-aware legalization.
    let engine = Qplacer::paper();
    let layout = engine.execute(&device, Strategy::FrequencyAware, ExecOptions::default());

    // 3. Inspect what came out.
    let placement = layout.placement.as_ref().expect("engine strategy");
    let legal = layout.legalization.as_ref().expect("engine strategy");
    println!(
        "global placement: {} iterations, capacity overflow {:.4}, HPWL {:.1} mm, {:.2} s",
        placement.iterations, placement.final_overflow, placement.hpwl, placement.elapsed_seconds
    );
    println!(
        "legalization: {} overlaps, {}/{} resonators integrated, mean qubit displacement {:.3} mm",
        legal.remaining_overlaps,
        legal.integrated_after,
        legal.resonator_count,
        legal.mean_qubit_displacement
    );

    let area = layout.area();
    println!(
        "area: A_mer = {:.1} mm² ({:.1} × {:.1} mm), utilization {:.1}%",
        area.mer_area,
        area.mer.width(),
        area.mer.height(),
        area.utilization * 100.0
    );

    let hotspots = layout.hotspots();
    println!(
        "hotspots: P_h = {:.2}%, {} violations, {} impacted qubits",
        hotspots.ph * 100.0,
        hotspots.violations.len(),
        hotspots.impacted_qubits.len()
    );

    // 4. Evaluate a benchmark program on the layout (10 random subsets).
    let bv4 = qplacer::circuits::generators::bv(4);
    let eval = layout.evaluate(&device, &bv4, 10, 42);
    println!(
        "bv-4 fidelity: mean {:.4}, worst {:.4} over {} mappings",
        eval.mean_fidelity,
        eval.min_fidelity,
        eval.fidelities.len()
    );

    // 5. Export artwork: the layout and the engine's convergence trace.
    std::fs::write("quickstart_layout.svg", layout.svg()).expect("write svg");
    let trace: Vec<(f64, f64)> = placement
        .overflow_trace
        .iter()
        .map(|&(it, ovf)| (it as f64, ovf))
        .collect();
    let chart = qplacer::artwork::render_line_chart(
        "density overflow vs iteration",
        "iteration",
        "overflow",
        &[("overflow".to_string(), trace)],
    );
    std::fs::write("quickstart_convergence.svg", chart).expect("write chart");
    println!("wrote quickstart_layout.svg and quickstart_convergence.svg");
}
