//! Full Falcon-27 flow: the paper's Fig. 14 scenario.
//!
//! Places IBM's Falcon heavy-hex device, prints the frequency plan,
//! placement/legalization reports, and exports both the SVG layout
//! prototype (Fig. 14-b) and the GDS-lite artwork (Fig. 14-c substitute).
//!
//! ```sh
//! cargo run --release --example falcon_layout
//! ```

use qplacer::{artwork, ExecOptions, Qplacer, Strategy, Topology};

fn main() {
    let device = Topology::falcon27();
    println!("device: {device}");

    let engine = Qplacer::paper();
    let layout = engine.execute(&device, Strategy::FrequencyAware, ExecOptions::default());

    // Frequency plan (Fig. 14-a): slot histogram for qubits and resonators.
    println!("\nqubit frequency plan:");
    let mut slots: std::collections::BTreeMap<String, usize> = Default::default();
    for q in 0..device.num_qubits() {
        *slots
            .entry(format!("{}", layout.assignment.qubit(q)))
            .or_default() += 1;
    }
    for (f, n) in &slots {
        println!("  {f}: {n} qubits");
    }
    let mut rslots: std::collections::BTreeMap<String, usize> = Default::default();
    for r in 0..device.num_edges() {
        *rslots
            .entry(format!("{}", layout.assignment.resonator(r)))
            .or_default() += 1;
    }
    println!("resonator frequency plan: {} distinct slots", rslots.len());

    // Reports.
    let p = layout.placement.as_ref().unwrap();
    let l = layout.legalization.as_ref().unwrap();
    println!(
        "\nplacement: {} iters, capacity overflow {:.4}, HPWL {:.1} mm",
        p.iterations, p.final_overflow, p.hpwl
    );
    println!(
        "legalization: {}/{} resonators integrated ({} moved, {} swapped), {} overlaps",
        l.integrated_after,
        l.resonator_count,
        l.segments_moved,
        l.segments_swapped,
        l.remaining_overlaps
    );

    let area = layout.area();
    let hs = layout.hotspots();
    println!(
        "layout: {:.1} × {:.1} mm ({:.1} mm²), utilization {:.1}%, P_h {:.2}%",
        area.mer.width(),
        area.mer.height(),
        area.mer_area,
        area.utilization * 100.0,
        hs.ph * 100.0
    );

    // Meander sanity: routed path length per resonator vs designed length.
    let paths = artwork::meander_paths(&layout.netlist);
    let mean_path: f64 =
        paths.iter().map(|p| artwork::path_length(p)).sum::<f64>() / paths.len() as f64;
    println!("mean meander route length: {mean_path:.1} mm (designed 9.3–10.8 mm)");

    std::fs::write("falcon_layout.svg", layout.svg()).expect("write svg");
    std::fs::write("falcon_layout.gds.txt", layout.gds("FALCON27")).expect("write gds");
    println!("\nwrote falcon_layout.svg and falcon_layout.gds.txt");
}
