//! `evaluate_benchmark` scans the layout for hotspots once per call,
//! however many subsets it scores: the spatial violations depend on the
//! layout alone. Counted with the `hotspot_scan` and `evaluate` span
//! sites, so this file holds a single test (spans are process-wide).

use qplacer_circuits::generators;
use qplacer_freq::FrequencyAssigner;
use qplacer_geometry::Point;
use qplacer_metrics::{evaluate_benchmark, FidelityParams};
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_topology::Topology;

/// Calls of the span site `name` since the last reset, under whatever
/// spans enclose them: the per-site count, which needs no event capture.
fn calls(name: &str) -> u64 {
    qplacer_obs::span_report()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.count)
        .sum()
}

#[test]
fn one_hotspot_scan_per_evaluation() {
    let device = Topology::falcon27();
    let freqs = FrequencyAssigner::paper_defaults().assign(&device);
    let mut nl = QuantumNetlist::build(&device, &freqs, &NetlistConfig::default());
    let side = (nl.num_instances() as f64).sqrt().ceil() as usize;
    for i in 0..nl.num_instances() {
        nl.set_position(
            i,
            Point::new((i % side) as f64 * 5.0, (i / side) as f64 * 5.0),
        );
    }

    qplacer_obs::set_spans_enabled(true);
    for subsets in [1, 10] {
        qplacer_obs::reset_spans();
        let eval = evaluate_benchmark(
            &nl,
            &device,
            &generators::bv(4),
            subsets,
            7,
            &FidelityParams::paper(),
        );
        assert_eq!(eval.fidelities.len(), subsets);
        assert_eq!(calls("evaluate"), 1, "{subsets} subsets");
        assert_eq!(calls("hotspot_scan"), 1, "{subsets} subsets");
    }
    qplacer_obs::set_spans_enabled(false);
}
