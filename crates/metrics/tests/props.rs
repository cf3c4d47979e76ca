//! Property-based tests for the metric family.

use proptest::prelude::*;
use qplacer_circuits::{generators, Router, Schedule};
use qplacer_freq::FrequencyAssigner;
use qplacer_geometry::Point;
use qplacer_metrics::{AreaMetrics, FidelityModel, HotspotConfig, HotspotReport};
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_topology::Topology;

fn netlist_at(positions_seed: u64, spread: f64) -> (Topology, QuantumNetlist) {
    let device = Topology::grid(3, 3);
    let freqs = FrequencyAssigner::paper_defaults().assign(&device);
    let mut nl = QuantumNetlist::build(&device, &freqs, &NetlistConfig::default());
    let mut state = positions_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    for i in 0..nl.num_instances() {
        nl.set_position(i, Point::new(next() * spread, next() * spread));
    }
    (device, nl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ph_is_monotone_under_spreading(seed in 0u64..200) {
        // Scaling every position by a factor > 1 cannot create violations
        // that were absent, so P_h at larger spread ≤ P_h at smaller.
        let (_d, tight) = netlist_at(seed, 6.0);
        let mut loose = tight.clone();
        for i in 0..loose.num_instances() {
            let p = tight.position(i);
            loose.set_position(i, Point::new(p.x * 4.0, p.y * 4.0));
        }
        let cfg = HotspotConfig::paper();
        let ph_tight = HotspotReport::scan(&tight, &cfg).ph;
        let ph_loose = HotspotReport::scan(&loose, &cfg).ph;
        prop_assert!(ph_loose <= ph_tight + 1e-12, "{ph_loose} > {ph_tight}");
    }

    #[test]
    fn hotspot_report_is_internally_consistent(seed in 0u64..200, spread in 3.0f64..20.0) {
        let (_d, nl) = netlist_at(seed, spread);
        let report = HotspotReport::scan(&nl, &HotspotConfig::paper());
        prop_assert!(report.ph >= 0.0);
        prop_assert_eq!(report.violations.is_empty(), report.ph == 0.0);
        if report.violations.is_empty() {
            prop_assert!(report.impacted_qubits.is_empty());
        }
        for &(i, j) in &report.violations {
            prop_assert!(i < j);
            prop_assert!(!nl.instance(i).same_resonator(nl.instance(j)));
        }
        // Impacted qubits are valid device indices, sorted, unique.
        prop_assert!(report.impacted_qubits.windows(2).all(|w| w[0] < w[1]));
        for &q in &report.impacted_qubits {
            prop_assert!(q < nl.num_qubits());
        }
    }

    #[test]
    fn area_metrics_are_scale_consistent(seed in 0u64..100, scale in 1.5f64..4.0) {
        let (_d, nl) = netlist_at(seed, 8.0);
        let mut scaled = nl.clone();
        for i in 0..scaled.num_instances() {
            let p = nl.position(i);
            scaled.set_position(i, Point::new(p.x * scale, p.y * scale));
        }
        let a = AreaMetrics::of(&nl);
        let b = AreaMetrics::of(&scaled);
        // Footprints don't scale, so poly area is invariant and the MER
        // grows (weakly) with position spread.
        prop_assert!((a.poly_area - b.poly_area).abs() < 1e-9);
        prop_assert!(b.mer_area + 1e-9 >= a.mer_area);
        prop_assert!(b.utilization <= a.utilization + 1e-12);
    }

    #[test]
    fn fidelity_is_a_probability_and_decreases_with_gate_count(seed in 0u64..50) {
        let (device, mut nl) = netlist_at(seed, 10.0);
        // Clean, spread layout.
        let n = nl.num_instances();
        let side = (n as f64).sqrt().ceil() as usize;
        for i in 0..n {
            nl.set_position(i, Point::new((i % side) as f64 * 5.0, (i / side) as f64 * 5.0));
        }
        let model = FidelityModel::default();
        let hotspots = HotspotReport::scan(&nl, &model.params().hotspot);
        let run = |steps: usize| {
            let routed = Router::new(&device)
                .route(&generators::ising(4, steps), &[0, 1, 4, 3])
                .unwrap();
            let s = Schedule::asap(&routed);
            model.evaluate(&nl, &hotspots, &routed, &s).total
        };
        let f1 = run(1);
        let f3 = run(3);
        prop_assert!((0.0..=1.0).contains(&f1));
        prop_assert!((0.0..=1.0).contains(&f3));
        prop_assert!(f3 < f1, "more Trotter steps must cost fidelity: {f3} !< {f1}");
    }
}
