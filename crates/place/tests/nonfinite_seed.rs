//! A non-finite or huge seed coordinate must not poison a placement.
//!
//! One NaN coordinate used to turn every position of the layout into
//! NaN, and the report then read `final_overflow == 0.0` (a NaN
//! footprint deposits no charge), so the overflow gate took the NaN
//! layout for a converged one. The placer now starts a NaN coordinate at
//! the region centre and clamps ±∞ into the region; finite seeds, 1e300
//! included, keep their bits and are left to the loop's own region
//! clamp (a pinned one stays where it was put). Each case runs
//! cold, as a multilevel V-cycle, and warm with the bad seed on a
//! pinned and on a free instance.

use qplacer_freq::FrequencyAssigner;
use qplacer_geometry::Point;
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_place::{ExecOptions, GlobalPlacer, PlacementReport, PlacerConfig};
use qplacer_topology::Topology;

const BAD_SEEDS: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];

fn falcon() -> QuantumNetlist {
    let t = Topology::falcon27();
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    QuantumNetlist::build(&t, &freqs, &NetlistConfig::default())
}

/// `nl` with instance `id` moved to `(v, v)`, `(v, y)` or `(x, v)`.
fn seeded(nl: &QuantumNetlist, id: usize, v: f64, axes: usize) -> QuantumNetlist {
    let mut nl = nl.clone();
    let p = nl.position(id);
    let bad = match axes {
        0 => Point::new(v, v),
        1 => Point::new(v, p.y),
        _ => Point::new(p.x, v),
    };
    nl.set_position(id, bad);
    nl
}

/// Every position and the report are finite, and every instance not set
/// in `pinned` lies inside the region.
fn assert_finite(nl: &QuantumNetlist, report: &PlacementReport, pinned: &[bool], what: &str) {
    let bad = nl
        .positions()
        .iter()
        .filter(|p| !(p.x.is_finite() && p.y.is_finite()))
        .count();
    assert_eq!(
        bad,
        0,
        "{what}: {bad} of {} positions are not finite",
        nl.num_instances()
    );
    assert!(
        report.final_overflow.is_finite(),
        "{what}: final overflow {}",
        report.final_overflow
    );
    assert!(report.hpwl.is_finite(), "{what}: HPWL {}", report.hpwl);
    let region = nl.region().inflated(1e-6);
    for id in (0..nl.num_instances()).filter(|&id| !pinned.get(id).copied().unwrap_or(false)) {
        assert!(
            region.contains_rect(&nl.padded_rect(id)),
            "{what}: instance {id} left the region"
        );
    }
}

#[test]
fn non_finite_cold_seeds_give_finite_layouts() {
    let base = falcon();
    let id = base.qubit_instance(3);
    for levels in [1, 3] {
        let config = PlacerConfig {
            levels,
            ..PlacerConfig::fast()
        };
        for v in BAD_SEEDS {
            for axes in 0..3 {
                let mut nl = seeded(&base, id, v, axes);
                let report = GlobalPlacer::new(config).execute(&mut nl, ExecOptions::default());
                assert_finite(
                    &nl,
                    &report,
                    &[],
                    &format!("cold seed {v} (axes {axes}, levels {levels})"),
                );
            }
        }
    }
}

#[test]
fn non_finite_warm_seeds_give_finite_layouts() {
    let config = PlacerConfig::fast();
    let mut cold = falcon();
    let _ = GlobalPlacer::new(config).execute(&mut cold, ExecOptions::default());

    // Qubit 0 is free; every other instance is pinned.
    let free = cold.qubit_instance(0);
    let mut pinned = vec![true; cold.num_instances()];
    pinned[free] = false;
    let pinned_id = cold.qubit_instance(5);
    for id in [free, pinned_id] {
        for v in BAD_SEEDS {
            let mut nl = seeded(&cold, id, v, 0);
            let report = GlobalPlacer::new(config).execute(
                &mut nl,
                ExecOptions {
                    pinned: Some(&pinned),
                    ..Default::default()
                },
            );
            let what = format!("warm seed {v} on instance {id} (pinned: {})", pinned[id]);
            assert_finite(&nl, &report, &pinned, &what);
            // Every other pinned instance keeps its seed bit for bit, and
            // so does a pinned finite seed, however far out it lies.
            for (other, &pin) in pinned.iter().enumerate() {
                if pin && other != id {
                    assert_eq!(
                        nl.position(other),
                        cold.position(other),
                        "{what}: {other} moved"
                    );
                }
            }
            if pinned[id] && v.is_finite() {
                assert_eq!(nl.position(id), Point::new(v, v), "{what}: the seed moved");
            }
        }
    }
}
