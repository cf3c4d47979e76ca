//! An ECO re-place from a base layout with a non-finite coordinate must
//! still give a legal, finite layout.
//!
//! A NaN or ±∞ previous position is not "exactly right", so the
//! instance it belongs to (a qubit, or a whole resonator for one bad
//! segment) re-places from scratch instead of being pinned there. Pinned
//! at a non-finite position, such an instance overlaps nothing on paper,
//! so the legalizer placed others on top of where it really belongs and
//! the re-place returned `Ok` with residual overlaps.
//!
//! Each case poisons one qubit or one resonator segment far from the
//! edit, on one axis or both, then re-places after a coupler drop and
//! after a qubit drop on Falcon at the fast budget.

use qplacer_harness::{PlacedLayout, Qplacer, ReplaceReport, Strategy};
use qplacer_topology::{Topology, TopologyDelta};

const BAD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// `prev` with instance `id` moved to `(v, v)` or `(v, y)`.
fn poisoned(prev: &PlacedLayout, id: usize, v: f64, both_axes: bool) -> PlacedLayout {
    let mut layout = prev.clone();
    let mut p = layout.netlist.position(id);
    p.x = v;
    if both_axes {
        p.y = v;
    }
    layout.netlist.set_position(id, p);
    layout
}

fn assert_legal(layout: &PlacedLayout, what: &str) {
    let nl = &layout.netlist;
    let bad = nl.positions().iter().filter(|p| p.is_degenerate()).count();
    assert_eq!(bad, 0, "{what}: {bad} positions are not finite");
    let pairs = nl.overlapping_pairs();
    assert!(pairs.is_empty(), "{what}: residual overlaps {pairs:?}");
    let legal = layout
        .legalization
        .as_ref()
        .expect("a warm re-place legalizes");
    assert_eq!(legal.remaining_overlaps, 0, "{what}");
}

#[test]
fn non_finite_base_positions_re_place_instead_of_pinning() {
    let base = Topology::falcon27();
    let engine = Qplacer::fast();
    let cold = engine.execute(&base, Strategy::FrequencyAware, Default::default());

    // The edits touch qubit 0; the poisoned instances sit at the far end
    // of the device, so on a clean base they are pinned.
    let far_qubit = base.num_qubits() - 1;
    let far_edge = base.edges().len() - 1;
    let edits = [
        (
            "coupler drop",
            TopologyDelta::drop_couplers(&base, &[base.edges()[0]]).expect("coupler exists"),
        ),
        (
            "qubit drop",
            TopologyDelta::drop_qubits(&base, &[0]).expect("qubit 0 exists"),
        ),
    ];
    let targets = [
        ("qubit", cold.netlist.qubit_instance(far_qubit)),
        ("segment", cold.netlist.resonator_segments(far_edge)[0]),
    ];

    for (edit, delta) in &edits {
        let (clean, clean_report): (PlacedLayout, ReplaceReport) = engine
            .execute_replace(&base, &cold, delta, Default::default())
            .expect("edit applies");
        assert_legal(&clean, &format!("{edit} from the clean base"));
        for (kind, id) in targets {
            for v in BAD {
                for both_axes in [false, true] {
                    let what = format!("{edit}, {kind} {id} at {v} (both axes: {both_axes})");
                    let prev = poisoned(&cold, id, v, both_axes);
                    let (warm, report) = engine
                        .execute_replace(&base, &prev, delta, Default::default())
                        .expect("edit applies");
                    assert_legal(&warm, &what);
                    assert!(
                        report.pinned_instances < clean_report.pinned_instances,
                        "{what}: the poisoned instance stayed pinned"
                    );
                    assert!(report.pinned_instances > 0, "{what}: nothing pinned");
                }
            }
        }
    }
}
