//! Cross-commit layout pins: the final global-placement positions of
//! one cold `PlacerConfig::fast()` Falcon run and of one warm re-place
//! seeded from it, hashed bit for bit.
//!
//! The engine is deterministic, so these hashes only move when the
//! floating-point work of a placement changes — a reordered sum in a
//! force kernel, a different step schedule, a new term. A change that
//! means to keep layouts identical (a faster kernel, a refactor) must
//! leave both hashes alone; a change that means to move layouts
//! updates them in the same commit and says why.
//!
//! The hashes depend on the platform `libm` (the wirelength model calls
//! `exp`), so they are pinned for x86-64 Linux only.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use qplacer_freq::FrequencyAssigner;
use qplacer_geometry::Point;
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_place::{ExecOptions, GlobalPlacer, PlacerConfig};
use qplacer_topology::Topology;

/// Cold `PlacerConfig::fast()` Falcon placement.
const COLD_FALCON_HASH: u64 = 0x0d81_3eda_65ca_6d9f;
/// Warm re-place of qubit 0 and its resonators from the cold layout.
const WARM_FALCON_HASH: u64 = 0xfd18_39f2_7120_9197;

/// FNV-1a over the IEEE-754 bits of every coordinate, in id order.
fn layout_hash(positions: &[Point]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in positions {
        for v in [p.x, p.y] {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn falcon() -> (Topology, QuantumNetlist) {
    let t = Topology::falcon27();
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    let nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
    (t, nl)
}

#[test]
fn cold_and_warm_falcon_layouts_match_their_pins() {
    let (t, mut nl) = falcon();
    GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, ExecOptions::default());
    let cold = layout_hash(nl.positions());

    // Warm re-place: qubit 0 and the segments of its resonators move,
    // everything else stays pinned at the cold layout.
    let mut pinned = vec![true; nl.num_instances()];
    pinned[nl.qubit_instance(0)] = false;
    for (e, &(a, b)) in t.edges().iter().enumerate() {
        if a == 0 || b == 0 {
            for &s in nl.resonator_segments(e) {
                pinned[s] = false;
            }
        }
    }
    GlobalPlacer::new(PlacerConfig::fast()).execute(
        &mut nl,
        ExecOptions {
            pinned: Some(&pinned),
            ..ExecOptions::default()
        },
    );
    let warm = layout_hash(nl.positions());

    assert_eq!(
        (cold, warm),
        (COLD_FALCON_HASH, WARM_FALCON_HASH),
        "layout hashes moved: cold {cold:#018x}, warm {warm:#018x}"
    );
}
