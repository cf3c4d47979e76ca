//! Cross-commit pin of paper-config Eagle ECO re-places: one cold
//! frequency-aware Eagle layout, then `Qplacer::execute_replace` for a
//! coupler drop, a qubit drop and a 97 %-yield edit. Each edit's final
//! (legalized) positions and its global-placement report — iteration
//! count and the bits of the final overflow, HPWL and frequency energy —
//! are hashed bit for bit.
//!
//! The hashes only move when the floating-point work of a warm
//! re-place changes. A change that means to keep layouts identical (a
//! faster kernel, skipped work on pinned instances) must leave them
//! alone. They depend on the platform `libm`, so they are pinned for
//! x86-64 Linux only.
//!
//! The cold Eagle run takes seconds in a release build, so the test is
//! `#[ignore]`d; run it with
//! `cargo test --release -p qplacer-harness --test eco_pin -- --ignored`.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use qplacer_harness::{PlacedLayout, Qplacer, Strategy};
use qplacer_topology::{Topology, TopologyDelta};

/// Coupler 0–1 dropped.
const COUPLER_DROP_HASH: u64 = 0x9545_cd3a_cfd5_051e;
/// Qubit 62 dropped.
const QUBIT_DROP_HASH: u64 = 0xd91e_cc62_ba86_9db0;
/// `yield_delta(97, 1)`.
const YIELD_97_HASH: u64 = 0x81c9_ab3e_dbdb_5d7c;

/// FNV-1a over the final coordinates' bits, in id order, then the
/// placement report's iteration count, final overflow, HPWL and
/// frequency energy.
fn replace_hash(layout: &PlacedLayout) -> u64 {
    let report = layout.placement.as_ref().expect("a warm re-place places");
    let coordinates = layout
        .netlist
        .positions()
        .iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits()]);
    let fields = [
        report.iterations as u64,
        report.final_overflow.to_bits(),
        report.hpwl.to_bits(),
        report.freq_energy.to_bits(),
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in coordinates.chain(fields) {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
#[ignore = "paper-scale: run in release with --ignored"]
fn paper_eagle_replaces_match_their_pins() {
    let base = Topology::eagle127();
    let engine = Qplacer::paper();
    let cold = engine.execute(&base, Strategy::FrequencyAware, Default::default());

    let edits = [
        TopologyDelta::drop_couplers(&base, &[(0, 1)]).expect("coupler 0-1 exists"),
        TopologyDelta::drop_qubits(&base, &[62]).expect("qubit 62 exists"),
        base.yield_delta(97, 1),
    ];
    let hashes: Vec<u64> = edits
        .iter()
        .map(|delta| {
            let (warm, report) = engine
                .execute_replace(&base, &cold, delta, Default::default())
                .expect("edit applies");
            assert!(!report.carried_reports, "every edit re-places");
            assert!(report.pinned_instances > 0, "every edit pins survivors");
            replace_hash(&warm)
        })
        .collect();

    assert_eq!(
        hashes,
        [COUPLER_DROP_HASH, QUBIT_DROP_HASH, YIELD_97_HASH],
        "Eagle ECO hashes moved: {}",
        hashes
            .iter()
            .map(|h| format!("{h:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
