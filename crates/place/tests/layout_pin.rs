//! Cross-commit layout pins: the final global-placement positions of
//! one cold `PlacerConfig::fast()` Falcon run and of one warm re-place
//! seeded from it, hashed bit for bit. Three more cold runs pin the
//! other spectral kernels: a 30² bin grid (mixed-radix), a 31² grid
//! (Bluestein) and a three-level V-cycle (mixed-radix coarse grids).
//! The cold and warm Falcon runs also pin their `PlacementReport`:
//! the iteration count and the bits of the final overflow, the HPWL and
//! the frequency energy.
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
use qplacer_place::{ExecOptions, GlobalPlacer, PlacementReport, PlacerConfig};
use qplacer_topology::Topology;

/// Cold `PlacerConfig::fast()` Falcon placement.
const COLD_FALCON_HASH: u64 = 0x0d81_3eda_65ca_6d9f;
/// Warm re-place of qubit 0 and its resonators from the cold layout.
const WARM_FALCON_HASH: u64 = 0xfd18_39f2_7120_9197;
/// Report of the cold Falcon placement.
const COLD_FALCON_REPORT_HASH: u64 = 0xf1cb_d43a_db96_fbf1;
/// Report of the warm Falcon re-place.
const WARM_FALCON_REPORT_HASH: u64 = 0xb984_618a_f6f3_0e97;
/// Cold `PlacerConfig::fast()` Falcon placement on a 30² bin grid.
const COLD_FALCON_BINS30_HASH: u64 = 0xa06f_fda5_d864_af54;
/// Cold `PlacerConfig::fast()` Falcon placement on a 31² bin grid.
const COLD_FALCON_BINS31_HASH: u64 = 0x4c5c_0de8_ba8a_58a7;
/// Cold `PlacerConfig::fast()` Falcon placement as a three-level V-cycle
/// on the automatic bin grids.
const COLD_FALCON_LEVELS3_HASH: u64 = 0xeb84_265a_dbe3_377e;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the IEEE-754 bits of every coordinate, in id order.
fn layout_hash(positions: &[Point]) -> u64 {
    fnv1a(
        positions
            .iter()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits()]),
    )
}

/// FNV-1a over the iteration count and the bits of the final overflow,
/// HPWL and frequency energy.
fn report_hash(report: &PlacementReport) -> u64 {
    fnv1a([
        report.iterations as u64,
        report.final_overflow.to_bits(),
        report.hpwl.to_bits(),
        report.freq_energy.to_bits(),
    ])
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
    let cold_report =
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
    let warm_report = GlobalPlacer::new(PlacerConfig::fast()).execute(
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
    let (cold_report, warm_report) = (report_hash(&cold_report), report_hash(&warm_report));
    assert_eq!(
        (cold_report, warm_report),
        (COLD_FALCON_REPORT_HASH, WARM_FALCON_REPORT_HASH),
        "report hashes moved: cold {cold_report:#018x}, warm {warm_report:#018x}"
    );
}

#[test]
fn cold_falcon_layouts_on_other_kernels_match_their_pins() {
    let cold = |config: PlacerConfig| {
        let (_, mut nl) = falcon();
        GlobalPlacer::new(config).execute(&mut nl, ExecOptions::default());
        layout_hash(nl.positions())
    };
    let bins30 = cold(PlacerConfig {
        bins: Some(30),
        ..PlacerConfig::fast()
    });
    let bins31 = cold(PlacerConfig {
        bins: Some(31),
        ..PlacerConfig::fast()
    });
    let levels3 = cold(PlacerConfig {
        bins: None,
        levels: 3,
        ..PlacerConfig::fast()
    });

    assert_eq!(
        (bins30, bins31, levels3),
        (
            COLD_FALCON_BINS30_HASH,
            COLD_FALCON_BINS31_HASH,
            COLD_FALCON_LEVELS3_HASH
        ),
        "layout hashes moved: bins 30 {bins30:#018x}, bins 31 {bins31:#018x}, \
         levels 3 {levels3:#018x}"
    );
}
