//! Cross-commit pin of the Fig. 11 evaluation: two `fast` Falcon
//! layouts — one QPlacer, one Classic (the Classic one keeps many
//! active crosstalk violations) — each scored on qaoa-9 and bv-4 over
//! 10 seeded subsets. The bits of every subset fidelity, the mean and
//! worst fidelity, the mean active-violation count, the skip counts and
//! the layout's `P_h` are hashed.
//!
//! The hashes only move when the floating-point work of routing,
//! scheduling or the Eq. 15 model changes. A change that means to keep
//! fidelities identical (a scan hoisted out of the subset loop, a
//! faster router) must leave them alone. They depend on the platform
//! `libm` (the model calls `sin`, `exp` and `sqrt`), so they are pinned
//! for x86-64 Linux only.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use qplacer_circuits::benchmark_by_name;
use qplacer_harness::{PlacedLayout, Qplacer, Strategy};
use qplacer_topology::Topology;

/// QPlacer layout, qaoa-9 then bv-4.
const QPLACER_HASH: u64 = 0x759d_3d6c_e770_7791;
/// Classic layout, qaoa-9 then bv-4.
const CLASSIC_HASH: u64 = 0x59f9_ae3f_d9f6_b9b1;

const SUBSETS: usize = 10;
const SEED: u64 = 0xF1D0;

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

/// Hash of `P_h` and of both benchmark evaluations of `layout`; also
/// returns the largest mean active-violation count seen.
fn eval_hash(device: &Topology, layout: &PlacedLayout) -> (u64, f64) {
    let mut words = vec![layout.hotspots().ph.to_bits()];
    let mut most_violations = 0.0f64;
    for name in ["qaoa-9", "bv-4"] {
        let circuit = benchmark_by_name(name).expect("paper benchmark").circuit;
        let eval = layout.evaluate(device, &circuit, SUBSETS, SEED);
        assert_eq!(
            eval.fidelities.len(),
            SUBSETS,
            "{name}: every subset routes"
        );
        words.extend(eval.fidelities.iter().map(|f| f.to_bits()));
        words.extend([
            eval.mean_fidelity.to_bits(),
            eval.min_fidelity.to_bits(),
            eval.mean_active_violations.to_bits(),
            eval.skipped_too_large as u64,
            eval.skipped_unroutable as u64,
        ]);
        most_violations = most_violations.max(eval.mean_active_violations);
    }
    (fnv1a(words), most_violations)
}

#[test]
fn falcon_evaluations_match_their_pins() {
    let device = Topology::falcon27();
    let engine = Qplacer::fast();
    let (aware, _) = eval_hash(
        &device,
        &engine.execute(&device, Strategy::FrequencyAware, Default::default()),
    );
    let (classic, classic_violations) = eval_hash(
        &device,
        &engine.execute(&device, Strategy::Classic, Default::default()),
    );
    assert!(
        classic_violations >= 1.0,
        "the Classic layout should exercise the violation loop \
         (mean active violations {classic_violations})"
    );
    assert_eq!(
        (aware, classic),
        (QPLACER_HASH, CLASSIC_HASH),
        "evaluation hashes moved: qplacer {aware:#018x}, classic {classic:#018x}"
    );
}
