//! The band-swept frequency force against its reference: the plain loop
//! over the lexicographic pair list of `QuantumNetlist::collision_map`.
//! Energy and every gradient slot must match bit for bit, and the pair
//! counts must agree, on every netlist shape the placer meets — device
//! families, spectra whose pitch is below Δc, coarsened V-cycle levels,
//! ECO-edited devices and coincident positions.
//!
//! The pin-aware gradient (`FrequencyForce::grad_into` with a mask) is
//! held to the same oracle: every free slot bit for bit, every pinned
//! slot `0.0`, under random masks and the all-pinned and all-free ones;
//! unmasked, it must equal `energy_grad_into`'s gradient bit for bit.
//!
//! The `#[ignore]`d case runs the paper-scale devices; it is meant for
//! release builds:
//! `cargo test --release -p qplacer-place --test freq_parity -- --ignored`.

use proptest::prelude::*;
use qplacer_freq::{FrequencyAssigner, Spectrum};
use qplacer_geometry::Point;
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_physics::Frequency;
use qplacer_place::{coarsen_hierarchy, FrequencyForce};
use qplacer_topology::Topology;

/// The pair-list kernel the band layout replaced, kept as the oracle:
/// returns the energy, the `[∂x…, ∂y…]` gradient and the pair count.
fn pair_list_reference(
    netlist: &QuantumNetlist,
    softening: f64,
    positions: &[Point],
) -> (f64, Vec<f64>, usize) {
    let map = netlist.collision_map();
    let mut pairs = Vec::new();
    for (i, partners) in map.iter().enumerate() {
        for &j in partners {
            if j > i {
                pairs.push((i, j));
            }
        }
    }
    let n = positions.len();
    let mut grad = vec![0.0; 2 * n];
    let mut energy = 0.0;
    let eps2 = softening * softening;
    for &(i, j) in &pairs {
        let dx = positions[i].x - positions[j].x;
        let dy = positions[i].y - positions[j].y;
        let r2 = dx * dx + dy * dy + eps2;
        let inv_r = 1.0 / r2.sqrt();
        energy += inv_r;
        let inv_r3 = inv_r * inv_r * inv_r;
        grad[i] -= dx * inv_r3;
        grad[j] += dx * inv_r3;
        grad[n + i] -= dy * inv_r3;
        grad[n + j] += dy * inv_r3;
    }
    (energy, grad, pairs.len())
}

/// Asserts bit-identical energy and gradient and equal pair counts, and
/// masked parity under the all-free, all-pinned and alternating masks;
/// returns the pair count.
fn assert_parity(netlist: &QuantumNetlist, positions: &[Point]) -> usize {
    let force = FrequencyForce::new(netlist);
    let (e_ref, g_ref, pairs) = pair_list_reference(netlist, force.softening(), positions);
    let n = positions.len();
    for mask in [
        vec![false; n],
        vec![true; n],
        (0..n).map(|i| i % 2 == 0).collect(),
    ] {
        assert_masked_parity(&force, &g_ref, positions, &mask);
    }
    assert_eq!(force.pair_count(), pairs, "pair count");
    assert_eq!(force.interaction_count(), 2 * pairs, "interaction count");
    let mut grad = vec![f64::NAN; 2 * positions.len()];
    let energy = force.energy_grad_into(positions, &mut grad);
    assert_eq!(
        energy.to_bits(),
        e_ref.to_bits(),
        "energy {energy} vs {e_ref}"
    );
    for (k, (g, r)) in grad.iter().zip(&g_ref).enumerate() {
        assert_eq!(g.to_bits(), r.to_bits(), "gradient slot {k}: {g} vs {r}");
    }
    pairs
}

/// Asserts that `grad_into` under `pinned` keeps every free slot of the
/// oracle gradient `g_ref` bit for bit and writes `0.0` into every
/// pinned slot, and that the unmasked `grad_into` equals
/// `energy_grad_into`'s gradient bit for bit.
fn assert_masked_parity(
    force: &FrequencyForce,
    g_ref: &[f64],
    positions: &[Point],
    pinned: &[bool],
) {
    let n = positions.len();
    let mut grad = vec![f64::NAN; 2 * n];
    force.grad_into(positions, &mut grad, Some(pinned));
    for (k, (g, r)) in grad.iter().zip(g_ref).enumerate() {
        let want = if pinned[k % n] { 0.0 } else { *r };
        assert_eq!(
            g.to_bits(),
            want.to_bits(),
            "masked gradient slot {k} (pinned {}): {g} vs {want}",
            pinned[k % n]
        );
    }
    let mut full = vec![f64::NAN; 2 * n];
    let _ = force.energy_grad_into(positions, &mut full);
    let mut plain = vec![f64::NAN; 2 * n];
    force.grad_into(positions, &mut plain, None);
    for (k, (g, r)) in plain.iter().zip(&full).enumerate() {
        assert_eq!(
            g.to_bits(),
            r.to_bits(),
            "unmasked gradient slot {k}: {g} vs {r}"
        );
    }
}

/// A seeded mask pinning about `pinned_pct` percent of `n` instances.
fn seeded_mask(n: usize, seed: u64, pinned_pct: u64) -> Vec<bool> {
    (0..n as u64)
        .map(|i| ((i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % 100 < pinned_pct)
        .collect()
}

fn build(device: &Topology, assigner: &FrequencyAssigner) -> QuantumNetlist {
    let freqs = assigner.assign(device);
    QuantumNetlist::build(device, &freqs, &NetlistConfig::default())
}

fn scattered(n: usize, spread: f64) -> Vec<Point> {
    (0..n)
        .map(|k| {
            Point::new(
                (k as f64 * 0.7).sin() * spread,
                (k as f64 * 1.3).cos() * spread,
            )
        })
        .collect()
}

/// Five resonator slots at a 30 MHz pitch (6.00–6.12 GHz) under the
/// paper's Δc = 0.1 GHz: neighbouring slots collide, so one band chains
/// several frequencies and only some of its members are partners.
fn fine_pitch_assigner() -> FrequencyAssigner {
    FrequencyAssigner::new(
        Spectrum::paper_qubit_band(),
        Spectrum::new(
            Frequency::from_ghz(6.0),
            Frequency::from_ghz(6.125),
            Frequency::from_ghz(0.03),
        ),
        2,
    )
}

fn arb_device() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2usize..5, 2usize..5).prop_map(|(w, h)| Topology::grid(w, h)),
        (1usize..3, 1usize..4).prop_map(|(r, c)| Topology::aspen(r, c)),
        (2usize..4, 1usize..3, 1usize..3).prop_map(|(r, b, l)| Topology::xtree(r, b, l)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matches_the_pair_list_on_device_families(
        device in arb_device(),
        fine_pitch in 0u8..2,
        seed in 0u64..1000,
        spread in 0.5f64..8.0,
    ) {
        let assigner = if fine_pitch == 1 {
            fine_pitch_assigner()
        } else {
            FrequencyAssigner::paper_defaults()
        };
        let nl = build(&device, &assigner);
        let positions: Vec<Point> = (0..nl.num_instances())
            .map(|k| {
                let t = (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                Point::new(
                    ((t % 1009) as f64 / 1009.0 - 0.5) * spread,
                    ((t / 1009 % 1013) as f64 / 1013.0 - 0.5) * spread,
                )
            })
            .collect();
        assert_parity(&nl, &positions);
    }

    #[test]
    fn masked_gradient_matches_the_pair_list(
        device in arb_device(),
        fine_pitch in 0u8..2,
        coincident in 0u8..2,
        seed in 0u64..1000,
        pinned_pct in 0u64..=100,
    ) {
        let assigner = if fine_pitch == 1 {
            fine_pitch_assigner()
        } else {
            FrequencyAssigner::paper_defaults()
        };
        let nl = build(&device, &assigner);
        let n = nl.num_instances();
        // Coincident layouts stack every third instance on one point.
        let positions: Vec<Point> = scattered(n, 3.0)
            .into_iter()
            .enumerate()
            .map(|(k, p)| if coincident == 1 && k % 3 == 0 { Point::new(0.5, -0.5) } else { p })
            .collect();
        let force = FrequencyForce::new(&nl);
        let (_, g_ref, _) = pair_list_reference(&nl, force.softening(), &positions);
        assert_masked_parity(&force, &g_ref, &positions, &seeded_mask(n, seed, pinned_pct));
    }
}

#[test]
fn masked_gradient_matches_the_pair_list_on_v_cycle_levels() {
    let fine = build(&Topology::falcon27(), &FrequencyAssigner::paper_defaults());
    let (levels, _) = coarsen_hierarchy(&fine, 3);
    assert!(!levels.is_empty(), "falcon should coarsen");
    for (l, level) in levels.iter().enumerate() {
        let n = level.num_instances();
        let positions = scattered(n, 2.0);
        let force = FrequencyForce::new(level);
        let (_, g_ref, _) = pair_list_reference(level, force.softening(), &positions);
        for pinned_pct in [10, 50, 90, 99] {
            let mask = seeded_mask(n, l as u64, pinned_pct);
            let pinned = mask.iter().filter(|&&p| p).count();
            assert!(
                0 < pinned && pinned < n,
                "level {l}: {pinned} of {n} pinned"
            );
            assert_masked_parity(&force, &g_ref, &positions, &mask);
        }
    }
}

#[test]
fn matches_the_pair_list_when_bands_chain_several_frequencies() {
    let nl = build(&Topology::grid(4, 4), &fine_pitch_assigner());
    // The netlist must really hold a band wider than Δc: a chain of
    // distinct frequencies whose neighbours collide but whose ends do not.
    let dc = (nl.detuning_threshold() * 0.999).ghz();
    let mut ghz: Vec<f64> = nl.instances().iter().map(|i| i.frequency().ghz()).collect();
    ghz.sort_by(f64::total_cmp);
    ghz.dedup();
    let widest_band = ghz
        .chunk_by(|a, b| b - a <= dc)
        .map(|band| band[band.len() - 1] - band[0])
        .fold(0.0, f64::max);
    assert!(widest_band > dc, "widest band spans {widest_band} GHz");
    assert!(assert_parity(&nl, &scattered(nl.num_instances(), 3.0)) > 0);
}

#[test]
fn matches_the_pair_list_on_coarsened_levels() {
    let t = Topology::falcon27();
    let fine = build(&t, &FrequencyAssigner::paper_defaults());
    // Pairwise merge by id: clusters join segments of different
    // resonators and qubits with segments.
    let cluster_of: Vec<usize> = (0..fine.num_instances()).map(|i| i / 2).collect();
    let paired = fine.coarsen(&cluster_of, fine.num_instances().div_ceil(2));
    assert!(assert_parity(&paired, &scattered(paired.num_instances(), 2.0)) > 0);
    // The V-cycle's own heavy-edge levels.
    let (levels, _) = coarsen_hierarchy(&fine, 3);
    assert!(!levels.is_empty(), "falcon should coarsen");
    for level in &levels {
        assert_parity(level, &scattered(level.num_instances(), 2.0));
    }
}

#[test]
fn matches_the_pair_list_on_an_eco_edited_device() {
    let base = Topology::falcon27();
    let target = base.yield_delta(85, 3).apply(&base).expect("delta applies");
    assert!(target.num_qubits() < base.num_qubits());
    let nl = build(&target, &FrequencyAssigner::paper_defaults());
    assert!(assert_parity(&nl, &scattered(nl.num_instances(), 3.0)) > 0);
}

#[test]
fn matches_the_pair_list_at_coincident_positions() {
    let nl = build(&Topology::grid(3, 3), &FrequencyAssigner::paper_defaults());
    let n = nl.num_instances();
    // Everything on one point, then half the instances on a second one.
    assert_parity(&nl, &vec![Point::new(1.0, -2.0); n]);
    let two: Vec<Point> = (0..n)
        .map(|k| Point::new(if k % 2 == 0 { 0.0 } else { 0.5 }, 0.0))
        .collect();
    assert_parity(&nl, &two);
}

#[test]
#[ignore = "paper-scale: run in release with --ignored"]
fn matches_the_pair_list_at_paper_scale() {
    let eagle = build(&Topology::eagle127(), &FrequencyAssigner::paper_defaults());
    assert_eq!(
        assert_parity(&eagle, &scattered(eagle.num_instances(), 20.0)),
        506_056
    );
    let d10 = build(
        &Topology::heavy_hex(10),
        &FrequencyAssigner::paper_defaults(),
    );
    assert_eq!(
        assert_parity(&d10, &scattered(d10.num_instances(), 40.0)),
        6_310_679
    );
    let (levels, _) = coarsen_hierarchy(&d10, 4);
    assert_eq!(
        levels.len(),
        3,
        "d10 coarsens to three levels below the full netlist"
    );
    for level in &levels {
        assert!(assert_parity(level, &scattered(level.num_instances(), 40.0)) > 0);
    }
}
