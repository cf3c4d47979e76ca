//! Frequency hotspot proportion `P_h` (Eq. 18) and impacted qubits.
//!
//! A *hotspot* is a pair of near-resonant instances (detuning ≤ Δc, not
//! the same resonator) positioned closer than the resonant safety margin.
//! Padding already guarantees the baseline clearance every pair needs;
//! resonant pairs additionally need `margin_mm` of extra clearance, which
//! is what the frequency repulsive force buys. Eq. 18 turns the
//! violations into a dimensionless proportion:
//!
//! ```text
//! P_h = Σ (p_i ∩ p_j) · d_c(p_i, p_j) · τ(ω_i, ω_j, Δc) / A_poly
//! ```
//!
//! with `(p_i ∩ p_j)` the adjacency length of the margin-inflated
//! footprints and `d_c` the centroid distance (mm · mm / mm² — unitless).

use serde::{Deserialize, Serialize};

use qplacer_geometry::SpatialGrid;
use qplacer_netlist::QuantumNetlist;

/// Hotspot detection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotspotConfig {
    /// Extra clearance (mm) that near-resonant pairs must keep beyond the
    /// padding-guaranteed minimum.
    pub resonant_margin_mm: f64,
}

impl HotspotConfig {
    /// The evaluation default: one default segment size (0.3 mm) of extra
    /// clearance for resonant pairs.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            resonant_margin_mm: 0.3,
        }
    }
}

impl Default for HotspotConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Result of a hotspot scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotspotReport {
    /// The hotspot proportion `P_h` (often quoted as a percentage).
    pub ph: f64,
    /// Violating instance pairs `(i, j)`, `i < j`.
    pub violations: Vec<(usize, usize)>,
    /// Device qubits impacted: qubits in a violating pair, or endpoints
    /// of a resonator with a violating segment.
    pub impacted_qubits: Vec<usize>,
}

impl HotspotReport {
    /// Scans `netlist` at its current positions.
    #[must_use]
    pub fn scan(netlist: &QuantumNetlist, config: &HotspotConfig) -> Self {
        let _span = qplacer_obs::span!("hotspot_scan", instances = netlist.num_instances());
        let margin = config.resonant_margin_mm;
        let dc = netlist.detuning_threshold() * 0.999;

        // Inflated footprints indexed spatially.
        let mut grid = SpatialGrid::new(
            netlist
                .region()
                .inflated(netlist.max_padded_side() + margin),
            (netlist.max_padded_side() + margin).max(0.1),
        );
        let inflated: Vec<_> = netlist
            .instances()
            .iter()
            .map(|inst| netlist.padded_rect(inst.id()).inflated(0.5 * margin))
            .collect();
        for inst in netlist.instances() {
            grid.insert(inst.id(), &inflated[inst.id()]);
        }

        let mut violations = Vec::new();
        let mut weighted = 0.0;
        for inst in netlist.instances() {
            let i = inst.id();
            for j in grid.query(&inflated[i]) {
                if j <= i {
                    continue;
                }
                let other = netlist.instance(j);
                if inst.same_resonator(other)
                    || !inst.frequency().is_resonant_with(other.frequency(), dc)
                    || !inflated[i].overlaps(&inflated[j])
                {
                    continue;
                }
                let adjacency = inflated[i].adjacency_length(&inflated[j]);
                let centroid_dist = netlist.position(i).distance(netlist.position(j));
                weighted += adjacency * centroid_dist;
                violations.push((i, j));
            }
        }

        let ph = weighted / netlist.total_padded_area();

        // Impacted qubits: direct participants plus the endpoints of any
        // resonator owning a violating segment (resonator crosstalk is
        // non-local — §VI-B).
        let mut impacted = std::collections::BTreeSet::new();
        for &(i, j) in &violations {
            for id in [i, j] {
                match netlist.instance(id).kind() {
                    qplacer_netlist::InstanceKind::Qubit(q) => {
                        impacted.insert(q);
                    }
                    qplacer_netlist::InstanceKind::ResonatorSegment { resonator, .. } => {
                        let (a, b) = netlist.resonator_endpoints(resonator);
                        impacted.insert(a);
                        impacted.insert(b);
                    }
                }
            }
        }

        Self {
            ph,
            violations,
            impacted_qubits: impacted.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_geometry::Point;
    use qplacer_netlist::NetlistConfig;
    use qplacer_topology::Topology;

    fn netlist() -> QuantumNetlist {
        let t = Topology::grid(3, 3);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        QuantumNetlist::build(&t, &freqs, &NetlistConfig::default())
    }

    /// Spread everything far apart on a big lattice: no violations.
    fn spread(nl: &mut QuantumNetlist) {
        let n = nl.num_instances();
        let side = (n as f64).sqrt().ceil() as usize;
        for i in 0..n {
            nl.set_position(
                i,
                Point::new((i % side) as f64 * 5.0, (i / side) as f64 * 5.0),
            );
        }
    }

    #[test]
    fn spread_layout_has_zero_ph() {
        let mut nl = netlist();
        spread(&mut nl);
        let report = HotspotReport::scan(&nl, &HotspotConfig::paper());
        assert_eq!(report.ph, 0.0);
        assert!(report.violations.is_empty());
        assert!(report.impacted_qubits.is_empty());
    }

    #[test]
    fn clustered_layout_has_hotspots() {
        let nl = netlist(); // built: everything piled at the center
        let report = HotspotReport::scan(&nl, &HotspotConfig::paper());
        assert!(report.ph > 0.0);
        assert!(!report.violations.is_empty());
        assert!(!report.impacted_qubits.is_empty());
    }

    #[test]
    fn resonant_qubit_pair_at_margin_boundary() {
        let mut nl = netlist();
        spread(&mut nl);
        // Find two distinct qubits sharing a frequency slot.
        let mut pair = None;
        'outer: for a in 0..nl.num_qubits() {
            for b in a + 1..nl.num_qubits() {
                let ia = nl.qubit_instance(a);
                let ib = nl.qubit_instance(b);
                if nl
                    .instance(ia)
                    .frequency()
                    .is_resonant_with(nl.instance(ib).frequency(), nl.detuning_threshold() * 0.5)
                {
                    pair = Some((ia, ib));
                    break 'outer;
                }
            }
        }
        let (ia, ib) = pair.expect("9 qubits over 5 slots must collide somewhere");
        let padded = nl.instance(ia).padded_mm();
        let margin = 0.3;
        // Just outside the margin: legal.
        nl.set_position(ia, Point::new(-40.0, -40.0));
        nl.set_position(ib, Point::new(-40.0 + padded + margin + 0.01, -40.0));
        let ok = HotspotReport::scan(&nl, &HotspotConfig::paper());
        assert!(!ok.violations.contains(&(ia.min(ib), ia.max(ib))));
        // Just inside: violation.
        nl.set_position(ib, Point::new(-40.0 + padded + margin - 0.05, -40.0));
        let bad = HotspotReport::scan(&nl, &HotspotConfig::paper());
        assert!(bad.violations.contains(&(ia.min(ib), ia.max(ib))));
        assert!(bad.ph > 0.0);
    }

    #[test]
    fn segment_violation_impacts_resonator_endpoints() {
        let mut nl = netlist();
        spread(&mut nl);
        // Take segments from two different resonators with resonant
        // frequencies, if they exist, and collide them.
        let map = nl.collision_map();
        let mut seg_pair = None;
        'outer: for (i, partners) in map.iter().enumerate() {
            if nl.instance(i).kind().is_qubit() {
                continue;
            }
            for &j in partners {
                if !nl.instance(j).kind().is_qubit() {
                    seg_pair = Some((i, j));
                    break 'outer;
                }
            }
        }
        if let Some((i, j)) = seg_pair {
            nl.set_position(i, Point::new(60.0, 60.0));
            nl.set_position(j, Point::new(60.1, 60.0));
            let report = HotspotReport::scan(&nl, &HotspotConfig::paper());
            let ri = nl.instance(i).kind().resonator().unwrap();
            let (a, b) = nl.resonator_endpoints(ri);
            assert!(report.impacted_qubits.contains(&a));
            assert!(report.impacted_qubits.contains(&b));
        }
    }

    #[test]
    fn ph_scales_with_violation_count() {
        let mut nl = netlist();
        spread(&mut nl);
        let base = HotspotReport::scan(&nl, &HotspotConfig::paper()).ph;
        assert_eq!(base, 0.0);
        // Pile all qubits up.
        for q in 0..nl.num_qubits() {
            nl.set_position(nl.qubit_instance(q), Point::new(q as f64 * 0.1, 0.0));
        }
        let piled = HotspotReport::scan(&nl, &HotspotConfig::paper()).ph;
        assert!(piled > 0.0);
    }
}
