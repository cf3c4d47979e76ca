//! The Human (manual, IBM-style) baseline layout.

use qplacer_freq::FrequencyAssignment;
use qplacer_geometry::Point;
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_physics::Resonator;
use qplacer_topology::Topology;

/// Generator for the manually-designed baseline layout.
///
/// Qubits sit on a regular grid at pitch `L_q + 2d_q + D`, where
/// `D = L·d_r / (L_q + 2d_q)` reserves the full resonator channel between
/// neighbors (§V-B). Grid coordinates come from the topology's canonical
/// arrangement ([`Topology::coords`]) when available — this is what makes
/// the Human layout *topology-faithful* and therefore larger than a
/// compacted placement (heavy-hex leaves most grid cells empty) — and
/// fall back to a near-square BFS-ordered grid otherwise.
///
/// Resonator segments are laid evenly along the straight channel between
/// their endpoint qubits; segments of one resonator may overlap each
/// other there (they stand in for a meander within the reserved channel),
/// which no metric penalizes since same-resonator interactions are
/// excluded everywhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct HumanLayout;

impl HumanLayout {
    /// Builds the netlist for `topology` and positions every instance per
    /// the manual design rules.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` does not match the topology (propagated
    /// from [`QuantumNetlist::build`]).
    #[must_use]
    pub fn place(
        topology: &Topology,
        frequencies: &FrequencyAssignment,
        config: &NetlistConfig,
    ) -> QuantumNetlist {
        let mut netlist = QuantumNetlist::build(topology, frequencies, config);

        // Channel width D per the paper's formula D = L·d_r/(L_q + 2d_q),
        // widened when the padded segment blocks demand more area than the
        // bare strip (both comparison arms then pay the same per-segment
        // padding convention, so the area ratio compares layouts, not
        // padding rules).
        let denom = config.qubit_size_mm + 2.0 * config.qubit_padding_mm;
        let mean_channel_area = (0..topology.num_edges())
            .map(|e| {
                let res = Resonator::new(frequencies.resonator(e));
                let strip = res.length_mm() * config.resonator_padding_mm;
                let padded_blocks = res.segment_count(config.segment_size_mm) as f64
                    * config.padded_segment_mm()
                    * config.padded_segment_mm();
                strip.max(padded_blocks)
            })
            .sum::<f64>()
            / topology.num_edges().max(1) as f64;
        let channel = mean_channel_area / denom;
        let pitch = config.padded_qubit_mm() + channel;

        let coords = canonical_or_bfs_grid(topology);

        // Qubits at grid coordinates × pitch.
        for (q, &(cx, cy)) in coords.iter().enumerate().take(topology.num_qubits()) {
            netlist.set_position(
                netlist.qubit_instance(q),
                Point::new(cx * pitch, cy * pitch),
            );
        }

        // Segments evenly along each channel.
        for r in 0..netlist.num_resonators() {
            let (qa, qb) = netlist.resonator_endpoints(r);
            let pa = netlist.position(netlist.qubit_instance(qa));
            let pb = netlist.position(netlist.qubit_instance(qb));
            let segs: Vec<usize> = netlist.resonator_segments(r).to_vec();
            let count = segs.len();
            for (s, id) in segs.into_iter().enumerate() {
                let t = (s + 1) as f64 / (count + 1) as f64;
                netlist.set_position(id, pa.lerp(pb, t));
            }
        }
        netlist
    }
}

/// Canonical coordinates, or a near-square BFS-ordered grid fallback.
fn canonical_or_bfs_grid(topology: &Topology) -> Vec<(f64, f64)> {
    if let Some(coords) = topology.coords() {
        return coords.to_vec();
    }
    let n = topology.num_qubits();
    let side = (n as f64).sqrt().ceil() as usize;
    // BFS order keeps coupled qubits near each other on the grid.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in topology.neighbors(v) {
                if !seen[u] {
                    seen[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    let mut coords = vec![(0.0, 0.0); n];
    for (rank, q) in order.into_iter().enumerate() {
        coords[q] = ((rank % side) as f64, (rank / side) as f64);
    }
    coords
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_metrics::{AreaMetrics, HotspotConfig, HotspotReport};

    fn human(topology: &Topology) -> QuantumNetlist {
        let freqs = FrequencyAssigner::paper_defaults().assign(topology);
        HumanLayout::place(topology, &freqs, &NetlistConfig::default())
    }

    #[test]
    fn qubits_never_overlap() {
        for t in Topology::paper_suite() {
            let nl = human(&t);
            for a in 0..nl.num_qubits() {
                for b in a + 1..nl.num_qubits() {
                    let ra = nl.padded_rect(nl.qubit_instance(a));
                    let rb = nl.padded_rect(nl.qubit_instance(b));
                    assert!(
                        !ra.overlaps(&rb),
                        "{}: qubits {a}/{b} overlap in human layout",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn human_layout_is_hotspot_free() {
        for t in Topology::paper_suite() {
            let nl = human(&t);
            let report = HotspotReport::scan(&nl, &HotspotConfig::paper());
            assert_eq!(
                report.violations.len(),
                0,
                "{}: human layout has {} hotspots",
                t.name(),
                report.violations.len()
            );
        }
    }

    #[test]
    fn pitch_reserves_resonator_channel() {
        // D = L·d_r/(L_q+2d_q) with L ≈ 10 mm gives pitch ≈ 2.03 mm; the
        // grid topology then occupies about (5·pitch)² of substrate.
        let t = Topology::grid(5, 5);
        let nl = human(&t);
        let area = AreaMetrics::of(&nl);
        let pitch_est = (area.mer.width()) / 5.0; // 4 gaps + 1 footprint
        assert!(
            (1.8..=2.4).contains(&pitch_est),
            "pitch estimate {pitch_est}"
        );
    }

    #[test]
    fn segments_lie_between_their_qubits() {
        let t = Topology::grid(3, 3);
        let nl = human(&t);
        for r in 0..nl.num_resonators() {
            let (qa, qb) = nl.resonator_endpoints(r);
            let pa = nl.position(nl.qubit_instance(qa));
            let pb = nl.position(nl.qubit_instance(qb));
            let lo_x = pa.x.min(pb.x) - 1e-9;
            let hi_x = pa.x.max(pb.x) + 1e-9;
            let lo_y = pa.y.min(pb.y) - 1e-9;
            let hi_y = pa.y.max(pb.y) + 1e-9;
            for &s in nl.resonator_segments(r) {
                let p = nl.position(s);
                assert!(p.x >= lo_x && p.x <= hi_x && p.y >= lo_y && p.y <= hi_y);
            }
        }
    }

    #[test]
    fn fallback_grid_used_without_coords() {
        let t = Topology::from_edges("ring", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
            .unwrap();
        assert!(t.coords().is_none());
        let nl = human(&t);
        // Still a valid, overlap-free qubit arrangement.
        for a in 0..6 {
            for b in a + 1..6 {
                assert!(!nl
                    .padded_rect(nl.qubit_instance(a))
                    .overlaps(&nl.padded_rect(nl.qubit_instance(b))));
            }
        }
    }
}
