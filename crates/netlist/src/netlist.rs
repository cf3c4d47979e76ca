//! The assembled placement netlist.

use serde::{Deserialize, Serialize};

use qplacer_geometry::{Point, Rect};
use qplacer_physics::Frequency;

use crate::{Instance, Net};

/// A complete placement problem: instances with positions, nets, the
/// placement region, and the device bookkeeping (which instances belong
/// to which qubit/resonator).
///
/// Positions always refer to instance *centers*. The netlist is built by
/// [`QuantumNetlist::build`](crate::QuantumNetlist::build); the placement
/// engine and legalizers then mutate positions through
/// [`set_position`](QuantumNetlist::set_position) /
/// [`set_positions`](QuantumNetlist::set_positions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantumNetlist {
    pub(crate) instances: Vec<Instance>,
    pub(crate) nets: Vec<Net>,
    pub(crate) positions: Vec<Point>,
    pub(crate) region: Rect,
    /// Instance id of each qubit, indexed by device qubit index.
    pub(crate) qubit_instances: Vec<usize>,
    /// Instance ids of each resonator's segments, in chain order.
    pub(crate) resonator_segments: Vec<Vec<usize>>,
    /// Device edge endpoints per resonator.
    pub(crate) resonator_endpoints: Vec<(usize, usize)>,
    pub(crate) detuning_threshold: Frequency,
}

impl QuantumNetlist {
    /// All instances.
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Instance by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn instance(&self, id: usize) -> &Instance {
        &self.instances[id]
    }

    /// Number of instances (Table II's `#cells`).
    #[must_use]
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// All nets.
    #[must_use]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The placement region.
    #[must_use]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Overrides the placement region. The incremental (ECO) path uses
    /// this to keep a shrunken device on its previous, larger region so
    /// pinned instances stay in bounds; `region` must contain the
    /// computed one (growing the region only relaxes the density and
    /// clamp constraints).
    pub fn set_region(&mut self, region: Rect) {
        self.region = region;
    }

    /// Number of device qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.qubit_instances.len()
    }

    /// Number of resonators (device edges).
    #[must_use]
    pub fn num_resonators(&self) -> usize {
        self.resonator_segments.len()
    }

    /// Instance id of device qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn qubit_instance(&self, q: usize) -> usize {
        self.qubit_instances[q]
    }

    /// Segment instance ids of resonator `r`, in chain order.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn resonator_segments(&self, r: usize) -> &[usize] {
        &self.resonator_segments[r]
    }

    /// The device qubits resonator `r` couples.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn resonator_endpoints(&self, r: usize) -> (usize, usize) {
        self.resonator_endpoints[r]
    }

    /// The detuning threshold Δc the netlist was built with.
    #[must_use]
    pub fn detuning_threshold(&self) -> Frequency {
        self.detuning_threshold
    }

    /// Current center position of instance `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn position(&self, id: usize) -> Point {
        self.positions[id]
    }

    /// All current positions, indexed by instance id.
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Moves instance `id` to center `p`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_position(&mut self, id: usize, p: Point) {
        self.positions[id] = p;
    }

    /// Replaces all positions.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len()` differs from the instance count.
    pub fn set_positions(&mut self, positions: &[Point]) {
        assert_eq!(
            positions.len(),
            self.instances.len(),
            "position count mismatch"
        );
        self.positions.copy_from_slice(positions);
    }

    /// Padded footprint of instance `id` at its current position.
    #[must_use]
    pub fn padded_rect(&self, id: usize) -> Rect {
        self.instances[id].padded_rect(self.positions[id])
    }

    /// Core footprint of instance `id` at its current position.
    #[must_use]
    pub fn core_rect(&self, id: usize) -> Rect {
        self.instances[id].core_rect(self.positions[id])
    }

    /// Sum of padded instance areas (the density mass).
    #[must_use]
    pub fn total_padded_area(&self) -> f64 {
        self.instances.iter().map(Instance::padded_area).sum()
    }

    /// Sum of core instance areas (`A_poly` numerator of Eq. 17).
    #[must_use]
    pub fn total_core_area(&self) -> f64 {
        self.instances.iter().map(Instance::core_area).sum()
    }

    /// Builds each instance's *frequency collision map*: the other
    /// instances within Δc of its frequency, excluding members of the same
    /// resonator (Eq. 10's Kronecker-delta exclusion). The placement
    /// engine's frequency force acts on exactly these pairs instead of
    /// all pairs (§IV-C1), derived from frequency bands rather than
    /// from these lists.
    #[must_use]
    pub fn collision_map(&self) -> Vec<Vec<usize>> {
        let n = self.instances.len();
        let dc = self.detuning_threshold * 0.999;
        let mut map = vec![Vec::new(); n];
        // Bucket instances by frequency slot for near-linear construction.
        let mut by_freq: Vec<(f64, usize)> = self
            .instances
            .iter()
            .map(|inst| (inst.frequency().ghz(), inst.id()))
            .collect();
        by_freq.sort_by(|a, b| a.0.total_cmp(&b.0));
        for i in 0..n {
            let (fi, id_i) = by_freq[i];
            for &(fj, id_j) in by_freq[i + 1..].iter() {
                if fj - fi > dc.ghz() {
                    break;
                }
                let a = &self.instances[id_i];
                let b = &self.instances[id_j];
                if a.same_resonator(b) {
                    continue;
                }
                map[id_i].push(id_j);
                map[id_j].push(id_i);
            }
        }
        for lst in &mut map {
            lst.sort_unstable();
        }
        map
    }

    /// Pairs of instances whose padded footprints overlap at the current
    /// positions (spatial violations before/after legalization).
    #[must_use]
    pub fn overlapping_pairs(&self) -> Vec<(usize, usize)> {
        let mut grid = qplacer_geometry::SpatialGrid::new(
            self.region.inflated(self.region.width().max(1.0)),
            self.max_padded_side().max(0.1),
        );
        for inst in &self.instances {
            grid.insert(inst.id(), &self.padded_rect(inst.id()));
        }
        let mut out = Vec::new();
        for inst in &self.instances {
            let id = inst.id();
            let r = self.padded_rect(id);
            for other in grid.query(&r) {
                if other > id && r.overlaps(&self.padded_rect(other)) {
                    out.push((id, other));
                }
            }
        }
        out
    }

    /// Largest padded footprint side among all instances.
    #[must_use]
    pub fn max_padded_side(&self) -> f64 {
        self.instances
            .iter()
            .map(Instance::padded_mm)
            .fold(0.0, f64::max)
    }
}
