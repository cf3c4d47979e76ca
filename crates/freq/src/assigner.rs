//! End-to-end frequency assignment over a device topology.

use serde::{Deserialize, Serialize};

use qplacer_obs::{NullTraceSink, TraceRecord, TraceSink};
use qplacer_physics::Frequency;
use qplacer_topology::Topology;

use crate::coloring::{dsatur_into, DsaturScratch};
use crate::Spectrum;

/// Reusable buffers for [`FrequencyAssigner::assign_with`]: CSR conflict
/// graphs, BFS state, coloring bitsets, and slot scratch. A harness
/// sweeping many jobs keeps one of these per worker and pays the graph
/// allocations once; steady-state assignments of the same topology shape
/// allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct FreqWorkspace {
    /// CSR soft-conflict graph (radius-R neighborhoods / line graph).
    soft_off: Vec<usize>,
    soft: Vec<usize>,
    /// CSR hard-conflict graph (directly coupled pairs must differ).
    hard_off: Vec<usize>,
    hard: Vec<usize>,
    /// BFS scratch for radius conflicts.
    dist: Vec<usize>,
    queue: std::collections::VecDeque<usize>,
    /// Incident-edge lists (line-graph construction).
    inc_off: Vec<usize>,
    inc: Vec<usize>,
    cursor: Vec<usize>,
    /// Coloring + slotting scratch.
    dsatur: DsaturScratch,
    color: Vec<usize>,
    slots: Vec<usize>,
    taken: Vec<bool>,
}

/// Frequencies chosen for every qubit and every resonator of a device.
///
/// Indices follow the topology: `qubits[q]` for qubit `q`,
/// `resonators[e]` for the resonator on edge `e` (see
/// [`Topology::edges`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyAssignment {
    qubits: Vec<Frequency>,
    resonators: Vec<Frequency>,
    detuning_threshold: Frequency,
}

impl FrequencyAssignment {
    /// Frequency of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn qubit(&self, q: usize) -> Frequency {
        self.qubits[q]
    }

    /// Frequency of the resonator on edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn resonator(&self, e: usize) -> Frequency {
        self.resonators[e]
    }

    /// All qubit frequencies.
    #[must_use]
    pub fn qubit_frequencies(&self) -> &[Frequency] {
        &self.qubits
    }

    /// All resonator frequencies (indexed by edge).
    #[must_use]
    pub fn resonator_frequencies(&self) -> &[Frequency] {
        &self.resonators
    }

    /// The detuning threshold Δc the assignment was built for.
    #[must_use]
    pub fn detuning_threshold(&self) -> Frequency {
        self.detuning_threshold
    }

    /// Directly coupled qubit pairs whose detuning is below Δc — the
    /// frequency-domain isolation failures. Empty whenever the conflict
    /// chromatic number fits the spectrum.
    #[must_use]
    pub fn qubit_conflicts(&self, topology: &Topology) -> Vec<(usize, usize)> {
        topology
            .edges()
            .iter()
            .copied()
            .filter(|&(a, b)| {
                self.qubits[a].is_resonant_with(self.qubits[b], self.detuning_threshold * 0.999)
            })
            .collect()
    }

    /// Resonator pairs sharing a qubit whose detuning is below Δc.
    #[must_use]
    pub fn resonator_conflicts(&self, topology: &Topology) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let edges = topology.edges();
        for q in 0..topology.num_qubits() {
            let incident: Vec<usize> = (0..edges.len())
                .filter(|&e| edges[e].0 == q || edges[e].1 == q)
                .collect();
            for i in 0..incident.len() {
                for j in i + 1..incident.len() {
                    let (a, b) = (incident[i], incident[j]);
                    if self.resonators[a]
                        .is_resonant_with(self.resonators[b], self.detuning_threshold * 0.999)
                        && !out.contains(&(a, b))
                    {
                        out.push((a, b));
                    }
                }
            }
        }
        out
    }
}

/// Configurable frequency assigner (paper §IV-A).
///
/// Qubits are colored on their *radius-2* conflict graph (direct neighbors
/// and neighbors-of-neighbors — the spatial-crosstalk-relevant pairs) and
/// mapped to spectrum slots; colors beyond the slot count wrap, after
/// which a repair pass re-slots any directly-coupled collision (always
/// possible while the direct degree is below the slot count). Resonators
/// are colored on the line graph (resonators sharing a qubit conflict).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrequencyAssigner {
    qubit_band: Spectrum,
    resonator_band: Spectrum,
    /// Conflict radius for qubit coloring (1 = direct neighbors only).
    qubit_conflict_radius: usize,
}

impl FrequencyAssigner {
    /// Assigner with the paper's spectra (4.8–5.2 GHz qubits, 6–7 GHz
    /// resonators, Δc = 0.1 GHz) and radius-2 qubit conflicts.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            qubit_band: Spectrum::paper_qubit_band(),
            resonator_band: Spectrum::paper_resonator_band(),
            qubit_conflict_radius: 2,
        }
    }

    /// Assigner with custom spectra.
    #[must_use]
    pub fn new(
        qubit_band: Spectrum,
        resonator_band: Spectrum,
        qubit_conflict_radius: usize,
    ) -> Self {
        Self {
            qubit_band,
            resonator_band,
            qubit_conflict_radius,
        }
    }

    /// The qubit spectrum.
    #[must_use]
    pub fn qubit_band(&self) -> Spectrum {
        self.qubit_band
    }

    /// The resonator spectrum.
    #[must_use]
    pub fn resonator_band(&self) -> Spectrum {
        self.resonator_band
    }

    /// The qubit conflict radius (hops) the soft coloring graph uses.
    #[must_use]
    pub fn conflict_radius(&self) -> usize {
        self.qubit_conflict_radius
    }

    /// Assigns frequencies to every qubit and resonator of `topology`.
    ///
    /// Allocating convenience wrapper around
    /// [`FrequencyAssigner::assign_with`].
    #[must_use]
    pub fn assign(&self, topology: &Topology) -> FrequencyAssignment {
        let mut ws = FreqWorkspace::default();
        self.assign_with(topology, &mut ws)
    }

    /// Like [`FrequencyAssigner::assign`], but reuses the conflict-graph,
    /// BFS, and coloring buffers in `ws` across calls — the form sweep
    /// jobs should use.
    #[must_use]
    pub fn assign_with(&self, topology: &Topology, ws: &mut FreqWorkspace) -> FrequencyAssignment {
        let mut out = FrequencyAssignment {
            qubits: Vec::new(),
            resonators: Vec::new(),
            detuning_threshold: self.qubit_band.step(),
        };
        self.assign_into(topology, ws, &mut out);
        out
    }

    /// Like [`FrequencyAssigner::assign_with`], but emits one
    /// [`TraceRecord::FreqPhase`] per coloring phase into `sink` (see
    /// [`FrequencyAssigner::assign_traced_into`]).
    #[must_use]
    pub fn assign_traced_with(
        &self,
        topology: &Topology,
        ws: &mut FreqWorkspace,
        sink: &mut dyn TraceSink,
    ) -> FrequencyAssignment {
        let mut out = FrequencyAssignment {
            qubits: Vec::new(),
            resonators: Vec::new(),
            detuning_threshold: self.qubit_band.step(),
        };
        self.assign_traced_into(topology, ws, &mut out, sink);
        out
    }

    /// Like [`FrequencyAssigner::assign_with`], but also writes into an
    /// existing [`FrequencyAssignment`], so steady-state assignments of
    /// the same topology shape allocate nothing at all.
    pub fn assign_into(
        &self,
        topology: &Topology,
        ws: &mut FreqWorkspace,
        out: &mut FrequencyAssignment,
    ) {
        self.assign_traced_into(topology, ws, out, &mut NullTraceSink);
    }

    /// Like [`FrequencyAssigner::assign_into`], but emits one
    /// [`TraceRecord::FreqPhase`] per coloring phase (`qubits`,
    /// `resonators`) into `sink`, each timed by its span
    /// (`freq_color_qubits`, `freq_color_resonators`). Timing flows only
    /// into `sink` and the spans; the assignment itself is bit-identical
    /// to the untraced path.
    pub fn assign_traced_into(
        &self,
        topology: &Topology,
        ws: &mut FreqWorkspace,
        out: &mut FrequencyAssignment,
        sink: &mut dyn TraceSink,
    ) {
        // Qubits: color the radius-R conflict graph, repair on the direct
        // graph.
        let span = qplacer_obs::span!("freq_color_qubits", items = topology.num_qubits());
        radius_conflicts_into(topology, self.qubit_conflict_radius, ws);
        direct_adjacency_into(topology, ws);
        color_and_slot(ws, self.qubit_band.num_slots());
        out.qubits.clear();
        out.qubits
            .extend(ws.slots.iter().map(|&s| self.qubit_band.slot(s)));
        sink.record(&TraceRecord::FreqPhase {
            phase: "qubits",
            elapsed_ns: span.finish().as_nanos() as u64,
            items: out.qubits.len() as u64,
        });

        // Resonators: the line graph is both the soft and the hard graph.
        let span = qplacer_obs::span!("freq_color_resonators", items = topology.num_edges());
        line_graph_into(topology, ws);
        color_and_slot(ws, self.resonator_band.num_slots());
        out.resonators.clear();
        out.resonators
            .extend(ws.slots.iter().map(|&s| self.resonator_band.slot(s)));
        sink.record(&TraceRecord::FreqPhase {
            phase: "resonators",
            elapsed_ns: span.finish().as_nanos() as u64,
            items: out.resonators.len() as u64,
        });

        out.detuning_threshold = self.qubit_band.step();
    }

    /// Incremental re-assignment after a topology delta: frequencies of
    /// clean mapped components are carried over from `prev`
    /// **bit-for-bit**, and only dirty or new components are recolored
    /// against the carried-over spectrum.
    ///
    /// `qubit_map[t]` / `edge_map[e]` give the previous-device index the
    /// target qubit/resonator corresponds to (`None` for new ones), and
    /// `dirty[t]` marks the target qubits whose conflict neighborhood
    /// the delta touches (see `TopologyDelta::dirty_qubits` with the
    /// assigner's conflict radius). A resonator is recolored when it is
    /// unmapped or either endpoint is dirty.
    ///
    /// Recoloring is deterministic (increasing index, lowest admissible
    /// slot, hard conflicts before soft): with every component clean and
    /// mapped under identity, the result equals `prev` exactly.
    ///
    /// # Panics
    ///
    /// Panics if the map or mask lengths do not match `topology`.
    #[must_use]
    pub fn assign_incremental_with(
        &self,
        topology: &Topology,
        prev: &FrequencyAssignment,
        qubit_map: &[Option<usize>],
        edge_map: &[Option<usize>],
        dirty: &[bool],
        ws: &mut FreqWorkspace,
    ) -> FrequencyAssignment {
        let n = topology.num_qubits();
        let m = topology.num_edges();
        assert_eq!(qubit_map.len(), n, "qubit map does not match device");
        assert_eq!(edge_map.len(), m, "edge map does not match device");
        assert_eq!(dirty.len(), n, "dirty mask does not match device");

        let mut out = FrequencyAssignment {
            qubits: vec![Frequency::from_ghz(0.0); n],
            resonators: vec![Frequency::from_ghz(0.0); m],
            detuning_threshold: self.qubit_band.step(),
        };

        // Qubits: copy clean, recolor dirty/new on the same conflict
        // graphs the cold path uses.
        let mut assigned = vec![false; n];
        for t in 0..n {
            if let Some(b) = qubit_map[t] {
                if !dirty[t] {
                    out.qubits[t] = prev.qubit(b);
                    assigned[t] = true;
                }
            }
        }
        radius_conflicts_into(topology, self.qubit_conflict_radius, ws);
        direct_adjacency_into(topology, ws);
        for v in 0..n {
            if !assigned[v] {
                out.qubits[v] = recolor_one(
                    v,
                    &assigned,
                    &out.qubits,
                    ws,
                    self.qubit_band,
                    qubit_map[v].map(|b| prev.qubit(b)),
                );
                assigned[v] = true;
            }
        }

        // Resonators: a mapped resonator with both endpoints clean keeps
        // its frequency; everything else recolors on the line graph.
        let mut r_assigned = vec![false; m];
        for (e, &(a, b)) in topology.edges().iter().enumerate() {
            if let Some(be) = edge_map[e] {
                if !dirty[a] && !dirty[b] {
                    out.resonators[e] = prev.resonator(be);
                    r_assigned[e] = true;
                }
            }
        }
        line_graph_into(topology, ws);
        for e in 0..m {
            if !r_assigned[e] {
                out.resonators[e] = recolor_one(
                    e,
                    &r_assigned,
                    &out.resonators,
                    ws,
                    self.resonator_band,
                    edge_map[e].map(|be| prev.resonator(be)),
                );
                r_assigned[e] = true;
            }
        }
        out
    }
}

/// Lowest-slot recoloring of one vertex against already-assigned
/// neighbors: keep the vertex's previous frequency when it is still
/// conflict-free (ECO stability — unchanged constraints keep unchanged
/// frequencies), otherwise prefer a slot clashing with neither hard nor
/// soft neighbors, fall back to avoiding hard neighbors only, then to
/// slot 0 (the unavoidable-collision case the spatial force handles
/// downstream).
fn recolor_one(
    v: usize,
    assigned: &[bool],
    freqs: &[Frequency],
    ws: &FreqWorkspace,
    band: Spectrum,
    prefer: Option<Frequency>,
) -> Frequency {
    let hard = &ws.hard[ws.hard_off[v]..ws.hard_off[v + 1]];
    let soft = &ws.soft[ws.soft_off[v]..ws.soft_off[v + 1]];
    let clash = |f: Frequency, nbrs: &[usize]| nbrs.iter().any(|&u| assigned[u] && freqs[u] == f);
    if let Some(f) = prefer {
        if !clash(f, hard) && !clash(f, soft) {
            return f;
        }
    }
    let n = band.num_slots();
    (0..n)
        .find(|&s| !clash(band.slot(s), hard) && !clash(band.slot(s), soft))
        .or_else(|| (0..n).find(|&s| !clash(band.slot(s), hard)))
        .map_or_else(|| band.slot(0), |s| band.slot(s))
}

/// Colors `ws`'s soft CSR graph, wraps colors into `num_slots`, then
/// repairs any collision on the hard CSR graph greedily. Results land in
/// `ws.slots`.
fn color_and_slot(ws: &mut FreqWorkspace, num_slots: usize) {
    dsatur_into(&ws.soft_off, &ws.soft, &mut ws.dsatur, &mut ws.color);
    let num_colors = ws.color.iter().copied().max().map_or(1, |m| m + 1);
    // Spread colors evenly across the whole band instead of packing
    // them at the low end: distinct colors stay on distinct slots while
    // the average frequency matches the band center (this also keeps
    // resonator lengths — hence segment counts — at the paper's scale).
    ws.slots.clear();
    ws.slots.extend(ws.color.iter().map(|&c| {
        if num_colors <= num_slots {
            (c as f64 * (num_slots - 1) as f64 / (num_colors.max(2) - 1) as f64).round() as usize
        } else {
            c % num_slots
        }
    }));
    // Repair pass: direct conflicts must never share a slot.
    for v in 0..ws.slots.len() {
        ws.taken.clear();
        ws.taken.resize(num_slots, false);
        for &u in &ws.hard[ws.hard_off[v]..ws.hard_off[v + 1]] {
            if ws.slots[u] < num_slots {
                ws.taken[ws.slots[u]] = true;
            }
        }
        if ws.slots[v] < num_slots && ws.taken[ws.slots[v]] {
            if let Some(free) = (0..num_slots).find(|&s| !ws.taken[s]) {
                ws.slots[v] = free;
            }
            // If the direct degree exceeds the slot count the collision
            // is unavoidable; the spatial force handles it downstream.
        }
    }
}

impl Default for FrequencyAssigner {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Fills `ws`'s hard CSR graph with the direct coupling adjacency.
fn direct_adjacency_into(topology: &Topology, ws: &mut FreqWorkspace) {
    let n = topology.num_qubits();
    ws.hard_off.clear();
    ws.hard.clear();
    ws.hard_off.push(0);
    for q in 0..n {
        ws.hard.extend_from_slice(topology.neighbors(q));
        ws.hard_off.push(ws.hard.len());
    }
}

/// Fills `ws`'s soft CSR graph with every pair within `radius` hops
/// (BFS per vertex on the reusable distance/queue buffers).
fn radius_conflicts_into(topology: &Topology, radius: usize, ws: &mut FreqWorkspace) {
    let n = topology.num_qubits();
    ws.soft_off.clear();
    ws.soft.clear();
    ws.soft_off.push(0);
    for v in 0..n {
        ws.dist.clear();
        ws.dist.resize(n, usize::MAX);
        ws.queue.clear();
        ws.dist[v] = 0;
        ws.queue.push_back(v);
        while let Some(u) = ws.queue.pop_front() {
            if ws.dist[u] == radius {
                continue;
            }
            for &w in topology.neighbors(u) {
                if ws.dist[w] == usize::MAX {
                    ws.dist[w] = ws.dist[u] + 1;
                    ws.queue.push_back(w);
                }
            }
        }
        for (u, &d) in ws.dist.iter().enumerate() {
            if u != v && d <= radius {
                ws.soft.push(u);
            }
        }
        ws.soft_off.push(ws.soft.len());
    }
}

/// Fills both of `ws`'s CSR graphs with the device's line graph:
/// vertices are edges (resonators); two conflict when they share a qubit.
/// Duplicate entries (multi-edges) are harmless to the bitset-based
/// coloring and the slot repair.
fn line_graph_into(topology: &Topology, ws: &mut FreqWorkspace) {
    let edges = topology.edges();
    let n = topology.num_qubits();
    // Incident-edge CSR per qubit: count, prefix-sum, fill.
    ws.cursor.clear();
    ws.cursor.resize(n, 0);
    for &(a, b) in edges {
        ws.cursor[a] += 1;
        ws.cursor[b] += 1;
    }
    ws.inc_off.clear();
    ws.inc_off.push(0);
    for q in 0..n {
        ws.inc_off.push(ws.inc_off[q] + ws.cursor[q]);
    }
    ws.inc.clear();
    ws.inc.resize(ws.inc_off[n], 0);
    ws.cursor.copy_from_slice(&ws.inc_off[..n]);
    for (e, &(a, b)) in edges.iter().enumerate() {
        ws.inc[ws.cursor[a]] = e;
        ws.cursor[a] += 1;
        ws.inc[ws.cursor[b]] = e;
        ws.cursor[b] += 1;
    }
    // Line adjacency: for edge (a, b), every other edge incident to a or
    // b.
    ws.soft_off.clear();
    ws.soft.clear();
    ws.soft_off.push(0);
    for (e, &(a, b)) in edges.iter().enumerate() {
        for q in [a, b] {
            for &other in &ws.inc[ws.inc_off[q]..ws.inc_off[q + 1]] {
                if other != e {
                    ws.soft.push(other);
                }
            }
        }
        ws.soft_off.push(ws.soft.len());
    }
    // The line graph is its own hard graph (incident resonators must
    // differ).
    ws.hard_off.clear();
    ws.hard_off.extend_from_slice(&ws.soft_off);
    ws.hard.clear();
    ws.hard.extend_from_slice(&ws.soft);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_frequencies_within_bands() {
        let a = FrequencyAssigner::paper_defaults().assign(&Topology::eagle127());
        for &f in a.qubit_frequencies() {
            assert!(f >= Frequency::from_ghz(4.8) && f <= Frequency::from_ghz(5.2));
        }
        for &f in a.resonator_frequencies() {
            assert!(f >= Frequency::from_ghz(6.0) && f <= Frequency::from_ghz(7.0));
        }
    }

    #[test]
    fn no_direct_conflicts_on_paper_suite() {
        let assigner = FrequencyAssigner::paper_defaults();
        for t in Topology::paper_suite() {
            let a = assigner.assign(&t);
            assert!(
                a.qubit_conflicts(&t).is_empty(),
                "{}: coupled qubits share a slot",
                t.name()
            );
            assert!(
                a.resonator_conflicts(&t).is_empty(),
                "{}: incident resonators share a slot",
                t.name()
            );
        }
    }

    #[test]
    fn radius_two_isolation_on_heavy_hex() {
        // Heavy-hex has low degree; 5 slots cover the radius-2 chromatic
        // number, so even second neighbors should be detuned.
        let t = Topology::falcon27();
        let a = FrequencyAssigner::paper_defaults().assign(&t);
        let mut violations = 0;
        for q in 0..t.num_qubits() {
            let dist = t.bfs_distances(q);
            for (u, &d) in dist.iter().enumerate() {
                if u > q && d == 2 && a.qubit(q) == a.qubit(u) {
                    violations += 1;
                }
            }
        }
        assert_eq!(violations, 0, "radius-2 slot collisions on Falcon");
    }

    #[test]
    fn assignment_is_deterministic() {
        let t = Topology::aspen(2, 5);
        let a1 = FrequencyAssigner::paper_defaults().assign(&t);
        let a2 = FrequencyAssigner::paper_defaults().assign(&t);
        assert_eq!(a1, a2);
    }

    #[test]
    fn line_graph_of_star_is_complete() {
        let t = Topology::from_edges("star", 4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let mut ws = FreqWorkspace::default();
        line_graph_into(&t, &mut ws);
        for e in 0..3 {
            let nbrs = &ws.soft[ws.soft_off[e]..ws.soft_off[e + 1]];
            assert_eq!(nbrs.len(), 2, "edge {e} conflicts with the other two");
        }
    }

    #[test]
    fn assign_with_matches_assign_and_reuses_buffers() {
        let assigner = FrequencyAssigner::paper_defaults();
        let mut ws = FreqWorkspace::default();
        // Dirty the workspace on a different topology first.
        let _ = assigner.assign_with(&Topology::grid(2, 2), &mut ws);
        for t in [Topology::falcon27(), Topology::aspen(2, 5)] {
            let fresh = assigner.assign(&t);
            let reused = assigner.assign_with(&t, &mut ws);
            assert_eq!(fresh, reused, "{}", t.name());
            let mut into = assigner.assign_with(&Topology::grid(2, 2), &mut ws);
            assigner.assign_into(&t, &mut ws, &mut into);
            assert_eq!(fresh, into, "{} (assign_into)", t.name());
        }
    }

    #[test]
    fn incremental_with_identity_maps_is_bit_identical() {
        let t = Topology::eagle127();
        let assigner = FrequencyAssigner::paper_defaults();
        let mut ws = FreqWorkspace::default();
        let prev = assigner.assign_with(&t, &mut ws);
        let qmap: Vec<Option<usize>> = (0..t.num_qubits()).map(Some).collect();
        let emap: Vec<Option<usize>> = (0..t.num_edges()).map(Some).collect();
        let dirty = vec![false; t.num_qubits()];
        let inc = assigner.assign_incremental_with(&t, &prev, &qmap, &emap, &dirty, &mut ws);
        assert_eq!(inc, prev);
    }

    #[test]
    fn incremental_recolor_keeps_clean_region_and_direct_isolation() {
        use qplacer_topology::TopologyDelta;
        let base = Topology::falcon27();
        let delta = TopologyDelta::drop_couplers(&base, &[base.edges()[5]]).unwrap();
        let target = delta.apply(&base).unwrap();
        let assigner = FrequencyAssigner::paper_defaults();
        let mut ws = FreqWorkspace::default();
        let prev = assigner.assign_with(&base, &mut ws);
        let dirty = delta.dirty_qubits(&base, &target, 2);
        let inc = assigner.assign_incremental_with(
            &target,
            &prev,
            &delta.qubit_map(),
            &delta.edge_map(&base, &target),
            &dirty,
            &mut ws,
        );
        // Clean qubits carry their previous frequency bit-for-bit.
        let mut carried = 0;
        for (tq, &bq) in delta.survivors().iter().enumerate() {
            if !dirty[tq] {
                assert_eq!(inc.qubit(tq), prev.qubit(bq), "clean qubit {tq} moved");
                carried += 1;
            }
        }
        assert!(carried > 0, "a single coupler drop must leave clean qubits");
        // The recolored region still satisfies the hard contracts.
        assert!(inc.qubit_conflicts(&target).is_empty());
        assert!(inc.resonator_conflicts(&target).is_empty());
    }

    #[test]
    fn incremental_handles_removed_qubits() {
        use qplacer_topology::TopologyDelta;
        let base = Topology::grid(5, 5);
        let delta = TopologyDelta::drop_qubits(&base, &[12]).unwrap();
        let target = delta.apply(&base).unwrap();
        let assigner = FrequencyAssigner::paper_defaults();
        let mut ws = FreqWorkspace::default();
        let prev = assigner.assign_with(&base, &mut ws);
        let dirty = delta.dirty_qubits(&base, &target, 2);
        let inc = assigner.assign_incremental_with(
            &target,
            &prev,
            &delta.qubit_map(),
            &delta.edge_map(&base, &target),
            &dirty,
            &mut ws,
        );
        assert_eq!(inc.qubit_frequencies().len(), target.num_qubits());
        assert_eq!(inc.resonator_frequencies().len(), target.num_edges());
        assert!(inc.qubit_conflicts(&target).is_empty());
        assert!(inc.resonator_conflicts(&target).is_empty());
    }

    #[test]
    fn grid_resonator_count_matches_edges() {
        let t = Topology::grid(5, 5);
        let a = FrequencyAssigner::paper_defaults().assign(&t);
        assert_eq!(a.resonator_frequencies().len(), 40);
        assert_eq!(a.qubit_frequencies().len(), 25);
    }
}

#[cfg(test)]
mod wrap_tests {
    use super::*;
    use crate::Spectrum;
    use qplacer_physics::Frequency;

    /// A clique bigger than the slot count forces color wrapping; the
    /// repair pass must still keep directly-coupled vertices apart while
    /// staying inside the band.
    #[test]
    fn wrapping_repair_keeps_direct_isolation_when_possible() {
        // K4 on a 3-slot band: chromatic number 4 > 3 slots, so one direct
        // collision is unavoidable — but never more than necessary, and
        // all frequencies stay in-band.
        let t = Topology::from_edges("k4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .unwrap();
        let narrow = Spectrum::new(
            Frequency::from_ghz(5.0),
            Frequency::from_ghz(5.2),
            Frequency::from_ghz(0.1),
        );
        let assigner = FrequencyAssigner::new(narrow, Spectrum::paper_resonator_band(), 1);
        let a = assigner.assign(&t);
        for &f in a.qubit_frequencies() {
            assert!(f >= Frequency::from_ghz(5.0) && f <= Frequency::from_ghz(5.2));
        }
        // K4 over 3 slots admits at best one colliding pair.
        assert!(
            a.qubit_conflicts(&t).len() <= 2,
            "{:?}",
            a.qubit_conflicts(&t)
        );
    }

    /// Degree below the slot count: the repair pass guarantees zero direct
    /// conflicts regardless of how many colors DSATUR used.
    #[test]
    fn repair_is_complete_below_slot_degree() {
        let t = Topology::aspen(2, 5);
        let a = FrequencyAssigner::paper_defaults().assign(&t);
        assert!(a.qubit_conflicts(&t).is_empty());
    }
}
