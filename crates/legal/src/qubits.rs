//! Phase 1: qubit legalization (greedy spiral + min-cost-flow refinement).

use qplacer_geometry::Point;
use qplacer_netlist::QuantumNetlist;

use crate::mcmf::solve_assignment_into;
use crate::resonance::ResonanceTracker;
use crate::workspace::{spiral_find, QubitScratch};
use crate::OccupancyBitmap;

/// Legalizes all qubits: finds non-overlapping, in-region positions near
/// their global-placement locations, then reassigns qubits to the found
/// site set with minimum total displacement. Marks the final footprints
/// into `bitmap` and registers them with `tracker`. Returns per-qubit
/// displacement (mm), indexed by device qubit.
///
/// Allocating convenience wrapper around [`legalize_qubits_with`].
///
/// # Panics
///
/// Panics if some qubit cannot be placed anywhere in the region (the
/// region is sized for ≤ 100 % utilization upstream, so this indicates a
/// configuration error).
#[cfg_attr(not(test), allow(dead_code))]
pub fn legalize_qubits(
    netlist: &mut QuantumNetlist,
    bitmap: &mut OccupancyBitmap,
    tracker: &mut ResonanceTracker,
    site_pitch: f64,
) -> Vec<f64> {
    let mut scratch = QubitScratch::default();
    legalize_qubits_with(
        netlist,
        bitmap,
        tracker,
        site_pitch,
        &mut Vec::new(),
        &mut scratch,
        None,
    );
    scratch.displacement
}

/// Workspace-threaded qubit legalization: identical semantics to
/// [`legalize_qubits`], but every buffer (ordering, sites, MCMF network,
/// spatial queries) comes from the caller's scratch, so steady-state runs
/// allocate nothing. Per-qubit displacements land in
/// `scratch.displacement`.
///
/// Candidates live on the global site lattice (`site_pitch`), so qubit
/// and segment placements brick-pack without sub-site fragmentation. A
/// *strict* spiral pass skips spots that violate the resonant margin
/// against already-placed qubits (the legalization-side τ check); a
/// relaxed pass and an exhaustive scan guarantee feasibility. The chosen
/// spot is always the ring-order-first acceptable one.
///
/// With a `pinned` instance mask (incremental path), pinned qubits are
/// never moved — the caller must have pre-marked their footprints into
/// `bitmap` and registered them with `tracker`, so they act as fixed
/// obstacles for the spiral search and the strict τ pass. Only unpinned
/// qubits are ordered, placed, and refined; their MCMF runs over the
/// unpinned site set alone.
#[allow(clippy::too_many_arguments)]
pub(crate) fn legalize_qubits_with(
    netlist: &mut QuantumNetlist,
    bitmap: &mut OccupancyBitmap,
    tracker: &mut ResonanceTracker,
    site_pitch: f64,
    query: &mut Vec<usize>,
    scratch: &mut QubitScratch,
    pinned: Option<&[bool]>,
) {
    let num_qubits = netlist.num_qubits();
    let QubitScratch {
        order,
        sites,
        displacement,
        costs,
        assignment,
        mcmf,
    } = scratch;
    displacement.clear();
    displacement.resize(num_qubits, 0.0);
    if num_qubits == 0 {
        return;
    }
    let region = netlist.region();
    let workspace = bitmap.region();

    // Process left-to-right for a deterministic, low-conflict order.
    // Lexicographic total_cmp keeps the order total even when a position
    // has gone NaN upstream (a NaN coordinate must degrade gracefully,
    // not panic mid-legalization).
    order.clear();
    order
        .extend((0..num_qubits).filter(|&q| !pinned.is_some_and(|p| p[netlist.qubit_instance(q)])));
    order.sort_unstable_by(|&a, &b| {
        let pa = netlist.position(netlist.qubit_instance(a));
        let pb = netlist.position(netlist.qubit_instance(b));
        pa.x.total_cmp(&pb.x).then(pa.y.total_cmp(&pb.y))
    });
    let movable = order.len();
    if movable == 0 {
        return;
    }

    // Greedy spiral: collect one feasible site per qubit (strict pass
    // first, then relaxed).
    sites.clear();
    for &q in order.iter() {
        let id = netlist.qubit_instance(q);
        let inst = *netlist.instance(id);
        let mut desired = inst
            .padded_rect(Point::ORIGIN)
            .clamp_center_into(&region, netlist.position(id));
        if !desired.x.is_finite() || !desired.y.is_finite() {
            // A non-finite global position (upstream numerical blow-up)
            // would poison every spiral candidate; anchor the search at
            // the region center instead.
            desired = region.center();
        }
        let max_radius =
            ((region.width().max(region.height()) / site_pitch).ceil() as i64).max(1) * 2;
        // The strict pass must stay inside the sized region — isolation
        // is not allowed to grow the substrate; only the relaxed pass may
        // use the feasibility spill ring.
        let site = spiral_find(
            netlist, bitmap, tracker, query, id, desired, site_pitch, max_radius, true, &region,
        )
        .or_else(|| {
            spiral_find(
                netlist, bitmap, tracker, query, id, desired, site_pitch, max_radius, false,
                &workspace,
            )
        })
        .or_else(|| {
            bitmap.find_nearest_free(inst.padded_mm(), inst.padded_mm(), desired, site_pitch)
        })
        .unwrap_or_else(|| panic!("no legal site for qubit {q}; region too small"));
        bitmap.mark(&inst.padded_rect(site));
        tracker.place(netlist, id, site);
        sites.push(site);
    }

    // Min-cost-flow refinement: optimally re-match qubits to the site set
    // (§IV-C2's displacement minimization). Costs are Manhattan
    // displacements in micrometers.
    costs.clear();
    for &q in order.iter() {
        let want = netlist.position(netlist.qubit_instance(q));
        for s in sites.iter() {
            costs.push((want.manhattan(*s) * 1000.0).round() as i64);
        }
    }
    solve_assignment_into(costs, movable, movable, mcmf, assignment);

    // The permutation could undo the strict pass's isolation; accept it
    // only if it does not increase resonant-margin violations among
    // qubits.
    let violations_of = |mapping: &dyn Fn(usize) -> Point| -> usize {
        let dc = netlist.detuning_threshold() * 0.999;
        let margin = tracker.margin();
        let mut count = 0;
        for (ra, &qa) in order.iter().enumerate() {
            for (rb, &qb) in order.iter().enumerate().skip(ra + 1) {
                let ia = netlist.qubit_instance(qa);
                let ib = netlist.qubit_instance(qb);
                let fa = netlist.instance(ia).frequency();
                let fb = netlist.instance(ib).frequency();
                if !fa.is_resonant_with(fb, dc) {
                    continue;
                }
                let a = netlist
                    .instance(ia)
                    .padded_rect(mapping(ra))
                    .inflated(0.5 * margin);
                let b = netlist
                    .instance(ib)
                    .padded_rect(mapping(rb))
                    .inflated(0.5 * margin);
                if a.overlaps(&b) {
                    count += 1;
                }
            }
        }
        count
    };
    let greedy_viol = violations_of(&|rank| sites[rank]);
    let mcmf_viol = violations_of(&|rank| sites[assignment[rank]]);
    let use_mcmf = mcmf_viol <= greedy_viol;

    for (rank, &q) in order.iter().enumerate() {
        let id = netlist.qubit_instance(q);
        let before = netlist.position(id);
        let site = if use_mcmf {
            sites[assignment[rank]]
        } else {
            sites[rank]
        };
        // Re-register at the final spot.
        tracker.unplace(netlist, id, sites[rank]);
        netlist.set_position(id, site);
        tracker.place(netlist, id, site);
        displacement[q] = before.distance(site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_netlist::NetlistConfig;
    use qplacer_topology::Topology;

    fn netlist(t: &Topology) -> QuantumNetlist {
        let freqs = FrequencyAssigner::paper_defaults().assign(t);
        QuantumNetlist::build(t, &freqs, &NetlistConfig::default())
    }

    fn run(nl: &mut QuantumNetlist) -> Vec<f64> {
        let mut bm = OccupancyBitmap::new(nl.region(), 0.05);
        let mut tracker = ResonanceTracker::new(nl, 0.3);
        legalize_qubits(nl, &mut bm, &mut tracker, 0.4)
    }

    #[test]
    fn qubits_end_up_disjoint_and_inside() {
        let t = Topology::grid(3, 3);
        let mut nl = netlist(&t);
        let disp = run(&mut nl);
        assert_eq!(disp.len(), 9);
        for a in 0..9 {
            let ra = nl.padded_rect(nl.qubit_instance(a));
            assert!(nl.region().inflated(1e-6).contains_rect(&ra));
            for b in a + 1..9 {
                let rb = nl.padded_rect(nl.qubit_instance(b));
                assert!(!ra.overlaps(&rb), "qubits {a} and {b} overlap");
            }
        }
    }

    #[test]
    fn already_legal_layout_barely_moves() {
        let t = Topology::grid(2, 2);
        let mut nl = netlist(&t);
        // Hand-place the 4 qubits on a legal lattice.
        let pitch = 1.3;
        for q in 0..4 {
            let id = nl.qubit_instance(q);
            nl.set_position(
                id,
                Point::new((q % 2) as f64 * pitch - 0.65, (q / 2) as f64 * pitch - 0.65),
            );
        }
        let disp = run(&mut nl);
        for (q, d) in disp.iter().enumerate() {
            assert!(*d < 0.6, "qubit {q} moved {d} mm from a legal spot");
        }
    }

    #[test]
    fn stacked_qubits_get_separated() {
        let t = Topology::grid(3, 3);
        let mut nl = netlist(&t);
        for q in 0..9 {
            let id = nl.qubit_instance(q);
            nl.set_position(id, Point::ORIGIN);
        }
        let _ = run(&mut nl);
        let mut positions: Vec<Point> = (0..9).map(|q| nl.position(nl.qubit_instance(q))).collect();
        positions.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        positions.dedup_by(|a, b| a.distance(*b) < 1e-9);
        assert_eq!(positions.len(), 9, "all qubits at distinct positions");
    }

    #[test]
    fn nan_position_degrades_gracefully() {
        // A NaN coordinate must not panic the legalizer; the affected
        // qubit falls back to a region-center search and everything still
        // ends up disjoint, in-region, and finite.
        let t = Topology::grid(3, 3);
        let mut nl = netlist(&t);
        nl.set_position(nl.qubit_instance(4), Point::new(f64::NAN, 0.3));
        let _ = run(&mut nl);
        for q in 0..9 {
            let p = nl.position(nl.qubit_instance(q));
            assert!(p.x.is_finite() && p.y.is_finite(), "qubit {q} at {p}");
        }
        for a in 0..9 {
            let ra = nl.padded_rect(nl.qubit_instance(a));
            for b in a + 1..9 {
                let rb = nl.padded_rect(nl.qubit_instance(b));
                assert!(!ra.overlaps(&rb), "qubits {a} and {b} overlap");
            }
        }
    }

    #[test]
    fn strict_pass_isolates_resonant_qubits_when_space_allows() {
        // Stack everything; with ample region space the strict pass should
        // keep same-slot qubits at least margin apart.
        let t = Topology::grid(3, 3);
        let mut nl = netlist(&t);
        for q in 0..9 {
            nl.set_position(nl.qubit_instance(q), Point::ORIGIN);
        }
        let _ = run(&mut nl);
        let dc = nl.detuning_threshold() * 0.999;
        let mut violations = 0;
        for a in 0..9 {
            for b in a + 1..9 {
                let ia = nl.qubit_instance(a);
                let ib = nl.qubit_instance(b);
                if nl
                    .instance(ia)
                    .frequency()
                    .is_resonant_with(nl.instance(ib).frequency(), dc)
                {
                    let ra = nl.padded_rect(ia).inflated(0.15);
                    let rb = nl.padded_rect(ib).inflated(0.15);
                    if ra.overlaps(&rb) {
                        violations += 1;
                    }
                }
            }
        }
        assert_eq!(violations, 0, "resonant qubits legalized adjacently");
    }
}
