//! Phase 2: Tetris-style segment legalization.
//!
//! Segments are placed resonator by resonator (resonators ordered
//! left-to-right by their segments' mean global x — the Tetris sweep),
//! and in *chain order* within each resonator — the paper's "adherence to
//! established orders". Each segment first tries the eight lattice
//! neighbors of its predecessor in the chain, which keeps the reserved
//! blocks contiguous for the integration phase, then spirals around its
//! own global-placement position, and as a last resort takes the nearest
//! free cell anywhere in the region.
//!
//! Every stage runs *strict* first — candidate spots that would violate
//! the resonant margin against already-placed instances are skipped — and
//! falls back to a relaxed pass so legalization always completes.

use qplacer_geometry::Point;
use qplacer_netlist::QuantumNetlist;

use crate::resonance::ResonanceTracker;
use crate::workspace::{spiral_find, TetrisScratch};
use crate::OccupancyBitmap;

/// Legalizes all resonator segments. Qubits must already be marked in
/// `bitmap` and registered with `tracker`. Returns
/// `(instance_id, displacement_mm)` per segment.
///
/// Allocating convenience wrapper around [`legalize_segments_with`].
///
/// # Panics
///
/// Panics if a segment cannot be placed anywhere in the region, which
/// indicates the region was sized above 100 % utilization.
#[cfg_attr(not(test), allow(dead_code))]
pub fn legalize_segments(
    netlist: &mut QuantumNetlist,
    bitmap: &mut OccupancyBitmap,
    tracker: &mut ResonanceTracker,
    site_pitch: f64,
) -> Vec<(usize, f64)> {
    let mut scratch = TetrisScratch::default();
    legalize_segments_with(
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

/// Workspace-threaded segment legalization: identical semantics to
/// [`legalize_segments`], with all ordering/chain/candidate buffers drawn
/// from the caller's scratch so steady-state runs allocate nothing.
/// Selection is always the first acceptable candidate in deterministic
/// order (chain neighbors, then spiral rings). Per-segment displacements
/// land in `scratch.displacement`.
///
/// With a `pinned` instance mask (incremental path), pinned segments
/// keep their positions — the caller must have pre-marked them into
/// `bitmap`/`tracker` — and still serve as chain anchors, so an
/// unpinned tail re-attaches to the pinned head of its resonator. Only
/// unpinned segments get displacement entries.
#[allow(clippy::too_many_arguments)]
pub(crate) fn legalize_segments_with(
    netlist: &mut QuantumNetlist,
    bitmap: &mut OccupancyBitmap,
    tracker: &mut ResonanceTracker,
    site_pitch: f64,
    query: &mut Vec<usize>,
    scratch: &mut TetrisScratch,
    pinned: Option<&[bool]>,
) {
    let region = netlist.region();
    let workspace = bitmap.region();
    let TetrisScratch {
        res_order,
        mean_x,
        chain,
        displacement,
    } = scratch;
    displacement.clear();

    // Resonators sorted by mean global x of their segments (sweep order).
    let num_res = netlist.num_resonators();
    mean_x.clear();
    for r in 0..num_res {
        let segs = netlist.resonator_segments(r);
        let sum: f64 = segs.iter().map(|&id| netlist.position(id).x).sum();
        mean_x.push(sum / segs.len().max(1) as f64);
    }
    res_order.clear();
    res_order.extend(0..num_res);
    res_order.sort_unstable_by(|&a, &b| mean_x[a].total_cmp(&mean_x[b]));

    for &r in res_order.iter() {
        chain.clear();
        chain.extend_from_slice(netlist.resonator_segments(r));
        let mut prev: Option<Point> = None;
        for &id in chain.iter() {
            if pinned.is_some_and(|p| p[id]) {
                // A pinned segment stays put but still anchors the chain.
                prev = Some(netlist.position(id));
                continue;
            }
            let inst = *netlist.instance(id);
            let pitch = inst.padded_mm();
            let mut desired = inst
                .padded_rect(Point::ORIGIN)
                .clamp_center_into(&region, netlist.position(id));
            if !desired.x.is_finite() || !desired.y.is_finite() {
                // Degrade gracefully on upstream NaN positions (see the
                // qubit legalizer): anchor at the chain tail or center.
                desired = prev.unwrap_or_else(|| region.center());
            }

            // (a) Hug the previous chain segment: its 8 lattice neighbors,
            // nearest-to-desired first (stable sort: equal-distance
            // symmetric offsets keep their fixed probe order).
            let mut chain_candidates = [Point::ORIGIN; 8];
            let mut num_chain = 0;
            if let Some(p) = prev {
                for (dx, dy) in [
                    (pitch, 0.0),
                    (-pitch, 0.0),
                    (0.0, pitch),
                    (0.0, -pitch),
                    (pitch, pitch),
                    (pitch, -pitch),
                    (-pitch, pitch),
                    (-pitch, -pitch),
                ] {
                    chain_candidates[num_chain] = bitmap.snap_to_sites(
                        Point::new(p.x + dx, p.y + dy),
                        inst.padded_mm(),
                        site_pitch,
                    );
                    num_chain += 1;
                }
                chain_candidates
                    .sort_by(|a, b| a.distance_sq(desired).total_cmp(&b.distance_sq(desired)));
            }

            let max_radius =
                ((region.width().max(region.height()) / site_pitch).ceil() as i64).max(1) * 2;

            let mut placed: Option<Point> = None;
            for strict in [true, false] {
                // Strict placements stay inside the sized region (compact
                // substrate first); only relaxed ones may spill.
                let bound = if strict { &region } else { &workspace };
                let accept_bound = bound.inflated(1e-9);
                placed = chain_candidates[..num_chain].iter().copied().find(|cand| {
                    let rect = inst.padded_rect(*cand);
                    accept_bound.contains_rect(&rect)
                        && bitmap.is_free(&rect)
                        && (!strict || tracker.is_clean_with(netlist, id, *cand, query))
                });
                if placed.is_some() {
                    break;
                }
                // (b) Spiral around the segment's own desired position.
                placed = spiral_find(
                    netlist, bitmap, tracker, query, id, desired, site_pitch, max_radius, strict,
                    bound,
                );
                if placed.is_some() {
                    break;
                }
            }

            // (c) Exhaustive nearest-free fallback (fragmented free
            // space): first on the site lattice, then — as the true last
            // resort — at full bitmap resolution.
            if placed.is_none() {
                placed = bitmap
                    .find_nearest_free(inst.padded_mm(), inst.padded_mm(), desired, site_pitch)
                    .or_else(|| {
                        bitmap.find_nearest_free(
                            inst.padded_mm(),
                            inst.padded_mm(),
                            desired,
                            bitmap.resolution(),
                        )
                    });
            }

            let site = placed.unwrap_or_else(|| {
                panic!(
                    "no legal site for segment instance {id}: desired {desired}, \
                     footprint {:.2} mm, bitmap fill {:.3}, region {}",
                    inst.padded_mm(),
                    bitmap.fill_fraction(),
                    region
                )
            });
            bitmap.mark(&inst.padded_rect(site));
            tracker.place(netlist, id, site);
            let before = netlist.position(id);
            netlist.set_position(id, site);
            displacement.push((id, before.distance(site)));
            prev = Some(site);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integration::{clusters_of, is_integrated};
    use crate::qubits::legalize_qubits;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_netlist::NetlistConfig;
    use qplacer_topology::Topology;

    fn legalized_netlist(t: &Topology) -> QuantumNetlist {
        let freqs = FrequencyAssigner::paper_defaults().assign(t);
        let mut nl = QuantumNetlist::build(t, &freqs, &NetlistConfig::default());
        let mut bm = OccupancyBitmap::new(nl.region(), 0.05);
        let mut tracker = ResonanceTracker::new(&nl, 0.3);
        legalize_qubits(&mut nl, &mut bm, &mut tracker, 0.4);
        legalize_segments(&mut nl, &mut bm, &mut tracker, 0.4);
        nl
    }

    #[test]
    fn no_overlaps_after_tetris() {
        let t = Topology::grid(2, 2);
        let nl = legalized_netlist(&t);
        assert!(
            nl.overlapping_pairs().is_empty(),
            "overlaps remain: {:?}",
            nl.overlapping_pairs()
        );
    }

    #[test]
    fn everything_inside_region() {
        let t = Topology::falcon27();
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::with_segment_size(0.4));
        let mut bm = OccupancyBitmap::new(nl.region(), 0.05);
        let mut tracker = ResonanceTracker::new(&nl, 0.3);
        legalize_qubits(&mut nl, &mut bm, &mut tracker, 0.1);
        let disp = legalize_segments(&mut nl, &mut bm, &mut tracker, 0.1);
        assert_eq!(
            disp.len(),
            nl.num_instances() - nl.num_qubits(),
            "every segment was processed"
        );
        let region = nl.region().inflated(1e-6);
        for inst in nl.instances() {
            assert!(region.contains_rect(&nl.padded_rect(inst.id())));
        }
        assert!(nl.overlapping_pairs().is_empty());
    }

    #[test]
    fn chain_following_keeps_most_resonators_whole() {
        let t = Topology::grid(3, 3);
        let nl = legalized_netlist(&t);
        let whole = (0..nl.num_resonators())
            .filter(|&r| is_integrated(&nl, r))
            .count();
        // Even before Algorithm 1, chain-aware Tetris should keep the bulk
        // of the resonators contiguous (global placement seeds chains).
        assert!(
            whole * 2 >= nl.num_resonators(),
            "only {whole}/{} resonators contiguous after Tetris",
            nl.num_resonators()
        );
        // And the fragments that exist are few per resonator.
        for r in 0..nl.num_resonators() {
            assert!(clusters_of(&nl, r).len() <= 5, "resonator {r} shattered");
        }
    }
}
