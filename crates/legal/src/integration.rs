//! Phase 3: resonator integration (Algorithm 1).
//!
//! A resonator is *integrated* when its segments form one contiguous
//! cluster, so the physical meander can be re-routed through the reserved
//! blocks (§IV-B2). For each failing resonator the algorithm grows the
//! largest segment cluster by (a) relocating scattered segments into free
//! spots adjacent to the cluster, or failing that (b) swapping them with
//! neighboring segments of *other* resonators, gated by the resonance
//! checker τ so a swap never parks a segment next to near-resonant
//! neighbors.
//!
//! Relocation/swap candidates are scored read-only (via
//! [`OccupancyBitmap::is_free_except`], which answers "free once I move"
//! without mutating the bitmap) and the first acceptable candidate in
//! deterministic order is applied. The candidate lists are small (at
//! most 8 anchors × 8 offsets), so the scan runs sequentially — the
//! read-only scoring is what keeps it cheap, not a fan-out.

use qplacer_geometry::{Point, Rect, SpatialGrid};
use qplacer_netlist::QuantumNetlist;

use crate::workspace::IntegrationScratch;
use crate::OccupancyBitmap;

/// Two same-resonator segments count as connected when their centers are
/// within this factor of the padded footprint side.
pub(crate) const ADJACENCY_FACTOR: f64 = 1.45;

/// Outcome of the integration phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrationStats {
    /// Resonators already integrated after Tetris.
    pub integrated_before: usize,
    /// Resonators integrated when the phase finished.
    pub integrated_after: usize,
    /// Segments relocated into free space.
    pub moved: usize,
    /// Segment pairs swapped.
    pub swapped: usize,
    /// Resonator indices that remain fragmented.
    pub unintegrated: Vec<usize>,
}

/// Cluster decomposition of one resonator's segments into
/// `scratch.members` (segment ids, grouped) and `scratch.clusters`
/// (ranges into `members`), largest cluster first, ties by smallest
/// member id. Zero allocations at steady state.
pub(crate) fn clusters_into(
    netlist: &QuantumNetlist,
    resonator: usize,
    scratch: &mut IntegrationScratch,
) {
    let segs = netlist.resonator_segments(resonator);
    let k = segs.len();
    let IntegrationScratch {
        parent,
        labels,
        members,
        clusters,
        ..
    } = scratch;
    parent.clear();
    parent.extend(0..k);
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    #[allow(clippy::needless_range_loop)]
    for i in 0..k {
        let pi = netlist.position(segs[i]);
        let reach = ADJACENCY_FACTOR * netlist.instance(segs[i]).padded_mm();
        for j in i + 1..k {
            if pi.distance(netlist.position(segs[j])) <= reach {
                let (a, b) = (find(parent, i), find(parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    // Group by root: label every member, sort, cut into ranges.
    labels.clear();
    for i in 0..k {
        labels.push((find(parent, i), i));
    }
    labels.sort_unstable();
    members.clear();
    clusters.clear();
    let mut start = 0;
    for idx in 0..k {
        members.push(segs[labels[idx].1]);
        if idx + 1 == k || labels[idx + 1].0 != labels[idx].0 {
            clusters.push((start, idx + 1));
            start = idx + 1;
        }
    }
    for &(s, e) in clusters.iter() {
        members[s..e].sort_unstable();
    }
    // Deterministic order: largest first, ties by smallest member id
    // (grouping order must never leak into placement decisions).
    clusters.sort_unstable_by_key(|&(s, e)| (std::cmp::Reverse(e - s), members[s]));
}

/// Union-find cluster decomposition of one resonator's segments; returns
/// segment-id clusters, largest first. Allocating convenience wrapper
/// around [`clusters_into`].
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn clusters_of(netlist: &QuantumNetlist, resonator: usize) -> Vec<Vec<usize>> {
    let mut scratch = IntegrationScratch::default();
    clusters_into(netlist, resonator, &mut scratch);
    scratch
        .clusters
        .iter()
        .map(|&(s, e)| scratch.members[s..e].to_vec())
        .collect()
}

/// `rilc(·)` of Algorithm 1: is the resonator one contiguous cluster?
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn is_integrated(netlist: &QuantumNetlist, resonator: usize) -> bool {
    clusters_of(netlist, resonator).len() <= 1
}

/// Runs Algorithm 1 over every resonator. `bitmap` must reflect the
/// current (legalized) footprints. Allocating convenience wrapper around
/// [`integrate_resonators_with`].
#[cfg_attr(not(test), allow(dead_code))]
pub fn integrate_resonators(
    netlist: &mut QuantumNetlist,
    bitmap: &mut OccupancyBitmap,
) -> IntegrationStats {
    let site_pitch = crate::legalizer::site_pitch(netlist);
    let mut scratch = IntegrationScratch::default();
    integrate_resonators_with(netlist, bitmap, site_pitch, &mut scratch, None)
}

/// Workspace-threaded Algorithm 1: identical semantics to
/// [`integrate_resonators`], with the spatial index and all cluster/
/// candidate buffers drawn from the caller's scratch. On return,
/// `scratch.grid` indexes every instance at its final position (the
/// legalizer reuses it for the remaining-overlap count). Steady-state
/// runs allocate nothing beyond the `unintegrated` list, which stays
/// empty whenever integration succeeds.
///
/// With a `pinned` instance mask (incremental path), repair passes run
/// only over resonators with at least one unpinned segment, pinned
/// segments are never relocated, and swaps never pick a pinned victim.
/// The integration statistics still cover every resonator.
pub(crate) fn integrate_resonators_with(
    netlist: &mut QuantumNetlist,
    bitmap: &mut OccupancyBitmap,
    site_pitch: f64,
    scratch: &mut IntegrationScratch,
    pinned: Option<&[bool]>,
) -> IntegrationStats {
    let num_res = netlist.num_resonators();

    // Spatial index of all instances for neighbor/occupancy queries.
    let region = netlist.region();
    scratch.grid.reset(
        region.inflated(netlist.max_padded_side()),
        netlist.max_padded_side().max(0.1),
    );
    for inst in netlist.instances() {
        scratch
            .grid
            .insert(inst.id(), &netlist.padded_rect(inst.id()));
    }

    let mut integrated_before = 0;
    for r in 0..num_res {
        clusters_into(netlist, r, scratch);
        if scratch.clusters.len() <= 1 {
            integrated_before += 1;
        }
    }

    let mut moved = 0usize;
    let mut swapped = 0usize;
    let mut unintegrated = Vec::new();

    for r in 0..num_res {
        // Clean resonators (every segment pinned) are never repaired;
        // they were integrated by the run that produced the warm seed.
        let clean = pinned.is_some_and(|p| netlist.resonator_segments(r).iter().all(|&id| p[id]));
        if !clean {
            // A few growth passes per resonator; each pass merges at
            // least one scattered segment or gives up.
            for _pass in 0..netlist.resonator_segments(r).len() {
                clusters_into(netlist, r, scratch);
                if scratch.clusters.len() <= 1 {
                    break;
                }
                let (s0, e0) = scratch.clusters[0];
                scratch.cluster.clear();
                scratch.cluster.extend_from_slice(&scratch.members[s0..e0]);
                scratch.scattered.clear();
                for &(s, e) in &scratch.clusters[1..] {
                    scratch.scattered.extend_from_slice(&scratch.members[s..e]);
                }
                if !grow_cluster(
                    netlist,
                    bitmap,
                    &mut scratch.grid,
                    site_pitch,
                    &scratch.cluster,
                    &mut scratch.scattered,
                    &mut scratch.anchors,
                    &mut scratch.cand,
                    &mut scratch.query,
                    &mut moved,
                    &mut swapped,
                    pinned,
                ) {
                    break; // no progress possible
                }
            }
        }
        clusters_into(netlist, r, scratch);
        if scratch.clusters.len() > 1 {
            unintegrated.push(r);
        }
    }

    let integrated_after = num_res - unintegrated.len();
    IntegrationStats {
        integrated_before,
        integrated_after,
        moved,
        swapped,
        unintegrated,
    }
}

/// Attempts to merge one scattered segment into the cluster. Returns
/// `true` when progress was made.
#[allow(clippy::too_many_arguments)]
fn grow_cluster(
    netlist: &mut QuantumNetlist,
    bitmap: &mut OccupancyBitmap,
    grid: &mut SpatialGrid,
    site_pitch: f64,
    cluster: &[usize],
    scattered: &mut [usize],
    anchors: &mut Vec<usize>,
    cand: &mut Vec<Point>,
    query: &mut Vec<usize>,
    moved: &mut usize,
    swapped: &mut usize,
    pinned: Option<&[bool]>,
) -> bool {
    // Cluster centroid for ordering.
    let centroid = {
        let (sx, sy) = cluster.iter().fold((0.0, 0.0), |(sx, sy), &id| {
            let p = netlist.position(id);
            (sx + p.x, sy + p.y)
        });
        Point::new(sx / cluster.len() as f64, sy / cluster.len() as f64)
    };
    scattered.sort_unstable_by(|&a, &b| {
        netlist
            .position(a)
            .distance(centroid)
            .total_cmp(&netlist.position(b).distance(centroid))
    });

    for &s in scattered.iter() {
        // A pinned scattered segment cannot be relocated or swapped.
        if pinned.is_some_and(|p| p[s]) {
            continue;
        }
        // Candidate anchor cells: cluster members nearest to s first.
        anchors.clear();
        anchors.extend_from_slice(cluster);
        let sp = netlist.position(s);
        anchors.sort_unstable_by(|&a, &b| {
            netlist
                .position(a)
                .distance(sp)
                .total_cmp(&netlist.position(b).distance(sp))
        });
        let inst = *netlist.instance(s);
        let pitch = inst.padded_mm();
        let offsets = [
            (pitch, 0.0),
            (-pitch, 0.0),
            (0.0, pitch),
            (0.0, -pitch),
            (pitch, pitch),
            (pitch, -pitch),
            (-pitch, pitch),
            (-pitch, -pitch),
        ];
        let old_rect = netlist.padded_rect(s);
        let bound = bitmap.region().inflated(1e-9);
        // Two relocation passes: strict (τ-clean destinations only), then
        // relaxed — integration must not quietly undo the isolation the
        // global placement and strict legalization bought. Candidates are
        // scored read-only (relocation *or* swap feasible), then the first
        // acceptable one is applied.
        for strict in [true, false] {
            cand.clear();
            for &anchor in anchors.iter().take(8) {
                let base = netlist.position(anchor);
                for &(dx, dy) in &offsets {
                    cand.push(bitmap.snap_to_sites(
                        Point::new(base.x + dx, base.y + dy),
                        inst.padded_mm(),
                        site_pitch,
                    ));
                }
            }
            let hit = cand.iter().position(|c| {
                let rect = inst.padded_rect(*c);
                if !bound.contains_rect(&rect) {
                    return false;
                }
                if strict && !relocation_is_clean(netlist, grid, s, *c, query) {
                    return false;
                }
                // (a) Free relocation, or (b) a τ-checked swap — never
                // with a pinned victim (incremental contract).
                bitmap.is_free_except(&rect, &old_rect)
                    || occupant_at(netlist, grid, &rect, s, query).is_some_and(|n| {
                        !pinned.is_some_and(|p| p[n]) && can_swap(netlist, grid, s, n, query)
                    })
            });
            if let Some(i) = hit {
                let c = cand[i];
                let rect = inst.padded_rect(c);
                if bitmap.is_free_except(&rect, &old_rect) {
                    bitmap.unmark(&old_rect);
                    bitmap.mark(&rect);
                    grid.remove(s, &old_rect);
                    grid.insert(s, &rect);
                    netlist.set_position(s, c);
                    *moved += 1;
                } else {
                    let n = occupant_at(netlist, grid, &rect, s, query)
                        .expect("accepted swap candidate has an occupant");
                    perform_swap(netlist, bitmap, grid, s, n);
                    *swapped += 1;
                }
                return true;
            }
        }
    }
    false
}

/// τ check for a relocation: moving instance `s` to `at` must not park it
/// within resonant reach (half a footprint of margin) of a near-resonant
/// foreign instance.
fn relocation_is_clean(
    netlist: &QuantumNetlist,
    grid: &SpatialGrid,
    s: usize,
    at: Point,
    query: &mut Vec<usize>,
) -> bool {
    let inst = netlist.instance(s);
    let probe = inst.padded_rect(at).inflated(0.5 * inst.padded_mm());
    let dc = netlist.detuning_threshold() * 0.999;
    grid.query_into(&probe, query);
    query.iter().all(|&other| {
        if other == s {
            return true;
        }
        let o = netlist.instance(other);
        o.same_resonator(inst)
            || !o.frequency().is_resonant_with(inst.frequency(), dc)
            || !netlist.padded_rect(other).overlaps(&probe)
    })
}

/// The single same-size segment instance whose footprint overlaps `rect`,
/// if exactly one exists and it is a segment of another resonator.
fn occupant_at(
    netlist: &QuantumNetlist,
    grid: &SpatialGrid,
    rect: &Rect,
    moving: usize,
    query: &mut Vec<usize>,
) -> Option<usize> {
    grid.query_into(rect, query);
    let mut hit: Option<usize> = None;
    for &id in query.iter() {
        if id == moving || !netlist.padded_rect(id).overlaps(rect) {
            continue;
        }
        if hit.is_some() {
            return None; // more than one occupant
        }
        hit = Some(id);
    }
    let one = hit?;
    let inst = netlist.instance(one);
    let mv = netlist.instance(moving);
    let different_resonator = match (inst.kind().resonator(), mv.kind().resonator()) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    };
    (different_resonator && (inst.padded_mm() - mv.padded_mm()).abs() < 1e-9).then_some(one)
}

/// τ check of Algorithm 1: after swapping, neither relocated segment may
/// sit within resonant reach of a near-resonant foreign instance.
fn can_swap(
    netlist: &QuantumNetlist,
    grid: &SpatialGrid,
    s: usize,
    n: usize,
    query: &mut Vec<usize>,
) -> bool {
    let dc = netlist.detuning_threshold();
    let mut ok_at = |inst_id: usize, at: Point, ignore: usize| {
        let inst = netlist.instance(inst_id);
        let probe = inst.padded_rect(at).inflated(0.5 * inst.padded_mm());
        grid.query_into(&probe, query);
        query.iter().all(|&other| {
            if other == inst_id || other == ignore {
                return true;
            }
            let o = netlist.instance(other);
            if !netlist.padded_rect(other).overlaps(&probe) {
                return true;
            }
            o.same_resonator(inst) || !o.frequency().is_resonant_with(inst.frequency(), dc * 0.999)
        })
    };
    // n moves to s's spot; s moves to n's spot (joining its own cluster —
    // only n's new neighborhood needs the resonance check, plus s's).
    ok_at(n, netlist.position(s), s) && ok_at(s, netlist.position(n), n)
}

fn perform_swap(
    netlist: &mut QuantumNetlist,
    bitmap: &mut OccupancyBitmap,
    grid: &mut SpatialGrid,
    s: usize,
    n: usize,
) {
    let rs = netlist.padded_rect(s);
    let rn = netlist.padded_rect(n);
    let ps = netlist.position(s);
    let pn = netlist.position(n);
    bitmap.unmark(&rs);
    bitmap.unmark(&rn);
    grid.remove(s, &rs);
    grid.remove(n, &rn);
    netlist.set_position(s, pn);
    netlist.set_position(n, ps);
    let rs2 = netlist.padded_rect(s);
    let rn2 = netlist.padded_rect(n);
    bitmap.mark(&rs2);
    bitmap.mark(&rn2);
    grid.insert(s, &rs2);
    grid.insert(n, &rn2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qubits::legalize_qubits;
    use crate::tetris::legalize_segments;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_netlist::NetlistConfig;
    use qplacer_topology::Topology;

    fn pipeline(t: &Topology) -> (QuantumNetlist, IntegrationStats) {
        let freqs = FrequencyAssigner::paper_defaults().assign(t);
        let mut nl = QuantumNetlist::build(t, &freqs, &NetlistConfig::with_segment_size(0.4));
        let mut bm = OccupancyBitmap::new(nl.region(), 0.05);
        let mut tracker = crate::resonance::ResonanceTracker::new(&nl, 0.3);
        legalize_qubits(&mut nl, &mut bm, &mut tracker, 0.5);
        legalize_segments(&mut nl, &mut bm, &mut tracker, 0.5);
        let stats = integrate_resonators(&mut nl, &mut bm);
        (nl, stats)
    }

    #[test]
    fn integration_never_reduces_cluster_count() {
        let t = Topology::grid(2, 2);
        let (nl, stats) = pipeline(&t);
        assert!(stats.integrated_after >= stats.integrated_before);
        assert_eq!(
            stats.integrated_after + stats.unintegrated.len(),
            nl.num_resonators()
        );
    }

    #[test]
    fn layout_stays_overlap_free_after_integration() {
        let t = Topology::grid(2, 2);
        let (nl, _) = pipeline(&t);
        assert!(
            nl.overlapping_pairs().is_empty(),
            "integration broke legality"
        );
    }

    #[test]
    fn most_resonators_integrate_on_small_devices() {
        let t = Topology::falcon27();
        let (nl, stats) = pipeline(&t);
        let frac = stats.integrated_after as f64 / nl.num_resonators() as f64;
        assert!(
            frac > 0.7,
            "only {}/{} resonators integrated",
            stats.integrated_after,
            nl.num_resonators()
        );
    }

    #[test]
    fn cluster_decomposition_is_a_partition() {
        let t = Topology::grid(2, 2);
        let (nl, _) = pipeline(&t);
        for r in 0..nl.num_resonators() {
            let clusters = clusters_of(&nl, r);
            let total: usize = clusters.iter().map(Vec::len).sum();
            assert_eq!(total, nl.resonator_segments(r).len());
            // Largest first.
            for w in clusters.windows(2) {
                assert!(w[0].len() >= w[1].len());
            }
        }
    }
}
