//! Multilevel (cluster → place → refine) global placement.
//!
//! Large devices make the flat electrostatic loop expensive: every
//! iteration rasterizes all instances and the penalty schedule needs
//! many iterations to spread a dense start. The multilevel engine
//! instead builds a hierarchy of coarser netlists by **heavy-edge
//! matching** — merging heavily-connected instance pairs whose
//! frequencies are band-compatible
//! ([`qplacer_freq::merge_compatible`]) — places the coarsest graph
//! with the full budget on a proportionally smaller (2/3/5-smooth) bin
//! grid, then walks back down: each level's solution is projected onto
//! the finer level (cluster pairs split symmetrically about the solved
//! cluster position) and relaxed with a short refinement run. The
//! final level refines the original netlist on the caller's grid with
//! the caller's convergence criteria but a reduced iteration budget —
//! warm-started refinement reaches the flat engine's quality plateau
//! in a small fraction of a cold run's iterations, which is where the
//! V-cycle's speedup comes from.
//!
//! Every stage is deterministic and thread-count invariant: matching is
//! a sequential id-order scan, coarsening orders merged nets by sorted
//! endpoints, and the per-level placements inherit the flat engine's
//! bit-identical-across-pool-widths guarantee.

use std::collections::BTreeMap;

use qplacer_freq::merge_compatible;
use qplacer_geometry::Point;
use qplacer_netlist::QuantumNetlist;
use qplacer_numeric::next_smooth;
use qplacer_obs::TraceSink;

use crate::{GlobalPlacer, PlacementReport, PlacerConfig, PlacerWorkspace};

/// Coarsening stops once a level has this few instances: smaller graphs
/// place quickly anyway and further contraction only distorts them.
const MIN_COARSE_INSTANCES: usize = 64;

/// Coarsening also stops when matching shrinks a level by less than
/// 10% — the netlist's compatible edges are exhausted.
const MIN_SHRINK: f64 = 0.9;

/// Iteration budget of the intermediate (non-final) refinement runs:
/// a local relaxation of the projected solution, not a full placement.
const REFINE_MAX_ITERATIONS: usize = 40;
const REFINE_MIN_ITERATIONS: usize = 10;

/// Iteration budget of the final full-resolution refinement. It starts
/// from the projected coarse solution — already spread, with density
/// overflow a third of a cold start's — and its overflow plateaus
/// within a few dozen iterations, so the budget is a fixed relaxation
/// length rather than a fraction of the caller's (cold-start-sized)
/// `max_iterations`.
const FINAL_REFINE_ITERATIONS: usize = 50;

/// Iteration cap of the coarsest-level placement. That level starts
/// cold and runs the full spreading schedule, but the adaptive λ
/// initialization plus geometric growth converge well within this many
/// iterations on coarse graphs; the flat budget (sized for cold
/// full-resolution runs) would triple the coarse phase for no quality
/// gain.
const COARSEST_MAX_ITERATIONS: usize = 300;

/// Per-level placement workspaces, cached inside the caller's
/// [`PlacerWorkspace`] so repeated multilevel runs (sweeps, the
/// harness) reuse every coarse-level buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct MultilevelState {
    workspaces: Vec<PlacerWorkspace>,
}

/// Bin grid for a coarse level: the same ~`2√n` sizing rule as
/// [`crate::DensityModel::for_netlist`], but rounded up to the nearest
/// 2/3/5-smooth length instead of the next power of two — smaller grids
/// for the same resolution, running on the mixed-radix spectral kernels.
fn coarse_bins(instances: usize) -> usize {
    let target = (2.0 * (instances.max(1) as f64).sqrt()).ceil() as usize;
    next_smooth(target.clamp(24, 250))
}

/// Auto bin grid for the final full-resolution refinement: the same
/// `~2√n` resolution [`crate::DensityModel::for_netlist`] picks, but
/// 2/3/5-smooth instead of rounded up to the next power of two. At
/// Condor scale the power-of-two rounding overshoots badly (e.g. 163 →
/// 256, ~2.5× the bins), so the smooth grid stays closer to the
/// intended resolution. It is also the cheaper field solve: on one
/// core of a 2-core Xeon, a 180² solve takes 2.7 ms against 3.2 ms at
/// 256² (best of eight runs each).
fn fine_bins(instances: usize) -> usize {
    let target = (2.0 * (instances.max(1) as f64).sqrt()).ceil() as usize;
    next_smooth(target.clamp(32, 256))
}

/// Greedy heavy-edge matching over the net adjacency, restricted to
/// band-compatible pairs. Returns the instance → cluster map and the
/// cluster count. Deterministic: vertices are scanned in id order and
/// ties break toward the lowest-id neighbor.
fn heavy_edge_clusters(netlist: &QuantumNetlist) -> (Vec<usize>, usize) {
    let n = netlist.num_instances();
    let mut edges: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for net in netlist.nets() {
        let (a, b) = net.endpoints();
        *edges.entry((a.min(b), a.max(b))).or_insert(0.0) += net.weight();
    }
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (&(a, b), &w) in &edges {
        adj[a].push((b, w));
        adj[b].push((a, w));
    }

    let dc = netlist.detuning_threshold();
    let mut mate: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        if mate[i].is_some() {
            continue;
        }
        let inst_i = netlist.instance(i);
        let mut best: Option<(usize, f64)> = None;
        for &(j, w) in &adj[i] {
            if mate[j].is_some() {
                continue;
            }
            let inst_j = netlist.instance(j);
            if !merge_compatible(
                inst_i.frequency(),
                inst_j.frequency(),
                dc,
                inst_i.same_resonator(inst_j),
            ) {
                continue;
            }
            if best.is_none_or(|(bj, bw)| w > bw || (w == bw && j < bj)) {
                best = Some((j, w));
            }
        }
        if let Some((j, _)) = best {
            mate[i] = Some(j);
            mate[j] = Some(i);
        }
    }

    let mut cluster_of = vec![usize::MAX; n];
    let mut clusters = 0;
    for i in 0..n {
        if cluster_of[i] != usize::MAX {
            continue;
        }
        cluster_of[i] = clusters;
        if let Some(j) = mate[i] {
            if j > i {
                cluster_of[j] = clusters;
            }
        }
        clusters += 1;
    }
    (cluster_of, clusters)
}

/// Clamp that degrades to the interval midpoint if the instance is too
/// large for the region span (cannot happen for density-feasible
/// netlists, but must not panic on degenerate inputs).
fn clamp_axis(v: f64, lo: f64, hi: f64) -> f64 {
    if lo <= hi {
        v.clamp(lo, hi)
    } else {
        0.5 * (lo + hi)
    }
}

/// Projects a placed coarse level onto the next finer one. Matching
/// produces clusters of at most two members: a singleton moves straight
/// to its cluster's solved position, and a pair splits symmetrically
/// about it — along the members' original relative direction, spaced so
/// their padded footprints just touch, with the padded-area-weighted
/// centroid staying on the cluster position. (Co-locating a pair would
/// hand the refinement a layout whose density overflow is dominated by
/// intra-cluster overlap, wasting most of the coarse solution.) Larger
/// clusters, which the matcher never emits, translate by the cluster's
/// displacement instead.
fn project(
    fine: &mut QuantumNetlist,
    cluster_of: &[usize],
    coarse: &QuantumNetlist,
    coarse_initial: &[Point],
) {
    let region = fine.region();
    let place = |fine: &mut QuantumNetlist, id: usize, x: f64, y: f64| {
        let half = 0.5 * fine.instance(id).padded_mm();
        fine.set_position(
            id,
            Point::new(
                clamp_axis(x, region.min.x + half, region.max.x - half),
                clamp_axis(y, region.min.y + half, region.max.y - half),
            ),
        );
    };

    let mut members: Vec<Vec<usize>> = vec![Vec::new(); coarse.num_instances()];
    for (id, &c) in cluster_of.iter().enumerate() {
        members[c].push(id);
    }
    for (c, ids) in members.iter().enumerate() {
        let target = coarse.position(c);
        match ids[..] {
            [a] => place(fine, a, target.x, target.y),
            [a, b] => {
                let (pa, pb) = (fine.position(a), fine.position(b));
                let (mut ux, mut uy) = (pb.x - pa.x, pb.y - pa.y);
                let norm = (ux * ux + uy * uy).sqrt();
                if norm > 1e-9 {
                    ux /= norm;
                    uy /= norm;
                } else {
                    (ux, uy) = (1.0, 0.0);
                }
                let gap = 0.5 * (fine.instance(a).padded_mm() + fine.instance(b).padded_mm());
                let (wa, wb) = (
                    fine.instance(a).padded_area(),
                    fine.instance(b).padded_area(),
                );
                let (ta, tb) = (wb / (wa + wb) * gap, wa / (wa + wb) * gap);
                place(fine, a, target.x - ux * ta, target.y - uy * ta);
                place(fine, b, target.x + ux * tb, target.y + uy * tb);
            }
            _ => {
                let (dx, dy) = (
                    target.x - coarse_initial[c].x,
                    target.y - coarse_initial[c].y,
                );
                for &id in ids {
                    let p = fine.position(id);
                    place(fine, id, p.x + dx, p.y + dy);
                }
            }
        }
    }
}

/// The coarsening phase of the multilevel V-cycle: contracts `netlist`
/// up to `levels - 1` times by heavy-edge matching, stopping early once
/// a level is small or matching stalls.
///
/// Returns the coarse netlists, finest first, and beside each the
/// instance → cluster map that produced it from the level above
/// (`netlist` itself for the first). Both are empty when nothing
/// coarsens.
#[must_use]
pub fn coarsen_hierarchy(
    netlist: &QuantumNetlist,
    levels: usize,
) -> (Vec<QuantumNetlist>, Vec<Vec<usize>>) {
    let mut netlists: Vec<QuantumNetlist> = Vec::new();
    let mut maps: Vec<Vec<usize>> = Vec::new();
    for _ in 1..levels {
        let src: &QuantumNetlist = netlists.last().unwrap_or(netlist);
        let n = src.num_instances();
        if n <= MIN_COARSE_INSTANCES {
            break;
        }
        let (cluster_of, clusters) = heavy_edge_clusters(src);
        if (clusters as f64) > MIN_SHRINK * n as f64 {
            break;
        }
        let coarse = src.coarsen(&cluster_of, clusters);
        netlists.push(coarse);
        maps.push(cluster_of);
    }
    (netlists, maps)
}

/// The multilevel V-cycle. Called from [`GlobalPlacer::execute`]
/// when `config.levels > 1`; coarse and intermediate levels run
/// untraced (`sink` only sees the final full-resolution refinement, so
/// trace iteration indices stay meaningful).
pub(crate) fn run_multilevel(
    placer: &GlobalPlacer,
    netlist: &mut QuantumNetlist,
    ws: &mut PlacerWorkspace,
    sink: &mut dyn TraceSink,
) -> PlacementReport {
    let cfg = *placer.config();
    debug_assert!(cfg.levels > 1, "flat runs must not enter the V-cycle");
    let span = qplacer_obs::span!("multilevel_place", levels = cfg.levels as u64);

    let (mut netlists, maps) = {
        let _span = qplacer_obs::span!(
            "multilevel_coarsen",
            instances = netlist.num_instances() as u64
        );
        coarsen_hierarchy(netlist, cfg.levels)
    };

    let flat_cfg = PlacerConfig { levels: 1, ..cfg };
    if netlists.is_empty() {
        // Nothing to coarsen — identical to a flat run.
        return GlobalPlacer::new(flat_cfg).execute(
            netlist,
            crate::ExecOptions {
                workspace: Some(ws),
                sink: Some(sink),
                pinned: None,
            },
        );
    }

    let mut state = ws.multilevel.take().unwrap_or_default();
    state
        .workspaces
        .resize_with(netlists.len(), PlacerWorkspace::new);

    // Descend: place the coarsest level with the full budget, every
    // other coarse level with a short relaxation, projecting each
    // solution onto the next finer level.
    let mut total_iterations = 0;
    for level in (0..netlists.len()).rev() {
        let deepest = level + 1 == netlists.len();
        let level_cfg = PlacerConfig {
            levels: 1,
            bins: Some(coarse_bins(netlists[level].num_instances())),
            max_iterations: if deepest {
                cfg.max_iterations.min(COARSEST_MAX_ITERATIONS)
            } else {
                cfg.max_iterations.min(REFINE_MAX_ITERATIONS)
            },
            min_iterations: if deepest {
                cfg.min_iterations
            } else {
                cfg.min_iterations.min(REFINE_MIN_ITERATIONS)
            },
            ..cfg
        };
        let initial = netlists[level].positions().to_vec();
        {
            let _span = qplacer_obs::span!(
                "multilevel_level",
                instances = netlists[level].num_instances() as u64
            );
            let report = GlobalPlacer::new(level_cfg).execute(
                &mut netlists[level],
                crate::ExecOptions {
                    workspace: Some(&mut state.workspaces[level]),
                    ..Default::default()
                },
            );
            total_iterations += report.iterations;
        }
        let _span = qplacer_obs::span!("multilevel_uncoarsen", level = level as u64 + 1);
        if level == 0 {
            project(netlist, &maps[0], &netlists[0], &initial);
        } else {
            let (finer, coarser) = netlists.split_at_mut(level);
            project(&mut finer[level - 1], &maps[level], &coarser[0], &initial);
        }
    }

    // Final refinement at full resolution: the caller's grid and
    // convergence criteria, but a reduced iteration budget — the warm
    // start has already done the spreading.
    let final_max = FINAL_REFINE_ITERATIONS.min(cfg.max_iterations);
    let final_cfg = PlacerConfig {
        max_iterations: final_max,
        min_iterations: cfg.min_iterations.min(final_max),
        bins: Some(
            cfg.bins
                .unwrap_or_else(|| fine_bins(netlist.num_instances())),
        ),
        ..flat_cfg
    };
    let mut report = {
        let _span = qplacer_obs::span!(
            "multilevel_refine",
            instances = netlist.num_instances() as u64
        );
        GlobalPlacer::new(final_cfg).execute(
            netlist,
            crate::ExecOptions {
                workspace: Some(ws),
                sink: Some(sink),
                pinned: None,
            },
        )
    };
    ws.multilevel = Some(state);

    report.iterations += total_iterations;
    report.elapsed_seconds = span.finish().as_secs_f64();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_netlist::NetlistConfig;
    use qplacer_topology::Topology;

    fn build(t: &Topology) -> QuantumNetlist {
        let freqs = FrequencyAssigner::paper_defaults().assign(t);
        QuantumNetlist::build(t, &freqs, &NetlistConfig::with_segment_size(0.4))
    }

    #[test]
    fn matching_only_merges_compatible_pairs() {
        let nl = build(&Topology::grid(3, 3));
        let (cluster_of, clusters) = heavy_edge_clusters(&nl);
        assert_eq!(cluster_of.len(), nl.num_instances());
        assert!(clusters < nl.num_instances());
        let dc = nl.detuning_threshold();
        for i in 0..nl.num_instances() {
            for j in i + 1..nl.num_instances() {
                if cluster_of[i] == cluster_of[j] {
                    let (a, b) = (nl.instance(i), nl.instance(j));
                    assert!(
                        merge_compatible(a.frequency(), b.frequency(), dc, a.same_resonator(b)),
                        "incompatible merge {i}+{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn matching_is_deterministic() {
        let nl = build(&Topology::grid(3, 3));
        assert_eq!(heavy_edge_clusters(&nl), heavy_edge_clusters(&nl));
    }

    #[test]
    fn cluster_ids_are_dense_and_ordered() {
        let nl = build(&Topology::grid(2, 2));
        let (cluster_of, clusters) = heavy_edge_clusters(&nl);
        let mut seen = vec![false; clusters];
        let mut max_seen = 0;
        for &c in &cluster_of {
            assert!(c < clusters);
            // First occurrences appear in increasing order.
            assert!(c <= max_seen + 1);
            max_seen = max_seen.max(c);
            seen[c] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn coarse_bins_are_smooth_and_bounded() {
        for n in [1usize, 10, 100, 354, 1000, 10_000, 1_000_000] {
            let m = coarse_bins(n);
            assert!(qplacer_numeric::is_fast_path(m), "bins {m} not smooth");
            assert!((24..=250).contains(&m), "bins {m} out of range");
        }
    }

    #[test]
    fn multilevel_places_small_device() {
        let mut nl = build(&Topology::grid(3, 3));
        let flat_overflow = {
            let mut flat = nl.clone();
            GlobalPlacer::new(PlacerConfig::fast())
                .execute(&mut flat, Default::default())
                .final_overflow
        };
        let cfg = PlacerConfig {
            levels: 3,
            ..PlacerConfig::fast()
        };
        let report = GlobalPlacer::new(cfg).execute(&mut nl, Default::default());
        assert!(report.iterations > 0);
        assert!(
            report.final_overflow < flat_overflow * 1.5 + 0.05,
            "multilevel overflow {} vs flat {flat_overflow}",
            report.final_overflow
        );
        // Everything stayed inside the region.
        let region = nl.region().inflated(1e-6);
        for inst in nl.instances() {
            assert!(region.contains_rect(&nl.padded_rect(inst.id())));
        }
    }

    #[test]
    fn tiny_netlist_degrades_to_flat() {
        let t = Topology::from_edges("pair", 2, [(0, 1)]).unwrap();
        let mut a = build(&t);
        let mut b = a.clone();
        let flat = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut a, Default::default());
        let cfg = PlacerConfig {
            levels: 4,
            ..PlacerConfig::fast()
        };
        let multi = GlobalPlacer::new(cfg).execute(&mut b, Default::default());
        // Below MIN_COARSE_INSTANCES no coarsening happens, so the runs
        // are identical.
        assert_eq!(flat.iterations, multi.iterations);
        assert_eq!(a.positions(), b.positions());
    }
}
