//! Reusable legalization workspace and candidate search.
//!
//! Mirrors the global placer's `PlacerWorkspace` (PR 2): every buffer the
//! three legalization phases need — the occupancy bitmap, the resonance
//! tracker's spatial grid, candidate/cluster/cost scratch — lives in one
//! [`LegalWorkspace`] that [`crate::Legalizer::run_with`] threads through
//! all phases. A steady-state legalization of the same netlist shape
//! performs **zero heap allocations**; a harness sweeping many jobs pays
//! the buffer build-out once.
//!
//! Every search runs on the calling thread and takes the first
//! acceptable candidate in its fixed probe order.

use qplacer_geometry::{Point, Rect, SpatialGrid, SpiralIter};
use qplacer_netlist::QuantumNetlist;

use crate::mcmf::AssignmentScratch;
use crate::resonance::ResonanceTracker;
use crate::OccupancyBitmap;

/// All buffers the legalization phases reuse across runs. Construct once
/// (cheap; nothing is sized until the first run) and pass to
/// [`crate::Legalizer::run_with`].
#[derive(Debug, Clone)]
pub struct LegalWorkspace {
    pub(crate) bitmap: OccupancyBitmap,
    pub(crate) tracker: ResonanceTracker,
    /// Spatial-grid query buffer of the phase-1 and phase-2 searches.
    pub(crate) query: Vec<usize>,
    pub(crate) qubits: QubitScratch,
    pub(crate) tetris: TetrisScratch,
    pub(crate) integ: IntegrationScratch,
    /// Distinct padded-footprint sizes (site-pitch derivation).
    pub(crate) sizes: Vec<f64>,
}

impl LegalWorkspace {
    /// An empty workspace; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Default for LegalWorkspace {
    fn default() -> Self {
        Self {
            bitmap: OccupancyBitmap::empty(),
            tracker: ResonanceTracker::empty(),
            query: Vec::new(),
            qubits: QubitScratch::default(),
            tetris: TetrisScratch::default(),
            integ: IntegrationScratch::default(),
            sizes: Vec::new(),
        }
    }
}

/// Phase-1 (qubit legalization) scratch.
#[derive(Debug, Clone, Default)]
pub(crate) struct QubitScratch {
    pub(crate) order: Vec<usize>,
    pub(crate) sites: Vec<Point>,
    /// Per-qubit displacement (mm), indexed by device qubit.
    pub(crate) displacement: Vec<f64>,
    /// Row-major flattened displacement cost matrix for the MCMF.
    pub(crate) costs: Vec<i64>,
    pub(crate) assignment: Vec<usize>,
    pub(crate) mcmf: AssignmentScratch,
}

/// Phase-2 (Tetris segment packing) scratch.
#[derive(Debug, Clone, Default)]
pub(crate) struct TetrisScratch {
    pub(crate) res_order: Vec<usize>,
    pub(crate) mean_x: Vec<f64>,
    pub(crate) chain: Vec<usize>,
    /// `(instance_id, displacement_mm)` per segment.
    pub(crate) displacement: Vec<(usize, f64)>,
}

/// Phase-3 (Algorithm-1 integration) scratch.
#[derive(Debug, Clone)]
pub(crate) struct IntegrationScratch {
    /// Spatial index of all instances (also reused for the final
    /// remaining-overlap count).
    pub(crate) grid: SpatialGrid,
    pub(crate) query: Vec<usize>,
    /// Union-find parents over one resonator's segments.
    pub(crate) parent: Vec<usize>,
    /// `(root, member index)` labels, sorted to group clusters.
    pub(crate) labels: Vec<(usize, usize)>,
    /// Segment ids grouped by cluster.
    pub(crate) members: Vec<usize>,
    /// `(start, end)` ranges into `members`, largest cluster first.
    pub(crate) clusters: Vec<(usize, usize)>,
    /// The largest cluster of the resonator under repair.
    pub(crate) cluster: Vec<usize>,
    /// Segments outside the largest cluster, nearest-centroid first.
    pub(crate) scattered: Vec<usize>,
    pub(crate) anchors: Vec<usize>,
    /// Relocation/swap candidate positions under scoring.
    pub(crate) cand: Vec<Point>,
}

impl Default for IntegrationScratch {
    fn default() -> Self {
        Self {
            grid: SpatialGrid::new(Rect::from_center(Point::ORIGIN, 1.0, 1.0), 1.0),
            query: Vec::new(),
            parent: Vec::new(),
            labels: Vec::new(),
            members: Vec::new(),
            clusters: Vec::new(),
            cluster: Vec::new(),
            scattered: Vec::new(),
            anchors: Vec::new(),
            cand: Vec::new(),
        }
    }
}

/// Spiral candidate search around `desired` on the site lattice: yields
/// the first (ring-ordered) spot whose footprint fits inside `bound`, is
/// free in `bitmap`, and — when `strict` — passes the resonance τ check.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spiral_find(
    netlist: &QuantumNetlist,
    bitmap: &OccupancyBitmap,
    tracker: &ResonanceTracker,
    query: &mut Vec<usize>,
    id: usize,
    desired: Point,
    site_pitch: f64,
    max_radius: i64,
    strict: bool,
    bound: &Rect,
) -> Option<Point> {
    let inst = *netlist.instance(id);
    let bound = bound.inflated(1e-9);
    SpiralIter::new(max_radius)
        .map(|(dx, dy)| {
            bitmap.snap_to_sites(
                Point::new(
                    desired.x + dx as f64 * site_pitch,
                    desired.y + dy as f64 * site_pitch,
                ),
                inst.padded_mm(),
                site_pitch,
            )
        })
        .find(|cand| {
            let rect = inst.padded_rect(*cand);
            bound.contains_rect(&rect)
                && bitmap.is_free(&rect)
                && (!strict || tracker.is_clean_with(netlist, id, *cand, query))
        })
}

/// Counts instance pairs whose padded footprints overlap, using an
/// already-populated spatial `grid` (same predicate as
/// `QuantumNetlist::overlapping_pairs`, without rebuilding an index or
/// materializing the pair list).
pub(crate) fn count_overlaps(
    netlist: &QuantumNetlist,
    grid: &SpatialGrid,
    query: &mut Vec<usize>,
) -> usize {
    let mut count = 0;
    for inst in netlist.instances() {
        let id = inst.id();
        let r = netlist.padded_rect(id);
        grid.query_into(&r, query);
        for &other in query.iter() {
            if other > id && r.overlaps(&netlist.padded_rect(other)) {
                count += 1;
            }
        }
    }
    count
}
