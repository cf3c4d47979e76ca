//! Reusable legalization workspace + deterministic parallel scanning.
//!
//! Mirrors the global placer's `PlacerWorkspace` (PR 2): every buffer the
//! three legalization phases need — the occupancy bitmap, the resonance
//! tracker's spatial grid, candidate/cluster/cost scratch — lives in one
//! [`LegalWorkspace`] that [`crate::Legalizer::run_with`] threads through
//! all phases. A steady-state legalization of the same netlist shape
//! performs **zero heap allocations**; a harness sweeping many jobs pays
//! the buffer build-out once.
//!
//! Parallelism follows the same discipline as the placer: candidate
//! *scoring* fans across the current rayon pool, candidate *selection*
//! always takes the lowest-index acceptable candidate, so results are
//! bit-identical at any thread count (asserted by the crate's
//! thread-determinism test).

use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

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
    pub(crate) search: SearchScratch,
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
            search: SearchScratch::default(),
            qubits: QubitScratch::default(),
            tetris: TetrisScratch::default(),
            integ: IntegrationScratch::default(),
            sizes: Vec::new(),
        }
    }
}

/// Scratch shared by the candidate searches of phases 1 and 2.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchScratch {
    /// Spatial-grid query buffer (sequential scoring path).
    pub(crate) query: Vec<usize>,
    /// Current block of spiral candidates under scoring.
    pub(crate) block: Vec<Point>,
    /// Whether candidate scoring should fan across the rayon pool.
    /// Snapshotted once per run: the pool cannot change mid-run, and the
    /// per-block scan then reads a plain field.
    pub(crate) parallel: bool,
}

impl SearchScratch {
    /// Snapshots the current rayon pool width into [`Self::parallel`].
    pub(crate) fn set_parallel_from_pool(&mut self) {
        self.parallel = rayon::current_num_threads() > 1;
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

/// Index of the first candidate (in slice order) accepted by `accept`,
/// scored across the current rayon pool when it has more than one worker.
///
/// `accept` must be a pure read-only predicate of the candidate; the
/// `&mut Vec<usize>` it receives is query scratch (the caller's buffer on
/// the sequential path, a worker-local buffer on the parallel path).
/// Selection is always the *lowest* accepted index, so the result is
/// identical at any thread count.
pub(crate) fn first_accepted<T, A>(
    cands: &[T],
    query: &mut Vec<usize>,
    parallel: bool,
    accept: A,
) -> Option<usize>
where
    T: Sync,
    A: Fn(&T, &mut Vec<usize>) -> bool + Sync,
{
    if cands.is_empty() {
        return None;
    }
    // Small blocks (and single-worker pools) score sequentially with
    // early exit — equivalent to the minimum accepted index, without the
    // fan-out overhead. The threshold is deliberately high: each fan-out
    // wakes parked pool threads, so it only pays for itself on the large
    // crowded-region blocks.
    if !parallel || cands.len() < 256 {
        return cands.iter().position(|c| accept(c, query));
    }
    std::thread_local! {
        /// Worker-local query buffer for the parallel scoring path. Pool
        /// threads persist, so it grows to its peak once per thread and
        /// is reused by every later scan.
        static WORKER_QUERY: std::cell::RefCell<Vec<usize>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    let best = AtomicUsize::new(usize::MAX);
    (0..cands.len()).into_par_iter().for_each(|i| {
        // Cheap monotone skip: a candidate above the current best cannot
        // improve the minimum.
        if i < best.load(Ordering::Relaxed) {
            WORKER_QUERY.with(|q| {
                if accept(&cands[i], &mut q.borrow_mut()) {
                    best.fetch_min(i, Ordering::Relaxed);
                }
            });
        }
    });
    let i = best.load(Ordering::Relaxed);
    (i != usize::MAX).then_some(i)
}

/// Spiral candidate search around `desired` on the site lattice: yields
/// the first (ring-ordered) spot whose footprint fits inside `bound`, is
/// free in `bitmap`, and — when `strict` — passes the resonance τ check.
/// Candidates are scored in growing blocks via [`first_accepted`], so the
/// search parallelizes without changing its result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spiral_find(
    netlist: &QuantumNetlist,
    bitmap: &OccupancyBitmap,
    tracker: &ResonanceTracker,
    search: &mut SearchScratch,
    id: usize,
    desired: Point,
    site_pitch: f64,
    max_radius: i64,
    strict: bool,
    bound: &Rect,
) -> Option<Point> {
    let inst = *netlist.instance(id);
    let bound = bound.inflated(1e-9);
    let search_parallel = search.parallel;
    let SearchScratch { query, block, .. } = search;
    let mut spiral = SpiralIter::new(max_radius);
    // Start small (the common case hits within the first ring or two) and
    // grow geometrically so crowded regions amortize the scan overhead.
    let mut block_len = 64usize;
    loop {
        block.clear();
        for (dx, dy) in spiral.by_ref().take(block_len) {
            block.push(bitmap.snap_to_sites(
                Point::new(
                    desired.x + dx as f64 * site_pitch,
                    desired.y + dy as f64 * site_pitch,
                ),
                inst.padded_mm(),
                site_pitch,
            ));
        }
        if block.is_empty() {
            return None;
        }
        let hit = first_accepted(block, query, search_parallel, |cand: &Point, q| {
            let rect = inst.padded_rect(*cand);
            bound.contains_rect(&rect)
                && bitmap.is_free(&rect)
                && (!strict || tracker.is_clean_with(netlist, id, *cand, q))
        });
        if let Some(i) = hit {
            return Some(block[i]);
        }
        block_len = (block_len * 4).min(16_384);
    }
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
