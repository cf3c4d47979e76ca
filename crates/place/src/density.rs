//! Electrostatic density penalty `D(x, y)` (Eq. 11, §IV-C1).
//!
//! Instances are charges whose density map feeds a spectral Poisson solve
//! (see [`qplacer_numeric::PoissonSolver`]); the resulting potential gives
//! the penalty energy `N = ½·Σ q·ψ` and the field gives each instance's
//! spreading force. The DC component is removed, which is equivalent to
//! measuring density against the uniform average — overfilled bins push
//! out, underfilled bins pull in.
//!
//! The bin grid is uniform, so a footprint's overlap with a bin splits
//! into an x-width times a y-height (as in ePlace and DREAMPlace): each
//! kernel computes a footprint's per-axis overlap weights once and then
//! gives every bin it covers their product. Every kernel runs on the
//! calling thread.

use std::ops::Range;

use qplacer_geometry::{Point, Rect, GEOM_EPS};
use qplacer_netlist::QuantumNetlist;
use qplacer_numeric::{is_fast_path, Array2, PoissonField, PoissonSolver, SpectralScratch};

/// Fixed number of deposition bands: instances are split into this many
/// contiguous id-ranges whose charge maps are accumulated separately and
/// reduced in band order. A band whose instances are all pinned keeps
/// its map for a whole warm run (see [`DensityWorkspace::begin_run`]).
const DEPOSIT_BANDS: usize = 8;

/// Partial sums the capacity-overflow scan keeps, one per lane of a
/// 16-wide sweep.
const SCAN_LANES: usize = 16;

/// Caller-owned scratch for the density kernels: the charge map, the
/// per-band deposition accumulators, the Poisson field, the
/// spectral-transform scratch, and one footprint's per-axis overlap
/// weights. Allocate once per model via [`DensityModel::workspace`];
/// every kernel call then runs without heap allocation.
#[derive(Debug, Clone)]
pub struct DensityWorkspace {
    rho: Array2,
    bands: Vec<DepositBand>,
    field: PoissonField,
    scratch: SpectralScratch,
    weights: AxisWeights,
}

/// One footprint's overlap with each bin column (`x`, one slot per
/// column) and each bin row (`y`, one slot per row). Sized to the grid,
/// so any footprint fits, however wide.
#[derive(Debug, Clone)]
struct AxisWeights {
    x: Vec<f64>,
    y: Vec<f64>,
}

/// One deposition band's accumulator and how it is refreshed.
#[derive(Debug, Clone)]
struct DepositBand {
    map: Array2,
    state: BandState,
}

/// How a deposit band's map is refreshed. Outside a pinned placement
/// run every band is [`BandState::Live`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BandState {
    /// Re-deposited on every call.
    Live,
    /// Every instance of the band is pinned for the current run: the
    /// next deposit fills the map and keeps it.
    Pinned,
    /// Holds the pinned instances' deposit for the rest of the run.
    Cached,
}

impl DensityWorkspace {
    /// Starts a placement run under `pinned`: every deposit band whose
    /// instances are all pinned is deposited once, on first use, and
    /// reused by every later deposit until [`DensityWorkspace::end_run`].
    /// Sound only while every pinned instance keeps its coordinates
    /// bit for bit, which the placer guarantees. `None` (a cold run)
    /// keeps every band live.
    pub(crate) fn begin_run(&mut self, pinned: Option<&[bool]>) {
        let n = pinned.map_or(0, <[bool]>::len);
        let band_len = n.div_ceil(DEPOSIT_BANDS).max(1);
        for (b, band) in self.bands.iter_mut().enumerate() {
            let ids = (b * band_len).min(n)..((b + 1) * band_len).min(n);
            let all_pinned =
                pinned.is_some_and(|mask| !ids.is_empty() && !mask[ids].contains(&false));
            band.state = if all_pinned {
                BandState::Pinned
            } else {
                BandState::Live
            };
        }
    }

    /// Ends the run [`DensityWorkspace::begin_run`] started: every band
    /// is live again, so the workspace can serve another netlist.
    pub(crate) fn end_run(&mut self) {
        self.begin_run(None);
    }

    /// The most recently rasterized density map.
    #[must_use]
    pub fn rho(&self) -> &Array2 {
        &self.rho
    }

    /// The most recently solved Poisson field.
    ///
    /// After [`DensityModel::energy_grad_into`] the `psi` map holds the
    /// potential ψ; after the gradient-only [`DensityModel::grad_into`]
    /// it holds the *spectral* coefficients ψ̂ instead (the inverse
    /// transform is skipped) — only `ex`/`ey` are comparable between the
    /// two paths.
    #[must_use]
    pub fn field(&self) -> &PoissonField {
        &self.field
    }
}

/// Bin-grid density model bound to a netlist's region.
#[derive(Debug, Clone)]
pub struct DensityModel {
    region: Rect,
    nx: usize,
    ny: usize,
    bin_w: f64,
    bin_h: f64,
    solver: PoissonSolver,
}

impl DensityModel {
    /// Creates a model with an `nx × ny` bin grid over `region`.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or the region degenerate.
    #[must_use]
    pub fn new(region: Rect, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "bin grid must be non-empty");
        assert!(region.area() > 0.0, "region must have positive area");
        Self {
            region,
            nx,
            ny,
            bin_w: region.width() / nx as f64,
            bin_h: region.height() / ny as f64,
            solver: PoissonSolver::new(nx, ny),
        }
    }

    /// Picks a power-of-two grid adequate for `netlist`: roughly 2× the
    /// square root of the instance count, clamped to `[32, 256]`. The
    /// result always satisfies [`qplacer_numeric::is_fast_path`], so the
    /// placer never silently degrades to the O(N²) naive transforms.
    #[must_use]
    pub fn for_netlist(netlist: &QuantumNetlist) -> Self {
        let n = netlist.num_instances().max(1);
        let target = (2.0 * (n as f64).sqrt()) as usize;
        let m = target.next_power_of_two().clamp(32, 256);
        assert!(
            is_fast_path(m),
            "auto-picked bin grid {m} must take the fast transform path"
        );
        Self::new(netlist.region(), m, m)
    }

    /// Grid dimensions.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// A workspace sized for this model's grid, for the `*_into` kernel
    /// variants.
    #[must_use]
    pub fn workspace(&self) -> DensityWorkspace {
        DensityWorkspace {
            rho: Array2::zeros(self.nx, self.ny),
            bands: (0..DEPOSIT_BANDS)
                .map(|_| DepositBand {
                    map: Array2::zeros(self.nx, self.ny),
                    state: BandState::Live,
                })
                .collect(),
            field: PoissonField::zeros(self.nx, self.ny),
            scratch: self.solver.make_scratch(),
            weights: AxisWeights {
                x: vec![0.0; self.nx],
                y: vec![0.0; self.ny],
            },
        }
    }

    /// Rasterizes padded instance footprints into the bin grid, returning
    /// per-bin covered area. Convenience wrapper over
    /// [`DensityModel::rasterize_into`].
    #[must_use]
    pub fn rasterize(&self, netlist: &QuantumNetlist, positions: &[Point]) -> Array2 {
        let mut ws = self.workspace();
        self.rasterize_into(netlist, positions, &mut ws);
        ws.rho
    }

    /// Rasterizes padded instance footprints into `ws.rho` without
    /// allocating: instances are split into `DEPOSIT_BANDS` (8) contiguous
    /// id-ranges, each deposited into its own map, and the maps are
    /// reduced in fixed band order.
    pub fn rasterize_into(
        &self,
        netlist: &QuantumNetlist,
        positions: &[Point],
        ws: &mut DensityWorkspace,
    ) {
        let instances = netlist.instances();
        let band_len = instances.len().div_ceil(DEPOSIT_BANDS).max(1);
        for (band, chunk) in ws.bands.iter_mut().zip(instances.chunks(band_len)) {
            match band.state {
                BandState::Live => {}
                BandState::Pinned => band.state = BandState::Cached,
                BandState::Cached => continue,
            }
            band.map.fill_zero();
            for inst in chunk {
                let rect = inst.padded_rect(positions[inst.id()]);
                self.splat(&mut band.map, &rect, &mut ws.weights);
            }
        }
        let used_bands = instances.len().div_ceil(band_len).min(DEPOSIT_BANDS);
        ws.rho.fill_zero();
        for band in &ws.bands[..used_bands] {
            ws.rho.zip_apply(&band.map, |acc, b| acc + b);
        }
    }

    /// The bins `[lo, hi]` touches along one axis (at least one, clamped
    /// to the grid), with each one's overlap written to `w[bin]`. The
    /// operands are those of [`Rect::overlap_area`] for the bin
    /// `origin + i·size .. + size`: the same `GEOM_EPS` interior test (a
    /// failed test writes `0.0`) and the same `min(hi) − max(lo)`, so the
    /// product of an x and a y weight is bit for bit the bin's overlap
    /// area.
    fn overlap_weights(&self, lo: f64, hi: f64, horizontal: bool, w: &mut [f64]) -> Range<usize> {
        let (origin, size, count) = if horizontal {
            (self.region.min.x, self.bin_w, self.nx)
        } else {
            (self.region.min.y, self.bin_h, self.ny)
        };
        let first = ((((lo - origin) / size).floor().max(0.0)) as usize).min(count - 1);
        let last = (((hi - origin) / size).ceil().max(0.0) as usize).min(count);
        let bins = first..last.max(first + 1);
        for (i, w) in w[bins.clone()].iter_mut().enumerate() {
            let bin_lo = origin + (first + i) as f64 * size;
            let bin_hi = bin_lo + size;
            *w = if bin_lo < hi - GEOM_EPS && lo < bin_hi - GEOM_EPS {
                bin_hi.min(hi) - bin_lo.max(lo)
            } else {
                0.0
            };
        }
        bins
    }

    /// Fills `weights` for `rect` and returns the bin columns and rows
    /// it covers.
    fn footprint_weights(
        &self,
        rect: &Rect,
        weights: &mut AxisWeights,
    ) -> (Range<usize>, Range<usize>) {
        let xs = self.overlap_weights(rect.min.x, rect.max.x, true, &mut weights.x);
        let ys = self.overlap_weights(rect.min.y, rect.max.y, false, &mut weights.y);
        (xs, ys)
    }

    fn splat(&self, rho: &mut Array2, rect: &Rect, weights: &mut AxisWeights) {
        let (xs, ys) = self.footprint_weights(rect, weights);
        let wx = &weights.x[xs.clone()];
        for iy in ys {
            let wy = weights.y[iy];
            let row = &mut rho.data_mut()[iy * self.nx..][xs.clone()];
            for (bin, &wx) in row.iter_mut().zip(wx) {
                let a = wx * wy;
                if a > 0.0 {
                    *bin += a;
                }
            }
        }
    }

    /// Density overflow: the fraction of total instance area deposited
    /// above bin capacity, `Σ_b max(ρ_b − A_bin, 0) / Σ A_i`, where `ρ_b`
    /// is the area deposited in bin `b` and `A_bin` the area of one bin
    /// (the engine's stop metric, as in ePlace and DREAMPlace). A legal
    /// layout scores about 0; instances stacked on one spot score near 1.
    /// Convenience wrapper over [`DensityModel::overflow_with`].
    #[must_use]
    pub fn overflow(&self, netlist: &QuantumNetlist, positions: &[Point]) -> f64 {
        let mut ws = self.workspace();
        self.overflow_with(netlist, positions, &mut ws)
    }

    /// Allocation-free [`DensityModel::overflow`]: rasterizes into `ws`
    /// and scans the map.
    pub fn overflow_with(
        &self,
        netlist: &QuantumNetlist,
        positions: &[Point],
        ws: &mut DensityWorkspace,
    ) -> f64 {
        self.rasterize_into(netlist, positions, ws);
        self.scan_overflow(netlist, ws)
    }

    /// The capacity overflow of the map already in `ws.rho`, as
    /// [`DensityModel::overflow`] defines it. The placement loop scans
    /// the map its gradient just deposited, so the check costs no
    /// second deposit. Bin `i` adds to partial sum `i mod SCAN_LANES`
    /// and the partial sums are added in lane order: a branch-free
    /// sweep, whose cost does not depend on how many bins of a legal
    /// layout land within rounding of capacity.
    pub(crate) fn scan_overflow(&self, netlist: &QuantumNetlist, ws: &DensityWorkspace) -> f64 {
        let total = netlist.total_padded_area();
        if total <= 0.0 {
            return 0.0;
        }
        let capacity = self.bin_w * self.bin_h;
        let mut lanes = [0.0; SCAN_LANES];
        let (blocks, tail) = ws.rho.data().as_chunks::<SCAN_LANES>();
        for block in blocks {
            for (lane, &v) in lanes.iter_mut().zip(block) {
                *lane += (v - capacity).max(0.0);
            }
        }
        for (lane, &v) in lanes.iter_mut().zip(tail) {
            *lane += (v - capacity).max(0.0);
        }
        lanes.iter().fold(0.0, |over, &lane| over + lane) / total
    }

    /// Penalty energy and gradient (layout `[∂x…, ∂y…]`).
    ///
    /// Convenience wrapper over [`DensityModel::energy_grad_into`] that
    /// allocates a workspace and the gradient vector per call.
    #[must_use]
    pub fn energy_grad(&self, netlist: &QuantumNetlist, positions: &[Point]) -> (f64, Vec<f64>) {
        let mut ws = self.workspace();
        let mut grad = vec![0.0; 2 * positions.len()];
        let energy = self.energy_grad_into(netlist, positions, &mut grad, &mut ws);
        (energy, grad)
    }

    /// Allocation-free variant of [`DensityModel::energy_grad`].
    ///
    /// Energy is the electrostatic `½Σ q·ψ`; the gradient of instance `i`
    /// is `−q_i·ξ` sampled as the charge-weighted field over the bins the
    /// instance covers. Every phase runs on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != 2 * positions.len()`.
    pub fn energy_grad_into(
        &self,
        netlist: &QuantumNetlist,
        positions: &[Point],
        grad: &mut [f64],
        ws: &mut DensityWorkspace,
    ) -> f64 {
        self.grad_into_impl(netlist, positions, grad, ws, true, None)
            .0
    }

    /// Gradient-only variant of [`DensityModel::energy_grad_into`]: skips
    /// the inverse transform producing the potential ψ (and therefore the
    /// energy, returned as `0.0`) — the placement loop only consumes the
    /// field. One of the four 2-D spectral transforms is saved.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != 2 * positions.len()`.
    pub fn grad_into(
        &self,
        netlist: &QuantumNetlist,
        positions: &[Point],
        grad: &mut [f64],
        ws: &mut DensityWorkspace,
    ) {
        let _ = self.grad_into_impl(netlist, positions, grad, ws, false, None);
    }

    /// The placement loop's density gradient: [`DensityModel::grad_into`]
    /// with the field gathered only for instances not set in `pinned`
    /// (pinned slots are written `0.0`). Free slots are bit-identical to
    /// the unmasked gradient. Returns the wall time, in ns, of the
    /// `density_deposit`, `poisson_solve` and `field_gather` spans, in
    /// that order.
    pub(crate) fn grad_into_with(
        &self,
        netlist: &QuantumNetlist,
        positions: &[Point],
        grad: &mut [f64],
        ws: &mut DensityWorkspace,
        pinned: Option<&[bool]>,
    ) -> [u64; 3] {
        self.grad_into_impl(netlist, positions, grad, ws, false, pinned)
            .1
    }

    /// Energy (0 unless `want_energy`) and the three phase times of
    /// [`DensityModel::grad_into_with`].
    fn grad_into_impl(
        &self,
        netlist: &QuantumNetlist,
        positions: &[Point],
        grad: &mut [f64],
        ws: &mut DensityWorkspace,
        want_energy: bool,
        pinned: Option<&[bool]>,
    ) -> (f64, [u64; 3]) {
        let n = positions.len();
        assert_eq!(grad.len(), 2 * n, "gradient buffer length mismatch");
        let span = qplacer_obs::span!("density_deposit");
        self.rasterize_into(netlist, positions, ws);
        let deposit_ns = span.finish().as_nanos() as u64;

        let span = qplacer_obs::span!("poisson_solve", grid = self.nx as u64);
        let mut energy = 0.0;
        if want_energy {
            self.solver
                .solve_into(&ws.rho, &mut ws.field, &mut ws.scratch);
            for (&q, &psi) in ws.rho.data().iter().zip(ws.field.psi.data()) {
                energy += 0.5 * q * psi;
            }
        } else {
            self.solver
                .solve_field_into(&ws.rho, &mut ws.field, &mut ws.scratch);
        }
        let poisson_ns = span.finish().as_nanos() as u64;

        let span = qplacer_obs::span!("field_gather");
        let (grad_x, grad_y) = grad.split_at_mut(n);
        for (i, ((inst, gx), gy)) in netlist
            .instances()
            .iter()
            .zip(grad_x)
            .zip(grad_y)
            .enumerate()
        {
            // Gradient slots are addressed positionally; this pins the
            // instances-are-id-ordered invariant the addressing relies on.
            debug_assert_eq!(inst.id(), i);
            if pinned.is_some_and(|mask| mask[inst.id()]) {
                (*gx, *gy) = (0.0, 0.0);
                continue;
            }
            let rect = inst.padded_rect(positions[inst.id()]);
            let (xs, ys) = self.footprint_weights(&rect, &mut ws.weights);
            let wx = &ws.weights.x[xs.clone()];
            let mut fx = 0.0;
            let mut fy = 0.0;
            for iy in ys {
                let wy = ws.weights.y[iy];
                let ex = &ws.field.ex.row(iy)[xs.clone()];
                let ey = &ws.field.ey.row(iy)[xs.clone()];
                for ((&wx, &ex), &ey) in wx.iter().zip(ex).zip(ey) {
                    let a = wx * wy;
                    if a > 0.0 {
                        fx += a * ex;
                        fy += a * ey;
                    }
                }
            }
            // Force = q·E pushes apart; gradient descends, so ∂N/∂x = −q·ξx.
            (*gx, *gy) = (-fx, -fy);
        }
        let gather_ns = span.finish().as_nanos() as u64;
        (energy, [deposit_ns, poisson_ns, gather_ns])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_netlist::NetlistConfig;
    use qplacer_topology::Topology;

    fn netlist() -> QuantumNetlist {
        let t = Topology::grid(2, 2);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        QuantumNetlist::build(&t, &freqs, &NetlistConfig::default())
    }

    #[test]
    fn rasterized_mass_is_conserved() {
        let nl = netlist();
        let model = DensityModel::new(nl.region(), 64, 64);
        let rho = model.rasterize(&nl, nl.positions());
        // All instances start inside the region, so every mm² lands in a bin.
        assert!((rho.sum() - nl.total_padded_area()).abs() / nl.total_padded_area() < 1e-6);
    }

    #[test]
    fn clustered_layout_has_high_overflow_spread_layout_low() {
        let mut nl = netlist();
        let model = DensityModel::new(nl.region(), 64, 64);
        // Everything at the center: massive overflow.
        let clustered = model.overflow(&nl, nl.positions());
        assert!(clustered > 0.5, "clustered overflow {clustered}");

        // Hand-spread on a uniform grid: much lower overflow.
        let n = nl.num_instances();
        let side = (n as f64).sqrt().ceil() as usize;
        let region = nl.region();
        let pitch_x = region.width() / side as f64;
        let pitch_y = region.height() / side as f64;
        let spread: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    region.min.x + (i % side) as f64 * pitch_x + 0.5 * pitch_x,
                    region.min.y + (i / side) as f64 * pitch_y + 0.5 * pitch_y,
                )
            })
            .collect();
        nl.set_positions(&spread);
        let low = model.overflow(&nl, &spread);
        assert!(
            low < clustered * 0.5,
            "spread {low} vs clustered {clustered}"
        );
    }

    #[test]
    fn scan_of_the_gradient_deposit_matches_overflow_with() {
        let nl = netlist();
        let model = DensityModel::new(nl.region(), 30, 30);
        let r = nl.region();
        let positions: Vec<Point> = (0..nl.num_instances())
            .map(|i| {
                let t = i as f64 / nl.num_instances() as f64;
                Point::new(r.min.x + t * r.width(), r.center().y + 0.3 * (i % 3) as f64)
            })
            .collect();
        let expected = model.overflow(&nl, &positions);
        assert!(expected > 0.0, "the probe layout overfills some bins");

        // Cold, and warm with the first half pinned (cached bands feed
        // the reduction from the second deposit on).
        let half: Vec<bool> = (0..positions.len())
            .map(|i| i < positions.len() / 2)
            .collect();
        for pinned in [None, Some(&half[..])] {
            let mut ws = model.workspace();
            ws.begin_run(pinned);
            let mut grad = vec![0.0; 2 * positions.len()];
            for _ in 0..2 {
                let _ = model.grad_into_with(&nl, &positions, &mut grad, &mut ws, pinned);
                let scanned = model.scan_overflow(&nl, &ws);
                assert_eq!(
                    scanned.to_bits(),
                    expected.to_bits(),
                    "pinned {}",
                    pinned.is_some()
                );
            }
        }
    }

    #[test]
    fn gradient_pushes_overlapping_instances_apart() {
        let nl = netlist();
        let model = DensityModel::new(nl.region(), 64, 64);
        // Two qubits straddling the center, slightly offset in x. All
        // other instances sit exactly at the midpoint, so their field is
        // symmetric about the pair and only adds to the separation signal.
        let mut pos = vec![Point::ORIGIN; nl.num_instances()];
        let q0 = nl.qubit_instance(0);
        let q1 = nl.qubit_instance(1);
        pos[q0] = Point::new(-0.25, 0.0);
        pos[q1] = Point::new(0.25, 0.0);
        let n = nl.num_instances();
        let (_, grad) = model.energy_grad(&nl, &pos);
        // Descending the gradient must separate the pair: ∂/∂x of the left
        // qubit is positive-energy direction; check signs push apart.
        assert!(
            grad[q0] > 0.0 && grad[q1] < 0.0,
            "gradient does not separate: g0 {} g1 {}",
            grad[q0],
            grad[q1]
        );
        let _ = n;
    }

    #[test]
    fn energy_decreases_when_separating() {
        let nl = netlist();
        let model = DensityModel::new(nl.region(), 64, 64);
        let base = vec![Point::ORIGIN; nl.num_instances()];
        let mut apart = base.clone();
        for (i, p) in apart.iter_mut().enumerate() {
            let r = nl.region();
            p.x = r.min.x + 0.8 + (i % 10) as f64 * (r.width() - 1.6) / 9.0;
            p.y = r.min.y + 0.8 + (i / 10) as f64 * 1.0;
        }
        let e_heap = model.energy_grad(&nl, &base).0;
        let e_apart = model.energy_grad(&nl, &apart).0;
        assert!(e_apart < e_heap, "{e_apart} !< {e_heap}");
    }

    #[test]
    fn auto_grid_is_power_of_two() {
        let nl = netlist();
        let m = DensityModel::for_netlist(&nl);
        let (nx, ny) = m.dims();
        assert!(nx.is_power_of_two() && ny.is_power_of_two());
        assert_eq!(nx, ny);
    }
}
