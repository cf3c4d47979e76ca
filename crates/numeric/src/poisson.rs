//! Spectral Poisson solver on the placement bin grid.
//!
//! Following ePlace (Lu et al.) and DREAMPlace, the density map `ρ` is the
//! charge distribution of an electrostatic system with Neumann boundary
//! conditions; the potential solves `∇²ψ = -ρ`. With the half-sample
//! cosine basis `cos(πu(2i+1)/2Nx)·cos(πv(2j+1)/2Ny)`, the solution is
//! diagonal in DCT space:
//!
//! ```text
//! a_uv = DCT2(ρ),   ψ̂_uv = a_uv / (w_u² + w_v²),   w_u = πu/Nx
//! ψ  = IDCT(ψ̂)
//! ξx = IDXST_x(IDCT_y(ψ̂ · w_u))   (= -∂ψ/∂x, the x-field)
//! ξy = IDCT_x(IDXST_y(ψ̂ · w_v))   (= -∂ψ/∂y, the y-field)
//! ```
//!
//! The DC coefficient is dropped (a neutralized system: forces are relative
//! to the uniform target density).

use crate::plan::{RowOp, SpectralPlan, SpectralScratch};
use crate::Array2;

/// Result of one Poisson solve: potential and field maps on the bin grid.
///
/// Doubles as the caller-owned output workspace of
/// [`PoissonSolver::solve_into`]: allocate once with
/// [`PoissonField::zeros`], then reuse it across solves.
#[derive(Debug, Clone)]
pub struct PoissonField {
    /// Electric potential ψ per bin (energy density contribution).
    pub psi: Array2,
    /// Field component ξx per bin (`-∂ψ/∂x`), in 1/bin units.
    pub ex: Array2,
    /// Field component ξy per bin (`-∂ψ/∂y`), in 1/bin units.
    pub ey: Array2,
}

impl PoissonField {
    /// An all-zero field workspace on an `nx × ny` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(nx: usize, ny: usize) -> Self {
        Self {
            psi: Array2::zeros(nx, ny),
            ex: Array2::zeros(nx, ny),
            ey: Array2::zeros(nx, ny),
        }
    }
}

/// Spectral Poisson solver bound to a fixed `nx × ny` bin grid.
///
/// The solver pre-computes the frequency weights once; [`PoissonSolver::solve`]
/// then costs four 2-D transforms.
///
/// # Examples
///
/// ```
/// use qplacer_numeric::{Array2, PoissonSolver};
/// let solver = PoissonSolver::new(16, 16);
/// let mut rho = Array2::zeros(16, 16);
/// rho[(4, 8)] = 1.0; // a point charge
/// let field = solver.solve(&rho);
/// // Field pushes away from the charge: left of it, ex is negative.
/// assert!(field.ex[(2, 8)] < 0.0);
/// assert!(field.ex[(6, 8)] > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonSolver {
    nx: usize,
    ny: usize,
    wu: Vec<f64>,
    wv: Vec<f64>,
    /// Planned transforms; every grid size is O(N log N) (see
    /// [`crate::FftPlan`] for the per-length kernel selection).
    plan: SpectralPlan,
}

impl PoissonSolver {
    /// Creates a solver for an `nx × ny` grid. Every size runs the
    /// planned O(N log N) transforms; 2/3/5-smooth dimensions (see
    /// [`crate::is_fast_path`]) use the dedicated butterfly kernels,
    /// other sizes the Bluestein chirp-z kernel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid dims must be positive");
        let wu = (0..nx)
            .map(|u| std::f64::consts::PI * u as f64 / nx as f64)
            .collect();
        let wv = (0..ny)
            .map(|v| std::f64::consts::PI * v as f64 / ny as f64)
            .collect();
        let plan = SpectralPlan::new(nx, ny);
        Self {
            nx,
            ny,
            wu,
            wv,
            plan,
        }
    }

    /// Grid dimensions `(nx, ny)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// A transform scratch sized for this solver's grid, for use with
    /// [`PoissonSolver::solve_into`].
    #[must_use]
    pub fn make_scratch(&self) -> SpectralScratch {
        SpectralScratch::new(self.nx, self.ny)
    }

    /// Solves for the potential and field of the density map `rho`.
    ///
    /// Convenience wrapper over [`PoissonSolver::solve_into`] that
    /// allocates a fresh field and scratch per call; iterative callers
    /// should hold both and use `solve_into` directly.
    ///
    /// # Panics
    ///
    /// Panics if `rho`'s shape differs from the solver grid.
    #[must_use]
    pub fn solve(&self, rho: &Array2) -> PoissonField {
        let mut field = PoissonField::zeros(self.nx, self.ny);
        let mut scratch = self.make_scratch();
        self.solve_into(rho, &mut field, &mut scratch);
        field
    }

    /// Solves for the potential and field of `rho`, writing into the
    /// caller-owned `field` workspace.
    ///
    /// This performs **zero heap allocations** on any grid size: the
    /// four 2-D transforms run through the precomputed [`SpectralPlan`]
    /// on the calling thread, 16 rows or columns per butterfly sweep,
    /// with `scratch` holding the lane buffers.
    ///
    /// # Panics
    ///
    /// Panics if `rho`'s shape differs from the solver grid or `scratch`
    /// was built for a smaller grid.
    pub fn solve_into(
        &self,
        rho: &Array2,
        field: &mut PoissonField,
        scratch: &mut SpectralScratch,
    ) {
        self.solve_into_impl(rho, field, scratch, true);
    }

    /// Like [`PoissonSolver::solve_into`], but computes only the field
    /// components (ξx, ξy), skipping the inverse transform that produces
    /// the potential ψ — one of the four 2-D transforms. Use when only
    /// gradients are needed (the placer's steady-state loop). After the
    /// call `field.psi` holds the *spectral* coefficients ψ̂, not ψ.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PoissonSolver::solve_into`].
    pub fn solve_field_into(
        &self,
        rho: &Array2,
        field: &mut PoissonField,
        scratch: &mut SpectralScratch,
    ) {
        self.solve_into_impl(rho, field, scratch, false);
    }

    fn solve_into_impl(
        &self,
        rho: &Array2,
        field: &mut PoissonField,
        scratch: &mut SpectralScratch,
        want_potential: bool,
    ) {
        assert_eq!(rho.nx(), self.nx, "density grid shape mismatch");
        assert_eq!(rho.ny(), self.ny, "density grid shape mismatch");
        assert_eq!(field.psi.nx(), self.nx, "field workspace shape mismatch");
        assert_eq!(field.psi.ny(), self.ny, "field workspace shape mismatch");

        // Forward 2-D DCT-II of ρ, staged in the ψ buffer.
        {
            let _span = qplacer_obs::span!("dct2_2d", grid = self.nx as u64);
            field.psi.data_mut().copy_from_slice(rho.data());
            self.transform(&mut field.psi, scratch, RowOp::Dct2, RowOp::Dct2);
        }

        // Normalization: each dimension's DCT-II/DCT-III roundtrip scales
        // by N/2, so divide by (nx/2)(ny/2).
        let norm = 4.0 / (self.nx as f64 * self.ny as f64);

        // ψ̂ (in place over the forward coefficients) and the two
        // frequency-weighted field spectra.
        let scale = qplacer_obs::span!("spectral_scale");
        for v in 0..self.ny {
            for u in 0..self.nx {
                if u == 0 && v == 0 {
                    // Neutralize DC (workspace reuse: overwrite, not skip).
                    field.psi[(0, 0)] = 0.0;
                    field.ex[(0, 0)] = 0.0;
                    field.ey[(0, 0)] = 0.0;
                    continue;
                }
                let w2 = self.wu[u] * self.wu[u] + self.wv[v] * self.wv[v];
                let coef = field.psi[(u, v)] * norm / w2;
                field.psi[(u, v)] = coef;
                field.ex[(u, v)] = coef * self.wu[u];
                field.ey[(u, v)] = coef * self.wv[v];
            }
        }
        drop(scale);

        // ψ = IDCT_x(IDCT_y(ψ̂))
        if want_potential {
            let _span = qplacer_obs::span!("idct_psi_2d", grid = self.nx as u64);
            self.transform(&mut field.psi, scratch, RowOp::Dct3, RowOp::Dct3);
        }
        // ξx = IDXST along x, IDCT along y.
        {
            let _span = qplacer_obs::span!("idxst_ex_2d", grid = self.nx as u64);
            self.transform(&mut field.ex, scratch, RowOp::Idxst, RowOp::Dct3);
        }
        // ξy = IDCT along x, IDXST along y.
        let _span = qplacer_obs::span!("idxst_ey_2d", grid = self.nx as u64);
        self.transform(&mut field.ey, scratch, RowOp::Dct3, RowOp::Idxst);
    }

    fn transform(
        &self,
        a: &mut Array2,
        scratch: &mut SpectralScratch,
        row_op: RowOp,
        col_op: RowOp,
    ) {
        self.plan.apply_2d(a, scratch, row_op, col_op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Discrete Laplacian of ψ (interior bins, unit spacing).
    fn laplacian(psi: &Array2, ix: usize, iy: usize) -> f64 {
        psi[(ix + 1, iy)] + psi[(ix - 1, iy)] + psi[(ix, iy + 1)] + psi[(ix, iy - 1)]
            - 4.0 * psi[(ix, iy)]
    }

    #[test]
    fn potential_satisfies_poisson_interior() {
        let n = 32;
        let solver = PoissonSolver::new(n, n);
        let mut rho = Array2::zeros(n, n);
        // Smooth blob: the spectral solution matches the 5-point Laplacian
        // to discretization error.
        for iy in 0..n {
            for ix in 0..n {
                let dx = ix as f64 - 16.0;
                let dy = iy as f64 - 12.0;
                rho[(ix, iy)] = (-(dx * dx + dy * dy) / 18.0).exp();
            }
        }
        // Remove DC so the neutralized equation holds exactly.
        let mean = rho.sum() / (n * n) as f64;
        for v in rho.data_mut() {
            *v -= mean;
        }
        let field = solver.solve(&rho);
        let mut max_err: f64 = 0.0;
        for iy in 8..24 {
            for ix in 8..24 {
                let lap = laplacian(&field.psi, ix, iy);
                max_err = max_err.max((lap + rho[(ix, iy)]).abs());
            }
        }
        // Second-order finite-difference error on a smooth field.
        assert!(max_err < 0.05, "max Poisson residual {max_err}");
    }

    #[test]
    fn field_points_away_from_charge() {
        let n = 32;
        let solver = PoissonSolver::new(n, n);
        let mut rho = Array2::zeros(n, n);
        rho[(16, 16)] = 1.0;
        let f = solver.solve(&rho);
        assert!(f.ex[(12, 16)] < 0.0, "left of charge pushes -x");
        assert!(f.ex[(20, 16)] > 0.0, "right of charge pushes +x");
        assert!(f.ey[(16, 12)] < 0.0, "below charge pushes -y");
        assert!(f.ey[(16, 20)] > 0.0, "above charge pushes +y");
    }

    #[test]
    fn field_is_gradient_of_potential() {
        let n = 32;
        let solver = PoissonSolver::new(n, n);
        let mut rho = Array2::zeros(n, n);
        for iy in 0..n {
            for ix in 0..n {
                let dx = ix as f64 - 10.0;
                let dy = iy as f64 - 20.0;
                rho[(ix, iy)] = (-(dx * dx + dy * dy) / 30.0).exp();
            }
        }
        let f = solver.solve(&rho);
        let mut max_err: f64 = 0.0;
        for iy in 4..28 {
            for ix in 4..28 {
                let num_ex = -(f.psi[(ix + 1, iy)] - f.psi[(ix - 1, iy)]) / 2.0;
                let num_ey = -(f.psi[(ix, iy + 1)] - f.psi[(ix, iy - 1)]) / 2.0;
                max_err = max_err.max((num_ex - f.ex[(ix, iy)]).abs());
                max_err = max_err.max((num_ey - f.ey[(ix, iy)]).abs());
            }
        }
        assert!(max_err < 0.05, "field/potential mismatch {max_err}");
    }

    #[test]
    fn uniform_density_gives_zero_field() {
        let solver = PoissonSolver::new(16, 16);
        let mut rho = Array2::zeros(16, 16);
        for v in rho.data_mut() {
            *v = 0.7;
        }
        let f = solver.solve(&rho);
        for iy in 0..16 {
            for ix in 0..16 {
                assert!(f.ex[(ix, iy)].abs() < 1e-9);
                assert!(f.ey[(ix, iy)].abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rectangular_grid_works() {
        // A smooth blob (a point charge rings at this resolution: the
        // spectral derivative of a delta has Gibbs oscillations, which the
        // bin-smoothed densities of real placements never exhibit).
        let solver = PoissonSolver::new(32, 16);
        let mut rho = Array2::zeros(32, 16);
        for iy in 0..16 {
            for ix in 0..32 {
                let dx = ix as f64 - 12.0;
                let dy = iy as f64 - 8.0;
                rho[(ix, iy)] = (-(dx * dx + dy * dy) / 8.0).exp();
            }
        }
        let f = solver.solve(&rho);
        assert!(
            f.ex[(6, 8)] < 0.0,
            "left of blob pushes -x: {}",
            f.ex[(6, 8)]
        );
        assert!(
            f.ex[(18, 8)] > 0.0,
            "right of blob pushes +x: {}",
            f.ex[(18, 8)]
        );
        assert!(
            f.ey[(12, 4)] < 0.0,
            "below blob pushes -y: {}",
            f.ey[(12, 4)]
        );
        assert!(
            f.ey[(12, 12)] > 0.0,
            "above blob pushes +y: {}",
            f.ey[(12, 12)]
        );
    }
}
