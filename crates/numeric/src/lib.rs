//! Numerical kernels for the electrostatic placement engine.
//!
//! QPlacer's density model follows ePlace/DREAMPlace: the instance density
//! map is treated as a charge distribution, Poisson's equation is solved
//! spectrally with discrete cosine transforms, and the resulting field
//! drives instances apart. This crate supplies those kernels from scratch:
//!
//! * [`Complex64`] and a radix-2 [`fft`] / [`ifft`] pair.
//! * Fast [`dct2`] (DCT-II), [`dct3`] (DCT-III) and [`idxst`] (the
//!   half-sample inverse sine transform DREAMPlace uses for field
//!   computation), all FFT-backed with O(n log n) cost.
//! * [`Array2`] — a dense row-major 2-D array with separable transform
//!   helpers.
//! * [`PoissonSolver`] — density → potential ψ and field (ξx, ξy).
//! * [`NesterovSolver`] — accelerated gradient descent with
//!   Barzilai–Borwein step estimation, the paper's placement optimizer.
//! * Small statistics helpers ([`mean`], [`geo_mean`]) used by the metrics
//!   and benchmark reports.
//!
//! # Plans and workspaces (the hot path)
//!
//! The free-function transforms allocate per call; the placement loop
//! instead uses the *planned* API, mirroring FFTW/DREAMPlace:
//!
//! 1. Build an [`FftPlan`] (per length) or a 2-D [`SpectralPlan`] once —
//!    this precomputes bit-reversal tables, twiddle factors, and DCT
//!    phase tables.
//! 2. Allocate the matching workspaces once: a [`SpectralScratch`] (the
//!    real and complex lane buffers of one 16-row block) and, for
//!    Poisson solves, a [`PoissonField`] via [`PoissonField::zeros`].
//! 3. Call the `*_inplace` row kernels / [`SpectralPlan::apply_2d`] /
//!    [`PoissonSolver::solve_into`] in the loop: the kernel code itself
//!    performs **zero heap allocations** on any grid size. A 2-D pass
//!    runs on the calling thread and transforms 16 rows (or columns) per
//!    butterfly sweep, one lane each. Every lane does exactly the
//!    arithmetic of the one-row kernel, so the result is bit-identical
//!    to transforming the rows one at a time, and no pool width enters.
//!
//! Every positive length is planned in O(n log n): power-of-two lengths
//! on the radix-2 kernel, other 2/3/5-smooth lengths on the mixed-radix
//! Stockham kernel, and the rest on the Bluestein chirp-z kernel.
//! [`is_fast_path`] reports whether a length lands on a dedicated
//! butterfly kernel (smooth) or pays the Bluestein constant factor, and
//! [`next_smooth`] rounds a grid size up to the nearest smooth length.
//!
//! # Examples
//!
//! ```
//! use qplacer_numeric::{dct2, dct3};
//! let x = vec![1.0, 2.0, 3.0, 4.0];
//! let back: Vec<f64> = dct3(&dct2(&x))
//!     .iter()
//!     .map(|v| v * 2.0 / x.len() as f64)
//!     .collect();
//! for (a, b) in x.iter().zip(&back) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array2;
mod complex;
mod fft;
mod nesterov;
mod plan;
mod poisson;
mod stats;
mod transforms;

pub use array2::Array2;
pub use complex::Complex64;
pub use fft::{fft, ifft};
pub use nesterov::{NesterovSolver, SolverState};
pub use plan::{
    fft_plan, is_fast_path, next_smooth, transform_scratch_len, FftPlan, RowOp, SpectralPlan,
    SpectralScratch,
};
pub use poisson::{PoissonField, PoissonSolver};
pub use stats::{geo_mean, mean, pearson, std_dev};
pub use transforms::{dct2, dct3, idxst, naive_dct2, naive_dct3, naive_idxst};
