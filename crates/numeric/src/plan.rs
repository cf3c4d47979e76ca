//! Planned, allocation-free transforms.
//!
//! The global placer runs four 2-D spectral transforms per Poisson solve,
//! hundreds of solves per placement. The free-function API
//! ([`crate::dct2`] & friends) allocates output vectors and recomputes
//! twiddle factors on every call; this module is the planned counterpart
//! used on the hot path:
//!
//! * [`FftPlan`] — a per-length plan. Power-of-two lengths use the
//!   iterative radix-2 kernel; 2/3/5-smooth lengths use a mixed-radix
//!   Stockham autosort kernel; every remaining length uses a Bluestein
//!   chirp-z kernel over an embedded power-of-two FFT. All three are
//!   O(n log n). The `*_inplace` row kernels write into the caller's
//!   buffer using caller-provided complex scratch (sized by
//!   [`FftPlan::scratch_len`]), performing **zero heap allocations**.
//! * [`SpectralPlan`] — a 2-D separable-transform plan over an
//!   `nx × ny` grid. Row passes run in parallel on the rayon pool
//!   installed by the caller (one scratch slot per worker, pre-sized in
//!   [`SpectralScratch`]); under a 1-thread pool the pass is sequential.
//!   Either way it is allocation-free.
//! * [`fft_plan`] — a process-wide plan cache so the legacy free
//!   functions also stop recomputing twiddles per call.
//!
//! Row kernels are computed independently per row, so results are
//! bit-identical for any worker count.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rayon::prelude::*;

use crate::{Array2, Complex64};

/// `true` when length-`n` transforms run on a dedicated butterfly kernel
/// (`n` is 2/3/5-smooth, powers of two included). Other positive lengths
/// still run in O(n log n) via the Bluestein chirp-z kernel, but pay a
/// constant-factor overhead (an embedded FFT of roughly `4n`); placement
/// bin grids should prefer smooth sizes (see [`next_smooth`]).
#[must_use]
pub fn is_fast_path(n: usize) -> bool {
    if n == 0 {
        return false;
    }
    let mut m = n;
    for f in [2usize, 3, 5] {
        while m.is_multiple_of(f) {
            m /= f;
        }
    }
    m == 1
}

/// The smallest 2/3/5-smooth length `≥ n` (and `≥ 1`), i.e. the nearest
/// grid size at or above `n` that [`is_fast_path`] accepts. Used to round
/// coarse-level placement grids up to a butterfly-friendly size.
#[must_use]
pub fn next_smooth(n: usize) -> usize {
    let mut m = n.max(1);
    while !is_fast_path(m) {
        m += 1;
    }
    m
}

/// Complex scratch length (in elements) that length-`n` transforms
/// require: `n` for power-of-two lengths, `2n` for other smooth lengths
/// (signal + ping-pong buffer), and `n` plus the embedded
/// power-of-two convolution length for Bluestein lengths. Matches
/// [`FftPlan::scratch_len`] without building the plan.
#[must_use]
pub fn transform_scratch_len(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    if n.is_power_of_two() {
        n
    } else if is_fast_path(n) {
        2 * n
    } else {
        n + (2 * n - 1).next_power_of_two()
    }
}

/// Which 1-D transform a row pass applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOp {
    /// Forward DCT-II.
    Dct2,
    /// DCT-III (inverse of DCT-II up to `N/2`).
    Dct3,
    /// Half-sample inverse sine transform.
    Idxst,
}

/// The iterative radix-2 Cooley–Tukey kernel (bit-reversal permutation +
/// in-place butterflies), used directly for power-of-two lengths and as
/// the convolution engine inside the Bluestein kernel.
#[derive(Debug, Clone)]
struct Radix2 {
    n: usize,
    /// Bit-reversal permutation of `0..n`.
    rev: Vec<u32>,
    /// Forward twiddles `e^{-2πi k/n}` for `k < n/2`; the stage with
    /// butterfly span `len` indexes this with stride `n/len`.
    twiddle: Vec<Complex64>,
}

impl Radix2 {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| {
                if n == 1 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        let twiddle = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        Self { n, rev, twiddle }
    }

    /// Unnormalized transform: the raw (conjugate-)exponent sum.
    fn fft_raw(&self, data: &mut [Complex64], inverse: bool) {
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        let n = self.n;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for chunk in data.chunks_exact_mut(len) {
                for i in 0..half {
                    let w = self.twiddle[i * stride];
                    let w = if inverse { w.conj() } else { w };
                    let u = chunk[i];
                    let v = chunk[i + half] * w;
                    chunk[i] = u + v;
                    chunk[i + half] = u - v;
                }
            }
            len <<= 1;
        }
    }
}

/// One Stockham stage of the mixed-radix kernel: splits the current
/// sub-transform length `radix·m` at stride `s`.
#[derive(Debug, Clone)]
struct Stage {
    radix: usize,
    m: usize,
    s: usize,
    /// `twiddle[p·radix + j] = e^{-2πi·p·j/(radix·m)}` for `p < m`,
    /// `j < radix`.
    twiddle: Vec<Complex64>,
    /// The radix-point DFT roots `e^{-2πi·t/radix}` for `t < radix`.
    roots: Vec<Complex64>,
}

/// Largest butterfly radix the mixed-radix kernel emits.
const MAX_RADIX: usize = 5;

fn mixed_stages(n: usize) -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut n_cur = n;
    let mut s = 1usize;
    while n_cur > 1 {
        let radix = if n_cur.is_multiple_of(5) {
            5
        } else if n_cur.is_multiple_of(3) {
            3
        } else {
            2
        };
        let m = n_cur / radix;
        let twiddle = (0..m)
            .flat_map(|p| {
                (0..radix).map(move |j| {
                    Complex64::cis(-2.0 * std::f64::consts::PI * (p * j) as f64 / n_cur as f64)
                })
            })
            .collect();
        let roots = (0..radix)
            .map(|t| Complex64::cis(-2.0 * std::f64::consts::PI * t as f64 / radix as f64))
            .collect();
        stages.push(Stage {
            radix,
            m,
            s,
            twiddle,
            roots,
        });
        n_cur = m;
        s *= radix;
    }
    stages
}

/// Stockham autosort pass over all stages. `work` must hold `n`
/// elements; the result always ends in `data` (an odd stage count copies
/// back from the ping-pong buffer).
fn mixed_fft_raw(
    stages: &[Stage],
    n: usize,
    data: &mut [Complex64],
    work: &mut [Complex64],
    inverse: bool,
) {
    let work = &mut work[..n];
    let mut src: &mut [Complex64] = data;
    let mut dst: &mut [Complex64] = work;
    for stage in stages {
        let r = stage.radix;
        let m = stage.m;
        let s = stage.s;
        let mut a = [Complex64::ZERO; MAX_RADIX];
        for p in 0..m {
            for q in 0..s {
                for (c, slot) in a.iter_mut().enumerate().take(r) {
                    *slot = src[q + s * (p + c * m)];
                }
                if r == 2 {
                    // Exact ±1 butterfly, no root rounding.
                    let tw = stage.twiddle[2 * p + 1];
                    let tw = if inverse { tw.conj() } else { tw };
                    dst[q + s * (2 * p)] = a[0] + a[1];
                    dst[q + s * (2 * p + 1)] = (a[0] - a[1]) * tw;
                } else {
                    for j in 0..r {
                        let mut acc = a[0];
                        for (c, &v) in a.iter().enumerate().take(r).skip(1) {
                            let root = stage.roots[(c * j) % r];
                            let root = if inverse { root.conj() } else { root };
                            acc += v * root;
                        }
                        let tw = stage.twiddle[p * r + j];
                        let tw = if inverse { tw.conj() } else { tw };
                        dst[q + s * (r * p + j)] = acc * tw;
                    }
                }
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    if stages.len() % 2 == 1 {
        // `src` (the last-written buffer) is the ping-pong work area.
        dst.copy_from_slice(src);
    }
}

/// The per-length transform kernel behind an [`FftPlan`].
#[derive(Debug, Clone)]
enum Kernel {
    /// Power-of-two lengths: classic in-place radix-2, no work buffer.
    Radix2(Radix2),
    /// 2/3/5-smooth lengths: Stockham autosort, `n`-element work buffer.
    MixedRadix(Vec<Stage>),
    /// Everything else: Bluestein chirp-z over an embedded power-of-two
    /// circular convolution of length `inner.n ≥ 2n−1`.
    Bluestein {
        inner: Radix2,
        /// Chirp `w_t = e^{-iπ t²/n}` (with `t²` reduced mod `2n` so the
        /// angle stays in range at large `t`).
        w: Vec<Complex64>,
        /// FFT of the circularly extended conjugate chirp.
        b_fft: Vec<Complex64>,
    },
}

fn bluestein_kernel(n: usize) -> Kernel {
    let m = (2 * n - 1).next_power_of_two();
    let inner = Radix2::new(m);
    let w: Vec<Complex64> = (0..n)
        .map(|t| Complex64::cis(-std::f64::consts::PI * ((t * t) % (2 * n)) as f64 / n as f64))
        .collect();
    let mut b = vec![Complex64::ZERO; m];
    b[0] = w[0].conj();
    for t in 1..n {
        b[t] = w[t].conj();
        b[m - t] = w[t].conj();
    }
    inner.fft_raw(&mut b, false);
    Kernel::Bluestein { inner, w, b_fft: b }
}

/// Forward Bluestein: `X_k = w_k · (x·w ⊛ conj(w))[k]`, with the linear
/// convolution evaluated circularly at length `inner.n`.
fn bluestein_forward(
    inner: &Radix2,
    w: &[Complex64],
    b_fft: &[Complex64],
    data: &mut [Complex64],
    work: &mut [Complex64],
) {
    let n = data.len();
    let m = inner.n;
    let work = &mut work[..m];
    for t in 0..n {
        work[t] = data[t] * w[t];
    }
    for slot in work[n..].iter_mut() {
        *slot = Complex64::ZERO;
    }
    inner.fft_raw(work, false);
    for (v, &b) in work.iter_mut().zip(b_fft) {
        *v *= b;
    }
    inner.fft_raw(work, true);
    // The circular convolution needs the normalized inverse; fold the
    // 1/m into the final chirp multiply.
    let scale = 1.0 / m as f64;
    for (out, (&conv, &wk)) in data.iter_mut().zip(work.iter().zip(w)) {
        *out = (conv * wk).scale(scale);
    }
}

/// A reusable FFT/DCT plan for one length.
///
/// Construction precomputes everything the transforms need; the kernels
/// themselves never allocate and never call `sin`/`cos`. Power-of-two
/// lengths use the in-place radix-2 kernel, other 2/3/5-smooth lengths a
/// mixed-radix Stockham kernel, and remaining lengths the Bluestein
/// chirp-z kernel — all O(n log n).
///
/// # Examples
///
/// ```
/// use qplacer_numeric::{naive_dct2, Complex64, FftPlan};
/// for n in [8usize, 12, 7] {
///     let plan = FftPlan::new(n);
///     let mut row: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
///     let expected = naive_dct2(&row);
///     let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
///     plan.dct2_inplace(&mut row, &mut scratch);
///     for (a, b) in row.iter().zip(&expected) {
///         assert!((a - b).abs() < 1e-9);
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    kernel: Kernel,
    /// DCT-II post-phases `e^{-iπk/2n}`.
    phase2: Vec<Complex64>,
    /// DCT-III pre-phases `½·e^{iπk/2n}`.
    phase3: Vec<Complex64>,
}

impl FftPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let kernel = if n.is_power_of_two() {
            Kernel::Radix2(Radix2::new(n))
        } else if is_fast_path(n) {
            Kernel::MixedRadix(mixed_stages(n))
        } else {
            bluestein_kernel(n)
        };
        let phase2 = (0..n)
            .map(|k| Complex64::cis(-std::f64::consts::PI * k as f64 / (2.0 * n as f64)))
            .collect();
        let phase3 = (0..n)
            .map(|k| Complex64::cis(std::f64::consts::PI * k as f64 / (2.0 * n as f64)).scale(0.5))
            .collect();
        Self {
            n,
            kernel,
            phase2,
            phase3,
        }
    }

    /// The planned transform length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` only for the degenerate length-0 plan, which cannot exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Complex scratch (in elements) the row kernels need: the length-`n`
    /// signal buffer plus this kernel's work area (none for radix-2, `n`
    /// for mixed-radix ping-pong, the embedded convolution length for
    /// Bluestein). Equals [`transform_scratch_len`]`(self.len())`.
    #[must_use]
    pub fn scratch_len(&self) -> usize {
        self.n + self.work_len()
    }

    /// Work-buffer elements the complex FFT kernel needs beyond the
    /// signal itself.
    fn work_len(&self) -> usize {
        match &self.kernel {
            Kernel::Radix2(_) => 0,
            Kernel::MixedRadix(_) => self.n,
            Kernel::Bluestein { inner, .. } => inner.n,
        }
    }

    /// Core dispatch. `work` must hold at least [`FftPlan::work_len`]
    /// elements; `normalize` divides an inverse transform by `n`.
    fn fft_with(
        &self,
        data: &mut [Complex64],
        work: &mut [Complex64],
        inverse: bool,
        normalize: bool,
    ) {
        debug_assert_eq!(data.len(), self.n);
        match &self.kernel {
            Kernel::Radix2(r2) => r2.fft_raw(data, inverse),
            Kernel::MixedRadix(stages) => mixed_fft_raw(stages, self.n, data, work, inverse),
            Kernel::Bluestein { inner, w, b_fft } => {
                if inverse {
                    // Inverse DFT via the conjugation identity:
                    // idft(x) = conj(dft(conj(x))) / n (scaling applied
                    // below only when `normalize` is set).
                    for v in data.iter_mut() {
                        *v = v.conj();
                    }
                    bluestein_forward(inner, w, b_fft, data, work);
                    for v in data.iter_mut() {
                        *v = v.conj();
                    }
                } else {
                    bluestein_forward(inner, w, b_fft, data, work);
                }
            }
        }
        if inverse && normalize {
            let scale = 1.0 / self.n as f64;
            for v in data.iter_mut() {
                *v = v.scale(scale);
            }
        }
    }

    /// In-place forward FFT.
    ///
    /// For power-of-two lengths this is allocation-free; other lengths
    /// allocate the kernel's work buffer internally (hot paths should use
    /// the `*_inplace` row kernels, which take caller scratch).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn fft_inplace(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        let mut work = vec![Complex64::ZERO; self.work_len()];
        self.fft_with(data, &mut work, false, false);
    }

    /// In-place inverse FFT normalized by `1/N` (`ifft(fft(x)) == x`).
    ///
    /// Allocation behavior matches [`FftPlan::fft_inplace`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn ifft_inplace(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        let mut work = vec![Complex64::ZERO; self.work_len()];
        self.fft_with(data, &mut work, true, true);
    }

    /// In-place DCT-II of `row` (unnormalized, matches [`crate::dct2`]).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.len()` or `scratch` is shorter than
    /// [`FftPlan::scratch_len`].
    pub fn dct2_inplace(&self, row: &mut [f64], scratch: &mut [Complex64]) {
        let n = self.n;
        assert_eq!(row.len(), n, "row length mismatch");
        if n == 1 {
            return; // DCT-II of a single sample is the sample itself.
        }
        let (signal, work) = scratch[..self.scratch_len()].split_at_mut(n);
        // Makhoul even-odd permutation into the complex buffer (valid for
        // any length: the odd tail is reversed into the upper half).
        for i in 0..n.div_ceil(2) {
            signal[i] = Complex64::new(row[2 * i], 0.0);
        }
        for i in 0..n / 2 {
            signal[n - 1 - i] = Complex64::new(row[2 * i + 1], 0.0);
        }
        self.fft_with(signal, work, false, false);
        for (k, out) in row.iter_mut().enumerate() {
            *out = (signal[k] * self.phase2[k]).re;
        }
    }

    /// In-place DCT-III of `row` (unnormalized, matches [`crate::dct3`]).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches as in [`FftPlan::dct2_inplace`].
    pub fn dct3_inplace(&self, row: &mut [f64], scratch: &mut [Complex64]) {
        let n = self.n;
        assert_eq!(row.len(), n, "row length mismatch");
        if n == 1 {
            row[0] *= 0.5;
            return;
        }
        let (signal, work) = scratch[..self.scratch_len()].split_at_mut(n);
        // V_k = ½·e^{iπk/2N}·(y_k − i·y_{N−k}), y_N := 0.
        signal[0] = Complex64::new(row[0], 0.0) * self.phase3[0];
        for k in 1..n {
            signal[k] = Complex64::new(row[k], -row[n - k]) * self.phase3[k];
        }
        // The unnormalized DCT-III needs the raw conjugate sum: the usual
        // 1/N of the inverse FFT and the ×N un-normalization cancel
        // exactly for every kernel.
        self.fft_with(signal, work, true, false);
        for i in 0..n / 2 {
            row[2 * i] = signal[i].re;
            row[2 * i + 1] = signal[n - 1 - i].re;
        }
        if n % 2 == 1 {
            // Odd lengths have one extra even output position, n−1.
            row[n - 1] = signal[n / 2].re;
        }
    }

    /// In-place IDXST of `row` (matches [`crate::idxst`]; `row[0]` is
    /// ignored as the zero sine frequency).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches as in [`FftPlan::dct2_inplace`].
    pub fn idxst_inplace(&self, row: &mut [f64], scratch: &mut [Complex64]) {
        let n = self.n;
        assert_eq!(row.len(), n, "row length mismatch");
        if n == 1 {
            row[0] = 0.0;
            return;
        }
        let (signal, work) = scratch[..self.scratch_len()].split_at_mut(n);
        // s = (−1)^n-signed DCT-III of c with c_0 = 0, c_j = b_{N−j};
        // substituting c into the DCT-III factorization gives
        // V_k = ½·e^{iπk/2N}·(b_{N−k} − i·b_k) with V_0 = 0.
        signal[0] = Complex64::ZERO;
        for k in 1..n {
            signal[k] = Complex64::new(row[n - k], -row[k]) * self.phase3[k];
        }
        self.fft_with(signal, work, true, false);
        for i in 0..n / 2 {
            row[2 * i] = signal[i].re;
            row[2 * i + 1] = -signal[n - 1 - i].re;
        }
        if n % 2 == 1 {
            // Position n−1 is even for odd n, so no sign flip.
            row[n - 1] = signal[n / 2].re;
        }
    }

    /// Dispatches one row kernel.
    pub fn apply_row(&self, op: RowOp, row: &mut [f64], scratch: &mut [Complex64]) {
        match op {
            RowOp::Dct2 => self.dct2_inplace(row, scratch),
            RowOp::Dct3 => self.dct3_inplace(row, scratch),
            RowOp::Idxst => self.idxst_inplace(row, scratch),
        }
    }
}

/// Returns the process-wide cached plan for length `n`, building it on
/// first use. Cached plans make the legacy free-function transforms
/// ([`crate::dct2`], [`crate::fft`], …) reuse twiddle/permutation tables
/// across calls.
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn fft_plan(n: usize) -> Arc<FftPlan> {
    // Validate before taking the lock so a bad length can never poison
    // the cache for other threads.
    assert!(n > 0, "FFT length must be positive");
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<FftPlan>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(map.entry(n).or_insert_with(|| Arc::new(FftPlan::new(n))))
}

/// Caller-owned scratch for a [`SpectralPlan`]: a transpose buffer plus
/// one complex row buffer per worker slot. Building one costs two
/// allocations; reusing it across solves costs none.
#[derive(Debug, Clone)]
pub struct SpectralScratch {
    /// Transposed copy of the grid during column passes.
    transpose: Vec<f64>,
    /// `slots` contiguous complex row buffers of `slot_len` each.
    complex: Vec<Complex64>,
    slot_len: usize,
}

impl SpectralScratch {
    /// Scratch for an `nx × ny` grid, sized for every core the host can
    /// offer and never fewer than four slots (so modestly oversized
    /// pools — and the threaded code path on single-core CI — still get
    /// one slot per worker; wider pools are clamped to the slot count).
    /// Each slot holds [`transform_scratch_len`] elements for the larger
    /// dimension, so non-power-of-two grids get their kernel work area.
    #[must_use]
    pub fn new(nx: usize, ny: usize) -> Self {
        let slot_len = transform_scratch_len(nx)
            .max(transform_scratch_len(ny))
            .max(1);
        let slots = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .max(4);
        Self {
            transpose: vec![0.0; nx * ny],
            complex: vec![Complex64::ZERO; slots * slot_len],
            slot_len,
        }
    }
}

/// A 2-D separable-transform plan over an `nx × ny` grid, running row
/// passes in parallel across the current rayon pool width. Any positive
/// dimensions work; 2/3/5-smooth sizes run on the butterfly kernels (see
/// [`is_fast_path`]).
///
/// Transforms are applied as `rows(x-plan) → transpose → rows(y-plan) →
/// transpose back`, so both passes stream over contiguous memory. Each
/// row is computed independently with a per-worker scratch slot, making
/// results bit-identical for any thread count.
///
/// # Examples
///
/// ```
/// use qplacer_numeric::{dct2, Array2, RowOp, SpectralPlan, SpectralScratch};
/// let plan = SpectralPlan::new(8, 4);
/// let mut scratch = SpectralScratch::new(8, 4);
/// let mut a = Array2::zeros(8, 4);
/// a[(3, 1)] = 1.0;
/// let mut b = a.clone();
/// plan.apply_2d(&mut a, &mut scratch, RowOp::Dct2, RowOp::Dct2);
/// b.map_rows(dct2);
/// b.map_cols(dct2);
/// for (x, y) in a.data().iter().zip(b.data()) {
///     assert!((x - y).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SpectralPlan {
    nx: usize,
    ny: usize,
    plan_x: Arc<FftPlan>,
    plan_y: Arc<FftPlan>,
}

impl SpectralPlan {
    /// Builds the 2-D plan.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(nx: usize, ny: usize) -> Self {
        Self {
            nx,
            ny,
            plan_x: fft_plan(nx),
            plan_y: fft_plan(ny),
        }
    }

    /// Grid dimensions `(nx, ny)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Applies `row_op` along x and `col_op` along y, in place.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s shape differs from the plan or `scratch` was built
    /// for a smaller grid.
    pub fn apply_2d(
        &self,
        a: &mut Array2,
        scratch: &mut SpectralScratch,
        row_op: RowOp,
        col_op: RowOp,
    ) {
        assert_eq!(a.nx(), self.nx, "grid shape mismatch");
        assert_eq!(a.ny(), self.ny, "grid shape mismatch");
        assert!(
            scratch.transpose.len() >= self.nx * self.ny
                && scratch.slot_len >= self.plan_x.scratch_len().max(self.plan_y.scratch_len()),
            "scratch too small for {}x{} grid",
            self.nx,
            self.ny
        );
        let SpectralScratch {
            transpose,
            complex,
            slot_len,
        } = scratch;
        let data = a.data_mut();
        par_rows(&self.plan_x, data, complex, *slot_len, row_op);
        transpose_into(data, transpose, self.nx, self.ny);
        par_rows(
            &self.plan_y,
            &mut transpose[..self.nx * self.ny],
            complex,
            *slot_len,
            col_op,
        );
        transpose_into(&transpose[..self.nx * self.ny], data, self.ny, self.nx);
    }
}

/// `dst[x*ny + y] = src[y*nx + x]` — row-major transpose of an `nx × ny`
/// grid (row length `nx`) into its `ny × nx` counterpart.
fn transpose_into(src: &[f64], dst: &mut [f64], nx: usize, ny: usize) {
    for y in 0..ny {
        let row = &src[y * nx..(y + 1) * nx];
        for (x, &v) in row.iter().enumerate() {
            dst[x * ny + y] = v;
        }
    }
}

/// Applies `op` to every contiguous length-`n` row of `data`, one band
/// of rows per worker of the current rayon pool (at most one per scratch
/// slot), each band with its own slot. With an effective width of 1 the
/// pass is one band run inline; at any width it performs no allocation.
///
/// Inside a pool worker the depth-1 nesting contract reports a width of
/// 1, so harness jobs running under an installed pool take the inline
/// path here and never oversubscribe the machine.
fn par_rows(
    plan: &FftPlan,
    data: &mut [f64],
    complex: &mut [Complex64],
    slot_len: usize,
    op: RowOp,
) {
    let n = plan.len();
    let rows = data.len() / n;
    let slots = complex.len() / slot_len;
    let threads = rayon::current_num_threads().min(rows).min(slots).max(1);
    let band = (rows.div_ceil(threads) * n).max(1);
    data.par_chunks_mut(band)
        .zip(complex.par_chunks_mut(slot_len))
        .for_each(|(band_data, slot)| {
            for row in band_data.chunks_exact_mut(n) {
                plan.apply_row(op, row, slot);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dct2, dct3, idxst, naive_dct2, naive_dct3, naive_idxst};

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + (i as f64 * 0.11).cos() - 0.3)
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn planned_rows_match_naive_references() {
        // Power-of-two, mixed-radix (incl. odd), and Bluestein lengths.
        for &n in &[
            1usize, 2, 3, 4, 5, 7, 8, 12, 15, 27, 32, 100, 127, 128, 250, 256,
        ] {
            let plan = FftPlan::new(n);
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            let x = signal(n);
            // The naive sums accumulate O(n) rounding; scale accordingly.
            let tol = 1e-11 * (1.0 + n as f64);

            let mut row = x.clone();
            plan.dct2_inplace(&mut row, &mut scratch);
            assert_close(&row, &naive_dct2(&x), tol);

            let mut row = x.clone();
            plan.dct3_inplace(&mut row, &mut scratch);
            assert_close(&row, &naive_dct3(&x), tol);

            let mut row = x.clone();
            plan.idxst_inplace(&mut row, &mut scratch);
            assert_close(&row, &naive_idxst(&x), tol);
        }
    }

    #[test]
    fn planned_rows_match_free_functions_exactly() {
        // The free functions route through the same cached plans, so the
        // outputs must agree bit for bit — including non-power-of-two
        // lengths on the mixed-radix and Bluestein kernels.
        for &n in &[2usize, 16, 64, 12, 100, 127] {
            let plan = fft_plan(n);
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            let x = signal(n);
            for (op, reference) in [
                (RowOp::Dct2, dct2(&x)),
                (RowOp::Dct3, dct3(&x)),
                (RowOp::Idxst, idxst(&x)),
            ] {
                let mut row = x.clone();
                plan.apply_row(op, &mut row, &mut scratch);
                assert_eq!(row, reference, "{op:?} n={n}");
            }
        }
    }

    #[test]
    fn complex_fft_round_trips_on_every_kernel() {
        for &n in &[2usize, 8, 12, 45, 100, 127, 251] {
            let plan = FftPlan::new(n);
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
                .collect();
            let mut y = x.clone();
            plan.fft_inplace(&mut y);
            plan.ifft_inplace(&mut y);
            for (a, b) in y.iter().zip(&x) {
                assert!(
                    (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                    "n={n}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn spectral_plan_matches_map_rows_cols() {
        // One smooth non-power-of-two dimension exercises the mixed-radix
        // kernel through the full 2-D pass.
        for (nx, ny) in [(16usize, 8usize), (12, 8), (16, 10)] {
            let plan = SpectralPlan::new(nx, ny);
            let mut scratch = SpectralScratch::new(nx, ny);
            let mut a = Array2::zeros(nx, ny);
            for iy in 0..ny {
                for ix in 0..nx {
                    a[(ix, iy)] = ((ix * 5 + iy * 3) % 11) as f64 - 4.0;
                }
            }
            for (row_op, col_op, rf, cf) in [
                (
                    RowOp::Dct2,
                    RowOp::Dct2,
                    dct2 as fn(&[f64]) -> Vec<f64>,
                    dct2 as fn(&[f64]) -> Vec<f64>,
                ),
                (RowOp::Dct3, RowOp::Dct3, dct3, dct3),
                (RowOp::Idxst, RowOp::Dct3, idxst, dct3),
                (RowOp::Dct3, RowOp::Idxst, dct3, idxst),
            ] {
                let mut fast = a.clone();
                plan.apply_2d(&mut fast, &mut scratch, row_op, col_op);
                let mut slow = a.clone();
                slow.map_rows(rf);
                slow.map_cols(cf);
                assert_close(fast.data(), slow.data(), 1e-9);
            }
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        for (nx, ny) in [(32usize, 32usize), (24, 20)] {
            let plan = SpectralPlan::new(nx, ny);
            let mut a = Array2::zeros(nx, ny);
            for iy in 0..ny {
                for ix in 0..nx {
                    a[(ix, iy)] = ((ix * 7 + iy) % 13) as f64 * 0.25;
                }
            }
            let run = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut scratch = SpectralScratch::new(nx, ny);
                let mut grid = a.clone();
                pool.install(|| plan.apply_2d(&mut grid, &mut scratch, RowOp::Dct2, RowOp::Dct2));
                grid
            };
            assert_eq!(run(1), run(4));
        }
    }

    #[test]
    fn fast_path_predicate() {
        assert!(is_fast_path(1));
        assert!(is_fast_path(256));
        assert!(is_fast_path(12));
        assert!(is_fast_path(100));
        assert!(is_fast_path(96));
        assert!(!is_fast_path(0));
        assert!(!is_fast_path(7));
        assert!(!is_fast_path(127));
        assert!(!is_fast_path(14)); // 2·7
    }

    #[test]
    fn next_smooth_rounds_up() {
        assert_eq!(next_smooth(0), 1);
        assert_eq!(next_smooth(1), 1);
        assert_eq!(next_smooth(7), 8);
        assert_eq!(next_smooth(96), 96);
        assert_eq!(next_smooth(97), 100);
        assert_eq!(next_smooth(127), 128);
        assert_eq!(next_smooth(161), 162); // 2·3⁴
    }

    #[test]
    fn scratch_len_matches_kernel() {
        assert_eq!(transform_scratch_len(0), 0);
        assert_eq!(transform_scratch_len(64), 64);
        assert_eq!(transform_scratch_len(12), 24);
        // Bluestein: n + next_pow2(2n−1).
        assert_eq!(transform_scratch_len(127), 127 + 256);
        for &n in &[1usize, 8, 12, 100, 127] {
            assert_eq!(FftPlan::new(n).scratch_len(), transform_scratch_len(n));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_plan_panics() {
        let _ = FftPlan::new(0);
    }
}
