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
//!   `nx × ny` grid. Each pass transforms 16 rows (or columns) at once
//!   as one structure-of-arrays butterfly sweep on the calling thread,
//!   with the lane buffers in a caller-owned [`SpectralScratch`]. It is
//!   allocation-free.
//! * [`fft_plan`] — a process-wide plan cache so the legacy free
//!   functions also stop recomputing twiddles per call.
//!
//! Every kernel has one butterfly implementation, generic over the
//! number of transforms it runs side by side: one (`Complex64`) for the
//! row API, [`LANES`] for the 2-D passes. Each lane performs exactly the
//! IEEE operations of the one-row kernel, in the same order, so a 2-D
//! pass gives the same bits as transforming its rows one by one.

use std::collections::HashMap;
use std::ops::{Add, Sub};
use std::sync::{Arc, Mutex, OnceLock};

use crate::{Array2, Complex64};

/// Rows (or columns) one 2-D pass transforms together. A 128-point
/// block then fills 32 KiB of complex lanes. On a 2-core Xeon with a
/// 48 KiB L1d, 16 lanes beat 8 end to end on Eagle's 128² grid and lost
/// to 8 on the 180² heavy-hex d10 grid; 32 lanes were slower than both.
const LANES: usize = 16;

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

/// Complex values of a batch of independent transforms, one per lane.
/// [`Complex64`] is the one-lane batch and [`Lanes`] the [`LANES`]-lane
/// one. Every operation performs, in each lane, exactly the IEEE
/// operations of the [`Complex64`] operation of the same name.
trait Lane: Copy + Add<Output = Self> + Sub<Output = Self> {
    /// One real value per lane.
    type Real: Copy;
    /// Zero in every lane.
    const ZERO: Self;
    /// Real zero in every lane.
    const REAL_ZERO: Self::Real;
    fn new(re: Self::Real, im: Self::Real) -> Self;
    fn re(self) -> Self::Real;
    fn neg(x: Self::Real) -> Self::Real;
    fn conj(self) -> Self;
    fn scale(self, s: f64) -> Self;
    /// `self · w` with `w` the same in every lane.
    fn times(self, w: Complex64) -> Self;
}

impl Lane for Complex64 {
    type Real = f64;
    const ZERO: Self = Complex64::ZERO;
    const REAL_ZERO: f64 = 0.0;

    #[inline(always)]
    fn new(re: f64, im: f64) -> Self {
        Complex64::new(re, im)
    }

    #[inline(always)]
    fn re(self) -> f64 {
        self.re
    }

    #[inline(always)]
    fn neg(x: f64) -> f64 {
        -x
    }

    #[inline(always)]
    fn conj(self) -> Self {
        Complex64::conj(self)
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        Complex64::scale(self, s)
    }

    #[inline(always)]
    fn times(self, w: Complex64) -> Self {
        self * w
    }
}

/// [`LANES`] complex values in structure-of-arrays form.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    re: [f64; LANES],
    im: [f64; LANES],
}

impl Add for Lanes {
    type Output = Self;

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: std::array::from_fn(|l| self.re[l] + rhs.re[l]),
            im: std::array::from_fn(|l| self.im[l] + rhs.im[l]),
        }
    }
}

impl Sub for Lanes {
    type Output = Self;

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: std::array::from_fn(|l| self.re[l] - rhs.re[l]),
            im: std::array::from_fn(|l| self.im[l] - rhs.im[l]),
        }
    }
}

impl Lane for Lanes {
    type Real = [f64; LANES];
    const ZERO: Self = Self {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };
    const REAL_ZERO: [f64; LANES] = [0.0; LANES];

    #[inline(always)]
    fn new(re: [f64; LANES], im: [f64; LANES]) -> Self {
        Self { re, im }
    }

    #[inline(always)]
    fn re(self) -> [f64; LANES] {
        self.re
    }

    #[inline(always)]
    fn neg(x: [f64; LANES]) -> [f64; LANES] {
        x.map(|v| -v)
    }

    #[inline(always)]
    fn conj(self) -> Self {
        Self {
            re: self.re,
            im: self.im.map(|v| -v),
        }
    }

    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        Self {
            re: self.re.map(|v| v * s),
            im: self.im.map(|v| v * s),
        }
    }

    #[inline(always)]
    fn times(self, w: Complex64) -> Self {
        Self {
            re: std::array::from_fn(|l| self.re[l] * w.re - self.im[l] * w.im),
            im: std::array::from_fn(|l| self.re[l] * w.im + self.im[l] * w.re),
        }
    }
}

/// A table of unit phasors with their conjugates precomputed for
/// inverse passes.
#[derive(Debug, Clone)]
struct Phasors {
    fwd: Vec<Complex64>,
    inv: Vec<Complex64>,
}

impl Phasors {
    fn new(fwd: Vec<Complex64>) -> Self {
        let inv = fwd.iter().map(|w| w.conj()).collect();
        Self { fwd, inv }
    }

    fn get(&self, inverse: bool) -> &[Complex64] {
        if inverse {
            &self.inv
        } else {
            &self.fwd
        }
    }
}

/// The iterative radix-2 Cooley–Tukey kernel (bit-reversal permutation +
/// in-place butterflies), used directly for power-of-two lengths and as
/// the convolution engine inside the Bluestein kernel.
#[derive(Debug, Clone)]
struct Radix2 {
    n: usize,
    /// Bit-reversal permutation of `0..n`.
    rev: Vec<u32>,
    /// Twiddles `e^{-2πi k/n}` for `k < n/2` and their conjugates; the
    /// stage with butterfly span `len` indexes them with stride `n/len`.
    twiddle: Phasors,
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
        Self {
            n,
            rev,
            twiddle: Phasors::new(twiddle),
        }
    }

    /// Unnormalized transform: the raw (conjugate-)exponent sum.
    fn fft_raw<V: Lane>(&self, data: &mut [V], inverse: bool) {
        let n = self.n;
        let data = &mut data[..n];
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        let twiddle = self.twiddle.get(inverse);
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for chunk in data.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for (i, (a, b)) in lo.iter_mut().zip(hi).enumerate() {
                    let u = *a;
                    let v = b.times(twiddle[i * stride]);
                    *a = u + v;
                    *b = u - v;
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
    twiddle: Phasors,
    /// The radix-point DFT roots `e^{-2πi·t/radix}` for `t < radix`.
    roots: Phasors,
}

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
            twiddle: Phasors::new(twiddle),
            roots: Phasors::new(roots),
        });
        n_cur = m;
        s *= radix;
    }
    stages
}

/// Stockham autosort pass over all stages. `work` must hold `n`
/// elements; the result always ends in `data` (an odd stage count copies
/// back from the ping-pong buffer).
fn mixed_fft_raw<V: Lane>(
    stages: &[Stage],
    n: usize,
    data: &mut [V],
    work: &mut [V],
    inverse: bool,
) {
    let work = &mut work[..n];
    let mut src: &mut [V] = data;
    let mut dst: &mut [V] = work;
    for stage in stages {
        match stage.radix {
            2 => stockham_stage::<V, 2>(stage, src, dst, inverse),
            3 => stockham_stage::<V, 3>(stage, src, dst, inverse),
            5 => stockham_stage::<V, 5>(stage, src, dst, inverse),
            r => unreachable!("mixed-radix stage of radix {r}"),
        }
        std::mem::swap(&mut src, &mut dst);
    }
    if stages.len() % 2 == 1 {
        // `src` (the last-written buffer) is the ping-pong work area.
        dst.copy_from_slice(src);
    }
}

/// One radix-`R` Stockham stage from `src` into `dst`. `R` is a
/// constant so the radix-point DFT unrolls.
fn stockham_stage<V: Lane, const R: usize>(stage: &Stage, src: &[V], dst: &mut [V], inverse: bool) {
    debug_assert_eq!(stage.radix, R);
    let m = stage.m;
    let s = stage.s;
    let twiddle = stage.twiddle.get(inverse);
    let roots = stage.roots.get(inverse);
    let mut a = [V::ZERO; R];
    for p in 0..m {
        for q in 0..s {
            for (c, slot) in a.iter_mut().enumerate() {
                *slot = src[q + s * (p + c * m)];
            }
            if R == 2 {
                // Exact ±1 butterfly, no root rounding.
                dst[q + s * (2 * p)] = a[0] + a[1];
                dst[q + s * (2 * p + 1)] = (a[0] - a[1]).times(twiddle[2 * p + 1]);
            } else {
                for j in 0..R {
                    let mut acc = a[0];
                    for (c, &v) in a.iter().enumerate().skip(1) {
                        acc = acc + v.times(roots[(c * j) % R]);
                    }
                    dst[q + s * (R * p + j)] = acc.times(twiddle[p * R + j]);
                }
            }
        }
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
/// convolution evaluated circularly at length `inner.n`: pointwise chirp
/// multiplies around two radix-2 passes.
fn bluestein_forward<V: Lane>(
    inner: &Radix2,
    w: &[Complex64],
    b_fft: &[Complex64],
    data: &mut [V],
    work: &mut [V],
) {
    let m = inner.n;
    let work = &mut work[..m];
    let (head, tail) = work.split_at_mut(data.len());
    for ((slot, &x), &wt) in head.iter_mut().zip(data.iter()).zip(w) {
        *slot = x.times(wt);
    }
    tail.fill(V::ZERO);
    inner.fft_raw(work, false);
    for (v, &b) in work.iter_mut().zip(b_fft) {
        *v = v.times(b);
    }
    inner.fft_raw(work, true);
    // The circular convolution needs the normalized inverse; fold the
    // 1/m into the final chirp multiply.
    let scale = 1.0 / m as f64;
    for (out, (&conv, &wk)) in data.iter_mut().zip(work.iter().zip(w)) {
        *out = conv.times(wk).scale(scale);
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
    fn fft_with<V: Lane>(&self, data: &mut [V], work: &mut [V], inverse: bool, normalize: bool) {
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
        self.apply_row(RowOp::Dct2, row, scratch);
    }

    /// In-place DCT-III of `row` (unnormalized, matches [`crate::dct3`]).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches as in [`FftPlan::dct2_inplace`].
    pub fn dct3_inplace(&self, row: &mut [f64], scratch: &mut [Complex64]) {
        self.apply_row(RowOp::Dct3, row, scratch);
    }

    /// In-place IDXST of `row` (matches [`crate::idxst`]; `row[0]` is
    /// ignored as the zero sine frequency).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches as in [`FftPlan::dct2_inplace`].
    pub fn idxst_inplace(&self, row: &mut [f64], scratch: &mut [Complex64]) {
        self.apply_row(RowOp::Idxst, row, scratch);
    }

    /// Dispatches one row kernel.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches as in [`FftPlan::dct2_inplace`].
    pub fn apply_row(&self, op: RowOp, row: &mut [f64], scratch: &mut [Complex64]) {
        assert_eq!(row.len(), self.n, "row length mismatch");
        self.apply(op, row, scratch);
    }

    /// Applies `op` to every lane of `xs` (`self.len()` elements), with
    /// `scratch` holding at least [`FftPlan::scratch_len`] elements.
    fn apply<V: Lane>(&self, op: RowOp, xs: &mut [V::Real], scratch: &mut [V]) {
        let n = self.n;
        if n == 1 {
            // The length-1 transforms: DCT-II is the sample itself,
            // DCT-III halves it, IDXST has no sine frequency.
            match op {
                RowOp::Dct2 => {}
                RowOp::Dct3 => xs[0] = V::new(xs[0], V::REAL_ZERO).scale(0.5).re(),
                RowOp::Idxst => xs[0] = V::REAL_ZERO,
            }
            return;
        }
        let (signal, work) = scratch[..self.scratch_len()].split_at_mut(n);
        match op {
            RowOp::Dct2 => {
                // Makhoul even-odd permutation into the complex buffer
                // (valid for any length: the odd tail is reversed into
                // the upper half).
                for i in 0..n.div_ceil(2) {
                    signal[i] = V::new(xs[2 * i], V::REAL_ZERO);
                }
                for i in 0..n / 2 {
                    signal[n - 1 - i] = V::new(xs[2 * i + 1], V::REAL_ZERO);
                }
                self.fft_with(signal, work, false, false);
                for ((out, &s), &p) in xs.iter_mut().zip(signal.iter()).zip(&self.phase2) {
                    *out = s.times(p).re();
                }
            }
            RowOp::Dct3 => {
                // V_k = ½·e^{iπk/2N}·(y_k − i·y_{N−k}), y_N := 0.
                signal[0] = V::new(xs[0], V::REAL_ZERO).times(self.phase3[0]);
                for k in 1..n {
                    signal[k] = V::new(xs[k], V::neg(xs[n - k])).times(self.phase3[k]);
                }
                // The unnormalized DCT-III needs the raw conjugate sum:
                // the usual 1/N of the inverse FFT and the ×N
                // un-normalization cancel exactly for every kernel.
                self.fft_with(signal, work, true, false);
                for i in 0..n / 2 {
                    xs[2 * i] = signal[i].re();
                    xs[2 * i + 1] = signal[n - 1 - i].re();
                }
                if n % 2 == 1 {
                    // Odd lengths have one extra even output position, n−1.
                    xs[n - 1] = signal[n / 2].re();
                }
            }
            RowOp::Idxst => {
                // s = (−1)^n-signed DCT-III of c with c_0 = 0,
                // c_j = b_{N−j}; substituting c into the DCT-III
                // factorization gives V_k = ½·e^{iπk/2N}·(b_{N−k} − i·b_k)
                // with V_0 = 0.
                signal[0] = V::ZERO;
                for k in 1..n {
                    signal[k] = V::new(xs[n - k], V::neg(xs[k])).times(self.phase3[k]);
                }
                self.fft_with(signal, work, true, false);
                for i in 0..n / 2 {
                    xs[2 * i] = signal[i].re();
                    xs[2 * i + 1] = V::neg(signal[n - 1 - i].re());
                }
                if n % 2 == 1 {
                    // Position n−1 is even for odd n, so no sign flip.
                    xs[n - 1] = signal[n / 2].re();
                }
            }
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

/// Caller-owned scratch for a [`SpectralPlan`]: the real and complex
/// lane buffers of one 16-wide block of rows or columns. Building one
/// costs two allocations; reusing it across solves costs none.
#[derive(Debug, Clone)]
pub struct SpectralScratch {
    /// The block's real values, one `[f64; LANES]` per grid position
    /// along the transformed axis.
    reals: Vec<[f64; LANES]>,
    /// The block's complex signal and kernel work area.
    complex: Vec<Lanes>,
}

impl SpectralScratch {
    /// Scratch for an `nx × ny` grid: real lanes for the longer axis and
    /// complex lanes of [`transform_scratch_len`] for the larger
    /// dimension, so non-power-of-two grids get their kernel work area.
    #[must_use]
    pub fn new(nx: usize, ny: usize) -> Self {
        let complex_len = transform_scratch_len(nx).max(transform_scratch_len(ny));
        Self {
            reals: vec![[0.0; LANES]; nx.max(ny)],
            complex: vec![Lanes::ZERO; complex_len],
        }
    }
}

/// A 2-D separable-transform plan over an `nx × ny` grid. Any positive
/// dimensions work; 2/3/5-smooth sizes run on the butterfly kernels (see
/// [`is_fast_path`]).
///
/// Each pass runs on the calling thread in blocks of 16 rows (the x
/// pass) or 16 columns (the y pass): the block is loaded into lanes,
/// transformed by one butterfly sweep, and stored back, with unused
/// lanes of a short last block zero-filled and never stored. Each lane
/// does exactly the arithmetic of the one-row kernel, so the result is
/// bit-identical to transforming the rows and columns one at a time.
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
/// assert_eq!(a, b);
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
        let (nx, ny) = (self.nx, self.ny);
        assert_eq!(a.nx(), nx, "grid shape mismatch");
        assert_eq!(a.ny(), ny, "grid shape mismatch");
        assert!(
            scratch.reals.len() >= nx.max(ny)
                && scratch.complex.len()
                    >= self.plan_x.scratch_len().max(self.plan_y.scratch_len()),
            "scratch too small for {nx}x{ny} grid"
        );
        let SpectralScratch { reals, complex } = scratch;
        let data = a.data_mut();

        // x pass: lane `l` is row `first + l`, read at stride `nx`.
        let xs = &mut reals[..nx];
        for rows in data.chunks_mut(LANES * nx) {
            let width = rows.len() / nx;
            for (l, row) in rows.chunks_exact(nx).enumerate() {
                for (x, &v) in xs.iter_mut().zip(row) {
                    x[l] = v;
                }
            }
            if width < LANES {
                for x in xs.iter_mut() {
                    x[width..].fill(0.0);
                }
            }
            self.plan_x.apply(row_op, xs, complex);
            for (l, row) in rows.chunks_exact_mut(nx).enumerate() {
                for (v, x) in row.iter_mut().zip(xs.iter()) {
                    *v = x[l];
                }
            }
        }

        // y pass: lane `l` is column `first + l`, contiguous per row.
        let ys = &mut reals[..ny];
        for first in (0..nx).step_by(LANES) {
            let width = LANES.min(nx - first);
            for (y, row) in ys.iter_mut().zip(data.chunks_exact(nx)) {
                y[..width].copy_from_slice(&row[first..first + width]);
                y[width..].fill(0.0);
            }
            self.plan_y.apply(col_op, ys, complex);
            for (y, row) in ys.iter().zip(data.chunks_exact_mut(nx)) {
                row[first..first + width].copy_from_slice(&y[..width]);
            }
        }
    }
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
    fn spectral_plan_matches_map_rows_cols_exactly() {
        // Every kernel on each axis, widths below, at and past one lane
        // block, and short last blocks: each lane must give the bits of
        // the one-row kernel the free functions run.
        for (nx, ny) in [
            (16usize, 8usize),
            (12, 8),
            (16, 10),
            (1, 5),
            (5, 1),
            (33, 17),
            (24, 20),
            (7, 40),
            (31, 45),
        ] {
            let plan = SpectralPlan::new(nx, ny);
            let mut scratch = SpectralScratch::new(nx, ny);
            let mut a = Array2::zeros(nx, ny);
            for iy in 0..ny {
                for ix in 0..nx {
                    a[(ix, iy)] = ((ix * 5 + iy * 3) % 11) as f64 - 4.0 + 0.1 * ix as f64;
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
                assert_eq!(fast, slow, "{nx}x{ny} {row_op:?}/{col_op:?}");
            }
        }
    }

    #[test]
    fn scratch_for_a_larger_grid_serves_a_smaller_one() {
        let plan = SpectralPlan::new(12, 20);
        let mut a = Array2::from_data(12, 20, signal(240));
        let mut b = a.clone();
        plan.apply_2d(
            &mut a,
            &mut SpectralScratch::new(12, 20),
            RowOp::Dct2,
            RowOp::Idxst,
        );
        plan.apply_2d(
            &mut b,
            &mut SpectralScratch::new(64, 127),
            RowOp::Dct2,
            RowOp::Idxst,
        );
        assert_eq!(a, b);
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
