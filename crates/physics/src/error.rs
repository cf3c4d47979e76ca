//! Error channels feeding the fidelity metric (Eq. 15–16).
//!
//! * **Crosstalk**: spatially-violating component pairs exchange energy at
//!   their effective coupling rate; the transition probability is the Rabi
//!   formula `Pr[t] = sin²(g_eff·t)` (§V-C). The paper's Eq. 16 prints
//!   `ε = 1 − sin(gt)²`, which is 1 at `t = 0` and contradicts the stated
//!   transition probability; we implement the physical form
//!   `ε = sin²(g_eff·t)`.
//! * **Decoherence**: amplitude/phase damping over a duration `t`:
//!   `ε = 1 − exp(-t/T1)·exp(-t/T2)` folded into per-gate and idle errors.

use crate::{Duration, Frequency};

/// Rabi-oscillation crosstalk error after `t` of exposure at effective
/// coupling `g_eff`: `ε = sin²(g_eff·t)` with `g_eff·t` taken as the
/// accumulated angle `2π·f·t`.
///
/// # Examples
///
/// ```
/// use qplacer_physics::{error::rabi_error, Duration, Frequency};
/// // A quarter Rabi period gives unit error probability.
/// let g = Frequency::from_mhz(1.0);
/// let quarter = Duration::from_ns(250.0); // 2π·0.001·250 = π/2
/// assert!((rabi_error(g, quarter) - 1.0).abs() < 1e-9);
/// assert_eq!(rabi_error(g, Duration::ZERO), 0.0);
/// ```
#[must_use]
pub fn rabi_error(g_eff: Frequency, t: Duration) -> f64 {
    let angle = g_eff.rad_per_ns() * t.ns();
    let s = angle.sin();
    s * s
}

/// Time-averaged Rabi crosstalk error over a long, dephased exposure.
///
/// When the exposure is much longer than the Rabi period, the phase of the
/// oscillation is effectively random across program executions; the
/// expected error is the average of `sin²`, i.e. ½·(1 − sinc-like decay).
/// For short exposures this reduces smoothly to the instantaneous
/// [`rabi_error`].
///
/// # Examples
///
/// ```
/// use qplacer_physics::{error::averaged_rabi_error, Duration, Frequency};
/// // Long resonant exposure saturates at 1/2.
/// let e = averaged_rabi_error(Frequency::from_mhz(5.0), Duration::from_us(10.0));
/// assert!((e - 0.5).abs() < 0.01);
/// // Weak coupling over a short window stays tiny.
/// let tiny = averaged_rabi_error(Frequency::from_mhz(0.01), Duration::from_ns(100.0));
/// assert!(tiny < 1e-4);
/// ```
#[must_use]
pub fn averaged_rabi_error(g_eff: Frequency, t: Duration) -> f64 {
    let angle = g_eff.rad_per_ns() * t.ns();
    // E[sin²(θ)] over θ ∈ [0, angle] = ½ − sin(2·angle)/(4·angle).
    if angle < 1e-9 {
        return 0.0;
    }
    0.5 - (2.0 * angle).sin() / (4.0 * angle)
}

/// Decoherence error over duration `t` with relaxation `t1` and dephasing
/// `t2`: `ε = 1 − e^{-t/T1}·e^{-t/T2}`.
///
/// # Examples
///
/// ```
/// use qplacer_physics::{error::decoherence_error, Duration};
/// let t1 = Duration::from_us(100.0);
/// let e = decoherence_error(Duration::from_ns(300.0), t1, t1);
/// assert!(e > 0.0 && e < 0.01);
/// ```
///
/// # Panics
///
/// Panics if `t1` or `t2` is not positive.
#[must_use]
pub fn decoherence_error(t: Duration, t1: Duration, t2: Duration) -> f64 {
    assert!(t1.ns() > 0.0 && t2.ns() > 0.0, "T1/T2 must be positive");
    1.0 - (-(t.ns() / t1.ns())).exp() * (-(t.ns() / t2.ns())).exp()
}

/// Combines independent error probabilities: `1 − Π(1 − εᵢ)`.
///
/// # Examples
///
/// ```
/// use qplacer_physics::error::combine_errors;
/// let e = combine_errors(&[0.1, 0.2]);
/// assert!((e - 0.28).abs() < 1e-12);
/// assert_eq!(combine_errors(&[]), 0.0);
/// ```
#[must_use]
pub fn combine_errors(errors: &[f64]) -> f64 {
    1.0 - errors
        .iter()
        .fold(1.0, |acc, &e| acc * (1.0 - e.clamp(0.0, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rabi_error_oscillates() {
        let g = Frequency::from_mhz(1.0);
        // Half Rabi period: angle = π, error back to 0.
        let half = Duration::from_ns(500.0);
        assert!(rabi_error(g, half) < 1e-9);
        // Stronger coupling reaches the first maximum sooner.
        let strong_first_max = 1.0 / (4.0 * Frequency::from_mhz(2.0).ghz() * 2.0);
        assert!(strong_first_max < 1.0 / (4.0 * g.ghz() * 2.0));
    }

    #[test]
    fn averaged_error_is_bounded() {
        for mhz in [0.01, 0.1, 1.0, 10.0] {
            for ns in [1.0, 10.0, 100.0, 10_000.0] {
                let e = averaged_rabi_error(Frequency::from_mhz(mhz), Duration::from_ns(ns));
                assert!((0.0..=1.0).contains(&e), "e = {e} at {mhz} MHz, {ns} ns");
            }
        }
    }

    #[test]
    fn averaged_error_grows_with_coupling() {
        let t = Duration::from_ns(200.0);
        let weak = averaged_rabi_error(Frequency::from_mhz(0.1), t);
        let strong = averaged_rabi_error(Frequency::from_mhz(2.0), t);
        assert!(strong > weak);
    }

    #[test]
    fn decoherence_limits() {
        let t1 = Duration::from_us(100.0);
        assert_eq!(decoherence_error(Duration::ZERO, t1, t1), 0.0);
        let long = decoherence_error(Duration::from_us(10_000.0), t1, t1);
        assert!(long > 0.999999);
        // Monotone in duration.
        let a = decoherence_error(Duration::from_ns(100.0), t1, t1);
        let b = decoherence_error(Duration::from_ns(200.0), t1, t1);
        assert!(b > a);
    }

    #[test]
    fn combine_errors_clamps_and_composes() {
        assert_eq!(combine_errors(&[1.0, 0.5]), 1.0);
        assert_eq!(combine_errors(&[0.0, 0.0]), 0.0);
        let e = combine_errors(&[2.0]); // clamped to 1
        assert_eq!(e, 1.0);
    }
}
