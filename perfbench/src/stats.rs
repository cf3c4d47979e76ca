//! Order statistics, the per-layer attribution arithmetic, and the
//! metric-name rules of the result format.

use std::time::{Duration, Instant};

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The arithmetic mean of `values`; `NaN` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Operations per second of operation time: the count of `latencies_ms`
/// over their sum, so bench-side work between operations (output checks,
/// scoring) stays out of the rate.
#[must_use]
pub fn ops_per_s(latencies_ms: &[f64]) -> f64 {
    latencies_ms.len() as f64 * 1e3 / latencies_ms.iter().sum::<f64>()
}

/// CPU seconds this process has used so far, all threads together.
///
/// The compute workloads time their operations with this clock rather
/// than the wall clock: on a shared virtual machine the hypervisor
/// steals CPU from the guest in bursts (seconds at a time on the 2-core
/// host this benchmark was tuned on), which swung wall-clock job times
/// by up to 2× between otherwise identical runs. CPU time leaves stolen
/// time out, and still counts all the work the program does.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[must_use]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is one Linux always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the process CPU clock is not wired up: wall seconds since
/// first use.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
#[must_use]
pub fn process_cpu_s() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Wall-clock milliseconds of a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` once and returns its result with the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

/// Microseconds of each of `reps` calls of `f`.
pub fn per_call_us(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Median per-call costs of the Eq. 14 kernels of one placement, as
/// timed from outside (microseconds, except the one-off pair-list
/// build in milliseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTable {
    /// `WirelengthModel::energy_grad_into`.
    pub wirelength_us: f64,
    /// `DensityModel::grad_into` (deposit + Poisson solve + gather).
    pub density_grad_us: f64,
    /// `FrequencyForce::energy_grad_into` (0 for the Classic arm).
    pub freq_force_us: f64,
    /// `NesterovSolver::step`.
    pub nesterov_step_us: f64,
    /// `DensityModel::overflow_with`.
    pub overflow_us: f64,
    /// `FrequencyForce::new`, once per placement (0 for Classic).
    pub freq_force_build_ms: f64,
}

/// Overflow checks a flat placement of `iterations` iterations under a
/// cap of `max_iterations` makes: one every fifth iteration, one on the
/// capped last iteration, and one after the loop for the report.
#[must_use]
pub fn overflow_checks(iterations: usize, max_iterations: usize) -> usize {
    let in_loop = (0..iterations)
        .filter(|&i| i % 5 == 0 || i + 1 == max_iterations)
        .count();
    in_loop + 1
}

/// Share of a global placement's wall time that the kernel table
/// accounts for: every per-iteration kernel times the iteration count,
/// the overflow check times the checks made, plus the pair-list build,
/// all over `global_s`. Near 1 when the kernels are the whole loop.
#[must_use]
pub fn attributed_frac(
    table: &KernelTable,
    iterations: usize,
    max_iterations: usize,
    global_s: f64,
) -> f64 {
    let per_iteration_us =
        table.wirelength_us + table.density_grad_us + table.freq_force_us + table.nesterov_step_us;
    let checks = overflow_checks(iterations, max_iterations) as f64;
    let total_us = per_iteration_us * iterations as f64
        + table.overflow_us * checks
        + table.freq_force_build_ms * 1e3;
    total_us / (global_s * 1e6)
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let start = process_cpu_s();
        let sum: u64 = (0..20_000_000u64).map(std::hint::black_box).sum();
        let spent = process_cpu_s() - start;
        assert!(sum > 0);
        assert!(spent > 0.0 && spent < 60.0, "{spent}");
    }

    #[test]
    fn ops_per_s_counts_operation_time_only() {
        assert_eq!(ops_per_s(&[100.0, 300.0]), 5.0);
    }

    #[test]
    fn overflow_checks_follow_the_placer_cadence() {
        // Iterations 0, 5 and 9 (the capped last one), plus the report.
        assert_eq!(overflow_checks(10, 10), 4);
        // Converged early at 61 iterations: 0, 5, …, 60, plus the report.
        assert_eq!(overflow_checks(61, 700), 14);
        assert_eq!(overflow_checks(0, 700), 1);
    }

    #[test]
    fn attributed_frac_adds_up_a_fake_timing_table() {
        let table = KernelTable {
            wirelength_us: 10.0,
            density_grad_us: 2000.0,
            freq_force_us: 2500.0,
            nesterov_step_us: 90.0,
            overflow_us: 400.0,
            freq_force_build_ms: 12.0,
        };
        // 100 iterations under a 700 cap: 20 in-loop checks + 1 final.
        // 100 × 4600 µs + 21 × 400 µs + 12 000 µs = 480 400 µs.
        let frac = attributed_frac(&table, 100, 700, 0.5);
        assert!((frac - 0.9608).abs() < 1e-12, "{frac}");
        // The Classic arm has no force and no pair list.
        let classic = KernelTable {
            freq_force_us: 0.0,
            freq_force_build_ms: 0.0,
            ..table
        };
        let frac = attributed_frac(&classic, 100, 700, 0.2);
        assert!((frac - (210_000.0 + 8_400.0) / 200_000.0).abs() < 1e-12);
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("place.freq_force_us"));
        assert!(valid_name("0ab-c"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("mm^2"));
    }
}
