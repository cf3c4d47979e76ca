//! Property tests for the planned transform pipeline: the FFT-backed
//! plans must agree with the naive O(N²) reference sums for arbitrary
//! lengths and data, and the lane-batched 2-D passes must give the bits
//! of the one-row kernels on any grid shape.

use proptest::prelude::*;
use qplacer_numeric::{
    dct2, dct3, fft_plan, idxst, is_fast_path, naive_dct2, naive_dct3, naive_idxst, Array2,
    Complex64, RowOp, SpectralPlan, SpectralScratch,
};

/// Deterministic pseudo-random signal derived from a seed.
fn signal(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
        })
        .collect()
}

fn assert_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn planned_transforms_match_naive_for_random_pow2(seed in 0u64..1000, log_n in 0u32..9) {
        let n = 1usize << log_n;
        let x = signal(seed, n);
        let plan = fft_plan(n);
        let mut scratch = vec![Complex64::ZERO; n];
        // The naive sums accumulate O(n) rounding on O(n)-magnitude
        // terms; scale the tolerance with the signal mass.
        let tol = 1e-11 * (1.0 + x.iter().map(|v| v.abs()).sum::<f64>()) * n as f64;

        for (op, reference) in [
            (RowOp::Dct2, naive_dct2(&x)),
            (RowOp::Dct3, naive_dct3(&x)),
            (RowOp::Idxst, naive_idxst(&x)),
        ] {
            let mut row = x.clone();
            plan.apply_row(op, &mut row, &mut scratch);
            assert_close(&row, &reference, tol);
        }
    }

    #[test]
    fn free_functions_match_naive_for_any_length(seed in 0u64..1000, n in 1usize..80) {
        // Every length is planned now (radix-2, mixed-radix, or
        // Bluestein) and must agree with the naive reference sums.
        let x = signal(seed, n);
        let tol = 1e-11 * (1.0 + x.iter().map(|v| v.abs()).sum::<f64>()) * n as f64;
        assert_close(&dct2(&x), &naive_dct2(&x), tol);
        assert_close(&dct3(&x), &naive_dct3(&x), tol);
        assert_close(&idxst(&x), &naive_idxst(&x), tol);
        // Round trip through the planned pair: dct3(dct2(x)) == (n/2)·x.
        let back = dct3(&dct2(&x));
        let restored: Vec<f64> = back.iter().map(|v| v * 2.0 / n as f64).collect();
        assert_close(&restored, &x, 1e-8);
    }

    #[test]
    fn planned_transforms_match_naive_for_non_pow2(seed in 0u64..1000, pick in 0usize..8) {
        // Mixed-radix (96, 100, 250, 81, 45) and Bluestein (127, 97, 77)
        // kernels against the naive O(N²) sums, to ≤1e-9 *relative*
        // error (relative to the signal mass, the natural scale of the
        // unnormalized transforms).
        let n = [96usize, 100, 127, 250, 81, 45, 97, 77][pick];
        prop_assert_eq!(is_fast_path(n), ![127usize, 97, 77].contains(&n));
        let x = signal(seed, n);
        let scale = 1.0 + x.iter().map(|v| v.abs()).sum::<f64>();
        let plan = fft_plan(n);
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];

        for (op, reference) in [
            (RowOp::Dct2, naive_dct2(&x)),
            (RowOp::Dct3, naive_dct3(&x)),
            (RowOp::Idxst, naive_idxst(&x)),
        ] {
            let mut row = x.clone();
            plan.apply_row(op, &mut row, &mut scratch);
            for (i, (got, want)) in row.iter().zip(&reference).enumerate() {
                let rel = (got - want).abs() / scale;
                prop_assert!(rel <= 1e-9, "{op:?} n={n} index {i}: {got} vs {want} (rel {rel:e})");
            }
        }

        // DCT-2/DCT-3 round trip restores the signal: dct3(dct2(x)) == (n/2)·x.
        let mut row = x.clone();
        plan.dct2_inplace(&mut row, &mut scratch);
        plan.dct3_inplace(&mut row, &mut scratch);
        for (i, (got, want)) in row.iter().zip(&x).enumerate() {
            let rel = (got * 2.0 / n as f64 - want).abs() / scale;
            prop_assert!(rel <= 1e-9, "round trip n={n} index {i} (rel {rel:e})");
        }
    }

    #[test]
    fn spectral_plan_matches_rows_exactly_on_any_shape(seed in 0u64..500, nx in 1usize..50, ny in 1usize..50) {
        // Any shape: radix-2, mixed-radix and Bluestein lengths, and
        // lane blocks cut short at either axis.
        let data = signal(seed, nx * ny);
        let plan = SpectralPlan::new(nx, ny);
        let mut scratch = SpectralScratch::new(nx, ny);
        let mut fast = Array2::from_data(nx, ny, data.clone());
        plan.apply_2d(&mut fast, &mut scratch, RowOp::Dct2, RowOp::Idxst);
        let mut slow = Array2::from_data(nx, ny, data);
        slow.map_rows(dct2);
        slow.map_cols(idxst);
        prop_assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn spectral_plan_matches_sequential_map_rows_cols(seed in 0u64..500, log_n in 2u32..6) {
        let n = 1usize << log_n;
        let data = signal(seed, n * n);
        let plan = SpectralPlan::new(n, n);
        let mut scratch = SpectralScratch::new(n, n);
        let mut fast = Array2::from_data(n, n, data.clone());
        plan.apply_2d(&mut fast, &mut scratch, RowOp::Dct3, RowOp::Dct3);
        let mut slow = Array2::from_data(n, n, data);
        slow.map_rows(dct3);
        slow.map_cols(dct3);
        // Same kernels under the hood, one lane per row or column, so
        // the results agree bit for bit.
        prop_assert_eq!(fast.data(), slow.data());
    }
}
