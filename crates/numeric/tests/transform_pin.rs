//! Cross-commit transform pins: FNV-1a hashes of the IEEE-754 bits that
//! [`SpectralPlan::apply_2d`] and the Poisson solves produce on fixed
//! inputs, over every kernel the planner picks.
//!
//! The grids cover the radix-2 kernel (32², 128², 256²), the mixed-radix
//! Stockham kernel with odd factors and rectangles (24×20, 45×75, 27×81,
//! 60², 90², 180²) and the Bluestein kernel (127², 31×64). Most widths
//! are not multiples of any batching block size. A change that means to
//! keep the transforms' arithmetic (a faster schedule, a new memory
//! layout) must leave every hash alone; a change that means to alter it
//! updates them in the same commit and says why.
//!
//! The plan tables come from the platform `libm` (`sin`/`cos`), so the
//! hashes are pinned for x86-64 Linux only.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use qplacer_numeric::{
    dct2, dct3, fft, idxst, ifft, Array2, Complex64, PoissonField, PoissonSolver, RowOp,
    SpectralPlan, SpectralScratch,
};

/// `(nx, ny, hash)`: the hash covers the four `apply_2d` op pairs, then
/// `solve_into` (ψ, ξx, ξy), then `solve_field_into` (ξx, ξy, ψ̂).
const PINS: [(usize, usize, u64); 11] = [
    (32, 32, 0x8319_d49c_2650_ffe2),
    (128, 128, 0x90dc_efbe_1830_c471),
    (256, 256, 0xa95b_1cd3_c03a_caf4),
    (24, 20, 0x7227_1283_87f6_a0c5),
    (45, 75, 0xd555_a07a_4e8f_f9cf),
    (27, 81, 0x582f_934b_fc3d_0833),
    (60, 60, 0x2672_a4b0_54bf_b1f0),
    (90, 90, 0xdfd5_2321_5a67_d44c),
    (180, 180, 0x0a6e_fceb_6c4d_e18f),
    (127, 127, 0xb00f_bd78_0ec7_41b5),
    (31, 64, 0xd885_8f89_e44d_e94c),
];

/// Hash of the 1-D free functions (`dct2`, `dct3`, `idxst`, `fft`,
/// `ifft`) over lengths on every kernel, including the length-1 cases.
const ROW_PIN: u64 = 0xfef5_ea8d_b118_1219;

/// The op pairs `PoissonSolver` runs, plus the forward pair.
const OP_PAIRS: [(RowOp, RowOp); 4] = [
    (RowOp::Dct2, RowOp::Dct2),
    (RowOp::Idxst, RowOp::Dct3),
    (RowOp::Dct3, RowOp::Idxst),
    (RowOp::Dct3, RowOp::Dct3),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, values: &[f64]) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// A fixed xorshift signal in `[-4, 4)` of length `n`.
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

/// A fixed signal seeded by the grid shape.
fn grid(nx: usize, ny: usize) -> Array2 {
    Array2::from_data(nx, ny, signal((nx as u64) << 32 | ny as u64, nx * ny))
}

fn transforms_hash(nx: usize, ny: usize) -> u64 {
    let input = grid(nx, ny);
    let mut h = Fnv::new();

    let plan = SpectralPlan::new(nx, ny);
    let mut scratch = SpectralScratch::new(nx, ny);
    for (row_op, col_op) in OP_PAIRS {
        let mut a = input.clone();
        plan.apply_2d(&mut a, &mut scratch, row_op, col_op);
        h.add(a.data());
    }

    let solver = PoissonSolver::new(nx, ny);
    let mut scratch = solver.make_scratch();
    let mut field = PoissonField::zeros(nx, ny);
    solver.solve_into(&input, &mut field, &mut scratch);
    h.add(field.psi.data());
    h.add(field.ex.data());
    h.add(field.ey.data());
    solver.solve_field_into(&input, &mut field, &mut scratch);
    h.add(field.ex.data());
    h.add(field.ey.data());
    h.add(field.psi.data());
    h.0
}

#[test]
fn transforms_match_their_pins() {
    let got: Vec<(usize, usize, u64)> = PINS
        .iter()
        .map(|&(nx, ny, _)| (nx, ny, transforms_hash(nx, ny)))
        .collect();
    let moved: Vec<String> = got
        .iter()
        .zip(&PINS)
        .filter(|(g, p)| g.2 != p.2)
        .map(|(&(nx, ny, h), _)| format!("({nx}, {ny}, {h:#018x})"))
        .collect();
    assert!(
        moved.is_empty(),
        "transform hashes moved on {} grid(s): {}",
        moved.len(),
        moved.join(", ")
    );
}

#[test]
fn row_kernels_match_their_pin() {
    let mut h = Fnv::new();
    for n in [1usize, 2, 3, 5, 8, 12, 16, 27, 45, 64, 100, 127, 128, 250] {
        let x = signal(n as u64, n);
        h.add(&dct2(&x));
        h.add(&dct3(&x));
        h.add(&idxst(&x));
        let y = signal(n as u64 + 1000, n);
        let mut z: Vec<Complex64> = x
            .iter()
            .zip(&y)
            .map(|(&re, &im)| Complex64::new(re, im))
            .collect();
        fft(&mut z);
        h.add(&z.iter().flat_map(|c| [c.re, c.im]).collect::<Vec<f64>>());
        ifft(&mut z);
        h.add(&z.iter().flat_map(|c| [c.re, c.im]).collect::<Vec<f64>>());
    }
    assert_eq!(h.0, ROW_PIN, "row kernel hash moved: {:#018x}", h.0);
}
