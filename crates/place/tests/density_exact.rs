//! The density kernels against the per-bin reference they replaced.
//!
//! `DensityModel` computes each footprint's overlap with the bin grid as
//! per-axis weights, one x-width per bin column and one y-height per bin
//! row, and gives each bin their product. The oracle here is the direct
//! form: a `Rect` per bin and `Rect::overlap_area` with the footprint,
//! in the same bin order, the same 8 deposit bands and the same band
//! reduction. Deposit, field gather and overflow must match it bit for
//! bit on footprints that touch bin edges within `GEOM_EPS`, lie partly
//! or fully outside the region, have NaN or ±∞ centres, or span more
//! bins than the grid has, on square power-of-two, 30², 31² and
//! non-square grids.

use proptest::prelude::*;
use qplacer_freq::FrequencyAssigner;
use qplacer_geometry::{Point, Rect, GEOM_EPS};
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_numeric::Array2;
use qplacer_place::DensityModel;
use qplacer_topology::Topology;

/// Deposit bands of the kernel under test.
const DEPOSIT_BANDS: usize = 8;

/// The per-bin reference implementation.
struct Oracle {
    region: Rect,
    nx: usize,
    ny: usize,
    bin_w: f64,
    bin_h: f64,
}

impl Oracle {
    fn new(region: Rect, nx: usize, ny: usize) -> Self {
        Self {
            region,
            nx,
            ny,
            bin_w: region.width() / nx as f64,
            bin_h: region.height() / ny as f64,
        }
    }

    fn bin_range(&self, lo: f64, hi: f64, horizontal: bool) -> (usize, usize) {
        let (origin, size, count) = if horizontal {
            (self.region.min.x, self.bin_w, self.nx)
        } else {
            (self.region.min.y, self.bin_h, self.ny)
        };
        let first = (((lo - origin) / size).floor().max(0.0)) as usize;
        let last = (((hi - origin) / size).ceil().max(0.0) as usize).min(count);
        (first.min(count.saturating_sub(1)), last)
    }

    fn bin_rect(&self, ix: usize, iy: usize) -> Rect {
        Rect::from_origin_size(
            Point::new(
                self.region.min.x + ix as f64 * self.bin_w,
                self.region.min.y + iy as f64 * self.bin_h,
            ),
            self.bin_w,
            self.bin_h,
        )
    }

    /// Calls `f(ix, iy, area)` for every bin `rect` covers with a
    /// positive overlap, in the kernels' bin order.
    fn for_each_overlap(&self, rect: &Rect, mut f: impl FnMut(usize, usize, f64)) {
        let (x0, x1) = self.bin_range(rect.min.x, rect.max.x, true);
        let (y0, y1) = self.bin_range(rect.min.y, rect.max.y, false);
        for iy in y0..y1.max(y0 + 1) {
            for ix in x0..x1.max(x0 + 1) {
                let a = self.bin_rect(ix, iy).overlap_area(rect);
                if a > 0.0 {
                    f(ix, iy, a);
                }
            }
        }
    }

    fn rasterize(&self, nl: &QuantumNetlist, positions: &[Point]) -> Array2 {
        let instances = nl.instances();
        let band_len = instances.len().div_ceil(DEPOSIT_BANDS).max(1);
        let mut rho = Array2::zeros(self.nx, self.ny);
        for chunk in instances.chunks(band_len) {
            let mut band = Array2::zeros(self.nx, self.ny);
            for inst in chunk {
                let rect = inst.padded_rect(positions[inst.id()]);
                self.for_each_overlap(&rect, |ix, iy, a| band[(ix, iy)] += a);
            }
            rho.zip_apply(&band, |acc, b| acc + b);
        }
        rho
    }

    fn gather(
        &self,
        nl: &QuantumNetlist,
        positions: &[Point],
        ex: &Array2,
        ey: &Array2,
    ) -> Vec<f64> {
        let n = positions.len();
        let mut grad = vec![0.0; 2 * n];
        for inst in nl.instances() {
            let rect = inst.padded_rect(positions[inst.id()]);
            let (mut fx, mut fy) = (0.0, 0.0);
            self.for_each_overlap(&rect, |ix, iy, a| {
                fx += a * ex[(ix, iy)];
                fy += a * ey[(ix, iy)];
            });
            grad[inst.id()] = -fx;
            grad[n + inst.id()] = -fy;
        }
        grad
    }

    fn overflow(&self, nl: &QuantumNetlist, rho: &Array2) -> f64 {
        let total = nl.total_padded_area();
        if total <= 0.0 {
            return 0.0;
        }
        // Area above capacity, one bin's area per bin: bin `i` in row
        // order adds to partial sum `i mod 16`, as in the kernel, and the
        // partial sums are added in order.
        let capacity = self.bin_w * self.bin_h;
        let mut lanes = [0.0; 16];
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                lanes[(iy * self.nx + ix) % 16] += (rho[(ix, iy)] - capacity).max(0.0);
            }
        }
        lanes.iter().fold(0.0, |over, &lane| over + lane) / total
    }
}

fn netlist() -> QuantumNetlist {
    let t = Topology::grid(3, 3);
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    QuantumNetlist::build(&t, &freqs, &NetlistConfig::default())
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One axis of the bin grid: `count` bins of `size` from `origin`.
#[derive(Clone, Copy)]
struct Axis {
    origin: f64,
    size: f64,
    count: usize,
}

/// One sampled footprint-centre coordinate: a kind, a uniform `t`, a
/// bin-edge index and a nudge in half-`GEOM_EPS` steps.
type Draw = (u8, f64, i64, i8);

/// The centre coordinate `draw` picks on `axis` for a footprint of
/// half-width `half`.
fn coordinate((kind, t, k, nudge): Draw, axis: Axis, half: f64) -> f64 {
    let span = axis.count as f64 * axis.size;
    // A bin edge (beyond the grid included), or within a few GEOM_EPS
    // of it.
    let edge = axis.origin + k as f64 * axis.size + f64::from(nudge) * 0.5 * GEOM_EPS;
    match kind % 8 {
        // Anywhere from well below the region to well above it.
        0 | 1 => axis.origin - span + t * 3.0 * span,
        // The footprint's low or high edge on `edge`.
        2 => edge + half,
        3 => edge - half,
        4 => f64::NAN,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        _ if t < 0.5 => 1e300,
        _ => -1e300,
    }
}

fn grid() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((30, 30)),
        Just((31, 31)),
        Just((64, 64)),
        Just((32, 20)),
        Just((17, 45)),
        Just((3, 5)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn deposit_gather_and_overflow_match_the_per_bin_oracle(
        (nx, ny) in grid(),
        region in (-5.0f64..5.0, -5.0f64..5.0, 0.3f64..14.0, 0.3f64..14.0),
        coords in prop::collection::vec(
            ((0u8..8, 0.0f64..1.0, -3i64..70, -4i8..5), (0u8..8, 0.0f64..1.0, -3i64..70, -4i8..5)),
            64,
        ),
    ) {
        let nl = netlist();
        let (x0, y0, w, h) = region;
        let region = Rect::from_origin_size(Point::new(x0, y0), w, h);
        let x_axis = Axis { origin: x0, size: w / nx as f64, count: nx };
        let y_axis = Axis { origin: y0, size: h / ny as f64, count: ny };
        let positions: Vec<Point> = nl
            .instances()
            .iter()
            .map(|inst| {
                let (x, y) = coords[inst.id() % coords.len()];
                let half = 0.5 * inst.padded_mm();
                Point::new(coordinate(x, x_axis, half), coordinate(y, y_axis, half))
            })
            .collect();

        let model = DensityModel::new(region, nx, ny);
        let oracle = Oracle::new(region, nx, ny);
        let mut ws = model.workspace();

        let expected_rho = oracle.rasterize(&nl, &positions);
        model.rasterize_into(&nl, &positions, &mut ws);
        prop_assert_eq!(bits(ws.rho().data()), bits(expected_rho.data()), "deposit");

        let expected_overflow = oracle.overflow(&nl, &expected_rho);
        let overflow = model.overflow_with(&nl, &positions, &mut ws);
        prop_assert_eq!(overflow.to_bits(), expected_overflow.to_bits(), "overflow");

        let mut grad = vec![0.0; 2 * positions.len()];
        model.grad_into(&nl, &positions, &mut grad, &mut ws);
        prop_assert_eq!(bits(ws.rho().data()), bits(expected_rho.data()), "deposit before the solve");
        let field = ws.field();
        let expected_grad = oracle.gather(&nl, &positions, &field.ex, &field.ey);
        prop_assert_eq!(bits(&grad), bits(&expected_grad), "gather");
    }
}

#[test]
fn footprints_wider_than_the_grid_match_the_oracle() {
    // A 0.5 mm × 0.4 mm region on a 3 × 5 grid: every footprint covers
    // every bin, and the model's weight buffers hold exactly one grid.
    let nl = netlist();
    let region = Rect::from_origin_size(Point::new(0.1, -0.2), 0.5, 0.4);
    let model = DensityModel::new(region, 3, 5);
    let oracle = Oracle::new(region, 3, 5);
    let mut ws = model.workspace();
    let positions: Vec<Point> = (0..nl.num_instances())
        .map(|k| Point::new(0.35 + 0.01 * (k % 7) as f64, -0.1 * (k % 3) as f64))
        .collect();
    model.rasterize_into(&nl, &positions, &mut ws);
    let expected = oracle.rasterize(&nl, &positions);
    assert_eq!(bits(ws.rho().data()), bits(expected.data()));
    assert!(ws.rho().data().iter().all(|&v| v > 0.0));
    let mut grad = vec![0.0; 2 * positions.len()];
    model.grad_into(&nl, &positions, &mut grad, &mut ws);
    let field = ws.field();
    assert_eq!(
        bits(&grad),
        bits(&oracle.gather(&nl, &positions, &field.ex, &field.ey))
    );
}
