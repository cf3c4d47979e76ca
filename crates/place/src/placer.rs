//! The global placement loop (Eq. 14 and §IV-C1).

use qplacer_geometry::Point;
use qplacer_netlist::QuantumNetlist;
use qplacer_numeric::NesterovSolver;
use qplacer_obs::{NullTraceSink, TraceRecord, TraceSink};
use serde::{Deserialize, Serialize};

use crate::{exact_hpwl, DensityModel, DensityWorkspace, FrequencyForce, WirelengthModel};

/// Stall tolerance for warm ([`ExecOptions::pinned`]) runs, as a
/// fraction of the region width: when no coordinate moved at least this
/// far over one iteration (past the iteration floor), the run stops.
/// The threshold is deliberately coarse — an order of magnitude below
/// the legalizer's site pitch, so any drift it ignores is erased by
/// legalization anyway. Warm runs stop on this test alone; cold runs
/// stop on the overflow target alone.
const WARM_STALL_FRACTION: f64 = 1e-3;

/// Upper bound on the overflow-trace capacity reserved per run, so an
/// outsized iteration cap cannot request a huge reservation.
const TRACE_RESERVE_CAP: usize = 1 << 16;

/// Reusable buffers for the placement loop: unpacked positions, the four
/// gradient vectors, per-instance preconditioner data, and the density
/// kernel's [`DensityWorkspace`].
///
/// [`GlobalPlacer::execute`] builds one internally when
/// [`ExecOptions::workspace`] is `None`; callers running many
/// placements (the harness, benchmark sweeps) pass their own — buffers
/// are re-sized only when the netlist or bin grid changes shape, so
/// steady-state placement iterations perform **zero heap allocations**
/// in the transform and gradient kernels.
#[derive(Debug, Clone, Default)]
pub struct PlacerWorkspace {
    /// Positions of the latest gradient evaluation, then the final
    /// layout.
    positions: Vec<Point>,
    gwl: Vec<f64>,
    gd: Vec<f64>,
    gf: Vec<f64>,
    grad: Vec<f64>,
    degree: Vec<f64>,
    areas: Vec<f64>,
    half_sizes: Vec<(f64, f64)>,
    density: Option<(usize, usize, DensityWorkspace)>,
    /// Per-coarse-level workspaces, populated by the multilevel engine
    /// and reused across runs.
    pub(crate) multilevel: Option<Box<crate::multilevel::MultilevelState>>,
}

impl PlacerWorkspace {
    /// An empty workspace; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures every buffer matches `n` instances and the model's grid.
    fn ensure(&mut self, n: usize, density: &DensityModel) {
        if self.positions.len() != n {
            self.positions.resize(n, Point::ORIGIN);
            self.half_sizes.resize(n, (0.0, 0.0));
            self.degree.resize(n, 0.0);
            self.areas.resize(n, 0.0);
            for buf in [&mut self.gwl, &mut self.gd, &mut self.gf, &mut self.grad] {
                buf.resize(2 * n, 0.0);
            }
        }
        let dims = density.dims();
        let fits = matches!(&self.density, Some((nx, ny, _)) if (*nx, *ny) == dims);
        if !fits {
            self.density = Some((dims.0, dims.1, density.workspace()));
        }
    }

    fn unpack(positions: &mut [Point], flat: &[f64]) {
        let n = positions.len();
        for (i, p) in positions.iter_mut().enumerate() {
            *p = Point::new(flat[i], flat[n + i]);
        }
    }
}

/// Placement engine configuration.
///
/// Defaults follow the paper's setup; [`PlacerConfig::fast`] is a reduced
/// configuration for tests, and [`PlacerConfig::classic`] disables the
/// frequency force to reproduce the "Classic" baseline placer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PlacerConfig {
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Iterations before the overflow stop is consulted.
    pub min_iterations: usize,
    /// A cold run stops once its capacity overflow
    /// ([`DensityModel::overflow`]: the fraction of instance area
    /// deposited above bin capacity) falls below this fraction. Warm
    /// runs ([`ExecOptions::pinned`]) stop when positions stall instead.
    pub target_overflow: f64,
    /// Per-iteration growth of the density penalty λ.
    pub lambda_growth: f64,
    /// Initial frequency penalty relative to the density penalty scale.
    pub freq_weight: f64,
    /// Per-iteration growth of the frequency penalty λ_f.
    pub freq_growth: f64,
    /// `true` = QPlacer (frequency repulsion on); `false` = Classic.
    pub frequency_aware: bool,
    /// Wirelength smoothing γ as a fraction of the region width.
    pub gamma_fraction: f64,
    /// Initial optimizer step as a fraction of the region width.
    pub step_fraction: f64,
    /// Bin grid override; `None` picks automatically. Any positive size
    /// works, but 2/3/5-smooth sizes (see
    /// [`qplacer_numeric::is_fast_path`]) run on the dedicated
    /// butterfly kernels — other sizes pay the Bluestein constant
    /// factor.
    pub bins: Option<usize>,
    /// Multilevel V-cycle depth: `1` (the default) places flat; `L > 1`
    /// coarsens the netlist up to `L − 1` times by frequency-compatible
    /// heavy-edge matching, places the coarsest level, and refines back
    /// down. Levels beyond what the netlist supports are ignored.
    pub levels: usize,
}

// Hand-written so that configs serialized before `levels` existed keep
// deserializing (as flat placements); the vendored serde derive has no
// `#[serde(default)]`.
impl Deserialize for PlacerConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = value
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "PlacerConfig"))?;
        let field = |key: &str| serde::Value::field(map, key);
        let levels = match map.iter().find(|(k, _)| k.as_str() == "levels") {
            Some((_, v)) => Deserialize::from_value(v)?,
            None => 1,
        };
        Ok(Self {
            max_iterations: Deserialize::from_value(field("max_iterations")?)?,
            min_iterations: Deserialize::from_value(field("min_iterations")?)?,
            target_overflow: Deserialize::from_value(field("target_overflow")?)?,
            lambda_growth: Deserialize::from_value(field("lambda_growth")?)?,
            freq_weight: Deserialize::from_value(field("freq_weight")?)?,
            freq_growth: Deserialize::from_value(field("freq_growth")?)?,
            frequency_aware: Deserialize::from_value(field("frequency_aware")?)?,
            gamma_fraction: Deserialize::from_value(field("gamma_fraction")?)?,
            step_fraction: Deserialize::from_value(field("step_fraction")?)?,
            bins: Deserialize::from_value(field("bins")?)?,
            levels,
        })
    }
}

impl PlacerConfig {
    /// Paper-faithful configuration (frequency-aware).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            max_iterations: 700,
            min_iterations: 60,
            target_overflow: 0.001,
            lambda_growth: 1.05,
            freq_weight: 1.0,
            freq_growth: 1.05,
            frequency_aware: true,
            gamma_fraction: 0.01,
            step_fraction: 1e-3,
            bins: None,
            levels: 1,
        }
    }

    /// The Classic baseline: the same engine and hyper-parameters with the
    /// frequency force disabled (§V-B).
    #[must_use]
    pub fn classic() -> Self {
        Self {
            frequency_aware: false,
            ..Self::paper()
        }
    }

    /// Reduced configuration for unit tests: small bin grid, few
    /// iterations.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            max_iterations: 200,
            min_iterations: 30,
            bins: Some(32),
            ..Self::paper()
        }
    }
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Outcome of a global placement run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Capacity overflow ([`DensityModel::overflow`]) of the final
    /// positions, from one deposit after the loop.
    pub final_overflow: f64,
    /// Exact half-perimeter wirelength of the result (mm).
    pub hpwl: f64,
    /// Frequency-repulsion energy at the positions of the last gradient
    /// evaluation (0 when the force is disabled, no collisions exist or
    /// no iteration ran). The loop itself never sums it: one full
    /// [`FrequencyForce::energy_grad_into`] after the loop computes it.
    pub freq_energy: f64,
    /// Wall-clock seconds of the run: the `global_place` span, or the
    /// `multilevel_place` span for a V-cycle.
    pub elapsed_seconds: f64,
    /// Capacity overflow sampled every 5 iterations and at the last:
    /// `(iteration, overflow)`. Each value is that iteration's check,
    /// taken on the deposit of the positions its gradient was evaluated
    /// at.
    pub overflow_trace: Vec<(usize, f64)>,
}

/// The frequency-aware electrostatic global placer.
///
/// # Examples
///
/// ```
/// use qplacer_freq::FrequencyAssigner;
/// use qplacer_netlist::{NetlistConfig, QuantumNetlist};
/// use qplacer_place::{GlobalPlacer, PlacerConfig};
/// use qplacer_topology::Topology;
///
/// let device = Topology::from_edges("pair", 2, [(0, 1)]).unwrap();
/// let freqs = FrequencyAssigner::paper_defaults().assign(&device);
/// let mut netlist = QuantumNetlist::build(&device, &freqs, &NetlistConfig::default());
/// let report =
///     GlobalPlacer::new(PlacerConfig::fast()).execute(&mut netlist, Default::default());
/// assert!(report.final_overflow.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct GlobalPlacer {
    config: PlacerConfig,
}

/// Options for [`GlobalPlacer::execute`], the placer's single entry
/// point. `Default` is a cold, untraced run with an internal scratch
/// workspace; each field opts into one capability independently.
#[derive(Default)]
pub struct ExecOptions<'a> {
    /// Caller-owned scratch buffers, reused across runs so steady-state
    /// iterations allocate nothing; `None` builds a fresh
    /// [`PlacerWorkspace`] internally.
    pub workspace: Option<&'a mut PlacerWorkspace>,
    /// Per-iteration convergence trace
    /// ([`TraceRecord::PlaceIteration`]); timing flows only into the
    /// sink, never into the report or the netlist, so traced and
    /// untraced placements are bit-identical.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Warm-start pin mask for the incremental (ECO) path: the
    /// netlist's current positions are the starting point and instances
    /// with `pinned[i]` set never move — they still feed the
    /// wirelength, density, and frequency fields, but their coordinates
    /// are restored after every solver step and, after iteration 0
    /// (which sets the penalty weights from every instance's gradient),
    /// their own gradient is not computed: the frequency force skips
    /// pinned–pinned pairs, the field gather skips pinned instances, and
    /// deposit bands made only of pinned instances are rasterized once
    /// per run. Results are bit-identical to computing and discarding
    /// that work. Warm runs always use the flat (single-level) engine: the
    /// multilevel V-cycle re-clusters globally, which would discard the
    /// warm seed. Must have exactly `netlist.num_instances()` entries.
    pub pinned: Option<&'a [bool]>,
}

impl GlobalPlacer {
    /// Creates a placer with the given configuration.
    #[must_use]
    pub fn new(config: PlacerConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Runs global placement, writing optimized positions back into
    /// `netlist` and returning a [`PlacementReport`]. The single entry
    /// point: workspace reuse, per-iteration tracing
    /// ([`TraceRecord::PlaceIteration`]: iteration index, density
    /// overflow, wirelength-proxy energy, max force norm, density-phase
    /// wall times), and warm-start pinning are all [`ExecOptions`]
    /// fields, each defaulting to off.
    ///
    /// When [`PlacerConfig::levels`] is greater than one and no pin
    /// mask is given, the run goes through the multilevel V-cycle
    /// (coarsen → place → refine); a trace sink then only sees the
    /// final full-resolution refinement.
    ///
    /// # Panics
    ///
    /// Panics if a pin mask is supplied whose length is not
    /// `netlist.num_instances()`.
    pub fn execute(&self, netlist: &mut QuantumNetlist, opts: ExecOptions<'_>) -> PlacementReport {
        let ExecOptions {
            workspace,
            sink,
            pinned,
        } = opts;
        let mut scratch;
        let ws = match workspace {
            Some(ws) => ws,
            None => {
                scratch = PlacerWorkspace::new();
                &mut scratch
            }
        };
        let mut null = NullTraceSink;
        let sink = sink.unwrap_or(&mut null);
        match pinned {
            Some(pinned) => {
                assert_eq!(
                    pinned.len(),
                    netlist.num_instances(),
                    "pin mask does not match netlist"
                );
                self.run_flat(netlist, ws, sink, Some(pinned))
            }
            None if self.config.levels > 1 => {
                crate::multilevel::run_multilevel(self, netlist, ws, sink)
            }
            None => self.run_flat(netlist, ws, sink, None),
        }
    }

    fn run_flat(
        &self,
        netlist: &mut QuantumNetlist,
        ws: &mut PlacerWorkspace,
        sink: &mut dyn TraceSink,
        pinned: Option<&[bool]>,
    ) -> PlacementReport {
        let tracing = sink.is_enabled();
        let span = qplacer_obs::span!("global_place", instances = netlist.num_instances() as u64);
        let cfg = &self.config;
        let region = netlist.region();
        let n = netlist.num_instances();

        let wl = WirelengthModel::new((cfg.gamma_fraction * region.width()).max(1e-4));
        let density = match cfg.bins {
            Some(m) => DensityModel::new(region, m, m),
            None => DensityModel::for_netlist(netlist),
        };
        let freq = cfg.frequency_aware.then(|| FrequencyForce::new(netlist));

        ws.ensure(n, &density);

        // Preconditioner: net degree + area charge per instance; padded
        // half-extents for the region clamp.
        ws.degree.fill(0.0);
        for net in netlist.nets() {
            let (a, b) = net.endpoints();
            ws.degree[a] += net.weight();
            ws.degree[b] += net.weight();
        }
        for (inst, (area, half)) in netlist
            .instances()
            .iter()
            .zip(ws.areas.iter_mut().zip(ws.half_sizes.iter_mut()))
        {
            *area = inst.padded_area();
            *half = (0.5 * inst.padded_mm(), 0.5 * inst.padded_mm());
        }
        ws.gf.fill(0.0); // stays zero when the frequency force is off

        // Pack positions [x…, y…]. One non-finite seed would spread NaN
        // through every force to the whole layout, so a NaN coordinate
        // starts at the region centre and ±∞ is clamped into the region;
        // finite seeds keep their bits.
        let mut x0 = vec![0.0; 2 * n];
        for (i, (p, &(hw, hh))) in netlist.positions().iter().zip(&ws.half_sizes).enumerate() {
            x0[i] = finite_seed(p.x, region.min.x + hw, region.max.x - hw);
            x0[n + i] = finite_seed(p.y, region.min.y + hh, region.max.y - hh);
        }
        // Pinned instances keep their seed coordinates exactly: zero
        // gradient plus a hard restore after each step (the region clamp
        // alone could otherwise nudge them).
        let pins: Vec<(usize, f64, f64)> = pinned
            .map(|mask| {
                mask.iter()
                    .enumerate()
                    .filter(|&(_, &p)| p)
                    .map(|(i, _)| (i, x0[i], x0[n + i]))
                    .collect()
            })
            .unwrap_or_default();
        let mut solver = NesterovSolver::new(x0, cfg.step_fraction * region.width());

        let mut lambda = 0.0;
        let mut lambda_f = 0.0;
        let mut initialized = false;
        let mut iterations = 0;
        // One trace entry every 5 iterations, plus the last, reserved up
        // front so steady-state iterations allocate nothing.
        let mut trace = Vec::with_capacity(cfg.max_iterations.min(TRACE_RESERVE_CAP) / 5 + 2);
        // Warm runs stop once positions stall between two iterations:
        // further iterations cannot help. A warm seed is already legal,
        // so its capacity overflow reads about 0 from the start and the
        // overflow target would cut every warm run at its floor; the
        // few unpinned instances either settle in a handful of
        // iterations or never will. Cold runs stop on the overflow
        // target alone.
        let stall_tolerance = (pinned.is_some()).then(|| WARM_STALL_FRACTION * region.width());
        let mut last_checked: Vec<f64> = Vec::new();

        let (_, _, density_ws) = ws.density.as_mut().expect("ensured above");
        // Pinned coordinates never change within the run, so deposit
        // bands made only of pinned instances are rasterized once.
        density_ws.begin_run(pinned);

        for iter in 0..cfg.max_iterations {
            PlacerWorkspace::unpack(&mut ws.positions, solver.reference());
            let ewl = {
                let _span = qplacer_obs::span!("wirelength");
                wl.energy_grad_into(netlist, &ws.positions, &mut ws.gwl)
            };
            // Iteration 0 sets λ and λ_f from every instance's gradient;
            // after it, pinned slots are zeroed below, so the density
            // gather and the frequency force skip them.
            let mask = if iter == 0 { None } else { pinned };
            // Gradient-only density solve: the loop never consumes the
            // density energy, so the ψ inverse transform is skipped.
            let [deposit_ns, poisson_ns, gather_ns] =
                density.grad_into_with(netlist, &ws.positions, &mut ws.gd, density_ws, mask);
            if let Some(f) = &freq {
                let _span = qplacer_obs::span!("freq_force");
                f.grad_into(&ws.positions, &mut ws.gf, mask);
            }

            if !initialized {
                let norm = |g: &[f64]| g.iter().map(|v| v.abs()).sum::<f64>().max(1e-12);
                lambda = norm(&ws.gwl) / norm(&ws.gd);
                let gf_norm = ws.gf.iter().map(|v| v.abs()).sum::<f64>();
                lambda_f = if gf_norm > 1e-12 {
                    cfg.freq_weight * norm(&ws.gwl) / gf_norm
                } else {
                    0.0
                };
                initialized = true;
            }

            let step_span = qplacer_obs::span!("nesterov_step");
            for i in 0..2 * n {
                let inst = i % n;
                let precond = (ws.degree[inst] + lambda * ws.areas[inst]).max(1e-6);
                ws.grad[i] = (ws.gwl[i] + lambda * ws.gd[i] + lambda_f * ws.gf[i]) / precond;
            }
            for &(i, _, _) in &pins {
                ws.grad[i] = 0.0;
                ws.grad[n + i] = 0.0;
            }
            solver.step(&ws.grad);

            // Clamp into the region (keeps footprints inside).
            let half_sizes = &ws.half_sizes;
            let pins = &pins;
            solver.override_position(|flat| {
                for (i, &(hw, hh)) in half_sizes.iter().enumerate() {
                    flat[i] = flat[i].clamp(region.min.x + hw, region.max.x - hw);
                    flat[n + i] = flat[n + i].clamp(region.min.y + hh, region.max.y - hh);
                }
                for &(i, x, y) in pins {
                    flat[i] = x;
                    flat[n + i] = y;
                }
            });
            // The cached deposit bands rely on this: both iterates hold
            // every pinned coordinate bit for bit.
            debug_assert!(pins.iter().all(|&(i, x, y)| {
                [solver.position(), solver.reference()].iter().all(|flat| {
                    flat[i].to_bits() == x.to_bits() && flat[n + i].to_bits() == y.to_bits()
                })
            }));
            drop(step_span);

            lambda *= cfg.lambda_growth;
            lambda_f *= cfg.freq_growth;
            iterations = iter + 1;

            // The gradient deposited this iteration's reference point
            // into `density_ws` and the solve only read the map, so the
            // check is one scan of it.
            let overflow = {
                let _span = qplacer_obs::span!("overflow_check", iter = iter);
                density.scan_overflow(netlist, density_ws)
            };
            // Warm runs compare positions on every iteration, floor or
            // not, so the stall test has a previous iterate once it counts.
            let stalled = stall_tolerance.map(|tol| {
                let pos = solver.position();
                let stalled = !last_checked.is_empty()
                    && pos
                        .iter()
                        .zip(&last_checked)
                        .all(|(now, then)| (now - then).abs() < tol);
                last_checked.clear();
                last_checked.extend_from_slice(pos);
                stalled
            });
            let converged =
                iter >= cfg.min_iterations && stalled.unwrap_or(overflow < cfg.target_overflow);
            if iter % 5 == 0 || iter + 1 == cfg.max_iterations || converged {
                trace.push((iter, overflow));
            }
            if tracing {
                let max_force = ws.grad.iter().fold(0.0f64, |acc, &g| acc.max(g.abs()));
                sink.record(&TraceRecord::PlaceIteration {
                    iteration: iter as u32,
                    overflow,
                    wirelength: ewl,
                    max_force,
                    deposit_ns,
                    poisson_ns,
                    gather_ns,
                });
            }
            if converged {
                break;
            }
        }

        // `ws.positions` still holds the last gradient evaluation's
        // positions, so the energy matches the final gradient.
        let freq_energy = match &freq {
            Some(f) if iterations > 0 => {
                let _span = qplacer_obs::span!("freq_force");
                f.energy_grad_into(&ws.positions, &mut ws.gf)
            }
            _ => 0.0,
        };
        PlacerWorkspace::unpack(&mut ws.positions, solver.position());
        netlist.set_positions(&ws.positions);
        let hpwl = exact_hpwl(netlist, &ws.positions);
        let overflow = density.overflow_with(netlist, &ws.positions, density_ws);
        density_ws.end_run();

        PlacementReport {
            iterations,
            final_overflow: overflow,
            hpwl,
            freq_energy,
            elapsed_seconds: span.finish().as_secs_f64(),
            overflow_trace: trace,
        }
    }
}

/// A seed coordinate the loop can start from: NaN becomes the middle of
/// `[lo, hi]`, ±∞ is clamped into it, and a finite `v` keeps its bits.
fn finite_seed(v: f64, lo: f64, hi: f64) -> f64 {
    if v.is_nan() {
        0.5 * (lo + hi)
    } else if v.is_infinite() {
        v.clamp(lo, hi)
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_netlist::NetlistConfig;
    use qplacer_topology::Topology;

    fn build(t: &Topology) -> QuantumNetlist {
        let freqs = FrequencyAssigner::paper_defaults().assign(t);
        QuantumNetlist::build(t, &freqs, &NetlistConfig::with_segment_size(0.4))
    }

    #[test]
    fn warm_run_never_moves_pinned_instances() {
        let t = Topology::grid(3, 3);
        let mut nl = build(&t);
        let _ = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, Default::default());
        let before: Vec<_> = nl.positions().to_vec();
        // Pin the first half of the instances, free the rest.
        let pinned: Vec<bool> = (0..nl.num_instances())
            .map(|i| i < nl.num_instances() / 2)
            .collect();
        let mut ws = PlacerWorkspace::default();
        let _ = GlobalPlacer::new(PlacerConfig::fast()).execute(
            &mut nl,
            ExecOptions {
                workspace: Some(&mut ws),
                pinned: Some(&pinned),
                ..Default::default()
            },
        );
        for (i, (&p, &was)) in nl.positions().iter().zip(before.iter()).enumerate() {
            if pinned[i] {
                assert_eq!((p.x, p.y), (was.x, was.y), "pinned instance {i} moved");
            }
        }
    }

    #[test]
    fn warm_run_with_all_pinned_is_a_fixed_point() {
        let t = Topology::grid(3, 3);
        let mut nl = build(&t);
        let _ = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, Default::default());
        let before: Vec<_> = nl.positions().to_vec();
        let pinned = vec![true; nl.num_instances()];
        let mut ws = PlacerWorkspace::default();
        let report = GlobalPlacer::new(PlacerConfig::fast()).execute(
            &mut nl,
            ExecOptions {
                workspace: Some(&mut ws),
                pinned: Some(&pinned),
                ..Default::default()
            },
        );
        assert!(report.iterations >= 1);
        for (&p, &was) in nl.positions().iter().zip(before.iter()) {
            assert_eq!((p.x, p.y), (was.x, was.y));
        }
    }

    #[test]
    fn placement_reduces_overflow() {
        let t = Topology::grid(3, 3);
        let mut nl = build(&t);
        let density = DensityModel::new(nl.region(), 32, 32);
        let before = density.overflow(&nl, nl.positions());
        let report = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, Default::default());
        assert!(
            report.final_overflow < before * 0.5,
            "overflow {} -> {}",
            before,
            report.final_overflow
        );
    }

    #[test]
    fn classic_stops_once_capacity_overflow_reaches_the_target() {
        let t = Topology::grid(3, 3);
        let mut nl = build(&t);
        let cfg = PlacerConfig {
            frequency_aware: false,
            ..PlacerConfig::fast()
        };
        let report = GlobalPlacer::new(cfg).execute(&mut nl, Default::default());
        assert!(
            report.iterations < cfg.max_iterations,
            "Classic ran its whole budget of {}",
            report.iterations
        );
        // The stopping iteration's check is the last trace entry.
        let &(last, overflow) = report.overflow_trace.last().unwrap();
        assert_eq!(last + 1, report.iterations);
        assert!(last >= cfg.min_iterations && overflow < cfg.target_overflow);
    }

    #[test]
    fn instances_stay_inside_region() {
        let t = Topology::grid(3, 3);
        let mut nl = build(&t);
        let _ = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, Default::default());
        let region = nl.region();
        for inst in nl.instances() {
            let r = nl.padded_rect(inst.id());
            assert!(
                region.inflated(1e-6).contains_rect(&r),
                "instance {} escaped: {r}",
                inst.id()
            );
        }
    }

    #[test]
    fn frequency_aware_separates_resonant_qubits_better() {
        let t = Topology::grid(3, 3);

        let mut aware = build(&t);
        let mut classic = aware.clone();
        let _ = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut aware, Default::default());
        let mut cfg = PlacerConfig::fast();
        cfg.frequency_aware = false;
        let _ = GlobalPlacer::new(cfg).execute(&mut classic, Default::default());

        // Average clearance between near-resonant pairs should be larger
        // (or at least not worse) under the frequency-aware engine.
        let mean_resonant_gap = |nl: &QuantumNetlist| {
            let map = nl.collision_map();
            let mut total = 0.0;
            let mut count = 0usize;
            for (i, partners) in map.iter().enumerate() {
                for &j in partners {
                    if j > i {
                        total += nl.position(i).distance(nl.position(j));
                        count += 1;
                    }
                }
            }
            total / count.max(1) as f64
        };
        let g_aware = mean_resonant_gap(&aware);
        let g_classic = mean_resonant_gap(&classic);
        assert!(
            g_aware > g_classic * 0.95,
            "aware {g_aware} vs classic {g_classic}"
        );
    }

    #[test]
    fn classic_config_disables_force() {
        let cfg = PlacerConfig::classic();
        assert!(!cfg.frequency_aware);
        assert_eq!(cfg.max_iterations, PlacerConfig::paper().max_iterations);
    }

    #[test]
    fn report_accounting_is_consistent() {
        let t = Topology::from_edges("tri", 3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut nl = build(&t);
        let report = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, Default::default());
        assert!(report.iterations >= 1);
        assert!(report.elapsed_seconds > 0.0);
        assert!(!report.overflow_trace.is_empty());
        assert!(report.hpwl > 0.0);
    }

    #[test]
    fn deterministic_given_same_input() {
        let t = Topology::grid(2, 2);
        let mut a = build(&t);
        let mut b = a.clone();
        let ra = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut a, Default::default());
        let rb = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut b, Default::default());
        assert_eq!(ra.iterations, rb.iterations);
        assert_eq!(a.positions(), b.positions());
    }
}

#[cfg(test)]
mod schedule_tests {
    use super::*;
    use qplacer_freq::FrequencyAssigner;
    use qplacer_netlist::NetlistConfig;
    use qplacer_topology::Topology;

    #[test]
    fn overflow_trace_trends_downward() {
        let t = Topology::grid(3, 3);
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::with_segment_size(0.4));
        let report = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, Default::default());
        let trace = &report.overflow_trace;
        assert!(trace.len() >= 2);
        // The penalty schedule must reduce overflow substantially from the
        // centered start to the end (not necessarily monotonically).
        let first = trace.first().unwrap().1;
        let last = trace.last().unwrap().1;
        assert!(
            last < 0.7 * first,
            "overflow barely moved: {first} -> {last}"
        );
        // Iterations in the trace are strictly increasing.
        assert!(trace.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = PlacerConfig {
            levels: 3,
            ..PlacerConfig::paper()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: PlacerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn config_missing_levels_deserializes_flat() {
        // Configs serialized before the multilevel engine existed have
        // no `levels` field; they must come back as flat placements.
        let serde::Value::Map(fields) = PlacerConfig::paper().to_value() else {
            panic!("config serializes as a map")
        };
        let stripped: Vec<_> = fields
            .into_iter()
            .filter(|(k, _)| k.as_str() != "levels")
            .collect();
        let back = PlacerConfig::from_value(&serde::Value::Map(stripped)).unwrap();
        assert_eq!(back, PlacerConfig::paper());
    }

    #[test]
    fn report_serde_roundtrip() {
        let t = Topology::from_edges("pair", 2, [(0, 1)]).unwrap();
        let freqs = FrequencyAssigner::paper_defaults().assign(&t);
        let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
        let report = GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, Default::default());
        let json = serde_json::to_string(&report).unwrap();
        let back: PlacementReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report.iterations, back.iterations);
        assert_eq!(report.overflow_trace.len(), back.overflow_trace.len());
    }
}
