//! Traced runs: the per-layer metrics. Every figure is timed from the
//! benchmark's side around one public call into a crate; none reads the
//! program's own timers.
//!
//! Each traced run first times one untraced `Qplacer::execute` of the
//! workload's job, then replays the same job stage by stage
//! (`assign_with` → `QuantumNetlist::build` → `GlobalPlacer::execute` →
//! `Legalizer::run_with`) and checks that the replay's positions are
//! bit-identical to the execute call's, so the layer figures describe
//! the program the end-to-end run measures. The Eq. 14 kernels are then
//! timed at positions sampled along that run: the start, a capped
//! `max_iterations` prefix, and the end of global placement.

use std::path::Path;
use std::time::Instant;

use qplacer_freq::FreqWorkspace;
use qplacer_geometry::Point;
use qplacer_harness::{
    DeviceSpec, ExecOptions, PipelineConfig, PipelineWorkspace, PlacedLayout, Qplacer, Strategy,
};
use qplacer_legal::LegalWorkspace;
use qplacer_metrics::{evaluate_benchmark, HotspotReport};
use qplacer_netlist::QuantumNetlist;
use qplacer_numeric::{NesterovSolver, PoissonField, PoissonSolver};
use qplacer_place::{DensityModel, FrequencyForce, GlobalPlacer, PlacerWorkspace, WirelengthModel};
use qplacer_service::{cache_key, DurableStore, PlaceJob, PlacementResult, Reply, Request};
use qplacer_topology::Topology;

use crate::cold::{layout_ok, warm_up, ColdSpec};
use crate::inputs::{eco_stream, miss_jobs, subset_seed, working_set};
use crate::report::Outcome;
use crate::serve::{self, check_phase, Generator, BASE_RATE, MISS_EVERY};
use crate::stats::{
    attributed_frac, mean, median, ms, per_call_us, percentile, timed, KernelTable,
};
use crate::{Args, Scratch};

/// Wall-time budget per kernel and position sample; the repetition
/// count follows from the first call's cost.
const KERNEL_BUDGET_S: f64 = 0.12;
/// Topology edits re-placed per traced run.
const TRACED_EDITS: usize = 8;

/// One stage-by-stage replay of a pipeline run.
struct Replay {
    assign_ms: f64,
    build_ms: f64,
    global_s: f64,
    legalize_ms: f64,
    iterations: usize,
    /// Wall time of the whole replay, bench work between calls included.
    total_ms: f64,
    /// Bench time between consecutive timed calls (ms).
    gaps_ms: Vec<f64>,
    /// The netlist as built, before global placement.
    built: QuantumNetlist,
    /// Positions after global placement.
    global_positions: Vec<Point>,
    /// Positions after legalization.
    final_positions: Vec<Point>,
    /// Residual overlaps after legalization.
    overlaps: usize,
}

fn replay(device: &Topology, config: &PipelineConfig, strategy: Strategy) -> Replay {
    let start = Instant::now();
    let mut gaps_ms = Vec::new();
    let mut last_end = start;
    let mut stage = |f: &mut dyn FnMut()| -> f64 {
        let t = Instant::now();
        gaps_ms.push(ms(t - last_end));
        f();
        last_end = Instant::now();
        ms(last_end - t)
    };

    let mut fws = FreqWorkspace::default();
    let mut assignment = None;
    let assign_ms = stage(&mut || assignment = Some(config.assigner.assign_with(device, &mut fws)));
    let assignment = assignment.expect("assigned");
    let mut built = None;
    let build_ms =
        stage(&mut || built = Some(QuantumNetlist::build(device, &assignment, &config.netlist)));
    let built = built.expect("built");

    let mut netlist = built.clone();
    let mut placer_cfg = config.placer;
    placer_cfg.frequency_aware = strategy == Strategy::FrequencyAware;
    let mut pws = PlacerWorkspace::new();
    let mut report = None;
    let global_ms = stage(&mut || {
        report = Some(GlobalPlacer::new(placer_cfg).execute(
            &mut netlist,
            qplacer_place::ExecOptions {
                workspace: Some(&mut pws),
                ..Default::default()
            },
        ));
    });
    let iterations = report.expect("placed").iterations;
    let global_positions = netlist.positions().to_vec();

    let mut legalizer = config.legalizer;
    if strategy == Strategy::Classic {
        legalizer = legalizer.with_resonant_margin(0.0);
    }
    let mut lws = LegalWorkspace::new();
    let mut overlaps = 0;
    let legalize_ms = stage(&mut || {
        overlaps = legalizer
            .run_with(&mut netlist, &mut lws)
            .remaining_overlaps
    });
    Replay {
        assign_ms,
        build_ms,
        global_s: global_ms / 1e3,
        legalize_ms,
        iterations,
        total_ms: ms(start.elapsed()),
        gaps_ms,
        built,
        global_positions,
        final_positions: netlist.positions().to_vec(),
        overlaps,
    }
}

fn bit_identical(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
}

/// Per-call microseconds of `f`, repeated to fill the kernel budget.
fn sample_us(mut f: impl FnMut()) -> Vec<f64> {
    let first = per_call_us(1, &mut f)[0];
    let reps = ((KERNEL_BUDGET_S * 1e6 / first.max(1.0)) as usize).clamp(4, 400);
    per_call_us(reps, f)
}

/// Times the Eq. 14 kernels of `built` under `placer` at the start, at
/// a capped prefix of `prefix_iterations`, and at `final_positions`.
fn kernels(
    out: &mut Outcome,
    built: &QuantumNetlist,
    config: &PipelineConfig,
    prefix_iterations: usize,
    final_positions: &[Point],
) -> KernelTable {
    // The prefix runs flat: a capped flat run reproduces the first
    // iterations of the cold run exactly (and stays cheap at d10).
    let mut prefix_cfg = config.placer;
    prefix_cfg.levels = 1;
    prefix_cfg.max_iterations = prefix_iterations.max(1);
    let mut prefix = built.clone();
    let _ = GlobalPlacer::new(prefix_cfg).execute(&mut prefix, Default::default());
    let samples = [
        built.positions().to_vec(),
        prefix.positions().to_vec(),
        final_positions.to_vec(),
    ];

    let cfg = &config.placer;
    let region = built.region();
    let n = built.num_instances();
    let wl = WirelengthModel::new((cfg.gamma_fraction * region.width()).max(1e-4));
    let density = match cfg.bins {
        Some(m) => DensityModel::new(region, m, m),
        None => DensityModel::for_netlist(built),
    };
    let mut dws = density.workspace();
    let (nx, ny) = density.dims();
    let poisson = PoissonSolver::new(nx, ny);
    let mut field = PoissonField::zeros(nx, ny);
    let mut scratch = poisson.make_scratch();

    let mut build_ms = Vec::new();
    let mut force = None;
    for _ in 0..3 {
        let (f, t) = timed(|| FrequencyForce::new(built));
        build_ms.push(t);
        force = Some(f);
    }
    let force = force.expect("built");
    out.set("place.freq_pairs", force.pair_count() as f64);

    let (mut wl_us, mut dgrad_us, mut deposit_us, mut poisson_us) =
        (vec![], vec![], vec![], vec![]);
    let (mut overflow_us, mut force_us, mut step_us) = (vec![], vec![], vec![]);
    let mut g_wl = vec![0.0; 2 * n];
    let mut g_d = vec![0.0; 2 * n];
    let mut g_f = vec![0.0; 2 * n];
    for positions in &samples {
        wl_us.extend(sample_us(|| {
            wl.energy_grad_into(built, positions, &mut g_wl);
        }));
        dgrad_us.extend(sample_us(|| {
            density.grad_into(built, positions, &mut g_d, &mut dws)
        }));
        deposit_us.extend(sample_us(|| {
            density.rasterize_into(built, positions, &mut dws)
        }));
        let rho = dws.rho().clone();
        poisson_us.extend(sample_us(|| {
            poisson.solve_into(&rho, &mut field, &mut scratch)
        }));
        overflow_us.extend(sample_us(|| {
            std::hint::black_box(density.overflow_with(built, positions, &mut dws));
        }));
        force_us.extend(sample_us(|| {
            std::hint::black_box(force.energy_grad_into(positions, &mut g_f));
        }));
        let flat: Vec<f64> = positions
            .iter()
            .map(|p| p.x)
            .chain(positions.iter().map(|p| p.y))
            .collect();
        let mut solver = NesterovSolver::new(flat, cfg.step_fraction * region.width());
        let mut flip = false;
        step_us.extend(sample_us(|| {
            flip = !flip;
            solver.step(if flip { &g_d } else { &g_wl });
        }));
    }
    let table = KernelTable {
        wirelength_us: median(&wl_us),
        density_grad_us: median(&dgrad_us),
        freq_force_us: median(&force_us),
        nesterov_step_us: median(&step_us),
        overflow_us: median(&overflow_us),
        freq_force_build_ms: median(&build_ms),
    };
    out.set("place.wirelength_us", table.wirelength_us);
    out.set("place.density_grad_us", table.density_grad_us);
    out.set("place.density_deposit_us", median(&deposit_us));
    out.set("numeric.poisson_us", median(&poisson_us));
    out.set("place.overflow_us", table.overflow_us);
    out.set("place.freq_force_us", table.freq_force_us);
    out.set("place.freq_force_build_ms", table.freq_force_build_ms);
    out.set("numeric.nesterov_step_us", table.nesterov_step_us);
    table
}

/// The pipeline layers of one job: untraced execute, stage replay with
/// the bit-identity gate, the Classic arm's legalization, and the
/// kernels. Returns the untraced layout and its wall time.
fn pipeline_layers(
    out: &mut Outcome,
    device: &Topology,
    config: &PipelineConfig,
) -> (PlacedLayout, f64) {
    let engine = Qplacer::new(*config);
    let mut ws = PipelineWorkspace::new();
    let (layout, exec_ms) = timed(|| {
        engine.execute(
            device,
            Strategy::FrequencyAware,
            ExecOptions {
                workspace: Some(&mut ws),
                ..Default::default()
            },
        )
    });
    let legal = layout_ok(out, &layout, "untraced execute");
    out.op(legal);

    let rep = replay(device, config, Strategy::FrequencyAware);
    let identical = bit_identical(&rep.final_positions, layout.netlist.positions());
    out.check(identical, || {
        "stage replay differs from Qplacer::execute".to_string()
    });
    out.check(rep.overlaps == 0, || {
        format!("replay left {} overlaps", rep.overlaps)
    });
    out.op(identical && rep.overlaps == 0);
    out.set("freq.assign_ms", rep.assign_ms);
    out.set("netlist.build_ms", rep.build_ms);
    out.set("place.global_s", rep.global_s);
    out.set("place.iterations", rep.iterations as f64);
    out.set("legal.legalize_ms", rep.legalize_ms);
    out.set(
        "legal.overlaps",
        layout.netlist.overlapping_pairs().len() as f64,
    );
    out.set("bench.trace_overhead_frac", rep.total_ms / exec_ms - 1.0);
    out.set("bench.gen_late_p99_ms", percentile(&rep.gaps_ms, 99.0));

    let classic = replay(device, config, Strategy::Classic);
    out.check(classic.overlaps == 0, || {
        format!("classic replay left {} overlaps", classic.overlaps)
    });
    out.op(classic.overlaps == 0);
    out.set("legal.legalize_classic_ms", classic.legalize_ms);

    let prefix = if config.placer.levels > 1 {
        30
    } else {
        rep.iterations / 2
    };
    let table = kernels(out, &rep.built, config, prefix, &rep.global_positions);
    out.set(
        "place.attributed_frac",
        attributed_frac(
            &table,
            rep.iterations,
            config.placer.max_iterations,
            rep.global_s,
        ),
    );
    (layout, exec_ms)
}

/// `evaluate_benchmark` and `HotspotReport::scan` on a layout.
fn metrics_layers(
    out: &mut Outcome,
    layout: &PlacedLayout,
    device: &Topology,
    config: &PipelineConfig,
    circuit: &str,
    subsets: usize,
    seed: u64,
) {
    let circuit = qplacer_circuits::benchmark_by_name(circuit)
        .expect("paper circuit")
        .circuit;
    let mut evaluate_ms = Vec::new();
    for k in 0..3 {
        let (eval, t) = timed(|| {
            evaluate_benchmark(
                &layout.netlist,
                device,
                &circuit,
                subsets,
                subset_seed(seed, k),
                &config.fidelity,
            )
        });
        out.check(eval.fidelities.iter().all(|f| *f > 0.0), || {
            "zero fidelity".to_string()
        });
        evaluate_ms.push(t);
    }
    out.set("metrics.evaluate_ms", median(&evaluate_ms));
    let hotspot_us = sample_us(|| {
        std::hint::black_box(HotspotReport::scan(
            &layout.netlist,
            &config.fidelity.hotspot,
        ));
    });
    out.set("metrics.hotspot_ms", median(&hotspot_us) / 1e3);
}

/// Seeded topology edits re-placed warm from `layout`. Returns the
/// warm runs' mean global-placement iterations.
fn replace_layers(
    out: &mut Outcome,
    device: &Topology,
    config: &PipelineConfig,
    layout: &PlacedLayout,
    seed: u64,
) -> f64 {
    let engine = Qplacer::new(*config);
    let mut ws = PipelineWorkspace::new();
    let (mut delta_us, mut replace_ms) = (Vec::new(), Vec::new());
    let (mut dirty, mut pinned, mut moved, mut iterations) = (vec![], vec![], vec![], vec![]);
    for (i, edit) in eco_stream(device, seed, TRACED_EDITS)
        .into_iter()
        .enumerate()
    {
        delta_us.extend(sample_us(|| {
            std::hint::black_box(edit.delta(device));
        }));
        let delta = edit.delta(device);
        let (replaced, t) = timed(|| {
            engine.execute_replace(
                device,
                layout,
                &delta,
                ExecOptions {
                    workspace: Some(&mut ws),
                    ..Default::default()
                },
            )
        });
        match replaced {
            Ok((new_layout, report)) => {
                let legal = layout_ok(out, &new_layout, &format!("traced edit {i}"));
                out.op(legal);
                replace_ms.push(t);
                dirty.push(report.dirty_qubits as f64);
                pinned.push(report.pinned_instances as f64);
                moved.push(report.moved_instances as f64);
                iterations.push(new_layout.placement.as_ref().map_or(0, |p| p.iterations) as f64);
            }
            Err(e) => {
                out.op(false);
                out.check(false, || format!("traced edit {i} {edit:?}: {e}"));
            }
        }
    }
    out.set("topology.delta_us", median(&delta_us));
    out.set("harness.replace_ms", median(&replace_ms));
    out.set("harness.replace_dirty", mean(&dirty));
    out.set("harness.replace_pinned", mean(&pinned));
    out.set("harness.replace_moved", mean(&moved));
    mean(&iterations)
}

/// The service hops of `jobs`, in process: request parse, cache key,
/// reply serialization and the durable-store append of `result`.
fn service_layers(
    out: &mut Outcome,
    jobs: &[PlaceJob],
    result: &PlacementResult,
    scratch: &Scratch,
) {
    let lines: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(id, job)| {
            Request::Place {
                id: id as u64,
                job: job.clone(),
                trace_id: None,
            }
            .to_line()
        })
        .collect();
    let mut parse_us = Vec::new();
    for line in &lines {
        parse_us.extend(sample_us(|| {
            std::hint::black_box(Request::parse(line).expect("request parses"));
        }));
    }
    out.set("service.parse_us", median(&parse_us));
    let mut key_us = Vec::new();
    for job in jobs {
        key_us.extend(sample_us(|| {
            std::hint::black_box(cache_key(job));
        }));
    }
    out.set("service.cache_key_us", median(&key_us));
    let reply = Reply::Placed {
        id: 1,
        cached: true,
        wall_ms: 0.1,
        trace_id: None,
        result: result.clone(),
    };
    out.set(
        "service.reply_serialize_us",
        median(&sample_us(|| {
            std::hint::black_box(reply.to_line());
        })),
    );
    match DurableStore::open(scratch.path().join("store-probe")) {
        Ok(store) => {
            let key = cache_key(&jobs[0]);
            let mut ok = true;
            let append_us = sample_us(|| ok &= store.append(key, result).is_ok());
            out.check(ok, || "durable-store append failed".to_string());
            out.set("service.store_append_us", median(&append_us));
        }
        Err(e) => out.check(false, || format!("opening the probe store: {e}")),
    }
}

/// Daemon counters for workloads without a daemon.
fn no_daemon(out: &mut Outcome) {
    for name in [
        "service.cache_hit_rate",
        "service.jobs_per_batch",
        "service.rejected_busy",
        "service.store_appended",
    ] {
        out.set(name, 0.0);
    }
}

/// The traced layers of a cold workload; also returns the mean
/// iterations of the warm (ECO) re-placements.
fn traced_cold(spec: &ColdSpec, args: &Args, scratch: &Scratch) -> (Outcome, f64) {
    let mut out = Outcome::new();
    warm_up();
    let device = (spec.device)();
    let config = spec.config();
    let (layout, exec_ms) = pipeline_layers(&mut out, &device, &config);
    metrics_layers(
        &mut out,
        &layout,
        &device,
        &config,
        spec.circuit,
        spec.subsets,
        args.seed,
    );
    let warm_iterations = replace_layers(&mut out, &device, &config, &layout, args.seed);
    // The workload's job as a service request: a paper-profile
    // placement of the same device.
    let job = PlaceJob::new(
        DeviceSpec::parse(spec.zoo_name).expect("zoo device"),
        Strategy::FrequencyAware,
    );
    let result = PlacementResult::from_layout(spec.zoo_name, &layout);
    service_layers(&mut out, &[job], &result, scratch);
    out.set("service.miss_pipeline_ms", exec_ms);
    no_daemon(&mut out);
    (out, warm_iterations)
}

/// Traced run of `cold_eagle` / `cold_hh_d10`.
pub fn run_cold(spec: &ColdSpec, args: &Args, scratch: &Scratch) -> Outcome {
    traced_cold(spec, args, scratch).0
}

/// Traced run of `eco_eagle`: the cold Eagle layers, with the placer
/// iteration count taken from the warm re-placements' reports.
pub fn run_eco(args: &Args, scratch: &Scratch) -> Outcome {
    let (mut out, warm_iterations) = traced_cold(&crate::cold::EAGLE, args, scratch);
    out.set("place.iterations", warm_iterations);
    out
}

/// Traced run of `serve_mix`.
///
/// # Errors
///
/// When the daemon cannot be built, started or driven.
pub fn run_serve(args: &Args, root: &Path, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    warm_up();
    let misses = miss_jobs(args.seed, 4096);
    let miss = &misses[0];
    let device = miss.device.build();
    let config = miss.pipeline_config();
    let (layout, _) = pipeline_layers(&mut out, &device, &config);
    let mut miss_ms = Vec::new();
    for job in &misses[1..6] {
        let (placed, t) = timed(|| {
            Qplacer::new(job.pipeline_config()).execute(
                &job.device.build(),
                job.strategy,
                ExecOptions::default(),
            )
        });
        let legal = layout_ok(&mut out, &placed, "miss pipeline");
        out.op(legal);
        miss_ms.push(t);
    }
    out.set("service.miss_pipeline_ms", median(&miss_ms));
    metrics_layers(&mut out, &layout, &device, &config, "bv-4", 50, args.seed);
    replace_layers(&mut out, &device, &config, &layout, args.seed);

    let mut jobs = working_set();
    jobs.extend(misses[..16].iter().cloned());
    service_layers(
        &mut out,
        &jobs,
        &PlacementResult::from_layout("grid-3x3", &layout),
        scratch,
    );

    // The daemon's own counters after a short base-rate phase.
    let bin = serve::daemon_binary(root)?;
    let warm = serve::start_warm(&bin, &scratch.path().join("traced"), &mut out)?;
    let mut gen = Generator::connect(&warm.daemon.addr, &warm.jobs, &misses[16..])?;
    let base = gen.phase(
        args.seed,
        0,
        BASE_RATE,
        (0.25 * args.seconds).max(2.0),
        MISS_EVERY,
    )?;
    check_phase(&mut out, &base, "traced base rate");
    out.attempted += base.sent;
    out.failed += base.busy + base.errors + base.wrong_kind + base.unanswered;
    drop(gen);
    let stats = serve::stats(&warm.daemon)?;
    warm.daemon.shutdown()?;
    out.set("service.cache_hit_rate", stats.cache_hit_rate);
    out.set(
        "service.jobs_per_batch",
        stats.batched_jobs as f64 / stats.batches.max(1) as f64,
    );
    out.set("service.rejected_busy", stats.rejected_busy as f64);
    out.set("service.store_appended", stats.store_appended as f64);
    out.set("bench.gen_late_p99_ms", percentile(&base.late_ms, 99.0));
    Ok(out)
}
