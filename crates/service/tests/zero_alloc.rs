//! Steady-state serving must not allocate in the pipeline hot path.
//!
//! A service worker's state is one persistent [`PipelineWorkspace`];
//! after a warm-up request sizes every buffer, the stages where a
//! request spends its time must honor the PR 2/3 counting-allocator
//! contract through that workspace:
//!
//! - frequency assignment (`assign_into`): **zero** allocations,
//! - legalization (`Legalizer::run_with`): **zero** allocations,
//! - the global-placement iteration kernels (wirelength / density /
//!   frequency gradients, overflow scan): **zero** allocations,
//! - the full `GlobalPlacer::execute` envelope: a *constant* per-run
//!   allocation count (model + report construction), independent of
//!   how many requests the worker already served — i.e. no steady-state
//!   buffer growth.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide, so the tests in this file take turns:
/// a test running alongside would add its allocations to the other's
/// measurement windows.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

use qplacer_freq::FrequencyAssigner;
use qplacer_harness::{PipelineConfig, PipelineWorkspace};
use qplacer_netlist::QuantumNetlist;
use qplacer_obs::{RingTraceSink, TraceSink};
use qplacer_place::{DensityModel, FrequencyForce, GlobalPlacer, WirelengthModel};
use qplacer_topology::Topology;

#[test]
fn steady_state_worker_pipeline_does_not_allocate() {
    let _serial = serial();
    let device = Topology::falcon27();
    let config = PipelineConfig::fast();
    let mut ws = PipelineWorkspace::new();

    // A 1-thread pool keeps every stage on this thread; the place and
    // legal crates' zero-alloc tests cover their kernels on a 2-thread
    // pool.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    pool.install(|| {
        // Warm-up "request": size every stage buffer the way a worker's
        // first job does.
        let assigner = FrequencyAssigner::paper_defaults();
        let mut assignment = assigner.assign_with(&device, &mut ws.freq);
        let mut netlist = QuantumNetlist::build(&device, &assignment, &config.netlist);
        let placer = GlobalPlacer::new(config.placer);
        let _ = placer.execute(
            &mut netlist,
            qplacer_place::ExecOptions {
                workspace: Some(&mut ws.placer),
                ..Default::default()
            },
        );
        // Pre-legalization snapshot: every steady-state rerun below
        // replays the stages on this same input.
        let placed: Vec<_> = netlist.positions().to_vec();
        let warm = config.legalizer.run_with(&mut netlist, &mut ws.legal);
        assert_eq!(warm.remaining_overlaps, 0);
        assert_eq!(warm.integrated_after, warm.resonator_count);

        // Stage 1 — frequency assignment through the worker workspace.
        let (count, ()) = allocations(|| {
            assigner.assign_into(&device, &mut ws.freq, &mut assignment);
        });
        assert_eq!(count, 0, "frequency assignment allocated {count} times");

        // Stage 3 (checked early, while the netlist still carries a
        // fresh placement) — legalization through the worker workspace.
        netlist.set_positions(&placed);
        let (count, report) =
            allocations(|| config.legalizer.run_with(&mut netlist, &mut ws.legal));
        assert_eq!(report.remaining_overlaps, 0);
        assert_eq!(count, 0, "legalization allocated {count} times");

        // Stage 2 — the placement iteration kernels (where a request
        // spends nearly all its time).
        let n = netlist.num_instances();
        let wl = WirelengthModel::new(0.05);
        let density = DensityModel::for_netlist(&netlist);
        let freq = FrequencyForce::new(&netlist);
        let mut dws = density.workspace();
        let mut grad = vec![0.0; 2 * n];
        let positions: Vec<_> = netlist.positions().to_vec();
        // Warm the kernel-scratch buffers.
        let _ = wl.energy_grad_into(&netlist, &positions, &mut grad);
        let _ = density.energy_grad_into(&netlist, &positions, &mut grad, &mut dws);
        let _ = freq.energy_grad_into(&positions, &mut grad);
        let (count, _) = allocations(|| {
            let _ = wl.energy_grad_into(&netlist, &positions, &mut grad);
            let _ = density.energy_grad_into(&netlist, &positions, &mut grad, &mut dws);
            let _ = freq.energy_grad_into(&positions, &mut grad);
            density.overflow_with(&netlist, &positions, &mut dws)
        });
        assert_eq!(
            count, 0,
            "placement iteration kernels allocated {count} times"
        );

        // Stage 2b — the full run envelope: repeated runs from the same
        // start allocate a constant amount (model + report), proving the
        // workspace buffers stopped growing.
        netlist.set_positions(&placed);
        let run = |netlist: &mut QuantumNetlist, ws: &mut PipelineWorkspace| {
            placer.execute(
                netlist,
                qplacer_place::ExecOptions {
                    workspace: Some(&mut ws.placer),
                    ..Default::default()
                },
            )
        };
        let (second, _) = allocations(|| run(&mut netlist, &mut ws));
        netlist.set_positions(&placed);
        let (third, report) = allocations(|| run(&mut netlist, &mut ws));
        assert!(report.iterations > 0);
        assert_eq!(
            second, third,
            "execute must reach an allocation steady state ({second} vs {third})"
        );
    });
}

/// Turning observability ON must not break the steady-state contract:
/// with spans enabled and a pre-sized [`RingTraceSink`] consuming every
/// convergence record, the traced stage entry points allocate exactly
/// what their untraced twins do — zero for assignment / legalization,
/// a constant envelope for the placer.
#[test]
fn traced_steady_state_does_not_allocate() {
    let _serial = serial();
    let device = Topology::falcon27();
    let config = PipelineConfig::fast();
    let mut ws = PipelineWorkspace::new();
    qplacer_obs::set_spans_enabled(true);

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds");
    pool.install(|| {
        // Pre-sized ring: capacity is paid here, never while recording.
        let mut sink = RingTraceSink::with_capacity(4096);

        // Warm-up traced "request": registers every span site, sizes
        // every stage buffer, fills the FFT plan cache.
        let assigner = FrequencyAssigner::paper_defaults();
        let mut assignment = assigner.assign_traced_with(&device, &mut ws.freq, &mut sink);
        let mut netlist = QuantumNetlist::build(&device, &assignment, &config.netlist);
        let placer = GlobalPlacer::new(config.placer);
        let _ = placer.execute(
            &mut netlist,
            qplacer_place::ExecOptions {
                workspace: Some(&mut ws.placer),
                sink: Some(&mut sink),
                ..Default::default()
            },
        );
        let placed: Vec<_> = netlist.positions().to_vec();
        let warm = config
            .legalizer
            .run_traced(&mut netlist, &mut ws.legal, &mut sink);
        assert_eq!(warm.remaining_overlaps, 0);
        assert!(!sink.is_empty(), "warm-up must emit telemetry");
        assert!(sink.is_enabled());

        let (count, ()) = allocations(|| {
            assigner.assign_traced_into(&device, &mut ws.freq, &mut assignment, &mut sink);
        });
        assert_eq!(count, 0, "traced assignment allocated {count} times");

        netlist.set_positions(&placed);
        let (count, report) = allocations(|| {
            config
                .legalizer
                .run_traced(&mut netlist, &mut ws.legal, &mut sink)
        });
        assert_eq!(report.remaining_overlaps, 0);
        assert_eq!(count, 0, "traced legalization allocated {count} times");

        // The traced run envelope must match the untraced one: constant
        // allocations (model + report), none from spans or records.
        netlist.set_positions(&placed);
        let (untraced, _) = allocations(|| {
            placer.execute(
                &mut netlist,
                qplacer_place::ExecOptions {
                    workspace: Some(&mut ws.placer),
                    ..Default::default()
                },
            )
        });
        netlist.set_positions(&placed);
        let (traced, report) = allocations(|| {
            placer.execute(
                &mut netlist,
                qplacer_place::ExecOptions {
                    workspace: Some(&mut ws.placer),
                    sink: Some(&mut sink),
                    ..Default::default()
                },
            )
        });
        assert!(report.iterations > 0);
        assert_eq!(
            traced, untraced,
            "tracing must be allocation-free on top of the untraced run \
             ({traced} traced vs {untraced} untraced)"
        );
        assert!(
            sink.records().iter().any(|r| r.kind() == "place_iteration"),
            "the traced run must have recorded solver iterations"
        );
    });
}
