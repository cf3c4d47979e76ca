//! Multilevel engine integration tests: span instrumentation of the
//! coarsening depth, workspace reuse across V-cycles, and the
//! zero-allocation steady state of refinement iterations on coarse
//! (non-power-of-two) levels.
//!
//! Spans and the allocation counter are process-global, so the tests
//! serialize on one lock. The counter counts only on the thread a
//! measurement arms, never on the test harness's own threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the threads a measurement watches. Only their allocations
    /// count: the test harness's own threads allocate at any moment.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation if the calling thread is armed.
fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the armed threads make while `f` runs, armed, on this
/// one.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let result = f();
    ARMED.with(|a| a.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

use qplacer_freq::FrequencyAssigner;
use qplacer_geometry::Point;
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_place::{
    DensityModel, ExecOptions, FrequencyForce, GlobalPlacer, PlacerConfig, PlacerWorkspace,
    WirelengthModel,
};
use qplacer_topology::Topology;

fn falcon_netlist() -> QuantumNetlist {
    let t = Topology::falcon27();
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    QuantumNetlist::build(&t, &freqs, &NetlistConfig::with_segment_size(0.4))
}

fn multilevel_cfg() -> PlacerConfig {
    PlacerConfig {
        levels: 3,
        ..PlacerConfig::fast()
    }
}

#[test]
fn vcycle_coarsens_at_least_two_levels_on_falcon() {
    let _serial = serial();
    qplacer_obs::set_spans_enabled(true);
    let count = |name: &str| {
        qplacer_obs::span_report()
            .into_iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.count)
    };
    let (before_levels, before_refine) = (count("multilevel_level"), count("multilevel_refine"));
    let mut nl = falcon_netlist();
    let _ = GlobalPlacer::new(multilevel_cfg()).execute(&mut nl, Default::default());
    let (after_levels, after_refine) = (count("multilevel_level"), count("multilevel_refine"));
    qplacer_obs::set_spans_enabled(false);
    // levels = 3 on Falcon (≈250 instances at l_b = 0.4) coarsens twice:
    // two coarse-level placements plus one full-resolution refinement.
    assert_eq!(after_levels - before_levels, 2);
    assert_eq!(after_refine - before_refine, 1);
}

#[test]
fn workspace_reuse_across_vcycles_does_not_change_results() {
    let _serial = serial();
    let placer = GlobalPlacer::new(multilevel_cfg());
    let mut fresh = falcon_netlist();
    let mut reused = fresh.clone();

    let mut ws = PlacerWorkspace::new();
    // Dirty the workspace (including the cached per-level state) with a
    // different multilevel problem first.
    let t = Topology::grid(3, 3);
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    let mut other = QuantumNetlist::build(&t, &freqs, &NetlistConfig::with_segment_size(0.4));
    let _ = placer.execute(
        &mut other,
        ExecOptions {
            workspace: Some(&mut ws),
            ..Default::default()
        },
    );

    let a = placer.execute(&mut fresh, Default::default());
    let b = placer.execute(
        &mut reused,
        ExecOptions {
            workspace: Some(&mut ws),
            ..Default::default()
        },
    );
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(fresh.positions(), reused.positions());
}

#[test]
fn steady_state_refine_iterations_do_not_allocate() {
    let _serial = serial();
    // A coarse level as the V-cycle sees it: instances pair-merged, the
    // bin grid 2/3/5-smooth but not a power of two (48 = 2⁴·3), so the
    // mixed-radix spectral kernels are on the hot path.
    let fine = falcon_netlist();
    let cluster_of: Vec<usize> = (0..fine.num_instances()).map(|i| i / 2).collect();
    let nl = fine.coarsen(&cluster_of, fine.num_instances().div_ceil(2));
    let n = nl.num_instances();
    let positions: Vec<Point> = (0..n)
        .map(|k| Point::new((k as f64 * 0.7).sin() * 2.0, (k as f64 * 1.3).cos() * 2.0))
        .collect();

    let wl = WirelengthModel::new(0.05);
    let density = DensityModel::new(nl.region(), 48, 48);
    let freq = FrequencyForce::new(&nl);
    let mut ws = density.workspace();
    let mut grad = vec![0.0; 2 * n];

    // Warm-up: fault in the (mixed-radix) FFT plan cache entries.
    let _ = wl.energy_grad_into(&nl, &positions, &mut grad);
    let _ = density.energy_grad_into(&nl, &positions, &mut grad, &mut ws);
    let _ = freq.energy_grad_into(&positions, &mut grad);

    let (count, _) = allocations(|| {
        let _ = wl.energy_grad_into(&nl, &positions, &mut grad);
        let _ = density.energy_grad_into(&nl, &positions, &mut grad, &mut ws);
        let _ = freq.energy_grad_into(&positions, &mut grad);
        let _ = density.overflow_with(&nl, &positions, &mut ws);
    });
    assert_eq!(count, 0, "refine iteration kernels allocated {count} times");
}
