//! Steady-state placement iterations must perform **zero heap
//! allocations** in the transform and gradient kernels.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up call (which may fault in lazily-built plan-cache entries),
//! every `*_into` kernel is re-run and the allocation counter must not
//! move. Every kernel runs on the calling thread. The charge deposit,
//! the field gather and the overflow scan keep a footprint's per-axis
//! overlap weights in the workspace's grid-sized buffers; the Poisson
//! solve keeps its lane buffers in the workspace's `SpectralScratch`.
//! The density grids cover the radix-2 (64²), mixed-radix (30²) and
//! Bluestein (31²) kernels; a 3 × 5 grid over a region smaller than one
//! footprint makes the footprints over it span the whole grid.
//!
//! A warm (pinned) placement is also checked a whole iteration at a
//! time: a trace sink reads the counter after every iteration, so the
//! pin-aware frequency sweep, the gather over free instances and the
//! deposit that reuses the all-pinned bands are covered in the loop
//! that runs them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

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

/// The counter is process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

use qplacer_freq::FrequencyAssigner;
use qplacer_geometry::{Point, Rect};
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_obs::{TraceRecord, TraceSink};
use qplacer_place::{
    DensityModel, ExecOptions, FrequencyForce, GlobalPlacer, PlacerConfig, PlacerWorkspace,
    WirelengthModel,
};
use qplacer_topology::Topology;

#[test]
fn steady_state_kernels_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let t = Topology::grid(3, 3);
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    let nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
    let n = nl.num_instances();
    let positions: Vec<Point> = (0..n)
        .map(|k| Point::new((k as f64 * 0.7).sin() * 2.0, (k as f64 * 1.3).cos() * 2.0))
        .collect();

    let wl = WirelengthModel::new(0.05);
    let freq = FrequencyForce::new(&nl);
    let mut grad = vec![0.0; 2 * n];
    let pinned: Vec<bool> = (0..n).map(|i| i % 7 != 0).collect();

    // 64² runs the radix-2 kernel, 30² the mixed-radix one and 31² the
    // Bluestein one. The 3 × 5 grid's region is smaller than a
    // footprint, so a footprint over it covers every bin.
    let small = Rect::from_origin_size(Point::new(-0.2, -0.3), 0.5, 0.4);
    let grids = [
        (nl.region(), 64, 64),
        (nl.region(), 30, 30),
        (nl.region(), 31, 31),
        (small, 3, 5),
    ];
    for (region, nx, ny) in grids {
        let density = DensityModel::new(region, nx, ny);
        let mut ws = density.workspace();
        // Warm-up: populate the process-wide FFT plan cache.
        let _ = wl.energy_grad_into(&nl, &positions, &mut grad);
        let _ = density.energy_grad_into(&nl, &positions, &mut grad, &mut ws);
        density.grad_into(&nl, &positions, &mut grad, &mut ws);
        let _ = freq.energy_grad_into(&positions, &mut grad);
        freq.grad_into(&positions, &mut grad, Some(&pinned));

        let (count, _) = allocations(|| wl.energy_grad_into(&nl, &positions, &mut grad));
        assert_eq!(count, 0, "wirelength kernel allocated {count} times");

        let (count, ()) = allocations(|| density.rasterize_into(&nl, &positions, &mut ws));
        assert_eq!(
            count, 0,
            "{nx} × {ny} bins: charge deposit allocated {count} times"
        );

        let (count, _) =
            allocations(|| density.energy_grad_into(&nl, &positions, &mut grad, &mut ws));
        assert_eq!(
            count, 0,
            "{nx} × {ny} bins: density kernel allocated {count} times"
        );

        let (count, ()) = allocations(|| density.grad_into(&nl, &positions, &mut grad, &mut ws));
        assert_eq!(
            count, 0,
            "{nx} × {ny} bins: density gradient allocated {count} times"
        );

        let (count, _) = allocations(|| freq.energy_grad_into(&positions, &mut grad));
        assert_eq!(count, 0, "frequency kernel allocated {count} times");

        for mask in [None, Some(pinned.as_slice())] {
            let (count, ()) = allocations(|| freq.grad_into(&positions, &mut grad, mask));
            assert_eq!(
                count,
                0,
                "frequency gradient (masked: {}) allocated {count} times",
                mask.is_some()
            );
        }

        let (count, _) = allocations(|| density.overflow_with(&nl, &positions, &mut ws));
        assert_eq!(
            count, 0,
            "{nx} × {ny} bins: overflow scan allocated {count} times"
        );
    }
}

/// Reads the allocation counter at the end of every placement iteration.
struct AllocationsPerIteration(Vec<usize>);

impl TraceSink for AllocationsPerIteration {
    fn record(&mut self, record: &TraceRecord) {
        if let TraceRecord::PlaceIteration { .. } = record {
            // Within the reserved capacity: the push does not allocate.
            self.0.push(ALLOCATIONS.load(Ordering::Relaxed));
        }
    }
}

#[test]
fn steady_state_warm_iterations_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let t = Topology::grid(3, 3);
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    let mut cold = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
    let config = PlacerConfig::fast();
    let placer = GlobalPlacer::new(config);
    let _ = placer.execute(&mut cold, ExecOptions::default());

    // Qubit 0 and its resonators move; everything else is pinned, so
    // some deposit bands hold only pinned instances.
    let mut pinned = vec![true; cold.num_instances()];
    pinned[cold.qubit_instance(0)] = false;
    for (e, &(a, b)) in t.edges().iter().enumerate() {
        if a == 0 || b == 0 {
            for &s in cold.resonator_segments(e) {
                pinned[s] = false;
            }
        }
    }

    let mut ws = PlacerWorkspace::new();
    for run in 0..2 {
        let mut nl = cold.clone();
        let mut sink = AllocationsPerIteration(Vec::with_capacity(config.max_iterations));
        let report = placer.execute(
            &mut nl,
            ExecOptions {
                workspace: Some(&mut ws),
                sink: Some(&mut sink),
                pinned: Some(&pinned),
            },
        );
        assert!(report.iterations > 10, "{} iterations", report.iterations);
        // Iteration 0 is a full evaluation and iteration 1 the first
        // masked one (the force sizes its free list), so steady state
        // starts at iteration 2.
        for (iter, pair) in sink.0.windows(2).enumerate().skip(1) {
            assert_eq!(
                pair[1] - pair[0],
                0,
                "run {run}: warm iteration {} allocated",
                iter + 1
            );
        }
    }
}
