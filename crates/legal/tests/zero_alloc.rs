//! Steady-state back-end runs must perform **zero heap allocations**:
//! after a warm-up run sizes every `LegalWorkspace` / `FreqWorkspace`
//! buffer, repeating `Legalizer::run_with` and
//! `FrequencyAssigner::assign_into` on the same inputs must not touch
//! the allocator.
//!
//! A counting global allocator wraps the system allocator. Every phase
//! runs on the calling thread, so only that thread is armed, and only
//! while it measures: the test harness's own threads allocate at any
//! moment and are never armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The counter is process-wide, so the tests in this file take turns:
/// a test running alongside would add its allocations to the other's
/// measurement windows.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Allocations this thread makes while `f` runs on it.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let result = f();
    ARMED.with(|a| a.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

use qplacer_freq::{FreqWorkspace, FrequencyAssigner};
use qplacer_legal::{LegalWorkspace, Legalizer};
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_place::{ExecOptions, GlobalPlacer, PlacerConfig};
use qplacer_topology::Topology;

#[test]
fn steady_state_legalization_does_not_allocate() {
    let _serial = serial();
    let t = Topology::grid(3, 3);
    let freqs = FrequencyAssigner::paper_defaults().assign(&t);
    let mut nl = QuantumNetlist::build(&t, &freqs, &NetlistConfig::default());
    GlobalPlacer::new(PlacerConfig::fast()).execute(&mut nl, ExecOptions::default());
    let placed: Vec<_> = nl.positions().to_vec();

    let legalizer = Legalizer::default();
    let mut ws = LegalWorkspace::new();

    // Warm-up: size every workspace buffer.
    nl.set_positions(&placed);
    let warm = legalizer.run_with(&mut nl, &mut ws);
    assert_eq!(warm.remaining_overlaps, 0);
    // The steady-state claim covers the successful-integration path; a
    // resonator left fragmented would (rightly) allocate its entry in
    // the report's unintegrated list.
    assert_eq!(warm.integrated_after, warm.resonator_count);

    nl.set_positions(&placed);
    let (count, report) = allocations(|| legalizer.run_with(&mut nl, &mut ws));
    assert_eq!(report.remaining_overlaps, 0);
    assert_eq!(
        count, 0,
        "steady-state Legalizer::run_with allocated {count} times"
    );
}

#[test]
fn steady_state_frequency_assignment_does_not_allocate() {
    let _serial = serial();
    let t = Topology::falcon27();
    let assigner = FrequencyAssigner::paper_defaults();
    let mut ws = FreqWorkspace::default();
    let mut out = assigner.assign_with(&t, &mut ws); // warm-up sizes everything

    let (count, ()) = allocations(|| assigner.assign_into(&t, &mut ws, &mut out));
    assert_eq!(
        count, 0,
        "steady-state FrequencyAssigner::assign_into allocated {count} times"
    );
    assert_eq!(out, assigner.assign(&t));
}
