//! A placement must not depend on what ran before it or beside it: back
//! to back on one thread, two at once on two threads, and on a reused
//! workspace, a paper-config placement must produce *identical* final
//! positions. Every placer kernel (charge deposit, Poisson solve, field
//! gather, frequency force) runs on the calling thread with a fixed
//! summation order and per-call scratch.

use qplacer_freq::FrequencyAssigner;
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_place::{ExecOptions, GlobalPlacer, PlacerConfig, PlacerWorkspace};
use qplacer_topology::Topology;

fn build(t: &Topology) -> QuantumNetlist {
    let freqs = FrequencyAssigner::paper_defaults().assign(t);
    QuantumNetlist::build(t, &freqs, &NetlistConfig::with_segment_size(0.4))
}

/// A paper-config placement of a 3×3 grid on the calling thread.
fn place() -> (QuantumNetlist, usize) {
    let t = Topology::grid(3, 3);
    let mut nl = build(&t);
    // Paper configuration with the auto-picked (power-of-two) bin grid.
    let report = GlobalPlacer::new(PlacerConfig::paper()).execute(&mut nl, Default::default());
    (nl, report.iterations)
}

fn assert_same(reference: &(QuantumNetlist, usize), other: &(QuantumNetlist, usize), what: &str) {
    assert_eq!(reference.1, other.1, "iteration counts diverged: {what}");
    assert_eq!(
        reference.0.positions(),
        other.0.positions(),
        "final positions diverged: {what}"
    );
}

#[test]
fn back_to_back_placements_match() {
    let reference = place();
    assert_same(&reference, &place(), "second run on the same thread");
}

#[test]
fn concurrent_placements_match_a_lone_one() {
    let reference = place();
    // Two placements at once on two scoped threads.
    let start = std::sync::Barrier::new(2);
    let results: Vec<_> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    place()
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("placement thread panicked"))
            .collect()
    });
    for (k, result) in results.iter().enumerate() {
        assert_same(&reference, result, &format!("concurrent run {k}"));
    }
}

#[test]
fn workspace_reuse_does_not_change_results() {
    let t = Topology::grid(3, 3);
    let mut fresh = build(&t);
    let mut reused = fresh.clone();

    let placer = GlobalPlacer::new(PlacerConfig::fast());
    let report_fresh = placer.execute(&mut fresh, Default::default());

    // Dirty the workspace on an unrelated run, then reuse it.
    let mut ws = PlacerWorkspace::new();
    let mut warmup = build(&Topology::grid(2, 2));
    let _ = placer.execute(
        &mut warmup,
        ExecOptions {
            workspace: Some(&mut ws),
            ..Default::default()
        },
    );
    let report_reused = placer.execute(
        &mut reused,
        ExecOptions {
            workspace: Some(&mut ws),
            ..Default::default()
        },
    );

    assert_eq!(report_fresh.iterations, report_reused.iterations);
    assert_eq!(fresh.positions(), reused.positions());
}
