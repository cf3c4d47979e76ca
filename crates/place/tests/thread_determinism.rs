//! A placement must not depend on the rayon pool it runs under: a
//! paper-config placement run under a 1-thread pool and under a wide
//! pool must produce *identical* final positions. Every placer kernel
//! (charge deposit, Poisson solve, field gather, frequency force) runs
//! on the calling thread with a fixed summation order, so the pool only
//! decides which OS thread that is. The harness runs placements as jobs
//! on its pool, so pool reuse, two placements sharing one pool, and
//! workspace reuse are exercised too.

use qplacer_freq::FrequencyAssigner;
use qplacer_netlist::{NetlistConfig, QuantumNetlist};
use qplacer_place::{ExecOptions, GlobalPlacer, PlacerConfig, PlacerWorkspace};
use qplacer_topology::Topology;

fn build(t: &Topology) -> QuantumNetlist {
    let freqs = FrequencyAssigner::paper_defaults().assign(t);
    QuantumNetlist::build(t, &freqs, &NetlistConfig::with_segment_size(0.4))
}

fn run_at(threads: usize) -> (QuantumNetlist, usize) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds");
    place_on(&pool)
}

/// A paper-config placement of a 3×3 grid under `pool`.
fn place_on(pool: &rayon::ThreadPool) -> (QuantumNetlist, usize) {
    let t = Topology::grid(3, 3);
    let mut nl = build(&t);
    // Paper configuration with the auto-picked (power-of-two) bin grid.
    let report = pool
        .install(|| GlobalPlacer::new(PlacerConfig::paper()).execute(&mut nl, Default::default()));
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
fn paper_config_placement_is_identical_at_1_vs_n_threads() {
    assert_same(&run_at(1), &run_at(4), "1 vs 4 threads");
}

#[test]
fn back_to_back_placements_on_one_pool_match_one_thread() {
    let reference = run_at(1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool builds");
    // The second placement runs on helpers parked by the first.
    assert_same(&reference, &place_on(&pool), "first run on a 2-thread pool");
    assert_same(&reference, &place_on(&pool), "second run on the same pool");
}

#[test]
fn concurrent_placements_on_one_pool_match_one_thread() {
    let reference = run_at(1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("pool builds");
    // Two OS threads share the pool: whenever one owns it, the other's
    // kernel calls find it busy and run inline on their own thread.
    let start = std::sync::Barrier::new(2);
    let results: Vec<_> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    place_on(&pool)
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

/// A paper-config warm re-place of a 3×3 grid under a `threads`-wide
/// pool: qubit 4 and its resonators move, everything else is pinned, so
/// the run takes the pin-aware frequency sweep, the gather over free
/// instances and the cached deposit bands.
fn warm_at(threads: usize) -> (QuantumNetlist, [u64; 4]) {
    let t = Topology::grid(3, 3);
    let mut nl = build(&t);
    let placer = GlobalPlacer::new(PlacerConfig::paper());
    let _ = placer.execute(&mut nl, Default::default());
    let mut pinned = vec![true; nl.num_instances()];
    pinned[nl.qubit_instance(4)] = false;
    for (e, &(a, b)) in t.edges().iter().enumerate() {
        if a == 4 || b == 4 {
            for &s in nl.resonator_segments(e) {
                pinned[s] = false;
            }
        }
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds");
    let report = pool.install(|| {
        placer.execute(
            &mut nl,
            ExecOptions {
                pinned: Some(&pinned),
                ..Default::default()
            },
        )
    });
    let fields = [
        report.iterations as u64,
        report.final_overflow.to_bits(),
        report.hpwl.to_bits(),
        report.freq_energy.to_bits(),
    ];
    (nl, fields)
}

#[test]
fn pinned_warm_placement_is_identical_at_1_vs_2_threads() {
    let (one, one_report) = warm_at(1);
    let (two, two_report) = warm_at(2);
    assert_eq!(one_report, two_report, "warm reports diverged");
    assert_eq!(one.positions(), two.positions(), "warm positions diverged");
}
