//! One clock per timed scope: every duration the pipeline reports —
//! the convergence trace's phase times and `StageTimings` — is the time
//! its `span!` guard aggregated, not a second timer beside it.
//!
//! Own integration binary with a single test: it enables and resets the
//! process-global span table, so nothing else may record into it.

use qplacer_harness::{ExecOptions, Qplacer, Strategy};
use qplacer_obs::{RingTraceSink, SpanStat, TraceRecord};
use qplacer_topology::Topology;

fn span(report: &[SpanStat], name: &str) -> SpanStat {
    *report
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("span `{name}` never recorded"))
}

fn assert_ms_eq(stage_ms: f64, span: SpanStat) {
    let span_ms = span.total_ns as f64 / 1e6;
    assert!(
        (stage_ms - span_ms).abs() <= 1e-9 * span_ms.max(1.0),
        "`{}`: stage timing {stage_ms} ms, span {span_ms} ms",
        span.name
    );
}

#[test]
fn reported_timings_equal_their_span_totals() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let mut sink = RingTraceSink::with_capacity(1 << 16);
    qplacer_obs::set_spans_enabled(true);
    qplacer_obs::reset_spans();
    let layout = pool.install(|| {
        Qplacer::fast().execute(
            &Topology::falcon27(),
            Strategy::FrequencyAware,
            ExecOptions {
                sink: Some(&mut sink),
                ..Default::default()
            },
        )
    });
    qplacer_obs::set_spans_enabled(false);
    let report = qplacer_obs::span_report();
    assert_eq!(sink.dropped(), 0, "ring sized for every record");

    let mut density_ns = [0u64; 3];
    let mut phases = 0;
    for record in sink.records() {
        match record {
            TraceRecord::PlaceIteration {
                deposit_ns,
                poisson_ns,
                gather_ns,
                ..
            } => {
                for (sum, ns) in density_ns
                    .iter_mut()
                    .zip([deposit_ns, poisson_ns, gather_ns])
                {
                    *sum += ns;
                }
            }
            TraceRecord::LegalPhase {
                phase, elapsed_ns, ..
            } => {
                let stat = span(&report, &format!("legalize_{phase}"));
                assert_eq!((stat.count, stat.total_ns), (1, elapsed_ns), "{phase}");
                phases += 1;
            }
            TraceRecord::FreqPhase {
                phase, elapsed_ns, ..
            } => {
                let stat = span(&report, &format!("freq_color_{phase}"));
                assert_eq!((stat.count, stat.total_ns), (1, elapsed_ns), "{phase}");
                phases += 1;
            }
        }
    }
    assert_eq!(phases, 4 + 2, "four legalization and two coloring phases");

    let placement = layout.placement.as_ref().expect("engine strategy places");
    for (name, sum) in ["density_deposit", "poisson_solve", "field_gather"]
        .into_iter()
        .zip(density_ns)
    {
        let stat = span(&report, name);
        assert_eq!(stat.count as usize, placement.iterations, "{name}");
        assert_eq!(stat.total_ns, sum, "Σ trace `{name}` vs span total");
    }

    let timings = layout.timings;
    assert_ms_eq(timings.assign_ms, span(&report, "freq_assign"));
    assert_ms_eq(timings.place_ms, span(&report, "global_place"));
    assert_ms_eq(timings.legalize_ms, span(&report, "legalize"));
}
