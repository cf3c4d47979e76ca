//! Span nesting, panic unwinding, and report-shape tests. Kept in one
//! integration binary (and run on one process-global table), so each
//! test uses distinct span names and asserts only on its own sites.

use std::sync::{Mutex, MutexGuard};

use qplacer_obs as obs;

/// Spans aggregate into process-global state and one test toggles the
/// global enabled flag, so the tests serialize on this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn stat(name: &str) -> Option<obs::SpanStat> {
    obs::span_report().into_iter().find(|s| s.name == name)
}

#[test]
fn nesting_records_parent_edges_and_totals() {
    let _serial = serial();
    obs::set_spans_enabled(true);
    for _ in 0..3 {
        let _outer = obs::span!("nest_outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _inner = obs::span!("nest_inner", grid = 64u64);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let report = obs::span_report();
    let outer_idx = report
        .iter()
        .position(|s| s.name == "nest_outer")
        .expect("outer span registered");
    let inner = stat("nest_inner").expect("inner span registered");
    assert_eq!(inner.count, 3);
    assert_eq!(inner.parent, Some(outer_idx), "parent edge recorded");
    assert_eq!(inner.last_value, Some(64));
    let outer = &report[outer_idx];
    assert_eq!(outer.count, 3);
    assert!(outer.parent.is_none());
    assert!(
        outer.total_ns >= inner.total_ns,
        "outer encloses inner: {} < {}",
        outer.total_ns,
        inner.total_ns
    );
    let tree = obs::render_span_tree();
    assert!(tree.contains("nest_outer"));
    assert!(tree.contains("nest_inner"));
}

#[test]
fn panic_unwinding_closes_spans() {
    let _serial = serial();
    obs::set_spans_enabled(true);
    let result = std::panic::catch_unwind(|| {
        let _span = obs::span!("panicking_span");
        panic!("boom");
    });
    assert!(result.is_err());
    let s = stat("panicking_span").expect("span registered despite panic");
    assert_eq!(s.count, 1, "guard drop during unwind recorded the span");
    // The thread-local stack unwound too: a fresh root span on this
    // thread must not see "panicking_span" as its parent.
    {
        let _root = obs::span!("post_panic_root");
    }
    let root = stat("post_panic_root").unwrap();
    assert!(root.parent.is_none(), "stack popped during unwinding");
}

#[test]
fn disabled_spans_record_nothing() {
    let _serial = serial();
    obs::set_spans_enabled(true);
    {
        let _warm = obs::span!("toggled_span");
    }
    let before = stat("toggled_span").unwrap().count;
    obs::set_spans_enabled(false);
    {
        let _off = obs::span!("toggled_span");
    }
    assert_eq!(stat("toggled_span").unwrap().count, before);
    obs::set_spans_enabled(true);
    {
        let _on = obs::span!("toggled_span");
    }
    assert_eq!(stat("toggled_span").unwrap().count, before + 1);
}

#[test]
fn recursive_spans_aggregate_on_one_site() {
    let _serial = serial();
    obs::set_spans_enabled(true);
    fn recurse(depth: usize) {
        let _span = obs::span!("recursive_span");
        if depth > 0 {
            recurse(depth - 1);
        }
    }
    recurse(4);
    let s = stat("recursive_span").unwrap();
    assert_eq!(s.count, 5);
    assert!(s.parent.is_none(), "self-nesting records no parent edge");
}

#[test]
fn concurrent_spans_count_exactly() {
    let _serial = serial();
    obs::set_spans_enabled(true);
    const THREADS: usize = 4;
    const PER_THREAD: usize = 500;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..PER_THREAD {
                    let _span = obs::span!("concurrent_span");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let s = stat("concurrent_span").unwrap();
    assert_eq!(s.count, (THREADS * PER_THREAD) as u64);
}

#[test]
fn finish_returns_exactly_what_it_adds() {
    let _serial = serial();
    obs::set_spans_enabled(true);
    let before = stat("finish_exact").map_or((0, 0), |s| (s.count, s.total_ns));
    let span = obs::span!("finish_exact");
    std::thread::sleep(std::time::Duration::from_millis(1));
    let elapsed = span.finish();
    let after = stat("finish_exact").expect("finished span registered");
    assert_eq!(after.count, before.0 + 1);
    assert_eq!(
        after.total_ns - before.1,
        elapsed.as_nanos() as u64,
        "the returned duration is the one the site aggregated"
    );
}

#[test]
fn disabled_finish_still_times_the_scope() {
    let _serial = serial();
    obs::set_spans_enabled(false);
    let report = obs::span_report();
    let span = obs::span!("finish_disabled");
    let nap = std::time::Duration::from_millis(2);
    std::thread::sleep(nap);
    let elapsed = span.finish();
    assert!(elapsed >= nap, "{elapsed:?} < {nap:?}");
    assert_eq!(
        obs::span_report(),
        report,
        "a disabled guard aggregates nothing"
    );
    obs::set_spans_enabled(true);
}

#[test]
fn finish_then_drop_counts_once() {
    let _serial = serial();
    obs::set_spans_enabled(true);
    {
        let _outer = obs::span!("finish_outer");
        let inner = obs::span!("finish_inner");
        let _ = inner.finish();
        // Had the finished guard popped the nesting stack a second time
        // on drop, this sibling would lose its parent edge.
        let _sibling = obs::span!("finish_sibling");
    }
    {
        let _root = obs::span!("finish_root");
    }
    let report = obs::span_report();
    let outer = report
        .iter()
        .position(|s| s.name == "finish_outer")
        .expect("outer registered");
    let inner = stat("finish_inner").unwrap();
    assert_eq!(inner.count, 1, "finish and drop recorded one entry");
    assert_eq!(inner.parent, Some(outer));
    assert_eq!(stat("finish_sibling").unwrap().parent, Some(outer));
    assert!(stat("finish_root").unwrap().parent.is_none());
}
