//! Span nesting, panic unwinding, and report-shape tests. Kept in one
//! integration binary (and run on one process-global table), so each
//! test uses distinct span names and asserts only on its own sites.
//! Nesting is read off the captured event timeline as a tree keyed by
//! call path ([`obs::span_tree`]); per-site counts and totals off
//! [`obs::span_report`].

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

/// Enables spans and starts a fresh event capture.
fn capture() {
    obs::set_spans_enabled(true);
    obs::set_event_mode(obs::EventMode::Capture);
    obs::clear_events();
}

/// The call-path tree of everything captured since [`capture`].
fn tree() -> Vec<obs::SpanNode> {
    obs::span_tree(&obs::event_snapshot().events)
}

/// The node at call path `path` (outermost name first), if any.
fn node<'a>(roots: &'a [obs::SpanNode], path: &[&str]) -> Option<&'a obs::SpanNode> {
    let (first, rest) = path.split_first()?;
    let found = roots.iter().find(|n| n.name == *first)?;
    if rest.is_empty() {
        Some(found)
    } else {
        node(&found.children, rest)
    }
}

#[test]
fn nesting_builds_path_keyed_nodes_and_totals() {
    let _serial = serial();
    capture();
    for _ in 0..3 {
        let _outer = obs::span!("nest_outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _inner = obs::span!("nest_inner", grid = 64u64);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let roots = tree();
    let outer = node(&roots, &["nest_outer"]).expect("outer is a root");
    let inner = node(&roots, &["nest_outer", "nest_inner"]).expect("inner under outer");
    assert_eq!(inner.count, 3);
    assert_eq!(inner.value, Some(64));
    assert_eq!(outer.count, 3);
    assert_eq!(outer.value, None);
    assert!(node(&roots, &["nest_inner"]).is_none(), "inner is no root");
    assert!(
        outer.total_ns >= inner.total_ns,
        "outer encloses inner: {} < {}",
        outer.total_ns,
        inner.total_ns
    );
    let text = obs::span_tree_text(&roots);
    assert!(text.contains("\nnest_outer "), "{text}");
    assert!(text.contains("\n  nest_inner [64] "), "{text}");
}

#[test]
fn a_site_under_two_parents_shows_under_both() {
    let _serial = serial();
    capture();
    fn shared() {
        let _span = obs::span!("two_parent_child");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for _ in 0..2 {
        let _a = obs::span!("two_parent_a");
        shared();
    }
    for _ in 0..3 {
        let _b = obs::span!("two_parent_b");
        shared();
    }
    let roots = tree();
    for (parent, count) in [("two_parent_a", 2), ("two_parent_b", 3)] {
        let up = node(&roots, &[parent]).expect("parent is a root");
        let child = node(&roots, &[parent, "two_parent_child"]).expect("child under each parent");
        assert_eq!(child.count, count, "under {parent}");
        assert!(child.total_ns <= up.total_ns, "under {parent}");
    }
    assert!(node(&roots, &["two_parent_child"]).is_none());
    assert_eq!(stat("two_parent_child").unwrap().count, 5);
    let text = obs::span_tree_text(&roots);
    assert_eq!(text.matches("  two_parent_child ").count(), 2, "{text}");
}

#[test]
fn panic_unwinding_closes_spans() {
    let _serial = serial();
    capture();
    let result = std::panic::catch_unwind(|| {
        let _span = obs::span!("panicking_span");
        panic!("boom");
    });
    assert!(result.is_err());
    let s = stat("panicking_span").expect("span registered despite panic");
    assert_eq!(s.count, 1, "guard drop during unwind recorded the span");
    // The unwind recorded the end event too: a fresh span on this
    // thread is a root, not a child of "panicking_span".
    {
        let _root = obs::span!("post_panic_root");
    }
    let roots = tree();
    assert_eq!(node(&roots, &["panicking_span"]).unwrap().count, 1);
    assert!(
        node(&roots, &["post_panic_root"]).is_some(),
        "span closed during unwinding"
    );
    assert!(node(&roots, &["panicking_span", "post_panic_root"]).is_none());
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
    capture();
    fn recurse(depth: usize) {
        let _span = obs::span!("recursive_span");
        if depth > 0 {
            recurse(depth - 1);
        }
    }
    recurse(4);
    assert_eq!(stat("recursive_span").unwrap().count, 5);
    // One node per depth, each entered once.
    let roots = tree();
    let mut path = Vec::new();
    for _ in 0..5 {
        path.push("recursive_span");
        assert_eq!(
            node(&roots, &path).unwrap().count,
            1,
            "depth {}",
            path.len()
        );
    }
    path.push("recursive_span");
    assert!(node(&roots, &path).is_none());
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
    capture();
    {
        let _outer = obs::span!("finish_outer");
        let inner = obs::span!("finish_inner");
        let _ = inner.finish();
        // Had the finished guard recorded a second end event on drop,
        // it would close the outer span and this sibling would be a root.
        let _sibling = obs::span!("finish_sibling");
    }
    {
        let _root = obs::span!("finish_root");
    }
    assert_eq!(
        stat("finish_inner").unwrap().count,
        1,
        "finish and drop recorded one entry"
    );
    let roots = tree();
    let inner = node(&roots, &["finish_outer", "finish_inner"]).expect("inner under outer");
    assert_eq!(inner.count, 1);
    assert!(node(&roots, &["finish_outer", "finish_sibling"]).is_some());
    assert!(node(&roots, &["finish_sibling"]).is_none());
    assert!(node(&roots, &["finish_root"]).is_some());
}
