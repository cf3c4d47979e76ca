//! Property tests for the Chrome-trace exporter: any event stream —
//! including names full of quotes, backslashes, and control characters,
//! and streams with unbalanced begin/end pairs (flight-ring truncation)
//! — must export to parseable JSON with begin/end events balanced per
//! thread, and the folded exporter must emit well-formed
//! `stack weight` lines. The call-path tree read off the same stream
//! must agree with the folded export node for node.

use proptest::prelude::*;

use std::collections::BTreeMap;

use qplacer_obs::{
    chrome_trace_json, folded_stacks, span_tree, EventKind, SpanNode, TimelineEvent,
};

/// Characters chosen to stress JSON escaping and the folded format.
const NAME_PALETTE: &[char] = &[
    'a', 'B', '7', '_', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'μ', ';', ' ', '/', '{',
    '}',
];

fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..NAME_PALETTE.len(), 0..12)
        .prop_map(|indices| indices.into_iter().map(|i| NAME_PALETTE[i]).collect())
}

fn arb_event() -> impl Strategy<Value = TimelineEvent> {
    event_named(arb_name())
}

fn event_named(name: impl Strategy<Value = String>) -> impl Strategy<Value = TimelineEvent> {
    (name, 0u8..2, 1u32..4, 0u64..100_000, 0u64..1_000).prop_map(|(name, kind, tid, ts_ns, arg)| {
        TimelineEvent {
            name,
            kind: if kind == 0 {
                EventKind::Begin
            } else {
                EventKind::End
            },
            tid,
            ts_ns,
            trace_id: arg.wrapping_mul(0x9e37_79b9),
            arg,
        }
    })
}

fn arb_stream() -> impl Strategy<Value = Vec<TimelineEvent>> {
    sorted(prop::collection::vec(arb_event(), 0..64))
}

/// Streams over three plain names, so call paths repeat under several
/// parents and at several depths, and each folded frame is its name.
fn arb_plain_stream() -> impl Strategy<Value = Vec<TimelineEvent>> {
    let name = (0usize..3).prop_map(|i| ["a", "b", "c"][i].to_string());
    sorted(prop::collection::vec(event_named(name), 0..96))
}

fn sorted(
    events: impl Strategy<Value = Vec<TimelineEvent>>,
) -> impl Strategy<Value = Vec<TimelineEvent>> {
    events.prop_map(|mut events| {
        // The recorder hands exporters timestamp-ordered streams.
        events.sort_by_key(|a| a.ts_ns);
        events
    })
}

/// Walks `nodes` depth first, checking that no child's total exceeds
/// its parent's and collecting each path's self time and count.
fn self_times(
    nodes: &[SpanNode],
    prefix: &str,
    parent_ns: Option<u64>,
    out: &mut BTreeMap<String, u64>,
    count: &mut u64,
) {
    for node in nodes {
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix};{}", node.name)
        };
        if let Some(parent_ns) = parent_ns {
            prop_assert!(node.total_ns <= parent_ns, "{path} exceeds its parent");
        }
        let children: u64 = node.children.iter().map(|c| c.total_ns).sum();
        prop_assert!(out.insert(path.clone(), node.total_ns - children).is_none());
        *count += node.count;
        self_times(&node.children, &path, Some(node.total_ns), out, count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn chrome_export_parses_and_balances(events in arb_stream()) {
        let json = chrome_trace_json(&events);
        let value: serde_json::Value =
            serde_json::from_str(&json).expect("exporter must emit valid JSON");
        let map = value.as_map().expect("top-level object");
        let trace_events = serde_json::Value::field(map, "traceEvents")
            .expect("traceEvents array present")
            .as_seq()
            .expect("traceEvents is an array");

        // Per-thread begin/end balance: depth never goes negative and
        // every thread ends at depth zero.
        let mut depth: std::collections::BTreeMap<i64, i64> = Default::default();
        for event in trace_events {
            let event = event.as_map().expect("event objects");
            let ph = serde_json::Value::field(event, "ph")
                .expect("ph present")
                .as_str()
                .expect("ph is a string")
                .to_string();
            let tid = match serde_json::Value::field(event, "tid").expect("tid present") {
                serde_json::Value::I64(n) => *n,
                serde_json::Value::U64(n) => *n as i64,
                other => panic!("tid must be an integer, got {other:?}"),
            };
            // Every event names a string (escaping round-tripped).
            let _ = serde_json::Value::field(event, "name")
                .expect("name present")
                .as_str()
                .expect("name is a string");
            let d = depth.entry(tid).or_insert(0);
            match ph.as_str() {
                "B" => *d += 1,
                "E" => {
                    *d -= 1;
                    prop_assert!(*d >= 0, "end without begin on tid {tid}");
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        for (tid, d) in depth {
            prop_assert_eq!(d, 0, "thread {} left {} spans open", tid, d);
        }
    }

    #[test]
    fn tree_self_times_are_the_folded_weights(events in arb_plain_stream()) {
        let mut tree = BTreeMap::new();
        let mut count = 0;
        self_times(&span_tree(&events), "", None, &mut tree, &mut count);
        let folded: BTreeMap<String, u64> = folded_stacks(&events)
            .lines()
            .map(|line| {
                let (stack, weight) = line.rsplit_once(' ').unwrap();
                (stack.to_string(), weight.parse().unwrap())
            })
            .collect();
        prop_assert_eq!(tree, folded);
        // Every begin closes once: orphan ends are dropped and open
        // begins are closed at their thread's last timestamp.
        let begins = events.iter().filter(|e| e.kind == EventKind::Begin).count();
        prop_assert_eq!(count, begins as u64);
    }

    #[test]
    fn folded_export_lines_are_well_formed(events in arb_stream()) {
        let folded = folded_stacks(&events);
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ')
                .expect("every folded line is `stack weight`");
            prop_assert!(!stack.is_empty(), "empty stack in {line:?}");
            prop_assert!(
                weight.parse::<u64>().is_ok(),
                "weight must be an integer: {line:?}"
            );
            // Frame separators survive; spaces/controls were replaced,
            // so the stack part has no embedded spaces.
            prop_assert!(
                !stack.contains(' ') && !stack.chars().any(char::is_control),
                "stack part must be space- and control-free: {line:?}"
            );
        }
    }
}
