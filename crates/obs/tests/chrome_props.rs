//! Property tests for the Chrome-trace exporter: any event stream —
//! including names full of quotes, backslashes, and control characters,
//! and streams with unbalanced begin/end pairs (flight-ring truncation)
//! — must export to parseable JSON with begin/end events balanced per
//! thread, and the folded exporter must emit well-formed
//! `stack weight` lines.

use proptest::prelude::*;

use qplacer_obs::{chrome_trace_json, folded_stacks, EventKind, TimelineEvent};

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
    (arb_name(), 0u8..2, 1u32..4, 0u64..100_000, 0u64..1_000).prop_map(
        |(name, kind, tid, ts_ns, arg)| TimelineEvent {
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
        },
    )
}

fn arb_stream() -> impl Strategy<Value = Vec<TimelineEvent>> {
    prop::collection::vec(arb_event(), 0..64).prop_map(|mut events| {
        // The recorder hands exporters timestamp-ordered streams.
        events.sort_by_key(|a| a.ts_ns);
        events
    })
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
