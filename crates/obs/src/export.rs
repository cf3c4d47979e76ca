//! Timeline exporters: Chrome Trace Event JSON and collapsed-stack
//! flamegraph text.
//!
//! Both operate on a [`TimelineEvent`] slice (normally from
//! [`event_snapshot`](crate::event_snapshot)) so they can be tested —
//! including property-tested with hostile names — without touching the
//! global recorder state.
//!
//! The Chrome exporter emits the [Trace Event Format] (`"B"`/`"E"`
//! duration events, timestamps in microseconds),
//! which loads directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. Because a flight-recorder ring overwrites its
//! oldest events, a dump can open mid-span; the exporter therefore
//! *sanitizes* the stream per thread — an `E` with no open `B` is
//! dropped, and any `B` still open at the end gets a synthetic closing
//! `E` at the last seen timestamp — so begin/end events are always
//! balanced per thread and every viewer renders the file.
//!
//! The folded exporter replays the same begin/end stream into
//! `root;child;leaf self_weight_ns` lines (one per unique stack,
//! lexicographically sorted), the input format of standard flamegraph
//! tooling (`flamegraph.pl`, `inferno-flamegraph`, speedscope).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;

use crate::events::{EventKind, TimelineEvent};

/// Appends `s` to `out` as a JSON string literal (with quotes),
/// escaping `"`, `\`, and control characters.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_chrome_event(
    out: &mut String,
    name: &str,
    ph: char,
    tid: u32,
    ts_ns: u64,
    trace_id: u64,
    arg: Option<u64>,
) {
    out.push_str("{\"name\":");
    write_json_string(out, name);
    out.push_str(",\"cat\":\"qplacer\",\"ph\":\"");
    out.push(ph);
    out.push('"');
    // Trace Event timestamps are microseconds; keep nanosecond
    // precision as a fractional part.
    out.push_str(&format!(
        ",\"ts\":{}.{:03},\"pid\":1,\"tid\":{tid}",
        ts_ns / 1_000,
        ts_ns % 1_000
    ));
    out.push_str(&format!(",\"args\":{{\"trace_id\":\"{trace_id:#018x}\""));
    if let Some(arg) = arg {
        out.push_str(&format!(",\"arg\":{arg}"));
    }
    out.push_str("}}");
}

/// Renders `events` as a Chrome Trace Event JSON document
/// (`{"traceEvents":[...],"displayTimeUnit":"ms"}`). Begin/end events
/// are balanced per thread (see the module docs); the output is valid
/// JSON for any input names.
#[must_use]
pub fn chrome_trace_json(events: &[TimelineEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    // Per-tid stack of open begins: (index into `events`) so synthetic
    // closers can reuse the begin's name.
    let mut open: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u32, u64> = BTreeMap::new();
    let emit = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
    };
    for (i, event) in events.iter().enumerate() {
        let stamp = last_ts.entry(event.tid).or_insert(event.ts_ns);
        *stamp = (*stamp).max(event.ts_ns);
        match event.kind {
            EventKind::Begin => {
                open.entry(event.tid).or_default().push(i);
                emit(&mut out, &mut first);
                write_chrome_event(
                    &mut out,
                    &event.name,
                    'B',
                    event.tid,
                    event.ts_ns,
                    event.trace_id,
                    Some(event.arg),
                );
            }
            EventKind::End => {
                // A ring dump can lose the matching begin; dropping the
                // orphan end keeps the stream balanced.
                let stack = open.entry(event.tid).or_default();
                if stack.pop().is_none() {
                    continue;
                }
                emit(&mut out, &mut first);
                write_chrome_event(
                    &mut out,
                    &event.name,
                    'E',
                    event.tid,
                    event.ts_ns,
                    event.trace_id,
                    None,
                );
            }
        }
    }
    // Synthetic closers for spans still open when the snapshot was cut
    // (innermost first, so nesting stays well-formed).
    for (tid, stack) in &open {
        let close_ts = last_ts.get(tid).copied().unwrap_or(0);
        for &begin in stack.iter().rev() {
            let event = &events[begin];
            emit(&mut out, &mut first);
            write_chrome_event(
                &mut out,
                &event.name,
                'E',
                *tid,
                close_ts,
                event.trace_id,
                None,
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

struct Frame {
    path: String,
    start_ns: u64,
    child_ns: u64,
}

/// Renders `events` in the collapsed-stack ("folded") flamegraph
/// format: one `a;b;c self_ns` line per unique stack, sorted, with
/// *self* time (total minus children) in nanoseconds as the weight.
/// Orphan ends are skipped; spans still open at the end of
/// the snapshot are closed at the thread's last timestamp.
#[must_use]
pub fn folded_stacks(events: &[TimelineEvent]) -> String {
    let mut stacks: BTreeMap<u32, Vec<Frame>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u32, u64> = BTreeMap::new();
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    let close =
        |frame: Frame, end_ns: u64, stack: &mut Vec<Frame>, weights: &mut BTreeMap<String, u64>| {
            let total = end_ns.saturating_sub(frame.start_ns);
            let own = total.saturating_sub(frame.child_ns);
            *weights.entry(frame.path).or_insert(0) += own;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += total;
            }
        };
    for event in events {
        let stamp = last_ts.entry(event.tid).or_insert(event.ts_ns);
        *stamp = (*stamp).max(event.ts_ns);
        let stack = stacks.entry(event.tid).or_default();
        match event.kind {
            EventKind::Begin => {
                let frame = folded_frame_name(&event.name);
                let path = match stack.last() {
                    Some(parent) => format!("{};{}", parent.path, frame),
                    None => frame,
                };
                stack.push(Frame {
                    path,
                    start_ns: event.ts_ns,
                    child_ns: 0,
                });
            }
            EventKind::End => {
                if let Some(frame) = stack.pop() {
                    close(frame, event.ts_ns, stack, &mut weights);
                }
            }
        }
    }
    for (tid, mut stack) in stacks {
        let end_ns = last_ts.get(&tid).copied().unwrap_or(0);
        while let Some(frame) = stack.pop() {
            close(frame, end_ns, &mut stack, &mut weights);
        }
    }
    let mut out = String::new();
    for (path, weight) in weights {
        out.push_str(&format!("{path} {weight}\n"));
    }
    out
}

/// Makes a span name safe as one collapsed-stack frame: consumers split
/// frames on `;` and the weight on the last space, so those characters
/// (and control characters) become `_`, and an empty name becomes `?`.
fn folded_frame_name(name: &str) -> String {
    let clean: String = name
        .chars()
        .map(|c| {
            if c == ' ' || c == ';' || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect();
    if clean.is_empty() {
        "?".to_string()
    } else {
        clean
    }
}

/// Sums, per span name, the begin→end durations in `events` (per
/// thread, orphan-tolerant like the exporters). Used to cross-check the
/// timeline against the aggregate span totals.
#[must_use]
pub fn duration_totals_ns(events: &[TimelineEvent]) -> BTreeMap<String, u64> {
    let mut open: BTreeMap<u32, Vec<(String, u64)>> = BTreeMap::new();
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for event in events {
        let stack = open.entry(event.tid).or_default();
        match event.kind {
            EventKind::Begin => stack.push((event.name.clone(), event.ts_ns)),
            EventKind::End => {
                if let Some((name, start)) = stack.pop() {
                    *totals.entry(name).or_insert(0) += event.ts_ns.saturating_sub(start);
                }
            }
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, kind: EventKind, tid: u32, ts_ns: u64) -> TimelineEvent {
        TimelineEvent {
            name: name.to_string(),
            kind,
            tid,
            ts_ns,
            trace_id: 0xabc,
            arg: 1,
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_and_balanced() {
        let events = vec![
            event("outer", EventKind::Begin, 1, 100),
            event("inner", EventKind::Begin, 1, 200),
            event("inner", EventKind::End, 1, 300),
            event("outer", EventKind::End, 1, 400),
        ];
        let json = chrome_trace_json(&events);
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let map = value.as_map().unwrap();
        let trace_events = serde_json::Value::field(map, "traceEvents")
            .unwrap()
            .as_seq()
            .unwrap();
        assert_eq!(trace_events.len(), 4);
        let phases: Vec<&str> = trace_events
            .iter()
            .map(|e| {
                serde_json::Value::field(e.as_map().unwrap(), "ph")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(phases, vec!["B", "B", "E", "E"]);
        assert!(json.contains("\"trace_id\":\"0x0000000000000abc\""));
    }

    #[test]
    fn orphan_end_dropped_and_open_begin_closed() {
        let events = vec![
            event("lost", EventKind::End, 1, 50),
            event("open", EventKind::Begin, 1, 100),
        ];
        let json = chrome_trace_json(&events);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let trace_events = serde_json::Value::field(value.as_map().unwrap(), "traceEvents")
            .unwrap()
            .as_seq()
            .unwrap();
        let mut depth = 0i64;
        let mut phases = Vec::new();
        for e in trace_events {
            let ph = serde_json::Value::field(e.as_map().unwrap(), "ph")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            match ph.as_str() {
                "B" => depth += 1,
                "E" => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "end before begin leaked through");
            phases.push(ph);
        }
        assert_eq!(depth, 0, "every begin closed");
        assert_eq!(phases, vec!["B", "E"]);
    }

    #[test]
    fn hostile_names_stay_parseable() {
        let events = vec![
            event("we\"ird\\na\nme\u{1}", EventKind::Begin, 1, 1),
            event("we\"ird\\na\nme\u{1}", EventKind::End, 1, 2),
        ];
        let json = chrome_trace_json(&events);
        let value: serde_json::Value = serde_json::from_str(&json).expect("escaped");
        let trace_events = serde_json::Value::field(value.as_map().unwrap(), "traceEvents")
            .unwrap()
            .as_seq()
            .unwrap();
        let name = serde_json::Value::field(trace_events[0].as_map().unwrap(), "name")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(name, "we\"ird\\na\nme\u{1}");
    }

    #[test]
    fn folded_stacks_self_time() {
        let events = vec![
            event("root", EventKind::Begin, 1, 0),
            event("child", EventKind::Begin, 1, 100),
            event("child", EventKind::End, 1, 400),
            event("root", EventKind::End, 1, 1000),
        ];
        let folded = folded_stacks(&events);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["root 700", "root;child 300"]);
    }

    #[test]
    fn duration_totals_match_simple_stream() {
        let events = vec![
            event("a", EventKind::Begin, 1, 0),
            event("a", EventKind::End, 1, 10),
            event("a", EventKind::Begin, 2, 5),
            event("a", EventKind::End, 2, 25),
        ];
        let totals = duration_totals_ns(&events);
        assert_eq!(totals.get("a"), Some(&30));
    }
}
