//! Timeline readers: the call-path span tree `qplacer profile` prints,
//! Chrome Trace Event JSON and collapsed-stack flamegraph text.
//!
//! All operate on a [`TimelineEvent`] slice (normally from
//! [`event_snapshot`](crate::event_snapshot)) so they can be tested —
//! including property-tested with hostile names — without touching the
//! global recorder state. All read the stream through one per-thread
//! nesting walk, so they agree on what nests in what: the tree's self
//! time per call path is the folded weight of that stack.
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
//! The folded exporter turns the same walk into
//! `root;child;leaf self_weight_ns` lines (one per unique stack,
//! lexicographically sorted), the input format of standard flamegraph
//! tooling (`flamegraph.pl`, `inferno-flamegraph`, speedscope).
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::{BTreeMap, HashMap};

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

/// One call path: a span name under the path of the span open around
/// it, with the spans the walk closed on that path.
struct Path<'a> {
    name: &'a str,
    /// Index of the enclosing path; always lower than this path's own.
    parent: Option<usize>,
    count: u64,
    total_ns: u64,
    /// `total_ns` minus the time of the spans closed directly inside.
    self_ns: u64,
    /// The last nonzero begin argument.
    arg: u64,
}

/// One step of the nesting walk, in stream order.
enum Step {
    /// `events[i]` opened a span.
    Open(usize),
    /// The span `events[begin]` opened closed at `end_ns`: by
    /// `events[end]`, or by the end of its thread's stream when `end`
    /// is `None`.
    Close {
        begin: usize,
        end: Option<usize>,
        end_ns: u64,
    },
}

struct Frame {
    begin: usize,
    path: usize,
    child_ns: u64,
}

#[derive(Default)]
struct Thread {
    open: Vec<Frame>,
    last_ns: u64,
}

/// The nesting walk every exporter reads. Replays `events` per thread:
/// an end with no open begin is dropped (a flight ring can lose the
/// begin), and a begin still open at the end of the stream is closed at
/// its thread's last timestamp, innermost first. Calls `visit` for each
/// step and returns the call paths with their totals, each parent
/// before its children.
fn walk<'a>(events: &'a [TimelineEvent], mut visit: impl FnMut(Step)) -> Vec<Path<'a>> {
    let mut paths: Vec<Path<'a>> = Vec::new();
    let mut path_ids: HashMap<(Option<usize>, &'a str), usize> = HashMap::new();
    let mut threads: BTreeMap<u32, Thread> = BTreeMap::new();
    let close = |paths: &mut Vec<Path<'a>>, open: &mut Vec<Frame>, end, end_ns: u64| {
        let frame = open.pop()?;
        let total_ns = end_ns.saturating_sub(events[frame.begin].ts_ns);
        if let Some(parent) = open.last_mut() {
            parent.child_ns += total_ns;
        }
        let path = &mut paths[frame.path];
        path.count += 1;
        path.total_ns += total_ns;
        path.self_ns += total_ns.saturating_sub(frame.child_ns);
        Some(Step::Close {
            begin: frame.begin,
            end,
            end_ns,
        })
    };
    for (i, event) in events.iter().enumerate() {
        let thread = threads.entry(event.tid).or_default();
        thread.last_ns = thread.last_ns.max(event.ts_ns);
        match event.kind {
            EventKind::Begin => {
                let parent = thread.open.last().map(|frame| frame.path);
                let path = *path_ids
                    .entry((parent, event.name.as_str()))
                    .or_insert_with(|| {
                        paths.push(Path {
                            name: &event.name,
                            parent,
                            count: 0,
                            total_ns: 0,
                            self_ns: 0,
                            arg: 0,
                        });
                        paths.len() - 1
                    });
                if event.arg != 0 {
                    paths[path].arg = event.arg;
                }
                thread.open.push(Frame {
                    begin: i,
                    path,
                    child_ns: 0,
                });
                visit(Step::Open(i));
            }
            EventKind::End => {
                if let Some(step) = close(&mut paths, &mut thread.open, Some(i), event.ts_ns) {
                    visit(step);
                }
            }
        }
    }
    for thread in threads.values_mut() {
        while let Some(step) = close(&mut paths, &mut thread.open, None, thread.last_ns) {
            visit(step);
        }
    }
    paths
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
    walk(events, |step| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        match step {
            Step::Open(begin) => {
                let e = &events[begin];
                write_chrome_event(
                    &mut out,
                    &e.name,
                    'B',
                    e.tid,
                    e.ts_ns,
                    e.trace_id,
                    Some(e.arg),
                );
            }
            // A synthetic closer reuses its begin's name and trace id.
            Step::Close { begin, end, end_ns } => {
                let e = &events[end.unwrap_or(begin)];
                write_chrome_event(&mut out, &e.name, 'E', e.tid, end_ns, e.trace_id, None);
            }
        }
    });
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders `events` in the collapsed-stack ("folded") flamegraph
/// format: one `a;b;c self_ns` line per unique stack, sorted, with
/// *self* time (total minus children) in nanoseconds as the weight.
/// Orphan ends are skipped; spans still open at the end of
/// the snapshot are closed at the thread's last timestamp.
#[must_use]
pub fn folded_stacks(events: &[TimelineEvent]) -> String {
    let paths = walk(events, |_| {});
    let mut stacks: Vec<String> = Vec::with_capacity(paths.len());
    let mut weights: BTreeMap<&str, u64> = BTreeMap::new();
    for path in &paths {
        let frame = folded_frame_name(path.name);
        let stack = match path.parent {
            Some(parent) => format!("{};{frame}", stacks[parent]),
            None => frame,
        };
        stacks.push(stack);
    }
    for (path, stack) in paths.iter().zip(&stacks) {
        *weights.entry(stack).or_insert(0) += path.self_ns;
    }
    let mut out = String::new();
    for (stack, weight) in weights {
        out.push_str(&format!("{stack} {weight}\n"));
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

/// Sums, per span name, the begin→end durations in `events`, walked
/// like the exporters (orphan ends dropped, open spans closed at their
/// thread's last timestamp). Used to cross-check the timeline against
/// the aggregate span totals.
#[must_use]
pub fn duration_totals_ns(events: &[TimelineEvent]) -> BTreeMap<String, u64> {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for path in walk(events, |_| {}) {
        *totals.entry(path.name.to_string()).or_insert(0) += path.total_ns;
    }
    totals
}

/// One call path of a [`span_tree`]: every span entered with the same
/// chain of enclosing spans, from the thread's outermost down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name as given to `span!`.
    pub name: String,
    /// Spans closed on this path.
    pub count: u64,
    /// Their total wall time, in nanoseconds.
    pub total_ns: u64,
    /// The last nonzero `span!(_, key = value)` attachment on this path.
    pub value: Option<u64>,
    /// The paths one span deeper, largest total first.
    pub children: Vec<SpanNode>,
}

/// Aggregates `events` into a tree keyed by call path, largest root
/// first. A site entered under two parents shows under both, each node
/// with its own count and total, so no child's total exceeds its
/// parent's. Walked like the exporters: each node's total minus its
/// children's is its [`folded_stacks`] weight.
#[must_use]
pub fn span_tree(events: &[TimelineEvent]) -> Vec<SpanNode> {
    fn nodes(paths: &[Path<'_>], parent: Option<usize>) -> Vec<SpanNode> {
        let mut nodes: Vec<SpanNode> = (0..paths.len())
            .filter(|&i| paths[i].parent == parent)
            .map(|i| SpanNode {
                name: paths[i].name.to_string(),
                count: paths[i].count,
                total_ns: paths[i].total_ns,
                value: (paths[i].arg != 0).then_some(paths[i].arg),
                children: nodes(paths, Some(i)),
            })
            .collect();
        nodes.sort_by_key(|node| std::cmp::Reverse(node.total_ns));
        nodes
    }
    nodes(&walk(events, |_| {}), None)
}

/// Renders a [`span_tree`] as an indented text table: count, total
/// milliseconds and percentage of the parent node's total, with the
/// node's attachment in brackets after its name.
#[must_use]
pub fn span_tree_text(roots: &[SpanNode]) -> String {
    fn render(nodes: &[SpanNode], depth: usize, parent_ns: Option<u64>, out: &mut String) {
        for node in nodes {
            let mut label = format!("{:indent$}{}", "", node.name, indent = 2 * depth);
            if let Some(value) = node.value {
                label.push_str(&format!(" [{value}]"));
            }
            let pct = match parent_ns {
                Some(p) if p > 0 => format!("{:6.1}%", node.total_ns as f64 / p as f64 * 100.0),
                _ => "      -".to_string(),
            };
            out.push_str(&format!(
                "{label:<32} {count:>6} {total_ms:>11.3} {pct}\n",
                count = node.count,
                total_ms = node.total_ns as f64 / 1e6,
            ));
            render(&node.children, depth + 1, Some(node.total_ns), out);
        }
    }
    let mut out = String::from("span                              count    total_ms   %parent\n");
    render(roots, 0, None, &mut out);
    out
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
