//! Event-timeline recording: begin/end events with a trace
//! context, per-thread buffers, and an always-on flight recorder.
//!
//! Where [`span_report`](crate::span_report) answers *"how much time,
//! on average, per site"*, the event layer answers *"what did request X
//! actually do, and when"*: every `span!` entry/exit can additionally
//! append one fixed-size [`Event`] — site id, monotonic nanosecond timestamp,
//! thread id, 64-bit trace id, and a `u64` argument — to a lock-light
//! per-thread buffer. Instrumentation stays single-source: the existing
//! `span!` sites feed both the aggregate slots and the timeline.
//!
//! Three recording modes ([`EventMode`]):
//!
//! - **`Off`** (default) — recording is a single relaxed atomic load
//!   and nothing else: no thread-local access, no allocation. Behind
//!   the span gate, a disabled call site records no event at all.
//! - **`Flight`** — an always-on bounded flight recorder: each thread
//!   keeps an overwrite-oldest ring of the last
//!   [`flight_capacity`] events. A slow or wedged process can be
//!   diagnosed *after the fact* by dumping the rings
//!   ([`event_snapshot`]); steady-state recording never allocates once
//!   a thread's ring is warm.
//! - **`Capture`** — unbounded growth for profiling runs that will be
//!   exported in full (Chrome trace / flamegraph, see
//!   [`export`](crate::export)).
//!
//! The **trace context** is a thread-scoped 64-bit trace id stamped
//! onto every event. Services adopt the client-supplied id for the
//! duration of a job ([`adopt_trace_id`]), so one request's placer,
//! legalizer, and assigner events all correlate even when concurrent
//! jobs interleave on the timeline. Ids are generated by
//! [`fresh_trace_id`] (never 0; 0 means "no context").
//!
//! Nothing here feeds back into placement results, so the workspace's
//! determinism contract — bit-identical layouts traced vs untraced —
//! holds by construction.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread flight-recorder capacity, in events. At ~40 bytes
/// per event this is ~320 KiB per thread: the last few thousand span
/// entries and exits, enough for a whole fast Falcon job (~4,400
/// events) or many small ones.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 8192;

/// What kind of timeline point an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was entered.
    Begin,
    /// A span was exited.
    End,
}

/// One recorded timeline event. Fixed-size and `Copy`, so ring
/// recording is a handful of word stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Span-site slot index (resolve via the span table).
    pub site: u32,
    /// Begin / End.
    pub kind: EventKind,
    /// Recorder-assigned dense thread id (stable for a thread's life).
    pub tid: u32,
    /// Nanoseconds since the process-wide event epoch (monotonic).
    pub ts_ns: u64,
    /// Trace id in effect on the recording thread (0 = no context).
    pub trace_id: u64,
    /// Site argument (`span!(_, key = value)` attachment, 0 on End).
    pub arg: u64,
}

/// Event-recording mode; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventMode {
    /// No recording (default): one relaxed load per call site.
    Off,
    /// Bounded overwrite-oldest ring per thread (flight recorder).
    Flight,
    /// Unbounded capture for full-profile export.
    Capture,
}

const MODE_OFF: u8 = 0;
const MODE_FLIGHT: u8 = 1;
const MODE_CAPTURE: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_OFF);
static FLIGHT_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_FLIGHT_CAPACITY);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Sets the event-recording mode. Events also require spans to be
/// enabled ([`set_spans_enabled`](crate::set_spans_enabled)) — the span
/// gate is the single cheap on/off switch; the mode chooses bounded vs
/// unbounded retention.
pub fn set_event_mode(mode: EventMode) {
    let bits = match mode {
        EventMode::Off => MODE_OFF,
        EventMode::Flight => MODE_FLIGHT,
        EventMode::Capture => MODE_CAPTURE,
    };
    MODE.store(bits, Ordering::Relaxed);
}

/// The current event-recording mode.
#[must_use]
pub fn event_mode() -> EventMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_FLIGHT => EventMode::Flight,
        MODE_CAPTURE => EventMode::Capture,
        _ => EventMode::Off,
    }
}

/// Whether events are currently being recorded (mode is not `Off`).
#[must_use]
pub fn events_enabled() -> bool {
    MODE.load(Ordering::Relaxed) != MODE_OFF
}

/// Sets the per-thread flight-recorder capacity (min 16 events).
/// Applies to rings sized after the call; existing rings keep their
/// size until [`clear_events`].
pub fn set_flight_capacity(capacity: usize) {
    FLIGHT_CAPACITY.store(capacity.max(16), Ordering::Relaxed);
}

/// The per-thread flight-recorder capacity, in events.
#[must_use]
pub fn flight_capacity() -> usize {
    FLIGHT_CAPACITY.load(Ordering::Relaxed)
}

/// Process-wide monotonic epoch all event timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// The trace id in effect on this thread (0 when no context is active).
#[must_use]
pub fn current_trace_id() -> u64 {
    CURRENT_TRACE.with(Cell::get)
}

/// A stable, never-zero 64-bit trace id. Ids mix a process-global
/// counter through a SplitMix64 finalizer so concurrent callers get
/// well-spread ids without coordination.
#[must_use]
pub fn fresh_trace_id() -> u64 {
    // Seed the sequence from wall time once so different processes
    // (e.g. several CLI clients against one daemon) do not collide on
    // small counter values. Trace ids never feed placement results, so
    // the nondeterminism stays inside observability state.
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
    });
    let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z.max(1)
}

/// Makes `trace_id` the current context on this thread until the
/// returned guard drops (the previous context is then restored).
/// Use id 0 to explicitly clear the context for a scope.
#[must_use = "dropping the scope immediately restores the previous trace context"]
pub fn adopt_trace_id(trace_id: u64) -> TraceScope {
    let previous = CURRENT_TRACE.with(|current| current.replace(trace_id));
    TraceScope {
        previous,
        _not_send: std::marker::PhantomData,
    }
}

/// RAII guard restoring the previous thread trace context on drop.
/// Deliberately `!Send`: a context belongs to the thread that adopted
/// it.
pub struct TraceScope {
    previous: u64,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|current| current.set(self.previous));
    }
}

// ---------------------------------------------------------------------
// Per-thread buffers
// ---------------------------------------------------------------------

struct ThreadBuffer {
    tid: u32,
    events: Vec<Event>,
    /// Ring capacity when recording in `Flight` mode (fixed at first
    /// use; [`clear_events`] resets it so a new capacity can apply).
    ring_capacity: usize,
    /// Ring write cursor (`Flight` mode, once full).
    next: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
}

impl ThreadBuffer {
    fn record(&mut self, event: Event, mode: u8) {
        if mode == MODE_CAPTURE {
            self.events.push(event);
            return;
        }
        if self.events.len() < self.ring_capacity {
            self.events.push(event);
            self.next = self.events.len() % self.ring_capacity;
        } else {
            self.events[self.next] = event;
            self.next = (self.next + 1) % self.ring_capacity;
            self.dropped += 1;
        }
    }

    /// Events oldest-first (un-rotates the ring when it has wrapped).
    fn ordered(&self) -> Vec<Event> {
        if self.dropped == 0 {
            self.events.clone()
        } else {
            let mut out = Vec::with_capacity(self.events.len());
            out.extend_from_slice(&self.events[self.next..]);
            out.extend_from_slice(&self.events[..self.next]);
            out
        }
    }
}

/// Every live thread's buffer, plus those of exited threads until the
/// next [`clear_events`], so snapshots and flight dumps still see
/// threads that have since exited. Buffers are only created while
/// recording is enabled, so a process that never records never touches
/// this.
static BUFFERS: Mutex<Vec<Arc<Mutex<ThreadBuffer>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: OnceLock<Arc<Mutex<ThreadBuffer>>> = const { OnceLock::new() };
}

fn with_local(f: impl FnOnce(&mut ThreadBuffer, u8)) {
    let mode = MODE.load(Ordering::Relaxed);
    if mode == MODE_OFF {
        return;
    }
    LOCAL.with(|local| {
        let buffer = local.get_or_init(|| {
            // Pre-size to the ring capacity: flight-mode recording then
            // never reallocates, so steady state is allocation-free
            // once a thread's ring exists.
            let ring_capacity = flight_capacity();
            let buffer = Arc::new(Mutex::new(ThreadBuffer {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                events: Vec::with_capacity(ring_capacity),
                ring_capacity,
                next: 0,
                dropped: 0,
            }));
            BUFFERS
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push(Arc::clone(&buffer));
            buffer
        });
        // The mutex is uncontended except while a snapshot is being
        // taken, so this is a couple of atomic ops steady state.
        let mut buffer = buffer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        f(&mut buffer, mode);
    });
}

/// Appends one event for `site` on the calling thread. Called by the
/// span layer behind its own enabled gate; a no-op unless a recording
/// mode is active.
pub(crate) fn record(site: u32, kind: EventKind, arg: u64) {
    // Gate first: when recording is off this is one relaxed load, no
    // thread-local access, no timestamp, no allocation.
    if MODE.load(Ordering::Relaxed) == MODE_OFF {
        return;
    }
    let event = Event {
        site,
        kind,
        tid: 0, // stamped below from the owning buffer
        ts_ns: now_ns(),
        trace_id: current_trace_id(),
        arg,
    };
    with_local(|buffer, mode| {
        let mut event = event;
        event.tid = buffer.tid;
        buffer.record(event, mode);
    });
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// One event with its site resolved to a name — the exporter-facing
/// form (see [`export`](crate::export)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Span-site name (as given to `span!`).
    pub name: String,
    /// Begin / End.
    pub kind: EventKind,
    /// Recorder-assigned thread id.
    pub tid: u32,
    /// Nanoseconds since the event epoch.
    pub ts_ns: u64,
    /// Trace id (0 = recorded outside any context).
    pub trace_id: u64,
    /// Site argument.
    pub arg: u64,
}

/// A cross-thread copy of every recorded event, oldest-first.
#[derive(Debug, Clone, Default)]
pub struct EventSnapshot {
    /// Events from all threads, merged in timestamp order.
    pub events: Vec<TimelineEvent>,
    /// Events lost to flight-ring overwrites (across all threads).
    pub dropped: u64,
}

/// Collects every thread's buffer into one timestamp-ordered snapshot.
/// Recording may continue concurrently; the snapshot is a consistent
/// copy of each ring at the moment its lock was held.
#[must_use]
pub fn event_snapshot() -> EventSnapshot {
    let buffers: Vec<Arc<Mutex<ThreadBuffer>>> = BUFFERS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for buffer in buffers {
        let buffer = buffer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        dropped += buffer.dropped;
        for event in buffer.ordered() {
            events.push(TimelineEvent {
                name: crate::span::site_name(event.site).to_string(),
                kind: event.kind,
                tid: event.tid,
                ts_ns: event.ts_ns,
                trace_id: event.trace_id,
                arg: event.arg,
            });
        }
    }
    // Stable sort: per-thread order (already chronological) is kept for
    // equal timestamps, so B/E nesting within a thread never inverts.
    events.sort_by_key(|e| e.ts_ns);
    EventSnapshot { events, dropped }
}

/// Discards every recorded event and forgets per-thread rings (so a new
/// [`flight_capacity`] takes effect). The buffers of exited threads are
/// freed. Meant for tests, benchmark setup, and the start of a capture
/// run.
pub fn clear_events() {
    let buffers: Vec<Arc<Mutex<ThreadBuffer>>> = {
        let mut all = BUFFERS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // A live thread holds its own reference in `LOCAL`; a buffer
        // only the registry holds belongs to a thread that has exited.
        all.retain(|buffer| Arc::strong_count(buffer) > 1);
        all.clone()
    };
    let capacity = flight_capacity();
    for buffer in buffers {
        let mut buffer = buffer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        buffer.events.clear();
        buffer.events.shrink_to(capacity);
        buffer.events.reserve(capacity);
        buffer.ring_capacity = capacity;
        buffer.next = 0;
        buffer.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_trace_ids_are_distinct_and_nonzero() {
        let a = fresh_trace_id();
        let b = fresh_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn adopt_restores_previous_context() {
        let outer = adopt_trace_id(77);
        assert_eq!(current_trace_id(), 77);
        {
            let _inner = adopt_trace_id(99);
            assert_eq!(current_trace_id(), 99);
        }
        assert_eq!(current_trace_id(), 77);
        drop(outer);
        assert_eq!(current_trace_id(), 0);
    }

    #[test]
    fn flight_ring_overwrites_oldest() {
        let mut buffer = ThreadBuffer {
            tid: 7,
            events: Vec::new(),
            ring_capacity: 4,
            next: 0,
            dropped: 0,
        };
        for i in 0..6u64 {
            buffer.record(
                Event {
                    site: 0,
                    kind: EventKind::Begin,
                    tid: 7,
                    ts_ns: i,
                    trace_id: 0,
                    arg: i,
                },
                MODE_FLIGHT,
            );
        }
        assert_eq!(buffer.dropped, 2);
        let ordered = buffer.ordered();
        assert_eq!(
            ordered.iter().map(|e| e.arg).collect::<Vec<_>>(),
            vec![2, 3, 4, 5],
            "oldest events were overwritten, survivors stay in order"
        );
    }

    #[test]
    fn clear_frees_the_buffers_of_exited_threads() {
        let live_tids = || -> Vec<u32> {
            BUFFERS
                .lock()
                .unwrap()
                .iter()
                .map(|b| b.lock().unwrap().tid)
                .collect()
        };
        set_event_mode(EventMode::Capture);
        for _ in 0..3 {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    std::thread::spawn(|| {
                        record(0, EventKind::Begin, 0);
                        LOCAL.with(|l| l.get().unwrap().lock().unwrap().tid)
                    })
                })
                .collect();
            let exited: Vec<u32> = workers.into_iter().map(|w| w.join().unwrap()).collect();
            let before = live_tids();
            assert!(
                exited.iter().all(|t| before.contains(t)),
                "kept until cleared"
            );
            clear_events();
            let after = live_tids();
            assert!(exited.iter().all(|t| !after.contains(t)), "{after:?}");
        }
        set_event_mode(EventMode::Off);
    }

    #[test]
    fn capture_mode_grows_unbounded() {
        let mut buffer = ThreadBuffer {
            tid: 1,
            events: Vec::new(),
            ring_capacity: 4,
            next: 0,
            dropped: 0,
        };
        for i in 0..100u64 {
            buffer.record(
                Event {
                    site: 0,
                    kind: EventKind::Begin,
                    tid: 1,
                    ts_ns: i,
                    trace_id: 0,
                    arg: i,
                },
                MODE_CAPTURE,
            );
        }
        assert_eq!(buffer.events.len(), 100);
        assert_eq!(buffer.dropped, 0);
    }
}
