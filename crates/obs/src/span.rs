//! Scoped wall-clock timers with thread-local nesting and relaxed-atomic
//! aggregation.
//!
//! A *span site* is one `span!("name")` expansion: a `static` that lazily
//! claims a slot in a fixed global table on first entry. Entering a span
//! returns a guard; dropping the guard (including during panic
//! unwinding) adds the elapsed wall time to the site's totals, and
//! [`SpanGuard::finish`] does the same and also returns that time, so a
//! caller that reports a scope's duration reads the span's own clock
//! instead of keeping a second timer. The whole
//! mechanism is allocation-free: slots live in a fixed `static` array,
//! the per-thread nesting stack is a const-initialized fixed array, and
//! site names are `&'static str`.
//!
//! Spans are **disabled by default**; [`set_spans_enabled`] flips one
//! global atomic, and a disabled [`SpanSite::enter`] is one relaxed load
//! plus a clock read, returning a guard that claims no slot, records no
//! events and aggregates nothing, but can still [`finish`](SpanGuard::finish)
//! with its elapsed time — cheap enough to leave in release hot paths.
//!
//! Timing goes only into observability state, never into placement
//! results, so the repo's determinism contracts are untouched.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Maximum number of distinct span call sites the global table holds.
/// Sites past the limit degrade to no-ops instead of failing.
pub const MAX_SPAN_SITES: usize = 128;

/// Maximum span nesting depth tracked per thread. Deeper spans still
/// aggregate time but stop recording parent edges.
pub const MAX_SPAN_DEPTH: usize = 32;

const NO_SLOT: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables span aggregation and events. Disabled
/// spans cost one relaxed atomic load plus a clock read.
pub fn set_spans_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span timing is currently enabled.
#[must_use]
pub fn spans_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct Slot {
    name: OnceLock<&'static str>,
    count: AtomicU64,
    total_ns: AtomicU64,
    /// First-seen parent slot (NO_PARENT for roots), for the profile tree.
    parent: AtomicU32,
    /// Most recent `span!("name", key = value)` attachment.
    last_value: AtomicU64,
    has_value: AtomicBool,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            name: OnceLock::new(),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            parent: AtomicU32::new(NO_PARENT),
            last_value: AtomicU64::new(0),
            has_value: AtomicBool::new(false),
        }
    }
}

static SLOTS: [Slot; MAX_SPAN_SITES] = [const { Slot::new() }; MAX_SPAN_SITES];
static NEXT_SLOT: AtomicU32 = AtomicU32::new(0);

struct Stack {
    frames: [u32; MAX_SPAN_DEPTH],
    depth: usize,
}

thread_local! {
    static STACK: RefCell<Stack> = const {
        RefCell::new(Stack { frames: [0; MAX_SPAN_DEPTH], depth: 0 })
    };
}

static REGISTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn register(name: &'static str) -> u32 {
    // Registration happens once per call site (guarded by the site's
    // OnceLock), so a lock plus linear scan here costs nothing steady
    // state. The scan makes same-name sites share one slot, so a span
    // name aggregates across call sites.
    let _lock = REGISTER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let n = (NEXT_SLOT.load(Ordering::Acquire) as usize).min(MAX_SPAN_SITES);
    for (i, slot) in SLOTS.iter().enumerate().take(n) {
        if slot.name.get().is_some_and(|&existing| existing == name) {
            return i as u32;
        }
    }
    if n >= MAX_SPAN_SITES {
        // Saturation used to be silent: the site degrades to a no-op
        // and its time simply vanishes from every report. Surface it
        // through the global registry so a scrape can alarm on it.
        // Counted once per dropped *site* (the slot cache keeps this
        // path from re-running per entry).
        crate::registry::global()
            .counter("qplacer_span_sites_dropped_total")
            .inc();
        return NO_SLOT;
    }
    let _ = SLOTS[n].name.set(name);
    NEXT_SLOT.store(n as u32 + 1, Ordering::Release);
    n as u32
}

/// The name registered for `slot`, or `"?"` for an invalid slot. Used
/// by the event layer to resolve site ids at snapshot time.
pub(crate) fn site_name(slot: u32) -> &'static str {
    SLOTS
        .get(slot as usize)
        .and_then(|s| s.name.get().copied())
        .unwrap_or("?")
}

/// One `span!` expansion site. Construct via the [`span!`](crate::span!)
/// macro rather than directly; the macro makes the required `static`.
pub struct SpanSite {
    name: &'static str,
    slot: OnceLock<u32>,
}

impl SpanSite {
    /// A new site for `name`. `const` so the `span!` macro can put it in
    /// a `static`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        SpanSite {
            name,
            slot: OnceLock::new(),
        }
    }

    /// Enters the span, returning the guard that records elapsed time on
    /// drop. While spans are disabled the guard only holds its start
    /// time, for [`SpanGuard::finish`].
    pub fn enter(&self) -> SpanGuard {
        self.enter_impl(None)
    }

    fn enter_impl(&self, value: Option<u64>) -> SpanGuard {
        if !spans_enabled() {
            return SpanGuard::detached();
        }
        let slot = *self.slot.get_or_init(|| register(self.name));
        if slot == NO_SLOT {
            return SpanGuard::detached();
        }
        if let Some(value) = value {
            SLOTS[slot as usize]
                .last_value
                .store(value, Ordering::Relaxed);
            SLOTS[slot as usize]
                .has_value
                .store(true, Ordering::Relaxed);
        }
        let pushed = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.depth > 0 {
                let parent = stack.frames[stack.depth - 1];
                if parent != slot {
                    let _ = SLOTS[slot as usize].parent.compare_exchange(
                        NO_PARENT,
                        parent,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                }
            }
            if stack.depth < MAX_SPAN_DEPTH {
                let depth = stack.depth;
                stack.frames[depth] = slot;
                stack.depth = depth + 1;
                true
            } else {
                false
            }
        });
        // Timeline hook: one Begin event when a recording mode is
        // active (a single relaxed load otherwise). The same `span!`
        // sites feed both the aggregate slots and the event timeline.
        crate::events::record(slot, crate::events::EventKind::Begin, value.unwrap_or(0));
        SpanGuard {
            slot,
            start: Instant::now(),
            pushed,
            _not_send: PhantomData,
        }
    }

    /// Like [`SpanSite::enter`], but also stamps `value` as the site's
    /// most recent attachment (shown in the span report).
    pub fn enter_with(&self, value: u64) -> SpanGuard {
        self.enter_impl(Some(value))
    }
}

/// RAII guard for one span entry; records elapsed wall time when
/// dropped, including during panic unwinding, or when
/// [`finish`](SpanGuard::finish)ed. Must be dropped on the thread that
/// entered it (it is deliberately `!Send`).
#[must_use = "a span guard times the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    /// `NO_SLOT` while detached: spans disabled, the site table full, or
    /// the time already recorded.
    slot: u32,
    start: Instant,
    pushed: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    fn detached() -> Self {
        SpanGuard {
            slot: NO_SLOT,
            start: Instant::now(),
            pushed: false,
            _not_send: PhantomData,
        }
    }

    /// Closes the span and returns its elapsed time. With spans enabled
    /// the site's total grows by exactly this duration, once (the
    /// guard's drop then records nothing); with spans disabled only the
    /// duration is returned.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.record(elapsed);
        elapsed
    }

    fn record(&mut self, elapsed: Duration) {
        if self.slot == NO_SLOT {
            return;
        }
        let slot = &SLOTS[self.slot as usize];
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.total_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        crate::events::record(self.slot, crate::events::EventKind::End, 0);
        if self.pushed {
            STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                stack.depth = stack.depth.saturating_sub(1);
            });
        }
        self.slot = NO_SLOT;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.slot != NO_SLOT {
            self.record(self.start.elapsed());
        }
    }
}

/// Opens a named span in the enclosing scope.
///
/// ```
/// qplacer_obs::set_spans_enabled(true);
/// {
///     let _span = qplacer_obs::span!("dct2_2d", grid = 256u64);
///     // ... timed work ...
/// }
/// let report = qplacer_obs::span_report();
/// assert!(report.iter().any(|s| s.name == "dct2_2d" && s.count >= 1));
/// qplacer_obs::set_spans_enabled(false);
/// ```
///
/// The optional `key = value` form stamps `value` (converted to `u64`)
/// as the site's most recent attachment; the key is documentation only.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __QPLACER_SPAN_SITE: $crate::SpanSite = $crate::SpanSite::new($name);
        __QPLACER_SPAN_SITE.enter()
    }};
    ($name:literal, $key:ident = $value:expr) => {{
        static __QPLACER_SPAN_SITE: $crate::SpanSite = $crate::SpanSite::new($name);
        __QPLACER_SPAN_SITE.enter_with(($value) as u64)
    }};
}

/// Aggregated statistics for one span site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Site name as given to `span!`.
    pub name: &'static str,
    /// Completed entries.
    pub count: u64,
    /// Total wall time across entries, in nanoseconds.
    pub total_ns: u64,
    /// Index (into the same report vector) of the first-seen enclosing
    /// span, if any.
    pub parent: Option<usize>,
    /// Most recent `key = value` attachment, if any.
    pub last_value: Option<u64>,
}

/// Snapshot of every span site entered at least once, in registration
/// order. `parent` indices refer into the returned vector.
#[must_use]
pub fn span_report() -> Vec<SpanStat> {
    let n = (NEXT_SLOT.load(Ordering::Acquire) as usize).min(MAX_SPAN_SITES);
    (0..n)
        .map(|i| {
            let slot = &SLOTS[i];
            let parent = slot.parent.load(Ordering::Relaxed);
            SpanStat {
                name: slot.name.get().copied().unwrap_or(""),
                count: slot.count.load(Ordering::Relaxed),
                total_ns: slot.total_ns.load(Ordering::Relaxed),
                parent: (parent != NO_PARENT).then_some(parent as usize),
                last_value: slot
                    .has_value
                    .load(Ordering::Relaxed)
                    .then(|| slot.last_value.load(Ordering::Relaxed)),
            }
        })
        .collect()
}

/// Zeroes every site's counters and parent edges (slots stay claimed, so
/// cached site indices remain valid). Meant for tests and benchmark
/// setup; concurrent in-flight spans may land counts after the reset.
pub fn reset_spans() {
    let n = (NEXT_SLOT.load(Ordering::Acquire) as usize).min(MAX_SPAN_SITES);
    for slot in SLOTS.iter().take(n) {
        slot.count.store(0, Ordering::Relaxed);
        slot.total_ns.store(0, Ordering::Relaxed);
        slot.parent.store(NO_PARENT, Ordering::Relaxed);
        slot.has_value.store(false, Ordering::Relaxed);
        slot.last_value.store(0, Ordering::Relaxed);
    }
}

/// Renders the aggregated span tree as an indented text table: count,
/// total milliseconds, and percentage of the parent span's total.
#[must_use]
pub fn render_span_tree() -> String {
    let stats = span_report();
    let mut out = String::new();
    out.push_str("span                              count    total_ms   %parent\n");
    let mut roots: Vec<usize> = (0..stats.len())
        .filter(|&i| stats[i].parent.is_none() && stats[i].count > 0)
        .collect();
    roots.sort_by(|&a, &b| stats[b].total_ns.cmp(&stats[a].total_ns));
    for root in roots {
        render_node(&stats, root, 0, None, &mut out);
    }
    out
}

fn render_node(
    stats: &[SpanStat],
    index: usize,
    depth: usize,
    parent_total_ns: Option<u64>,
    out: &mut String,
) {
    let stat = &stats[index];
    let mut label = String::new();
    for _ in 0..depth {
        label.push_str("  ");
    }
    label.push_str(stat.name);
    if let Some(value) = stat.last_value {
        label.push_str(&format!(" [{value}]"));
    }
    let pct = match parent_total_ns {
        Some(p) if p > 0 => format!("{:6.1}%", stat.total_ns as f64 / p as f64 * 100.0),
        _ => "      -".to_string(),
    };
    out.push_str(&format!(
        "{label:<32} {count:>6} {total_ms:>11.3} {pct}\n",
        count = stat.count,
        total_ms = stat.total_ns as f64 / 1e6,
    ));
    let mut children: Vec<usize> = (0..stats.len())
        .filter(|&i| stats[i].parent == Some(index) && stats[i].count > 0)
        .collect();
    children.sort_by(|&a, &b| stats[b].total_ns.cmp(&stats[a].total_ns));
    for child in children {
        render_node(stats, child, depth + 1, Some(stat.total_ns), out);
    }
}
