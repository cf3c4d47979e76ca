//! Scoped wall-clock timers with relaxed-atomic per-site aggregation.
//!
//! A *span site* is one `span!("name")` expansion: a `static` that lazily
//! claims a slot in a fixed global table on first entry. Entering a span
//! returns a guard; dropping the guard (including during panic
//! unwinding) adds the elapsed wall time to the site's totals, and
//! [`SpanGuard::finish`] does the same and also returns that time, so a
//! caller that reports a scope's duration reads the span's own clock
//! instead of keeping a second timer. The whole
//! mechanism is allocation-free: slots live in a fixed `static` array
//! and site names are `&'static str`.
//!
//! A slot knows its site's count and total, not where it was entered
//! from: nesting lives only in the event timeline each entry and exit
//! also feeds (see [`events`](crate::events)), and the call-path tree
//! of `qplacer profile` is read off that timeline
//! ([`span_tree`](crate::span_tree)).
//!
//! Spans are **disabled by default**; [`set_spans_enabled`] flips one
//! global atomic, and a disabled [`SpanSite::enter`] is one relaxed load
//! plus a clock read, returning a guard that claims no slot, records no
//! events and aggregates nothing, but can still [`finish`](SpanGuard::finish)
//! with its elapsed time — cheap enough to leave in release hot paths.
//!
//! Timing goes only into observability state, never into placement
//! results, so the repo's determinism contracts are untouched.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Maximum number of distinct span call sites the global table holds.
/// Sites past the limit degrade to no-ops instead of failing.
pub const MAX_SPAN_SITES: usize = 128;

const NO_SLOT: u32 = u32::MAX;

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
}

impl Slot {
    const fn new() -> Self {
        Slot {
            name: OnceLock::new(),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

static SLOTS: [Slot; MAX_SPAN_SITES] = [const { Slot::new() }; MAX_SPAN_SITES];
static NEXT_SLOT: AtomicU32 = AtomicU32::new(0);

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
        self.enter_with(0)
    }

    /// Like [`SpanSite::enter`], but also stamps `value` on the entry's
    /// begin event (the bracketed value of the profile tree).
    pub fn enter_with(&self, value: u64) -> SpanGuard {
        if !spans_enabled() {
            return SpanGuard::detached();
        }
        let slot = *self.slot.get_or_init(|| register(self.name));
        if slot == NO_SLOT {
            return SpanGuard::detached();
        }
        // Timeline hook: one Begin event when a recording mode is
        // active (a single relaxed load otherwise). The same `span!`
        // sites feed both the aggregate slots and the event timeline.
        crate::events::record(slot, crate::events::EventKind::Begin, value);
        SpanGuard {
            slot,
            start: Instant::now(),
            _not_send: PhantomData,
        }
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
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    fn detached() -> Self {
        SpanGuard {
            slot: NO_SLOT,
            start: Instant::now(),
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
/// on the entry's begin event; the key is documentation only.
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
}

/// Snapshot of every span site entered at least once, in registration
/// order.
#[must_use]
pub fn span_report() -> Vec<SpanStat> {
    let n = (NEXT_SLOT.load(Ordering::Acquire) as usize).min(MAX_SPAN_SITES);
    (0..n)
        .map(|i| {
            let slot = &SLOTS[i];
            SpanStat {
                name: slot.name.get().copied().unwrap_or(""),
                count: slot.count.load(Ordering::Relaxed),
                total_ns: slot.total_ns.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Zeroes every site's counters (slots stay claimed, so
/// cached site indices remain valid). Meant for tests and benchmark
/// setup; concurrent in-flight spans may land counts after the reset.
pub fn reset_spans() {
    let n = (NEXT_SLOT.load(Ordering::Acquire) as usize).min(MAX_SPAN_SITES);
    for slot in SLOTS.iter().take(n) {
        slot.count.store(0, Ordering::Relaxed);
        slot.total_ns.store(0, Ordering::Relaxed);
    }
}
