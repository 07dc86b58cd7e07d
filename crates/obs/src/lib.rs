//! `a2a_obs` — zero-dependency instrumentation core for the all-to-all
//! toolchain: RAII [`span`]s, [`Counter`]/[`Histogram`] registries, a
//! Chrome trace-event writer ([`chrome`]) and an aggregated [`summary`] tree.
//!
//! # Choosing spans vs counters vs histograms
//!
//! - **[`span`]** — when you need *where the wall time went*: a region with
//!   a begin and an end that nests (solve → master → pricing). Spans feed
//!   the summary tree and the Chrome trace. Cost while enabled: two clock
//!   reads and two buffered events per call — fine at refactorization/round
//!   cadence, too heavy *per pivot*.
//! - **[`Counter`]** — when you need *how often* (pivots, refactorizations,
//!   rejected basis updates). One relaxed `fetch_add`; safe in the innermost
//!   loops.
//! - **[`Histogram`]** — when the *distribution* matters, not just the
//!   total: per-iteration latency (is the tail collapsing?), FTRAN/BTRAN
//!   result density, fair-share recomputes. A few relaxed atomics per record
//!   and a fixed-size bucket array; safe in the innermost loops, and the
//!   summary tree renders p50/p90/p99/max.
//!
//! All three share the same disabled contract (one relaxed load) and the
//! same lazy registration, so instrumentation sites are just statics — no
//! central declaration list.
//!
//! # Overhead contract
//!
//! Instrumentation is **off by default** and gated on one process-global
//! switch ([`enable`]/[`disable`]). While disabled, every instrumentation
//! call — [`span`], [`instant`], [`Counter::add`], [`Histogram::record`] —
//! costs a single branch on a relaxed atomic load: **no allocation, no clock
//! read, no thread-local access, no registration**. This is what lets the LP
//! pivot loop and the LU solve kernels carry spans permanently without
//! moving the benchmark's untraced walls (its traced rep reports the
//! enabled-mode cost as `obs.overhead_ratio`).
//!
//! While enabled, spans record two monotonic timestamps (enter/exit) into a
//! **thread-local** event buffer — no locks on the hot path, no cross-thread
//! contention. Counters become one relaxed `fetch_add`.
//!
//! # Deterministic merge rule
//!
//! Each thread buffers its events privately and is assigned a process-wide
//! **ordinal** when it first records (the rayon shim spawns scoped workers
//! per parallel sweep, so each sweep's workers get fresh buffers). [`flush`]
//! drains every thread's buffer and returns them **sorted by ordinal,
//! events in recording order within each thread**.
//! Because the solvers themselves are deterministic at any thread count
//! (the only parallel regions — the decomposed child LPs and widest-path
//! extraction — return their results in input order), the name-keyed span
//! and call counts of a flush are identical from run to run and machine to
//! machine; only the nesting of worker-thread spans and the wall-clock
//! durations vary.
//!
//! Per-thread buffers are capped (default 4Mi events, see
//! [`set_max_events_per_thread`]); overflow is never silent — dropped events
//! are counted per thread and surfaced as [`TraceData::dropped_events`].
//!
//! [`flush`] and [`reset`] are meant to be called from the coordinating
//! thread while no instrumented worker threads are live (workers in this
//! workspace are scoped and joined before any flush); events of a thread
//! that is still running become visible only after that thread exits.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod chrome;
mod counters;
mod histogram;
pub mod summary;

pub use counters::{Counter, CounterSnapshot};
pub use histogram::{Histogram, HistogramSnapshot, HistogramTimer};

/// Process-global instrumentation switch. Relaxed loads only — see the
/// crate-level overhead contract.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic clock epoch of every trace-event timestamp.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Per-thread event-buffer cap; overflow increments the thread's dropped
/// count instead of growing without bound.
static MAX_EVENTS_PER_THREAD: AtomicUsize = AtomicUsize::new(1 << 22);

static NEXT_ORDINAL: AtomicU64 = AtomicU64::new(0);

/// Every thread's shared event buffer, registered at the thread's first
/// record. [`flush`] reads these directly — it does **not** depend on TLS
/// destructor timing, which matters because `std::thread::scope` can return
/// before its workers' TLS destructors have run. Entries whose thread has
/// exited (sole strong reference) are pruned at flush/reset.
static BUFFERS: Mutex<Vec<Arc<SharedBuf>>> = Mutex::new(Vec::new());

/// Turns instrumentation on. Also pins the clock epoch on first call so all
/// subsequent timestamps share one time base.
pub fn enable() {
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns instrumentation off. Spans already entered still record their exit
/// (so buffers stay balanced); new spans and counter updates become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// One relaxed load — the entire cost of disabled instrumentation.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide epoch (pinned at first use).
pub(crate) fn now_nanos() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sets the per-thread event-buffer cap. A tuning/test hook; the default
/// (4Mi events per thread) is far above any workload in this repo. Applies
/// to events recorded after the call.
pub fn set_max_events_per_thread(cap: usize) {
    MAX_EVENTS_PER_THREAD.store(cap.max(1), Ordering::Relaxed);
}

/// What a single buffered record is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Enter,
    /// Span closed (matches the most recent unclosed [`EventKind::Enter`]
    /// with the same name on the same thread).
    Exit,
    /// Zero-duration marker (e.g. "dual simplex engaged").
    Instant,
}

/// One buffered trace record. Names are `&'static str` so recording never
/// allocates.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub name: &'static str,
    pub kind: EventKind,
    pub ts_nanos: u64,
}

/// All events one thread recorded, in recording order.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// Process-wide thread ordinal (assigned at the thread's first record).
    pub ordinal: u64,
    pub events: Vec<Event>,
    /// Events discarded on this thread because the buffer cap was reached.
    pub dropped: u64,
}

/// Everything a [`flush`] returns: per-thread event buffers in ordinal
/// order plus a snapshot of every registered counter and histogram.
#[derive(Clone, Debug)]
pub struct TraceData {
    /// Sorted by `ordinal`; events within a thread are in recording order.
    pub threads: Vec<ThreadTrace>,
    /// Name-sorted snapshot of all registered counters.
    pub counters: Vec<CounterSnapshot>,
    /// Name-sorted snapshot of all registered histograms.
    pub histograms: Vec<HistogramSnapshot>,
    /// Total events dropped across all threads (buffer-cap overflow). Never
    /// silently zero-extended: if this is nonzero the trace is incomplete.
    pub dropped_events: u64,
}

#[derive(Default)]
struct BufInner {
    events: Vec<Event>,
    dropped: u64,
}

struct SharedBuf {
    ordinal: u64,
    inner: Mutex<BufInner>,
}

fn new_registered_buf() -> Arc<SharedBuf> {
    let buf = Arc::new(SharedBuf {
        ordinal: NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed),
        inner: Mutex::new(BufInner::default()),
    });
    if let Ok(mut all) = BUFFERS.lock() {
        all.push(Arc::clone(&buf));
    }
    buf
}

thread_local! {
    static BUF: Arc<SharedBuf> = new_registered_buf();
}

fn record(kind: EventKind, name: &'static str) {
    let ts_nanos = now_nanos();
    // try_with: a record fired during thread teardown (after the TLS handle
    // dropped) has nowhere to go; losing it is harmless. The per-buffer
    // mutex is only ever contended by flush/reset, never by other
    // recording threads.
    let _ = BUF.try_with(|b| {
        let Ok(mut inner) = b.inner.lock() else {
            return;
        };
        if inner.events.len() >= MAX_EVENTS_PER_THREAD.load(Ordering::Relaxed) {
            inner.dropped += 1;
            return;
        }
        inner.events.push(Event {
            name,
            kind,
            ts_nanos,
        });
    });
}

/// RAII span guard returned by [`span`]. Records the matching exit when
/// dropped. The exit is recorded iff the enter was (even if instrumentation
/// was disabled in between), so buffers stay balanced.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records a zero-length span"]
pub struct Span {
    name: &'static str,
    armed: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            record(EventKind::Exit, self.name);
        }
    }
}

/// Opens a span; the returned guard records the exit on drop. Nesting is
/// per-thread and purely lexical: bind the guard (`let _s = span("x");`)
/// for the region it should cover.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span { name, armed: false };
    }
    record(EventKind::Enter, name);
    Span { name, armed: true }
}

/// Records a zero-duration marker event (e.g. "lp.dual_engaged").
#[inline]
pub fn instant(name: &'static str) {
    if is_enabled() {
        record(EventKind::Instant, name);
    }
}

/// Drains every thread's event buffer and snapshots every registered
/// counter and histogram. Buffers come back sorted by thread ordinal (see the
/// deterministic merge rule in the crate docs). Counter values are
/// snapshotted, not cleared — use [`reset`] to zero.
pub fn flush() -> TraceData {
    let mut threads: Vec<ThreadTrace> = Vec::new();
    if let Ok(mut all) = BUFFERS.lock() {
        for buf in all.iter() {
            let Ok(mut inner) = buf.inner.lock() else {
                continue;
            };
            let events = std::mem::take(&mut inner.events);
            let dropped = std::mem::take(&mut inner.dropped);
            if !events.is_empty() || dropped > 0 {
                threads.push(ThreadTrace {
                    ordinal: buf.ordinal,
                    events,
                    dropped,
                });
            }
        }
        // Prune buffers whose thread has exited (registry holds the only
        // remaining reference); their events were just drained.
        all.retain(|buf| Arc::strong_count(buf) > 1);
    }
    threads.sort_by_key(|t| t.ordinal);
    let dropped_events = threads.iter().map(|t| t.dropped).sum();
    TraceData {
        threads,
        counters: counters::snapshot(),
        histograms: histogram::snapshot(),
        dropped_events,
    }
}

/// Clears every thread's buffered events and zeroes every registered
/// counter and histogram. Call between scoped measurements from the
/// coordinating thread while no instrumented workers are recording.
pub fn reset() {
    if let Ok(mut all) = BUFFERS.lock() {
        for buf in all.iter() {
            if let Ok(mut inner) = buf.inner.lock() {
                inner.events.clear();
                inner.dropped = 0;
            }
        }
        all.retain(|buf| Arc::strong_count(buf) > 1);
    }
    counters::reset_all();
    histogram::reset_all();
}
