//! Zero-dependency observability for the MVASD suite: hierarchical spans
//! with monotonic timing, counters/gauges, and fixed-bucket log-linear
//! histograms behind a cheap [`Recorder`] trait.
//!
//! The paper derives every model input from *observed* quantities (vmstat,
//! iostat, eq. 7 packet counters); this crate makes the model pipeline
//! itself observable the same way. Every solver step, stop-condition check,
//! sweep cache decision, simulator run, and campaign worker emits events
//! through the free functions here ([`span`], [`counter`], [`gauge`],
//! [`observe`]).
//!
//! # Overhead policy
//!
//! Instrumentation is **off by default** and must cost near-zero when off:
//! every free function starts with one relaxed atomic load and returns
//! immediately when no recorder is installed — no clock reads, no
//! allocation, no locks. Label closures ([`span_with`]) are only evaluated
//! when a recorder is live. The root `observability` suite asserts both the
//! bit-for-bit determinism of solver output under instrumentation and a
//! < 2 % overhead bound for the disabled path.
//!
//! # Typical use
//!
//! ```
//! use std::sync::Arc;
//! use mvasd_obsv as obsv;
//!
//! let collector = Arc::new(obsv::Collector::new());
//! let _guard = obsv::scoped(collector.clone());
//! {
//!     let _span = obsv::span("demo.work");
//!     obsv::counter("demo.items", 3);
//! }
//! let snap = collector.snapshot();
//! assert_eq!(snap.counter("demo.items"), 3);
//! assert_eq!(snap.spans_named("demo.work"), 1);
//! // Loadable in chrome://tracing or https://ui.perfetto.dev:
//! let trace = snap.to_chrome_trace();
//! assert!(obsv::json::parse(&trace).is_ok());
//! ```

#![forbid(unsafe_code)]

pub mod collector;
mod diff;
pub mod health;
pub mod hist;
pub mod json;
mod sink;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

pub use collector::{Collector, Snapshot};
pub use health::{HealthProbe, HealthReport};
pub use hist::{Histogram, HistogramSnapshot};

/// A finished span: a named, timed region of work on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (e.g. `"mvasd.step"`).
    pub name: &'static str,
    /// Optional per-instance label (e.g. `"n=1500"`).
    pub label: Option<String>,
    /// Stable per-thread index (assigned on first use, starting at 1).
    pub thread: u64,
    /// Nesting depth on the emitting thread (0 = top level).
    pub depth: u16,
    /// Start time in nanoseconds since the process observability epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// The event sink every instrumentation call fans into.
///
/// Implementations must be cheap and thread-safe: solver inner loops call
/// these methods. [`Collector`] aggregates; a unit-struct no-op
/// ([`NoopRecorder`]) documents the disabled behaviour (though the real
/// disabled path short-circuits before any trait dispatch).
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &str, delta: u64);
    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &str, value: f64);
    /// Records one value into the named log-linear histogram.
    fn observe(&self, name: &str, value: u64);
    /// Records a finished span.
    fn record_span(&self, span: SpanRecord);
}

/// A recorder that drops everything. Installing it is equivalent to (but
/// marginally slower than) installing nothing at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, _name: &str, _value: f64) {}
    fn observe(&self, _name: &str, _value: u64) {}
    fn record_span(&self, _span: SpanRecord) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_INDEX: Cell<u64> = const { Cell::new(0) };
    static SPAN_DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// The process-wide time origin for span timestamps. Pinned the first time
/// a recorder is installed, so all `start_ns` values share one epoch.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Stable small integer identifying the calling thread (first use = 1).
fn current_thread() -> u64 {
    THREAD_INDEX.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(id);
            id
        }
    })
}

/// Whether a recorder is installed. One relaxed atomic load — the fast
/// path every instrumentation call takes when observability is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `recorder` as the process-global sink and enables
/// instrumentation. Replaces any previous recorder.
pub fn install(recorder: Arc<dyn Recorder>) {
    let _ = epoch();
    let mut slot = RECORDER.write().unwrap_or_else(|p| p.into_inner());
    *slot = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Disables instrumentation and returns the previously installed recorder,
/// if any.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::Release);
    let mut slot = RECORDER.write().unwrap_or_else(|p| p.into_inner());
    slot.take()
}

/// Installs `recorder` for the lifetime of the returned guard, restoring
/// the previous recorder (or the disabled state) on drop. The pattern for
/// tests and scoped capture sessions.
///
/// The recorder is process-global: tests that install one must serialize
/// against each other (one `Mutex<()>` per test binary does it).
#[must_use = "the recorder is uninstalled when the guard drops"]
pub fn scoped(recorder: Arc<dyn Recorder>) -> ScopedRecorder {
    let _ = epoch();
    let mut slot = RECORDER.write().unwrap_or_else(|p| p.into_inner());
    let prev = slot.replace(recorder);
    ENABLED.store(true, Ordering::Release);
    ScopedRecorder { prev: Some(prev) }
}

/// Guard returned by [`scoped`]; restores the previous recorder on drop.
pub struct ScopedRecorder {
    /// `Some(prev)` until dropped; `prev` itself is `None` when nothing
    /// was installed before.
    prev: Option<Option<Arc<dyn Recorder>>>,
}

impl Drop for ScopedRecorder {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            let mut slot = RECORDER.write().unwrap_or_else(|p| p.into_inner());
            ENABLED.store(prev.is_some(), Ordering::Release);
            *slot = prev;
        }
    }
}

/// Runs `f` against the installed recorder, if any.
fn with_recorder<R>(f: impl FnOnce(&dyn Recorder) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let slot = RECORDER.read().unwrap_or_else(|p| p.into_inner());
    slot.as_deref().map(f)
}

/// Adds `delta` to the named counter (no-op when disabled).
#[inline]
pub fn counter(name: &str, delta: u64) {
    if enabled() {
        with_recorder(|r| r.counter(name, delta));
    }
}

/// Sets the named gauge (no-op when disabled).
#[inline]
pub fn gauge(name: &str, value: f64) {
    if enabled() {
        with_recorder(|r| r.gauge(name, value));
    }
}

/// Records a value into the named histogram (no-op when disabled).
#[inline]
pub fn observe(name: &str, value: u64) {
    if enabled() {
        with_recorder(|r| r.observe(name, value));
    }
}

/// Records a duration (as nanoseconds) into the named histogram.
#[inline]
pub fn observe_duration(name: &str, d: Duration) {
    if enabled() {
        observe(name, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Opens a span named `name`; it closes (and is recorded) when the
/// returned guard drops. Inert — no clock read — when disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    Span::begin(name, None)
}

/// Like [`span`], with a lazily built label: the closure only runs when a
/// recorder is installed, so formatting costs nothing when disabled.
#[inline]
pub fn span_with<F: FnOnce() -> String>(name: &'static str, label: F) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    Span::begin(name, Some(label()))
}

/// An open span; records itself on drop. Obtain via [`span`]/[`span_with`].
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    label: Option<String>,
    thread: u64,
    depth: u16,
    start: Instant,
}

impl Span {
    fn begin(name: &'static str, label: Option<String>) -> Self {
        let depth = SPAN_DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        });
        Span {
            active: Some(ActiveSpan {
                name,
                label,
                thread: current_thread(),
                depth,
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let dur = a.start.elapsed();
            SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let start_ns = u64::try_from(a.start.saturating_duration_since(epoch()).as_nanos())
                .unwrap_or(u64::MAX);
            let record = SpanRecord {
                name: a.name,
                label: a.label,
                thread: a.thread,
                depth: a.depth,
                start_ns,
                dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
            };
            with_recorder(move |r| r.record_span(record));
        }
    }
}

/// A locally-buffered counter for tight solver loops: increments accumulate
/// in a plain field and are flushed to the installed recorder every `every`
/// calls (and on drop), so a hot path pays one relaxed atomic load plus a
/// couple of integer ops per step instead of a recorder dispatch.
///
/// Batching trades away exactness mid-flight: a snapshot taken between
/// flushes can lag by up to `every - 1` increments. Use it for high-volume
/// throughput counters (`conv.workspace.extend`), not for counters that
/// tests assert exact values on (`solver.steps` stays unbatched).
#[derive(Debug)]
pub struct CounterBatch {
    name: &'static str,
    every: u64,
    pending: u64,
    calls: u64,
}

impl CounterBatch {
    /// Creates a batched counter that flushes every `every` calls.
    /// `every = 0` is treated as 1 (flush on every call).
    pub fn new(name: &'static str, every: u64) -> Self {
        Self {
            name,
            every: every.max(1),
            pending: 0,
            calls: 0,
        }
    }

    /// Adds `delta` locally; flushes to the recorder on the batch boundary.
    #[inline]
    pub fn add(&mut self, delta: u64) {
        if !enabled() {
            // Drop increments while disabled so a recorder installed later
            // doesn't inherit counts from the uninstrumented era.
            self.pending = 0;
            self.calls = 0;
            return;
        }
        self.pending += delta;
        self.calls += 1;
        if self.calls >= self.every {
            self.flush();
        }
    }

    /// Pushes any buffered increments to the recorder immediately.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            counter(self.name, self.pending);
        }
        self.pending = 0;
        self.calls = 0;
    }
}

impl Drop for CounterBatch {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Clone for CounterBatch {
    /// Clones reset the buffer: a copy of an engine mid-batch (a cached
    /// hierarchy subsystem, say) must not double-count the pending
    /// increments when both copies later flush.
    fn clone(&self) -> Self {
        Self::new(self.name, self.every)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::Mutex;

    /// Serializes tests that install the process-global recorder.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let _g = test_support::lock();
        assert!(!enabled());
        counter("x", 1);
        gauge("g", 1.0);
        observe("h", 7);
        let s = span("dead");
        drop(s);
        // span_with must not evaluate its label when disabled.
        let _s = span_with("dead", || panic!("label built while disabled"));
    }

    #[test]
    fn scoped_install_restores_previous_state() {
        let _g = test_support::lock();
        assert!(!enabled());
        let outer = Arc::new(Collector::new());
        {
            let _a = scoped(outer.clone());
            assert!(enabled());
            counter("outer", 1);
            {
                let inner = Arc::new(Collector::new());
                let _b = scoped(inner.clone());
                counter("inner", 1);
                assert_eq!(inner.snapshot().counter("inner"), 1);
            }
            // Back to the outer collector.
            counter("outer", 1);
        }
        assert!(!enabled());
        let snap = outer.snapshot();
        assert_eq!(snap.counter("outer"), 2);
        assert_eq!(snap.counter("inner"), 0);
    }

    #[test]
    fn install_and_uninstall() {
        let _g = test_support::lock();
        let c = Arc::new(Collector::new());
        install(c.clone());
        assert!(enabled());
        counter("k", 5);
        let back = uninstall().expect("a recorder was installed");
        assert!(!enabled());
        // The returned recorder is the very collector we installed.
        back.counter("k", 1);
        assert_eq!(c.snapshot().counter("k"), 6);
        assert!(uninstall().is_none());
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let _g = test_support::lock();
        let c = Arc::new(Collector::new());
        let _guard = scoped(c.clone());
        {
            let _outer = span("outer");
            let _inner = span_with("inner", || "lbl".to_string());
        }
        let snap = c.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.label.as_deref(), Some("lbl"));
        assert_eq!(inner.thread, outer.thread);
        // Inner starts at/after outer and ends within it.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn counter_batch_flushes_on_boundary_and_drop() {
        let _g = test_support::lock();
        let c = Arc::new(Collector::new());
        let _guard = scoped(c.clone());
        let mut b = CounterBatch::new("batched", 4);
        for _ in 0..7 {
            b.add(1);
        }
        // One full batch of 4 flushed; 3 still buffered.
        assert_eq!(c.snapshot().counter("batched"), 4);
        drop(b);
        assert_eq!(c.snapshot().counter("batched"), 7);
    }

    #[test]
    fn counter_batch_discards_disabled_increments_and_clone_resets() {
        let _g = test_support::lock();
        assert!(!enabled());
        let mut b = CounterBatch::new("batched2", 8);
        b.add(5);
        let c = Arc::new(Collector::new());
        {
            let _guard = scoped(c.clone());
            b.add(1);
            let clone = b.clone();
            drop(clone); // a clone carries no pending increments
            drop(b);
        }
        assert_eq!(c.snapshot().counter("batched2"), 1);
    }

    #[test]
    fn noop_recorder_accepts_everything() {
        let _g = test_support::lock();
        let _guard = scoped(Arc::new(NoopRecorder));
        counter("a", 1);
        gauge("b", 2.0);
        observe("c", 3);
        observe_duration("d", Duration::from_micros(4));
        drop(span("e"));
    }
}
