//! Span/event core: per-thread buffers drained by a global [`Recorder`].
//!
//! The recorder is always compiled in. When disabled (the default) every
//! instrumentation point reduces to a single relaxed atomic load; no clock is
//! read and no memory is touched. When enabled, spans and events are pushed
//! into a per-thread buffer (each thread locks only its own buffer, so
//! recording never contends on a global lock in the hot path). Tracing never
//! feeds back into computation: results are bit-identical with the recorder
//! on or off, at any thread count.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Global on/off switch. Reading this is the entire cost of the disabled path.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns whether the recorder is currently enabled (single relaxed load).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on. Instrumentation points start recording immediately.
pub fn enable() {
    // Force the recorder (and its epoch) to exist before any event is
    // recorded, so timestamps are always relative to a fixed origin.
    let _ = recorder();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off. Already-recorded events are kept until
/// [`take_events`] or [`clear`] is called.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Small typed payload attached to a span or event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Payload {
    /// No payload.
    None,
    /// An integer quantity (chunk count, batch size, rank, ...).
    Count(u64),
    /// A floating-point quantity (residual, score, ...).
    Value(f64),
    /// A static label (degradation reason, phase variant, ...).
    Label(&'static str),
}

/// Whether an [`Event`] is a duration span or an instantaneous marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span with a start timestamp and a duration.
    Span,
    /// An instantaneous event (duration zero).
    Instant,
}

/// One recorded span or instant event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Static name of the span/event (e.g. `"pcg_solve"`).
    pub name: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Start time in nanoseconds relative to the recorder epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (zero for instant events).
    pub dur_ns: u64,
    /// Logical thread id (assigned in thread-registration order).
    pub tid: u32,
    /// Typed payload.
    pub payload: Payload,
}

struct ThreadBuf {
    tid: u32,
    events: Mutex<Vec<Event>>,
}

/// Global event sink. Lives behind a `OnceLock`; per-thread buffers register
/// themselves here on first use and are drained by [`take_events`].
pub struct Recorder {
    epoch: Instant,
    buffers: Mutex<Vec<Arc<ThreadBuf>>>,
    next_tid: AtomicU32,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        buffers: Mutex::new(Vec::new()),
        next_tid: AtomicU32::new(0),
    })
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
}

fn push_event(ev: Event) {
    // Each thread owns its buffer; the mutex is uncontended except while a
    // drain is in progress, so recording never blocks on other recorders.
    // Pushing directly (no thread-local staging) makes an event visible to
    // [`take_events`] as soon as its span closes — worker-thread events are
    // complete once the fork-join region that spawned them has joined.
    // `try_with` so a span dropped during thread teardown silently discards
    // its event instead of panicking.
    let _ = LOCAL.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let shared = slot.get_or_insert_with(|| {
            let rec = recorder();
            let tid = rec.next_tid.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::new(ThreadBuf {
                tid,
                events: Mutex::new(Vec::new()),
            });
            rec.buffers.lock().unwrap().push(Arc::clone(&shared));
            shared
        });
        let mut ev = ev;
        ev.tid = shared.tid;
        shared.events.lock().unwrap().push(ev);
    });
}

/// RAII guard returned by [`span`]: records a complete span on drop.
///
/// When the recorder is disabled the guard is inert (no clock read, no
/// allocation, nothing recorded on drop).
#[must_use = "a span guard records its duration when dropped; bind it to a variable"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    payload: Payload,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let epoch = recorder().epoch;
            let ts_ns = inner.start.saturating_duration_since(epoch).as_nanos() as u64;
            let dur_ns = inner.start.elapsed().as_nanos() as u64;
            push_event(Event {
                name: inner.name,
                kind: EventKind::Span,
                ts_ns,
                dur_ns,
                tid: 0, // overwritten in push_event
                payload: inner.payload,
            });
        }
    }
}

/// Opens a span with no payload. Prefer the [`span!`](crate::span!) macro.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Payload::None)
}

/// Opens a span carrying a typed payload.
#[inline]
pub fn span_with(name: &'static str, payload: Payload) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    SpanGuard {
        inner: Some(SpanInner {
            name,
            payload,
            start: Instant::now(),
        }),
    }
}

/// Records an instantaneous event with no payload.
#[inline]
pub fn event(name: &'static str) {
    event_with(name, Payload::None);
}

/// Records an instantaneous event carrying a typed payload.
#[inline]
pub fn event_with(name: &'static str, payload: Payload) {
    if !enabled() {
        return;
    }
    let epoch = recorder().epoch;
    let ts_ns = Instant::now().saturating_duration_since(epoch).as_nanos() as u64;
    push_event(Event {
        name,
        kind: EventKind::Instant,
        ts_ns,
        dur_ns: 0,
        tid: 0,
        payload,
    });
}

/// Drains all recorded events, sorted by start timestamp.
///
/// An event is visible here as soon as its span guard has dropped, so
/// draining after joining worker threads always yields a complete picture.
pub fn take_events() -> Vec<Event> {
    let rec = recorder();
    let buffers = rec.buffers.lock().unwrap();
    let mut out = Vec::new();
    for buf in buffers.iter() {
        out.append(&mut buf.events.lock().unwrap());
    }
    drop(buffers);
    out.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    out
}

/// Copies all recorded events without draining them.
pub fn snapshot_events() -> Vec<Event> {
    let rec = recorder();
    let buffers = rec.buffers.lock().unwrap();
    let mut out = Vec::new();
    for buf in buffers.iter() {
        out.extend(buf.events.lock().unwrap().iter().copied());
    }
    drop(buffers);
    out.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
    out
}

/// Discards all recorded events.
pub fn clear() {
    let rec = recorder();
    let buffers = rec.buffers.lock().unwrap();
    for buf in buffers.iter() {
        buf.events.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let _guard = crate::test_guard();
        disable();
        clear();
        {
            let _g = span("never");
        }
        event("never_either");
        assert!(take_events().is_empty());
    }
}
