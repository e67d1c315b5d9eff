//! `sgl-trace`: zero-overhead structured tracing, metrics, and exportable
//! profiles for the SGL learn/serve stack.
//!
//! The crate is std-only and always compiled in. Three pieces:
//!
//! 1. **Span/event core** — [`span!`]-style RAII guards record monotonic
//!    timestamps, thread id, and a small typed [`Payload`] into per-thread
//!    buffers drained by a global recorder. The disabled path is a single
//!    relaxed atomic load, and tracing never feeds back into computation:
//!    results are bit-identical with tracing on or off at any thread count.
//! 2. **Metrics registry** — named monotonic [`Counter`]s and log₂-bucket
//!    [`Histogram`]s with p50/p90/p99 extraction ([`count`], [`observe`]).
//! 3. **Exporters** — Chrome trace-event JSON ([`chrome_trace_json`], loads
//!    in Perfetto), folded stacks ([`folded_stacks`]) for flamegraphs, and a
//!    plain-text run [`summary`].
//!
//! # Enabling
//!
//! Programmatic: [`enable`] / [`disable`]. From the environment (picked up by
//! [`init_from_env`], which `SglSession` and the bench binaries call):
//!
//! * `SGL_TRACE=1` — enable the recorder.
//! * `SGL_TRACE=/path/trace.json` — enable the recorder *and* write a Chrome
//!   trace there when [`export_env_trace`] runs (e.g. at session finish).
//! * `SGL_LOG=warn|info|debug` — raise the log-facade threshold (quiet by
//!   default).
//!
//! # Example
//!
//! ```
//! sgl_trace::enable();
//! {
//!     let _solve = sgl_trace::span!("pcg_solve", count = 3);
//!     sgl_trace::observe("solver.pcg_iterations", 17);
//! }
//! let events = sgl_trace::take_events();
//! assert_eq!(events.last().unwrap().name, "pcg_solve");
//! let json = sgl_trace::chrome_trace_json(&events);
//! assert!(json.contains("\"pcg_solve\""));
//! sgl_trace::disable();
//! ```

mod export;
mod logging;
mod metrics;
mod recorder;

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, Once, OnceLock};

pub use export::{
    chrome_trace_json, folded_stacks, phase_totals, summary, write_chrome_trace, PhaseTotal,
};
pub use logging::{log, log_enabled, Level};
pub use metrics::{
    count, counter, counters_snapshot, histogram, histograms_snapshot, observe, reset_metrics,
    Counter, CounterSnapshot, Histogram, HistogramSnapshot,
};
pub use recorder::{
    clear, disable, enable, enabled, event, event_with, snapshot_events, span, span_with,
    take_events, Event, EventKind, Payload, SpanGuard,
};

/// Opens an RAII span; bind the guard so it drops at the end of the phase.
///
/// ```
/// sgl_trace::enable();
/// let _span = sgl_trace::span!("score");
/// let _sized = sgl_trace::span!("par_map", count = 4);
/// # drop((_span, _sized));
/// # sgl_trace::disable();
/// # sgl_trace::clear();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, count = $n:expr) => {
        $crate::span_with($name, $crate::Payload::Count($n as u64))
    };
    ($name:expr, value = $v:expr) => {
        $crate::span_with($name, $crate::Payload::Value($v as f64))
    };
    ($name:expr, label = $l:expr) => {
        $crate::span_with($name, $crate::Payload::Label($l))
    };
}

/// Records an instantaneous event (publish, refresh, quarantine, ...).
#[macro_export]
macro_rules! trace_event {
    ($name:expr) => {
        $crate::event($name)
    };
    ($name:expr, count = $n:expr) => {
        $crate::event_with($name, $crate::Payload::Count($n as u64))
    };
    ($name:expr, value = $v:expr) => {
        $crate::event_with($name, $crate::Payload::Value($v as f64))
    };
    ($name:expr, label = $l:expr) => {
        $crate::event_with($name, $crate::Payload::Label($l))
    };
}

static ENV_INIT: Once = Once::new();
static ENV_TRACE_PATH: OnceLock<Option<PathBuf>> = OnceLock::new();

/// Applies `SGL_TRACE` from the environment, once per process.
///
/// `SGL_TRACE=1`/`true` enables the recorder; any other non-empty value is
/// treated as an output path for [`export_env_trace`] (and also enables the
/// recorder). Called by `SglSession` construction and the bench binaries, so
/// examples honor the variable without code changes. Cheap after the first
/// call.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        let val = std::env::var("SGL_TRACE").unwrap_or_default();
        let trimmed = val.trim();
        let path = if trimmed.is_empty() || trimmed == "0" {
            None
        } else {
            enable();
            if trimmed == "1" || trimmed.eq_ignore_ascii_case("true") {
                None
            } else {
                Some(PathBuf::from(trimmed))
            }
        };
        let _ = ENV_TRACE_PATH.set(path);
    });
}

/// Writes the Chrome trace to the `SGL_TRACE` path, if one was configured.
///
/// No-op when the recorder is off or `SGL_TRACE` did not name a path. Safe to
/// call repeatedly (each call rewrites the file with the current snapshot);
/// hooked into `SglSession::finish` so plain examples produce traces.
pub fn export_env_trace() {
    if !enabled() {
        return;
    }
    if let Some(Some(path)) = ENV_TRACE_PATH.get() {
        let events = snapshot_events();
        if let Err(e) = write_chrome_trace(path, &events) {
            crate::warn!(
                "failed to write SGL_TRACE output to {}: {e}",
                path.display()
            );
        }
    }
}

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests that mutate the global recorder/registry state.
///
/// The returned guard must be held for the duration of the test; poisoning
/// from a failed test is ignored.
#[doc(hidden)]
pub fn test_guard() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_roundtrip_through_recorder() {
        let _guard = test_guard();
        enable();
        clear();
        {
            let _outer = span!("outer");
            let _inner = span!("inner", count = 2);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        trace_event!("marker", label = "here");
        let events = take_events();
        disable();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"inner"));
        assert!(names.contains(&"marker"));
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(inner.payload, Payload::Count(2));
        assert!(inner.dur_ns > 0);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        // inner is contained in outer
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(outer.ts_ns + outer.dur_ns >= inner.ts_ns + inner.dur_ns);
    }

    #[test]
    fn metrics_gated_by_enabled() {
        let _guard = test_guard();
        disable();
        reset_metrics();
        count("test.gated", 5);
        observe("test.gated_hist", 5);
        assert_eq!(counter("test.gated").get(), 0);
        assert_eq!(histogram("test.gated_hist").count(), 0);
        enable();
        count("test.gated", 5);
        observe("test.gated_hist", 5);
        assert_eq!(counter("test.gated").get(), 5);
        assert_eq!(histogram("test.gated_hist").count(), 1);
        disable();
        reset_metrics();
        clear();
    }

    #[test]
    fn cross_thread_events_carry_distinct_tids() {
        let _guard = test_guard();
        enable();
        clear();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _sp = span!("worker");
                });
            }
        });
        let _main = span!("main_phase");
        drop(_main);
        let events = take_events();
        disable();
        let workers: Vec<_> = events.iter().filter(|e| e.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        assert_ne!(workers[0].tid, workers[1].tid);
    }
}
