//! The event tracing layer: a global [`Subscriber`], the dispatch
//! function behind the [`event!`](crate::event) macros, and the
//! [`span!`](crate::span) scope guard.
//!
//! A [`Span`] is the one scope guard the workspace times its solver stages
//! with. On drop it records the scope's wall time into a named histogram of
//! the global registry when metrics are on, and emits one `Trace` event
//! `"{name}: {elapsed}"` when the subscriber runs at [`Level::Trace`].
//!
//! ## Zero cost when disabled
//!
//! The installed subscriber's maximum level is mirrored into a global
//! `AtomicU8` (`0` = no subscriber). Every macro expansion first checks
//! that atomic with a relaxed load; when the level is filtered out the
//! expansion performs **no formatting, no allocation, no clock read and no
//! lock**. A span with neither sink on costs two relaxed loads, and its
//! `Drop` is a branch on `None`.

use crate::level::Level;
use crate::metrics;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A structured log record handed to [`Subscriber::on_event`].
#[derive(Debug)]
pub struct Event<'a> {
    /// Severity.
    pub level: Level,
    /// The `module_path!()` of the call site.
    pub target: &'a str,
    /// The formatted message.
    pub message: &'a str,
}

/// Receives events. Implementations must be cheap to call and internally
/// synchronized (`Send + Sync`).
pub trait Subscriber: Send + Sync {
    /// The most verbose level this subscriber wants; more verbose events
    /// are never dispatched to it.
    fn max_level(&self) -> Level;

    /// An event passed the level filter.
    fn on_event(&self, event: &Event<'_>);
}

/// `0` = off; otherwise the installed subscriber's `max_level() as u8`.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

/// Installs `subscriber` as the process-global subscriber, replacing any
/// previous one (tests swap subscribers; production installs once at
/// startup).
pub fn set_subscriber(subscriber: Arc<dyn Subscriber>) {
    let level = subscriber.max_level() as u8;
    *SUBSCRIBER.write().expect("subscriber lock poisoned") = Some(subscriber);
    MAX_LEVEL.store(level, Ordering::Relaxed);
}

/// Removes the global subscriber; tracing reverts to the free disabled
/// path.
pub fn clear_subscriber() {
    MAX_LEVEL.store(0, Ordering::Relaxed);
    *SUBSCRIBER.write().expect("subscriber lock poisoned") = None;
}

/// Whether an event at `level` would reach the installed subscriber. This
/// is the macros' fast path: a single relaxed atomic load.
#[inline(always)]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Whether any subscriber is installed at all.
#[inline(always)]
pub fn subscriber_installed() -> bool {
    MAX_LEVEL.load(Ordering::Relaxed) != 0
}

/// Formats and dispatches an event. Called by the [`event!`](crate::event)
/// macro *after* the level check; not intended for direct use.
#[doc(hidden)]
pub fn dispatch_event(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    let guard = SUBSCRIBER.read().expect("subscriber lock poisoned");
    let Some(subscriber) = guard.as_ref() else {
        return;
    };
    if level > subscriber.max_level() {
        return;
    }
    let message = args.to_string();
    subscriber.on_event(&Event {
        level,
        target,
        message: &message,
    });
}

/// An RAII scope guard, created by the [`span!`](crate::span) macro.
///
/// Which sinks it reports to is decided on entry: the histogram when
/// global metrics are enabled, a `Trace` event when the subscriber's level
/// reaches [`Level::Trace`]. With neither on it is inert: no clock read,
/// and its drop is a branch on `None`.
#[derive(Debug)]
#[must_use = "a span is exited when dropped; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    histogram: &'static str,
    target: &'static str,
    start: Option<Instant>,
    record: bool,
    log: bool,
}

impl Span {
    /// Enters a span named `name` whose wall time goes into the global
    /// histogram `histogram` (in seconds); `target` is the call site's
    /// module path for the exit event.
    #[inline]
    pub fn enter(name: &'static str, histogram: &'static str, target: &'static str) -> Self {
        let record = metrics::enabled();
        let log = enabled(Level::Trace);
        let start = (record || log).then(Instant::now);
        Self {
            name,
            histogram,
            target,
            start,
            record,
            log,
        }
    }

    #[cold]
    fn exit(&self, start: Instant) {
        let elapsed = start.elapsed();
        if self.record {
            metrics::global()
                .histogram(self.histogram)
                .observe(elapsed.as_secs_f64());
        }
        if self.log {
            dispatch_event(
                Level::Trace,
                self.target,
                format_args!("{}: {elapsed:.3?}", self.name),
            );
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.exit(start);
        }
    }
}

/// Enters a span named `$name` whose wall time is recorded into the global
/// histogram `$histogram` when metrics are on, and logged as a `Trace`
/// event when tracing is; returns the guard that does so when dropped.
///
/// ```
/// let _span = rsj_obs::span!("solver.brute_force", "solver_wall_seconds");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr, $histogram:expr) => {
        $crate::trace::Span::enter($name, $histogram, module_path!())
    };
}

/// Emits an event at an explicit [`Level`](crate::Level) with `format!`
/// syntax. Formatting is skipped entirely when the level is filtered out.
///
/// ```
/// rsj_obs::event!(rsj_obs::Level::Info, "finished {} jobs", 42);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $($arg:tt)+) => {
        if $crate::trace::enabled($level) {
            $crate::trace::dispatch_event($level, module_path!(), format_args!($($arg)+));
        }
    };
}

/// [`event!`](crate::event) at [`Level::Error`](crate::Level::Error).
#[macro_export]
macro_rules! error {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Error, $($arg)+) };
}

/// [`event!`](crate::event) at [`Level::Warn`](crate::Level::Warn).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Warn, $($arg)+) };
}

/// [`event!`](crate::event) at [`Level::Info`](crate::Level::Info).
#[macro_export]
macro_rules! info {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Info, $($arg)+) };
}

/// [`event!`](crate::event) at [`Level::Debug`](crate::Level::Debug).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Debug, $($arg)+) };
}

/// [`event!`](crate::event) at [`Level::Trace`](crate::Level::Trace).
#[macro_export]
macro_rules! trace {
    ($($arg:tt)+) => { $crate::event!($crate::Level::Trace, $($arg)+) };
}

/// Serializes the unit tests that install a subscriber or toggle metrics:
/// that state is process-global and libtest runs tests in parallel.
#[cfg(test)]
pub(crate) fn lock_global_state() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySink;

    fn observations(histogram: &str) -> u64 {
        metrics::global().histogram(histogram).snapshot().count()
    }

    #[test]
    fn span_reports_to_exactly_the_sinks_that_are_on() {
        let _guard = lock_global_state();
        let sink = Arc::new(MemorySink::new(Level::Trace));
        let histogram = "trace_test_span_wall_seconds";

        // Both off: the guard is inert.
        clear_subscriber();
        metrics::set_enabled(false);
        let off = crate::span!("test.off", histogram);
        assert!(off.start.is_none(), "no clock read when both sinks are off");
        drop(off);
        assert_eq!(observations(histogram), 0);

        // Metrics only: one observation, no event (no subscriber).
        metrics::set_enabled(true);
        drop(crate::span!("test.metrics", histogram));
        assert_eq!(observations(histogram), 1);

        // Trace only: one event naming the span and its call site.
        metrics::set_enabled(false);
        set_subscriber(sink.clone());
        drop(crate::span!("test.trace", histogram));
        clear_subscriber();
        assert_eq!(observations(histogram), 1);
        let events = sink.events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(
            events[0].starts_with("[TRACE rsj_obs::trace::tests] test.trace: "),
            "{events:?}"
        );

        // A subscriber below Trace gets no exit event.
        let quiet = Arc::new(MemorySink::new(Level::Debug));
        set_subscriber(quiet.clone());
        drop(crate::span!("test.debug", histogram));
        clear_subscriber();
        assert!(quiet.events().is_empty());
    }
}
