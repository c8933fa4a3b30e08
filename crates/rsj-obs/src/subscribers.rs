//! Ready-made [`Subscriber`] implementations: the leveled stderr logger
//! behind `RSJ_LOG`, and an in-memory capture for tests.

use crate::level::Level;
use crate::trace::{Event, Subscriber};
use std::sync::Mutex;

/// Leveled logger printing `[LEVEL target] message` lines to stderr. This
/// is what [`crate::init_from_env`] installs.
#[derive(Debug)]
pub struct StderrLogger {
    level: Level,
}

impl StderrLogger {
    /// A logger passing everything at `level` and more severe.
    pub fn new(level: Level) -> Self {
        Self { level }
    }

    fn format(event: &Event<'_>) -> String {
        format!("[{} {}] {}", event.level.tag(), event.target, event.message)
    }
}

impl Subscriber for StderrLogger {
    fn max_level(&self) -> Level {
        self.level
    }

    fn on_event(&self, event: &Event<'_>) {
        eprintln!("{}", Self::format(event));
    }
}

/// Captures formatted events in memory — for asserting on log output in
/// tests without touching stderr.
#[derive(Debug)]
pub struct MemorySink {
    level: Level,
    events: Mutex<Vec<String>>,
}

impl MemorySink {
    /// A capture accepting everything at `level` and more severe.
    pub fn new(level: Level) -> Self {
        Self {
            level,
            events: Mutex::new(Vec::new()),
        }
    }

    /// The formatted events captured so far, in order.
    pub fn events(&self) -> Vec<String> {
        self.events.lock().expect("sink lock poisoned").clone()
    }
}

impl Subscriber for MemorySink {
    fn max_level(&self) -> Level {
        self.level
    }

    fn on_event(&self, event: &Event<'_>) {
        self.events
            .lock()
            .expect("sink lock poisoned")
            .push(StderrLogger::format(event));
    }
}
