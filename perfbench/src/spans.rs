//! In-memory span log for the traced run. Spans are recorded by the
//! benchmark around its calls into each layer's public functions — the
//! program itself is not instrumented — and written out as JSON lines
//! once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `rsj-core.dp`.
    pub name: &'static str,
    /// The operation (grid cell visit, served request) the span belongs to.
    pub op: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Seconds from the log's epoch.
    pub start: f64,
    pub end: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// Spans kept in memory until [`Spans::write`].
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx` now and returns its duration in milliseconds.
    pub fn end(&mut self, idx: usize) -> f64 {
        let span = &mut self.spans[idx];
        span.end = self.epoch.elapsed().as_secs_f64();
        span.ms()
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in milliseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let idx = self.begin(name, op, parent);
        let out = std::hint::black_box(f());
        (out, self.end(idx))
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","op":{},"parent":{},"start_s":{},"end_s":{}}}"#,
                s.name, s.op, parent, s.start, s.end
            )?;
        }
        out.flush()
    }
}
