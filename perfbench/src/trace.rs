//! Spans recorded around calls into the system's layers.
//!
//! A span has a name, the run or request it belongs to (`group`), the
//! span that caused it, and its start and end relative to the tracer's
//! origin. Spans stay in memory and are written out as JSON lines when
//! the run ends. A disabled tracer records nothing, so the untraced
//! run pays one branch per call site.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers (`exec`, `render`, ...).
    pub name: &'static str,
    /// The run (plan index) or request (sequence number) it belongs to.
    pub group: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder shared by the benchmark's threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; returns its index (`None` when disabled).
    pub fn open(&self, name: &'static str, group: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        spans.push(Span {
            name,
            group,
            parent,
            start_ns,
            end_ns: 0,
        });
        Some(spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&self, index: Option<usize>) {
        let Some(index) = index else { return };
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(span) = spans.get_mut(index) {
            span.end_ns = end_ns;
        }
    }

    /// Record a finished span between two instants.
    pub fn record(&self, name: &'static str, group: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            name,
            group,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(span);
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.open(name, group, parent);
        let out = f();
        self.close(index);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Closed spans named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans()
            .into_iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns > 0)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = Vec::new();
        for (index, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {index}, \"name\": \"{}\", \"group\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The cost of recording one span (open + close) on this machine, in
/// nanoseconds: the median of several timed batches into a scratch
/// tracer.
pub fn span_cost_ns() -> f64 {
    const BATCH: u64 = 20_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let scratch = Tracer::new(true);
            let started = Instant::now();
            for i in 0..BATCH {
                let s = scratch.open("probe", i, None);
                scratch.close(s);
            }
            started.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    crate::stats::median(&samples)
}
