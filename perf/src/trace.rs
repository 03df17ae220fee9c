//! In-memory spans around the calls `perf` makes into each layer, written to
//! `trace.json` when the workload ends. A layer's self time is its span
//! minus its children. End-to-end metrics are never taken from a traced run.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub backend: &'static str,
    pub iteration: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records an already-timed interval (a call made on a load-generator
    /// thread, or a duration the callee reported) and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        backend: &'static str,
        iteration: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, parent, backend, iteration, start, end);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        backend: &'static str,
        iteration: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            backend,
            iteration,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("a tracer lock holder panicked")
            .push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// its own children.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        backend: &'static str,
        iteration: Option<usize>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        self.push(id, name, parent, backend, iteration, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a tracer lock holder panicked")
            .clone()
    }

    /// Total duration and total self time (duration minus children) of every
    /// span called `name` on `backend`, with the span count.
    pub fn totals(&self, name: &str, backend: &str) -> (f64, f64, usize) {
        let spans = self.spans();
        let mut total = 0.0;
        let mut own = 0.0;
        let mut count = 0;
        for span in spans
            .iter()
            .filter(|s| s.name == name && s.backend == backend)
        {
            let children: f64 = spans
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(Span::secs)
                .sum();
            total += span.secs();
            own += (span.secs() - children).max(0.0);
            count += 1;
        }
        (total, own, count)
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{}\", \"spans\": [", self.workload)?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let iteration = s.iteration.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"backend\": \"{}\", \"iteration\": {iteration}, \"start_ns\": {}, \
                 \"end_ns\": {}}}{comma}",
                s.id, s.name, self.workload, s.backend, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
