//! In-memory spans recorded by the benchmark around its calls into each
//! layer (the program itself records none), written out when a traced run
//! ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// Layer and call, e.g. `client.patterns` or `serve.fold`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request the call served.
    pub req: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Hands out span ids against one time origin.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), next: AtomicU64::new(1) }
    }

    /// Records a call that started at `start` and took `dur`.
    pub fn span(
        &self,
        name: String,
        start: Instant,
        dur: Duration,
        parent: Option<u64>,
        req: u64,
    ) -> Span {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        Span {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent,
            req,
        }
    }

    /// Runs `f` inside a top-level span pushed onto `out`.
    pub fn time<T>(&self, out: &mut Vec<Span>, name: &str, req: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let value = f();
        out.push(self.span(name.to_string(), t0, t0.elapsed(), None, req));
        value
    }
}

/// Durations in milliseconds of every span named `name`, in record order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Writes `spans` as one JSON array, ordered by start time.
pub fn write(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::from("[\n");
    for (i, s) in sorted.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}{}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            parent,
            s.req,
            if i + 1 < sorted.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
