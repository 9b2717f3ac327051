//! In-memory span recorder for the traced replay. Each span holds its
//! name, start, end, parent and request id; spans are kept in memory and
//! written out as JSON lines when the run ends, so recording costs two
//! clock reads and a push.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// Handle of an open (or closed) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    request: usize,
    start: Instant,
    end: Option<Instant>,
}

/// Records spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::with_capacity(1 << 12) }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: usize) -> SpanId {
        self.spans.push(Span { name, parent, request, start: Instant::now(), end: None });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span at the current time.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0].end = Some(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, parent, request);
        let out = f();
        self.close(s);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn ms(span: &Span) -> f64 {
        span.end.map_or(0.0, |e| e.duration_since(span.start).as_secs_f64() * 1e3)
    }

    /// Total duration (ms) and count of the closed spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_some())
            .fold((0.0, 0), |(t, c), s| (t + Self::ms(s), c + 1))
    }

    /// Mean duration (ms) of the spans named `name`; 0 when there are none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.total(name) {
            (_, 0) => 0.0,
            (t, c) => t / c as f64,
        }
    }

    /// Summed self time (ms) of the spans named `name`: each span's
    /// duration minus the part of it its direct children cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ms: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p.0].name == name {
                    *child_ms.entry(p.0).or_default() += Self::ms(s);
                }
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| Self::ms(s) - child_ms.get(&i).copied().unwrap_or(0.0))
            .sum()
    }

    /// Summed duration (ms) of the direct children of every span named
    /// `parent`.
    pub fn children_ms(&self, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p.0].name == parent))
            .map(Self::ms)
            .sum()
    }

    /// Writes every span as one JSON line: name, request, parent index,
    /// start and end in µs from the tracer's origin.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            let end = s.end.map_or("null".to_string(), |e| format!("{:.3}", us(e)));
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{end}}}",
                s.name,
                s.request,
                us(s.start)
            )?;
        }
        out.flush()
    }
}

/// Measured cost (ms) of recording one span: the mean over a burst of
/// open/close pairs on a scratch tracer.
pub fn span_cost_ms() -> f64 {
    const PAIRS: usize = 100_000;
    let mut scratch = Tracer::new();
    scratch.spans.reserve(PAIRS);
    let t0 = Instant::now();
    for i in 0..PAIRS {
        let s = scratch.open("calibration", None, i);
        scratch.close(s);
    }
    t0.elapsed().as_secs_f64() * 1e3 / PAIRS as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new();
        let root = tr.open("root", None, 0);
        tr.span("child", Some(root), 0, || sleep(Duration::from_millis(20)));
        sleep(Duration::from_millis(5));
        tr.close(root);
        let (root_ms, n) = tr.total("root");
        assert_eq!(n, 1);
        let child_ms = tr.children_ms("root");
        assert!(child_ms >= 20.0 && root_ms >= child_ms + 5.0, "{root_ms} {child_ms}");
        assert!((tr.self_ms("root") - (root_ms - child_ms)).abs() < 1e-9);
        assert_eq!(tr.mean_ms("missing"), 0.0);
        assert!(span_cost_ms() > 0.0);
    }
}
