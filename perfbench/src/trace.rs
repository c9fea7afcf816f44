//! The traced run's span recorder: spans (name, start, end, parent,
//! request id) and counters kept in memory, written out as JSON lines
//! when the run ends.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer of the program; the program itself is not
//! instrumented.

use crate::emit::json_string;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`marking`, `ctmc.solve`, …).
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (`0` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (operation) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span and counter store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns().max(self.spans[id].start_ns);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Add `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Counter value (`0` if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Total milliseconds of the closed spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(Span::ms)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Write every span and counter as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                json_string(s.name),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        for (name, v) in &self.counters {
            writeln!(
                out,
                "{{\"counter\": {}, \"value\": {}}}",
                json_string(name),
                crate::emit::json_number(*v)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let mut t = Tracer::new();
        let op = t.begin("op", 7);
        let a = t.span("a", 7, || 1 + 1);
        assert_eq!(a, 2);
        t.span("b", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(op);
        let s = &t.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(t.total_ms("b") >= 2.0);
        assert!(t.total_ms("op") >= t.total_ms("a") + t.total_ms("b"));
        assert_eq!(t.span_count("a"), 1);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 0);
        let _inner = t.begin("inner", 0);
        t.end(outer);
    }

    #[test]
    fn counters_accumulate_and_spans_write_out() {
        let mut t = Tracer::new();
        t.count("cache.hits", 2.0);
        t.count("cache.hits", 1.0);
        assert_eq!(t.counter("cache.hits"), 3.0);
        assert_eq!(t.counter("absent"), 0.0);
        t.span("x", 1, || ());
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"span\": 0, \"name\": \"x\""));
        assert_eq!(lines[1], "{\"counter\": \"cache.hits\", \"value\": 3.0}");
    }
}
