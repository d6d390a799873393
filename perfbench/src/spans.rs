//! In-memory span recorder for the traced run.
//!
//! A span is a named interval on one monotonic clock with the span that
//! was open when it began as its parent; spans of one cell (or one
//! lookup, or one search evaluation) share an id. Nothing is written
//! until the run ends, so recording costs one `Instant::now()` per edge
//! and a `Vec` push.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: u64,
}

/// The recorder: a flat list of spans plus the stack of open ones.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) {
        let top = self.open.pop().expect("end() without an open span");
        assert_eq!(top, idx, "spans close innermost first");
        self.spans[idx].end_ns = self.now();
    }

    /// Times `f` as a leaf span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, id);
        let r = f();
        self.end(s);
        r
    }

    /// Writes one JSON object per span, in begin order; `parent` is the
    /// line index of the parent span, or -1 for a root.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        assert!(self.open.is_empty(), "every span is closed before writing");
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        std::fs::write(path, out)
    }
}
