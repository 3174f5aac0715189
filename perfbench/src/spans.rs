//! In-memory spans for the traced run, written out as JSON lines when the
//! run ends.

use std::time::Instant;

/// One timed interval around a call into the program.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `run_with:quantum-le` or `run_farm`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds from the recorder's origin to the start.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin to the end.
    pub end_ns: u64,
}

/// Records spans when enabled; a disabled recorder only measures.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are kept (the traced run).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// elapsed nanoseconds. Spans opened inside `f` become its children.
    pub fn time<T>(
        &mut self,
        name: impl FnOnce() -> String,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        let index = self.enabled.then(|| {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name: name(),
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            let index = self.spans.len() - 1;
            self.open.push(index);
            index
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(index) = index {
            self.open.pop();
            let span = &mut self.spans[index];
            span.start_ns = nanos(start.duration_since(self.origin));
            span.end_ns = nanos(end.duration_since(self.origin));
        }
        (out, nanos(end.duration_since(start)))
    }

    /// The recorded spans as JSON lines, one span per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// A duration in whole nanoseconds, saturating.
#[must_use]
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
