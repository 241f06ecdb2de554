//! In-memory spans recorded around calls into each layer.
//!
//! A [`Tracer`] is either on or off. Off, [`Tracer::span`] just calls its
//! closure — no clock read, no allocation — so the untraced runs share
//! the traced code path at no cost.

use std::time::Instant;

use crate::alloc::{self, Tally};

/// One timed call: where it sits in the call tree, when it ran, and what
/// it allocated (children included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `engine.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Allocations made on this thread while the span was open.
    pub alloc: Tally,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The benchmark's clock.
pub fn now() -> Instant {
    // lint:allow(D002): wall time is what this benchmark measures; the
    // readings go to its metrics and span files, never into an artifact.
    Instant::now()
}

/// Records spans while on; see the module docs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            // Reserved up front so span bookkeeping rarely allocates
            // inside a measured parent span.
            spans: Vec::with_capacity(1 << 14),
            ..Tracer::off()
        }
    }

    /// Runs `f` inside a span named `name` (a plain call when off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            alloc: Tally::default(),
        });
        self.open.push(index);
        let before = alloc::tally();
        let start = self.origin.elapsed();
        let out = f(self);
        let end = self.origin.elapsed();
        let alloc = alloc::tally().since(before);
        self.open.pop();
        let span = &mut self.spans[index];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        span.alloc = alloc;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the spans as one JSON array.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                     \"allocs\": {}, \"alloc_bytes\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.alloc.allocs,
                    s.alloc.bytes
                )
            })
            .collect();
        format!("[{}]\n", items.join(",\n "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_in_start_order() {
        let mut t = Tracer::on();
        let out = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(out, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 1), 1);
        assert!(t.spans().is_empty());
    }
}
