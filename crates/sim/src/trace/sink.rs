//! Streaming trace consumers: null, collecting, and ring-buffer sinks.

use crate::trace::TraceEvent;

/// A streaming consumer of [`TraceEvent`]s.
///
/// The engine calls [`emit`](TraceSink::emit) once per event, in execution
/// order, from a single thread. Sinks own their memory policy: a collecting
/// sink grows, a ring stays bounded, a writer streams to I/O.
///
/// # Contract
///
/// * [`enabled`](TraceSink::enabled) is sampled **once per run**; a sink
///   returning `false` (only [`NullSink`] in this crate) receives no
///   events and the engine skips all event construction.
/// * `emit` must not assume it sees every event of a lifecycle — a ring
///   that wrapped has lost the matching `Enqueue` of a later `Deliver`.
/// * Sinks must be deterministic functions of the event stream if the
///   surrounding experiment relies on byte-identical traces (the JSONL
///   writer in `oraclesize_runtime` does).
pub trait TraceSink {
    /// Whether this sink wants events at all. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&mut self, event: TraceEvent);
}

/// The no-op sink driven when tracing is off: reports `enabled() == false`
/// so the engine never constructs an event, and drops anything emitted
/// anyway. Carries no state and never allocates.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: TraceEvent) {}
}

/// Collects every event into a vector — the handiest sink for tests.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink. Does not allocate until the first event.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The events collected so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the collected events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Keeps the last `capacity` events in a fixed-size ring — bounded-memory
/// post-mortems for long runs. A resumed ring (events fed in several
/// batches) holds exactly the same tail as one fed the stream in a single
/// pass; only the last `capacity` events ever matter.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    /// Total events ever emitted (≥ retained).
    seen: u64,
}

impl RingSink {
    /// A ring retaining the last `capacity` events. Allocation happens
    /// lazily as events arrive; `capacity == 0` retains nothing.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: Vec::new(),
            capacity,
            head: 0,
            seen: 0,
        }
    }

    /// Configured retention.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events retained right now (`min(seen, capacity)`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever emitted into the ring, including overwritten ones.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, event: TraceEvent) {
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            // Fills up to capacity once; after that the ring overwrites in
            // place and never allocates.
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Phase, TraceEvent};

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::Enqueue {
            msg: i,
            from: 0,
            to: 1,
            bits: i,
            carries_source: false,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(ev(0)); // harmless
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut s = VecSink::new();
        for i in 0..5 {
            s.emit(ev(i));
        }
        let events = s.into_events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[3], ev(3));
    }

    #[test]
    fn ring_keeps_exactly_the_tail() {
        let mut s = RingSink::new(3);
        for i in 0..10 {
            s.emit(ev(i));
        }
        assert_eq!(s.seen(), 10);
        assert_eq!(s.len(), 3);
        assert_eq!(s.tail(), vec![ev(7), ev(8), ev(9)]);
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut s = RingSink::new(8);
        s.emit(ev(0));
        s.emit(ev(1));
        assert_eq!(s.tail(), vec![ev(0), ev(1)]);
    }

    #[test]
    fn zero_capacity_ring_retains_nothing() {
        let mut s = RingSink::new(0);
        s.emit(ev(0));
        assert!(s.is_empty());
        assert_eq!(s.seen(), 1);
        assert!(s.tail().is_empty());
    }

    #[test]
    fn resumed_ring_matches_single_pass() {
        // Feed the same stream in one pass vs. two chunks: identical tails.
        let stream: Vec<TraceEvent> = (0..20)
            .map(|i| {
                if i % 7 == 0 {
                    TraceEvent::PhaseStart {
                        phase: Phase::Round(i),
                    }
                } else {
                    ev(i)
                }
            })
            .collect();
        let mut single = RingSink::new(6);
        for e in &stream {
            single.emit(*e);
        }
        let mut resumed = RingSink::new(6);
        for e in &stream[..9] {
            resumed.emit(*e);
        }
        for e in &stream[9..] {
            resumed.emit(*e);
        }
        assert_eq!(single.tail(), resumed.tail());
        assert_eq!(single.seen(), resumed.seen());
    }
}
