//! Deterministic JSONL rendering of engine traces.
//!
//! The engine's [`TraceEvent`] stream is plain data; this module gives it
//! a canonical on-disk form: one [`Json`] object per event, one event per
//! line, fields in a fixed insertion order per event kind. Because message
//! ids are assigned in enqueue order (not completion order), the rendered
//! stream for a given cell is **byte-identical at any thread count** —
//! `trace-diff` and the CI smoke job rely on that.
//!
//! Every line carries its grid `cell` and a per-cell `seq` counter, so
//! lines from many cells can be concatenated and still attributed.

use oraclesize_sim::trace::{DropFault, Phase, TraceEvent, TraceStats};
use oraclesize_sim::TraceSink;

use crate::json::Json;

/// Renders one event as a [`Json`] object with deterministic field order.
///
/// Field order is part of the artifact contract: `cell`, `seq`, `kind`,
/// then the kind-specific fields in declaration order.
pub fn event_json(cell: u64, seq: u64, event: &TraceEvent) -> Json {
    let base = Json::obj()
        .field("cell", cell)
        .field("seq", seq)
        .field("kind", event.kind());
    match *event {
        TraceEvent::PhaseStart { phase } => match phase {
            Phase::Spontaneous => base.field("phase", "spontaneous"),
            Phase::Round(round) => base.field("phase", "round").field("round", round),
            Phase::QuiescencePoll(poll) => base
                .field("phase", "quiescence-poll")
                .field("poll", u64::from(poll)),
        },
        TraceEvent::Enqueue {
            msg,
            from,
            to,
            bits,
            carries_source,
        } => base
            .field("msg", msg)
            .field("from", from)
            .field("to", to)
            .field("bits", bits)
            .field("carries_source", carries_source),
        TraceEvent::Drop {
            msg,
            from,
            to,
            fault,
        } => base
            .field("msg", msg)
            .field("from", from)
            .field("to", to)
            .field(
                "fault",
                match fault {
                    DropFault::Lost => "lost",
                    DropFault::ToCrashed => "to-crashed",
                },
            ),
        TraceEvent::Corrupt { msg, bit } => base.field("msg", msg).field("bit", bit),
        TraceEvent::Deliver(d) => base
            .field("msg", d.msg)
            .field("step", d.step)
            .field("from", d.from)
            .field("to", d.to)
            .field("port", d.arrival_port)
            .field("bits", d.bits)
            .field("carries_source", d.carries_source),
        TraceEvent::Wake { node, step, msg } => base
            .field("node", node)
            .field("step", step)
            .field("msg", msg),
        TraceEvent::Quiescence { poll, spoke } => {
            base.field("poll", u64::from(poll)).field("spoke", spoke)
        }
        TraceEvent::Rollup(r) => base
            .field("round", r.round)
            .field("informed", r.informed)
            .field("messages", r.messages)
            .field("frontier", r.frontier),
    }
}

/// Renders the constant-size tallies of a trace (for per-cell grid stats).
pub fn stats_json(stats: &TraceStats) -> Json {
    Json::obj()
        .field("events", stats.events)
        .field("enqueued", stats.enqueued)
        .field("delivered", stats.delivered)
        .field("dropped", stats.dropped)
        .field("corrupted", stats.corrupted)
        .field("wakes", stats.wakes)
        .field("rollups", stats.rollups)
}

/// Renders a slice of events as JSONL (one object per line, each line
/// newline-terminated), numbering `seq` from 0.
pub fn render_jsonl(cell: u64, events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for (seq, event) in events.iter().enumerate() {
        out.push_str(&event_json(cell, seq as u64, event).render());
        out.push('\n');
    }
    out
}

/// A [`TraceSink`] that renders each event to a JSONL line as it is
/// emitted, keeping memory proportional to the rendered text rather than
/// the event count — the streaming half of the observability layer.
#[derive(Debug, Clone)]
pub struct JsonlSink {
    cell: u64,
    seq: u64,
    out: String,
}

impl JsonlSink {
    /// A sink labeling every line with `cell`, numbering `seq` from 0.
    pub fn new(cell: u64) -> JsonlSink {
        JsonlSink {
            cell,
            seq: 0,
            out: String::new(),
        }
    }

    /// Events rendered so far.
    pub fn len(&self) -> u64 {
        self.seq
    }

    /// `true` before the first event arrives.
    pub fn is_empty(&self) -> bool {
        self.seq == 0
    }

    /// The rendered JSONL text.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the sink, returning the rendered JSONL text.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl TraceSink for JsonlSink {
    fn emit(&mut self, event: TraceEvent) {
        self.out
            .push_str(&event_json(self.cell, self.seq, &event).render());
        self.out.push('\n');
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use oraclesize_sim::trace::{Delivery, Rollup};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseStart {
                phase: Phase::Spontaneous,
            },
            TraceEvent::Enqueue {
                msg: 0,
                from: 0,
                to: 1,
                bits: 3,
                carries_source: true,
            },
            TraceEvent::Drop {
                msg: 0,
                from: 0,
                to: 1,
                fault: DropFault::Lost,
            },
            TraceEvent::Corrupt { msg: 1, bit: 2 },
            TraceEvent::Deliver(Delivery {
                msg: 1,
                step: 0,
                from: 0,
                to: 1,
                arrival_port: 0,
                bits: 3,
                carries_source: true,
            }),
            TraceEvent::Wake {
                node: 1,
                step: 0,
                msg: 1,
            },
            TraceEvent::PhaseStart {
                phase: Phase::QuiescencePoll(1),
            },
            TraceEvent::Quiescence {
                poll: 1,
                spoke: false,
            },
            TraceEvent::Rollup(Rollup {
                round: 1,
                informed: 2,
                messages: 1,
                frontier: 0,
            }),
        ]
    }

    #[test]
    fn every_kind_renders_parseable_json() {
        for (seq, event) in sample_events().iter().enumerate() {
            let line = event_json(7, seq as u64, event).render();
            assert!(parse(&line).is_some(), "{line}");
            assert!(line.starts_with("{\"cell\": 7, \"seq\": "), "{line}");
            assert!(
                line.contains(&format!("\"kind\": \"{}\"", event.kind())),
                "{line}"
            );
        }
    }

    #[test]
    fn jsonl_sink_matches_batch_render() {
        let events = sample_events();
        let mut sink = JsonlSink::new(3);
        for e in &events {
            sink.emit(*e);
        }
        assert_eq!(sink.len(), events.len() as u64);
        assert_eq!(sink.as_str(), render_jsonl(3, &events));
    }

    #[test]
    fn lines_carry_cell_and_ordered_seq() {
        let text = render_jsonl(2, &sample_events());
        for (i, line) in text.lines().enumerate() {
            assert!(line.starts_with(&format!("{{\"cell\": 2, \"seq\": {i}, ")));
        }
    }
}
