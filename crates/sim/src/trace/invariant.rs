//! An online checker of the engine's trace contract, as a sink.

use std::fmt;

use oraclesize_graph::NodeId;

use crate::engine::TaskMode;
use crate::trace::{Delivery, MsgId, RingSink, TraceEvent, TraceSink};

/// Events kept for a violation report.
const RECENT: usize = 16;

/// A broken trace invariant: which one, what happened, and the events
/// leading up to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant's name (see [`InvariantSink`]).
    pub invariant: &'static str,
    /// What the offending event did.
    pub detail: String,
    /// The last (at most 16) events, oldest first, ending with the
    /// offending one.
    pub recent: Vec<TraceEvent>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant {} violated: {}", self.invariant, self.detail)?;
        for event in &self.recent {
            write!(f, "\n  {event:?}")?;
        }
        Ok(())
    }
}

/// Where a message id is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Unseen,
    InFlight,
    Resolved,
}

/// A [`TraceSink`] that checks, event by event, five invariants of every
/// run:
///
/// * `resolve-once` — every [`Enqueue`](TraceEvent::Enqueue) id ends in
///   exactly one [`Deliver`](TraceEvent::Deliver) or
///   [`Drop`](TraceEvent::Drop) (checked for the end of the run by
///   [`verdict`](InvariantSink::verdict));
/// * `wake-once` — [`Wake`](TraceEvent::Wake) fires only for a node that
///   is not yet informed;
/// * `wakeup-rule` — in [`TaskMode::Wakeup`], no `Enqueue` comes from a
///   node that is neither the source nor woken;
/// * `rollup-informed` — each [`Rollup`](TraceEvent::Rollup)'s informed
///   count equals 1 plus the wakes so far;
/// * `rollup-frontier` — each `Rollup`'s frontier equals the number of
///   message ids enqueued but not yet delivered or dropped, so the final
///   rollup's `frontier: 0` means nothing is left in flight.
///
/// The first violation is kept, with the events leading up to it, and
/// checking stops there. Being an enabled sink, it keeps a run on the
/// engine's per-message path.
#[derive(Debug, Clone)]
pub struct InvariantSink {
    mode: TaskMode,
    informed: Vec<bool>,
    wakes: u64,
    fates: Vec<Fate>,
    /// Ids currently [`Fate::InFlight`].
    in_flight: u64,
    recent: RingSink,
    violation: Option<Violation>,
}

impl InvariantSink {
    /// A checker for a run on `n` nodes from `source` under `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `source ≥ n`.
    pub fn new(n: usize, source: NodeId, mode: TaskMode) -> Self {
        let mut informed = vec![false; n];
        informed[source] = true;
        InvariantSink {
            mode,
            informed,
            wakes: 0,
            fates: Vec::new(),
            in_flight: 0,
            recent: RingSink::new(RECENT),
            violation: None,
        }
    }

    /// The checker's verdict on the run it watched. `completed` says
    /// whether the run reached quiescence; an aborted run may leave
    /// messages in flight, so only a completed one is checked for them.
    ///
    /// # Errors
    ///
    /// The first violation seen, or, for a completed run, a
    /// `resolve-once` violation naming the first message still in flight.
    pub fn verdict(self, completed: bool) -> Result<(), Violation> {
        if let Some(v) = self.violation {
            return Err(v);
        }
        match self.fates.iter().position(|&f| f == Fate::InFlight) {
            Some(msg) if completed => Err(Violation {
                invariant: "resolve-once",
                detail: format!("message {msg} was never delivered or dropped"),
                recent: self.recent.tail(),
            }),
            _ => Ok(()),
        }
    }

    /// The broken invariant's description, if `event` breaks one.
    fn check(&mut self, event: &TraceEvent) -> Option<(&'static str, String)> {
        match *event {
            TraceEvent::Enqueue { msg, from, .. } => {
                if self.mode == TaskMode::Wakeup && !self.informed[from] {
                    return Some((
                        "wakeup-rule",
                        format!("node {from} sent message {msg} before being woken"),
                    ));
                }
                let i = self.slot(msg);
                if self.fates[i] != Fate::Unseen {
                    return Some(("resolve-once", format!("message {msg} enqueued twice")));
                }
                self.fates[i] = Fate::InFlight;
                self.in_flight += 1;
            }
            TraceEvent::Deliver(Delivery { msg, .. }) | TraceEvent::Drop { msg, .. } => {
                let i = self.slot(msg);
                if self.fates[i] != Fate::InFlight {
                    return Some((
                        "resolve-once",
                        format!("message {msg} resolved while {:?}", self.fates[i]),
                    ));
                }
                self.fates[i] = Fate::Resolved;
                self.in_flight -= 1;
            }
            TraceEvent::Wake { node, .. } => {
                if std::mem::replace(&mut self.informed[node], true) {
                    return Some(("wake-once", format!("node {node} woken while informed")));
                }
                self.wakes += 1;
            }
            TraceEvent::Rollup(r) => {
                if r.informed != 1 + self.wakes {
                    return Some((
                        "rollup-informed",
                        format!(
                            "round {} reports {} informed after {} wakes",
                            r.round, r.informed, self.wakes
                        ),
                    ));
                }
                if r.frontier != self.in_flight {
                    return Some((
                        "rollup-frontier",
                        format!(
                            "round {} reports a frontier of {} with {} messages in flight",
                            r.round, r.frontier, self.in_flight
                        ),
                    ));
                }
            }
            TraceEvent::PhaseStart { .. }
            | TraceEvent::Corrupt { .. }
            | TraceEvent::Quiescence { .. } => {}
        }
        None
    }

    /// The index of `msg` in the fate table, growing it as ids appear.
    fn slot(&mut self, msg: MsgId) -> usize {
        let i = msg as usize;
        if i >= self.fates.len() {
            self.fates.resize(i + 1, Fate::Unseen);
        }
        i
    }
}

impl TraceSink for InvariantSink {
    fn emit(&mut self, event: TraceEvent) {
        if self.violation.is_some() {
            return;
        }
        self.recent.emit(event);
        if let Some((invariant, detail)) = self.check(&event) {
            self.violation = Some(Violation {
                invariant,
                detail,
                recent: self.recent.tail(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{DropFault, Rollup};

    fn enqueue(msg: MsgId, from: NodeId) -> TraceEvent {
        TraceEvent::Enqueue {
            msg,
            from,
            to: 1,
            bits: 0,
            carries_source: true,
        }
    }

    fn deliver(msg: MsgId, to: NodeId) -> TraceEvent {
        TraceEvent::Deliver(Delivery {
            msg,
            step: msg,
            from: 0,
            to,
            arrival_port: 0,
            bits: 0,
            carries_source: true,
        })
    }

    fn wake(node: NodeId) -> TraceEvent {
        TraceEvent::Wake {
            node,
            step: 0,
            msg: 0,
        }
    }

    fn rollup(informed: u64) -> TraceEvent {
        TraceEvent::Rollup(Rollup {
            round: 0,
            informed,
            messages: 1,
            frontier: 0,
        })
    }

    fn feed(mode: TaskMode, events: &[TraceEvent]) -> Result<(), Violation> {
        let mut sink = InvariantSink::new(3, 0, mode);
        for &e in events {
            sink.emit(e);
        }
        sink.verdict(true)
    }

    #[test]
    fn a_lawful_stream_passes() {
        let drop = TraceEvent::Drop {
            msg: 1,
            from: 1,
            to: 2,
            fault: DropFault::Lost,
        };
        let events = [
            enqueue(0, 0),
            deliver(0, 1),
            wake(1),
            rollup(2),
            enqueue(1, 1),
            drop,
        ];
        assert_eq!(feed(TaskMode::Wakeup, &events), Ok(()));
    }

    #[test]
    fn each_invariant_is_named() {
        let cases: [(&[TraceEvent], &str); 7] = [
            (&[enqueue(0, 0)], "resolve-once"),
            (&[enqueue(0, 0), enqueue(0, 0)], "resolve-once"),
            (
                &[enqueue(0, 0), deliver(0, 1), deliver(0, 1)],
                "resolve-once",
            ),
            (&[wake(1), wake(1)], "wake-once"),
            (&[wake(0)], "wake-once"),
            (&[wake(1), rollup(1)], "rollup-informed"),
            (&[enqueue(0, 0), rollup(1)], "rollup-frontier"),
        ];
        for (events, name) in cases {
            let err = feed(TaskMode::Broadcast, events).unwrap_err();
            assert_eq!(err.invariant, name, "{events:?}");
        }
        let err = feed(TaskMode::Wakeup, &[enqueue(0, 2)]).unwrap_err();
        assert_eq!(err.invariant, "wakeup-rule");
        // Broadcast lets any node speak.
        assert_eq!(
            feed(TaskMode::Broadcast, &[enqueue(0, 2), deliver(0, 1)]),
            Ok(())
        );
    }

    #[test]
    fn a_violation_keeps_the_last_sixteen_events() {
        let mut events: Vec<TraceEvent> = (0..20)
            .flat_map(|m| [enqueue(m, 0), deliver(m, 1)])
            .collect();
        events.push(deliver(3, 1));
        let err = feed(TaskMode::Broadcast, &events).unwrap_err();
        assert_eq!(err.recent.len(), RECENT);
        assert_eq!(err.recent.last(), Some(&deliver(3, 1)));
        let text = err.to_string();
        assert!(text.starts_with("invariant resolve-once violated: message 3"));
        assert_eq!(text.lines().count(), 1 + RECENT);
    }
}
