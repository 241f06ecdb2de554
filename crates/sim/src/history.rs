//! The paper's literal scheme formalization (§1.4): a *scheme* is a
//! function from the node's **history**
//! `H = (f(v), s(v), id(v), deg(v), (m₁,p₁), …, (m_k,p_k))`
//! to a set of messages to send.
//!
//! The reactive [`Protocol`]/[`NodeBehavior`] pair is the efficient way to
//! implement schemes, but some experiments want the textbook form —
//! [`HistoryProtocol`] adapts any `Fn(&History) -> Vec<Outgoing>` closure
//! into a protocol by re-invoking it on every event with the accumulated
//! history. The two forms are interchangeable (see the tests, which replay
//! flooding both ways and compare traces).

use std::sync::Arc;

use oraclesize_bits::BitString;
use oraclesize_graph::Port;

use crate::protocol::{Message, NodeBehavior, NodeView, Outgoing, Protocol};

/// The total knowledge of a node at one point of an execution — the
/// quadruple it starts with plus every message received so far with its
/// arrival port.
#[derive(Debug, Clone)]
pub struct History {
    /// `f(v)` — the advice string.
    pub advice: BitString,
    /// `s(v)` — the status bit.
    pub is_source: bool,
    /// `id(v)`; `None` in the anonymous model.
    pub id: Option<u64>,
    /// `deg(v)`.
    pub degree: usize,
    /// `(m_i, p_i)` in arrival order.
    pub received: Vec<(Message, Port)>,
}

impl History {
    /// The history of a node before any delivery.
    pub fn initial(view: &NodeView) -> Self {
        History {
            advice: view.advice.clone(),
            is_source: view.is_source,
            id: view.id,
            degree: view.degree,
            received: Vec::new(),
        }
    }

    /// `true` once any received message carried the source message (or the
    /// node is the source) — the paper's "informed".
    pub fn is_informed(&self) -> bool {
        self.is_source || self.received.iter().any(|(m, _)| m.carries_source)
    }
}

/// The scheme type of §1.4: history in, sends out. Invoked once with the
/// empty history (the spontaneous round) and once per delivery.
pub type SchemeFn = Arc<dyn Fn(&History) -> Vec<Outgoing> + Send + Sync>;

/// Adapts a [`SchemeFn`] into a [`Protocol`].
#[derive(Clone)]
pub struct HistoryProtocol {
    name: &'static str,
    scheme: SchemeFn,
}

impl std::fmt::Debug for HistoryProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistoryProtocol")
            .field("name", &self.name)
            .finish()
    }
}

impl HistoryProtocol {
    /// Wraps `scheme` under a display name.
    pub fn new(
        name: &'static str,
        scheme: impl Fn(&History) -> Vec<Outgoing> + Send + Sync + 'static,
    ) -> Self {
        HistoryProtocol {
            name,
            scheme: Arc::new(scheme),
        }
    }
}

struct HistoryState {
    history: History,
    scheme: SchemeFn,
}

impl NodeBehavior for HistoryState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        (self.scheme)(&self.history)
    }

    fn on_receive(&mut self, port: Port, message: Message) -> Vec<Outgoing> {
        // By-value delivery: the payload is *filed*, not cloned — the
        // history form now rides the same zero-clone path as reactive
        // schemes.
        self.history.received.push((message, port));
        (self.scheme)(&self.history)
    }
}

impl Protocol for HistoryProtocol {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        Box::new(HistoryState {
            history: History::initial(&view),
            scheme: Arc::clone(&self.scheme),
        })
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, run_with_sink, SimConfig};
    use crate::protocol::FloodOnce;
    use crate::trace::VecSink;
    use oraclesize_graph::families;

    /// Flooding expressed as a pure history scheme: forward once, on the
    /// event that first made the node informed.
    fn flooding_scheme() -> HistoryProtocol {
        HistoryProtocol::new("history-flood", |h: &History| {
            if h.is_source {
                // The source sends exactly on the empty history.
                if h.received.is_empty() {
                    return (0..h.degree)
                        .map(|p| Outgoing::new(p, Message::empty()))
                        .collect();
                }
                return Vec::new();
            }
            // Fire iff the LAST message is the first informed one.
            let informed_count = h.received.iter().filter(|(m, _)| m.carries_source).count();
            match h.received.last() {
                Some((m, p)) if m.carries_source && informed_count == 1 => (0..h.degree)
                    .filter(|&q| q != *p)
                    .map(|q| Outgoing::new(q, Message::empty()))
                    .collect(),
                _ => Vec::new(),
            }
        })
    }

    #[test]
    fn history_flooding_matches_reactive_flooding() {
        let g = families::complete_rotational(10);
        let advice = crate::testkit::no_advice(10);
        let cfg = SimConfig::broadcast();
        let (mut reactive_trace, mut historical_trace) = (VecSink::new(), VecSink::new());
        let reactive = run_with_sink(&g, 0, &advice, &FloodOnce, &cfg, &mut reactive_trace);
        let historical = run_with_sink(
            &g,
            0,
            &advice,
            &flooding_scheme(),
            &cfg,
            &mut historical_trace,
        );
        let (reactive, historical) = (reactive.unwrap(), historical.unwrap());
        assert_eq!(reactive.metrics, historical.metrics);
        assert_eq!(reactive_trace.events(), historical_trace.events());
        assert!(historical.all_informed());
    }

    #[test]
    fn history_accumulates_in_arrival_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc as StdArc;
        let max_seen = StdArc::new(AtomicUsize::new(0));
        let probe = {
            let max_seen = StdArc::clone(&max_seen);
            HistoryProtocol::new("probe", move |h: &History| {
                max_seen.fetch_max(h.received.len(), Ordering::Relaxed);
                // Ports in the history must all be in range.
                assert!(h.received.iter().all(|&(_, p)| p < h.degree));
                Vec::new()
            })
        };
        let g = families::star(5);
        let advice = crate::testkit::no_advice(5);
        // Nothing is ever sent, so histories stay empty…
        run(&g, 0, &advice, &probe, &SimConfig::default()).unwrap();
        assert_eq!(max_seen.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn informedness_matches_engine_view() {
        let g = families::path(4);
        let advice = crate::testkit::no_advice(4);
        let scheme = HistoryProtocol::new("chain", |h: &History| {
            // Forward the source message down the path using history only.
            if h.is_source && h.received.is_empty() {
                return vec![Outgoing::new(0, Message::empty())];
            }
            if !h.is_source && h.is_informed() && h.received.len() == 1 {
                let (_, p) = h.received[0];
                return (0..h.degree)
                    .filter(|&q| q != p)
                    .map(|q| Outgoing::new(q, Message::empty()))
                    .collect();
            }
            Vec::new()
        });
        let out = run(&g, 0, &advice, &scheme, &SimConfig::default()).unwrap();
        assert!(out.all_informed());
        assert_eq!(out.metrics.messages, 3);
    }
}
