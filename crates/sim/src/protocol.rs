//! The scheme abstraction: what a node sees and how it reacts.

use oraclesize_bits::BitString;
use oraclesize_graph::Port;

/// Everything a node is allowed to know before communication starts —
/// exactly the quadruple `(f(v), s(v), id(v), deg(v))` of the paper.
///
/// In the anonymous model (`id = None`) the upper bounds still hold
/// (paper §1.3); the engine erases identities when configured to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeView {
    /// The oracle's advice string `f(v)`.
    pub advice: BitString,
    /// The status bit `s(v)`: `true` iff this node is the source.
    pub is_source: bool,
    /// The node's label `id(v)`; `None` in the anonymous model.
    pub id: Option<u64>,
    /// The node's degree `deg(v)` — also its number of ports.
    pub degree: usize,
}

/// A message payload. The engine appends the *informed* flag implicitly:
/// the paper observes that "the source message can be appended to any
/// message sent by an informed node", so informedness is a transport-level
/// property, not part of the payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Message {
    /// The control bits chosen by the sending scheme.
    pub payload: BitString,
    /// Whether the sender was informed when this message was sent; set by
    /// the engine, ignored on outgoing messages.
    pub carries_source: bool,
}

impl Message {
    /// A message with the given payload (flag filled in by the engine).
    pub fn new(payload: BitString) -> Self {
        Message {
            payload,
            carries_source: false,
        }
    }

    /// An empty control message (0 payload bits — e.g. Scheme B's "hello"
    /// could be 1 bit; protocols choose their own framing).
    pub fn empty() -> Self {
        Message::default()
    }

    /// Size accounted against the bounded-message limit: payload bits.
    pub fn size_bits(&self) -> usize {
        self.payload.len()
    }
}

/// A send instruction: put `message` on local port `port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// Local port to send on (`< degree`).
    pub port: Port,
    /// The message to send.
    pub message: Message,
}

impl Outgoing {
    /// Convenience constructor.
    pub fn new(port: Port, message: Message) -> Self {
        Outgoing { port, message }
    }
}

/// The per-node state machine produced by a [`Protocol`] — operationally a
/// *broadcast scheme* `S_v`: a map from the history to date to a set of
/// sends.
pub trait NodeBehavior {
    /// Called once before any delivery. Returning sends here is a
    /// *spontaneous* transmission — allowed in the broadcast task,
    /// forbidden for non-source nodes in the wakeup task (the engine
    /// enforces this).
    fn on_start(&mut self) -> Vec<Outgoing>;

    /// Called when a message arrives on `port`. The message is passed by
    /// value: the behavior *owns* each delivery, so a history-accumulating
    /// scheme files the payload without cloning it — the engine's
    /// zero-clone contract extends through the receive boundary.
    fn on_receive(&mut self, port: Port, message: Message) -> Vec<Outgoing>;

    /// Called when the network quiesces (no message in flight), up to
    /// [`SimConfig::max_quiescence_polls`](crate::engine::SimConfig::max_quiescence_polls)
    /// times per run. Returning sends resumes execution — the hook a
    /// retry-capable scheme uses to re-send messages it suspects were lost.
    /// The wakeup rule still applies: an uninformed non-source node must
    /// return nothing in wakeup mode. The default is silence, so plain
    /// schemes quiesce exactly as before.
    fn on_quiescence(&mut self) -> Vec<Outgoing> {
        Vec::new()
    }

    /// Called once at quiescence; a task whose result is node state (e.g.
    /// gossip: "every node knows every value") returns it here for the
    /// engine to collect into
    /// [`RunOutcome::outputs`](crate::engine::RunOutcome::outputs).
    fn output(&self) -> Option<BitString> {
        None
    }
}

/// An algorithm `A` in the paper's sense: given the node view, produce the
/// node's scheme. The algorithm is *unaware of the network* — it sees only
/// the view.
pub trait Protocol {
    /// Instantiates the scheme for one node.
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior>;

    /// Short name used in experiment tables.
    fn name(&self) -> &'static str {
        "unnamed"
    }

    /// The scheme's forward-once rule, if it has one (see [`ForwardOnce`]).
    /// A protocol that returns a rule lets synchronous, untraced runs
    /// without transport faults skip [`create`](Protocol::create) and take
    /// the engine's frontier kernel. The default, `None`, keeps every run on
    /// the per-message path.
    fn forward_once(&self) -> Option<ForwardOnce> {
        None
    }
}

/// The whole behaviour of a *forward-once* scheme, as data: a decoder
/// from a node's advice and degree to the ports it sends on.
///
/// `Some(ports)` sends on those ports — each below the degree, in send
/// order, repeats included. `None` sends on every port but the arrival
/// port; at the source, on every port.
///
/// A protocol that returns a rule from [`Protocol::forward_once`] creates
/// [`rule.node(view)`](ForwardOnce::node) for every node, so its
/// per-message runs and the engine's frontier kernel follow the same rule.
#[derive(Debug, Clone, Copy)]
pub struct ForwardOnce(pub fn(&BitString, usize) -> Option<Vec<Port>>);

impl ForwardOnce {
    /// The node this rule describes: the source sends one empty message on
    /// each of its rule ports in [`on_start`](NodeBehavior::on_start); any
    /// other node does the same on its first source-carrying delivery;
    /// nothing else is ever sent, the quiescence hook stays silent, and
    /// the node has no output.
    pub fn node(self, view: &NodeView) -> Box<dyn NodeBehavior> {
        Box::new(ForwardOnceNode {
            ports: (self.0)(&view.advice, view.degree),
            degree: view.degree,
            is_source: view.is_source,
            fired: false,
        })
    }
}

/// A node of a forward-once scheme (see [`ForwardOnce::node`]).
struct ForwardOnceNode {
    /// The decoded ports; `None` for every port but the arrival port.
    ports: Option<Vec<Port>>,
    degree: usize,
    is_source: bool,
    fired: bool,
}

impl ForwardOnceNode {
    /// The node's one round of sends; `arrival` is `None` at the source.
    fn fire(&mut self, arrival: Option<Port>) -> Vec<Outgoing> {
        if std::mem::replace(&mut self.fired, true) {
            return Vec::new();
        }
        let send = |p| Outgoing::new(p, Message::empty());
        match &self.ports {
            Some(ports) => ports.iter().copied().map(send).collect(),
            None => (0..self.degree)
                .filter(|&p| Some(p) != arrival)
                .map(send)
                .collect(),
        }
    }
}

impl NodeBehavior for ForwardOnceNode {
    fn on_start(&mut self) -> Vec<Outgoing> {
        if self.is_source {
            self.fire(None)
        } else {
            Vec::new()
        }
    }

    fn on_receive(&mut self, port: Port, message: Message) -> Vec<Outgoing> {
        if message.carries_source {
            self.fire(Some(port))
        } else {
            Vec::new()
        }
    }
}

/// The trivial oracle-free broadcast baseline: the source floods on all
/// ports; every node forwards the first informed message it receives to
/// all other ports. Θ(m) messages — the benchmark Scheme B beats.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloodOnce;

/// Flooding's rule: every port but the arrival port, whatever the advice.
const FLOOD: ForwardOnce = ForwardOnce(|_, _| None);

impl Protocol for FloodOnce {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        FLOOD.node(&view)
    }

    fn name(&self) -> &'static str {
        "flood-once"
    }

    fn forward_once(&self) -> Option<ForwardOnce> {
        Some(FLOOD)
    }
}

/// A protocol that does nothing at all — used to test engine accounting
/// and quiescence.
#[derive(Debug, Clone, Copy, Default)]
pub struct Silent;

struct SilentState;

impl NodeBehavior for SilentState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        Vec::new()
    }

    fn on_receive(&mut self, _port: Port, _message: Message) -> Vec<Outgoing> {
        Vec::new()
    }
}

impl Protocol for Silent {
    fn create(&self, _view: NodeView) -> Box<dyn NodeBehavior> {
        Box::new(SilentState)
    }

    fn name(&self) -> &'static str {
        "silent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sizes() {
        assert_eq!(Message::empty().size_bits(), 0);
        let m = Message::new(BitString::parse("10110").unwrap());
        assert_eq!(m.size_bits(), 5);
        assert!(!m.carries_source);
    }

    #[test]
    fn flood_source_sends_everywhere_once() {
        let view = NodeView {
            advice: BitString::new(),
            is_source: true,
            id: Some(0),
            degree: 3,
        };
        let mut b = FloodOnce.create(view);
        let sends = b.on_start();
        assert_eq!(sends.len(), 3);
        assert!(b.on_start().is_empty(), "source must not flood twice");
    }

    #[test]
    fn flood_non_source_waits_for_informed_message() {
        let view = NodeView {
            advice: BitString::new(),
            is_source: false,
            id: Some(1),
            degree: 4,
        };
        let mut b = FloodOnce.create(view);
        assert!(b.on_start().is_empty());
        // Uninformed control message: ignored.
        let control = Message::empty();
        assert!(b.on_receive(0, control).is_empty());
        // Informed message: forward to the 3 other ports.
        let mut informed = Message::empty();
        informed.carries_source = true;
        let sends = b.on_receive(1, informed.clone());
        assert_eq!(sends.len(), 3);
        assert!(sends.iter().all(|s| s.port != 1));
        // Second informed message: silence.
        assert!(b.on_receive(2, informed).is_empty());
    }

    #[test]
    fn silent_is_silent() {
        let view = NodeView {
            advice: BitString::new(),
            is_source: true,
            id: None,
            degree: 2,
        };
        let mut b = Silent.create(view);
        assert!(b.on_start().is_empty());
        assert!(b.on_receive(0, Message::empty()).is_empty());
    }
}
