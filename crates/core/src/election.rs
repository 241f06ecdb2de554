//! Leader election with an oracle — the first task the paper's
//! introduction names ("for many network problems (such as leader
//! election, …) the quality of the algorithmic solutions often depends on
//! the amount of knowledge given to nodes").
//!
//! Task: every node must output the label of one common node — the leader.
//!
//! * [`ElectionOracle`] + [`AnnouncedLeader`]: the oracle marks the leader
//!   with a 1-bit flag and equips a spanning tree of announcement ports
//!   (`O(n log n)` bits total); the leader's label then reaches everyone
//!   with exactly `n − 1` messages.
//! * [`FloodMax`]: the classic zero-advice comparator — every node floods
//!   the largest label it has seen; quiesces with the true maximum
//!   everywhere at `O(n·m)` messages.
//!
//! Both protocols emit the elected label via the engine's output channel;
//! [`verify_election`] checks agreement and validity.

use oraclesize_bits::codec::{Codec, EliasGamma};
use oraclesize_bits::BitString;
use oraclesize_graph::spanning::bfs_tree;
use oraclesize_graph::{NodeId, Port, PortGraph};
use oraclesize_sim::protocol::{Message, NodeBehavior, NodeView, Outgoing, Protocol};

use crate::oracle::{Advice, Oracle};

/// Decodes an election output (the elected label).
pub fn decode_elected(s: &BitString) -> Option<u64> {
    let mut r = s.reader();
    let v = EliasGamma.decode(&mut r)?;
    if r.is_empty() {
        Some(v)
    } else {
        None
    }
}

fn encode_elected(label: u64) -> BitString {
    let mut out = BitString::new();
    EliasGamma.encode(label, &mut out);
    out
}

/// Checks that every node elected the same, existing node; when
/// `expect_max` is set, additionally that it is the maximum label (the
/// FloodMax contract).
///
/// # Errors
///
/// A human-readable description of the first defect.
pub fn verify_election(
    g: &PortGraph,
    outputs: &[Option<BitString>],
    expect_max: bool,
) -> Result<u64, String> {
    if outputs.len() != g.num_nodes() {
        return Err(format!(
            "{} outputs for {} nodes",
            outputs.len(),
            g.num_nodes()
        ));
    }
    let mut elected = None;
    for (v, out) in outputs.iter().enumerate() {
        let label = out
            .as_ref()
            .and_then(decode_elected)
            .ok_or_else(|| format!("node {v} produced no valid output"))?;
        match elected {
            None => elected = Some(label),
            Some(l) if l != label => {
                return Err(format!("node {v} elected {label}, others elected {l}"))
            }
            _ => {}
        }
    }
    let leader = elected.ok_or("empty graph")?;
    if g.node_by_label(leader).is_none() {
        return Err(format!("elected label {leader} does not exist"));
    }
    if expect_max {
        let max = (0..g.num_nodes())
            .map(|v| g.label(v))
            .max()
            .expect("nonempty");
        if leader != max {
            return Err(format!("elected {leader}, maximum label is {max}"));
        }
    }
    Ok(leader)
}

/// The election oracle: a 1-bit "you are the leader" flag plus the child
/// ports of a BFS announcement tree rooted at the leader. The leader is
/// chosen as the source node (any distinguished choice works — that
/// flexibility is exactly what the advice buys).
#[derive(Debug, Clone, Copy, Default)]
pub struct ElectionOracle;

impl Oracle for ElectionOracle {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        let tree = bfs_tree(g, source);
        (0..g.num_nodes())
            .map(|v| {
                let mut out = BitString::new();
                out.push(v == source);
                for (_, p) in tree.children(v) {
                    EliasGamma.encode(p as u64, &mut out);
                }
                out
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "election-tree"
    }
}

/// Announcement protocol: the flagged leader sends its label down the
/// advice tree; everyone adopts the label they receive. Exactly `n − 1`
/// messages.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnnouncedLeader;

struct AnnouncedState {
    child_ports: Vec<Port>,
    elected: Option<u64>,
    is_leader: bool,
    own: u64,
    fired: bool,
}

impl AnnouncedState {
    fn announce(&mut self, label: u64) -> Vec<Outgoing> {
        if self.fired {
            return Vec::new();
        }
        self.fired = true;
        self.elected = Some(label);
        self.child_ports
            .iter()
            .map(|&p| Outgoing::new(p, Message::new(encode_elected(label))))
            .collect()
    }
}

impl NodeBehavior for AnnouncedState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        if self.is_leader {
            let own = self.own;
            self.announce(own)
        } else {
            Vec::new()
        }
    }

    fn on_receive(&mut self, _port: Port, message: Message) -> Vec<Outgoing> {
        match decode_elected(&message.payload) {
            Some(label) => self.announce(label),
            None => Vec::new(),
        }
    }

    fn output(&self) -> Option<BitString> {
        self.elected.map(encode_elected)
    }
}

impl Protocol for AnnouncedLeader {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        let mut r = view.advice.reader();
        let is_leader = r.read_bit().unwrap_or(false);
        let mut child_ports = Vec::new();
        while !r.is_empty() {
            match EliasGamma.decode(&mut r) {
                Some(p) if (p as usize) < view.degree => child_ports.push(p as usize),
                _ => break,
            }
        }
        Box::new(AnnouncedState {
            child_ports,
            elected: None,
            is_leader,
            own: view.id.expect("election requires the labeled model"),
            fired: false,
        })
    }

    fn name(&self) -> &'static str {
        "announced-leader"
    }
}

/// The classic advice-free extrema-finding: every node starts by shouting
/// its own label; whenever a node learns a larger label it re-floods it.
/// Quiesces with the maximum everywhere at `O(n·m)` messages — the cost
/// the 1-bit-plus-tree oracle removes.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloodMax;

struct FloodMaxState {
    degree: usize,
    best: u64,
}

impl FloodMaxState {
    fn shout(&self, except: Option<Port>) -> Vec<Outgoing> {
        (0..self.degree)
            .filter(|&p| Some(p) != except)
            .map(|p| Outgoing::new(p, Message::new(encode_elected(self.best))))
            .collect()
    }
}

impl NodeBehavior for FloodMaxState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        self.shout(None)
    }

    fn on_receive(&mut self, port: Port, message: Message) -> Vec<Outgoing> {
        match decode_elected(&message.payload) {
            Some(label) if label > self.best => {
                self.best = label;
                self.shout(Some(port))
            }
            _ => Vec::new(),
        }
    }

    fn output(&self) -> Option<BitString> {
        Some(encode_elected(self.best))
    }
}

impl Protocol for FloodMax {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        Box::new(FloodMaxState {
            degree: view.degree,
            best: view.id.expect("election requires the labeled model"),
        })
    }

    fn name(&self) -> &'static str {
        "flood-max"
    }
}

/// Hirschberg–Sinclair election on bidirectional **rings**: zero advice,
/// `O(n log n)` messages — the classic midpoint between FloodMax's
/// `O(n·m)` and the oracle's `n − 1`.
///
/// Phases `k = 0, 1, …`: every still-candidate node probes `2^k` hops in
/// both directions; probes die at nodes with larger labels, otherwise turn
/// around at the hop limit as replies; a candidate receiving both replies
/// enters the next phase; a probe that returns to its originator makes it
/// the leader, which then circulates an announcement.
///
/// Requires every node to have degree exactly 2 (the scheme is
/// ring-specific, as in the literature).
#[derive(Debug, Clone, Copy, Default)]
pub struct HirschbergSinclair;

/// Message kinds on the ring.
const KIND_PROBE: u64 = 0;
const KIND_REPLY: u64 = 1;
const KIND_LEADER: u64 = 2;

fn encode_ring(kind: u64, id: u64, hops: u64) -> BitString {
    let mut out = BitString::new();
    EliasGamma.encode(kind, &mut out);
    EliasGamma.encode(id, &mut out);
    EliasGamma.encode(hops, &mut out);
    out
}

fn decode_ring(s: &BitString) -> Option<(u64, u64, u64)> {
    let mut r = s.reader();
    let kind = EliasGamma.decode(&mut r)?;
    let id = EliasGamma.decode(&mut r)?;
    let hops = EliasGamma.decode(&mut r)?;
    if r.is_empty() && kind <= KIND_LEADER {
        Some((kind, id, hops))
    } else {
        None
    }
}

struct HsState {
    own: u64,
    /// Replies still awaited this phase (candidate only).
    pending_replies: u8,
    phase: u32,
    candidate: bool,
    elected: Option<u64>,
    announced: bool,
}

impl HsState {
    fn start_phase(&mut self) -> Vec<Outgoing> {
        self.pending_replies = 2;
        let hops = 1u64 << self.phase;
        vec![
            Outgoing::new(0, Message::new(encode_ring(KIND_PROBE, self.own, hops))),
            Outgoing::new(1, Message::new(encode_ring(KIND_PROBE, self.own, hops))),
        ]
    }

    fn become_leader(&mut self) -> Vec<Outgoing> {
        self.elected = Some(self.own);
        if self.announced {
            return Vec::new();
        }
        self.announced = true;
        vec![Outgoing::new(
            0,
            Message::new(encode_ring(KIND_LEADER, self.own, 0)),
        )]
    }
}

impl NodeBehavior for HsState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        self.start_phase()
    }

    fn on_receive(&mut self, port: Port, message: Message) -> Vec<Outgoing> {
        let Some((kind, id, hops)) = decode_ring(&message.payload) else {
            return Vec::new();
        };
        let other = 1 - port; // rings: degree exactly 2
        match kind {
            KIND_PROBE => {
                if id == self.own {
                    // Our probe circumnavigated: we win.
                    self.become_leader()
                } else if id < self.own {
                    Vec::new() // kill the probe
                } else {
                    self.candidate = false;
                    if hops > 1 {
                        vec![Outgoing::new(
                            other,
                            Message::new(encode_ring(KIND_PROBE, id, hops - 1)),
                        )]
                    } else {
                        // Turn around.
                        vec![Outgoing::new(
                            port,
                            Message::new(encode_ring(KIND_REPLY, id, 0)),
                        )]
                    }
                }
            }
            KIND_REPLY => {
                if id != self.own {
                    vec![Outgoing::new(
                        other,
                        Message::new(encode_ring(KIND_REPLY, id, 0)),
                    )]
                } else if self.candidate {
                    self.pending_replies = self.pending_replies.saturating_sub(1);
                    if self.pending_replies == 0 {
                        self.phase += 1;
                        self.start_phase()
                    } else {
                        Vec::new()
                    }
                } else {
                    Vec::new() // stale reply to a defeated candidate
                }
            }
            KIND_LEADER => {
                if id == self.own {
                    Vec::new() // announcement completed the circle
                } else {
                    self.elected = Some(id);
                    vec![Outgoing::new(
                        other,
                        Message::new(encode_ring(KIND_LEADER, id, 0)),
                    )]
                }
            }
            _ => Vec::new(),
        }
    }

    fn output(&self) -> Option<BitString> {
        self.elected.map(encode_elected)
    }
}

impl Protocol for HirschbergSinclair {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        assert_eq!(
            view.degree, 2,
            "Hirschberg–Sinclair runs on rings (degree 2)"
        );
        Box::new(HsState {
            own: view.id.expect("election requires the labeled model"),
            pending_replies: 0,
            phase: 0,
            candidate: true,
            elected: None,
            announced: false,
        })
    }

    fn name(&self) -> &'static str {
        "hirschberg-sinclair"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::EmptyOracle;
    use crate::runner::execute;
    use oraclesize_graph::families::{self, Family};
    use oraclesize_sim::{SchedulerKind, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn announced_leader_elects_source_with_n_minus_1_messages() {
        let mut rng = StdRng::seed_from_u64(91);
        for fam in Family::ALL {
            let g = fam.build(28, &mut rng);
            let nodes = g.num_nodes();
            let run = execute(
                &g,
                3,
                &ElectionOracle,
                &AnnouncedLeader,
                &SimConfig::default(),
            )
            .unwrap();
            assert_eq!(run.outcome.metrics.messages, (nodes - 1) as u64);
            let leader = verify_election(&g, &run.outcome.outputs, false)
                .unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
            assert_eq!(leader, g.label(3));
        }
    }

    #[test]
    fn floodmax_elects_the_maximum_everywhere() {
        let mut rng = StdRng::seed_from_u64(92);
        for fam in [Family::Cycle, Family::Grid, Family::RandomSparse] {
            let g = fam.build(20, &mut rng);
            let run = execute(&g, 0, &EmptyOracle, &FloodMax, &SimConfig::default()).unwrap();
            verify_election(&g, &run.outcome.outputs, true)
                .unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
        }
    }

    #[test]
    fn floodmax_works_with_shuffled_labels() {
        // The maximum should win regardless of where it sits.
        let mut rng = StdRng::seed_from_u64(93);
        let mut g = families::random_connected(16, 0.25, &mut rng);
        let labels: Vec<u64> = (0..16).map(|v| (v as u64 * 7919 + 13) % 1000).collect();
        g.set_labels(labels.clone()).unwrap();
        let run = execute(&g, 0, &EmptyOracle, &FloodMax, &SimConfig::default()).unwrap();
        let leader = verify_election(&g, &run.outcome.outputs, true).unwrap();
        assert_eq!(leader, *labels.iter().max().unwrap());
    }

    #[test]
    fn floodmax_costs_far_more_than_announced_leader() {
        let g = families::complete_rotational(24);
        let flood = execute(&g, 0, &EmptyOracle, &FloodMax, &SimConfig::default()).unwrap();
        let announced = execute(
            &g,
            0,
            &ElectionOracle,
            &AnnouncedLeader,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(
            flood.outcome.metrics.messages > 5 * announced.outcome.metrics.messages,
            "floodmax {} vs announced {}",
            flood.outcome.metrics.messages,
            announced.outcome.metrics.messages
        );
        assert!(announced.oracle_bits > 0 && flood.oracle_bits == 0);
    }

    #[test]
    fn announced_leader_robust_async() {
        let g = families::lollipop(30);
        for kind in SchedulerKind::sweep(17) {
            let run = execute(
                &g,
                7,
                &ElectionOracle,
                &AnnouncedLeader,
                &SimConfig::broadcast().with_scheduler(kind),
            )
            .unwrap();
            let leader = verify_election(&g, &run.outcome.outputs, false).unwrap();
            assert_eq!(leader, g.label(7), "{}", kind.name());
        }
    }

    #[test]
    fn floodmax_async_still_agrees_on_max() {
        let g = families::cycle(12);
        for kind in SchedulerKind::sweep(19) {
            let run = execute(
                &g,
                0,
                &EmptyOracle,
                &FloodMax,
                &SimConfig::broadcast().with_scheduler(kind),
            )
            .unwrap();
            verify_election(&g, &run.outcome.outputs, true)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }

    #[test]
    fn hirschberg_sinclair_elects_max_on_rings() {
        for n in [3usize, 8, 16, 33, 64] {
            let g = families::cycle(n);
            let run = execute(
                &g,
                0,
                &EmptyOracle,
                &HirschbergSinclair,
                &SimConfig::default(),
            )
            .unwrap();
            let leader = verify_election(&g, &run.outcome.outputs, true)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(leader, (n - 1) as u64);
        }
    }

    #[test]
    fn hirschberg_sinclair_message_complexity_is_n_log_n() {
        // Between linear and quadratic; the classic bound is ≤ 8n(⌈log n⌉+1)
        // plus the n announcement messages.
        for n in [16usize, 64, 256] {
            let g = families::cycle(n);
            let run = execute(
                &g,
                0,
                &EmptyOracle,
                &HirschbergSinclair,
                &SimConfig::default(),
            )
            .unwrap();
            let msgs = run.outcome.metrics.messages;
            let log = (n as f64).log2().ceil() as u64 + 1;
            assert!(msgs > n as u64, "n={n}: {msgs} suspiciously low");
            assert!(
                msgs <= 8 * n as u64 * log + n as u64,
                "n={n}: {msgs} exceeds the HS bound"
            );
        }
        // And it beats FloodMax on the same ring.
        let g = families::cycle(128);
        let hs = execute(
            &g,
            0,
            &EmptyOracle,
            &HirschbergSinclair,
            &SimConfig::default(),
        )
        .unwrap()
        .outcome
        .metrics
        .messages;
        let fm = execute(&g, 0, &EmptyOracle, &FloodMax, &SimConfig::default())
            .unwrap()
            .outcome
            .metrics
            .messages;
        assert!(hs < fm, "HS {hs} not below FloodMax {fm}");
    }

    #[test]
    fn hirschberg_sinclair_with_shuffled_labels() {
        let mut g = families::cycle(20);
        let labels: Vec<u64> = (0..20).map(|v| (v as u64 * 6367 + 5) % 10_000).collect();
        g.set_labels(labels.clone()).unwrap();
        let run = execute(
            &g,
            0,
            &EmptyOracle,
            &HirschbergSinclair,
            &SimConfig::default(),
        )
        .unwrap();
        let leader = verify_election(&g, &run.outcome.outputs, true).unwrap();
        assert_eq!(leader, *labels.iter().max().unwrap());
    }

    #[test]
    fn hirschberg_sinclair_async_all_schedulers() {
        let g = families::cycle(24);
        for kind in SchedulerKind::sweep(23) {
            let run = execute(
                &g,
                0,
                &EmptyOracle,
                &HirschbergSinclair,
                &SimConfig::broadcast().with_scheduler(kind),
            )
            .unwrap();
            verify_election(&g, &run.outcome.outputs, true)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }

    #[test]
    fn election_knowledge_spectrum_on_a_ring() {
        // 0 bits general (FloodMax): Θ(n²) on rings; 0 bits ring-specific
        // (HS): Θ(n log n); Θ(n log n) bits (oracle): n − 1.
        let g = families::cycle(96);
        let fm = execute(&g, 0, &EmptyOracle, &FloodMax, &SimConfig::default()).unwrap();
        let hs = execute(
            &g,
            0,
            &EmptyOracle,
            &HirschbergSinclair,
            &SimConfig::default(),
        )
        .unwrap();
        let oracle = execute(
            &g,
            0,
            &ElectionOracle,
            &AnnouncedLeader,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(fm.outcome.metrics.messages > hs.outcome.metrics.messages);
        assert!(hs.outcome.metrics.messages > oracle.outcome.metrics.messages);
        assert_eq!(oracle.outcome.metrics.messages, 95);
    }

    #[test]
    fn verify_election_rejects_disagreement_and_ghosts() {
        let g = families::path(3);
        // Disagreement.
        let outs = vec![
            Some(encode_elected(0)),
            Some(encode_elected(1)),
            Some(encode_elected(0)),
        ];
        assert!(verify_election(&g, &outs, false).is_err());
        // Nonexistent label.
        let outs = vec![Some(encode_elected(99)); 3];
        assert!(verify_election(&g, &outs, false).is_err());
        // Missing output.
        let outs = vec![Some(encode_elected(0)), None, Some(encode_elected(0))];
        assert!(verify_election(&g, &outs, false).is_err());
        // Valid but not the max.
        let outs = vec![Some(encode_elected(0)); 3];
        assert!(verify_election(&g, &outs, false).is_ok());
        assert!(verify_election(&g, &outs, true).is_err());
    }
}
