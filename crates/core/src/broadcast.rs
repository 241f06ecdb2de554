//! Theorem 3.1: broadcast with a linear number of messages from an
//! `O(n)`-bit oracle (at most `8n` bits).
//!
//! The oracle builds the light spanning tree `T0` of Claim 3.1
//! (`Σ_{e∈T0} #2(w(e)) ≤ 4n` with `w(e) = min(port_u(e), port_v(e))`) and
//! hands the binary representation of each tree edge's weight to the
//! endpoint `x` whose port realizes it (`port_x(e) = w(e)`); with the
//! `2·#2(w)` continuation-pair code the total is at most `8n` bits.
//!
//! [`SchemeB`] is the broadcast scheme of Figure 1. A node `x` keeps:
//!
//! * `K_x` — incident tree-edge ports it knows of (advice + learned),
//! * `H_x` — advice ports on which a "hello" is still owed,
//! * `S_x` — ports through which the source message `M` has transited.
//!
//! Spontaneously, every node greets its advice ports with "hello" (so the
//! *other* endpoint of each tree edge learns it); once a node holds `M` it
//! forwards `M` on every known port `M` has not yet transited. The paper's
//! `repeat` loop is level-triggered on "x has M", so a port learned *after*
//! `M` arrived still gets `M` — that re-firing is what makes the induction
//! in Claim 3.2 go through, and is reproduced here by re-flushing state on
//! every event.

use std::collections::BTreeSet;

use oraclesize_bits::lists::{decode_weight_list, encode_weight_list};
use oraclesize_graph::spanning::light_tree;
use oraclesize_graph::{NodeId, Port, PortGraph};
use oraclesize_sim::protocol::{Message, NodeBehavior, NodeView, Outgoing, Protocol};

use crate::oracle::{Advice, Oracle};

/// The Theorem 3.1 oracle: light-tree edge weights, each assigned to the
/// endpoint whose port equals the weight.
#[derive(Debug, Clone, Copy, Default)]
pub struct LightTreeOracle;

impl Oracle for LightTreeOracle {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        let tree = light_tree(g, source);
        let mut per_node: Vec<Vec<u64>> = vec![Vec::new(); g.num_nodes()];
        for e in tree.edges(g) {
            let w = e.weight();
            // Assign to the endpoint whose port number equals w; ties broken
            // toward the smaller node id (arbitrary per the paper).
            let x = if e.port_u as u64 == w { e.u } else { e.v };
            per_node[x].push(w);
        }
        per_node
            .into_iter()
            .map(|ws| encode_weight_list(&ws))
            .collect()
    }

    fn name(&self) -> &'static str {
        "light-tree"
    }
}

/// The broadcast scheme `B` of Figure 1.
///
/// Messages have empty payloads; "hello" and `M` are distinguished by the
/// transport-level informedness flag (the paper appends the source message
/// to any message sent by an informed node, so an informed node's hello
/// *is* an `M`-carrier — strictly better than the paper's accounting).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemeB;

struct SchemeBState {
    /// `K_x`: known incident tree-edge ports.
    known: BTreeSet<Port>,
    /// `H_x`: advice ports still owed a hello.
    hello_pending: BTreeSet<Port>,
    /// `S_x`: ports `M` has transited (either direction).
    sent: BTreeSet<Port>,
    /// Whether this node holds the source message.
    has_m: bool,
}

impl SchemeBState {
    /// One pass of the Figure 1 `repeat` body: flush `M` on `K_x \ S_x` if
    /// informed, then flush pending hellos.
    fn flush(&mut self) -> Vec<Outgoing> {
        let mut out = Vec::new();
        if self.has_m {
            let fresh: Vec<Port> = self.known.difference(&self.sent).copied().collect();
            for p in fresh {
                out.push(Outgoing::new(p, Message::empty()));
                self.sent.insert(p);
            }
            // Hx ← Hx \ Sx: no hello needed where M already transited.
            self.hello_pending = self.hello_pending.difference(&self.sent).copied().collect();
        }
        let hellos: Vec<Port> = std::mem::take(&mut self.hello_pending)
            .into_iter()
            .collect();
        for p in hellos {
            out.push(Outgoing::new(p, Message::empty()));
        }
        out
    }
}

impl NodeBehavior for SchemeBState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        self.flush()
    }

    fn on_receive(&mut self, port: Port, message: Message) -> Vec<Outgoing> {
        if message.carries_source {
            // "x receives M via port p": K_x ∪= {p}, S_x ∪= {p}.
            self.known.insert(port);
            self.sent.insert(port);
            self.has_m = true;
        } else {
            // "x receives hello via p ∉ K_x": K_x ∪= {p}.
            self.known.insert(port);
        }
        self.flush()
    }
}

impl Protocol for SchemeB {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        // Advice decodes to the list of this node's tree-edge ports.
        // Malformed advice degrades to an adviceless node: still a legal
        // broadcast scheme, possibly incomplete.
        let ports: BTreeSet<Port> = decode_weight_list(&view.advice)
            .unwrap_or_default()
            .into_iter()
            .filter(|&w| (w as usize) < view.degree)
            .map(|w| w as usize)
            .collect();
        Box::new(SchemeBState {
            known: ports.clone(),
            hello_pending: ports,
            sent: BTreeSet::new(),
            has_m: view.is_source,
        })
    }

    fn name(&self) -> &'static str {
        "scheme-b"
    }
}

/// **Ablation**: Scheme B with the level-triggered re-flush removed — a
/// node forwards `M` only in direct response to *receiving* `M`, never
/// when a later hello enlarges `K_x`.
///
/// This is the naive reading of Figure 1, and it is **wrong**: the paper's
/// `repeat` loop re-evaluates "x has M" on every event, which is what makes
/// the Claim 3.2 induction go through. Without it, an edge whose advice
/// lives at the *far* endpoint is never used when the hello arrives after
/// `M` did — broadcast stalls. The unit tests exhibit a deterministic
/// failure on a path (where the light tree assigns every edge weight to
/// the downstream endpoint) that the faithful [`SchemeB`] handles.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemeBNoReflush;

struct NoReflushState {
    inner: SchemeBState,
}

impl NodeBehavior for NoReflushState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        self.inner.flush()
    }

    fn on_receive(&mut self, port: Port, message: Message) -> Vec<Outgoing> {
        if message.carries_source {
            self.inner.known.insert(port);
            self.inner.sent.insert(port);
            self.inner.has_m = true;
            self.inner.flush()
        } else {
            // The broken step: learn the port but do NOT re-flush M.
            self.inner.known.insert(port);
            Vec::new()
        }
    }
}

impl Protocol for SchemeBNoReflush {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        let ports: BTreeSet<Port> = decode_weight_list(&view.advice)
            .unwrap_or_default()
            .into_iter()
            .filter(|&w| (w as usize) < view.degree)
            .map(|w| w as usize)
            .collect();
        Box::new(NoReflushState {
            inner: SchemeBState {
                known: ports.clone(),
                hello_pending: ports,
                sent: BTreeSet::new(),
                has_m: view.is_source,
            },
        })
    }

    fn name(&self) -> &'static str {
        "scheme-b-no-reflush"
    }
}

/// Upper bound on the number of messages Scheme B can produce on an
/// `n`-node network: `M` crosses each of the `n−1` tree edges at most once
/// per direction, hellos at most once per edge.
pub fn scheme_b_message_bound(n: usize) -> u64 {
    3 * (n.saturating_sub(1)) as u64
}

/// The Theorem 3.1 oracle-size bound: `8n` bits.
pub fn light_tree_oracle_bound(g: &PortGraph) -> u64 {
    8 * g.num_nodes() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::advice_size;
    use crate::runner::execute;
    use oraclesize_bits::BitString;
    use oraclesize_graph::families::{self, Family};
    use oraclesize_sim::trace::{Delivery, VecSink};
    use oraclesize_sim::{SchedulerKind, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Scheme B's deliveries on `g` from source 0 with light-tree advice,
    /// in execution order.
    fn scheme_b_deliveries(g: &PortGraph) -> Vec<Delivery> {
        let advice = LightTreeOracle.advise(g, 0);
        let mut sink = VecSink::new();
        let cfg = SimConfig::broadcast();
        oraclesize_sim::engine::run_with_sink(g, 0, &advice, &SchemeB, &cfg, &mut sink).unwrap();
        let events = sink.into_events();
        events
            .iter()
            .filter_map(|e| e.as_delivery())
            .copied()
            .collect()
    }

    #[test]
    fn broadcast_completes_on_all_families() {
        let mut rng = StdRng::seed_from_u64(8);
        for fam in Family::ALL {
            for n in [8usize, 40] {
                let g = fam.build(n, &mut rng);
                let run =
                    execute(&g, 0, &LightTreeOracle, &SchemeB, &SimConfig::default()).unwrap();
                assert!(run.outcome.all_informed(), "{} n={n}", fam.name());
            }
        }
    }

    #[test]
    fn oracle_size_at_most_8n() {
        let mut rng = StdRng::seed_from_u64(9);
        for fam in Family::ALL {
            for n in [8usize, 60, 150] {
                let g = fam.build(n, &mut rng);
                let advice = LightTreeOracle.advise(&g, 0);
                let size = advice_size(&advice);
                assert!(
                    size <= light_tree_oracle_bound(&g),
                    "{} n={}: {size} > 8n",
                    fam.name(),
                    g.num_nodes()
                );
            }
        }
    }

    #[test]
    fn message_complexity_is_linear() {
        let mut rng = StdRng::seed_from_u64(10);
        for fam in Family::ALL {
            let g = fam.build(50, &mut rng);
            let run = execute(&g, 0, &LightTreeOracle, &SchemeB, &SimConfig::default()).unwrap();
            assert!(
                run.outcome.metrics.messages <= scheme_b_message_bound(g.num_nodes()),
                "{}: {} messages",
                fam.name(),
                run.outcome.metrics.messages
            );
        }
    }

    #[test]
    fn works_async_anonymous_zero_payload() {
        // The §1.3 robustness claims: async schedulers, no identities,
        // bounded (here: empty) messages.
        let g = families::complete_rotational(30);
        for kind in SchedulerKind::sweep(13) {
            let cfg = SimConfig::broadcast()
                .with_scheduler(kind)
                .with_anonymous(true)
                .with_max_message_bits(0);
            let run = execute(&g, 11, &LightTreeOracle, &SchemeB, &cfg).unwrap();
            assert!(run.outcome.all_informed(), "{}", kind.name());
            assert!(run.outcome.metrics.messages <= scheme_b_message_bound(30));
        }
    }

    #[test]
    fn every_tree_edge_weight_assigned_exactly_once() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = families::random_connected(40, 0.2, &mut rng);
        let advice = LightTreeOracle.advise(&g, 0);
        let total_ports: usize = advice
            .iter()
            .map(|a| decode_weight_list(a).unwrap().len())
            .sum();
        assert_eq!(total_ports, 39, "one advice entry per tree edge");
    }

    #[test]
    fn assigned_port_is_real_port_of_that_node() {
        let mut rng = StdRng::seed_from_u64(14);
        let g = families::random_connected(25, 0.3, &mut rng);
        let advice = LightTreeOracle.advise(&g, 0);
        for (v, a) in advice.iter().enumerate() {
            for w in decode_weight_list(a).unwrap() {
                assert!((w as usize) < g.degree(v), "node {v} got foreign port {w}");
            }
        }
    }

    #[test]
    fn hello_counts_bounded_by_tree_edges() {
        let g = families::complete_rotational(20);
        let deliveries = scheme_b_deliveries(&g);
        let hellos = deliveries.iter().filter(|d| !d.carries_source).count();
        assert!(hellos <= 19, "{hellos} pure hellos > n-1");
    }

    #[test]
    fn late_port_discovery_still_delivers_m() {
        // A path where only the far endpoint holds the advice for its edge:
        // node 0 (source) may learn its port only via hello, then must
        // still forward M — the level-triggered re-flush.
        let g = families::path(2);
        // Edge {0,1}: ports 0 at both. Give the advice to node 1 only.
        let advice = Advice::from(vec![BitString::new(), encode_weight_list(&[0])]);
        let out =
            oraclesize_sim::engine::run(&g, 0, &advice, &SchemeB, &SimConfig::default()).unwrap();
        assert!(out.all_informed());
    }

    #[test]
    fn empty_advice_everywhere_reaches_only_source_component() {
        let g = families::path(3);
        let advice = oraclesize_sim::testkit::no_advice(3);
        let out =
            oraclesize_sim::engine::run(&g, 0, &advice, &SchemeB, &SimConfig::default()).unwrap();
        assert_eq!(out.informed_count(), 1);
        assert_eq!(out.metrics.messages, 0);
    }

    #[test]
    fn reflush_ablation_naive_scheme_b_stalls() {
        // On a path, `w(e) = min(port_u, port_v) = 0`, realized at the
        // *downstream* endpoint for every edge — so the upstream node only
        // learns each edge via a hello, which (in synchronous execution)
        // arrives after M. The naive no-reflush variant therefore stalls
        // one hop from the source, while faithful Scheme B completes.
        let g = families::path(6);
        let naive = execute(
            &g,
            0,
            &LightTreeOracle,
            &SchemeBNoReflush,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(
            !naive.outcome.all_informed(),
            "naive variant unexpectedly completed ({} informed)",
            naive.outcome.informed_count()
        );
        let faithful = execute(&g, 0, &LightTreeOracle, &SchemeB, &SimConfig::default()).unwrap();
        assert!(faithful.outcome.all_informed());
    }

    #[test]
    fn reflush_ablation_is_schedule_dependent() {
        let g = families::path(8);
        for kind in SchedulerKind::sweep(29) {
            let cfg = SimConfig::broadcast().with_scheduler(kind);
            let faithful = execute(&g, 0, &LightTreeOracle, &SchemeB, &cfg).unwrap();
            assert!(faithful.outcome.all_informed(), "{}", kind.name());
        }
        // FIFO delivers M before the hellos: the naive variant stalls.
        let cfg = SimConfig::broadcast().with_scheduler(SchedulerKind::Fifo);
        let naive = execute(&g, 0, &LightTreeOracle, &SchemeBNoReflush, &cfg).unwrap();
        assert!(!naive.outcome.all_informed());
        // LIFO happens to deliver every hello before M, rescuing the naive
        // variant on this instance — correctness that depends on the
        // adversary's mood is exactly what the paper's level-triggered
        // loop removes.
        let cfg = SimConfig::broadcast().with_scheduler(SchedulerKind::Lifo);
        let rescued = execute(&g, 0, &LightTreeOracle, &SchemeBNoReflush, &cfg).unwrap();
        assert!(rescued.outcome.all_informed());
    }

    #[test]
    fn m_never_crosses_an_edge_twice_in_same_direction() {
        let g = families::complete_rotational(16);
        let mut seen = std::collections::HashSet::new();
        for d in scheme_b_deliveries(&g).iter().filter(|d| d.carries_source) {
            assert!(
                seen.insert((d.from, d.to)),
                "M crossed {}->{} twice",
                d.from,
                d.to
            );
        }
    }
}
