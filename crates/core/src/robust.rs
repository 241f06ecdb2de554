//! Self-healing variants of the paper's schemes: graceful degradation
//! under advice corruption and message loss.
//!
//! The upper-bound schemes are brittle by design — [`TreeWakeup`] trusts
//! its advice blindly, so a single corrupted string strands the whole
//! subtree behind it, and no scheme re-sends a lost message. This module
//! adds the two robust counterparts the robustness experiments measure:
//!
//! * [`RobustWakeupOracle`] + [`RobustTreeWakeup`] — the Theorem 2.1
//!   advice extended with a per-node checksum. A node whose advice fails
//!   validation (bad checksum, undecodable port list, port `≥ deg(v)`, or
//!   a duplicate port) falls back to *neighbor flooding*: on wakeup it
//!   sends to every port except the one that woke it. Flooding is a
//!   superset of the node's true child ports, so every spanning-tree edge
//!   is still traversed — on a connected graph the wakeup completes at
//!   **any** advice-corruption rate (unless a corrupted string collides
//!   with its own checksum, probability `2^-12` per node). The price is
//!   messages: `n − 1` with clean advice, degrading toward flooding cost
//!   as corruption grows. Advice that validates but encodes *wrong* ports
//!   (e.g. two nodes' strings swapped) is indistinguishable from correct
//!   advice locally; that failure mode remains, and the experiments
//!   exhibit it.
//! * [`RetryBroadcast`] — the tree scheme made loss-tolerant: every wakeup
//!   message is acknowledged with a 1-bit reply, and at quiescence a node
//!   re-sends to children that never acknowledged, up to
//!   [`retries`](RetryBroadcast::retries) times (bounded by the engine's
//!   [`max_quiescence_polls`](oraclesize_sim::SimConfig::max_quiescence_polls)).
//!   Fault-free cost is exactly `2(n − 1)` messages; under message-drop
//!   probability `p` each tree edge fails only if all `retries + 1`
//!   attempts are lost.

use std::collections::BTreeSet;

use oraclesize_bits::lists::decode_port_list;
use oraclesize_bits::BitString;
use oraclesize_graph::{NodeId, Port, PortGraph};
use oraclesize_sim::protocol::{ForwardOnce, Message, NodeBehavior, NodeView, Outgoing, Protocol};

use crate::oracle::{Advice, Oracle};
use crate::wakeup::SpanningTreeOracle;

/// Checksum width appended to each advice string by [`RobustWakeupOracle`].
pub const CHECKSUM_BITS: usize = 12;

/// Checksum of an advice payload: the bits are folded into a 64-bit word,
/// mixed (splitmix64 finalizer), and truncated to [`CHECKSUM_BITS`] bits.
pub fn advice_checksum(payload: &BitString) -> u64 {
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15 ^ payload.len() as u64;
    for bit in payload.iter() {
        acc = acc
            .rotate_left(1)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(bit as u64 + 1);
    }
    let mut z = acc;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << CHECKSUM_BITS) - 1)
}

/// [`SpanningTreeOracle`] advice with a [`CHECKSUM_BITS`]-bit checksum
/// appended to every node's string, so [`RobustTreeWakeup`] can detect
/// corruption locally. Size overhead: exactly `CHECKSUM_BITS · n` bits —
/// still `O(n log n)` in total.
#[derive(Debug, Clone, Copy, Default)]
pub struct RobustWakeupOracle {
    /// The underlying Theorem 2.1 oracle.
    pub inner: SpanningTreeOracle,
}

impl Oracle for RobustWakeupOracle {
    fn advise(&self, g: &PortGraph, source: NodeId) -> Advice {
        self.inner
            .advise(g, source)
            .iter()
            .map(|payload| {
                let check = advice_checksum(payload);
                let mut out = payload.clone();
                out.push_uint(check, CHECKSUM_BITS as u32);
                out
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "robust-spanning-tree"
    }
}

/// Splits checksummed advice and validates it; `None` means "treat this
/// advice as corrupted and fall back to flooding".
fn validate_advice(advice: &BitString, degree: usize) -> Option<Vec<Port>> {
    if advice.len() < CHECKSUM_BITS {
        return None;
    }
    let body_len = advice.len() - CHECKSUM_BITS;
    let payload = BitString::from_bits(advice.iter().take(body_len));
    // Checksum bits were written with `push_uint`: least significant first.
    let mut declared: u64 = 0;
    for (i, bit) in advice.iter().skip(body_len).enumerate() {
        declared |= (bit as u64) << i;
    }
    if advice_checksum(&payload) != declared {
        return None;
    }
    let ports = decode_port_list(&payload)?;
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(ports.len());
    for p in ports {
        if p as usize >= degree || !seen.insert(p) {
            return None;
        }
        out.push(p as usize);
    }
    Some(out)
}

/// The self-healing Theorem 2.1 wakeup scheme; pair it with
/// [`RobustWakeupOracle`].
///
/// With validated advice it behaves exactly like [`TreeWakeup`] (one
/// message per child port, `n − 1` in total). On validation failure the
/// node floods to every port except the one that woke it — see the module
/// docs for why this keeps the wakeup complete on connected graphs.
///
/// [`TreeWakeup`]: crate::wakeup::TreeWakeup
#[derive(Debug, Clone, Copy, Default)]
pub struct RobustTreeWakeup;

/// The scheme's rule: forward once, on the validated child ports, or on
/// every port but the arrival port when validation fails.
const RULE: ForwardOnce = ForwardOnce(validate_advice);

impl Protocol for RobustTreeWakeup {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        RULE.node(&view)
    }

    fn name(&self) -> &'static str {
        "robust-tree-wakeup"
    }

    fn forward_once(&self) -> Option<ForwardOnce> {
        Some(RULE)
    }
}

/// The tree broadcast made loss-tolerant with 1-bit acknowledgements and
/// bounded re-sends; pair it with [`SpanningTreeOracle`].
///
/// Framing: a wakeup message has an empty payload; an acknowledgement is
/// the 1-bit payload `1`. A node acknowledges *every* wakeup it receives
/// (duplicates included — its earlier ack may have been the lost message)
/// but forwards to its children only once. At quiescence, a node re-sends
/// the wakeup to every child port that has not acknowledged, up to
/// `retries` times.
#[derive(Debug, Clone, Copy)]
pub struct RetryBroadcast {
    /// Re-sends allowed per node. Effective only when the engine's
    /// [`max_quiescence_polls`](oraclesize_sim::SimConfig::max_quiescence_polls)
    /// is at least as large.
    pub retries: u32,
}

impl Default for RetryBroadcast {
    fn default() -> Self {
        RetryBroadcast { retries: 3 }
    }
}

fn ack_message() -> Message {
    let mut payload = BitString::new();
    payload.push(true);
    Message::new(payload)
}

struct RetryState {
    child_ports: Vec<Port>,
    acked: BTreeSet<Port>,
    is_source: bool,
    woken: bool,
    retries_left: u32,
}

impl RetryState {
    fn wake_children(&self) -> Vec<Outgoing> {
        self.child_ports
            .iter()
            .filter(|p| !self.acked.contains(p))
            .map(|&p| Outgoing::new(p, Message::empty()))
            .collect()
    }
}

impl NodeBehavior for RetryState {
    fn on_start(&mut self) -> Vec<Outgoing> {
        if self.is_source {
            self.woken = true;
            self.wake_children()
        } else {
            Vec::new()
        }
    }

    fn on_receive(&mut self, port: Port, message: Message) -> Vec<Outgoing> {
        if !message.carries_source {
            return Vec::new();
        }
        if message.payload.is_empty() {
            // A wakeup (possibly a retry — our ack may have been lost).
            let mut sends = vec![Outgoing::new(port, ack_message())];
            if !self.woken {
                self.woken = true;
                sends.extend(self.wake_children());
            }
            sends
        } else {
            // An acknowledgement from the child behind `port`.
            self.acked.insert(port);
            Vec::new()
        }
    }

    fn on_quiescence(&mut self) -> Vec<Outgoing> {
        if !self.woken || self.retries_left == 0 {
            return Vec::new();
        }
        let unacked = self.wake_children();
        if unacked.is_empty() {
            return Vec::new();
        }
        self.retries_left -= 1;
        unacked
    }
}

impl Protocol for RetryBroadcast {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        let child_ports: Vec<Port> = decode_port_list(&view.advice)
            .unwrap_or_default()
            .into_iter()
            .filter(|&p| (p as usize) < view.degree)
            .map(|p| p as usize)
            .collect();
        Box::new(RetryState {
            child_ports,
            acked: BTreeSet::new(),
            is_source: view.is_source,
            woken: false,
            retries_left: self.retries,
        })
    }

    fn name(&self) -> &'static str {
        "retry-broadcast"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::execute;
    use crate::wakeup::TreeWakeup;
    use oraclesize_graph::families::{self, Family};
    use oraclesize_sim::{AdviceAdversary, Completion, FaultPlan, SchedulerKind, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn wakeup_with_faults(plan: FaultPlan) -> SimConfig {
        SimConfig::wakeup().with_faults(plan)
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = BitString::parse("1011001").unwrap();
        assert_eq!(advice_checksum(&a), advice_checksum(&a));
        assert!(advice_checksum(&a) < (1 << CHECKSUM_BITS));
        let b = BitString::parse("1011000").unwrap();
        assert_ne!(advice_checksum(&a), advice_checksum(&b));
        let c = BitString::parse("10110010").unwrap();
        assert_ne!(advice_checksum(&a), advice_checksum(&c));
    }

    #[test]
    fn validation_rejects_each_failure_mode() {
        // Too short for a checksum.
        assert!(validate_advice(&BitString::parse("101").unwrap(), 4).is_none());
        // Valid encoding of ports [0, 2] for a degree-4 node.
        let payload = oraclesize_bits::lists::encode_port_list(&[0, 2], 4);
        let mut good = payload.clone();
        good.push_uint(advice_checksum(&payload), CHECKSUM_BITS as u32);
        assert_eq!(validate_advice(&good, 4), Some(vec![0, 2]));
        // Same string, one payload bit flipped: checksum catches it.
        let flipped =
            BitString::from_bits(
                good.iter()
                    .enumerate()
                    .map(|(i, b)| if i == 1 { !b } else { b }),
            );
        assert!(validate_advice(&flipped, 4).is_none());
        // Port out of range for the node's actual degree.
        assert!(validate_advice(&good, 2).is_none());
        // Duplicate ports.
        let dup_payload = oraclesize_bits::lists::encode_port_list(&[1, 1], 4);
        let mut dup = dup_payload.clone();
        dup.push_uint(advice_checksum(&dup_payload), CHECKSUM_BITS as u32);
        assert!(validate_advice(&dup, 4).is_none());
    }

    #[test]
    fn clean_advice_costs_exactly_n_minus_1() {
        let mut rng = StdRng::seed_from_u64(8);
        for fam in Family::ALL {
            let g = fam.build(36, &mut rng);
            let n = g.num_nodes();
            let run = execute(
                &g,
                0,
                &RobustWakeupOracle::default(),
                &RobustTreeWakeup,
                &SimConfig::wakeup(),
            )
            .unwrap();
            assert!(run.outcome.all_informed(), "{}", fam.name());
            assert_eq!(
                run.outcome.metrics.messages,
                (n - 1) as u64,
                "{}",
                fam.name()
            );
            assert_eq!(run.outcome.classify(), Completion::Completed);
        }
    }

    #[test]
    fn total_garbage_still_wakes_everyone() {
        // 100% advice corruption: every node's advice is replaced with
        // random bits, every node floods, and the wakeup still completes.
        let mut rng = StdRng::seed_from_u64(15);
        for (i, fam) in Family::ALL.iter().enumerate() {
            let g = fam.build(30, &mut rng);
            let plan = FaultPlan::advice_only(
                100 + i as u64,
                AdviceAdversary::Garbage {
                    prob: 1.0,
                    bits: 40,
                },
            );
            let run = execute(
                &g,
                0,
                &RobustWakeupOracle::default(),
                &RobustTreeWakeup,
                &wakeup_with_faults(plan),
            )
            .unwrap();
            assert!(run.outcome.all_informed(), "{}", fam.name());
            assert_eq!(run.outcome.classify(), Completion::Completed);
            assert!(
                run.outcome.metrics.messages >= (g.num_nodes() - 1) as u64,
                "{}",
                fam.name()
            );
        }
    }

    #[test]
    fn plain_tree_wakeup_degrades_under_the_same_garbage() {
        // The contrast that motivates the robust scheme: on a path, where
        // every internal node is an articulation point, TreeWakeup with
        // fully garbaged advice strands nodes, RobustTreeWakeup does not.
        let g = families::path(12);
        let garbage = |seed| {
            FaultPlan::advice_only(
                seed,
                AdviceAdversary::Garbage {
                    prob: 1.0,
                    bits: 40,
                },
            )
        };
        let brittle = execute(
            &g,
            0,
            &SpanningTreeOracle::default(),
            &TreeWakeup,
            &wakeup_with_faults(garbage(5)),
        )
        .unwrap();
        assert!(matches!(
            brittle.outcome.classify(),
            Completion::Degraded { .. }
        ));
        let robust = execute(
            &g,
            0,
            &RobustWakeupOracle::default(),
            &RobustTreeWakeup,
            &wakeup_with_faults(garbage(5)),
        )
        .unwrap();
        assert_eq!(robust.outcome.classify(), Completion::Completed);
    }

    #[test]
    fn bit_flip_corruption_is_detected_and_healed() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = families::random_connected(25, 0.25, &mut rng);
        for seed in 0..5 {
            let plan = FaultPlan::advice_only(seed, AdviceAdversary::FlipBits { prob: 0.3 });
            let run = execute(
                &g,
                0,
                &RobustWakeupOracle::default(),
                &RobustTreeWakeup,
                &wakeup_with_faults(plan),
            )
            .unwrap();
            assert!(run.outcome.all_informed(), "seed {seed}");
        }
    }

    #[test]
    fn robust_wakeup_works_under_every_scheduler() {
        let g = families::complete_rotational(20);
        let plan = FaultPlan::advice_only(
            2,
            AdviceAdversary::Garbage {
                prob: 0.5,
                bits: 30,
            },
        );
        for kind in SchedulerKind::sweep(41) {
            let cfg = SimConfig::wakeup()
                .with_scheduler(kind)
                .with_faults(plan.clone());
            let run = execute(
                &g,
                3,
                &RobustWakeupOracle::default(),
                &RobustTreeWakeup,
                &cfg,
            )
            .unwrap();
            assert!(run.outcome.all_informed(), "{}", kind.name());
        }
    }

    #[test]
    fn oracle_overhead_is_exactly_checksum_bits_per_node() {
        let g = families::binary_tree(31);
        let plain = crate::oracle::advice_size(&SpanningTreeOracle::default().advise(&g, 0));
        let robust = crate::oracle::advice_size(&RobustWakeupOracle::default().advise(&g, 0));
        assert_eq!(robust, plain + (CHECKSUM_BITS * g.num_nodes()) as u64);
    }

    #[test]
    fn retry_broadcast_clean_costs_two_per_edge() {
        let mut rng = StdRng::seed_from_u64(12);
        for fam in Family::ALL {
            let g = fam.build(24, &mut rng);
            let n = g.num_nodes() as u64;
            let run = execute(
                &g,
                0,
                &SpanningTreeOracle::default(),
                &RetryBroadcast::default(),
                &SimConfig::default(),
            )
            .unwrap();
            assert!(run.outcome.all_informed(), "{}", fam.name());
            assert_eq!(run.outcome.metrics.messages, 2 * (n - 1), "{}", fam.name());
            assert_eq!(run.outcome.metrics.max_message_bits, 1);
        }
    }

    #[test]
    fn retry_broadcast_recovers_lost_messages() {
        // 25% drop rate: plain TreeWakeup (no retries) strands nodes on
        // most seeds; RetryBroadcast completes on all of them.
        let g = families::binary_tree(31);
        let mut brittle_failures = 0;
        for seed in 0..8 {
            let plan = FaultPlan::message_faults(seed, 0.25, 0.0, 0.0);
            let brittle = execute(
                &g,
                0,
                &SpanningTreeOracle::default(),
                &TreeWakeup,
                &SimConfig::broadcast().with_faults(plan.clone()),
            )
            .unwrap();
            if brittle.outcome.classify() != Completion::Completed {
                brittle_failures += 1;
            }
            let healed = execute(
                &g,
                0,
                &SpanningTreeOracle::default(),
                &RetryBroadcast { retries: 8 },
                &SimConfig::broadcast()
                    .with_faults(plan)
                    .with_quiescence_polls(16),
            )
            .unwrap();
            assert_eq!(
                healed.outcome.classify(),
                Completion::Completed,
                "seed {seed}"
            );
        }
        assert!(brittle_failures > 0, "drop rate too low to matter");
    }

    #[test]
    fn retry_broadcast_terminates_under_total_loss() {
        // Every message dropped: nothing can complete, but the retry
        // budget must bound the run and the outcome must be degraded.
        let g = families::path(6);
        let run = execute(
            &g,
            0,
            &SpanningTreeOracle::default(),
            &RetryBroadcast { retries: 4 },
            &SimConfig::broadcast().with_faults(FaultPlan::message_faults(1, 1.0, 0.0, 0.0)),
        )
        .unwrap();
        assert_eq!(
            run.outcome.classify(),
            Completion::Degraded { uninformed: 5 }
        );
        // Source keeps re-sending to its single child: 1 initial + 4
        // retries, every one dropped.
        assert_eq!(run.outcome.metrics.messages, 5);
        assert_eq!(run.outcome.metrics.faults.dropped, 5);
    }

    #[test]
    fn retry_broadcast_survives_duplicates_and_crashes() {
        // Duplication must not double-fire subtrees, and a crashed leaf is
        // excused by classification while the rest completes.
        let g = families::binary_tree(15);
        let plan = FaultPlan {
            seed: 6,
            duplicate_prob: 0.5,
            crashes: [(14, 0)].into(),
            ..Default::default()
        };
        let run = execute(
            &g,
            0,
            &SpanningTreeOracle::default(),
            &RetryBroadcast { retries: 4 },
            &SimConfig::broadcast()
                .with_faults(plan)
                .with_quiescence_polls(8),
        )
        .unwrap();
        assert_eq!(run.outcome.classify(), Completion::Completed);
        assert!(run.outcome.crashed[14]);
        assert!(!run.outcome.informed[14]);
    }
}
