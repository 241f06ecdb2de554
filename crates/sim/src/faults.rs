//! Fault injection: a seeded, deterministic adversary for robustness
//! experiments.
//!
//! The paper's model assumes a reliable network: every message sent is
//! eventually delivered, and the oracle's advice arrives intact. A
//! [`FaultPlan`] relaxes both assumptions so experiments can measure how
//! gracefully the schemes of Theorems 2.1 and 3.1 degrade:
//!
//! * **message faults** — each accepted send is independently dropped,
//!   duplicated, or has one payload bit flipped in flight,
//! * **crash-stop nodes** — a node in the crash set transmits its first `k`
//!   messages and then halts forever (it neither sends nor processes
//!   further deliveries),
//! * **advice corruption** — an [`AdviceAdversary`] mutates the oracle's
//!   output before the run starts.
//!
//! All randomness comes from a single `StdRng` seeded with
//! [`FaultPlan::seed`], so a run with the same plan, graph, and scheduler
//! is bit-for-bit reproducible. The adversary draws first, building the
//! corrupted table in one set-up step that both engine paths share; the
//! in-flight faults continue the same stream. A plan that
//! [is inert](FaultPlan::is_inert) makes the engine skip the fault path
//! entirely: metrics and traces are identical to a fault-free run. A plan
//! whose [transport is inert](FaultPlan::transport_is_inert) leaves a run
//! on the corrupted table otherwise fault-free, so a forward-once scheme
//! still takes the engine's frontier kernel.

use std::collections::BTreeMap;

use oraclesize_bits::BitString;
use oraclesize_graph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::oracle::Advice;

/// How the adversary mutates the oracle's advice before the run.
///
/// The `Completed`/`Degraded` classification (see
/// [`RunOutcome::classify`](crate::engine::RunOutcome::classify)) is what
/// distinguishes a scheme that survives corruption from one that quiesces
/// having silently lost part of the network.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum AdviceAdversary {
    /// Leave the advice untouched.
    #[default]
    None,
    /// Flip each advice bit independently with probability `prob`.
    FlipBits {
        /// Per-bit flip probability in `[0, 1]`.
        prob: f64,
    },
    /// Truncate each node's advice to the first `⌈keep·len⌉` bits.
    Truncate {
        /// Fraction of each string to keep, in `[0, 1]`.
        keep: f64,
    },
    /// Swap the advice strings of nodes `a` and `b` — each gets advice
    /// computed for the other's position in the network.
    SwapPair {
        /// First node.
        a: NodeId,
        /// Second node.
        b: NodeId,
    },
    /// With probability `prob` per node, replace its advice with `bits`
    /// uniformly random bits.
    Garbage {
        /// Per-node replacement probability in `[0, 1]`.
        prob: f64,
        /// Length of the replacement string.
        bits: usize,
    },
}

impl AdviceAdversary {
    /// `true` iff this adversary never changes anything.
    pub fn is_inert(&self) -> bool {
        match self {
            AdviceAdversary::None => true,
            AdviceAdversary::FlipBits { prob } => *prob <= 0.0,
            AdviceAdversary::Truncate { keep } => *keep >= 1.0,
            AdviceAdversary::SwapPair { a, b } => a == b,
            AdviceAdversary::Garbage { prob, .. } => *prob <= 0.0,
        }
    }

    /// The corrupted table, built in one pass, and the number of mutations
    /// (flipped bits, truncated/replaced strings, or swaps).
    ///
    /// Draws from `rng` in node order: `FlipBits` one `gen_bool` per
    /// advice bit, `Garbage` one per node and then one per bit of each
    /// replacement; `Truncate`, `SwapPair` and `None` draw nothing. The
    /// bits are gathered a word at a time, but the draws are those of the
    /// bit-by-bit model, so the stream after the call is the same too.
    pub fn corrupt(&self, advice: &Advice, rng: &mut StdRng) -> (Advice, u64) {
        let mut mutations = 0;
        let table = match *self {
            AdviceAdversary::None => advice.clone(),
            AdviceAdversary::FlipBits { prob } => {
                let prob = prob.clamp(0.0, 1.0);
                advice
                    .iter()
                    .map(|a| {
                        let mut out = BitString::with_capacity(a.len());
                        let mut reader = a.reader();
                        while !reader.is_empty() {
                            let width = reader.remaining().min(64) as u32;
                            let word = reader.read_uint(width).unwrap_or_default();
                            let flips = draw_word(rng, prob, width);
                            mutations += u64::from(flips.count_ones());
                            out.push_uint(word ^ flips, width);
                        }
                        out
                    })
                    .collect()
            }
            AdviceAdversary::Truncate { keep } => {
                let keep = keep.clamp(0.0, 1.0);
                advice
                    .iter()
                    .map(|a| {
                        let new_len = (keep * a.len() as f64).ceil() as usize;
                        if new_len < a.len() {
                            mutations += 1;
                            let bytes = &a.as_packed_bytes()[..new_len.div_ceil(8)];
                            BitString::from_packed(bytes.to_vec(), new_len)
                        } else {
                            a.clone()
                        }
                    })
                    .collect()
            }
            AdviceAdversary::SwapPair { a, b } => {
                let n = advice.len();
                if a != b && a < n && b < n && advice[a] != advice[b] {
                    mutations = 1;
                    let mut strings: Vec<BitString> = advice.iter().cloned().collect();
                    strings.swap(a, b);
                    strings.into()
                } else {
                    advice.clone()
                }
            }
            AdviceAdversary::Garbage { prob, bits } => {
                let prob = prob.clamp(0.0, 1.0);
                advice
                    .iter()
                    .map(|a| {
                        if !rng.gen_bool(prob) {
                            return a.clone();
                        }
                        mutations += 1;
                        let mut out = BitString::with_capacity(bits);
                        let mut left = bits;
                        while left > 0 {
                            let width = left.min(64);
                            out.push_uint(draw_word(rng, 0.5, width as u32), width as u32);
                            left -= width;
                        }
                        out
                    })
                    .collect()
            }
        };
        (table, mutations)
    }
}

/// A `width`-bit word whose bit `i` is the `i`-th of `width` successive
/// `gen_bool(prob)` draws.
fn draw_word(rng: &mut StdRng, prob: f64, width: u32) -> u64 {
    (0..width).fold(0, |word, i| word | u64::from(rng.gen_bool(prob)) << i)
}

/// A complete, seeded description of the faults injected into one run.
///
/// The default plan is fault-free and costs nothing: the engine checks
/// [`is_inert`](FaultPlan::is_inert) once and takes the exact fault-free
/// code path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision in this run.
    pub seed: u64,
    /// Probability that an accepted send is silently discarded in flight.
    pub drop_prob: f64,
    /// Probability that an accepted (non-dropped) send is delivered twice.
    pub duplicate_prob: f64,
    /// Probability that a delivered copy has one uniformly random payload
    /// bit inverted. Empty payloads cannot be flipped. The transport-level
    /// informed flag is never corrupted — it models the source *message*
    /// piggybacking on the send, not a payload bit.
    pub bit_flip_prob: f64,
    /// Crash-stop schedule: node `v ↦ k` transmits its first `k` accepted
    /// messages, then halts (sends suppressed, deliveries ignored). `k = 0`
    /// means the node is down from the start.
    pub crashes: BTreeMap<NodeId, u64>,
    /// Pre-run advice corruption.
    pub advice: AdviceAdversary,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            bit_flip_prob: 0.0,
            crashes: BTreeMap::new(),
            advice: AdviceAdversary::None,
        }
    }
}

impl FaultPlan {
    /// A plan injecting only message faults, with the given seed.
    pub fn message_faults(seed: u64, drop: f64, duplicate: f64, bit_flip: f64) -> Self {
        FaultPlan {
            seed,
            drop_prob: drop,
            duplicate_prob: duplicate,
            bit_flip_prob: bit_flip,
            ..Default::default()
        }
    }

    /// A plan applying only advice corruption, with the given seed.
    pub fn advice_only(seed: u64, advice: AdviceAdversary) -> Self {
        FaultPlan {
            seed,
            advice,
            ..Default::default()
        }
    }

    /// `true` iff this plan can never inject any fault; the engine then
    /// guarantees metrics and trace identical to a fault-free run.
    pub fn is_inert(&self) -> bool {
        self.transport_is_inert() && self.advice.is_inert()
    }

    /// `true` iff no message is ever dropped, duplicated or bit-flipped
    /// and no node crashes, whatever the advice adversary does. Advice
    /// corruption happens before the first send, so such a run is a
    /// fault-free run on the corrupted table.
    pub fn transport_is_inert(&self) -> bool {
        self.drop_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.bit_flip_prob <= 0.0
            && self.crashes.is_empty()
    }
}

/// Counts of faults actually injected during one run, reported in
/// [`RunMetrics::faults`](crate::metrics::RunMetrics::faults).
///
/// Accounting relationships (asynchronous mode): `messages` counts sends
/// accepted from live nodes, so deliveries (`steps`) equal
/// `messages − dropped + duplicated`. Suppressed sends and deliveries to
/// crashed nodes never enter `messages`/`steps` arithmetic beyond the
/// counters here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Sends discarded in flight.
    pub dropped: u64,
    /// Extra copies delivered due to duplication.
    pub duplicated: u64,
    /// Payload bits inverted in flight.
    pub payload_flips: u64,
    /// Sends a crashed node attempted after halting.
    pub suppressed_sends: u64,
    /// Deliveries addressed to an already-crashed node.
    pub to_crashed: u64,
    /// Mutations the advice adversary performed before the run.
    pub advice_mutations: u64,
    /// Payload clones the duplication fault manufactured. The delivery
    /// hot path *moves* payloads, so this is `0` for every run — faulty
    /// or not — in which no duplication fired; tests use it to assert the
    /// engine's zero-copy contract.
    pub payload_copies: u64,
    /// In-flight slab slots the engine was forced to create outside the
    /// bulk per-batch reserve. Like `payload_copies` this is bookkeeping
    /// for a structural contract, not an injected fault: the delivery
    /// queues hold indices into a recycled slab, so it is `0` on every
    /// run in which no duplication fired — tests use it to assert the
    /// zero-allocation discipline of the hot path.
    pub queue_allocs: u64,
}

impl FaultCounts {
    /// Total number of injected faults of all kinds.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.payload_flips
            + self.suppressed_sends
            + self.to_crashed
            + self.advice_mutations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, SimConfig};
    use crate::metrics::RunMetrics;
    use crate::protocol::FloodOnce;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn advice_fixture() -> Advice {
        [
            BitString::parse("10110010").unwrap(),
            BitString::parse("0101").unwrap(),
            BitString::new(),
            BitString::parse("111000111000").unwrap(),
        ]
        .into_iter()
        .collect()
    }

    /// The adversaries as they were first written: in place, one bit at a
    /// time. The word-at-a-time [`AdviceAdversary::corrupt`] must return
    /// what this returns and leave the RNG where this leaves it.
    fn bit_serial(adversary: AdviceAdversary, advice: &mut [BitString], rng: &mut StdRng) -> u64 {
        match adversary {
            AdviceAdversary::None => 0,
            AdviceAdversary::FlipBits { prob } => {
                let mut flips = 0;
                for a in advice.iter_mut() {
                    let mutated: Vec<bool> = a
                        .iter()
                        .map(|bit| {
                            if rng.gen_bool(prob.clamp(0.0, 1.0)) {
                                flips += 1;
                                !bit
                            } else {
                                bit
                            }
                        })
                        .collect();
                    *a = BitString::from_bits(mutated);
                }
                flips
            }
            AdviceAdversary::Truncate { keep } => {
                let keep = keep.clamp(0.0, 1.0);
                let mut cuts = 0;
                for a in advice.iter_mut() {
                    let new_len = (keep * a.len() as f64).ceil() as usize;
                    if new_len < a.len() {
                        *a = BitString::from_bits(a.iter().take(new_len));
                        cuts += 1;
                    }
                }
                cuts
            }
            AdviceAdversary::SwapPair { a, b } => {
                if a != b && a < advice.len() && b < advice.len() && advice[a] != advice[b] {
                    advice.swap(a, b);
                    1
                } else {
                    0
                }
            }
            AdviceAdversary::Garbage { prob, bits } => {
                let mut replaced = 0;
                for a in advice.iter_mut() {
                    if rng.gen_bool(prob.clamp(0.0, 1.0)) {
                        *a = BitString::from_bits((0..bits).map(|_| rng.gen_bool(0.5)));
                        replaced += 1;
                    }
                }
                replaced
            }
        }
    }

    /// String lengths around the byte and word boundaries.
    const LENGTHS: [usize; 8] = [0, 1, 7, 8, 63, 64, 65, 130];

    #[test]
    fn word_at_a_time_matches_the_bit_serial_model() {
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Every length once, in a seeded order, with random bits.
            let mut lengths = LENGTHS;
            lengths.shuffle(&mut rng);
            let strings: Vec<BitString> = lengths
                .iter()
                .map(|&len| BitString::from_bits((0..len).map(|_| rng.gen_bool(0.5))))
                .collect();
            let n = strings.len();
            let prob = match seed % 5 {
                0 => 0.0,
                1 => 1.0,
                2 => 1.5,
                _ => rng.gen_range(0.0..1.0),
            };
            let adversaries = [
                AdviceAdversary::None,
                AdviceAdversary::FlipBits { prob },
                AdviceAdversary::Truncate { keep: prob },
                AdviceAdversary::SwapPair {
                    a: rng.gen_range(0..n + 2),
                    b: rng.gen_range(0..n + 2),
                },
                AdviceAdversary::Garbage {
                    prob,
                    bits: LENGTHS[rng.gen_range(0..LENGTHS.len())],
                },
            ];
            for adversary in adversaries {
                let stream = rng.next_u64();
                let mut model_rng = StdRng::seed_from_u64(stream);
                let mut model = strings.clone();
                let model_count = bit_serial(adversary, &mut model, &mut model_rng);
                let mut word_rng = StdRng::seed_from_u64(stream);
                let (table, count) =
                    adversary.corrupt(&Advice::from(strings.clone()), &mut word_rng);
                assert_eq!(table, Advice::from(model), "seed {seed}: {adversary:?}");
                assert_eq!(count, model_count, "seed {seed}: {adversary:?}");
                assert_eq!(
                    word_rng.next_u64(),
                    model_rng.next_u64(),
                    "seed {seed}: {adversary:?} left the stream elsewhere"
                );
            }
        }
    }

    #[test]
    fn advice_draws_come_before_the_in_flight_draws() {
        // Garbage draws per node and per replacement bit, then the drop
        // fault draws per send from where the adversary left the stream.
        // On a sparse graph each drop changes who is reached, so the counts
        // follow the stream; a freshly seeded one drops the source's two
        // sends. The figures are the ones the bit-serial adversary gave.
        let g = oraclesize_graph::families::grid(3, 4);
        let advice: Advice = (0..12)
            .map(|v| BitString::from_bits((0..5 * v).map(|i| i % 3 == 0)))
            .collect();
        let config = SimConfig::broadcast().with_faults(FaultPlan {
            seed: 2006,
            drop_prob: 0.2,
            advice: AdviceAdversary::Garbage {
                prob: 0.5,
                bits: 70,
            },
            ..FaultPlan::default()
        });
        let out = run(&g, 0, &advice, &FloodOnce, &config).unwrap();
        assert_eq!(
            out.metrics,
            RunMetrics {
                messages: 21,
                informed_messages: 21,
                rounds: 4,
                steps: 14,
                informed_nodes: 11,
                faults: FaultCounts {
                    dropped: 7,
                    advice_mutations: 9,
                    ..FaultCounts::default()
                },
                ..RunMetrics::default()
            }
        );
    }

    #[test]
    fn default_plan_is_inert() {
        assert!(FaultPlan::default().is_inert());
        assert!(AdviceAdversary::None.is_inert());
        assert!(AdviceAdversary::FlipBits { prob: 0.0 }.is_inert());
        assert!(AdviceAdversary::Truncate { keep: 1.0 }.is_inert());
        assert!(AdviceAdversary::SwapPair { a: 2, b: 2 }.is_inert());
        assert!(AdviceAdversary::Garbage { prob: 0.0, bits: 8 }.is_inert());
    }

    #[test]
    fn non_trivial_plans_are_not_inert() {
        assert!(!FaultPlan::message_faults(1, 0.1, 0.0, 0.0).is_inert());
        assert!(!FaultPlan::message_faults(1, 0.0, 0.1, 0.0).is_inert());
        assert!(!FaultPlan::message_faults(1, 0.0, 0.0, 0.1).is_inert());
        let crash = FaultPlan {
            crashes: [(3, 0)].into(),
            ..Default::default()
        };
        assert!(!crash.is_inert());
        assert!(!crash.transport_is_inert());
        let advice_only = FaultPlan::advice_only(1, AdviceAdversary::SwapPair { a: 0, b: 1 });
        assert!(!advice_only.is_inert());
        assert!(advice_only.transport_is_inert());
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        for adversary in [
            AdviceAdversary::FlipBits { prob: 0.5 },
            AdviceAdversary::Garbage {
                prob: 0.7,
                bits: 16,
            },
        ] {
            let (a, na) = adversary.corrupt(&advice_fixture(), &mut StdRng::seed_from_u64(42));
            let (b, nb) = adversary.corrupt(&advice_fixture(), &mut StdRng::seed_from_u64(42));
            assert_eq!(a, b);
            assert_eq!(na, nb);
            let (c, _) = adversary.corrupt(&advice_fixture(), &mut StdRng::seed_from_u64(43));
            assert_ne!(a, c, "{adversary:?}: different seeds should differ");
        }
    }

    #[test]
    fn flip_all_inverts_every_bit() {
        let original = advice_fixture();
        let (advice, flips) = AdviceAdversary::FlipBits { prob: 1.0 }
            .corrupt(&original, &mut StdRng::seed_from_u64(0));
        let total_bits: usize = original.iter().map(|a| a.len()).sum();
        assert_eq!(flips as usize, total_bits);
        for (a, o) in advice.iter().zip(&original) {
            assert_eq!(a.len(), o.len());
            for (x, y) in a.iter().zip(o.iter()) {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn truncate_halves_lengths() {
        let (advice, cuts) = AdviceAdversary::Truncate { keep: 0.5 }
            .corrupt(&advice_fixture(), &mut StdRng::seed_from_u64(0));
        assert_eq!(cuts, 3); // the empty string cannot shrink
        assert_eq!(advice[0].len(), 4);
        assert_eq!(advice[1].len(), 2);
        assert_eq!(advice[2].len(), 0);
        assert_eq!(advice[3].len(), 6);
        // Kept prefix is unchanged.
        assert_eq!(advice[0], BitString::parse("1011").unwrap());
    }

    #[test]
    fn swap_pair_exchanges_and_reports_once() {
        let original = advice_fixture();
        let adversary = AdviceAdversary::SwapPair { a: 0, b: 3 };
        let (advice, n) = adversary.corrupt(&original, &mut StdRng::seed_from_u64(0));
        assert_eq!(n, 1);
        assert_eq!(advice[0], original[3]);
        assert_eq!(advice[3], original[0]);
        // Out-of-range nodes are ignored rather than panicking.
        let (advice, n) = AdviceAdversary::SwapPair { a: 0, b: 99 }
            .corrupt(&original, &mut StdRng::seed_from_u64(0));
        assert_eq!(n, 0);
        assert_eq!(advice, original);
    }

    #[test]
    fn garbage_at_rate_one_replaces_everything() {
        let (advice, n) = AdviceAdversary::Garbage {
            prob: 1.0,
            bits: 24,
        }
        .corrupt(&advice_fixture(), &mut StdRng::seed_from_u64(9));
        assert_eq!(n, 4);
        assert!(advice.iter().all(|a| a.len() == 24));
    }

    #[test]
    fn fault_counts_total_sums_all_kinds() {
        let c = FaultCounts {
            dropped: 1,
            duplicated: 2,
            payload_flips: 3,
            suppressed_sends: 4,
            to_crashed: 5,
            advice_mutations: 6,
            payload_copies: 7,
            queue_allocs: 8,
        };
        // payload_copies and queue_allocs are bookkeeping for the
        // zero-copy / zero-allocation contracts, not fault kinds, so they
        // stay out of total().
        assert_eq!(c.total(), 21);
        assert_eq!(FaultCounts::default().total(), 0);
    }
}
