//! Property-based tests for the paper's oracles and schemes: the theorem
//! guarantees hold on *random* networks, sources, and schedulers.

use oraclesize_core::broadcast::{scheme_b_message_bound, LightTreeOracle, SchemeB};
use oraclesize_core::execute;
use oraclesize_core::oracle::TruncatedOracle;
use oraclesize_core::wakeup::{SpanningTreeOracle, TreeWakeup};
use oraclesize_graph::families::{self, Family};
use oraclesize_sim::{advice_size, Oracle, SchedulerKind, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_family() -> impl Strategy<Value = Family> {
    proptest::sample::select(Family::ALL.to_vec())
}

/// A delivery model: synchronous rounds (`None`) half the time, else a
/// seeded random scheduler.
fn arb_delivery() -> impl Strategy<Value = Option<SchedulerKind>> {
    (any::<bool>(), any::<u64>())
        .prop_map(|(synchronous, seed)| (!synchronous).then_some(SchedulerKind::Random { seed }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn theorem_2_1_holds_on_random_instances(
        fam in arb_family(),
        n in 4usize..64,
        seed in any::<u64>(),
        delivery in arb_delivery(),
        anonymous in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fam.build(n, &mut rng);
        let nodes = g.num_nodes();
        let source = seed as usize % nodes;
        let mut cfg = SimConfig::wakeup()
            .with_anonymous(anonymous)
            .with_max_message_bits(0);
        cfg.scheduler = delivery;
        let run = execute(&g, source, &SpanningTreeOracle::default(), &TreeWakeup, &cfg).unwrap();
        prop_assert!(run.outcome.all_informed());
        prop_assert_eq!(run.outcome.metrics.messages, (nodes - 1) as u64);
    }

    #[test]
    fn theorem_3_1_holds_on_random_instances(
        fam in arb_family(),
        n in 4usize..64,
        seed in any::<u64>(),
        delivery in arb_delivery(),
        anonymous in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fam.build(n, &mut rng);
        let nodes = g.num_nodes();
        let source = seed as usize % nodes;
        let mut cfg = SimConfig::broadcast()
            .with_anonymous(anonymous)
            .with_max_message_bits(0);
        cfg.scheduler = delivery;
        let run = execute(&g, source, &LightTreeOracle, &SchemeB, &cfg).unwrap();
        prop_assert!(run.outcome.all_informed());
        prop_assert!(run.oracle_bits <= 8 * nodes as u64,
            "{} bits > 8n on {} nodes", run.oracle_bits, nodes);
        prop_assert!(run.outcome.metrics.messages <= scheme_b_message_bound(nodes));
    }

    #[test]
    fn truncated_advice_never_panics_schemes(
        fam in arb_family(),
        n in 4usize..40,
        seed in any::<u64>(),
        keep_bits in 0u64..2000,
    ) {
        // Bit-level truncation produces undecodable advice; the schemes
        // must degrade gracefully (stay legal, never panic), though they
        // may fail to complete.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fam.build(n, &mut rng);
        let wakeup = TruncatedOracle::new(SpanningTreeOracle::default(), keep_bits);
        let w = execute(&g, 0, &wakeup, &TreeWakeup, &SimConfig::wakeup()).unwrap();
        prop_assert!(w.outcome.metrics.messages <= g.num_nodes() as u64);

        let broadcast = TruncatedOracle::new(LightTreeOracle, keep_bits);
        let b = execute(&g, 0, &broadcast, &SchemeB, &SimConfig::default()).unwrap();
        prop_assert!(b.outcome.metrics.messages <= scheme_b_message_bound(g.num_nodes()));
    }

    #[test]
    fn oracle_sizes_ordered_broadcast_below_wakeup_for_large_n(
        seed in any::<u64>(),
        n in 128usize..256,
    ) {
        // For n ≥ 128 the Θ(n log n) wakeup advice dominates the ≤ 8n
        // broadcast advice on dense graphs.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = families::random_connected(n, 0.3, &mut rng);
        let w = advice_size(&SpanningTreeOracle::default().advise(&g, 0));
        let b = advice_size(&LightTreeOracle.advise(&g, 0));
        prop_assert!(b <= 8 * n as u64);
        prop_assert!(w > b, "wakeup {w} not above broadcast {b} at n={n}");
    }

    #[test]
    fn advice_is_decodable_by_the_matching_scheme(
        fam in arb_family(),
        n in 4usize..48,
        seed in any::<u64>(),
    ) {
        use oraclesize_bits::lists::{decode_port_list, decode_weight_list};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fam.build(n, &mut rng);
        for a in &SpanningTreeOracle::default().advise(&g, 0) {
            prop_assert!(decode_port_list(a).is_some());
        }
        for a in &LightTreeOracle.advise(&g, 0) {
            prop_assert!(decode_weight_list(a).is_some());
        }
    }
}
