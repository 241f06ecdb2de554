//! Property-based tests for the execution engine.

use oraclesize_bits::BitString;
use oraclesize_graph::families::{self, Family};
use oraclesize_sim::engine::{run, run_with_sink, RunOutcome, SimConfig, SimError};
use oraclesize_sim::protocol::{FloodOnce, Message, NodeBehavior, NodeView, Outgoing, Protocol};
use oraclesize_sim::testkit::PerMessage;
use oraclesize_sim::trace::{Delivery, InvariantSink, TraceEvent, VecSink};
use oraclesize_sim::{advice_size, Advice, FaultPlan, SchedulerKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_family() -> impl Strategy<Value = Family> {
    proptest::sample::select(Family::ALL.to_vec())
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    (any::<u64>()).prop_flat_map(|seed| {
        proptest::sample::select(vec![
            SchedulerKind::Fifo,
            SchedulerKind::Lifo,
            SchedulerKind::Random { seed },
            SchedulerKind::Starve,
        ])
    })
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0.0f64..0.9, 0.0f64..0.9, 0.0f64..0.9)
        .prop_map(|(seed, drop, dup, flip)| FaultPlan::message_faults(seed, drop, dup, flip))
}

/// Up to 63 advice strings, at least half of them empty: the shape of the
/// paper's tree oracles, which advise only inner nodes. Empty strings
/// come with and without spare capacity.
fn arb_advice() -> impl Strategy<Value = Vec<BitString>> {
    (0usize..64, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nonempty = n / 2;
        (0..n)
            .map(|_| {
                if nonempty > 0 && rng.gen_bool(0.5) {
                    nonempty -= 1;
                    let len = rng.gen_range(1..40);
                    BitString::from_bits((0..len).map(|_| rng.gen_bool(0.5)))
                } else {
                    BitString::with_capacity(rng.gen_range(0..16))
                }
            })
            .collect()
    })
}

/// Runs `protocol` on the per-message path under an [`InvariantSink`],
/// failing on the first broken trace invariant.
fn checked_run(
    g: &oraclesize_graph::PortGraph,
    source: usize,
    protocol: &dyn Protocol,
    cfg: &SimConfig,
) -> Result<RunOutcome, SimError> {
    let mut sink = InvariantSink::new(g.num_nodes(), source, cfg.mode);
    let advice = oraclesize_sim::testkit::no_advice(g.num_nodes());
    let out = run_with_sink(g, source, &advice, protocol, cfg, &mut sink);
    if let Err(v) = sink.verdict(out.is_ok()) {
        panic!("{v}");
    }
    out
}

/// [`run_with_sink`] into a [`VecSink`]: the outcome and every event.
fn traced(
    g: &oraclesize_graph::PortGraph,
    source: usize,
    cfg: &SimConfig,
) -> (RunOutcome, Vec<TraceEvent>) {
    let mut sink = VecSink::new();
    let advice = oraclesize_sim::testkit::no_advice(g.num_nodes());
    let out = run_with_sink(g, source, &advice, &FloodOnce, cfg, &mut sink).unwrap();
    (out, sink.into_events())
}

fn deliveries(trace: &[TraceEvent]) -> impl Iterator<Item = &Delivery> {
    trace.iter().filter_map(TraceEvent::as_delivery)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flooding_always_completes_and_counts_match(
        fam in arb_family(),
        n in 4usize..48,
        seed in any::<u64>(),
        sched in arb_scheduler(),
        synchronous in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fam.build(n, &mut rng);
        let nodes = g.num_nodes();
        let source = seed as usize % nodes;
        let cfg = SimConfig::broadcast()
            .with_scheduler(sched)
            .with_synchronous(synchronous);
        let (out, trace) = traced(&g, source, &cfg);
        prop_assert!(out.all_informed());
        // Deterministic count: deg(source) + Σ_{v≠source} (deg(v) − 1).
        let expected: usize = g.degree(source)
            + (0..nodes).filter(|&v| v != source).map(|v| g.degree(v) - 1).sum::<usize>();
        prop_assert_eq!(out.metrics.messages as usize, expected);
        prop_assert_eq!(deliveries(&trace).count() as u64, out.metrics.steps);
        let checked = checked_run(&g, source, &FloodOnce, &cfg).unwrap();
        prop_assert_eq!(checked.metrics, out.metrics);
    }

    #[test]
    fn informedness_is_monotone_along_trace(
        n in 4usize..32,
        seed in any::<u64>(),
        sched in arb_scheduler(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = families::random_connected(n, 0.3, &mut rng);
        let cfg = SimConfig::broadcast().with_scheduler(sched);
        let (_, trace) = traced(&g, 0, &cfg);
        // Replay the trace: a node can only send a source-carrying message
        // after the source or after receiving one.
        let mut informed = vec![false; n];
        informed[0] = true;
        for d in deliveries(&trace) {
            if d.carries_source {
                prop_assert!(informed[d.from], "uninformed {} sent M", d.from);
                informed[d.to] = true;
            }
        }
        prop_assert!(informed.iter().all(|&x| x));
    }

    #[test]
    fn engine_is_deterministic(
        n in 4usize..32,
        seed in any::<u64>(),
        rng_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let g = families::random_connected(n, 0.25, &mut rng);
        let cfg = SimConfig::broadcast().with_scheduler(SchedulerKind::Random { seed });
        let (a, a_trace) = traced(&g, 0, &cfg);
        let (b, b_trace) = traced(&g, 0, &cfg);
        prop_assert_eq!(a_trace, b_trace);
        prop_assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn informed_messages_never_exceed_messages(
        fam in arb_family(),
        n in 4usize..40,
        seed in any::<u64>(),
        sched in arb_scheduler(),
        plan in arb_fault_plan(),
        synchronous in any::<bool>(),
    ) {
        // The documented RunMetrics invariants, under every scheduler and
        // arbitrary message-fault rates.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fam.build(n, &mut rng);
        let nodes = g.num_nodes();
        let cfg = SimConfig::broadcast()
            .with_scheduler(sched)
            .with_synchronous(synchronous)
            .with_faults(plan);
        let advice = oraclesize_sim::testkit::no_advice(nodes);
        let source = seed as usize % nodes;
        let checked = checked_run(&g, source, &FloodOnce, &cfg).unwrap();
        // Both engine paths: an all-zero plan is inert, so a synchronous
        // run of bare `FloodOnce` may take the frontier kernel.
        for flood in [&FloodOnce as &dyn Protocol, &PerMessage(&FloodOnce)] {
            let out = run(&g, source, &advice, flood, &cfg).unwrap();
            let m = &out.metrics;
            prop_assert!(m.informed_messages <= m.messages,
                "informed {} > messages {}", m.informed_messages, m.messages);
            prop_assert_eq!(m.steps, m.messages - m.faults.dropped + m.faults.duplicated);
            prop_assert_eq!(checked.metrics, out.metrics);
        }
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed(
        n in 4usize..32,
        seed in any::<u64>(),
        plan in arb_fault_plan(),
        sched in arb_scheduler(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = families::random_connected(n, 0.3, &mut rng);
        let mut plan = plan;
        plan.crashes.insert(seed as usize % n, seed % 3);
        let cfg = SimConfig::broadcast()
            .with_scheduler(sched)
            .with_faults(plan);
        let (a, a_trace) = traced(&g, 0, &cfg);
        let (b, b_trace) = traced(&g, 0, &cfg);
        prop_assert_eq!(a_trace, b_trace);
        prop_assert_eq!(a.metrics, b.metrics);
        prop_assert_eq!(a.informed, b.informed);
        prop_assert_eq!(a.crashed, b.crashed);
        let checked = checked_run(&g, 0, &FloodOnce, &cfg).unwrap();
        prop_assert_eq!(checked.metrics, a.metrics);
    }

    #[test]
    fn advice_reaches_the_right_node(n in 2usize..24, seed in any::<u64>()) {
        // A probe protocol that asserts its advice equals its label.
        struct Probe;
        struct ProbeState;
        impl NodeBehavior for ProbeState {
            fn on_start(&mut self) -> Vec<Outgoing> { Vec::new() }
            fn on_receive(&mut self, _p: usize, _m: Message) -> Vec<Outgoing> { Vec::new() }
        }
        impl Protocol for Probe {
            fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
                let mut expected = BitString::new();
                expected.push_uint(view.id.expect("labeled run"), 16);
                assert_eq!(view.advice, expected, "advice misrouted");
                Box::new(ProbeState)
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let g = families::random_connected(n, 0.5, &mut rng);
        let advice: Advice = (0..n)
            .map(|v| {
                let mut s = BitString::new();
                s.push_uint(g.label(v), 16);
                s
            })
            .collect();
        run(&g, 0, &advice, &Probe, &SimConfig::default()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn advice_table_holds_exactly_its_strings(v in arb_advice()) {
        let from = Advice::from(v.clone());
        let collected: Advice = v.clone().into_iter().collect();
        prop_assert_eq!(&from, &collected);
        for advice in [&from, &collected] {
            prop_assert_eq!(advice.len(), v.len());
            prop_assert_eq!(advice.is_empty(), v.is_empty());
            for (i, s) in v.iter().enumerate() {
                prop_assert_eq!(&advice[i], s);
            }
            prop_assert!(advice.iter().eq(&v));
            prop_assert_eq!(advice_size(advice), advice_size(&v));
        }
        let n = v.len();
        prop_assert_eq!(Advice::empty(n), Advice::from(vec![BitString::new(); n]));
    }
}
