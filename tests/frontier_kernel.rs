//! Integration: the engine's forward-once frontier kernel.
//!
//! Synchronous, fault-free, untraced runs of the forward-once schemes —
//! flooding, tree-wakeup, fallback wakeup and robust tree-wakeup — skip
//! node creation and take the frontier kernel. Its outcome must equal the
//! per-message engine's field for field — on every graph family and the
//! subdivided clique, with correct, misrooted, garbage and empty advice
//! (and checksummed advice for the robust scheme, so its rule takes both
//! the port-list and the flooding branch), in both tasks, with and
//! without identities, and when the step budget runs out — and every
//! other run must keep creating nodes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use oraclesize::bits::lists::encode_port_list;
use oraclesize::bits::BitString;
use oraclesize::core::robust::{RobustTreeWakeup, RobustWakeupOracle};
use oraclesize::graph::families::{self, Family};
use oraclesize::graph::spanning::TreeAlgorithm;
use oraclesize::graph::{NodeId, PortGraph};
use oraclesize::lowerbound::truncation::FallbackWakeup;
use oraclesize::prelude::*;
use oraclesize::sim::engine::{run, run_with_sink};
use oraclesize::sim::protocol::{ForwardOnce, NodeBehavior, NodeView, Protocol};
use oraclesize::sim::testkit::{no_advice, PerMessage};
use oraclesize::sim::trace::{InvariantSink, NullSink, RingSink, VecSink};
use oraclesize::sim::{AdviceAdversary, FaultPlan, RunOutcome, TraceSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The advice a case hands every node.
#[derive(Debug, Clone, Copy)]
enum AdviceKind {
    /// Theorem 2.1 advice for a tree rooted at the source.
    Tree(TreeAlgorithm),
    /// Theorem 2.1 advice for a BFS tree rooted at another node.
    WrongSource,
    /// Well-formed port lists naming random ports below `n`: repeats, and
    /// ports beyond a node's degree.
    RandomPorts,
    /// Random bit strings, mostly undecodable.
    Garbage,
    /// The empty oracle.
    Empty,
}

const ADVICE: [AdviceKind; 7] = [
    AdviceKind::Tree(TreeAlgorithm::Bfs),
    AdviceKind::Tree(TreeAlgorithm::Dfs),
    AdviceKind::Tree(TreeAlgorithm::Random),
    AdviceKind::WrongSource,
    AdviceKind::RandomPorts,
    AdviceKind::Garbage,
    AdviceKind::Empty,
];

fn advice(kind: AdviceKind, g: &PortGraph, source: NodeId, rng: &mut StdRng) -> Advice {
    let n = g.num_nodes();
    let tree = |algorithm, root, seed| SpanningTreeOracle { algorithm, seed }.advise(g, root);
    match kind {
        AdviceKind::Tree(algorithm) => tree(algorithm, source, rng.next_u64()),
        AdviceKind::WrongSource => tree(TreeAlgorithm::Bfs, (source + 1) % n, 0),
        AdviceKind::RandomPorts => (0..n)
            .map(|_| {
                let ports: Vec<u64> = (0..rng.gen_range(0..4))
                    .map(|_| rng.gen_range(0..n as u64))
                    .collect();
                encode_port_list(&ports, n as u64)
            })
            .collect(),
        AdviceKind::Garbage => (0..n)
            .map(|_| BitString::from_bits((0..rng.gen_range(0..24)).map(|_| rng.gen_bool(0.5))))
            .collect(),
        AdviceKind::Empty => no_advice(n),
    }
}

/// The delivery budget of a case, relative to the run's total deliveries.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// The default budget, far above the total.
    Ample,
    /// Exactly the total: the run completes.
    Exact,
    /// One delivery short: the run aborts.
    OneShort,
    /// A random fraction of the total.
    Cut,
}

const BUDGETS: [Budget; 4] = [Budget::Ample, Budget::Exact, Budget::OneShort, Budget::Cut];

/// Every field of an outcome, in a comparable form.
type Fields<'a> = (RunMetrics, &'a [bool], &'a [bool], &'a [Option<BitString>]);

fn fields(out: &RunOutcome) -> Fields<'_> {
    (out.metrics, &out.informed, &out.crashed, &out.outputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_outcome_equals_per_message_outcome(
        n in 4usize..40,
        seed in any::<u64>(),
        advice_kind in proptest::sample::select(ADVICE.to_vec()),
        anonymous in any::<bool>(),
        budget in proptest::sample::select(BUDGETS.to_vec()),
        cut in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // `None` stands for the SCALE experiment's subdivided clique.
        for fam in Family::ALL.map(Some).into_iter().chain([None]) {
            let (name, g) = match fam {
                Some(fam) => (fam.name(), fam.build(n, &mut rng)),
                None => ("subdivided-clique", families::subdivided_clique(2 + n % 8)),
            };
            let nodes = g.num_nodes();
            let source = rng.gen_range(0..nodes);
            let advice = advice(advice_kind, &g, source, &mut rng);
            let checksummed = RobustWakeupOracle::default().advise(&g, source);
            let runs: [(&dyn Protocol, &Advice); 5] = [
                (&FloodOnce, &advice),
                (&TreeWakeup, &advice),
                (&FallbackWakeup, &advice),
                (&RobustTreeWakeup, &advice),
                (&RobustTreeWakeup, &checksummed),
            ];
            for (scheme, advice) in runs {
                for base in [SimConfig::broadcast(), SimConfig::wakeup()] {
                    let mut config = base.with_anonymous(anonymous);
                    let per_message = PerMessage(scheme);
                    let total = run(&g, source, advice, &per_message, &config)
                        .map_or(0, |out| out.metrics.steps);
                    config = match budget {
                        Budget::Ample => config,
                        Budget::Exact => config.with_max_steps(total),
                        Budget::OneShort => config.with_max_steps(total.saturating_sub(1)),
                        Budget::Cut => config.with_max_steps((cut * total as f64) as u64),
                    };
                    let kernel = run(&g, source, advice, scheme, &config);
                    let reference = run(&g, source, advice, &per_message, &config);
                    prop_assert_eq!(
                        kernel.as_ref().map(fields),
                        reference.as_ref().map(fields),
                        "{} {} {:?} on {}", scheme.name(), nodes, config.mode, name
                    );

                    let mut checker = InvariantSink::new(nodes, source, config.mode);
                    let checked =
                        run_with_sink(&g, source, advice, &per_message, &config, &mut checker);
                    let strip = |out: &RunOutcome| {
                        (out.metrics, out.informed.clone(), out.crashed.clone(), out.outputs.clone())
                    };
                    prop_assert_eq!(
                        checked.as_ref().map(strip),
                        reference.as_ref().map(strip),
                        "{} under the invariant checker on {}", scheme.name(), name
                    );
                    let verdict = checker.verdict(checked.is_ok());
                    prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
                }
            }
        }
    }
}

/// A wrapper that keeps the inner protocol's forward-once rule but panics
/// as soon as the engine instantiates a node.
struct CreatePanics<P>(P);

impl<P: Protocol> Protocol for CreatePanics<P> {
    fn create(&self, _view: NodeView) -> Box<dyn NodeBehavior> {
        panic!("create reached");
    }

    fn forward_once(&self) -> Option<ForwardOnce> {
        self.0.forward_once()
    }
}

/// Whether a run of every panicking forward-once scheme reaches `create`;
/// a run that does not must complete.
fn reaches_create(config: &SimConfig, sink: &mut dyn TraceSink) -> bool {
    let g = oraclesize::graph::families::complete_rotational(6);
    let advice = SpanningTreeOracle::default().advise(&g, 0);
    let schemes: [&dyn Protocol; 4] = [
        &CreatePanics(FloodOnce),
        &CreatePanics(TreeWakeup),
        &CreatePanics(FallbackWakeup),
        &CreatePanics(RobustTreeWakeup),
    ];
    let reached: Vec<bool> = schemes
        .into_iter()
        .map(|scheme| {
            match catch_unwind(AssertUnwindSafe(|| {
                run_with_sink(&g, 0, &advice, scheme, config, &mut *sink)
            })) {
                Err(_) => true,
                Ok(run) => {
                    assert!(run.unwrap().all_informed(), "{}", scheme.name());
                    false
                }
            }
        })
        .collect();
    assert!(
        reached.iter().all(|&r| r == reached[0]),
        "the schemes disagree: {reached:?}"
    );
    reached[0]
}

#[test]
fn sync_inert_untraced_runs_never_create_nodes() {
    for config in [
        SimConfig::broadcast(),
        SimConfig::wakeup().with_anonymous(true),
        SimConfig::broadcast().with_max_message_bits(0),
        SimConfig::broadcast().with_faults(FaultPlan {
            seed: 99,
            ..FaultPlan::default()
        }),
    ] {
        assert!(!reaches_create(&config, &mut NullSink), "{config:?}");
    }
}

#[test]
fn every_other_run_creates_nodes() {
    let crash_only = FaultPlan {
        crashes: [(3, 1)].into(),
        ..FaultPlan::default()
    };
    let advice_only = FaultPlan {
        advice: AdviceAdversary::Truncate { keep: 0.5 },
        ..FaultPlan::default()
    };
    for config in [
        SimConfig::broadcast().with_scheduler(SchedulerKind::Fifo),
        SimConfig::wakeup().with_synchronous(false),
        SimConfig::broadcast().with_faults(crash_only),
        SimConfig::wakeup().with_faults(advice_only),
    ] {
        assert!(reaches_create(&config, &mut NullSink), "{config:?}");
    }
    assert!(reaches_create(&SimConfig::broadcast(), &mut VecSink::new()));
    assert!(reaches_create(
        &SimConfig::broadcast(),
        &mut RingSink::new(4)
    ));
    assert!(reaches_create(
        &SimConfig::broadcast(),
        &mut InvariantSink::new(6, 0, TaskMode::Broadcast)
    ));
}
