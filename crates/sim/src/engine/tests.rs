use super::*;
use crate::faults::FaultPlan;
use crate::oracle::Advice;
use crate::protocol::{FloodOnce, Message, NodeBehavior, NodeView, Outgoing, Protocol, Silent};
use crate::scheduler::SchedulerKind;
use crate::testkit::{no_advice, PerMessage};
use crate::trace::{Delivery, DropFault, NullSink, Phase, RingSink, TraceEvent, VecSink};
use oraclesize_bits::BitString;
use oraclesize_graph::{families, Port, PortGraph};

/// Flooding on both engine paths: `FloodOnce` itself takes the frontier
/// kernel wherever a run qualifies; behind [`PerMessage`] it always takes
/// the per-message path.
const FLOODS: [&dyn Protocol; 2] = [&FloodOnce, &PerMessage(&FloodOnce)];

/// [`run_with_sink`] into a [`VecSink`]: the outcome and every event.
fn traced(
    g: &PortGraph,
    source: usize,
    advice: &Advice,
    protocol: &dyn Protocol,
    config: &SimConfig,
) -> (RunOutcome, Vec<TraceEvent>) {
    let mut sink = VecSink::new();
    let out = run_with_sink(g, source, advice, protocol, config, &mut sink).unwrap();
    (out, sink.into_events())
}

fn deliveries(trace: &[TraceEvent]) -> impl Iterator<Item = &Delivery> {
    trace.iter().filter_map(TraceEvent::as_delivery)
}

#[test]
fn flooding_cycle_informs_all() {
    let g = families::cycle(5);
    for flood in FLOODS {
        let out = run(&g, 0, &no_advice(5), flood, &SimConfig::default()).unwrap();
        assert!(out.all_informed());
        // Source sends 2, each of the 4 others forwards 1.
        assert_eq!(out.metrics.messages, 6);
        assert_eq!(out.metrics.informed_nodes, 5);
        assert!(out.metrics.rounds >= 2);
    }
}

#[test]
fn flooding_complete_costs_quadratic() {
    let n = 10;
    let g = families::complete_rotational(n);
    for flood in FLOODS {
        let out = run(&g, 0, &no_advice(n), flood, &SimConfig::default()).unwrap();
        assert!(out.all_informed());
        // Source: n−1, every other node: n−2.
        assert_eq!(out.metrics.messages as usize, (n - 1) + (n - 1) * (n - 2));
    }
}

#[test]
fn silent_run_quiesces_with_single_informed() {
    let g = families::path(4);
    let out = run(&g, 2, &no_advice(4), &Silent, &SimConfig::default()).unwrap();
    assert!(!out.all_informed());
    assert_eq!(out.informed_count(), 1);
    assert_eq!(out.metrics.messages, 0);
    assert_eq!(out.metrics.rounds, 0);
}

#[test]
fn async_schedulers_all_complete_flooding() {
    let g = families::complete_rotational(8);
    for kind in SchedulerKind::sweep(7) {
        let cfg = SimConfig::broadcast().with_scheduler(kind);
        let out = run(&g, 3, &no_advice(8), &FloodOnce, &cfg).unwrap();
        assert!(out.all_informed(), "{}", kind.name());
        assert_eq!(out.metrics.steps, out.metrics.messages);
    }
}

#[test]
fn random_scheduler_is_deterministic_per_seed() {
    let g = families::complete_rotational(9);
    let cfg = SimConfig::broadcast().with_scheduler(SchedulerKind::Random { seed: 5 });
    let (a, a_trace) = traced(&g, 0, &no_advice(9), &FloodOnce, &cfg);
    let (b, b_trace) = traced(&g, 0, &no_advice(9), &FloodOnce, &cfg);
    assert_eq!(a_trace, b_trace);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn wakeup_mode_rejects_spontaneous_transmissions() {
    // FloodOnce is a legal wakeup protocol (only the source starts),
    // so craft a protocol where a non-source node speaks at start.
    struct Chatty;
    struct ChattyState {
        degree: usize,
    }
    impl NodeBehavior for ChattyState {
        fn on_start(&mut self) -> Vec<Outgoing> {
            (0..self.degree.min(1))
                .map(|p| Outgoing::new(p, Message::empty()))
                .collect()
        }
        fn on_receive(&mut self, _p: Port, _m: Message) -> Vec<Outgoing> {
            Vec::new()
        }
    }
    impl Protocol for Chatty {
        fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
            Box::new(ChattyState {
                degree: view.degree,
            })
        }
    }
    let g = families::path(3);
    let err = run(&g, 0, &no_advice(3), &Chatty, &SimConfig::wakeup()).unwrap_err();
    assert!(matches!(err, SimError::WakeupViolation { .. }));
    // The same protocol is fine in broadcast mode.
    run(&g, 0, &no_advice(3), &Chatty, &SimConfig::default()).unwrap();
}

#[test]
fn flood_is_a_legal_wakeup_scheme() {
    let g = families::cycle(6);
    for flood in FLOODS {
        let out = run(&g, 0, &no_advice(6), flood, &SimConfig::wakeup()).unwrap();
        assert!(out.all_informed());
    }
}

#[test]
fn message_size_limit_enforced() {
    struct BigTalker;
    struct BigState {
        is_source: bool,
    }
    impl NodeBehavior for BigState {
        fn on_start(&mut self) -> Vec<Outgoing> {
            if self.is_source {
                let payload = BitString::from_bits((0..100).map(|i| i % 2 == 0));
                vec![Outgoing::new(0, Message::new(payload))]
            } else {
                Vec::new()
            }
        }
        fn on_receive(&mut self, _p: Port, _m: Message) -> Vec<Outgoing> {
            Vec::new()
        }
    }
    impl Protocol for BigTalker {
        fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
            Box::new(BigState {
                is_source: view.is_source,
            })
        }
    }
    let g = families::path(2);
    let cfg = SimConfig::broadcast().with_max_message_bits(64);
    let err = run(&g, 0, &no_advice(2), &BigTalker, &cfg).unwrap_err();
    assert_eq!(
        err,
        SimError::MessageTooLarge {
            node: 0,
            bits: 100,
            limit: 64
        }
    );
}

#[test]
fn step_limit_stops_ping_pong() {
    struct PingPong;
    struct PingState {
        is_source: bool,
    }
    impl NodeBehavior for PingState {
        fn on_start(&mut self) -> Vec<Outgoing> {
            if self.is_source {
                vec![Outgoing::new(0, Message::empty())]
            } else {
                Vec::new()
            }
        }
        fn on_receive(&mut self, port: Port, _m: Message) -> Vec<Outgoing> {
            vec![Outgoing::new(port, Message::empty())]
        }
    }
    impl Protocol for PingPong {
        fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
            Box::new(PingState {
                is_source: view.is_source,
            })
        }
    }
    let g = families::path(2);
    let cfg = SimConfig::broadcast().with_max_steps(50);
    let err = run(&g, 0, &no_advice(2), &PingPong, &cfg).unwrap_err();
    assert_eq!(err, SimError::StepLimit { limit: 50 });
}

#[test]
fn port_out_of_range_detected() {
    struct Wild;
    struct WildState {
        is_source: bool,
    }
    impl NodeBehavior for WildState {
        fn on_start(&mut self) -> Vec<Outgoing> {
            if self.is_source {
                vec![Outgoing::new(99, Message::empty())]
            } else {
                Vec::new()
            }
        }
        fn on_receive(&mut self, _p: Port, _m: Message) -> Vec<Outgoing> {
            Vec::new()
        }
    }
    impl Protocol for Wild {
        fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
            Box::new(WildState {
                is_source: view.is_source,
            })
        }
    }
    let g = families::path(3);
    let err = run(&g, 0, &no_advice(3), &Wild, &SimConfig::default()).unwrap_err();
    assert!(matches!(
        err,
        SimError::PortOutOfRange {
            node: 0,
            port: 99,
            ..
        }
    ));
}

#[test]
fn advice_count_mismatch_rejected() {
    let g = families::path(3);
    let err = run(&g, 0, &no_advice(2), &Silent, &SimConfig::default()).unwrap_err();
    assert_eq!(
        err,
        SimError::AdviceCount {
            expected: 3,
            got: 2
        }
    );
}

#[test]
fn anonymous_mode_hides_ids() {
    struct IdProbe;
    struct ProbeState;
    impl NodeBehavior for ProbeState {
        fn on_start(&mut self) -> Vec<Outgoing> {
            Vec::new()
        }
        fn on_receive(&mut self, _p: Port, _m: Message) -> Vec<Outgoing> {
            Vec::new()
        }
    }
    impl Protocol for IdProbe {
        fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
            assert!(view.id.is_none(), "identity leaked in anonymous mode");
            Box::new(ProbeState)
        }
    }
    let g = families::path(3);
    let cfg = SimConfig::broadcast().with_anonymous(true);
    run(&g, 0, &no_advice(3), &IdProbe, &cfg).unwrap();
}

#[test]
fn trace_capture_matches_metrics() {
    let g = families::cycle(4);
    let (out, trace) = traced(&g, 0, &no_advice(4), &FloodOnce, &SimConfig::broadcast());
    assert_eq!(deliveries(&trace).count() as u64, out.metrics.steps);
    assert_eq!(out.metrics.steps, out.metrics.messages);
    // Every traced delivery of an informed message has the flag.
    assert!(deliveries(&trace).any(|d| d.carries_source));
    // Fault-free: every enqueue has a matching delivery, nothing dropped.
    let count = |kind| trace.iter().filter(|e| e.kind() == kind).count();
    assert_eq!(count("enqueue"), count("deliver"));
    assert_eq!(count("drop"), 0);
}

#[test]
fn trace_taxonomy_covers_the_run() {
    let g = families::cycle(4);
    let (out, trace) = traced(&g, 0, &no_advice(4), &FloodOnce, &SimConfig::broadcast());
    // The spontaneous phase opens the trace.
    assert_eq!(
        trace.first(),
        Some(&TraceEvent::PhaseStart {
            phase: Phase::Spontaneous
        })
    );
    // Every non-source node wakes exactly once.
    assert_eq!(trace.iter().filter(|e| e.kind() == "wake").count(), 3);
    // One rollup per finished round plus the final one at quiescence,
    // each with a monotone informed count ending at n.
    let rollups: Vec<_> = trace.iter().filter_map(|e| e.as_rollup()).collect();
    assert_eq!(rollups.len() as u64, out.metrics.rounds + 1);
    assert!(rollups.windows(2).all(|w| w[0].informed <= w[1].informed));
    let last = rollups.last().unwrap();
    assert_eq!(last.informed, 4);
    assert_eq!(last.frontier, 0);
    assert_eq!(last.messages, out.metrics.messages);
    // Message ids are causal: a delivery never precedes its enqueue.
    for d in deliveries(&trace) {
        let enq = trace
            .iter()
            .position(|e| matches!(e, TraceEvent::Enqueue { msg, .. } if *msg == d.msg));
        let del = trace
            .iter()
            .position(|e| e.as_delivery().is_some_and(|x| x.msg == d.msg));
        assert!(enq.unwrap() < del.unwrap());
    }
}

#[test]
fn ring_spec_keeps_the_tail() {
    let g = families::complete_rotational(8);
    let cfg = SimConfig::broadcast();
    let (_, full) = traced(&g, 0, &no_advice(8), &FloodOnce, &cfg);
    let mut ring = RingSink::new(5);
    run_with_sink(&g, 0, &no_advice(8), &FloodOnce, &cfg, &mut ring).unwrap();
    assert_eq!(ring.tail(), &full[full.len() - 5..]);
    // The ring still saw the whole run, not just the retained tail.
    assert_eq!(ring.seen(), full.len() as u64);
}

#[test]
fn untraced_fault_free_runs_copy_no_payload() {
    // The allocation-free discipline of the delivery path.
    let g = families::complete_rotational(16);
    for flood in FLOODS {
        let out = run(&g, 0, &no_advice(16), flood, &SimConfig::default()).unwrap();
        assert_eq!(out.metrics.faults.payload_copies, 0);
        assert_eq!(out.metrics.faults.queue_allocs, 0);
    }
}

#[test]
fn streamed_sink_survives_an_aborted_run() {
    // On a SimError the caller still holds the sink — the post-mortem
    // contract for ring buffers.
    let g = families::path(3);
    let cfg = SimConfig::wakeup();
    let mut sink = VecSink::new();
    let err = run_with_sink(&g, 0, &no_advice(2), &FloodOnce, &cfg, &mut sink).unwrap_err();
    assert!(matches!(err, SimError::AdviceCount { .. }));
    // A second sink observing a run that fails mid-flight keeps the
    // events emitted before the abort.
    let g = families::complete_rotational(6);
    let chatty = SimConfig::broadcast().with_max_steps(3);
    let mut sink = VecSink::new();
    let err = run_with_sink(&g, 0, &no_advice(6), &FloodOnce, &chatty, &mut sink).unwrap_err();
    assert!(matches!(err, SimError::StepLimit { .. }));
    assert!(!sink.events().is_empty());
}

#[test]
fn crashed_receiver_shows_as_drop_event() {
    let g = families::path(4);
    let cfg = SimConfig::broadcast().with_faults(FaultPlan {
        crashes: [(1, 0)].into(),
        ..Default::default()
    });
    let (out, trace) = traced(&g, 0, &no_advice(4), &FloodOnce, &cfg);
    let drops: Vec<_> = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Drop { .. }))
        .collect();
    assert_eq!(drops.len(), 1);
    assert!(matches!(
        drops[0],
        TraceEvent::Drop {
            to: 1,
            fault: DropFault::ToCrashed,
            ..
        }
    ));
    // Dropped-to-crashed deliveries count as steps but not deliveries.
    assert_eq!(
        (deliveries(&trace).count() + drops.len()) as u64,
        out.metrics.steps
    );
}

#[test]
fn null_sink_run_matches_traced_run_metrics() {
    // Tracing must be observation only: metrics identical with and
    // without it, under faults and async scheduling alike.
    let g = families::complete_rotational(10);
    let base = SimConfig::broadcast()
        .with_scheduler(SchedulerKind::Random { seed: 9 })
        .with_faults(FaultPlan::message_faults(13, 0.2, 0.2, 0.3));
    let mut null = NullSink;
    let untraced = run_with_sink(&g, 0, &no_advice(10), &FloodOnce, &base, &mut null).unwrap();
    let (with_trace, _) = traced(&g, 0, &no_advice(10), &FloodOnce, &base);
    assert_eq!(untraced.metrics, with_trace.metrics);
    assert_eq!(untraced.informed, with_trace.informed);
}

#[test]
fn total_drop_quiesces_degraded() {
    let g = families::path(5);
    let cfg = SimConfig::broadcast()
        .with_scheduler(SchedulerKind::Fifo)
        .with_faults(FaultPlan::message_faults(3, 1.0, 0.0, 0.0));
    let out = run(&g, 0, &no_advice(5), &FloodOnce, &cfg).unwrap();
    assert!(!out.all_informed());
    assert_eq!(out.classify(), Completion::Degraded { uninformed: 4 });
    // Only the source's spontaneous send happened; it was dropped.
    assert_eq!(out.metrics.messages, 1);
    assert_eq!(out.metrics.faults.dropped, 1);
    assert_eq!(out.metrics.steps, 0);
}

#[test]
fn duplication_adds_deliveries_not_messages() {
    let g = families::path(4);
    let cfg = SimConfig::broadcast()
        .with_scheduler(SchedulerKind::Fifo)
        .with_faults(FaultPlan::message_faults(7, 0.0, 1.0, 0.0));
    let out = run(&g, 0, &no_advice(4), &FloodOnce, &cfg).unwrap();
    assert!(out.all_informed());
    assert_eq!(out.classify(), Completion::Completed);
    assert_eq!(out.metrics.faults.duplicated, out.metrics.messages);
    assert_eq!(
        out.metrics.steps,
        out.metrics.messages + out.metrics.faults.duplicated
    );
    // Each duplicated send manufactures exactly one payload clone, and
    // only those extra copies may force slab growth past the per-batch
    // reserve.
    assert_eq!(out.metrics.faults.payload_copies, out.metrics.messages);
    assert!(
        out.metrics.faults.queue_allocs > 0,
        "the first doubled batch must outrun its reserve"
    );
}

#[test]
fn fault_free_delivery_never_copies_payloads_or_grows_queues() {
    // The delivery hot path moves payloads into recycled slab slots; with
    // an inert plan (and even with an active plan that never duplicates)
    // both the clone counter and the forced-slot counter must stay zero.
    let g = families::complete_rotational(16);
    for flood in FLOODS {
        let out = run(&g, 0, &no_advice(16), flood, &SimConfig::default()).unwrap();
        assert!(out.metrics.messages > 0);
        assert_eq!(out.metrics.faults.payload_copies, 0);
        assert_eq!(out.metrics.faults.queue_allocs, 0);
    }

    let dropping = SimConfig::broadcast()
        .with_scheduler(SchedulerKind::Fifo)
        .with_faults(FaultPlan::message_faults(5, 0.3, 0.0, 0.5));
    let out = run(&g, 0, &no_advice(16), &FloodOnce, &dropping).unwrap();
    assert_eq!(
        out.metrics.faults.payload_copies, 0,
        "drops and bit flips must not clone payloads"
    );
    assert_eq!(
        out.metrics.faults.queue_allocs, 0,
        "drops and bit flips must not force queue growth"
    );
}

#[test]
fn bit_flips_corrupt_delivered_payloads() {
    // The source sends a known 8-bit payload; with flip probability 1
    // the receiver must observe a payload at Hamming distance exactly 1.
    struct TaggedState {
        is_source: bool,
        seen: std::rc::Rc<std::cell::RefCell<Vec<BitString>>>,
    }
    impl NodeBehavior for TaggedState {
        fn on_start(&mut self) -> Vec<Outgoing> {
            if self.is_source {
                vec![Outgoing::new(
                    0,
                    Message::new(BitString::parse("10101010").unwrap()),
                )]
            } else {
                Vec::new()
            }
        }
        fn on_receive(&mut self, _p: Port, m: Message) -> Vec<Outgoing> {
            self.seen.borrow_mut().push(m.payload.clone());
            Vec::new()
        }
    }
    struct TaggedProtocol {
        seen: std::rc::Rc<std::cell::RefCell<Vec<BitString>>>,
    }
    impl Protocol for TaggedProtocol {
        fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
            Box::new(TaggedState {
                is_source: view.is_source,
                seen: std::rc::Rc::clone(&self.seen),
            })
        }
    }
    let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let g = families::path(2);
    let cfg = SimConfig::broadcast().with_faults(FaultPlan::message_faults(11, 0.0, 0.0, 1.0));
    let protocol = TaggedProtocol {
        seen: std::rc::Rc::clone(&seen),
    };
    let out = run(&g, 0, &no_advice(2), &protocol, &cfg).unwrap();
    assert_eq!(out.metrics.faults.payload_flips, 1);
    let original = BitString::parse("10101010").unwrap();
    let received = &seen.borrow()[0];
    let distance = original
        .iter()
        .zip(received.iter())
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(distance, 1);
}

#[test]
fn crash_stop_silences_a_relay() {
    // Node 1 on a path is down from the start: the flood cannot pass
    // it, deliveries to it are counted, and classify() excuses the
    // crashed node itself but not the nodes stranded behind it.
    let g = families::path(4);
    let cfg = SimConfig::broadcast().with_faults(FaultPlan {
        crashes: [(1, 0)].into(),
        ..Default::default()
    });
    let out = run(&g, 0, &no_advice(4), &FloodOnce, &cfg).unwrap();
    assert!(out.crashed[1]);
    assert_eq!(out.metrics.faults.to_crashed, 1);
    assert_eq!(out.classify(), Completion::Degraded { uninformed: 2 });
    assert_eq!(out.informed_count(), 1);
}

#[test]
fn crash_budget_counts_sends() {
    // The source of a 5-star may make two sends, then halts: exactly
    // two leaves wake up, the remaining two spontaneous sends are
    // suppressed.
    let g = families::star(5);
    let cfg = SimConfig::broadcast().with_faults(FaultPlan {
        crashes: [(0, 2)].into(),
        ..Default::default()
    });
    let out = run(&g, 0, &no_advice(5), &FloodOnce, &cfg).unwrap();
    assert!(out.crashed[0]);
    assert_eq!(out.metrics.messages, 2);
    assert_eq!(out.metrics.faults.suppressed_sends, 2);
    assert_eq!(out.informed_count(), 3);
    assert_eq!(out.classify(), Completion::Degraded { uninformed: 2 });
}

#[test]
fn faulty_runs_are_reproducible_per_seed() {
    let g = families::complete_rotational(10);
    let plan = FaultPlan::message_faults(77, 0.3, 0.2, 0.0);
    let cfg = SimConfig::broadcast()
        .with_scheduler(SchedulerKind::Random { seed: 4 })
        .with_faults(plan);
    let (a, a_trace) = traced(&g, 0, &no_advice(10), &FloodOnce, &cfg);
    let (b, b_trace) = traced(&g, 0, &no_advice(10), &FloodOnce, &cfg);
    assert_eq!(a_trace, b_trace);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.informed, b.informed);
}

#[test]
fn inert_plan_with_nonzero_seed_changes_nothing() {
    let g = families::complete_rotational(8);
    let cfg = SimConfig::broadcast().with_faults(FaultPlan {
        seed: 999,
        ..Default::default()
    });
    for flood in FLOODS {
        let baseline = run(&g, 2, &no_advice(8), flood, &SimConfig::default()).unwrap();
        let with_inert = run(&g, 2, &no_advice(8), flood, &cfg).unwrap();
        assert_eq!(baseline.metrics, with_inert.metrics);
        assert_eq!(baseline.informed, with_inert.informed);
    }
}

#[test]
fn quiescence_polls_are_bounded() {
    // A protocol that always speaks at quiescence must be cut off
    // after `max_quiescence_polls` resumptions.
    struct Nagger;
    struct NagState;
    impl NodeBehavior for NagState {
        fn on_start(&mut self) -> Vec<Outgoing> {
            Vec::new()
        }
        fn on_receive(&mut self, _p: Port, _m: Message) -> Vec<Outgoing> {
            Vec::new()
        }
        fn on_quiescence(&mut self) -> Vec<Outgoing> {
            vec![Outgoing::new(0, Message::empty())]
        }
    }
    impl Protocol for Nagger {
        fn create(&self, _view: NodeView) -> Box<dyn NodeBehavior> {
            Box::new(NagState)
        }
    }
    let g = families::path(2);
    let cfg = SimConfig::broadcast().with_quiescence_polls(3);
    let out = run(&g, 0, &no_advice(2), &Nagger, &cfg).unwrap();
    // Both nodes nag once per poll.
    assert_eq!(out.metrics.messages, 6);
}

#[test]
fn error_display_nonempty() {
    let errs: Vec<SimError> = vec![
        SimError::WakeupViolation { node: 1 },
        SimError::MessageTooLarge {
            node: 2,
            bits: 10,
            limit: 5,
        },
        SimError::StepLimit { limit: 7 },
        SimError::PortOutOfRange {
            node: 3,
            port: 9,
            degree: 2,
        },
        SimError::AdviceCount {
            expected: 4,
            got: 0,
        },
    ];
    for e in errs {
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn step_limit_trips_exactly_past_the_total() {
    // 5 + 5·4 = 25 deliveries flood K6: a budget of 25 completes, 24
    // aborts, on both engine paths alike.
    let g = families::complete_rotational(6);
    for flood in FLOODS {
        let exact = SimConfig::broadcast().with_max_steps(25);
        assert_eq!(
            run(&g, 0, &no_advice(6), flood, &exact)
                .unwrap()
                .metrics
                .steps,
            25
        );
        let short = SimConfig::broadcast().with_max_steps(24);
        let err = run(&g, 0, &no_advice(6), flood, &short).unwrap_err();
        assert_eq!(err, SimError::StepLimit { limit: 24 });
    }
}
