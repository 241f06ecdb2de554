//! The driver loop: instantiate schemes, drain the network, poll
//! quiescence, collect the outcome.
//!
//! [`run_with_sink`] is the single underlying implementation; the caller
//! picks the sink that receives the trace. [`run`] is it with a
//! [`NullSink`], which traces nothing. These two are the engine's only
//! entry points: `core::execute`, `runtime::run_cell_report` and the
//! `oraclesize trace` command all call one of them.

use std::collections::VecDeque;

use oraclesize_bits::BitArena;
use oraclesize_graph::{NodeId, PortGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::config::SimConfig;
use crate::engine::delivery::{InFlight, NetState};
use crate::engine::frontier::run_forward_once;
use crate::engine::outcome::{RunOutcome, SimError};
use crate::faults::AdviceAdversary;
use crate::oracle::Advice;
use crate::protocol::{NodeBehavior, NodeView, Protocol};
use crate::scheduler::Scheduler;
use crate::trace::{Delivery, NullSink, Phase, Rollup, TraceEvent, TraceSink};

/// Executes `protocol` on `g` from `source` with the given per-node advice.
///
/// Nodes are instantiated in node-id order; `on_start` is invoked in that
/// order before any delivery. (A run that takes the frontier kernel, see
/// [`run_with_sink`], instantiates none.) Execution runs to quiescence (no
/// in-flight messages) and returns the outcome. Nothing is traced; to
/// stream events into a sink, use [`run_with_sink`].
///
/// # Errors
///
/// See [`SimError`]. Any error aborts the run immediately.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn run(
    g: &PortGraph,
    source: NodeId,
    advice: &Advice,
    protocol: &dyn Protocol,
    config: &SimConfig,
) -> Result<RunOutcome, SimError> {
    run_with_sink(g, source, advice, protocol, config, &mut NullSink)
}

/// [`run`], streaming trace events into a caller-supplied sink.
///
/// This is the single underlying executor; the caller owns the events.
/// Because the caller keeps the sink even when the run aborts with a
/// [`SimError`], a [`RingSink`](crate::trace::RingSink) passed here
/// doubles as an error post-mortem buffer.
///
/// # Errors / Panics
///
/// As [`run`].
///
/// # Frontier kernel
///
/// A synchronous run into a disabled sink, of a protocol with a
/// [`ForwardOnce`](crate::protocol::ForwardOnce) rule, under a plan with
/// [no transport faults](crate::FaultPlan::transport_is_inert), never
/// calls [`Protocol::create`]: the frontier kernel computes the same
/// [`RunOutcome`] level by level (DESIGN.md §11). The advice adversary may
/// be anything: it corrupts the table once, before either path starts,
/// and the kernel reads the corrupted table. Every other run takes the
/// per-message path.
pub fn run_with_sink(
    g: &PortGraph,
    source: NodeId,
    advice: &Advice,
    protocol: &dyn Protocol,
    config: &SimConfig,
    sink: &mut dyn TraceSink,
) -> Result<RunOutcome, SimError> {
    assert!(source < g.num_nodes(), "source out of range");
    let n = g.num_nodes();
    if advice.len() != n {
        return Err(SimError::AdviceCount {
            expected: n,
            got: advice.len(),
        });
    }

    // The advice adversary acts before the first send, so both paths run
    // on the table it leaves. It draws first from the plan's one RNG, and
    // in-flight faults continue the same stream. `None` draws nothing.
    let plan = &config.faults;
    let mut fault_rng = (!plan.is_inert()).then(|| StdRng::seed_from_u64(plan.seed));
    let corrupted = match fault_rng.as_mut() {
        Some(rng) if plan.advice != AdviceAdversary::None => Some(plan.advice.corrupt(advice, rng)),
        _ => None,
    };
    let (advice, advice_mutations) = match &corrupted {
        Some((table, mutations)) => (table, *mutations),
        None => (advice, 0),
    };

    if config.scheduler.is_none() && plan.transport_is_inert() && !sink.enabled() {
        if let Some(rule) = protocol.forward_once() {
            let mut outcome = run_forward_once(g, source, advice, rule, config.max_steps)?;
            outcome.metrics.faults.advice_mutations = advice_mutations;
            return Ok(outcome);
        }
    }

    let mut net = NetState::new(g, config, source, sink, fault_rng);
    net.metrics.faults.advice_mutations = advice_mutations;
    // One contiguous buffer for all n advice strings (SoA layout,
    // DESIGN.md §11) instead of n separately-allocated clones; node views
    // materialise their own string from their arena span.
    let advice = BitArena::from_strings(advice);

    let mut behaviors: Vec<Box<dyn NodeBehavior>> = (0..n)
        .map(|v| {
            protocol.create(NodeView {
                advice: advice.get(v),
                is_source: v == source,
                id: if config.anonymous {
                    None
                } else {
                    Some(g.label(v))
                },
                degree: g.degree(v),
            })
        })
        .collect();

    // The queues hold slab indices; payloads live in `net.slab` and never
    // move between enqueue and delivery.
    let mut pending: VecDeque<u32> = VecDeque::new();
    let mut next_round: VecDeque<u32> = VecDeque::new();

    // Spontaneous phase.
    net.rec.emit(TraceEvent::PhaseStart {
        phase: Phase::Spontaneous,
    });
    for (v, behavior) in behaviors.iter_mut().enumerate() {
        let sends = behavior.on_start();
        net.enqueue(v, sends, &mut pending)?;
    }

    let mut scheduler: Option<Scheduler> = config.scheduler.map(|kind| kind.instantiate());
    let mut steps: u64 = 0;
    let mut rounds: u64 = 0;
    let mut polls: u32 = 0;

    'run: loop {
        // Delivery loop: drain the network to quiescence.
        loop {
            if pending.is_empty() {
                if scheduler.is_none() && !next_round.is_empty() {
                    if net.rec.on {
                        net.rec.emit(TraceEvent::Rollup(Rollup {
                            round: rounds,
                            informed: net.informed.count_ones() as u64,
                            messages: net.metrics.messages,
                            frontier: next_round.len() as u64,
                        }));
                    }
                    // Swap (not take): the drained queue keeps its buffer,
                    // so alternating rounds reuse two allocations forever.
                    std::mem::swap(&mut pending, &mut next_round);
                    rounds += 1;
                    net.rec.emit(TraceEvent::PhaseStart {
                        phase: Phase::Round(rounds),
                    });
                    continue;
                }
                break;
            }
            if steps >= config.max_steps {
                return Err(SimError::StepLimit {
                    limit: config.max_steps,
                });
            }
            let next = match &mut scheduler {
                None => pending.pop_front(),
                Some(s) => s.take(&mut pending, |&i: &u32| net.slab.carries_source(i)),
            };
            let Some(slot) = next else {
                // Unreachable given the nonempty check above; an empty pool
                // is quiescence, not an error.
                break;
            };
            let Some(InFlight {
                msg,
                from,
                to,
                arrival_port,
                message,
            }) = net.take_in_flight(slot)
            else {
                // Unreachable: queued indices always name occupied slots.
                break;
            };

            let step = steps;
            steps += 1;

            if net.crashed.get(to) {
                // The wire delivered it, but nobody is listening: the node
                // neither learns the source message nor reacts.
                net.metrics.faults.to_crashed += 1;
                net.rec.emit(TraceEvent::Drop {
                    msg,
                    from,
                    to,
                    fault: crate::trace::DropFault::ToCrashed,
                });
                continue;
            }
            net.rec.emit(TraceEvent::Deliver(Delivery {
                msg,
                step,
                from,
                to,
                arrival_port,
                bits: message.size_bits() as u64,
                carries_source: message.carries_source,
            }));
            if message.carries_source && !net.informed.get(to) {
                net.informed.set(to, true);
                net.rec.emit(TraceEvent::Wake {
                    node: to,
                    step,
                    msg,
                });
            }

            let sends = behaviors[to].on_receive(arrival_port, message);
            let out = if scheduler.is_none() {
                &mut next_round
            } else {
                &mut pending
            };
            net.enqueue(to, sends, out)?;
        }

        // Quiescence: poll live nodes for retries, bounded by the config.
        // A fully silent poll (the default hook) ends the run. "Silent"
        // means no node *returned* a send — a poll whose sends were all
        // dropped by the fault plan still counts as speaking, so a retrying
        // scheme keeps its remaining attempts under total message loss.
        if polls >= config.max_quiescence_polls {
            break;
        }
        polls += 1;
        net.rec.emit(TraceEvent::PhaseStart {
            phase: Phase::QuiescencePoll(polls),
        });
        let mut spoke = false;
        for (v, behavior) in behaviors.iter_mut().enumerate() {
            if net.crashed.get(v) {
                continue;
            }
            let sends = behavior.on_quiescence();
            spoke |= !sends.is_empty();
            net.enqueue(v, sends, &mut pending)?;
        }
        net.rec.emit(TraceEvent::Quiescence { poll: polls, spoke });
        if !spoke {
            break 'run;
        }
    }

    net.metrics.steps = steps;
    net.metrics.rounds = rounds;
    net.metrics.informed_nodes = net.informed.count_ones() as u64;
    net.metrics.faults.queue_allocs = net.slab.queue_allocs;
    if net.rec.on {
        // Final progress record at quiescence: the frontier is empty.
        net.rec.emit(TraceEvent::Rollup(Rollup {
            round: rounds,
            informed: net.metrics.informed_nodes,
            messages: net.metrics.messages,
            frontier: 0,
        }));
    }
    let mut outputs: Vec<_> = behaviors.iter().map(|b| b.output()).collect();
    if outputs.iter().all(Option::is_none) {
        outputs = Vec::new();
    }
    Ok(RunOutcome {
        metrics: net.metrics,
        informed: net.informed.to_bools(),
        crashed: net.crashed.to_bools(),
        outputs,
    })
}
