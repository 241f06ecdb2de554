//! Integration: the per-message engine's allocation contract.
//!
//! No delivery allocates. A run may allocate a constant number of times
//! for its own state ([`C`]: the node table, bitsets, queues, the slab's
//! amortised growth, a trace sink's amortised growth, the outcome), once
//! per node whose advice string is non-empty (the node's view owns a copy
//! of its string) and once per duplicated copy of a non-empty payload.
//! Nothing else may scale with the run: not deliveries, not sends, not
//! send batches, not bit flips.
//!
//! A counting global allocator tallies the test thread's allocations
//! while the engine runs. Each scheme runs behind [`Uncounted`], which
//! forwards only `create` and pauses counting inside every callback:
//! callbacks return fresh `Vec<Outgoing>`s by design, so only the
//! engine's own allocations count. The wrapper has no forward-once rule,
//! so every run takes the per-message path.
//!
//! Every case is sized so that its deliveries and its send batches both
//! reach `4 × C`: an allocation per delivery, per send or per batch
//! breaks the bound by a wide margin. DESIGN.md §12 records which engine
//! functions a mutation was planted in and what each case then counted.

#![expect(
    clippy::disallowed_macros,
    clippy::disallowed_types,
    reason = "the allocator counts per thread, so parallel tests cannot see each other's allocations"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oraclesize::bits::BitString;
use oraclesize::core::robust::RetryBroadcast;
use oraclesize::graph::PortGraph;
use oraclesize::prelude::*;
use oraclesize::sim::engine::run_with_sink;
use oraclesize::sim::protocol::{Message, NodeBehavior, NodeView, Outgoing, Protocol};
use oraclesize::sim::testkit::no_advice;
use oraclesize::sim::trace::{InvariantSink, NullSink, RingSink, TraceSink, VecSink};
use oraclesize::sim::{AdviceAdversary, FaultPlan, RunOutcome};

/// The engine's per-run allowance. It covers allocations made once per
/// run and amortised growth, which is logarithmic in the run: the cases
/// below count 38 to 63.
const C: u64 = 96;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// This thread's counted allocations.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Callbacks that returned at least one send.
    static BATCHES: Cell<u64> = const { Cell::new(0) };
    /// Sends whose payload is non-empty.
    static PAYLOAD_SENDS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = counter.try_with(|c| c.set(c.get() + by));
}

/// Forwards every call to [`System`], counting `alloc`, `alloc_zeroed`
/// and `realloc` calls on a thread while its counting is on.
struct CountingAlloc;

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        bump(&ALLOCS, 1);
    }
}

#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe impl; every method forwards to System"
)]
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around each call
// touches only const-initialised thread-locals, so it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`, plus the caller's `new_size`
        // obligations, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with counting switched to `on`, restoring the previous state.
fn counting<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let before = COUNTING.with(|c| c.replace(on));
    let out = f();
    COUNTING.with(|c| c.set(before));
    out
}

/// Tallies the batches and payload-carrying sends of one callback.
fn tally(sends: Vec<Outgoing>) -> Vec<Outgoing> {
    if !sends.is_empty() {
        bump(&BATCHES, 1);
    }
    let payloads = sends.iter().filter(|s| !s.message.payload.is_empty());
    bump(&PAYLOAD_SENDS, payloads.count() as u64);
    sends
}

/// A protocol whose nodes allocate uncounted: only `create` is forwarded,
/// and counting pauses inside every callback.
struct Uncounted<'a>(&'a dyn Protocol);

struct UncountedNode(Box<dyn NodeBehavior>);

impl Protocol for Uncounted<'_> {
    fn create(&self, view: NodeView) -> Box<dyn NodeBehavior> {
        counting(false, || Box::new(UncountedNode(self.0.create(view))))
    }
}

impl NodeBehavior for UncountedNode {
    fn on_start(&mut self) -> Vec<Outgoing> {
        counting(false, || tally(self.0.on_start()))
    }

    fn on_receive(&mut self, port: usize, message: Message) -> Vec<Outgoing> {
        counting(false, || tally(self.0.on_receive(port, message)))
    }

    fn on_quiescence(&mut self) -> Vec<Outgoing> {
        counting(false, || tally(self.0.on_quiescence()))
    }

    fn output(&self) -> Option<BitString> {
        counting(false, || self.0.output())
    }
}

/// Which sink a case streams into.
#[derive(Clone, Copy)]
enum Sink {
    /// No trace.
    Null,
    /// Every event, collected.
    Events,
    /// The last 256 events.
    Ring,
    /// The online invariant checker.
    Invariants,
}

/// One engine run to measure.
struct Case {
    name: &'static str,
    graph: PortGraph,
    advice: Advice,
    protocol: &'static dyn Protocol,
    config: SimConfig,
    sink: Sink,
}

/// What one run counted.
struct Measured {
    name: &'static str,
    outcome: RunOutcome,
    allocs: u64,
    batches: u64,
    payload_sends: u64,
    /// Nodes whose advice string is non-empty.
    advised: u64,
}

impl Measured {
    /// Copies the engine may allocate for: every duplicated copy, unless
    /// no send carried a payload (an empty payload clones for free).
    fn payload_copies(&self) -> u64 {
        if self.payload_sends == 0 {
            0
        } else {
            self.outcome.metrics.faults.payload_copies
        }
    }

    /// The contract: advised nodes and payload copies, plus `C`.
    fn bound(&self) -> u64 {
        self.advised + self.payload_copies() + C
    }

    fn deliveries(&self) -> u64 {
        self.outcome.metrics.steps
    }
}

fn measure(case: &Case) -> Measured {
    let advised = case.advice.iter().filter(|a| !a.is_empty()).count() as u64;
    let protocol = Uncounted(case.protocol);
    let mut invariants = InvariantSink::new(case.graph.num_nodes(), 0, case.config.mode);
    let (mut null, mut events, mut ring) = (NullSink, VecSink::new(), RingSink::new(256));
    let sink: &mut dyn TraceSink = match case.sink {
        Sink::Null => &mut null,
        Sink::Events => &mut events,
        Sink::Ring => &mut ring,
        Sink::Invariants => &mut invariants,
    };
    BATCHES.with(|b| b.set(0));
    PAYLOAD_SENDS.with(|p| p.set(0));
    let start = ALLOCS.with(Cell::get);
    let outcome = counting(true, || {
        run_with_sink(&case.graph, 0, &case.advice, &protocol, &case.config, sink)
    });
    let allocs = ALLOCS.with(Cell::get) - start;
    let outcome = outcome.unwrap_or_else(|e| panic!("{}: {e}", case.name));
    if matches!(case.sink, Sink::Invariants) {
        let verdict = invariants.verdict(true);
        assert!(verdict.is_ok(), "{}: {verdict:?}", case.name);
    }
    Measured {
        name: case.name,
        outcome,
        allocs,
        batches: BATCHES.with(Cell::get),
        payload_sends: PAYLOAD_SENDS.with(Cell::get),
        advised,
    }
}

/// Measures every case, prints the table, then checks each case against
/// `bound` and the sizing rule.
fn check(cases: &[Case], bound: impl Fn(&Measured) -> u64) -> Vec<Measured> {
    let measured: Vec<Measured> = cases.iter().map(measure).collect();
    let mut failures = Vec::new();
    for m in &measured {
        let limit = bound(m);
        eprintln!(
            "{:<40} deliveries {:>6}  batches {:>5}  advised {:>5}  copies {:>4}  \
             flips {:>4}  allocs {:>6}  bound {:>6}",
            m.name,
            m.deliveries(),
            m.batches,
            m.advised,
            m.outcome.metrics.faults.payload_copies,
            m.outcome.metrics.faults.payload_flips,
            m.allocs,
            limit
        );
        if m.allocs > limit {
            failures.push(format!("{}: {} allocations > {limit}", m.name, m.allocs));
        }
        if m.deliveries().min(m.batches) < 4 * C {
            failures.push(format!(
                "{}: {} deliveries and {} batches; both must reach {}",
                m.name,
                m.deliveries(),
                m.batches,
                4 * C
            ));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
    measured
}

/// Flooding on the 10-cube: 1,024 batches, 9,217 deliveries.
fn flood(name: &'static str, config: SimConfig) -> Case {
    let graph = families::hypercube(10);
    let advice = no_advice(graph.num_nodes());
    Case {
        name,
        graph,
        advice,
        protocol: &FloodOnce,
        config,
        sink: Sink::Null,
    }
}

/// A scheme on the 12-cube with the advice of `oracle`.
fn cube12(
    name: &'static str,
    oracle: &dyn Oracle,
    protocol: &'static dyn Protocol,
    config: SimConfig,
) -> Case {
    let graph = families::hypercube(12);
    let advice = oracle.advise(&graph, 0);
    Case {
        name,
        graph,
        advice,
        protocol,
        config,
        sink: Sink::Null,
    }
}

const RETRY: RetryBroadcast = RetryBroadcast { retries: 3 };

#[test]
fn flooding_allocates_a_constant_under_every_scheduler_sink_and_fault() {
    let async_flood = |name, scheduler| flood(name, SimConfig::default().with_scheduler(scheduler));
    let traced = |name, sink| Case {
        sink,
        ..flood(name, SimConfig::default())
    };
    let cases = [
        flood("flood, sync", SimConfig::default()),
        async_flood("flood, fifo", SchedulerKind::Fifo),
        async_flood("flood, lifo", SchedulerKind::Lifo),
        async_flood("flood, random", SchedulerKind::Random { seed: 7 }),
        async_flood("flood, starve", SchedulerKind::Starve),
        flood(
            "flood, drop + duplicate + flip",
            SimConfig::default().with_faults(FaultPlan::message_faults(3, 0.05, 0.1, 0.1)),
        ),
        traced("flood, full trace", Sink::Events),
        traced("flood, ring trace", Sink::Ring),
        traced("flood, invariant checker", Sink::Invariants),
    ];
    check(&cases, Measured::bound);
}

#[test]
fn advised_schemes_allocate_once_per_advised_node() {
    let cases = [
        cube12(
            "scheme B, light tree",
            &LightTreeOracle,
            &SchemeB,
            SimConfig::default(),
        ),
        cube12(
            "tree wakeup",
            &SpanningTreeOracle::default(),
            &TreeWakeup,
            SimConfig::wakeup(),
        ),
        cube12(
            "retry broadcast, 10 % drop",
            &SpanningTreeOracle::default(),
            &RETRY,
            SimConfig::default().with_faults(FaultPlan::message_faults(5, 0.1, 0.0, 0.0)),
        ),
    ];
    check(&cases, Measured::bound);
}

#[test]
fn duplicated_payloads_are_the_only_fault_allocations() {
    let faulty = |name, seed, duplicate, flip| {
        cube12(
            name,
            &SpanningTreeOracle::default(),
            &RETRY,
            SimConfig::default().with_faults(FaultPlan::message_faults(seed, 0.1, duplicate, flip)),
        )
    };
    let cases = [
        faulty("retry broadcast, drop", 9, 0.0, 0.0),
        faulty("retry broadcast, drop + duplicate", 9, 0.3, 0.0),
        faulty("retry broadcast, drop + flip", 9, 0.0, 0.3),
    ];
    let [drop, duplicate, flip] = &check(&cases, Measured::bound)[..] else {
        unreachable!("three cases")
    };
    // The acknowledgements carry a payload, so duplicating them must
    // still cost allocations; a flip inverts a bit in place and costs none.
    let copies = duplicate.outcome.metrics.faults.payload_copies;
    assert!(copies >= 4 * C, "{copies} copies");
    assert!(
        duplicate.allocs >= drop.allocs + copies / 4,
        "{} copies added only {} allocations",
        copies,
        duplicate.allocs - drop.allocs
    );
    let flips = flip.outcome.metrics.faults.payload_flips;
    assert!(flips >= 4 * C, "{flips} flips");
    assert!(
        flip.allocs <= drop.allocs + C,
        "{flips} flips added {} allocations",
        flip.allocs.saturating_sub(drop.allocs)
    );
}

#[test]
fn an_advice_adversary_allocates_per_node_not_per_delivery() {
    let case = cube12(
        "tree wakeup, advice garbage",
        &SpanningTreeOracle::default(),
        &TreeWakeup,
        SimConfig::wakeup().with_faults(FaultPlan::advice_only(
            11,
            AdviceAdversary::Garbage {
                prob: 0.05,
                bits: 16,
            },
        )),
    );
    // The adversary copies every non-empty string, rebuilds each string it
    // replaces, and every node whose corrupted string is non-empty gets
    // its own copy in its view.
    check(&[case], |m| {
        2 * (m.advised + m.outcome.metrics.faults.advice_mutations) + C
    });
}
