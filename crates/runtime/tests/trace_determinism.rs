//! The observability determinism contract: a cell's rendered trace JSONL
//! is byte-identical on every run.
//!
//! Message ids are assigned in enqueue order by the cell's own engine run,
//! so its trace is a pure function of the cell. Every cell of a mixed
//! grid — FIFO, LIFO and random schedulers, with drop, duplicate and
//! bit-flip faults — streams once through the engine's [`InvariantSink`],
//! so the five trace invariants (resolve-once, wake-once, wakeup-rule,
//! rollup-informed, rollup-frontier) hold for every cell, and twice
//! through a [`JsonlSink`], whose bytes must agree.

use std::sync::Arc;

use oraclesize_core::oracle::EmptyOracle;
use oraclesize_graph::families::Family;
use oraclesize_runtime::JsonlSink;
use oraclesize_sim::engine::run_with_sink;
use oraclesize_sim::protocol::FloodOnce;
use oraclesize_sim::trace::InvariantSink;
use oraclesize_sim::{FaultPlan, Instance, SchedulerKind, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seed sweep over one shared instance, mixing schedulers and fault
/// plans so traces differ across cells.
fn traced_grid(fam: Family, n: usize, seed: u64, cells: usize) -> (Arc<Instance>, Vec<SimConfig>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = Arc::new(fam.build(n, &mut rng));
    let source = seed as usize % g.num_nodes();
    let instance = Instance::build(g, source, &EmptyOracle);
    let configs = (0..cells)
        .map(|cell| {
            let cell_seed = seed.wrapping_add(cell as u64);
            // Even cells: synchronous and faulty; odd cells: fault-free
            // under a scheduler.
            if cell % 2 == 0 {
                SimConfig::broadcast()
                    .with_faults(FaultPlan::message_faults(cell_seed, 0.1, 0.1, 0.2))
            } else {
                SimConfig::broadcast().with_scheduler(match cell % 3 {
                    0 => SchedulerKind::Fifo,
                    1 => SchedulerKind::Lifo,
                    _ => SchedulerKind::Random { seed: cell_seed },
                })
            }
        })
        .collect();
    (instance, configs)
}

/// The cell's trace as JSONL.
fn render(cell: usize, instance: &Instance, config: &SimConfig) -> String {
    let mut sink = JsonlSink::new(cell as u64);
    let (g, source, advice) = (&instance.graph, instance.source, &instance.advice);
    let _ = run_with_sink(g, source, advice, &FloodOnce, config, &mut sink);
    sink.into_string()
}

/// Checks every cell's trace against the trace invariants and its JSONL
/// bytes against a second run, and returns the cells' traces
/// concatenated in cell order.
///
/// # Panics
///
/// When a cell's trace breaks an invariant (the message names the cell
/// and carries the events leading up to the violation), or when a
/// cell's second render differs from its first.
fn check_grid(instance: &Instance, configs: &[SimConfig]) -> String {
    let mut out = String::new();
    for (cell, config) in configs.iter().enumerate() {
        let mut checker = InvariantSink::new(instance.num_nodes(), instance.source, config.mode);
        let (g, source, advice) = (&instance.graph, instance.source, &instance.advice);
        let result = run_with_sink(g, source, advice, &FloodOnce, config, &mut checker);
        if let Err(violation) = checker.verdict(result.is_ok()) {
            panic!("cell {cell}: {violation}");
        }
        let first = render(cell, instance, config);
        assert_eq!(first, render(cell, instance, config), "cell {cell}");
        out.push_str(&first);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_cell_keeps_the_trace_invariants_and_repeats_its_bytes(
        fam in proptest::sample::select(Family::ALL.to_vec()),
        n in 4usize..20,
        seed in any::<u64>(),
    ) {
        let (instance, configs) = traced_grid(fam, n, seed, 9);
        prop_assert!(!check_grid(&instance, &configs).is_empty());
    }
}

/// A deterministic pin of the same contract on the T10-style cycle cell.
#[test]
fn fixed_traced_grid_renders_parseable_repeatable_jsonl() {
    let (instance, configs) = traced_grid(Family::Cycle, 12, 2006, 12);
    let rendered = check_grid(&instance, &configs);
    assert!(
        rendered.lines().count() > 12,
        "traces should be non-trivial"
    );
    for line in rendered.lines() {
        assert!(oraclesize_runtime::json::parse(line).is_some(), "{line}");
    }
}
