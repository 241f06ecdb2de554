//! The observability determinism contract: rendered trace JSONL is
//! byte-identical at `--threads` 1, 2, and 8 for the same request list.
//!
//! Message ids are assigned in enqueue order by each cell's own engine
//! run, so a cell's trace never depends on which worker thread executed
//! it — concatenating per-cell renders in cell order therefore yields one
//! deterministic artifact.
//!
//! Every captured trace is also replayed through the engine's
//! [`InvariantSink`], so the four trace invariants (resolve-once,
//! wake-once, wakeup-rule, rollup-informed) hold for every cell the pool
//! ran, at every thread count, under FIFO, LIFO and random schedulers
//! with drop, duplicate and bit-flip faults.

use std::sync::Arc;

use oraclesize_core::oracle::EmptyOracle;
use oraclesize_graph::families::Family;
use oraclesize_runtime::trace::render_jsonl;
use oraclesize_runtime::{run_supervised_batch, Pool, RunRequest, SweepOptions};
use oraclesize_sim::protocol::FloodOnce;
use oraclesize_sim::trace::{InvariantSink, TraceSink};
use oraclesize_sim::{FaultPlan, Instance, SchedulerKind, SimConfig, TraceSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully-traced seed sweep over one shared instance, mixing schedulers
/// and fault plans so traces differ across cells.
fn traced_grid(fam: Family, n: usize, seed: u64, cells: usize) -> Vec<RunRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = Arc::new(fam.build(n, &mut rng));
    let source = seed as usize % g.num_nodes();
    let instance = Instance::build(g, source, &EmptyOracle);
    let protocol: Arc<dyn oraclesize_sim::protocol::Protocol + Send + Sync> = Arc::new(FloodOnce);
    (0..cells)
        .map(|cell| {
            let cell_seed = seed.wrapping_add(cell as u64);
            let config = SimConfig::broadcast()
                .with_scheduler(match cell % 3 {
                    0 => SchedulerKind::Fifo,
                    1 => SchedulerKind::Lifo,
                    _ => SchedulerKind::Random { seed: cell_seed },
                })
                .with_synchronous(cell % 2 == 0)
                .with_faults(if cell % 2 == 0 {
                    FaultPlan::message_faults(cell_seed, 0.1, 0.1, 0.2)
                } else {
                    FaultPlan::default()
                })
                .capture_trace(TraceSpec::Full);
            RunRequest::new(Arc::clone(&instance), Arc::clone(&protocol), config)
        })
        .collect()
}

/// Runs the batch, checks every cell's trace against the trace
/// invariants, and renders the traces as one JSONL artifact.
///
/// # Panics
///
/// When a cell's trace breaks an invariant; the message names the cell
/// and carries the events leading up to the violation.
fn render_batch(pool: &Pool, requests: &[RunRequest]) -> String {
    let mut out = String::new();
    for report in run_supervised_batch(pool, requests, &SweepOptions::default()).reports() {
        if let Some(outcome) = report.outcome() {
            let request = &requests[report.cell];
            let instance = &request.instance;
            let mut checker =
                InvariantSink::new(instance.num_nodes(), instance.source, request.config.mode);
            for &event in &outcome.trace {
                checker.emit(event);
            }
            if let Err(violation) = checker.verdict(outcome.completed) {
                panic!(
                    "cell {} at {} thread(s): {violation}",
                    report.cell,
                    pool.threads()
                );
            }
            out.push_str(&render_jsonl(report.cell as u64, &outcome.trace));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance bar: trace JSONL bytes are invariant under the
    /// worker thread count.
    #[test]
    fn trace_jsonl_identical_across_thread_counts(
        fam in proptest::sample::select(Family::ALL.to_vec()),
        n in 4usize..20,
        seed in any::<u64>(),
    ) {
        let requests = traced_grid(fam, n, seed, 9);
        let serial = render_batch(&Pool::new(1), &requests);
        prop_assert!(!serial.is_empty());
        for threads in [2usize, 8] {
            let parallel = render_batch(&Pool::new(threads), &requests);
            prop_assert_eq!(&serial, &parallel, "threads = {}", threads);
        }
    }
}

/// A deterministic pin of the same contract on the T10-style cycle cell.
#[test]
fn fixed_traced_grid_is_thread_count_invariant() {
    let requests = traced_grid(Family::Cycle, 12, 2006, 12);
    let serial = render_batch(&Pool::new(1), &requests);
    assert!(serial.lines().count() > 12, "traces should be non-trivial");
    for line in serial.lines() {
        assert!(oraclesize_runtime::json::parse(line).is_some(), "{line}");
    }
    for threads in [2, 8] {
        assert_eq!(serial, render_batch(&Pool::new(threads), &requests));
    }
}
