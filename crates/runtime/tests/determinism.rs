//! The determinism contract, pinned down: for a fixed request list, the
//! batch report vector — and everything derived from it (aggregates,
//! rendered JSON) — is identical at `--threads 1`, `2`, `8`, and `16`
//! (the last oversubscribing the machine, so workers genuinely
//! interleave), under any chunk plan.

use std::sync::Arc;

use oraclesize_core::oracle::EmptyOracle;
use oraclesize_graph::families::Family;
use oraclesize_runtime::{
    run_supervised_batch, Aggregate, ChunkPlan, Pool, RunReport, RunRequest, SweepOptions,
};
use oraclesize_sim::protocol::FloodOnce;
use oraclesize_sim::{FaultPlan, Instance, SchedulerKind, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a grid of cells over one shared instance: a seed sweep with
/// per-cell schedulers and fault plans, exercising every code path that
/// could conceivably differ across workers.
fn grid(fam: Family, n: usize, seed: u64, cells: usize) -> Vec<RunRequest> {
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
                });
            RunRequest::new(Arc::clone(&instance), Arc::clone(&protocol), config)
        })
        .collect()
}

/// The sweep's reports at the executor's defaults: no retries, no
/// journal, cost-hinted chunks.
fn sweep(pool: &Pool, requests: &[RunRequest]) -> Vec<RunReport> {
    run_supervised_batch(pool, requests, &SweepOptions::default()).reports()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 3: for a fixed seed, `RunReport`s are identical for
    /// `--threads` 1, 2, 8, and 16 — and so are the aggregate JSON bytes.
    #[test]
    fn reports_identical_across_thread_counts(
        fam in proptest::sample::select(Family::ALL.to_vec()),
        n in 4usize..24,
        seed in any::<u64>(),
    ) {
        let requests = grid(fam, n, seed, 12);
        let serial = sweep(&Pool::new(1), &requests);
        for threads in [2usize, 8, 16] {
            let parallel = sweep(&Pool::new(threads), &requests);
            prop_assert_eq!(&serial, &parallel, "threads = {}", threads);

            prop_assert_eq!(
                Aggregate::of(&serial).to_json().render(),
                Aggregate::of(&parallel).to_json().render()
            );
        }
    }

    /// Chunk plans set scheduling granularity, never results: cost hints
    /// skewed over four orders of magnitude — lone heavy cells, long
    /// cheap runs — at any thread count merge to the serial report
    /// vector.
    #[test]
    fn reports_identical_across_chunk_plans(
        seed in any::<u64>(),
        log_costs in proptest::collection::vec(0u32..16, 18),
        threads in proptest::sample::select(vec![2usize, 8, 16]),
    ) {
        let requests = grid(Family::Torus, 16, seed, 18);
        let serial = sweep(&Pool::new(1), &requests);
        let costs: Vec<u64> = log_costs.iter().map(|&e| 1 << e).collect();
        let plan = ChunkPlan::from_costs(&costs, threads);
        let opts = SweepOptions { costs: Some(costs), ..SweepOptions::default() };
        let chunked = run_supervised_batch(&Pool::new(threads), &requests, &opts);
        prop_assert_eq!(&serial, &chunked.reports(), "threads = {}, plan = {:?}", threads, plan);
        prop_assert_eq!(chunked.sched.tasks as usize, requests.len());
        prop_assert_eq!(chunked.sched.chunks as usize, plan.len());
    }
}

/// A deterministic (non-property) pin of the same contract, so the
/// guarantee is exercised even when proptest shrinks its case budget.
#[test]
fn fixed_grid_is_thread_count_invariant() {
    let requests = grid(Family::Cycle, 16, 2006, 24);
    let serial = sweep(&Pool::new(1), &requests);
    assert_eq!(serial.len(), 24);
    assert!(serial.iter().any(|r| r.outcome().is_some()));
    for threads in [2, 3, 8, 16] {
        assert_eq!(serial, sweep(&Pool::new(threads), &requests));
    }
}
