//! The batch executor: cells cut into cost-sized chunks, scoped worker
//! threads over `std::thread` — no external dependencies — claiming
//! chunks through one shared cursor, and results merged by cell index.
//!
//! * a batch of `jobs` cells is first cut into **chunks** of contiguous
//!   cell indices by a [`ChunkPlan`], sized by per-cell **cost hints**
//!   from the grid layer so cheap cells share a chunk while expensive
//!   cells get chunks of their own,
//! * each worker `fetch_add`s the next chunk index off one atomic cursor
//!   and exits once the cursor passes the end, never waiting on a
//!   sibling's chunk,
//! * the *sub-tasks* inside a chunk (individual cells) execute in index
//!   order on whichever worker claimed it, and the merge is by chunk
//!   index — never completion order — so results are byte-identical at
//!   any thread count and under any chunk plan.
//!
//! Scheduling telemetry ([`SchedStats`]: chunk count, per-worker busy
//! share) depends on OS timing and therefore **must never enter a
//! byte-pinned artifact**: it is rendered only into human-readable report
//! footers, alongside the wall-clock lines the CI smoke jobs strip before
//! diffing.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many chunks each worker should see on average when a plan is cut:
/// enough surplus that a worker stuck on a heavy chunk leaves the rest to
/// its siblings, few enough that per-chunk cursor traffic is negligible.
const CHUNKS_PER_WORKER: usize = 8;

/// A contiguous block of cell indices `[start, end)` scheduled as one
/// task, carrying the summed cost hint it was sized by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First cell index in the chunk.
    pub start: usize,
    /// One past the last cell index.
    pub end: usize,
    /// Summed cost hint of the covered cells (scheduling only — never
    /// part of any result).
    pub cost: u64,
}

impl Chunk {
    /// Number of sub-tasks (cells) in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the chunk covers no cells.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// A partition of `0..jobs` into contiguous [`Chunk`]s.
///
/// The plan decides *granularity*, never *results*: any plan over the
/// same job count yields byte-identical merged output, because sub-task
/// results merge by cell index. Plans exist so the pool has more tasks
/// than workers without paying per-cell cursor traffic on 10⁵-cell
/// sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    chunks: Vec<Chunk>,
    jobs: usize,
}

impl ChunkPlan {
    /// Cuts cells into chunks sized by per-cell cost hints: contiguous
    /// cells accumulate until the chunk's summed cost reaches the target
    /// (total cost spread over `workers × CHUNKS_PER_WORKER` chunks), so
    /// a run of cheap cells shares one chunk while a cell whose own cost
    /// meets the target is scheduled alone. Zero hints count as cost 1.
    pub fn from_costs(costs: &[u64], workers: usize) -> ChunkPlan {
        let jobs = costs.len();
        let total: u64 = costs.iter().map(|&c| c.max(1)).sum();
        let lanes = (workers.max(1) * CHUNKS_PER_WORKER) as u64;
        let target = (total / lanes).max(1);
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut acc = 0u64;
        for (i, &c) in costs.iter().enumerate() {
            acc += c.max(1);
            if acc >= target {
                chunks.push(Chunk {
                    start,
                    end: i + 1,
                    cost: acc,
                });
                start = i + 1;
                acc = 0;
            }
        }
        if start < jobs {
            chunks.push(Chunk {
                start,
                end: jobs,
                cost: acc,
            });
        }
        ChunkPlan { chunks, jobs }
    }

    /// Total cells covered by the plan.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The chunks, in ascending cell order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// `true` when the plan covers no cells.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// Scheduling telemetry for one dispatch.
///
/// Everything here describes *how* the batch was executed, not *what* it
/// computed — which worker claims which chunk depends on OS timing, so
/// none of these numbers may be written into a byte-pinned artifact or
/// journal. They render into human-readable report footers only (see
/// [`SchedStats::footer`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Workers that participated in the dispatch.
    pub workers: usize,
    /// Chunks in the executed plan.
    pub chunks: u64,
    /// Sub-tasks (cells) executed.
    pub tasks: u64,
    /// Always 0: the shared cursor never steals. Kept only for the
    /// benchmark's `sched.steals` metric, which reads it.
    pub steals: u64,
    /// Always 0: the shared cursor takes no lock. Kept only for the
    /// benchmark's `sched.contended` metric, which reads it.
    pub contended: u64,
    /// Summed cost hints executed per worker.
    pub worker_cost: Vec<u64>,
}

impl SchedStats {
    /// The stats of a serial (single-worker) dispatch over `plan`.
    pub fn serial(plan: &ChunkPlan) -> SchedStats {
        SchedStats {
            workers: 1,
            chunks: plan.len() as u64,
            tasks: plan.jobs() as u64,
            worker_cost: vec![plan.chunks().iter().map(|c| c.cost).sum()],
            ..SchedStats::default()
        }
    }

    /// Per-worker busy share: each worker's executed cost over the total.
    /// A work-share proxy, deliberately wall-clock-free — the runtime
    /// never reads a clock (lint rule D002).
    pub fn busy_fractions(&self) -> Vec<f64> {
        let total: u64 = self.worker_cost.iter().sum();
        if total == 0 {
            return vec![0.0; self.workers];
        }
        self.worker_cost
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Folds another dispatch's stats into this one (summing counters,
    /// adding per-worker costs element-wise).
    pub fn merge(&mut self, other: &SchedStats) {
        self.workers = self.workers.max(other.workers);
        self.chunks += other.chunks;
        self.tasks += other.tasks;
        if self.worker_cost.len() < other.worker_cost.len() {
            self.worker_cost.resize(other.worker_cost.len(), 0);
        }
        for (w, &c) in other.worker_cost.iter().enumerate() {
            self.worker_cost[w] += c;
        }
    }

    /// Renders the throughput footer line: runs/sec (when the caller
    /// measured one at its wall-clock edge), chunk count, and per-worker
    /// busy fractions.
    ///
    /// The returned line is for human-readable reports only; CI smoke
    /// jobs strip it (like the wall-clock `completed in` lines) before
    /// diffing reports across thread counts.
    pub fn footer(&self, runs_per_sec: Option<f64>) -> String {
        let rate = match runs_per_sec {
            Some(r) => format!("{r:.1} runs/sec, "),
            None => String::new(),
        };
        let busy: Vec<String> = self
            .busy_fractions()
            .iter()
            .map(|f| format!("{f:.2}"))
            .collect();
        format!(
            "{rate}{} runs in {} chunks; {} worker(s) busy [{}]",
            self.tasks,
            self.chunks,
            self.workers,
            busy.join(", ")
        )
    }
}

/// A fixed-width worker pool.
///
/// [`Pool::run_chunked`] fans a [`ChunkPlan`] of sub-tasks out to
/// `threads` scoped workers that claim chunks off one shared cursor.
/// Every chunk's results come back tagged with its index, so the returned
/// `Vec` is always in job order no matter which worker finished which
/// chunk first — the root of the runtime's thread-count-independence
/// guarantee.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    /// A serial pool (one worker) — the deterministic baseline.
    fn default() -> Self {
        Pool::new(1)
    }
}

impl Pool {
    /// A pool with the given number of workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every sub-task of `plan` across the pool and returns the
    /// results **in index order** plus the dispatch's scheduling
    /// telemetry.
    ///
    /// With one worker (or one chunk) this degenerates to a plain loop
    /// on the calling thread — no spawn overhead for the serial case.
    /// The results are byte-identical at any thread count and under any
    /// plan; only the [`SchedStats`] busy shares vary, which is why they
    /// are returned out-of-band instead of being woven into the reports.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any sub-task. The other workers run on
    /// until the cursor passes the end — none waits on the dead chunk —
    /// and the scope joins them all first.
    pub fn run_chunked<T, F>(&self, plan: &ChunkPlan, f: F) -> (Vec<T>, SchedStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(plan.len());
        if workers <= 1 {
            return ((0..plan.jobs()).map(f).collect(), SchedStats::serial(plan));
        }
        let chunks = plan.chunks();
        // `Relaxed` suffices: the cursor publishes no data — each
        // `fetch_add` hands out a distinct index — and the results reach
        // this thread through the joins.
        let cursor = AtomicUsize::new(0);
        // Each worker returns the chunks it claimed, in claim order, each
        // tagged with its index into the plan.
        #[expect(
            clippy::disallowed_methods,
            reason = "the pool is where parallelism lives: results merge by chunk index"
        )]
        let claimed: Vec<Vec<(usize, Vec<T>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut ran = Vec::new();
                        loop {
                            let k = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(chunk) = chunks.get(k) else {
                                return ran;
                            };
                            ran.push((k, (chunk.start..chunk.end).map(&f).collect()));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let worker_cost = claimed
            .iter()
            .map(|ran| ran.iter().map(|&(k, _)| chunks[k].cost).sum())
            .collect();
        let mut by_chunk: Vec<(usize, Vec<T>)> = claimed.into_iter().flatten().collect();
        by_chunk.sort_unstable_by_key(|&(k, _)| k);
        let results = by_chunk.into_iter().flat_map(|(_, out)| out).collect();
        let stats = SchedStats {
            workers,
            worker_cost,
            ..SchedStats::serial(plan)
        };
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` over `0..jobs` under a unit-cost plan.
    fn run<T: Send>(pool: Pool, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        pool.run_chunked(&ChunkPlan::from_costs(&vec![1; jobs], pool.threads()), f)
            .0
    }

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = run(Pool::new(threads), 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        assert!(run(Pool::new(4), 0, |i| i).is_empty());
        assert!(ChunkPlan::from_costs(&[], 4).is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(run(Pool::new(0), 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn more_threads_than_jobs() {
        assert_eq!(run(Pool::new(16), 2, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn cost_plans_isolate_expensive_cells() {
        // 16 cheap cells around one cell that dwarfs the target: the big
        // cell must not drag a long cheap tail into its chunk.
        let mut costs = vec![1u64; 17];
        costs[8] = 1_000;
        let plan = ChunkPlan::from_costs(&costs, 2);
        assert_eq!(plan.jobs(), 17);
        let covered: usize = plan.chunks().iter().map(Chunk::len).sum();
        assert_eq!(covered, 17);
        let big = plan
            .chunks()
            .iter()
            .find(|c| (c.start..c.end).contains(&8))
            .expect("cell 8 is covered");
        assert_eq!(big.end, 9, "the expensive cell closes its chunk");
    }

    #[test]
    fn cost_plans_batch_cheap_cells() {
        let costs = vec![1u64; 1_000];
        let plan = ChunkPlan::from_costs(&costs, 4);
        // ~ workers × CHUNKS_PER_WORKER chunks, not one per cell.
        assert!(plan.len() <= 4 * CHUNKS_PER_WORKER + 1, "{}", plan.len());
        assert!(plan.len() >= 4, "{}", plan.len());
        let mut covered = Vec::new();
        for c in plan.chunks() {
            assert!(!c.is_empty());
            covered.extend(c.start..c.end);
        }
        assert_eq!(covered, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_results_match_serial_for_any_plan() {
        let serial: Vec<usize> = (0..101).map(|i| i * 3 + 1).collect();
        let skewed: Vec<u64> = (0..101).map(|i| (i % 7) * (i % 13) * 50).collect();
        for threads in [2usize, 3, 8, 16] {
            for costs in [vec![5u64; 101], vec![1_000; 101], skewed.clone()] {
                let plan = ChunkPlan::from_costs(&costs, threads);
                let (out, stats) = Pool::new(threads).run_chunked(&plan, |i| i * 3 + 1);
                assert_eq!(out, serial, "threads {threads}, plan {plan:?}");
                assert_eq!(stats.tasks, 101);
                assert_eq!(stats.chunks, plan.len() as u64);
                let cost: u64 = plan.chunks().iter().map(|c| c.cost).sum();
                assert_eq!(stats.worker_cost.iter().sum::<u64>(), cost);
                assert_eq!((stats.steals, stats.contended), (0, 0));
            }
        }
    }

    #[test]
    fn serial_chunked_runs_report_one_busy_worker() {
        let (out, stats) = Pool::new(1).run_chunked(&ChunkPlan::from_costs(&[1; 5], 1), |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.busy_fractions(), vec![1.0]);
    }

    #[test]
    fn stats_merge_and_render() {
        let mut a = SchedStats::serial(&ChunkPlan::from_costs(&[1; 10], 1));
        let b = SchedStats {
            workers: 2,
            chunks: 4,
            tasks: 8,
            worker_cost: vec![5, 3],
            ..SchedStats::default()
        };
        a.merge(&b);
        assert_eq!(a.workers, 2);
        assert_eq!(a.chunks, 14);
        assert_eq!(a.tasks, 18);
        assert_eq!(a.worker_cost, vec![15, 3]);
        let footer = a.footer(Some(120.0));
        assert!(footer.contains("120.0 runs/sec"), "{footer}");
        assert!(footer.contains("18 runs in 14 chunks"), "{footer}");
        assert!(footer.contains("busy [0.83, 0.17]"), "{footer}");
    }

    #[test]
    fn panicking_sub_tasks_propagate_without_wedging_the_pool() {
        let caught = std::panic::catch_unwind(|| {
            Pool::new(4).run_chunked(&ChunkPlan::from_costs(&[1; 64], 4), |i| {
                assert!(i != 17, "injected failure");
                i
            })
        });
        assert!(caught.is_err(), "the job panic must propagate");
    }
}
