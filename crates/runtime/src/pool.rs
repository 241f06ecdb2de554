//! The executor half of the batch scheduler: scoped worker threads over
//! `std::thread` — no external dependencies — driving
//! [`crate::sched::Scheduler`] and merging results into per-index slots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::sched::{ChunkPlan, SchedStats, SchedTask, Scheduler};

/// A fixed-width worker pool.
///
/// [`Pool::run_chunked`] fans a [`ChunkPlan`] of sub-tasks out to
/// `threads` scoped workers through the work-stealing
/// [`Scheduler`]: each worker drains its own chunk deque, refills from
/// the injector, and steals from siblings when dry. Every sub-task's
/// result lands in its own per-index slot, so the returned `Vec` is
/// always in job order no matter which worker finished which sub-task
/// first — the root of the runtime's thread-count-independence
/// guarantee, preserved under any chunk plan and any steal schedule.
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

/// Decrements the scheduler's in-flight count even when a sub-task
/// panics: without this, sibling workers would spin on
/// [`SchedTask::Retry`] forever waiting for a chunk that died with its
/// worker (the scope only propagates the panic after every worker
/// exits).
struct FinishGuard<'a>(&'a Scheduler);

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.0.finish_chunk();
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
    /// plan; only the [`SchedStats`] (steals, contention, busy shares)
    /// vary, which is why they are returned out-of-band instead of
    /// being woven into the reports.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any sub-task (the scope joins all workers
    /// first).
    pub fn run_chunked<T, F>(&self, plan: &ChunkPlan, f: F) -> (Vec<T>, SchedStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let jobs = plan.jobs();
        let workers = self.threads.min(plan.len());
        if workers <= 1 {
            return ((0..jobs).map(f).collect(), SchedStats::serial(plan));
        }
        // One mutex per slot: a worker only ever touches the slots of the
        // sub-tasks it claimed, so there is no contention — the mutex is
        // just the safe way to hand &mut access to scoped threads.
        let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let sched = Scheduler::new(plan, workers);
        let worker_tasks: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let worker_cost: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let sched = &sched;
                let slots = &slots;
                let f = &f;
                let tasks = &worker_tasks;
                let cost = &worker_cost;
                scope.spawn(move || loop {
                    match sched.next_task(w) {
                        SchedTask::Run(chunk) => {
                            let guard = FinishGuard(sched);
                            let claimed =
                                slots.iter().enumerate().skip(chunk.start).take(chunk.len());
                            for (i, slot) in claimed {
                                let result = f(i);
                                // A poisoned slot only means another
                                // sub-task panicked; the scope will
                                // propagate that panic on join, and this
                                // write is still well-defined.
                                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                            }
                            tasks[w].fetch_add(chunk.len() as u64, Ordering::Relaxed);
                            cost[w].fetch_add(chunk.cost, Ordering::Relaxed);
                            drop(guard);
                        }
                        SchedTask::Retry => std::thread::yield_now(),
                        SchedTask::Done => break,
                    }
                });
            }
        });
        let stats = SchedStats {
            workers,
            chunks: plan.len() as u64,
            tasks: jobs as u64,
            steals: sched.steals(),
            contended: sched.contended(),
            worker_tasks: worker_tasks
                .iter()
                .map(|t| t.load(Ordering::Relaxed))
                .collect(),
            worker_cost: worker_cost
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        };
        let results = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // lint:allow(P001): the scheduler hands every chunk to
                    // exactly one worker, chunks cover every index exactly
                    // once, and the scope joins all workers before this
                    // drain — an empty slot is impossible.
                    .expect("every index claimed exactly once")
            })
            .collect();
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` over `0..jobs` under the balanced plan.
    fn run<T: Send>(pool: Pool, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        pool.run_chunked(&ChunkPlan::balanced(jobs, pool.threads()), f)
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
    fn chunked_results_match_serial_for_any_plan() {
        let serial: Vec<usize> = (0..101).map(|i| i * 3 + 1).collect();
        for threads in [2usize, 3, 8, 16] {
            for plan in [
                ChunkPlan::uniform(101, 1),
                ChunkPlan::uniform(101, 7),
                ChunkPlan::uniform(101, 64),
                ChunkPlan::balanced(101, threads),
                ChunkPlan::from_costs(&vec![5u64; 101], threads),
            ] {
                let (out, stats) = Pool::new(threads).run_chunked(&plan, |i| i * 3 + 1);
                assert_eq!(out, serial, "threads {threads}, plan {plan:?}");
                assert_eq!(stats.tasks, 101);
                assert_eq!(stats.chunks, plan.len() as u64);
                assert_eq!(stats.worker_tasks.iter().sum::<u64>(), 101);
            }
        }
    }

    #[test]
    fn serial_chunked_runs_report_one_busy_worker() {
        let (out, stats) = Pool::new(1).run_chunked(&ChunkPlan::uniform(5, 2), |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.busy_fractions(), vec![1.0]);
    }

    #[test]
    fn panicking_sub_tasks_propagate_without_wedging_the_pool() {
        let caught = std::panic::catch_unwind(|| {
            Pool::new(4).run_chunked(&ChunkPlan::uniform(64, 2), |i| {
                assert!(i != 17, "injected failure");
                i
            })
        });
        assert!(caught.is_err(), "the job panic must propagate");
    }
}
