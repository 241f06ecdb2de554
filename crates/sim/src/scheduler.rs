//! Delivery schedulers: the adversary that orders in-flight messages.
//!
//! The paper's upper bounds hold under *total asynchrony* — any delivery
//! order the adversary picks. The engine models this by keeping a pool of
//! in-flight messages and letting a [`SchedulerKind`] choose which one is
//! delivered next. Synchronous execution (used by the lower bounds) is a
//! mode of the engine itself, not a scheduler.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// The delivery orders exercised by the scheduler-sweep experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SchedulerKind {
    /// Deliver the oldest in-flight message first (per-network FIFO).
    Fifo,
    /// Deliver the newest in-flight message first — a depth-first
    /// adversary that starves early messages as long as possible.
    Lifo,
    /// Deliver a uniformly random in-flight message (seeded).
    Random {
        /// RNG seed; runs are reproducible given the seed.
        seed: u64,
    },
    /// Greedily delay every message carrying the source bit: deliver the
    /// oldest *uninformed* message while any exists, an informed one only
    /// when nothing else is in flight. The worst legal adversary for
    /// dissemination progress — it forces every control conversation to
    /// finish before letting the source message advance.
    Starve,
}

impl SchedulerKind {
    /// All kinds (with a fixed seed for the random one), for sweeps.
    pub fn sweep(seed: u64) -> [SchedulerKind; 4] {
        [
            SchedulerKind::Fifo,
            SchedulerKind::Lifo,
            SchedulerKind::Random { seed },
            SchedulerKind::Starve,
        ]
    }

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::Lifo => "lifo",
            SchedulerKind::Random { .. } => "random",
            SchedulerKind::Starve => "starve",
        }
    }

    pub(crate) fn instantiate(&self) -> Scheduler {
        match self {
            SchedulerKind::Fifo => Scheduler::Fifo,
            SchedulerKind::Lifo => Scheduler::Lifo,
            SchedulerKind::Random { seed } => Scheduler::Random(StdRng::seed_from_u64(*seed)),
            SchedulerKind::Starve => Scheduler::Starve,
        }
    }
}

/// Instantiated scheduler state.
pub(crate) enum Scheduler {
    Fifo,
    Lifo,
    Random(StdRng),
    Starve,
}

impl Scheduler {
    /// Removes and returns the next in-flight message, or `None` on an
    /// empty pool. FIFO pops the front, LIFO the back, and the random
    /// scheduler swaps its pick to the front first (uniform over the
    /// remaining pool either way) — all O(1). The starving scheduler
    /// delivers the oldest message for which `is_starved` is `false`,
    /// falling back to the front when every message is starved; this scans
    /// the pool (O(n)).
    pub(crate) fn take<T>(
        &mut self,
        pending: &mut std::collections::VecDeque<T>,
        is_starved: impl Fn(&T) -> bool,
    ) -> Option<T> {
        match self {
            Scheduler::Fifo => pending.pop_front(),
            Scheduler::Lifo => pending.pop_back(),
            Scheduler::Random(rng) => {
                if pending.is_empty() {
                    return None;
                }
                let idx = rng.gen_range(0..pending.len());
                pending.swap(0, idx);
                pending.pop_front()
            }
            Scheduler::Starve => {
                let idx = pending.iter().position(|m| !is_starved(m)).unwrap_or(0);
                pending.remove(idx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn drain(kind: SchedulerKind, items: Vec<u32>) -> Vec<u32> {
        drain_starving(kind, items, |_| false)
    }

    fn drain_starving(
        kind: SchedulerKind,
        items: Vec<u32>,
        is_starved: impl Fn(&u32) -> bool,
    ) -> Vec<u32> {
        let mut s = kind.instantiate();
        let mut pool: VecDeque<u32> = items.into();
        let mut out = Vec::new();
        while let Some(next) = s.take(&mut pool, &is_starved) {
            out.push(next);
        }
        out
    }

    #[test]
    fn fifo_takes_front_lifo_takes_back() {
        assert_eq!(drain(SchedulerKind::Fifo, vec![1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(drain(SchedulerKind::Lifo, vec![1, 2, 3]), vec![3, 2, 1]);
    }

    #[test]
    fn random_is_reproducible_and_a_permutation() {
        let kind = SchedulerKind::Random { seed: 99 };
        let a = drain(kind, (0..50).collect());
        let b = drain(kind, (0..50).collect());
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(a, (0..50).collect::<Vec<u32>>(), "seed 99 should shuffle");
    }

    #[test]
    fn starve_delays_marked_messages_to_the_end() {
        // Odd values are "informed": they must come out only after every
        // even value, preserving FIFO order within each class.
        let out = drain_starving(SchedulerKind::Starve, vec![1, 2, 3, 4, 5, 6], |x| {
            x % 2 == 1
        });
        assert_eq!(out, vec![2, 4, 6, 1, 3, 5]);
        // All-starved pool degenerates to FIFO.
        let out = drain_starving(SchedulerKind::Starve, vec![1, 3, 5], |x| x % 2 == 1);
        assert_eq!(out, vec![1, 3, 5]);
    }

    #[test]
    fn starve_ignores_predicate_false_pools() {
        assert_eq!(drain(SchedulerKind::Starve, vec![7, 8, 9]), vec![7, 8, 9]);
    }

    #[test]
    fn sweep_names_are_distinct() {
        let names: Vec<&str> = SchedulerKind::sweep(1).iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["fifo", "lifo", "random", "starve"]);
    }
}
