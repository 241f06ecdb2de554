//! The failure model, exercised end to end: supervised sweeps must
//! survive injected panics, runaway cells, mid-flight kills, and torn
//! journal writes — and a killed-and-resumed sweep must produce
//! exactly the reports of an uninterrupted run, at any thread count.

use std::path::PathBuf;
use std::sync::Arc;

use oraclesize_core::oracle::EmptyOracle;
use oraclesize_graph::families::Family;
use oraclesize_runtime::{
    chaos, run_supervised_batch, CellStatus, ChaosPlan, Pool, RunReport, RunRequest,
    SuperviseConfig, SweepOptions,
};
use oraclesize_sim::protocol::FloodOnce;
use oraclesize_sim::{FaultPlan, Instance, SchedulerKind, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An untraced cell grid (traced cells are exercised by the batch suite;
/// the journal deliberately re-runs them, so resume tests stay untraced
/// to cover the replay path).
fn grid(fam: Family, n: usize, seed: u64, cells: usize) -> Vec<RunRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = Arc::new(fam.build(n, &mut rng));
    let source = seed as usize % g.num_nodes();
    let instance = Instance::build(g, source, &EmptyOracle);
    let protocol: Arc<dyn oraclesize_sim::protocol::Protocol + Send + Sync> = Arc::new(FloodOnce);
    (0..cells)
        .map(|cell| {
            let cell_seed = seed.wrapping_add(cell as u64);
            // Even cells: synchronous and faulty; odd cells: fault-free
            // under a scheduler.
            let config = if cell % 2 == 0 {
                SimConfig::broadcast()
                    .with_faults(FaultPlan::message_faults(cell_seed, 0.1, 0.1, 0.2))
            } else {
                SimConfig::broadcast().with_scheduler(match cell % 3 {
                    0 => SchedulerKind::Fifo,
                    1 => SchedulerKind::Lifo,
                    _ => SchedulerKind::Random { seed: cell_seed },
                })
            };
            RunRequest::new(Arc::clone(&instance), Arc::clone(&protocol), config)
        })
        .collect()
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oraclesize-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.journal"))
}

/// The uninterrupted serial run every failure path must converge to.
fn clean_reports(requests: &[RunRequest]) -> Vec<RunReport> {
    run_supervised_batch(&Pool::new(1), requests, &SweepOptions::default()).reports()
}

fn options(journal: Option<PathBuf>) -> SweepOptions {
    SweepOptions {
        journal,
        ..SweepOptions::default()
    }
}

/// The in-order committer's guarantee: journal *bytes* — not just loaded
/// records — are identical at any thread count, even though workers
/// finish cells out of order. The CI determinism-smoke job diffs exactly
/// these bytes against a serial run.
#[test]
fn journal_bytes_are_identical_across_thread_counts() {
    let requests = grid(Family::Torus, 12, 99, 14);
    let serial_path = temp_journal("bytes-serial");
    run_supervised_batch(
        &Pool::new(1),
        &requests,
        &options(Some(serial_path.clone())),
    );
    let serial_bytes = std::fs::read(&serial_path).unwrap();
    assert!(!serial_bytes.is_empty());
    for threads in [2usize, 8, 16] {
        let path = temp_journal(&format!("bytes-{threads}"));
        run_supervised_batch(&Pool::new(threads), &requests, &options(Some(path.clone())));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            bytes, serial_bytes,
            "journal bytes diverged at threads = {threads}"
        );
    }
    std::fs::remove_file(&serial_path).ok();
}

#[test]
fn injected_panic_aborts_only_that_cell() {
    let requests = grid(Family::Path, 8, 7, 6);
    let opts = SweepOptions {
        chaos: ChaosPlan::new().panic_at(4),
        ..SweepOptions::default()
    };
    let sweep = run_supervised_batch(&Pool::new(2), &requests, &opts);
    assert_eq!(sweep.cells[4].status, CellStatus::Aborted);
    assert_eq!(sweep.cells[4].attempts, 1, "a panicking cell runs once");
    let err = sweep.cells[4].report.result.as_ref().unwrap_err();
    assert!(err.starts_with("panic: chaos: injected panic"), "{err}");
    // The other five cells completed untouched; the sweep itself survived.
    assert_eq!(
        sweep
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Completed)
            .count(),
        5
    );
    assert!(!sweep.interrupted);
}

#[test]
fn watchdog_timeout_aborts_runaway_cells() {
    // A 1-step budget makes every flood "runaway": the real engine
    // StepLimit path, not a chaos synthesis.
    let requests = grid(Family::Cycle, 10, 3, 2);
    let opts = SweepOptions {
        supervise: SuperviseConfig {
            cell_timeout: Some(1),
        },
        ..SweepOptions::default()
    };
    let sweep = run_supervised_batch(&Pool::new(1), &requests, &opts);
    for cell in &sweep.cells {
        assert_eq!(cell.status, CellStatus::Aborted);
        assert_eq!(cell.attempts, 1, "a runaway cell runs once");
        let err = cell.report.result.as_ref().unwrap_err();
        assert!(err.contains("step limit 1 exhausted"), "{err}");
    }
    assert!(
        sweep.summary().ends_with("2 aborted"),
        "{}",
        sweep.summary()
    );
}

#[test]
fn kill_and_resume_replays_journaled_cells() {
    let requests = grid(Family::RandomSparse, 14, 99, 9);
    let baseline = clean_reports(&requests);
    let path = temp_journal("kill-resume");
    let killed = run_supervised_batch(
        &Pool::new(1),
        &requests,
        &SweepOptions {
            chaos: ChaosPlan::new().die_before(5),
            ..options(Some(path.clone()))
        },
    );
    assert!(killed.interrupted);
    assert!(killed.cells[5..]
        .iter()
        .all(|c| c.status == CellStatus::Aborted && c.attempts == 0));
    let resumed = run_supervised_batch(
        &Pool::new(2),
        &requests,
        &SweepOptions {
            resume: true,
            ..options(Some(path))
        },
    );
    assert!(!resumed.interrupted);
    assert_eq!(resumed.reports(), baseline);
    assert_eq!(
        resumed
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Resumed)
            .count(),
        5
    );
}

#[test]
fn torn_journal_record_reruns_the_cell_on_resume() {
    let requests = grid(Family::Path, 10, 17, 6);
    let baseline = clean_reports(&requests);
    let path = temp_journal("torn");
    let killed = run_supervised_batch(
        &Pool::new(1),
        &requests,
        &SweepOptions {
            chaos: ChaosPlan::new().die_before(4),
            ..options(Some(path.clone()))
        },
    );
    assert!(killed.interrupted);
    // Tear into the final record, simulating a crash mid-write.
    chaos::tear_tail(&path, 9).unwrap();
    let resumed = run_supervised_batch(
        &Pool::new(1),
        &requests,
        &SweepOptions {
            resume: true,
            ..options(Some(path))
        },
    );
    assert!(!resumed.interrupted);
    assert_eq!(resumed.reports(), baseline, "torn cell re-ran cleanly");
    assert_eq!(
        resumed
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Resumed)
            .count(),
        3,
        "the torn record was dropped, the rest replayed"
    );
    assert!(
        resumed.warnings.iter().any(|w| w.contains("torn")),
        "{:?}",
        resumed.warnings
    );
}

#[test]
fn resume_against_a_different_grid_shape_reruns_everything() {
    let requests = grid(Family::Path, 10, 17, 6);
    let path = temp_journal("shape");
    run_supervised_batch(&Pool::new(1), &requests, &options(Some(path.clone())));
    let shorter = grid(Family::Path, 10, 17, 5);
    let resumed = run_supervised_batch(
        &Pool::new(1),
        &shorter,
        &SweepOptions {
            resume: true,
            ..options(Some(path))
        },
    );
    assert!(resumed
        .cells
        .iter()
        .all(|c| c.status == CellStatus::Completed));
    assert!(
        resumed
            .warnings
            .iter()
            .any(|w| w.contains("does not match")),
        "{:?}",
        resumed.warnings
    );
}

#[test]
fn seed_mismatch_reruns_the_cell() {
    let requests = grid(Family::Path, 10, 17, 4);
    let path = temp_journal("seed");
    run_supervised_batch(
        &Pool::new(1),
        &requests,
        &SweepOptions {
            seeds: Some(vec![1, 2, 3, 4]),
            ..options(Some(path.clone()))
        },
    );
    let resumed = run_supervised_batch(
        &Pool::new(1),
        &requests,
        &SweepOptions {
            resume: true,
            seeds: Some(vec![1, 2, 999, 4]),
            ..options(Some(path))
        },
    );
    let statuses: Vec<CellStatus> = resumed.cells.iter().map(|c| c.status).collect();
    assert_eq!(
        statuses,
        vec![
            CellStatus::Resumed,
            CellStatus::Resumed,
            CellStatus::Completed,
            CellStatus::Resumed
        ]
    );
    assert!(
        resumed.warnings.iter().any(|w| w.contains("seed")),
        "{:?}",
        resumed.warnings
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant at the report level: kill at a random cell
    /// — with workers interleaving when the thread count oversubscribes
    /// the machine — resume at a random thread count (possibly killing again), and the
    /// final reports equal an uninterrupted serial run's.
    #[test]
    fn killed_and_resumed_sweeps_match_uninterrupted_runs(
        fam in proptest::sample::select(Family::ALL.to_vec()),
        n in 4usize..20,
        seed in any::<u64>(),
        kill_a in 0usize..10,
        kill_b in 0usize..10,
        threads in proptest::sample::select(vec![1usize, 2, 8, 16]),
    ) {
        let cells = 10;
        let requests = grid(fam, n, seed, cells);
        let baseline = clean_reports(&requests);
        let path = temp_journal(&format!("prop-{seed}-{kill_a}-{kill_b}"));
        // First flight: fresh journal, killed at kill_a.
        let first = run_supervised_batch(&Pool::new(threads), &requests, &SweepOptions {
            chaos: ChaosPlan::new().die_before(kill_a),
            ..options(Some(path.clone()))
        });
        prop_assert!(first.interrupted || kill_a >= cells);
        // Second flight: resumed, killed again later on.
        let kill2 = kill_a.max(kill_b);
        let second = run_supervised_batch(&Pool::new(threads), &requests, &SweepOptions {
            resume: true,
            chaos: ChaosPlan::new().die_before(kill2),
            ..options(Some(path.clone()))
        });
        prop_assert!(second.interrupted || kill2 >= cells);
        // Final flight: resumed to completion.
        let last = run_supervised_batch(&Pool::new(threads), &requests, &SweepOptions {
            resume: true,
            ..options(Some(path.clone()))
        });
        std::fs::remove_file(&path).ok();
        prop_assert!(!last.interrupted);
        prop_assert_eq!(last.reports(), baseline);
        prop_assert!(last.cells.iter().all(|c| matches!(
            c.status,
            CellStatus::Completed | CellStatus::Resumed
        )));
    }
}
