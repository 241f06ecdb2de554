//! Shard execution equivalence: a sweep split into shard ranges produces
//! the same reports as one whole run, and its segment journals merge into
//! exactly the bytes a whole-sweep journal holds.

use std::path::PathBuf;
use std::sync::Arc;

use oraclesize_core::oracle::EmptyOracle;
use oraclesize_graph::families;
use oraclesize_runtime::journal::{load, merge_segments};
use oraclesize_runtime::{
    run_supervised_batch, CellStatus, Journal, Pool, RunRequest, SweepOptions,
};
use oraclesize_sim::protocol::FloodOnce;
use oraclesize_sim::{Instance, SimConfig};

fn requests(n: usize) -> Vec<RunRequest> {
    let inst = Instance::build(Arc::new(families::cycle(8)), 0, &EmptyOracle);
    (0..n)
        .map(|_| RunRequest::new(Arc::clone(&inst), Arc::new(FloodOnce), SimConfig::default()))
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oraclesize-shard-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sweep-wide seeds that differ from the cell indices, so a shard that
/// indexed them by shard-local position would journal the wrong seed.
fn seeds(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 1000 + 7 * i).collect()
}

#[test]
fn shards_reproduce_the_whole_sweep_and_their_segments_merge() {
    let reqs = requests(6);
    let dir = temp_dir("merge");
    let whole_path = dir.join("whole.journal");
    let whole_opts = SweepOptions {
        journal: Some(whole_path.clone()),
        seeds: Some(seeds(reqs.len())),
        ..Default::default()
    };
    let pool = Pool::new(2);
    let whole = run_supervised_batch(&pool, &reqs, &whole_opts);
    assert!(whole.warnings.is_empty(), "{:?}", whole.warnings);

    let mut shard_reports = Vec::new();
    let mut segments = Vec::new();
    for (lo, hi) in [(0usize, 2usize), (2, 5), (5, 6)] {
        let path = dir.join(format!("shard-{lo}-{hi}.journal"));
        let opts = SweepOptions {
            journal: Some(path.clone()),
            shard: Some(lo..hi),
            ..whole_opts.clone()
        };
        // Every shard gets the full request list; the range picks its cells.
        let run = run_supervised_batch(&pool, &reqs, &opts);
        assert!(run.warnings.is_empty(), "{:?}", run.warnings);
        assert_eq!(run.cells.len(), hi - lo);
        shard_reports.extend(run.reports());
        let segment = load(&path, reqs.len(), lo..hi).unwrap();
        // Records carry the sweep-wide cell and that cell's spec seed.
        let journaled: Vec<(usize, u64)> =
            segment.records.iter().map(|r| (r.cell, r.seed)).collect();
        let expected: Vec<(usize, u64)> = (lo..hi).map(|c| (c, seeds(reqs.len())[c])).collect();
        assert_eq!(journaled, expected);
        segments.push(segment);
    }
    // Reports carry sweep-wide cell ids and match the whole sweep exactly.
    assert_eq!(shard_reports, whole.reports());
    // Merged segment records are the whole journal's records ...
    let merged = merge_segments(segments);
    let reference = load(&whole_path, reqs.len(), 0..reqs.len()).unwrap();
    assert!(merged.warnings.is_empty(), "{:?}", merged.warnings);
    assert_eq!(merged.records, reference.records);
    // ... and re-journaled they reproduce its bytes.
    let merged_path = dir.join("merged.journal");
    let mut journal = Journal::create(&merged_path, reqs.len()).unwrap();
    for rec in &merged.records {
        journal.append(rec.cell, rec.seed, &rec.report).unwrap();
    }
    assert_eq!(
        std::fs::read(&merged_path).unwrap(),
        std::fs::read(&whole_path).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_ranges_are_clamped_to_the_sweep() {
    let reqs = requests(4);
    let pool = Pool::new(1);
    let tail = SweepOptions {
        shard: Some(2..99),
        ..Default::default()
    };
    let run = run_supervised_batch(&pool, &reqs, &tail);
    let cells: Vec<usize> = run.reports().iter().map(|r| r.cell).collect();
    assert_eq!(cells, vec![2, 3]);
    let past_the_end = SweepOptions {
        shard: Some(7..9),
        ..Default::default()
    };
    assert!(run_supervised_batch(&pool, &reqs, &past_the_end)
        .cells
        .is_empty());
}

#[test]
fn shard_resumes_from_its_segment() {
    let reqs = requests(5);
    let dir = temp_dir("resume");
    let path = dir.join("shard.journal");
    let opts = SweepOptions {
        journal: Some(path.clone()),
        seeds: Some(seeds(reqs.len())),
        shard: Some(1..4),
        ..Default::default()
    };
    let pool = Pool::new(1);
    let first = run_supervised_batch(&pool, &reqs, &opts);
    let resumed = run_supervised_batch(
        &pool,
        &reqs,
        &SweepOptions {
            resume: true,
            ..opts
        },
    );
    assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
    assert_eq!(resumed.reports(), first.reports());
    assert!(resumed
        .cells
        .iter()
        .all(|c| matches!(c.status, CellStatus::Resumed)));
    std::fs::remove_dir_all(&dir).ok();
}
