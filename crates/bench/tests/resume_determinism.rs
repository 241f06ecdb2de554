//! Artifact-level crash/resume determinism for the grid experiments.
//!
//! The runtime's `tests/resume.rs` pins the report-level contract; these
//! tests pin the end product: the merged `BENCH_T10.json` /
//! `BENCH_T20.json` artifacts are byte-identical whether a sweep ran
//! uninterrupted or was killed at a random cell and resumed from its
//! checkpoint journal, at any thread count — and both match the bytes
//! committed at the repository root.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use oraclesize_bench::experiments::run_experiment;
use oraclesize_bench::grid::ExpOptions;
use oraclesize_runtime::ChaosPlan;
use proptest::prelude::*;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "oraclesize-resume-determinism-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn artifact(dir: &Path, id: &str) -> Vec<u8> {
    let path = dir.join(format!("BENCH_{}.json", id.to_uppercase()));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn committed(id: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{}.json", id.to_uppercase()));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The uninterrupted serial artifact for `id`, computed once per test
/// process and checked against the committed bytes on first use.
fn clean(id: &str) -> &'static [u8] {
    static T10: OnceLock<Vec<u8>> = OnceLock::new();
    static T20: OnceLock<Vec<u8>> = OnceLock::new();
    let cell = match id {
        "t10" => &T10,
        "t20" => &T20,
        other => panic!("unexpected id {other:?}"),
    };
    cell.get_or_init(|| {
        let dir = scratch(&format!("clean-{id}"));
        let opts = ExpOptions {
            json_dir: Some(dir.clone()),
            ..Default::default()
        };
        run_experiment(id, &opts).expect("clean run succeeds");
        let bytes = artifact(&dir, id);
        assert_eq!(
            bytes,
            committed(id),
            "{id}: clean serial artifact diverged from the committed BENCH file"
        );
        std::fs::remove_dir_all(&dir).ok();
        bytes
    })
}

#[test]
fn clean_artifacts_match_committed_bytes() {
    clean("t10");
    clean("t20");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill a sweep at a random cell — with workers interleaving when the
    /// thread count oversubscribes the machine — resume it at a random
    /// thread count, and require the merged artifact to match the
    /// committed bytes exactly.
    #[test]
    fn killed_and_resumed_artifacts_match_committed_bytes(
        id in proptest::sample::select(vec!["t10", "t20"]),
        kill in 1usize..12,
        threads in proptest::sample::select(vec![1usize, 2, 8, 16]),
    ) {
        let expected = clean(id);
        let dir = scratch(&format!("{id}-{kill}-{threads}"));
        let journal_dir = dir.join("journal");
        let killed = ExpOptions {
            threads,
            journal_dir: Some(journal_dir.clone()),
            chaos: ChaosPlan::new().die_before(kill),
            ..Default::default()
        };
        let err = run_experiment(id, &killed)
            .expect_err("a killed sweep must refuse to publish");
        prop_assert!(err.contains("interrupted"), "{err}");

        let resumed = ExpOptions {
            threads,
            json_dir: Some(dir.clone()),
            journal_dir: Some(journal_dir),
            resume: true,
            ..Default::default()
        };
        let report = run_experiment(id, &resumed).expect("resumed run completes");
        prop_assert!(report.contains("resumed"), "{report}");
        prop_assert_eq!(artifact(&dir, id), expected, "{}: resumed artifact diverged", id);
        std::fs::remove_dir_all(&dir).ok();
    }
}
