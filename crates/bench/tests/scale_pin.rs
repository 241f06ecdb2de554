//! The SCALE curve, pinned record by record against the committed
//! `BENCH_SCALE.json`.
//!
//! The committed file also holds the million-node cells of `--large`;
//! this test regenerates the default curve (n = 1,035, 10,011 and
//! 100,128) and checks that each of its cells renders exactly as the
//! committed record with the same label.

use std::path::Path;

use oraclesize_bench::experiments::{run_experiment, scale_spec};
use oraclesize_bench::grid::ExpOptions;

/// The record of the cell labeled `label`: from its label to the end of
/// the record (the cell index before it depends on the enclosing sweep).
fn record<'a>(artifact: &'a str, label: &str) -> Option<&'a str> {
    let start = artifact.find(&format!("\"label\": \"{label}\","))?;
    let len = artifact[start..].find('}')?;
    Some(&artifact[start..=start + len])
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn scale_cells_match_the_committed_records() {
    let dir = std::env::temp_dir().join(format!("oraclesize-scale-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let opts = ExpOptions {
        json_dir: Some(dir.clone()),
        ..Default::default()
    };
    run_experiment("scale", &opts).expect("scale runs");
    let ours = read(&dir.join("BENCH_SCALE.json"));
    let committed = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_SCALE.json"));
    let spec = scale_spec(false);
    assert_eq!(spec.cells.len(), 6, "three orders, two schemes each");
    for cell in &spec.cells {
        let label = &cell.label;
        let expected = record(&committed, label)
            .unwrap_or_else(|| panic!("{label}: not in the committed BENCH_SCALE.json"));
        assert_eq!(record(&ours, label), Some(expected), "{label}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
