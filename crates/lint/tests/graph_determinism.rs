//! Property: call-graph construction is deterministic — the `graph`
//! subcommand's JSON is a pure function of the source *set*, independent
//! of file-discovery order and stable across repeated builds.

use oraclesize_lint::build_graph;
use proptest::prelude::*;

/// A pool of synthetic files exercising every resolution tier: same-file,
/// same-crate, cross-crate method, qualified path, and a hot root.
fn pool() -> Vec<(String, String)> {
    vec![
        (
            "crates/sim/src/engine.rs".to_string(),
            "// lint:hot-path\npub fn entry(g: &G) { helper(); g.degree(0); other::Slab::insert(); }\n\
             fn helper() { leaf(); }\nfn leaf() {}\n"
                .to_string(),
        ),
        (
            "crates/sim/src/other.rs".to_string(),
            "pub struct Slab;\nimpl Slab {\n    pub fn insert() {}\n}\npub fn leaf() {}\n".to_string(),
        ),
        (
            "crates/graph/src/lib.rs".to_string(),
            "pub struct G;\nimpl G {\n    pub fn degree(&self, v: usize) -> usize { v }\n}\n".to_string(),
        ),
        (
            "crates/runtime/src/json.rs".to_string(),
            "pub fn render() { helper(); }\nfn helper() {}\n".to_string(),
        ),
        (
            "crates/bits/src/lib.rs".to_string(),
            "pub struct B;\nimpl B {\n    pub fn get(&self) -> usize { 0 }\n}\n".to_string(),
        ),
    ]
}

proptest! {
    #[test]
    fn graph_json_is_independent_of_discovery_order(
        // A random permutation, derived by sorting indices on random keys.
        order in proptest::collection::vec(any::<u64>(), 5).prop_map(|keys| {
            let mut idx: Vec<usize> = (0..keys.len()).collect();
            idx.sort_by_key(|&i| keys[i]);
            idx
        })
    ) {
        let files = pool();
        let canonical = build_graph(&files).to_json().render();
        let shuffled: Vec<(String, String)> = order.iter().map(|&i| files[i].clone()).collect();
        prop_assert_eq!(&build_graph(&shuffled).to_json().render(), &canonical);
        // Repeated builds of the same order are byte-identical too.
        prop_assert_eq!(&build_graph(&shuffled).to_json().render(), &canonical);
    }

    #[test]
    fn graph_json_is_stable_under_subsetting(mask in proptest::collection::vec(any::<bool>(), 5)) {
        // Any subset of the pool still yields deterministic, parseable JSON.
        let files: Vec<(String, String)> = pool()
            .into_iter()
            .zip(&mask)
            .filter(|(_, keep)| **keep)
            .map(|(f, _)| f)
            .collect();
        let a = build_graph(&files).to_json().render();
        let b = build_graph(&files).to_json().render();
        prop_assert_eq!(&a, &b);
        prop_assert!(oraclesize_runtime::json::parse(&a).is_some());
    }
}
