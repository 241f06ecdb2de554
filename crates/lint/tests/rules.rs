//! Fixture tests: every rule has at least one firing and one clean
//! fixture, exercised through the library API with synthetic paths.

use oraclesize_lint::{analyze_sources, render_json, Diagnostic};

fn lint_one(path: &str, src: &str) -> Vec<Diagnostic> {
    analyze_sources(&[(path.to_string(), src.to_string())], None)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- D001

#[test]
fn d001_fires_on_hashmap_method_iteration() {
    let src = "use std::collections::HashMap;\n\
               fn f(m: &HashMap<u32, u32>) -> u32 {\n\
               \x20   m.keys().sum()\n\
               }\n";
    let diags = lint_one("crates/sim/src/fixture.rs", src);
    assert_eq!(rules_of(&diags), vec!["D001"]);
    assert_eq!(diags[0].line, 3);
}

#[test]
fn d001_fires_on_for_loop_over_hashset() {
    let src = "use std::collections::HashSet;\n\
               fn g(s: &HashSet<u32>) {\n\
               \x20   for x in s.iter() { drop(x); }\n\
               }\n\
               fn h() {\n\
               \x20   let mut seen = std::collections::HashSet::new();\n\
               \x20   seen.insert(1);\n\
               \x20   for x in &seen { drop(x); }\n\
               }\n";
    let diags = lint_one("crates/graph/src/fixture.rs", src);
    assert!(diags.iter().any(|d| d.rule == "D001" && d.line == 3));
    assert!(diags.iter().any(|d| d.rule == "D001" && d.line == 8));
}

#[test]
fn d001_clean_on_btreemap_and_lookup_only_hashmap() {
    let src = "use std::collections::{BTreeMap, HashMap};\n\
               fn f(m: &BTreeMap<u32, u32>, h: &HashMap<u32, u32>) -> u32 {\n\
               \x20   m.keys().sum::<u32>() + h.get(&1).copied().unwrap_or(0)\n\
               }\n";
    assert!(lint_one("crates/sim/src/fixture.rs", src).is_empty());
}

#[test]
fn d001_ignores_out_of_scope_crates_and_tests() {
    let src = "use std::collections::HashMap;\n\
               fn f(m: &HashMap<u32, u32>) -> u32 { m.keys().sum() }\n";
    // `explore` is not a deterministic crate.
    assert!(lint_one("crates/explore/src/fixture.rs", src).is_empty());
    // Test modules inside a deterministic crate are exempt.
    let test_src = "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n\
                    fn f(m: &HashMap<u32, u32>) -> u32 { m.keys().sum() }\n}\n";
    assert!(lint_one("crates/sim/src/fixture.rs", test_src).is_empty());
}

#[test]
fn d001_skips_mentions_inside_strings_and_comments() {
    let src = "fn f() -> &'static str {\n\
               \x20   // a HashMap .iter() in a comment is fine\n\
               \x20   \"for x in HashMap::new().iter()\"\n\
               }\n";
    assert!(lint_one("crates/sim/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------- D002

#[test]
fn d002_fires_on_instant_now() {
    let src = "fn f() {\n    let t = std::time::Instant::now();\n    drop(t);\n}\n";
    let diags = lint_one("crates/core/src/fixture.rs", src);
    assert_eq!(rules_of(&diags), vec!["D002"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn d002_fires_on_system_time_anywhere() {
    let src = "fn f() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
    assert_eq!(
        rules_of(&lint_one("crates/analysis/src/fixture.rs", src)),
        vec!["D002"]
    );
}

#[test]
fn d002_suppressed_by_trailing_allow() {
    let src = "fn f() {\n\
               \x20   let t = std::time::Instant::now(); // lint:allow(D002): report footer only\n\
               \x20   drop(t);\n\
               }\n";
    assert!(lint_one("crates/bench/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------- D003

#[test]
fn d003_fires_on_thread_spawn() {
    let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
    let diags = lint_one("crates/sim/src/fixture.rs", src);
    assert_eq!(rules_of(&diags), vec!["D003"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn d003_fires_on_scoped_spawn_method() {
    let src = "fn f(scope: &S) {\n    scope.spawn(|| {});\n}\n";
    assert_eq!(
        rules_of(&lint_one("crates/bench/src/fixture.rs", src)),
        vec!["D003"]
    );
}

#[test]
fn d003_exempts_the_pool_module() {
    let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
    assert!(lint_one("crates/runtime/src/pool.rs", src).is_empty());
}

// ---------------------------------------------------------------- D004

#[test]
fn d004_fires_on_thread_rng_and_os_rng() {
    let src = "fn f() {\n\
               \x20   let mut a = rand::thread_rng();\n\
               \x20   let mut b = StdRng::from_entropy();\n\
               }\n";
    let diags = lint_one("crates/explore/src/fixture.rs", src);
    assert_eq!(rules_of(&diags), vec!["D004", "D004"]);
    assert_eq!((diags[0].line, diags[1].line), (2, 3));
}

#[test]
fn d004_clean_on_seeded_rng() {
    let src = "fn f() {\n    let mut rng = StdRng::seed_from_u64(7);\n    drop(rng);\n}\n";
    assert!(lint_one("crates/explore/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------- D005

#[test]
fn d005_fires_on_nested_vec_struct_field() {
    let src = "pub struct Adjacency {\n\
               \x20   pub adj: Vec<Vec<(usize, usize)>>,\n\
               \x20   labels: Vec<u64>,\n\
               }\n";
    let diags = lint_one("crates/graph/src/fixture.rs", src);
    assert_eq!(rules_of(&diags), vec!["D005"]);
    assert_eq!(diags[0].line, 2);
}

#[test]
fn d005_clean_on_flat_fields_locals_and_params() {
    // CSR-shaped fields are the point of the rule…
    let flat = "pub struct Csr {\n\
                \x20   offsets: Vec<usize>,\n\
                \x20   targets: Vec<usize>,\n\
                }\n";
    assert!(lint_one("crates/graph/src/fixture.rs", flat).is_empty());
    // …and staging nested data in locals, params, or return types is
    // fine: only the stored layout is constrained.
    let staged = "fn flatten(adj: Vec<Vec<usize>>) -> Vec<usize> {\n\
                  \x20   let nested: Vec<Vec<usize>> = vec![adj.concat()];\n\
                  \x20   nested.concat()\n\
                  }\n";
    assert!(lint_one("crates/sim/src/fixture.rs", staged).is_empty());
}

#[test]
fn d005_scoped_to_graph_and_sim_and_exempts_tests() {
    let src = "struct T { rows: Vec<Vec<String>> }\n";
    assert!(lint_one("crates/analysis/src/fixture.rs", src).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n struct T { rows: Vec<Vec<u8>> }\n}\n";
    assert!(lint_one("crates/graph/src/fixture.rs", in_test).is_empty());
}

#[test]
fn d005_allow_requires_reason() {
    let bare = "struct B {\n\
                \x20   adj: Vec<Vec<u8>>, // lint:allow(D005)\n\
                }\n";
    assert_eq!(
        rules_of(&lint_one("crates/graph/src/fixture.rs", bare)),
        vec!["D005"]
    );
    let justified = "struct B {\n\
                     \x20   // lint:allow(D005): builder staging area, flattened by build()\n\
                     \x20   adj: Vec<Vec<u8>>,\n\
                     }\n";
    assert!(lint_one("crates/graph/src/fixture.rs", justified).is_empty());
}

// ---------------------------------------------------------------- P001

#[test]
fn p001_fires_on_unwrap_expect_panic_in_engine_code() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               \x20   let a = x.unwrap();\n\
               \x20   let b = x.expect(\"present\");\n\
               \x20   if a != b { panic!(\"mismatch\"); }\n\
               \x20   a\n\
               }\n";
    let diags = lint_one("crates/sim/src/fixture.rs", src);
    assert_eq!(rules_of(&diags), vec!["P001", "P001", "P001"]);
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![2, 3, 4]
    );
}

#[test]
fn p001_scoped_to_sim_and_runtime_only() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(
        rules_of(&lint_one("crates/runtime/src/fixture.rs", src)),
        vec!["P001"]
    );
    assert!(lint_one("crates/graph/src/fixture.rs", src).is_empty());
}

#[test]
fn p001_exempts_tests_and_honors_justified_allows() {
    let in_test = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
    assert!(lint_one("crates/sim/src/fixture.rs", in_test).is_empty());

    let justified = "fn f(x: Option<u32>) -> u32 {\n\
         \x20   // lint:allow(P001): x is Some by the caller's invariant\n\
         \x20   x.unwrap()\n\
         }\n";
    assert!(lint_one("crates/sim/src/fixture.rs", justified).is_empty());
}

#[test]
fn p001_allow_without_reason_does_not_suppress() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               \x20   x.unwrap() // lint:allow(P001)\n\
               }\n";
    assert_eq!(
        rules_of(&lint_one("crates/sim/src/fixture.rs", src)),
        vec!["P001"]
    );
}

// ---------------------------------------------------------------- P002

#[test]
fn p002_fires_on_unwrap_and_expect_of_io_results() {
    let src = "fn f() -> String {\n\
               \x20   std::fs::create_dir_all(\"out\").unwrap();\n\
               \x20   std::fs::read_to_string(\"out/x\").expect(\"readable\")\n\
               }\n";
    let diags = lint_one("crates/bench/src/fixture.rs", src);
    assert_eq!(rules_of(&diags), vec!["P002", "P002"]);
    assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), vec![2, 3]);
}

#[test]
fn p002_fires_on_write_and_flush_methods() {
    let src = "use std::io::Write;\n\
               fn f(w: &mut std::fs::File) {\n\
               \x20   w.write_all(b\"x\").unwrap();\n\
               \x20   w.flush().unwrap();\n\
               }\n";
    let diags = lint_one("crates/analysis/src/fixture.rs", src);
    assert_eq!(rules_of(&diags), vec!["P002", "P002"]);
}

#[test]
fn p002_clean_on_non_io_unwrap_and_propagated_io() {
    // A plain Option unwrap is not P002's business…
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(lint_one("crates/bench/src/fixture.rs", src).is_empty());
    // …and neither is I/O whose error is propagated.
    let propagated = "fn f() -> std::io::Result<String> {\n\
                      \x20   std::fs::read_to_string(\"x\")\n\
                      }\n";
    assert!(lint_one("crates/bench/src/fixture.rs", propagated).is_empty());
    // A statement boundary resets the marker: the unwrap is on a
    // different statement than the I/O call.
    let separated = "fn f() -> u32 {\n\
                     \x20   let _ = std::fs::remove_file(\"x\");\n\
                     \x20   Some(1).unwrap()\n\
                     }\n";
    assert!(lint_one("crates/bench/src/fixture.rs", separated).is_empty());
}

#[test]
fn p002_exempts_binaries_tests_and_p001_scope() {
    let src = "fn f() { std::fs::remove_file(\"x\").unwrap(); }\n";
    // Binaries and main.rs own their exit path.
    assert!(lint_one("crates/bench/src/bin/fixture.rs", src).is_empty());
    assert!(lint_one("crates/lint/src/main.rs", src).is_empty());
    // sim/runtime are P001's turf — the same line reports once, as P001.
    assert_eq!(
        rules_of(&lint_one("crates/sim/src/fixture.rs", src)),
        vec!["P001"]
    );
    // Tests may unwrap freely.
    let in_test =
        "#[cfg(test)]\nmod tests {\n fn f() { std::fs::remove_file(\"x\").unwrap(); }\n}\n";
    assert!(lint_one("crates/bench/src/fixture.rs", in_test).is_empty());
}

#[test]
fn p002_allow_requires_reason() {
    let bare = "fn f() {\n\
                \x20   std::fs::remove_file(\"x\").unwrap() // lint:allow(P002)\n\
                }\n";
    assert_eq!(
        rules_of(&lint_one("crates/bench/src/fixture.rs", bare)),
        vec!["P002"]
    );
    let justified = "fn f() {\n\
                     \x20   std::fs::remove_file(\"x\").unwrap() // lint:allow(P002): scratch dir, test-only helper\n\
                     }\n";
    assert!(lint_one("crates/bench/src/fixture.rs", justified).is_empty());
}

// ---------------------------------------------------------------- H001

const ENUM_DEF: &str = "#[non_exhaustive]\npub enum Verdict { Yes, No }\n\
                        fn local(v: &Verdict) -> u32 {\n\
                        \x20   match v { Verdict::Yes => 1, Verdict::No => 0 }\n\
                        }\n";

fn lint_pair(user_src: &str) -> Vec<Diagnostic> {
    analyze_sources(
        &[
            (
                "crates/core/src/verdict.rs".to_string(),
                ENUM_DEF.to_string(),
            ),
            ("crates/sim/src/user.rs".to_string(), user_src.to_string()),
        ],
        None,
    )
}

#[test]
fn h001_fires_on_cross_file_match_without_wildcard() {
    let user = "use crate::Verdict;\n\
                fn f(v: &Verdict) -> u32 {\n\
                \x20   match v {\n\
                \x20       Verdict::Yes => 1,\n\
                \x20       Verdict::No => 0,\n\
                \x20   }\n\
                }\n";
    let diags = lint_pair(user);
    assert_eq!(rules_of(&diags), vec!["H001"]);
    assert_eq!(diags[0].path, "crates/sim/src/user.rs");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn h001_clean_with_wildcard_or_binding_arm() {
    let underscore = "fn f(v: &Verdict) -> u32 {\n\
                      \x20   match v { Verdict::Yes => 1, _ => 0 }\n\
                      }\n";
    assert!(lint_pair(underscore).is_empty());
    let binding = "fn f(v: &Verdict) -> u32 {\n\
                   \x20   match v { Verdict::Yes => 1, other => why(other) }\n\
                   }\n";
    assert!(lint_pair(binding).is_empty());
}

#[test]
fn h001_exempts_the_defining_file() {
    // ENUM_DEF itself matches exhaustively in the defining file; rustc's
    // own exhaustiveness check covers that site.
    let diags = analyze_sources(
        &[(
            "crates/core/src/verdict.rs".to_string(),
            ENUM_DEF.to_string(),
        )],
        None,
    );
    assert!(diags.is_empty());
}

// ----------------------------------------------------- output contracts

#[test]
fn diagnostics_sort_path_then_line_and_json_is_deterministic() {
    let sources = vec![
        (
            "crates/sim/src/zz.rs".to_string(),
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n".to_string(),
        ),
        (
            "crates/sim/src/aa.rs".to_string(),
            "fn g() {\n    std::thread::spawn(|| {});\n    let t = std::time::Instant::now();\n}\n"
                .to_string(),
        ),
    ];
    let diags = analyze_sources(&sources, None);
    let keys: Vec<(&str, u32, &str)> = diags
        .iter()
        .map(|d| (d.path.as_str(), d.line, d.rule))
        .collect();
    assert_eq!(
        keys,
        vec![
            ("crates/sim/src/aa.rs", 2, "D003"),
            ("crates/sim/src/aa.rs", 3, "D002"),
            ("crates/sim/src/zz.rs", 1, "P001"),
        ]
    );
    let json = render_json(&diags);
    assert!(oraclesize_runtime::json::parse(&json).is_some());
    assert_eq!(json, render_json(&analyze_sources(&sources, None)));
    let aa = json.find("aa.rs").unwrap();
    let zz = json.find("zz.rs").unwrap();
    assert!(aa < zz, "findings must be ordered by path");
}

#[test]
fn rule_filter_restricts_output() {
    let src = "fn g(x: Option<u32>) {\n\
               \x20   std::thread::spawn(|| {});\n\
               \x20   x.unwrap();\n\
               }\n";
    let sources = vec![("crates/sim/src/fixture.rs".to_string(), src.to_string())];
    let only_d003 = analyze_sources(&sources, Some("D003"));
    assert_eq!(rules_of(&only_d003), vec!["D003"]);
    let only_p001 = analyze_sources(&sources, Some("P001"));
    assert_eq!(rules_of(&only_p001), vec!["P001"]);
}

// ---------------------------------------------------------------- A001

#[test]
fn a001_fires_on_allocation_reachable_from_hot_root() {
    let src = "// lint:hot-path\n\
               pub fn entry() { helper(); }\n\
               fn helper(v: &[u32]) -> Vec<u32> { v.to_vec() }\n";
    let diags = lint_one("crates/sim/src/fixture.rs", src);
    assert_eq!(rules_of(&diags), vec!["A001"]);
    assert_eq!(diags[0].line, 3);
    assert!(diags[0].message.contains("sim::fixture::entry"));
}

#[test]
fn a001_crosses_crates_through_method_calls() {
    let sources = vec![
        (
            "crates/sim/src/engine.rs".to_string(),
            "// lint:hot-path\npub fn entry(b: &B) { b.grow(); }\n".to_string(),
        ),
        (
            "crates/bits/src/b.rs".to_string(),
            "pub struct B { v: Vec<u32> }\nimpl B {\n    pub fn grow(&mut self) { self.v.push(1); }\n}\n"
                .to_string(),
        ),
    ];
    let diags = analyze_sources(&sources, Some("A001"));
    assert_eq!(rules_of(&diags), vec!["A001"]);
    assert_eq!(diags[0].path, "crates/bits/src/b.rs");
    assert!(diags[0].message.contains("`push`"), "{}", diags[0].message);
}

#[test]
fn a001_is_silent_without_hot_roots_or_reachability() {
    // Allocation with no hot-path marker anywhere: silent.
    let src = "pub fn cold(v: &[u32]) -> Vec<u32> { v.to_vec() }\n";
    assert!(lint_one("crates/sim/src/fixture.rs", src).is_empty());
    // A hot root that never reaches the allocating fn: silent.
    let src = "// lint:hot-path\n\
               pub fn entry() {}\n\
               fn stray(v: &[u32]) -> Vec<u32> { v.to_vec() }\n";
    assert!(lint_one("crates/sim/src/fixture.rs", src).is_empty());
}

#[test]
fn a001_allow_requires_a_reason() {
    let bare = "// lint:hot-path\n\
                pub fn entry(v: &mut Vec<u32>) {\n\
                \x20   v.push(1); // lint:allow(A001)\n\
                }\n";
    let diags = lint_one("crates/sim/src/fixture.rs", bare);
    assert_eq!(rules_of(&diags), vec!["A001"], "bare allow must not count");
    let reasoned = "// lint:hot-path\n\
                    pub fn entry(v: &mut Vec<u32>) {\n\
                    \x20   v.push(1); // lint:allow(A001): pre-reserved staging\n\
                    }\n";
    assert!(lint_one("crates/sim/src/fixture.rs", reasoned).is_empty());
}

// ---------------------------------------------------------------- O001

#[test]
fn o001_fires_on_partial_cmp_comparators_in_deterministic_crates() {
    let src = "pub fn f(v: &mut [f64]) {\n\
               \x20   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
               }\n";
    let diags = analyze_sources(
        &[(
            "crates/analysis/src/fixture.rs".to_string(),
            src.to_string(),
        )],
        Some("O001"),
    );
    assert_eq!(rules_of(&diags), vec!["O001"]);
    assert_eq!(diags[0].line, 2);
    assert!(diags[0].message.contains("total_cmp"));
}

#[test]
fn o001_clean_on_total_cmp_and_out_of_scope_crates() {
    let total = "pub fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }\n";
    assert!(analyze_sources(
        &[(
            "crates/analysis/src/fixture.rs".to_string(),
            total.to_string()
        )],
        Some("O001"),
    )
    .is_empty());
    // Same partial_cmp sort in a non-deterministic crate: out of scope.
    let partial = "pub fn f(v: &mut [f64]) {\n\
                   \x20   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   }\n";
    assert!(analyze_sources(
        &[(
            "crates/explore/src/fixture.rs".to_string(),
            partial.to_string()
        )],
        Some("O001"),
    )
    .is_empty());
}

#[test]
fn o001_fires_on_float_sum_over_hash_collection() {
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u32, f64>) -> f64 {\n\
               \x20   m.values().sum::<f64>()\n\
               }\n";
    let diags = analyze_sources(
        &[(
            "crates/analysis/src/fixture.rs".to_string(),
            src.to_string(),
        )],
        Some("O001"),
    );
    assert_eq!(rules_of(&diags), vec!["O001"]);
    assert_eq!(diags[0].line, 3);
}

#[test]
fn o001_clean_on_integer_sums_and_btree_floats() {
    let ints = "use std::collections::HashMap;\n\
                pub fn f(m: &HashMap<u32, u64>) -> u64 { m.values().sum::<u64>() }\n";
    assert!(analyze_sources(
        &[(
            "crates/analysis/src/fixture.rs".to_string(),
            ints.to_string()
        )],
        Some("O001"),
    )
    .is_empty());
    let btree = "use std::collections::BTreeMap;\n\
                 pub fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum::<f64>() }\n";
    assert!(analyze_sources(
        &[(
            "crates/analysis/src/fixture.rs".to_string(),
            btree.to_string()
        )],
        Some("O001"),
    )
    .is_empty());
}

// ---------------------------------------------------------------- O002

#[test]
fn o002_fires_on_parallel_markers_outside_the_pool() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n\
               \x20   v.par_iter().copied().max().unwrap_or(0)\n\
               }\n";
    let diags = analyze_sources(
        &[(
            "crates/analysis/src/fixture.rs".to_string(),
            src.to_string(),
        )],
        Some("O002"),
    );
    assert_eq!(rules_of(&diags), vec!["O002"]);
    assert!(diags[0].message.contains("runtime::pool"));
    let tls = "thread_local! { static SCRATCH: u32 = 0; }\n";
    let diags = analyze_sources(
        &[("crates/sim/src/fixture.rs".to_string(), tls.to_string())],
        Some("O002"),
    );
    assert_eq!(rules_of(&diags), vec!["O002"]);
}

#[test]
fn o002_exempts_the_pool_and_tests() {
    let src = "pub fn f() { thread_local! { static S: u32 = 0; } }\n";
    assert!(analyze_sources(
        &[("crates/runtime/src/pool.rs".to_string(), src.to_string())],
        Some("O002"),
    )
    .is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { let x = thread_local; }\n}\n";
    assert!(analyze_sources(
        &[("crates/sim/src/fixture.rs".to_string(), in_test.to_string())],
        Some("O002"),
    )
    .is_empty());
}

#[test]
fn o002_exempts_the_pool_alone_in_the_runtime() {
    // The exemption is a file list, not a crate grant: the same marker
    // in any runtime module but the pool fires — including the retired
    // scheduler's path, should a module reappear there.
    let src = "pub fn f() { thread_local! { static DEQUE: u32 = 0; } }\n";
    for path in [
        "crates/runtime/src/sched.rs",
        "crates/runtime/src/supervise.rs",
        "crates/runtime/src/batch.rs",
        "crates/bench/src/grid.rs",
    ] {
        let diags = analyze_sources(&[(path.to_string(), src.to_string())], Some("O002"));
        assert_eq!(rules_of(&diags), vec!["O002"], "path {path}");
        assert!(diags[0].message.contains("runtime::pool"));
    }
}

#[test]
fn o002_exempts_the_sweep_server_but_not_the_rest_of_the_service() {
    // The sweep service's server is its sanctioned cross-thread merge
    // point (results settle through the runtime's OrderedCommitter under
    // one lock), so it sits in the allow list…
    let src = "pub fn f() { thread_local! { static MERGE: u32 = 0; } }\n";
    assert!(analyze_sources(
        &[("crates/service/src/server.rs".to_string(), src.to_string())],
        Some("O002"),
    )
    .is_empty());
    // …while the service's worker, client, and protocol modules get no
    // such grant: parallel merge state anywhere else in the crate fires.
    for path in [
        "crates/service/src/worker.rs",
        "crates/service/src/client.rs",
        "crates/service/src/proto.rs",
        "crates/service/src/lib.rs",
    ] {
        let diags = analyze_sources(&[(path.to_string(), src.to_string())], Some("O002"));
        assert_eq!(rules_of(&diags), vec!["O002"], "path {path}");
        assert!(diags[0].message.contains("runtime::pool"));
    }
}

#[test]
fn d003_still_fires_on_service_threads_without_a_reason() {
    // The server's connection handlers carry reasoned `lint:allow(D003)`
    // comments; the same spawn without one (or with a bare allow) is
    // still a violation anywhere outside runtime::pool.
    let src = "pub fn f() { std::thread::spawn(|| {}); }\n";
    let diags = analyze_sources(
        &[("crates/service/src/server.rs".to_string(), src.to_string())],
        Some("D003"),
    );
    assert_eq!(rules_of(&diags), vec!["D003"]);
    let bare = "pub fn f() {\n\
                \x20   std::thread::spawn(|| {}); // lint:allow(D003)\n\
                }\n";
    let diags = analyze_sources(
        &[("crates/service/src/server.rs".to_string(), bare.to_string())],
        Some("D003"),
    );
    assert_eq!(rules_of(&diags), vec!["D003"], "bare allow needs a reason");
    let reasoned = "pub fn f() {\n\
                    \x20   // lint:allow(D003): I/O-bound waiter, results merge in cell order\n\
                    \x20   std::thread::spawn(|| {});\n\
                    }\n";
    assert!(analyze_sources(
        &[(
            "crates/service/src/server.rs".to_string(),
            reasoned.to_string()
        )],
        Some("D003"),
    )
    .is_empty());
}
