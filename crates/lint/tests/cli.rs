//! End-to-end CLI contract: exit 0 clean, 1 with findings (and a
//! clickable file:line on stdout), 2 on usage errors.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn fixture_tree(name: &str, src: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/lint-fixtures")
        .join(name);
    let src_dir = dir.join("crates/sim/src");
    fs::create_dir_all(&src_dir).expect("create fixture tree");
    fs::write(src_dir.join("fixture.rs"), src).expect("write fixture");
    dir
}

fn run(args: &[&str], root: &PathBuf) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_oraclesize-lint"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run linter binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn violations_exit_one_with_file_line() {
    let dir = fixture_tree("bad", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let (code, stdout) = run(&["check"], &dir);
    assert_eq!(code, Some(1));
    assert!(
        stdout.contains("crates/sim/src/fixture.rs:1: P001:"),
        "stdout was: {stdout}"
    );

    let (code, stdout) = run(&["check", "--format", "json"], &dir);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"count\": 1"), "stdout was: {stdout}");
    assert!(
        stdout.contains("\"rule\": \"P001\""),
        "stdout was: {stdout}"
    );
}

#[test]
fn clean_tree_exits_zero() {
    let dir = fixture_tree("clean", "pub fn f(x: u32) -> u32 { x + 1 }\n");
    let (code, stdout) = run(&["check"], &dir);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("lint: clean"), "stdout was: {stdout}");
}

#[test]
fn unknown_rule_exits_two() {
    let dir = fixture_tree("usage", "pub fn f() {}\n");
    let (code, _) = run(&["check", "--rule", "Z999"], &dir);
    assert_eq!(code, Some(2));
    // A retired rule is unknown too: IDs are never reused.
    let (code, _) = run(&["check", "--rule", "A001"], &dir);
    assert_eq!(code, Some(2));
}

#[test]
fn sarif_format_renders_a_valid_log_and_exits_one() {
    let dir = fixture_tree("sarif", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let (code, stdout) = run(&["check", "--format", "sarif"], &dir);
    assert_eq!(code, Some(1));
    assert!(
        stdout.contains("\"version\": \"2.1.0\""),
        "stdout was: {stdout}"
    );
    assert!(
        stdout.contains("\"ruleId\": \"P001\""),
        "stdout was: {stdout}"
    );
    assert!(
        stdout.contains("\"uri\": \"crates/sim/src/fixture.rs\""),
        "stdout was: {stdout}"
    );
}

#[test]
fn baseline_suppresses_known_findings_and_flags_new_ones() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let dir = fixture_tree("baseline", src);
    // Capture the current findings as the baseline…
    let (code, report) = run(&["check", "--format", "json"], &dir);
    assert_eq!(code, Some(1));
    let baseline = dir.join("baseline.json");
    fs::write(&baseline, &report).expect("write baseline");
    // …and the same tree now passes against it.
    let (code, stdout) = run(&["check", "--baseline", baseline.to_str().unwrap()], &dir);
    assert_eq!(code, Some(0), "stdout was: {stdout}");
    assert!(
        stdout.contains("1 baselined finding(s)"),
        "stdout was: {stdout}"
    );
    // A new finding on another line still fails.
    let worse =
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(y: Option<u32>) -> u32 { y.unwrap() }\n";
    fs::write(dir.join("crates/sim/src/fixture.rs"), worse).expect("grow fixture");
    let (code, stdout) = run(&["check", "--baseline", baseline.to_str().unwrap()], &dir);
    assert_eq!(code, Some(1), "stdout was: {stdout}");
    assert!(stdout.contains("fixture.rs:2"), "stdout was: {stdout}");
    assert!(!stdout.contains("fixture.rs:1:"), "stdout was: {stdout}");
}

#[test]
fn malformed_baseline_exits_two() {
    let dir = fixture_tree("badbase", "pub fn f(x: u32) -> u32 { x + 1 }\n");
    let baseline = dir.join("baseline.json");
    fs::write(&baseline, "not a report").expect("write baseline");
    let (code, _) = run(&["check", "--baseline", baseline.to_str().unwrap()], &dir);
    assert_eq!(code, Some(2));
    let (code, _) = run(&["check", "--baseline", "/nonexistent/b.json"], &dir);
    assert_eq!(code, Some(2));
}

#[test]
fn self_check_restricts_findings_to_the_lint_crate() {
    // The fixture tree has a finding in crates/sim — self-check must not
    // report it (and the tree has no crates/lint sources at all).
    let dir = fixture_tree("selfcheck", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let (code, stdout) = run(&["self-check"], &dir);
    assert_eq!(code, Some(0), "stdout was: {stdout}");
    assert!(stdout.contains("lint: clean"), "stdout was: {stdout}");
}

#[test]
fn paths_prefix_restricts_findings() {
    let dir = fixture_tree("paths", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let (code, _) = run(&["check", "--paths", "crates/sim/"], &dir);
    assert_eq!(code, Some(1));
    let (code, stdout) = run(&["check", "--paths", "crates/graph/"], &dir);
    assert_eq!(code, Some(0), "stdout was: {stdout}");
}
