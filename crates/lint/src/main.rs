//! CLI for the determinism linter.
//!
//! ```text
//! oraclesize-lint check                     # lint the whole workspace
//! oraclesize-lint check --rule D001         # one rule only
//! oraclesize-lint check --format json       # machine-readable output
//! oraclesize-lint check --format sarif      # SARIF 2.1.0 for CI upload
//! oraclesize-lint check --baseline b.json   # fail only on NEW findings
//! oraclesize-lint check --paths crates/sim  # restrict to a path prefix
//! oraclesize-lint check --root /some/tree   # lint another checkout
//! oraclesize-lint self-check                # lint the lint crate itself
//! oraclesize-lint rules                     # list rules
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use oraclesize_lint::{
    analyze_sources, known_rule, render_json, render_sarif, render_text, walk, Baseline, RULES,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: oraclesize-lint check [--rule <id>] [--format text|json|sarif]\n\
         \x20                           [--baseline <file>] [--paths <prefix>] [--root <path>]\n\
         \x20      oraclesize-lint self-check [--root <path>]\n\
         \x20      oraclesize-lint rules"
    );
    ExitCode::from(2)
}

fn default_root() -> PathBuf {
    // When run via `cargo run -p oraclesize-lint`, the workspace root is
    // two levels above this crate's manifest; fall back to the current
    // directory for a relocated binary.
    let baked = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if baked.join("Cargo.toml").is_file() {
        baked
    } else {
        PathBuf::from(".")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rules") => {
            for r in RULES {
                println!("{}  {}", r.id, r.summary);
            }
            ExitCode::SUCCESS
        }
        Some("check") => check(&args[1..], None),
        // `self-check`: the analyzer's own sources must satisfy its own
        // rules — `check` restricted to crates/lint.
        Some("self-check") => check(&args[1..], Some("crates/lint/")),
        _ => usage(),
    }
}

fn read_sources(root: &Path) -> Result<Vec<(String, String)>, ExitCode> {
    walk::collect_sources(root).map_err(|e| {
        eprintln!(
            "error: failed to read sources under {}: {e}",
            root.display()
        );
        ExitCode::from(2)
    })
}

fn check(args: &[String], path_filter: Option<&str>) -> ExitCode {
    let mut rule: Option<String> = None;
    let mut format = "text".to_string();
    let mut root = default_root();
    let mut baseline_path: Option<PathBuf> = None;
    let mut prefix: Option<String> = path_filter.map(str::to_string);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rule" => match it.next() {
                Some(v) => rule = Some(v.clone()),
                None => return usage(),
            },
            "--format" => match it.next() {
                Some(v) if v == "text" || v == "json" || v == "sarif" => format = v.clone(),
                _ => return usage(),
            },
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage(),
            },
            "--baseline" => match it.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--paths" => match it.next() {
                Some(v) => prefix = Some(v.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if let Some(r) = &rule {
        if !known_rule(r) {
            eprintln!(
                "unknown rule {r:?}; known: {}",
                RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
            );
            return ExitCode::from(2);
        }
    }
    let baseline = match &baseline_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => match Baseline::parse(&text) {
                Some(b) => Some(b),
                None => {
                    eprintln!("error: {} is not a lint JSON report", p.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("error: cannot read baseline {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let sources = match read_sources(&root) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // Analysis always sees the whole workspace — H001's cross-file facts
    // need it — and the prefix filters *findings*.
    let mut diags = analyze_sources(&sources, rule.as_deref());
    if let Some(p) = &prefix {
        diags.retain(|d| d.path.starts_with(p.as_str()));
    }
    let mut suppressed = 0usize;
    if let Some(b) = &baseline {
        let (fresh, known) = b.partition(diags);
        diags = fresh;
        suppressed = known;
    }
    match format.as_str() {
        "json" => println!("{}", render_json(&diags)),
        "sarif" => println!("{}", render_sarif(&diags)),
        _ => {
            print!("{}", render_text(&diags));
            if suppressed > 0 {
                println!("lint: {suppressed} baselined finding(s) suppressed");
            }
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
