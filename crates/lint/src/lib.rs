//! `oraclesize-lint`: a dependency-free static-analysis pass enforcing
//! the workspace's reproducibility invariants.
//!
//! The BENCH artifacts of this repository promise byte-identical output
//! across thread counts, machines, and runs; the rules here catch the
//! constructs that silently break that promise (hash-order iteration,
//! wall-clock reads, stray threads, ambient entropy, partial-order float
//! comparators) plus hygiene rules (panic paths in engine code, fragile
//! `#[non_exhaustive]` matches, nested adjacency layouts). It lexes the
//! workspace's own sources with a small comment/string/char-aware
//! tokenizer — no `syn`, no network, no dependencies beyond
//! `oraclesize-runtime`'s JSON writer.
//!
//! The delivery path's no-allocation contract is not a lint rule: the
//! root package's `tests/engine_allocs.rs` checks it by counting
//! allocations (DESIGN.md §12).
//!
//! Run it with `cargo run -p oraclesize-lint -- check`; suppress a
//! finding in place with `// lint:allow(<rule>): reason`. The rule
//! table lives in [`rules::RULES`] and DESIGN.md §8.

#![warn(missing_docs)]

pub mod baseline;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod rules_order;
pub mod scope;
pub mod source;
pub mod walk;

use std::io;
use std::path::Path;

pub use baseline::Baseline;
pub use diag::{render_json, render_sarif, render_text, Diagnostic};
pub use rules::{RuleInfo, RULES};
pub use source::SourceFile;

/// `true` iff `rule` is a known rule ID.
pub fn known_rule(rule: &str) -> bool {
    RULES.iter().any(|r| r.id == rule)
}

/// Lints a set of `(path, contents)` sources and returns the surviving
/// findings in report order (path, then line, then rule). `only`
/// restricts the run to a single rule ID.
pub fn analyze_sources(sources: &[(String, String)], only: Option<&str>) -> Vec<Diagnostic> {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, src)| SourceFile::new(path, src))
        .collect();
    let info = rules::WorkspaceInfo::collect(&files);
    let mut out = Vec::new();
    for f in &files {
        let found = rules::check_file(f, &info, only);
        out.extend(found.into_iter().filter(|d| !f.suppressed(d.rule, d.line)));
    }
    diag::sort(&mut out);
    out
}

/// Walks the workspace at `root` and lints every `.rs` file found.
pub fn check_workspace(root: &Path, only: Option<&str>) -> io::Result<Vec<Diagnostic>> {
    let sources = walk::collect_sources(root)?;
    Ok(analyze_sources(&sources, only))
}
