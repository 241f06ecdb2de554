//! A lexed source file with its test regions and resolved allows.

use crate::lexer::{lex, Allow, Lexed};
use crate::scope::test_regions;
use crate::walk::is_test_path;

/// One file, prepared for the rule passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Token stream and raw allow directives.
    pub lexed: Lexed,
    /// Parallel to `lexed.toks`: `true` inside test regions.
    pub in_test: Vec<bool>,
    /// `true` when the whole file is test/bench code by path.
    pub is_test_file: bool,
    /// Each allow directive with the source line it covers.
    resolved_allows: Vec<(Allow, u32)>,
}

impl SourceFile {
    /// Lexes `src` and resolves each allow directive to the line it
    /// covers: its own line for a trailing comment, the next line with
    /// code for an own-line comment.
    pub fn new(path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let in_test = test_regions(&lexed.toks);
        let next_code_line = |after: u32| {
            lexed
                .toks
                .iter()
                .map(|t| t.line)
                .filter(|&l| l > after)
                .min()
                .unwrap_or(after + 1)
        };
        let resolved_allows = lexed
            .allows
            .iter()
            .map(|a| {
                let covered = if a.own_line {
                    next_code_line(a.line)
                } else {
                    a.line
                };
                (a.clone(), covered)
            })
            .collect();
        SourceFile {
            path: path.to_string(),
            is_test_file: is_test_path(path),
            lexed,
            in_test,
            resolved_allows,
        }
    }

    /// `true` when a `lint:allow` directive suppresses `rule` at `line`.
    /// D003/D005/P001/P002 allows suppress only when they carry a
    /// `: reason` — an ad-hoc thread, a nested layout, or a panic path
    /// kept on purpose must say why.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.resolved_allows.iter().any(|(a, covered)| {
            *covered == line
                && a.rules.iter().any(|r| r == rule)
                && (!matches!(rule, "D003" | "D005" | "P001" | "P002") || a.reason.is_some())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let f = SourceFile::new("crates/sim/src/x.rs", "foo(); // lint:allow(D002)\nbar();");
        assert!(f.suppressed("D002", 1));
        assert!(!f.suppressed("D002", 2));
        assert!(!f.suppressed("D001", 1));
    }

    #[test]
    fn own_line_allow_covers_next_code_line() {
        let src = "// lint:allow(D003): pool internals\n\nspawn_stuff();";
        let f = SourceFile::new("crates/sim/src/x.rs", src);
        assert!(f.suppressed("D003", 3));
        assert!(!f.suppressed("D003", 1));
    }

    #[test]
    fn p001_allow_requires_reason() {
        let bare = SourceFile::new("crates/sim/src/x.rs", "x.unwrap(); // lint:allow(P001)");
        assert!(!bare.suppressed("P001", 1));
        let justified = SourceFile::new(
            "crates/sim/src/x.rs",
            "x.unwrap(); // lint:allow(P001): invariant holds by construction",
        );
        assert!(justified.suppressed("P001", 1));
    }
}
