//! The rule set: each rule has a stable ID, a scope, and a token-level
//! check. See DESIGN.md §8 for the rule table and how to add a rule.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier (`D001`, …) used in diagnostics and
    /// `lint:allow(…)` directives.
    pub id: &'static str,
    /// One-line summary shown by `--help`.
    pub summary: &'static str,
}

/// Every rule the linter knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        summary: "no HashMap/HashSet iteration in deterministic crates (use BTreeMap/BTreeSet)",
    },
    RuleInfo {
        id: "D002",
        summary:
            "no wall-clock reads (Instant::now/SystemTime::now) outside the bench timing block",
    },
    RuleInfo {
        id: "D003",
        summary: "no thread spawning outside runtime::pool",
    },
    RuleInfo {
        id: "D004",
        summary: "no ambient entropy (thread_rng/OsRng/from_entropy) — randomness flows from seeds",
    },
    RuleInfo {
        id: "D005",
        summary:
            "no Vec<Vec<…>> adjacency-shaped struct fields in graph/sim library code (use flat CSR)",
    },
    RuleInfo {
        id: "P001",
        summary: "no unwrap()/expect()/panic! in sim/runtime library hot paths",
    },
    RuleInfo {
        id: "P002",
        summary: "no unwrap()/expect() on I/O results in library code (propagate or justify)",
    },
    RuleInfo {
        id: "H001",
        summary: "cross-file matches on #[non_exhaustive] enums carry a `_` arm",
    },
    RuleInfo {
        id: "O001",
        summary: "no partial_cmp comparators or float accumulation over hash collections in \
             deterministic crates (use total_cmp / BTree collections)",
    },
    RuleInfo {
        id: "O002",
        summary: "no parallel iteration or thread-local merge state outside runtime::pool",
    },
];

/// Crates whose outputs must be exactly replayable: D001's scope.
const DETERMINISTIC_PREFIXES: &[&str] = &[
    "crates/sim/src",
    "crates/runtime/src",
    "crates/core/src",
    "crates/graph/src",
    "crates/lowerbound/src",
    "crates/bits/src",
    "crates/analysis/src",
];

/// Facts gathered across the whole file set before per-file checks run.
#[derive(Debug, Default)]
pub struct WorkspaceInfo {
    /// `#[non_exhaustive]` enum name → path of the file defining it.
    pub non_exhaustive_enums: Vec<(String, String)>,
}

impl WorkspaceInfo {
    /// Scans every file for `#[non_exhaustive]` enum declarations.
    pub fn collect(files: &[SourceFile]) -> Self {
        let mut non_exhaustive_enums = Vec::new();
        for f in files {
            let toks = &f.lexed.toks;
            for i in 0..toks.len() {
                if !toks[i].is_ident("non_exhaustive") {
                    continue;
                }
                // Walk past the attribute's `]`, any further attributes,
                // and visibility modifiers, to the `enum` keyword.
                let mut j = i + 1;
                while j < toks.len() {
                    let t = &toks[j];
                    if t.is_punct("(") {
                        j = matching(toks, j, "(", ")") + 1;
                    } else if t.is_punct("]")
                        || t.is_punct("#")
                        || t.is_punct("[")
                        || t.is_ident("pub")
                        || t.is_ident("crate")
                        || t.is_ident("derive")
                        || t.is_ident("doc")
                        || t.is_ident("cfg")
                    {
                        j += 1;
                    } else {
                        break;
                    }
                }
                if toks.get(j).is_some_and(|t| t.is_ident("enum")) {
                    if let Some(name) = toks.get(j + 1) {
                        if name.kind == TokKind::Ident {
                            non_exhaustive_enums.push((name.text.clone(), f.path.clone()));
                        }
                    }
                }
            }
        }
        WorkspaceInfo {
            non_exhaustive_enums,
        }
    }
}

/// Runs every rule (or just `only`) over one file.
pub fn check_file(file: &SourceFile, info: &WorkspaceInfo, only: Option<&str>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let want = |id: &str| only.is_none_or(|o| o == id);
    if want("D001") {
        d001(file, &mut out);
    }
    if want("D002") {
        d002(file, &mut out);
    }
    if want("D003") {
        d003(file, &mut out);
    }
    if want("D004") {
        d004(file, &mut out);
    }
    if want("D005") {
        d005(file, &mut out);
    }
    if want("P001") {
        p001(file, &mut out);
    }
    if want("P002") {
        p002(file, &mut out);
    }
    if want("H001") {
        h001(file, info, &mut out);
    }
    if want("O001") {
        crate::rules_order::o001(file, in_deterministic_scope(&file.path), &mut out);
    }
    if want("O002") {
        crate::rules_order::o002(file, &mut out);
    }
    out
}

fn in_deterministic_scope(path: &str) -> bool {
    DETERMINISTIC_PREFIXES.iter().any(|p| path.starts_with(p)) || path == "crates/bench/src/grid.rs"
}

/// `true` when the token at `i` is shipping code (not tests).
fn shipping(file: &SourceFile, i: usize) -> bool {
    !file.is_test_file && !file.in_test[i]
}

fn diag(file: &SourceFile, rule: &'static str, i: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.path.clone(),
        line: file.lexed.toks[i].line,
        message,
    }
}

/// Methods whose call on a hash collection observes its iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// D001: HashMap/HashSet iteration in deterministic crates.
fn d001(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_deterministic_scope(&file.path) {
        return;
    }
    let toks = &file.lexed.toks;
    let hash_names = hash_bindings(toks);
    let is_hash = |t: &Tok| {
        t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet" || hash_names.contains(&t.text))
    };
    for i in 0..toks.len() {
        if !shipping(file, i) {
            continue;
        }
        // name.iter() / self.name.keys() / …
        if toks[i].kind == TokKind::Ident
            && hash_names.contains(&toks[i].text)
            && toks.get(i + 1).is_some_and(|t| t.is_punct("."))
            && toks.get(i + 2).is_some_and(|t| {
                t.kind == TokKind::Ident && ITER_METHODS.contains(&t.text.as_str())
            })
        {
            out.push(diag(
                file,
                "D001",
                i,
                format!(
                    "`{}.{}()` iterates a HashMap/HashSet — order is nondeterministic; \
                     use BTreeMap/BTreeSet or drain through a sort",
                    toks[i].text,
                    toks[i + 2].text
                ),
            ));
        }
        // for … in <expr touching a hash collection> { … }
        if toks[i].is_ident("for") && !toks.get(i + 1).is_some_and(|t| t.is_punct("<")) {
            let Some(in_idx) = find_loop_in(toks, i) else {
                continue;
            };
            let Some(body_open) = find_at_depth(toks, in_idx + 1, "{") else {
                continue;
            };
            if let Some(h) = toks[in_idx + 1..body_open].iter().find(|t| is_hash(t)) {
                out.push(diag(
                    file,
                    "D001",
                    i,
                    format!(
                        "`for … in` over HashMap/HashSet `{}` — order is nondeterministic; \
                         use BTreeMap/BTreeSet or drain through a sort",
                        h.text
                    ),
                ));
            }
        }
    }
}

/// Identifiers bound (let/field/param) to a HashMap/HashSet type in this
/// file. A heuristic: the statement or declarator's leading tokens are
/// searched for the type names; over-approximation is harmless because
/// only *iteration* of a collected name is flagged. Shared with O001,
/// which checks float accumulation over the same bindings.
pub(crate) fn hash_bindings(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        // let [mut] NAME … = … HashMap/HashSet … ;
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            let mut depth = 0isize;
            for t in toks.iter().skip(j + 1).take(200) {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth <= 0 => break,
                        _ => {}
                    }
                }
                if t.is_ident("HashMap") || t.is_ident("HashSet") {
                    names.insert(name.text.clone());
                    break;
                }
            }
        }
        // NAME : [&['a] [mut]] [path ::] HashMap/HashSet < …   (fields, params)
        if toks[i].kind == TokKind::Ident && toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            for t in toks.iter().skip(i + 2).take(12) {
                if t.kind == TokKind::Punct
                    && matches!(t.text.as_str(), "," | ")" | ";" | "{" | "}" | "=")
                {
                    break;
                }
                if t.is_ident("HashMap") || t.is_ident("HashSet") {
                    names.insert(toks[i].text.clone());
                    break;
                }
            }
        }
    }
    names
}

/// Index of the loop's `in` keyword (paren-depth 0 after the pattern).
fn find_loop_in(toks: &[Tok], for_idx: usize) -> Option<usize> {
    let mut depth = 0isize;
    for (j, t) in toks.iter().enumerate().skip(for_idx + 1).take(60) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => {}
            }
        }
        if depth == 0 && t.is_ident("in") {
            return Some(j);
        }
    }
    None
}

/// First index at nesting depth 0 (from `start`) holding the given punct.
fn find_at_depth(toks: &[Tok], start: usize, punct: &str) -> Option<usize> {
    let mut depth = 0isize;
    for (j, t) in toks.iter().enumerate().skip(start).take(200) {
        if t.kind != TokKind::Punct {
            continue;
        }
        if depth == 0 && t.text == punct {
            return Some(j);
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            _ => {}
        }
    }
    None
}

/// D002: wall-clock reads.
fn d002(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.lexed.toks;
    for i in 0..toks.len() {
        if !shipping(file, i) {
            continue;
        }
        let clocky = toks[i].is_ident("Instant") || toks[i].is_ident("SystemTime");
        if clocky
            && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("now"))
        {
            out.push(diag(
                file,
                "D002",
                i,
                format!(
                    "`{}::now()` reads the wall clock — metrics and artifacts must be \
                     replayable; only the bench report footer may time itself (with an allow)",
                    toks[i].text
                ),
            ));
        }
    }
}

/// D003: thread spawning outside `runtime::pool`.
fn d003(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.path == "crates/runtime/src/pool.rs" {
        return;
    }
    let toks = &file.lexed.toks;
    for i in 0..toks.len() {
        if !shipping(file, i) {
            continue;
        }
        let qualified = toks[i].is_ident("thread")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("spawn"));
        let method = toks[i].is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("spawn"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("));
        if qualified || method {
            out.push(diag(
                file,
                "D003",
                i,
                "thread spawned outside runtime::pool — all parallelism flows through \
                 the deterministic worker pool"
                    .to_string(),
            ));
        }
    }
}

/// D004: ambient entropy.
fn d004(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.lexed.toks;
    for i in 0..toks.len() {
        if !shipping(file, i) {
            continue;
        }
        let t = &toks[i];
        let bad_ident = t.is_ident("thread_rng")
            || t.is_ident("from_entropy")
            || t.is_ident("OsRng")
            || t.is_ident("getrandom");
        let rand_random = t.is_ident("rand")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("random"));
        if bad_ident || rand_random {
            out.push(diag(
                file,
                "D004",
                i,
                format!(
                    "`{}` draws OS entropy — all randomness must flow from an explicit seed",
                    t.text
                ),
            ));
        }
    }
}

/// D005: `Vec<Vec<…>>` struct fields in graph/sim library code. The
/// engine's memory-layout invariant (DESIGN.md §11) keeps per-node data
/// flat — CSR arrays or arenas — so an adjacency-shaped nested-Vec field
/// reintroduces one heap allocation per node and pointer-chasing scans.
/// Scope is *field declarations* in brace-struct bodies: locals,
/// parameters, and return types may still stage nested data before
/// flattening. An allow must carry a reason.
fn d005(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !(file.path.starts_with("crates/graph/src") || file.path.starts_with("crates/sim/src")) {
        return;
    }
    let toks = &file.lexed.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("struct") {
            i += 1;
            continue;
        }
        // Walk to the struct's field block; a `;` first means a tuple or
        // unit struct — no brace block to scan.
        let mut depth = 0isize;
        let mut open = None;
        for (j, t) in toks.iter().enumerate().skip(i + 1) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => break,
                    "{" if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let close = matching(toks, open, "{", "}");
        for j in open..close {
            if !shipping(file, j) {
                continue;
            }
            if toks[j].is_ident("Vec")
                && toks.get(j + 1).is_some_and(|t| t.is_punct("<"))
                && toks.get(j + 2).is_some_and(|t| t.is_ident("Vec"))
                && toks.get(j + 3).is_some_and(|t| t.is_punct("<"))
            {
                out.push(diag(
                    file,
                    "D005",
                    j,
                    "`Vec<Vec<…>>` field is an adjacency-shaped layout — store it flat \
                     (CSR offsets/targets or CsrRows) or allow with a justification \
                     (`lint:allow(D005): why`)"
                        .to_string(),
                ));
            }
        }
        i = close + 1;
    }
}

/// P001: panic paths in sim/runtime library code.
fn p001(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !(file.path.starts_with("crates/sim/src") || file.path.starts_with("crates/runtime/src")) {
        return;
    }
    let toks = &file.lexed.toks;
    for i in 0..toks.len() {
        if !shipping(file, i) {
            continue;
        }
        let t = &toks[i];
        let call =
            |name: &str| t.is_ident(name) && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        let is_macro = t.is_ident("panic") && toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
        if call("unwrap") || call("expect") || is_macro {
            out.push(diag(
                file,
                "P001",
                i,
                format!(
                    "`{}` can panic in an engine hot path — return an error, restructure, \
                     or allow with a justification (`lint:allow(P001): why`)",
                    t.text
                ),
            ));
        }
    }
}

/// Identifiers that mark a statement as touching the filesystem: the
/// `std::fs`/`File` entry points plus the `Read`/`Write` methods whose
/// results callers are tempted to swallow.
const IO_MARKERS: &[&str] = &[
    "File",
    "create_dir_all",
    "flush",
    "fs",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "remove_dir_all",
    "remove_file",
    "sync_all",
    "write_all",
];

/// P002: `unwrap()`/`expect()` on an I/O result in library code. A torn
/// disk, a read-only checkout, or a missing directory must degrade into
/// an error the sweep can report — not a panic that kills it. Scope is
/// every library file outside P001's (which already bans *all* panics in
/// sim/runtime); binaries and `main.rs` own their process and may exit
/// however they like.
fn p002(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.path.starts_with("crates/sim/src")
        || file.path.starts_with("crates/runtime/src")
        || file.path.contains("/bin/")
        || file.path.ends_with("main.rs")
    {
        return;
    }
    let toks = &file.lexed.toks;
    for i in 1..toks.len() {
        if !shipping(file, i) {
            continue;
        }
        let t = &toks[i];
        let call =
            |name: &str| t.is_ident(name) && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !(call("unwrap") || call("expect")) || !toks[i - 1].is_punct(".") {
            continue;
        }
        // Walk back through the statement: an I/O marker before the
        // nearest statement boundary means this unwrap swallows an
        // `io::Result`.
        let marker = toks[..i - 1]
            .iter()
            .rev()
            .take(60)
            .take_while(|b| {
                !(b.kind == TokKind::Punct && matches!(b.text.as_str(), ";" | "{" | "}" | "=>"))
            })
            .find(|b| b.kind == TokKind::Ident && IO_MARKERS.contains(&b.text.as_str()));
        if let Some(op) = marker {
            out.push(diag(
                file,
                "P002",
                i,
                format!(
                    "`{}` on an I/O result (`{}` in the same statement) — propagate the \
                     error or allow with a justification (`lint:allow(P002): why`)",
                    t.text, op.text
                ),
            ));
        }
    }
}

/// H001: cross-file matches on `#[non_exhaustive]` enums need a `_` arm.
/// Matches inside the enum's defining file are exempt — there, rustc's
/// exhaustiveness check on variant addition is stronger than a `_` arm.
fn h001(file: &SourceFile, info: &WorkspaceInfo, out: &mut Vec<Diagnostic>) {
    let toks = &file.lexed.toks;
    let foreign: Vec<&str> = info
        .non_exhaustive_enums
        .iter()
        .filter(|(_, def_path)| def_path != &file.path)
        .map(|(name, _)| name.as_str())
        .collect();
    if foreign.is_empty() {
        return;
    }
    for i in 0..toks.len() {
        if !toks[i].is_ident("match") || !shipping(file, i) {
            continue;
        }
        let Some(open) = find_at_depth(toks, i + 1, "{") else {
            continue;
        };
        let close = matching(toks, open, "{", "}");
        let mut matched_enum: Option<&str> = None;
        let mut has_wildcard = false;
        for pattern in arms(toks, open + 1, close) {
            if let Some(e) = pattern.iter().enumerate().find_map(|(j, t)| {
                foreign
                    .iter()
                    .find(|name| {
                        t.is_ident(name) && pattern.get(j + 1).is_some_and(|n| n.is_punct("::"))
                    })
                    .copied()
            }) {
                matched_enum = Some(e);
            }
            let catch_all = match pattern {
                [only] => only.kind == TokKind::Ident && !foreign.contains(&only.text.as_str()),
                [first, second, ..] => {
                    first.kind == TokKind::Ident
                        && !foreign.contains(&first.text.as_str())
                        && (second.is_ident("if") || second.is_punct("@"))
                }
                [] => false,
            };
            has_wildcard |= catch_all;
        }
        if let Some(e) = matched_enum {
            if !has_wildcard {
                out.push(diag(
                    file,
                    "H001",
                    i,
                    format!(
                        "match on `#[non_exhaustive]` enum `{e}` outside its defining file \
                         has no `_` arm — new variants would break this site"
                    ),
                ));
            }
        }
    }
}

/// Splits a match body into arm patterns (tokens before each `=>`).
fn arms(toks: &[Tok], start: usize, end: usize) -> Vec<&[Tok]> {
    let mut out = Vec::new();
    let mut pos = start;
    while pos < end {
        // Pattern: up to `=>` at depth 0.
        let mut depth = 0isize;
        let mut arrow = None;
        for (j, t) in toks.iter().enumerate().take(end).skip(pos) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=>" if depth == 0 => {
                        arrow = Some(j);
                        break;
                    }
                    _ => {}
                }
            }
        }
        let Some(arrow) = arrow else { break };
        out.push(&toks[pos..arrow]);
        // Arm body: a brace block, or an expression up to `,` at depth 0.
        if toks.get(arrow + 1).is_some_and(|t| t.is_punct("{")) {
            pos = matching(toks, arrow + 1, "{", "}") + 1;
        } else {
            let mut depth = 0isize;
            let mut next = end;
            for (j, t) in toks.iter().enumerate().take(end).skip(arrow + 1) {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => {
                            next = j;
                            break;
                        }
                        _ => {}
                    }
                }
            }
            pos = next;
        }
        if toks.get(pos).is_some_and(|t| t.is_punct(",")) {
            pos += 1;
        }
    }
    out
}

/// Index of the closing punct matching the opener at `open`, or
/// `toks.len()` if unbalanced.
fn matching(toks: &[Tok], open: usize, open_p: &str, close_p: &str) -> usize {
    let mut depth = 0isize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == open_p {
                depth += 1;
            } else if t.text == close_p {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
    }
    toks.len()
}
