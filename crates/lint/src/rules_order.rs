//! O-rules: ordering determinism.
//!
//! O001 catches the two float-order traps in deterministic crates:
//! a sort/extremum comparator built on `partial_cmp` (floats have no
//! total order — NaN makes the comparator panic or, under
//! `sort_unstable`, platform-dependent), and float accumulation
//! (`sum`/`product`/`fold`) over an unordered hash collection, where the
//! iteration order changes the rounding. O002 keeps parallel iteration
//! and thread-local state out of everything but `runtime::pool`, the
//! executor whose merge by chunk index is the one sanctioned way to
//! combine results across threads.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// Sort/extremum methods whose comparator argument O001 inspects.
const COMPARATOR_SINKS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "max_by",
    "min_by",
    "binary_search_by",
];

/// Accumulators whose operand order changes a float result.
const ACCUMULATORS: &[&str] = &["sum", "product", "fold"];

/// Identifiers that mark parallel iteration or thread-local merge state.
const PARALLEL_MARKERS: &[&str] = &[
    "par_iter",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "par_extend",
    "rayon",
    "thread_local",
    "ThreadLocal",
    "LocalKey",
];

fn shipping(file: &SourceFile, i: usize) -> bool {
    !file.is_test_file && !file.in_test[i]
}

/// `true` when the token range contains a float marker: an `f32`/`f64`
/// ident (type ascription, turbofish, cast) or a float literal (the lexer
/// splits `0.5` into `Num . Num`).
fn has_float_marker(toks: &[Tok]) -> bool {
    for (k, t) in toks.iter().enumerate() {
        if t.is_ident("f32") || t.is_ident("f64") {
            return true;
        }
        if t.kind == TokKind::Num
            && toks.get(k + 1).is_some_and(|n| n.is_punct("."))
            && toks.get(k + 2).is_some_and(|n| n.kind == TokKind::Num)
        {
            return true;
        }
    }
    false
}

/// For an ident at `i`, the index of its argument list's `(`: directly
/// next, or past a `::<…>` turbofish. `None` when `i` is not a call.
fn call_open(toks: &[Tok], i: usize) -> Option<usize> {
    let next = toks.get(i + 1)?;
    if next.is_punct("(") {
        return Some(i + 1);
    }
    if next.is_punct("::") && toks.get(i + 2).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0isize;
        for (j, t) in toks.iter().enumerate().skip(i + 2) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            return toks.get(j + 1)?.is_punct("(").then_some(j + 1);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    None
}

/// Index just past the `)` matching the `(` at `open`.
fn past_matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0isize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == "(" {
                depth += 1;
            } else if t.text == ")" {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
        }
    }
    toks.len()
}

/// O001: partial-order comparators and unordered float accumulation in
/// deterministic crates.
pub fn o001(file: &SourceFile, deterministic: bool, out: &mut Vec<Diagnostic>) {
    if !deterministic {
        return;
    }
    let toks = &file.lexed.toks;
    let hash_names = crate::rules::hash_bindings(toks);
    for i in 0..toks.len() {
        if !shipping(file, i) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        // The argument list's `(` — directly next, or past a `::<…>`
        // turbofish (`.sum::<f64>()`).
        let Some(open) = call_open(toks, i) else {
            continue;
        };
        if COMPARATOR_SINKS.contains(&name) {
            let end = past_matching_paren(toks, open);
            if toks[open..end].iter().any(|t| t.is_ident("partial_cmp")) {
                out.push(Diagnostic {
                    rule: "O001",
                    path: file.path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "`{name}` with a `partial_cmp` comparator — floats have no total \
                         order (NaN panics the `expect` or reorders ties); compare with \
                         `total_cmp` or sort integer keys"
                    ),
                });
                continue;
            }
        }
        if ACCUMULATORS.contains(&name)
            && toks.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct("."))
        {
            // Statement back-scan: does the receiver chain iterate a hash
            // collection, and does the statement involve floats?
            let stmt_start = toks[..i]
                .iter()
                .rposition(|t| {
                    t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}" | "=>")
                })
                .map_or(0, |p| p + 1);
            let end = past_matching_paren(toks, open);
            let over_hash = toks[stmt_start..i].iter().any(|t| {
                t.is_ident("HashMap")
                    || t.is_ident("HashSet")
                    || (t.kind == TokKind::Ident && hash_names.contains(&t.text))
            });
            let floaty = has_float_marker(&toks[stmt_start..end.min(toks.len())]);
            if over_hash && floaty {
                out.push(Diagnostic {
                    rule: "O001",
                    path: file.path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "float `{name}` over a HashMap/HashSet — the iteration order \
                         changes the rounding; accumulate over a BTree collection or a \
                         sorted drain"
                    ),
                });
            }
        }
    }
}

/// Modules sanctioned to hold parallel iteration and thread-local merge
/// state: the runtime's executor (`pool`), plus the sweep service's
/// server, which is the service layer's one
/// sanctioned cross-thread merge point: connection handlers feed worker
/// results into the runtime's `OrderedCommitter` under a single lock, so
/// the merged artifact stays deterministic in cell order regardless of
/// handler interleaving.
const O002_ALLOWED: &[&str] = &["crates/runtime/src/pool.rs", "crates/service/src/server.rs"];

/// O002: parallel iteration / thread-local merges outside
/// `runtime::pool`.
pub fn o002(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if O002_ALLOWED.contains(&file.path.as_str()) {
        return;
    }
    let toks = &file.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !shipping(file, i) {
            continue;
        }
        if t.kind == TokKind::Ident && PARALLEL_MARKERS.contains(&t.text.as_str()) {
            out.push(Diagnostic {
                rule: "O002",
                path: file.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` merges results outside runtime::pool — cross-thread \
                     combination must go through the pool's deterministic merge by \
                     chunk index",
                    t.text
                ),
            });
        }
    }
}
