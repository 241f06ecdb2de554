//! A comment/string/char-aware tokenizer for Rust source.
//!
//! This is *not* a full Rust lexer — it is exactly precise enough that the
//! rule passes never mistake the inside of a comment, string, raw string,
//! or char literal for code (the cases that make naive grep-lints lie),
//! and never mistake a lifetime for a char literal. Tokens carry their
//! 1-based line so diagnostics are clickable.

/// Token classes the rule passes distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `_` and raw `r#idents`).
    Ident,
    /// Punctuation; `::`, `=>`, and `->` are single tokens, all else is
    /// one character.
    Punct,
    /// Numeric literal.
    Num,
    /// String literal of any flavor (cooked, raw, byte, C).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`, `'_`, `'static`).
    Lifetime,
}

/// One token with its source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Exact text for idents/puncts; literal text is not retained.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Tok {
    /// `true` iff this is an identifier with the given text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// `true` iff this is punctuation with the given text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }
}

/// An inline `// lint:allow(<rule>, …): reason` escape hatch.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule IDs named in the directive.
    pub rules: Vec<String>,
    /// Text after the closing paren's `:`, if any.
    pub reason: Option<String>,
    /// Line the comment sits on.
    pub line: u32,
    /// `true` when no code token precedes the comment on its line — the
    /// directive then covers the next line that has code.
    pub own_line: bool,
}

/// A tokenized source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream, comments and literals' contents excluded.
    pub toks: Vec<Tok>,
    /// All `lint:allow` directives found in line comments.
    pub allows: Vec<Allow>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parses a `lint:allow(...)` directive out of a comment body.
fn parse_allow(comment: &str, line: u32, own_line: bool) -> Option<Allow> {
    let start = comment.find("lint:allow(")?;
    let rest = &comment[start + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let tail = rest[close + 1..].trim_start();
    let reason = tail
        .strip_prefix(':')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty());
    Some(Allow {
        rules,
        reason,
        line,
        own_line,
    })
}

/// Tokenizes `src`, collecting `lint:allow` directives on the way.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut toks: Vec<Tok> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // `true` once a token has been emitted on the current line; decides
    // whether a trailing comment's allow covers this line or the next.
    let line_has_code = |toks: &[Tok], line: u32| toks.last().is_some_and(|t: &Tok| t.line == line);

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let body: String = chars[start..i].iter().collect();
            if let Some(a) = parse_allow(&body, line, !line_has_code(&toks, line)) {
                allows.push(a);
            }
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            // Block comments nest in Rust.
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // String-literal prefixes: r"", r#""#, b"", br"", c"", cr"", b''.
        if is_ident_start(c) {
            if let Some(next) = string_or_char_after_prefix(&chars, i) {
                match next {
                    Prefixed::Raw(hash_start) => {
                        i = consume_raw_string(&chars, hash_start, &mut line);
                        toks.push(Tok {
                            kind: TokKind::Str,
                            text: String::new(),
                            line,
                        });
                        continue;
                    }
                    Prefixed::Cooked(quote_idx) => {
                        i = consume_cooked_string(&chars, quote_idx, &mut line);
                        toks.push(Tok {
                            kind: TokKind::Str,
                            text: String::new(),
                            line,
                        });
                        continue;
                    }
                    Prefixed::ByteChar(quote_idx) => {
                        i = consume_char_literal(&chars, quote_idx);
                        toks.push(Tok {
                            kind: TokKind::Char,
                            text: String::new(),
                            line,
                        });
                        continue;
                    }
                }
            }
            // Raw identifier `r#ident` (keep the prefix so `r#match` can
            // never be mistaken for the `match` keyword).
            let start = i;
            if c == 'r' && chars.get(i + 1) == Some(&'#') && {
                chars.get(i + 2).copied().is_some_and(is_ident_start)
            } {
                i += 2;
            }
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        if c == '"' {
            i = consume_cooked_string(&chars, i, &mut line);
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
            continue;
        }
        if c == '\'' {
            // Char literal vs lifetime. `'\…'` and `'X'` (any single char
            // followed by a closing quote) are chars; everything else is a
            // lifetime.
            if chars.get(i + 1) == Some(&'\\') {
                i = consume_char_literal(&chars, i);
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
            } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                i += 3;
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
            } else {
                let start = i;
                i += 1;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && (is_ident_continue(chars[i])) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Punctuation, merging the three pairs the rules care about.
        let pair: String = chars[i..(i + 2).min(chars.len())].iter().collect();
        if pair == "::" || pair == "=>" || pair == "->" {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: pair,
                line,
            });
            i += 2;
        } else {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    Lexed { toks, allows }
}

enum Prefixed {
    /// Raw string; the index points at the first `#` or the quote.
    Raw(usize),
    /// Cooked string; the index points at the quote.
    Cooked(usize),
    /// Byte-char literal; the index points at the opening `'`.
    ByteChar(usize),
}

/// Detects `r`/`b`/`c`/`br`/`cr`-prefixed string and byte-char literals
/// starting at `i` (which holds an ident-start char).
fn string_or_char_after_prefix(chars: &[char], i: usize) -> Option<Prefixed> {
    let c = chars[i];
    let next = chars.get(i + 1).copied();
    match (c, next) {
        ('r', Some('"')) => Some(Prefixed::Raw(i + 1)),
        ('r', Some('#')) => {
            // Distinguish r#"…"# from the raw identifier r#ident.
            let mut j = i + 1;
            while chars.get(j) == Some(&'#') {
                j += 1;
            }
            (chars.get(j) == Some(&'"')).then_some(Prefixed::Raw(i + 1))
        }
        ('b', Some('"')) | ('c', Some('"')) => Some(Prefixed::Cooked(i + 1)),
        ('b', Some('\'')) => Some(Prefixed::ByteChar(i + 1)),
        ('b' | 'c', Some('r')) => {
            let mut j = i + 2;
            while chars.get(j) == Some(&'#') {
                j += 1;
            }
            (chars.get(j) == Some(&'"')).then_some(Prefixed::Raw(i + 2))
        }
        _ => None,
    }
}

/// Consumes a raw string starting at the first `#` (or the quote) and
/// returns the index just past the closing delimiter.
fn consume_raw_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(
        chars.get(i),
        Some(&'"'),
        "raw string must open with a quote"
    );
    i += 1;
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && chars.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

/// Consumes a cooked string starting at its opening quote and returns the
/// index just past the closing quote.
fn consume_cooked_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes a char (or byte-char) literal starting at its opening `'` and
/// returns the index just past the closing `'`.
fn consume_char_literal(chars: &[char], mut i: usize) -> usize {
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_produce_no_idents() {
        let src = r##"let x = "HashMap::iter inside a string"; // HashMap here too
        /* and /* nested */ HashMap */ let y = 1;"##;
        assert_eq!(idents(src), vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn raw_strings_with_hashes_are_opaque() {
        let src = "let s = r#\"quote \" and // slash and HashMap\"#; let t = 2;";
        assert_eq!(idents(src), vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn char_literals_do_not_open_strings_or_comments() {
        // '"' must not start a string; '/' twice must not start a comment.
        let src = "let q = '\"'; let a = '/'; let b = '/'; let done = 1;";
        assert_eq!(
            idents(src),
            vec!["let", "q", "let", "a", "let", "b", "let", "done"]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let l = lex(src);
        let lifetimes = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        assert!(l.toks.iter().all(|t| t.kind != TokKind::Char));
    }

    #[test]
    fn allow_directives_are_parsed_with_reason_and_placement() {
        let src = "let x = 1; // lint:allow(D001): keys are pre-sorted\n// lint:allow(P001, D002)\nlet y = 2;";
        let l = lex(src);
        assert_eq!(l.allows.len(), 2);
        assert_eq!(l.allows[0].rules, vec!["D001"]);
        assert_eq!(l.allows[0].reason.as_deref(), Some("keys are pre-sorted"));
        assert!(!l.allows[0].own_line);
        assert_eq!(l.allows[1].rules, vec!["P001", "D002"]);
        assert!(l.allows[1].own_line);
        assert_eq!(l.allows[1].reason, None);
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let a = \"two\nlines\";\nlet b = 1;";
        let l = lex(src);
        let b = l.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn raw_identifier_keeps_prefix() {
        assert_eq!(idents("let r#match = 1;"), vec!["let", "r#match"]);
    }

    #[test]
    fn merged_puncts() {
        let l = lex("a::b => c -> d");
        let puncts: Vec<String> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(puncts, vec!["::", "=>", "->"]);
    }
}
