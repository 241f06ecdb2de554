//! The workspace's one JSON writer and one JSON reader.
//!
//! The `BENCH_T*.json` artifacts must be byte-identical across thread
//! counts and machines, so the writer is deliberately austere: objects
//! keep insertion order, numbers are integers only (every engine metric is
//! a count), and rendering appends no whitespace beyond single spaces
//! after separators.
//!
//! The reader is [`parse`], which accepts exactly that subset, plus
//! [`Fields`], the strict object reader every decoder (specs, journal
//! records, wire messages) goes through. Both treat their input as
//! untrusted: nesting is capped, parsing is linear, and every failure is
//! a value, never a panic.

use std::cell::Cell;
use std::fmt::Write as _;

/// A JSON value restricted to what deterministic artifacts need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (all engine metrics are counts).
    U64(u64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with **insertion-ordered** keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds a field (builder style). Panics never; duplicate keys are the
    /// caller's bug and render as-is.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Object(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Renders to a compact, deterministic string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::U64(u64::from(n))
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

impl Json {
    /// Looks a key up in an object (first occurrence; this writer never
    /// emits duplicates). `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is a [`Json::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace writes (a SARIF log) nests about 10 levels; the cap
/// keeps a hostile `[[[[…` from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses the exact subset [`Json::render`] emits back into a [`Json`]
/// value. Returns `None` on anything outside the subset (floats,
/// negative numbers, trailing garbage, nesting deeper than
/// [`MAX_DEPTH`]), which callers treat as a torn or corrupt input, never
/// a panic. Linear in the input size.
pub fn parse(s: &str) -> Option<Json> {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while b.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        i
    }
    fn string(s: &str, i: usize) -> Option<(String, usize)> {
        let b = s.as_bytes();
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let mut out = String::new();
        let mut i = i + 1;
        loop {
            // Copy the unescaped run up to the next quote or backslash
            // (both ASCII, so the slice ends on a char boundary).
            let run = b[i..].iter().position(|&c| c == b'"' || c == b'\\')?;
            out.push_str(&s[i..i + run]);
            i += run;
            if b[i] == b'"' {
                return Some((out, i + 1));
            }
            match *b.get(i + 1)? {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let code = u32::from_str_radix(s.get(i + 2..i + 6)?, 16).ok()?;
                    out.push(char::from_u32(code)?);
                    i += 4;
                }
                _ => return None,
            }
            i += 2;
        }
    }
    /// Walks the `,`-separated items after the opening bracket at `i` up
    /// to `close`; `item` parses one item and returns where it ended.
    fn list(
        b: &[u8],
        i: usize,
        close: u8,
        mut item: impl FnMut(usize) -> Option<usize>,
    ) -> Option<usize> {
        let mut i = skip_ws(b, i + 1);
        if b.get(i) == Some(&close) {
            return Some(i + 1);
        }
        loop {
            i = skip_ws(b, item(i)?);
            match *b.get(i)? {
                b',' => i += 1,
                c if c == close => return Some(i + 1),
                _ => return None,
            }
        }
    }
    fn value(s: &str, i: usize, depth: usize) -> Option<(Json, usize)> {
        let b = s.as_bytes();
        let i = skip_ws(b, i);
        match b.get(i)? {
            b'{' | b'[' if depth >= MAX_DEPTH => None,
            b'[' => {
                let mut items = Vec::new();
                let end = list(b, i, b']', |i| {
                    let (item, next) = value(s, i, depth + 1)?;
                    items.push(item);
                    Some(next)
                })?;
                Some((Json::Array(items), end))
            }
            b'{' => {
                let mut fields = Vec::new();
                let end = list(b, i, b'}', |i| {
                    let (key, next) = string(s, skip_ws(b, i))?;
                    let colon = skip_ws(b, next);
                    if b.get(colon) != Some(&b':') {
                        return None;
                    }
                    let (val, next) = value(s, colon + 1, depth + 1)?;
                    fields.push((key, val));
                    Some(next)
                })?;
                Some((Json::Object(fields), end))
            }
            b'"' => string(s, i).map(|(s, next)| (Json::Str(s), next)),
            b't' => b[i..]
                .starts_with(b"true")
                .then(|| (Json::Bool(true), i + 4)),
            b'f' => b[i..]
                .starts_with(b"false")
                .then(|| (Json::Bool(false), i + 5)),
            b'n' => b[i..].starts_with(b"null").then(|| (Json::Null, i + 4)),
            c if c.is_ascii_digit() => {
                let j = i + b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
                Some((Json::U64(s[i..j].parse().ok()?), j))
            }
            _ => None,
        }
    }
    let (v, end) = value(s, 0, 0)?;
    (skip_ws(s.as_bytes(), end) == s.len()).then_some(v)
}

/// A strict reader over one JSON object — the decode half shared by
/// specs, journal records and wire messages.
///
/// Each getter marks its field read, and [`Fields::end`] rejects the first
/// field nobody read, so unknown and duplicate keys fail the same way.
/// Nested objects open at `{path}.{key}` ([`Fields::object`]).
/// Every error is a first-error string naming the object's path:
/// `{path}: expected an object`, `{path}: missing field "key"`,
/// `{path}.key: expected an unsigned integer` (a string, a boolean, an
/// array) and `{path}: unknown field "key"`.
#[derive(Debug)]
pub struct Fields<'a> {
    path: String,
    fields: &'a [(String, Json)],
    read: Vec<Cell<bool>>,
}

impl<'a> Fields<'a> {
    /// Opens `j` as the object at `path`.
    ///
    /// # Errors
    ///
    /// When `j` is not an object.
    pub fn new(j: &'a Json, path: impl Into<String>) -> Result<Fields<'a>, String> {
        let path = path.into();
        match j {
            Json::Object(fields) => Ok(Fields {
                path,
                fields,
                read: vec![Cell::new(false); fields.len()],
            }),
            _ => Err(format!("{path}: expected an object")),
        }
    }

    /// The object's path, for naming nested objects.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// An optional field of any type (its first occurrence).
    pub fn opt_value(&self, key: &str) -> Option<&'a Json> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        self.read[i].set(true);
        Some(&self.fields[i].1)
    }

    fn opt<T>(
        &self,
        key: &str,
        what: &str,
        cast: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.opt_value(key)
            .map(|v| cast(v).ok_or_else(|| format!("{}.{key}: expected {what}", self.path)))
            .transpose()
    }

    fn req<T>(&self, key: &str, found: Result<Option<T>, String>) -> Result<T, String> {
        found?.ok_or_else(|| format!("{}: missing field {key:?}", self.path))
    }

    /// A required field of any type.
    pub fn value(&self, key: &str) -> Result<&'a Json, String> {
        self.req(key, Ok(self.opt_value(key)))
    }

    /// A required unsigned integer.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.req(key, self.opt_u64(key))
    }

    /// A required unsigned integer that fits a `usize` (a cell index or
    /// count).
    pub fn usize(&self, key: &str) -> Result<usize, String> {
        let found = self.opt(key, "an unsigned integer", |j| {
            usize::try_from(j.as_u64()?).ok()
        });
        self.req(key, found)
    }

    /// An optional unsigned integer that fits a `u32` (a retry or poll
    /// budget).
    pub fn opt_u32(&self, key: &str) -> Result<Option<u32>, String> {
        self.opt(key, "an unsigned 32-bit integer", |j| {
            u32::try_from(j.as_u64()?).ok()
        })
    }

    /// An optional unsigned integer.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.opt(key, "an unsigned integer", Json::as_u64)
    }

    /// A required string.
    pub fn str(&self, key: &str) -> Result<String, String> {
        self.req(key, self.opt_str(key))
    }

    /// An optional string.
    pub fn opt_str(&self, key: &str) -> Result<Option<String>, String> {
        self.opt(key, "a string", |j| j.as_str().map(str::to_string))
    }

    /// A required boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.req(key, self.opt(key, "a boolean", Json::as_bool))
    }

    /// A required nested object, opened at `{path}.{key}`.
    pub fn object(&self, key: &str) -> Result<Fields<'a>, String> {
        self.req(key, self.opt_object(key))
    }

    /// An optional nested object, opened at `{path}.{key}`.
    pub fn opt_object(&self, key: &str) -> Result<Option<Fields<'a>>, String> {
        self.opt_value(key)
            .map(|j| Fields::new(j, format!("{}.{key}", self.path)))
            .transpose()
    }

    /// A required array.
    pub fn array(&self, key: &str) -> Result<&'a [Json], String> {
        let items = self.opt(key, "an array", |j| match j {
            Json::Array(items) => Some(items.as_slice()),
            _ => None,
        });
        self.req(key, items)
    }

    /// Finishes the object, handing back the `value` decoded from it.
    ///
    /// # Errors
    ///
    /// An unknown field: the first one never read.
    pub fn end<T>(&self, value: T) -> Result<T, String> {
        match self.read.iter().position(|r| !r.get()) {
            Some(i) => Err(format!(
                "{}: unknown field {:?}",
                self.path, self.fields[i].0
            )),
            None => Ok(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_deterministically() {
        let j = Json::obj()
            .field("name", "t10")
            .field("cells", vec![Json::U64(1), Json::Bool(true)])
            .field("note", "a \"quoted\"\nline");
        let a = j.render();
        let b = j.render();
        assert_eq!(a, b);
        assert_eq!(
            a,
            "{\"name\": \"t10\", \"cells\": [1, true], \"note\": \"a \\\"quoted\\\"\\nline\"}"
        );
    }

    #[test]
    fn parse_round_trips_multibyte_labels_and_every_escape() {
        let j = Json::obj()
            .field("label", "ring/κ=3 → 𝔽₂ ✓")
            .field("escapes", "q\" b\\ n\n r\r t\t c\u{1} d\u{1f}")
            .field("cells", vec![Json::U64(u64::MAX), Json::Null]);
        assert_eq!(parse(&j.render()), Some(j));
        assert_eq!(parse("\"\\u00e9\""), Some(Json::Str("é".to_string())));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "{} extra",
            "-1",
            "1.5",
        ] {
            assert_eq!(parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_caps_nesting_depth() {
        assert_eq!(parse(&"[".repeat(100_000)), None);
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_some());
        assert_eq!(parse(&deep(MAX_DEPTH + 1)), None);
    }

    #[test]
    fn fields_reject_missing_mistyped_unknown_and_duplicate_keys() {
        let j = parse("{\"a\": 1, \"b\": \"x\", \"a\": 2}").unwrap();
        let f = Fields::new(&j, "obj").unwrap();
        assert_eq!(f.u64("a"), Ok(1));
        assert_eq!(f.str("b"), Ok("x".to_string()));
        assert_eq!(f.bool("c").unwrap_err(), "obj: missing field \"c\"");
        assert_eq!(f.end(()).unwrap_err(), "obj: unknown field \"a\"");
        let err = Fields::new(&j, "obj").unwrap().u64("b").unwrap_err();
        assert_eq!(err, "obj.b: expected an unsigned integer");
        let err = Fields::new(&Json::Null, "x").unwrap_err();
        assert_eq!(err, "x: expected an object");
        let err = Fields::new(&j, "obj").unwrap().object("b").unwrap_err();
        assert_eq!(err, "obj.b: expected an object");
    }
}
