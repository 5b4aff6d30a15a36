//! Minimal JSON value type, printer, and parser.
//!
//! The workspace is hermetic (no external crates), so everything that
//! speaks JSON — the machine-readable `BENCH_*.json` artifacts written by
//! `qmldb-bench` and the line-delimited wire protocol of `qmldb-serve` —
//! goes through this hand-rolled value type: a printer, a
//! recursive-descent parser, and an atomic file writer. It lives in the
//! base utility crate (next to [`crate::check`] and [`crate::par`]) so
//! both producers can share one implementation without a dependency
//! cycle.

use std::fmt::Write as _;
use std::path::Path;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive descent, so without a bound a line of 100 000 `[` overflows
/// a 2 MiB thread stack and aborts the whole process — over the wire, one
/// hostile line would take the server down for every client. 128 levels
/// is far beyond any document the workspace writes or reads.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order (`Vec`, not a map) so
/// emitted documents are deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always an f64; serialized via shortest roundtrip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sets (or replaces) an object field, preserving field order.
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(fields) = self else {
            panic!("Json::set on a non-object");
        };
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_string(), value));
        }
    }

    /// The value as an f64, when it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, when it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    /// Serializes onto one line with no trailing newline — the shape the
    /// line-delimited wire protocol needs (one value per line).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        let pad = if pretty {
            "  ".repeat(indent)
        } else {
            String::new()
        };
        let (nl, sp) = if pretty { ("\n", "  ") } else { ("", "") };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest string that parses back to
                    // the same f64 — lossless roundtrip.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                out.push_str(nl);
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}{sp}");
                    item.write(out, indent + 1, pretty);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push_str(nl);
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                out.push_str(nl);
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}{sp}");
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1, pretty);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push_str(nl);
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }

    /// Parses a JSON document (object, array, or scalar). Rejects trailing
    /// garbage and arrays/objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.at));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b" \t\n\r".contains(b))
        {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.at) {
            Some(&open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.at
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (bytes are valid UTF-8: the
                    // input came from &str).
                    let rest = std::str::from_utf8(&self.bytes[self.at..]).unwrap();
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.at += ch.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Writes `text` to `path` via a temp file in the same directory plus an
/// atomic rename. The temp name folds in the process id so concurrent
/// writers of different files in one directory never collide; the temp
/// file is removed on a failed rename. Writers that update a shared file
/// incrementally (the bench artifact merger) rely on this: an in-place
/// write that dies mid-stream would truncate everything already written.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("target path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("qaoa 16q \"dense\"".into())),
            ("median_s".into(), Json::Num(0.001234567890123)),
            ("count".into(), Json::Num(-42.0)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "arr".into(),
                Json::Arr(vec![Json::Num(1.5e-9), Json::Str("x\ny".into())]),
            ),
        ]);
        let text = v.pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // The compact form parses back to the same value too.
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn compact_is_single_line() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Null)])),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'), "compact output must be one line");
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        for x in [0.0, 1.0 / 3.0, 6.02e23, 2.220446049250313e-16, -0.1] {
            let text = Json::Num(x).pretty();
            match Json::parse(&text).unwrap() {
                Json::Num(y) => assert_eq!(x.to_bits(), y.to_bits(), "{x}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} extra").is_err());
        assert!(Json::parse("nulL").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded_without_touching_the_stack_limit() {
        let nested = |k: usize| format!("{}{}", "[".repeat(k), "]".repeat(k));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Objects count toward the same limit.
        let obj = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&obj).is_err());
        // A million unclosed brackets on a small-stack thread: an error,
        // not a stack overflow.
        let deep = "[".repeat(1_000_000);
        let r = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&deep).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(r);
    }

    #[test]
    fn get_and_set_behave_like_a_map() {
        let mut v = Json::Obj(vec![]);
        v.set("a", Json::Num(1.0));
        v.set("b", Json::Num(2.0));
        v.set("a", Json::Num(3.0)); // replace keeps position
        assert_eq!(v.get("a"), Some(&Json::Num(3.0)));
        assert_eq!(v.get("b"), Some(&Json::Num(2.0)));
        assert_eq!(v.get("missing"), None);
        match v {
            Json::Obj(ref fields) => assert_eq!(fields[0].0, "a"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn typed_accessors() {
        let v = Json::Obj(vec![
            ("n".into(), Json::Num(4.5)),
            ("s".into(), Json::Str("hi".into())),
            ("a".into(), Json::Arr(vec![Json::Bool(true)])),
        ]);
        assert_eq!(v.get("n").unwrap().as_num(), Some(4.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[0].as_bool(),
            Some(true)
        );
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("s").unwrap().as_num(), None);
    }
}
