//! Minimal JSON reader and writer for the scenario-matrix reports, the
//! server protocol and the benchmark.
//!
//! The workspace's vendored `serde` is a no-op shim (the container has no
//! crates.io access), and the reports are hand-rolled JSON writers, so
//! this module provides the matching reader: a small recursive-descent parser
//! into a [`Json`] value tree plus dotted-path accessors
//! ([`Json::get`], [`Json::number`]). It covers the full JSON grammar —
//! objects, arrays, strings with the common escapes, numbers, booleans,
//! null — which is what `report_tables` needs to read a
//! `SCENARIO_MATRIX.json` and `sime-server` needs to read a request line.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which covers every value the bench
    /// reports emit).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep no duplicate entries (last wins, as in
    /// `JSON.parse`).
    Object(BTreeMap<String, Json>),
}

/// A parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl fmt::Display for Json {
    /// Renders the value back to JSON text. `parse(render(v))` reproduces `v`
    /// exactly: strings re-escape, numbers use Rust's shortest round-tripping
    /// `f64` format, object keys stay sorted (the `BTreeMap` order).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => write!(f, "{n}"),
            Json::String(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(map) => {
                f.write_str("{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{0008}' => f.write_str("\\b")?,
            '\u{000C}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON document"));
        }
        Ok(value)
    }

    /// Parses a JSON document from raw bytes, rejecting non-UTF-8 input with
    /// the offset of the first invalid byte. Bench artifacts travel through
    /// CI upload/download; this is the entry point for files read as bytes.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Json, JsonError> {
        let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
            offset: e.valid_up_to(),
            message: "invalid UTF-8 in JSON document".to_string(),
        })?;
        Json::parse(text)
    }

    /// Walks a dotted path of object keys (`"head_to_head.goodness_pass.ns"`).
    /// Array indexing uses numeric segments (`"runs.0.wall_ns"`). Returns
    /// `None` when any segment is missing or of the wrong shape.
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut node = self;
        for segment in path.split('.') {
            node = match node {
                Json::Object(map) => map.get(segment)?,
                Json::Array(items) => items.get(segment.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(node)
    }

    /// The number at a dotted path, if present.
    pub fn number(&self, path: &str) -> Option<f64> {
        match self.get(path)? {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string at a dotted path, if present.
    pub fn string(&self, path: &str) -> Option<&str> {
        match self.get(path)? {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound one line of `[`s overflows
/// the stack of whichever thread parses it.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Open arrays and objects around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", expected as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{literal}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs a container parser one nesting level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by any report
                            // this reader targets; map lone surrogates to the
                            // replacement character rather than failing.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // copied verbatim).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_report_shapes() {
        let doc = r#"{
            "schema_version": 1,
            "report": "sample",
            "head_to_head": {
                "trial_scoring_48slots": {"reps": 200, "naive_ns": 123456, "speedup": 6.78},
                "full_net_lengths": {"speedup": 2.5}
            },
            "runs": [{"wall_ns": 100}, {"wall_ns": 50, "null_field": null, "flag": true}]
        }"#;
        let json = Json::parse(doc).unwrap();
        assert_eq!(json.number("schema_version"), Some(1.0));
        assert_eq!(json.string("report"), Some("sample"));
        assert_eq!(
            json.number("head_to_head.trial_scoring_48slots.speedup"),
            Some(6.78)
        );
        assert_eq!(json.number("runs.1.wall_ns"), Some(50.0));
        assert_eq!(json.get("runs.1.null_field"), Some(&Json::Null));
        assert_eq!(json.get("runs.1.flag"), Some(&Json::Bool(true)));
        assert_eq!(json.number("head_to_head.missing"), None);
        assert_eq!(json.number("report"), None, "strings are not numbers");
    }

    #[test]
    fn parses_numbers_in_every_report_format() {
        for (text, value) in [
            ("0", 0.0),
            ("-3", -3.0),
            ("6.25", 6.25),
            ("1e3", 1000.0),
            ("2.5E-2", 0.025),
        ] {
            assert_eq!(Json::parse(text).unwrap(), Json::Number(value), "{text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let json = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(json, Json::String("a\"b\\c\ndA".to_string()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must not parse");
        }
        // Nesting is bounded, so a line of `[`s is an error, not a stack
        // overflow.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let past_limit = format!("[{at_limit}]");
        assert!(Json::parse(&past_limit).is_err());
        assert!(Json::parse(&"[".repeat(60_000)).is_err());
    }

    #[test]
    fn render_parse_round_trips() {
        // parse(render(parse(x))) == parse(x) for a document exercising every
        // value kind, nested containers, escapes and number formats.
        let doc = r#"{
            "empty_obj": {}, "empty_arr": [],
            "nested": {"deep": [{"k": [1, 2.5, -3e2]}, null, true, false]},
            "strings": ["plain", "esc \" \\ \n \r \t \b \f /", "unicode µ≥"],
            "numbers": [0, -0.125, 1e3, 6.78]
        }"#;
        let first = Json::parse(doc).unwrap();
        let rendered = first.to_string();
        let second = Json::parse(&rendered).unwrap();
        assert_eq!(first, second, "rendered form was: {rendered}");
        // Rendering is a fixed point after one round.
        assert_eq!(rendered, second.to_string());
    }

    #[test]
    fn truncated_object_reports_the_cut() {
        for bad in [
            r#"{"a": 1, "#,
            r#"{"a": {"b": 2}"#,
            r#"{"a": [1, 2"#,
            r#"{"a""#,
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(
                err.offset <= bad.len(),
                "offset {} beyond input for `{bad}`",
                err.offset
            );
        }
    }

    #[test]
    fn bad_escapes_are_rejected() {
        for bad in [r#""\x""#, r#""\u12""#, r#""\uZZZZ""#, r#""tail\"#] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let json = Json::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap();
        assert_eq!(json.number("a"), Some(3.0), "JSON.parse semantics");
        assert_eq!(json.number("b"), Some(2.0));
        match json {
            Json::Object(ref map) => assert_eq!(map.len(), 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn parse_bytes_rejects_non_utf8() {
        let mut bytes = br#"{"a": ""#.to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        bytes.extend_from_slice(br#""}"#);
        let err = Json::parse_bytes(&bytes).unwrap_err();
        assert!(
            err.message.contains("UTF-8"),
            "unexpected message: {}",
            err.message
        );
        assert_eq!(err.offset, 7, "offset of the first invalid byte");

        // Valid UTF-8 bytes parse exactly like the &str entry point.
        let ok = Json::parse_bytes("{\"µ\": 1}".as_bytes()).unwrap();
        assert_eq!(ok.number("µ"), Some(1.0));
    }

    #[test]
    fn the_checked_in_reports_parse() {
        // Guard the parser with the real JSON documents checked into the
        // repository, not only hand-written samples.
        let text = std::fs::read_to_string("../../BENCHMARK.json").unwrap();
        let benchmark = Json::parse(&text).unwrap();
        assert_eq!(benchmark.string("end_to_end.0.name"), Some("setup_s"));
        let text = std::fs::read_to_string("../../placebench/metrics.json").unwrap();
        let metrics = Json::parse(&text).unwrap();
        assert_eq!(metrics.number("default_seed"), Some(1.0));
    }
}
