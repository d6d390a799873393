//! Minimal JSON writer, parser, and line-delimited stream framing.
//!
//! The container this repository builds in has no access to crates.io, so
//! the `--json` output of the `report` binary is serialized by hand. The
//! format mirrors what `serde_json::to_string_pretty` produced for the same
//! structures (two-space indent, `untagged` cells), keeping downstream
//! consumers of `results/*.json` working.
//!
//! The parser half ([`Value`], [`parse_value`]) exists for the `smt-serve`
//! wire protocol: one JSON object per `\n`-terminated line. It is strict
//! RFC 8259 with two protocol-motivated limits — nesting depth and line
//! length are bounded so adversarial input cannot recurse or buffer the
//! reader into the ground. [`JsonLineReader`]/[`write_json_line`] frame
//! values over any `Read`/`Write` (in practice a `TcpStream`), enforcing
//! those limits on the way in.
//!
//! Byte-identity note: numbers are serialized by `float_into` in the
//! shortest round-trip form and parsed back with Rust's correctly rounded
//! `str::parse`, so a float that travels `write → parse → write` is
//! byte-identical — the property the sweep server relies on to serve
//! cached cells that re-serialize into `results.json` exactly as a local
//! `sweep` run would.

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

use crate::{Cell, Row, Table};

/// Escapes a string per RFC 8259.
fn escape_into(out: &mut String, s: &str) {
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

/// Formats a float the way `serde_json` (ryu) does: shortest round-trip
/// representation, with a trailing `.0` kept on integral values. Non-finite
/// values serialize as `null`, matching `serde_json`'s lenient writers.
fn float_into(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e16 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

fn cell_into(out: &mut String, cell: &Cell) {
    match cell {
        Cell::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Cell::Float(v) => float_into(out, *v),
        Cell::Text(s) => escape_into(out, s),
    }
}

fn row_into(out: &mut String, row: &Row, indent: usize) {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    let _ = write!(out, "{pad}{{\n{inner}\"label\": ");
    escape_into(out, &row.label);
    let _ = write!(out, ",\n{inner}\"values\": [");
    for (i, cell) in row.values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        cell_into(out, cell);
    }
    let _ = write!(out, "]\n{pad}}}");
}

fn table_into(out: &mut String, table: &Table, indent: usize) {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    let _ = write!(out, "{pad}{{\n{inner}\"id\": ");
    escape_into(out, &table.id);
    let _ = write!(out, ",\n{inner}\"title\": ");
    escape_into(out, &table.title);
    let _ = write!(out, ",\n{inner}\"columns\": [");
    for (i, c) in table.columns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        escape_into(out, c);
    }
    let _ = write!(out, "],\n{inner}\"rows\": [\n");
    for (i, row) in table.rows.iter().enumerate() {
        row_into(out, row, indent + 2);
        out.push_str(if i + 1 < table.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(out, "{inner}]\n{pad}}}");
}

/// Serializes a slice of tables as a pretty-printed JSON array.
#[must_use]
pub fn tables_to_json(tables: &[Table]) -> String {
    let mut out = String::from("[\n");
    for (i, t) in tables.iter().enumerate() {
        table_into(&mut out, t, 1);
        out.push_str(if i + 1 < tables.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Serializes a flat string → number map (for the perf trajectory file).
#[must_use]
pub fn object_to_json(fields: &[(&str, Cell)]) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        out.push_str("  ");
        escape_into(&mut out, k);
        out.push_str(": ");
        cell_into(&mut out, v);
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out
}

/// Maximum nesting depth [`parse_value`] accepts. Deep enough for any
/// structure this repository exchanges, shallow enough that a crafted
/// `[[[[…]]]]` cannot exhaust the stack.
pub const MAX_DEPTH: usize = 32;

/// Maximum bytes in one protocol line (request or response). Oversized
/// lines are a typed error at the framing layer, never a buffered blob.
pub const MAX_LINE: usize = 1 << 20;

/// A parsed JSON value.
///
/// Numbers keep their lexical class: an integral token without `.`/`e`
/// that fits `i64` parses as [`Value::Int`], everything else as
/// [`Value::Float`]. Objects preserve key order (serialization is
/// insertion-ordered, like every writer in this module).
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integral number.
    Int(i64),
    /// Non-integral (or i64-overflowing) number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, in source key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants or a
    /// missing key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A non-negative integer payload, if this is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Any numeric payload as `f64` (ints convert losslessly up to 2^53).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// Serializes compactly on one line (no interior newlines, so the
    /// result is always a legal protocol frame).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v) => float_into(out, *v),
            Value::Str(s) => escape_into(out, s),
            Value::Array(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write_into(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(Value::Float(v as f64), Value::Int)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Why a parse failed: a human-readable reason and the byte offset it was
/// detected at. The message is safe to echo back over the protocol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// What went wrong.
    pub reason: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing content (other than
/// whitespace) is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] naming the defect and its byte offset for any
/// input that is not a single well-formed value within [`MAX_DEPTH`].
pub fn parse_value(src: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        src,
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            reason: reason.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null", Value::Null),
            Some(b't') => self.eat("true", Value::Bool(true)),
            Some(b'f') => self.eat("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // consume '['
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.pos += 1; // consume '{'
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: runs of plain characters copy as one slice.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The slice boundaries sit on ASCII delimiters, so this is
            // always a char boundary of the UTF-8 source.
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // Escape sequence.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if !self.src[self.pos..].starts_with("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                            // hex4 leaves pos past the digits; skip the
                            // shared `pos += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Reads exactly four hex digits, returning their value and leaving
    /// `pos` after them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let v = u32::from_str_radix(digits, 16)
            .map_err(|_| self.err("invalid unicode escape digits"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1
            && self.bytes[start + usize::from(self.src.as_bytes()[start] == b'-')] == b'0'
        {
            return Err(self.err("leading zero"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.src[start..self.pos];
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }

    /// Consumes one or more digits.
    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digit"));
        }
        Ok(self.pos - start)
    }
}

/// What [`JsonLineReader::next_value`] produced for one frame.
#[derive(Debug)]
pub enum Frame {
    /// A well-formed value.
    Value(Value),
    /// The line was not valid JSON (or not valid UTF-8); the reason is
    /// safe to echo back. The stream is still positioned on a line
    /// boundary, so the connection can continue.
    Malformed(String),
    /// The line exceeded [`MAX_LINE`] bytes. The reader does *not* skip
    /// the rest of the line (that could mean buffering an unbounded
    /// stream); the caller should report an error and drop the
    /// connection.
    Oversized,
}

/// Reads `\n`-delimited JSON values off any buffered byte stream,
/// enforcing the protocol's line-length cap before any allocation
/// proportional to attacker input.
pub struct JsonLineReader<R: BufRead> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: BufRead> JsonLineReader<R> {
    /// Wraps a buffered reader.
    pub fn new(inner: R) -> Self {
        JsonLineReader {
            inner,
            buf: Vec::new(),
        }
    }

    /// The wrapped reader.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Reads the next frame. `Ok(None)` is a clean end-of-stream; blank
    /// lines are skipped.
    ///
    /// # Errors
    ///
    /// Propagates transport errors from the underlying reader.
    pub fn next_value(&mut self) -> io::Result<Option<Frame>> {
        loop {
            self.buf.clear();
            // Bounded read_until: pull from the BufRead's internal buffer
            // chunk by chunk so a line longer than MAX_LINE is detected
            // without ever holding more than MAX_LINE + one chunk.
            let mut saw_newline = false;
            while !saw_newline {
                let chunk = self.inner.fill_buf()?;
                if chunk.is_empty() {
                    break; // EOF
                }
                let take = match chunk.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        saw_newline = true;
                        i + 1
                    }
                    None => chunk.len(),
                };
                if self.buf.len() + take > MAX_LINE {
                    self.inner.consume(take);
                    return Ok(Some(Frame::Oversized));
                }
                self.buf.extend_from_slice(&chunk[..take]);
                self.inner.consume(take);
            }
            if self.buf.is_empty() {
                return Ok(None); // clean EOF
            }
            while matches!(self.buf.last(), Some(b'\n' | b'\r')) {
                self.buf.pop();
            }
            if self.buf.is_empty() {
                if saw_newline {
                    continue; // blank line: skip
                }
                return Ok(None);
            }
            let Ok(text) = std::str::from_utf8(&self.buf) else {
                return Ok(Some(Frame::Malformed("line is not valid UTF-8".into())));
            };
            return Ok(Some(match parse_value(text) {
                Ok(v) => Frame::Value(v),
                Err(e) => Frame::Malformed(e.to_string()),
            }));
        }
    }
}

/// Writes one value as a `\n`-terminated frame and flushes, so a peer
/// blocked on a read always sees the line.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_json_line<W: Write>(w: &mut W, v: &Value) -> io::Result<()> {
    let mut line = v.to_line();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_serialize_flat() {
        let row = Row {
            label: "r".into(),
            values: vec![Cell::Int(1), Cell::Float(0.5), Cell::Text("x".into())],
        };
        let mut out = String::new();
        row_into(&mut out, &row, 0);
        assert!(out.contains("\"label\": \"r\""), "{out}");
        assert!(out.contains("[1, 0.5, \"x\"]"), "{out}");
    }

    #[test]
    fn floats_keep_trailing_zero() {
        let mut out = String::new();
        float_into(&mut out, 100.0);
        assert_eq!(out, "100.0");
        out.clear();
        float_into(&mut out, 1.25);
        assert_eq!(out, "1.25");
        out.clear();
        float_into(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn tables_form_a_json_array() {
        let mut t = Table::new("Figure 0", "demo", &["a"]);
        t.push_row("r1", vec![Cell::Int(3)]);
        let json = tables_to_json(&[t.clone(), t]);
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.ends_with(']'), "{json}");
        assert_eq!(json.matches("\"Figure 0\"").count(), 2);
    }

    #[test]
    fn parser_handles_the_core_grammar() {
        let v = parse_value(r#"{"a": [1, -2.5, true, null], "b": {"c": "x"}}"#).expect("parses");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0], Value::Int(1));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1],
            Value::Float(-2.5)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(parse_value("42").unwrap(), Value::Int(42));
        assert_eq!(parse_value("1e3").unwrap(), Value::Float(1000.0));
    }

    #[test]
    fn parser_round_trips_escapes_and_unicode() {
        let v = parse_value(r#""a\"b\\c\ndé😀""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{e9}\u{1f600}"));
        // write → parse → write is a fixpoint.
        let line = v.to_line();
        assert_eq!(parse_value(&line).unwrap().to_line(), line);
    }

    #[test]
    fn parser_round_trips_shortest_form_floats_bit_exactly() {
        for &f in &[1.234_567_890_123_4, 0.1, 1.0 / 3.0, 2.5e-10, 1e300] {
            let mut line = String::new();
            float_into(&mut line, f);
            let Value::Float(back) = parse_value(&line).unwrap() else {
                panic!("{line} did not parse as a float");
            };
            assert_eq!(back.to_bits(), f.to_bits(), "{line}");
        }
        // Integral floats keep their `.0` and parse back as floats.
        assert_eq!(parse_value("100.0").unwrap(), Value::Float(100.0));
    }

    #[test]
    fn parser_rejects_malformed_input_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "tru",
            "01",
            "1.",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 lone\"",
            "[1] trailing",
            "nan",
            "--1",
            "\u{7}",
        ] {
            assert!(parse_value(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parser_caps_nesting_depth() {
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 2),
            "]".repeat(MAX_DEPTH + 2)
        );
        let err = parse_value(&deep).expect_err("too deep");
        assert!(err.reason.contains("deep"), "{err}");
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_value(&ok).is_ok(), "at the cap still parses");
    }

    #[test]
    fn line_reader_frames_values_blank_lines_and_garbage() {
        let stream = b"{\"a\":1}\n\n   \nnot json\n[2]\n".to_vec();
        let mut r = JsonLineReader::new(std::io::Cursor::new(stream));
        let Frame::Value(v) = r.next_value().unwrap().unwrap() else {
            panic!("first frame is a value");
        };
        assert_eq!(v.get("a").unwrap(), &Value::Int(1));
        // Truly blank lines are skipped; a spaces-only line reaches the
        // parser and comes back malformed (empty input is not a value).
        let Frame::Malformed(_) = r.next_value().unwrap().unwrap() else {
            panic!("whitespace-only line is malformed JSON");
        };
        let Frame::Malformed(_) = r.next_value().unwrap().unwrap() else {
            panic!("garbage line is malformed");
        };
        let Frame::Value(v) = r.next_value().unwrap().unwrap() else {
            panic!("stream recovers on the next line");
        };
        assert_eq!(v.as_array().unwrap(), &[Value::Int(2)]);
        assert!(r.next_value().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn line_reader_rejects_oversized_lines_without_buffering_them() {
        let mut stream = vec![b'['; MAX_LINE + 10];
        stream.push(b'\n');
        stream.extend_from_slice(b"{\"ok\":true}\n");
        let mut r = JsonLineReader::new(std::io::Cursor::new(stream));
        let Frame::Oversized = r.next_value().unwrap().unwrap() else {
            panic!("oversized line is flagged");
        };
    }

    #[test]
    fn final_line_without_newline_still_parses() {
        let mut r = JsonLineReader::new(std::io::Cursor::new(b"{\"a\":1}".to_vec()));
        let Frame::Value(v) = r.next_value().unwrap().unwrap() else {
            panic!("unterminated final line parses");
        };
        assert_eq!(v.get("a").unwrap(), &Value::Int(1));
        assert!(r.next_value().unwrap().is_none());
    }

    #[test]
    fn write_json_line_is_parse_inverse() {
        let v = Value::Object(vec![
            ("s".into(), Value::Str("x\ny".into())),
            ("n".into(), Value::Float(2.25)),
            ("i".into(), Value::Int(-3)),
            ("b".into(), Value::Bool(true)),
            ("z".into(), Value::Null),
            ("a".into(), Value::Array(vec![Value::Int(1)])),
        ]);
        let mut buf = Vec::new();
        write_json_line(&mut buf, &v).unwrap();
        assert!(buf.ends_with(b"\n"));
        let mut r = JsonLineReader::new(std::io::Cursor::new(buf));
        let Frame::Value(back) = r.next_value().unwrap().unwrap() else {
            panic!("round trip");
        };
        assert_eq!(back, v);
    }
}
