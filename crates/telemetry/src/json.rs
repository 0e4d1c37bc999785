//! The workspace's one JSON codec: a value type, a bounded parser and a
//! writer.
//!
//! The vendored `serde` is an offline stub without `serde_json`, so every
//! JSON document the workspace reads or writes goes through this module: the
//! `dipe-serve` wire protocol and checkpoint files, the trace lines of
//! [`crate::trace`], the `dipe --json` reports and the `BENCH_*.json`
//! benchmark records.
//!
//! The one deliberate design decision is that **numbers are kept as raw
//! text** ([`Json::Num`] holds the unparsed token). The protocol carries
//! 64-bit seeds and raw IEEE-754 bit patterns as integers; routing them
//! through `f64` (what a conventional JSON value does) would silently round
//! everything above 2^53 and break the bit-exact checkpoint contract. Callers
//! decode a number as `u64`, `i64`, `usize` or `f64` at the use site — and
//! encode from the exact source type — so nothing is lost in transit.
//!
//! There is one number rule: [`Json::f64`] writes Rust's shortest
//! round-trip decimal and `null` for non-finite values. There is one writer
//! with two layouts: [`Json::to_line`] (one line, for the wire, traces and
//! checkpoints) and [`Json::to_pretty`] (indented, for files people read).

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON document (or a document under construction).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text (see the module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved; lookups are linear, which is
    /// fine for protocol-sized objects.
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input at the point of failure.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    // ---------------------------------------------------------------- build

    /// A number from a `u64`, losslessly.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from a `usize`, losslessly.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from an `f64`. Uses Rust's shortest round-tripping `Display`
    /// form, so `as_f64` recovers the exact value; non-finite values become
    /// `null` (JSON has no representation for them).
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            let text = format!("{v}");
            // `Display` omits the decimal point for integral values; that is
            // still a valid JSON number, so keep it as is.
            Json::Num(text)
        } else {
            Json::Null
        }
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// An object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    // ----------------------------------------------------------------- read

    /// Object member lookup (`None` on non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Decodes a number token as `u64` (exact; rejects signs, fractions and
    /// exponents).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Decodes a number token as `usize` (exact).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Decodes a number token as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` when this is JSON `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    // ---------------------------------------------------------------- parse

    /// Parses one JSON document. Trailing content (other than whitespace) is
    /// an error, so a protocol line cannot smuggle a second message.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    // ---------------------------------------------------------------- write

    /// Serialises to a single-line JSON string (the NDJSON wire form; no
    /// embedded newlines, so one value is always one line).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serialises for people to read, with a trailing newline: two-space
    /// indent, one member or element per line, `"key": value`. Empty arrays
    /// and objects stay `[]` and `{}`. Only whitespace differs from
    /// [`to_line`](Self::to_line), so both parse to the same value.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Appends this value to `out`: on one line when `depth` is `None`,
    /// else indented as if nested `depth` levels deep.
    pub(crate) fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => escape(out, s),
            Json::Arr(items) => {
                write_members(out, depth, ('[', ']'), items.iter().map(|v| (None, v)));
            }
            Json::Obj(pairs) => {
                let members = pairs.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, depth, ('{', '}'), members);
            }
        }
    }
}

/// Writes the members of an array (keys `None`) or object between `open`
/// and `close`, in the layout `depth` selects (see [`Json::write`]).
fn write_members<'a>(
    out: &mut String,
    depth: Option<usize>,
    (open, close): (char, char),
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let newline = |out: &mut String, depth: Option<usize>| {
        if let Some(depth) = depth {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        }
    };
    let inner = depth.map(|d| d + 1);
    let empty = members.len() == 0;
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        if let Some(key) = key {
            escape(out, key);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if !empty {
        newline(out, depth);
    }
    out.push(close);
}

/// Appends `s` to `out` as a quoted JSON string literal. Quotes,
/// backslashes and control characters are escaped (controls as `\u00XX`);
/// every other character is copied verbatim, a run at a time.
pub(crate) fn escape(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte == b'"' || byte == b'\\' || byte < 0x20 {
            // ASCII delimiters, so `i` is a character boundary.
            out.push_str(&s[run..i]);
            match byte {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                _ => write!(out, "\\u{byte:04x}").expect("writing to a String cannot fail"),
            }
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Nesting depth bound: protocol messages and checkpoint files are a few
/// levels deep, so anything past this is hostile or corrupt input, rejected
/// before it can exhaust the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one slice. Those delimiters are ASCII, so the run ends on a
            // character boundary of the (already valid UTF-8) input, and the
            // whole string costs time linear in its length.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            // Combine UTF-16 surrogate pairs; a lone
                            // surrogate is malformed input.
                            let c = if (0xd800..0xdc00).contains(&first) {
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let second = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&second) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&first) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Reads four hex digits, advancing past them; returns the code unit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let value = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("malformed number (empty fraction)"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("malformed number (empty exponent)"));
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn u64_numbers_survive_unrounded() {
        // Above 2^53: a float-backed JSON value would corrupt this.
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.to_line(), "18446744073709551615");
    }

    #[test]
    fn f64_round_trips_through_display() {
        for x in [0.1, 1.0 / 3.0, 2.5e-300, f64::MIN_POSITIVE, 1e308] {
            let line = Json::f64(x).to_line();
            assert_eq!(Json::parse(&line).unwrap().as_f64(), Some(x), "{line}");
        }
        assert!(Json::f64(f64::NAN).is_null());
        assert!(Json::f64(f64::INFINITY).is_null());
    }

    #[test]
    fn objects_and_arrays_round_trip() {
        let doc = r#"{"type":"submit","job":{"circuit":"s27","seed":1997,"opts":[1,2,3],"deep":{"a":null}}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("submit"));
        let job = v.get("job").unwrap();
        assert_eq!(job.get("seed").and_then(Json::as_u64), Some(1997));
        assert_eq!(job.get("opts").and_then(Json::as_arr).unwrap().len(), 3);
        assert!(job.get("deep").unwrap().get("a").unwrap().is_null());
        assert_eq!(Json::parse(&v.to_line()).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote \" backslash \\ newline \n tab \t unicode \u{263a} nul-ish \u{0001}";
        let line = Json::str(original).to_line();
        assert_eq!(Json::parse(&line).unwrap().as_str(), Some(original));
        // Standard escape forms parse too.
        assert_eq!(
            Json::parse(r#""aA\n\t\/\b\f\r""#).unwrap().as_str(),
            Some("aA\n\t/\u{8}\u{c}\r")
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("\u{1f600}"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01x",
            "1.",
            "1e",
            "nul",
            "\"unterminated",
            "{}{}",
            "[1] extra",
            "\u{0007}",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn lookup_is_none_off_type() {
        let v = Json::parse("[1]").unwrap();
        assert!(v.get("x").is_none());
        assert!(v.as_str().is_none());
        assert!(v.as_u64().is_none());
    }

    #[test]
    fn escape_handles_pathological_names() {
        assert_eq!(Json::str("plain").to_line(), r#""plain""#);
        assert_eq!(Json::str("a\"b\\c").to_line(), r#""a\"b\\c""#);
        assert_eq!(Json::str("x\ny").to_line(), r#""x\u000ay""#);
        assert_eq!(Json::str("\u{1f}é😀").to_line(), "\"\\u001fé😀\"");
        // Keys go through the same escaper.
        let doc = Json::obj(vec![("my\"ckt\\x", Json::Null)]);
        assert_eq!(doc.to_line(), r#"{"my\"ckt\\x":null}"#);
        assert_eq!(Json::parse(&doc.to_line()).unwrap(), doc);
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for bad in [
            "\"a\u{1}b\"",
            "\"line\nbreak\"",
            "\"tab\t\"",
            "{\"k\u{0}\":1}",
        ] {
            let error = Json::parse(bad).unwrap_err();
            assert_eq!(error.message, "raw control character in string", "{bad:?}");
        }
        // Escaped, they are fine; DEL and non-ASCII are not JSON controls.
        let escaped = Json::parse(r#""a\u0001b\n\u007fü""#).unwrap();
        assert_eq!(escaped.as_str(), Some("a\u{1}b\n\u{7f}ü"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of one- to four-byte characters and escapes: a parser that
        // rescans the rest of the input per character takes minutes here.
        let text = "net_a = AND(b, c) ü € 😀\n\"\\".repeat(1 << 15);
        let line = Json::str(&text).to_line();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(Json::parse(&line)));
        let parsed = rx.recv_timeout(std::time::Duration::from_secs(5));
        let parsed = parsed.expect("a 1 MiB string must parse well within 5 s");
        assert_eq!(parsed.unwrap().as_str(), Some(text.as_str()));
    }

    #[test]
    fn pretty_layout_indents_one_member_per_line() {
        let doc = Json::obj(vec![
            ("circuit", Json::str("s27")),
            ("bits", Json::u64(7)),
            ("none", Json::Null),
            ("empty", Json::Arr(vec![])),
            ("bare", Json::obj(vec![])),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj(vec![("a", Json::f64(0.5)), ("b", Json::Bool(true))]),
                    Json::usize(3),
                ]),
            ),
        ]);
        let expected = "{\n  \"circuit\": \"s27\",\n  \"bits\": 7,\n  \"none\": null,\n  \
             \"empty\": [],\n  \"bare\": {},\n  \"rows\": [\n    {\n      \"a\": 0.5,\n      \
             \"b\": true\n    },\n    3\n  ]\n}\n";
        assert_eq!(doc.to_pretty(), expected);
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
        // The line layout of the same value is unchanged by the pretty one.
        assert_eq!(
            doc.to_line(),
            r#"{"circuit":"s27","bits":7,"none":null,"empty":[],"bare":{},"rows":[{"a":0.5,"b":true},3]}"#
        );
        assert_eq!(Json::u64(1).to_pretty(), "1\n");
    }
}
