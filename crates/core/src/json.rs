//! A hand-rolled minimal JSON value, parser and writer for the sweep
//! service's line protocol.
//!
//! The workspace builds offline and deliberately carries no external
//! dependencies, so the request server cannot lean on serde. This module
//! implements exactly the JSON subset the JSON-lines protocol needs — objects,
//! arrays, strings (with escapes), f64 numbers, booleans, null — with two
//! properties the server requires and serde would also give us:
//!
//! * **total**: every possible input byte sequence produces either a value or
//!   a typed [`JsonError`]; nothing panics, nothing recurses unboundedly
//!   (depth is capped at [`MAX_DEPTH`]);
//! * **round-trip**: [`Json::render`] emits a line [`Json::parse`] accepts,
//!   so responses are built from the same type requests parse into.
//!
//! Numbers are stored as `f64`. That makes integers above 2^53
//! unrepresentable exactly — fine for this protocol, whose counters (cycles,
//! instructions, request ids) sit far below that, and a deliberate
//! simplification over a full number tower.

use std::fmt;

/// Maximum nesting depth [`Json::parse`] accepts. Requests in the sweep
/// protocol are at most two levels deep; 32 leaves headroom while keeping
/// the recursive-descent parser safe from stack exhaustion on adversarial
/// input like `[[[[...`.
pub const MAX_DEPTH: usize = 32;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; see the module docs).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs (duplicate keys are
    /// kept; [`Json::get`] returns the first).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset into the input plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON value from `input`, requiring that nothing but
    /// whitespace follows it.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if this is a number
    /// holding one exactly (rejects negatives, fractions and magnitudes from
    /// 2^53 up, where `f64` stops being exact: `2^53 + 1` parses as `2^53`).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// Renders this value as a single-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_number(*n, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// A non-finite number has no JSON representation; `null` is the standard
/// lossy stand-in (serde_json does the same).
fn render_number(n: f64, out: &mut String) {
    use fmt::Write;
    if n.is_finite() {
        // `{}` on f64 prints the shortest string that parses back exactly.
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

fn render_string(s: &str, out: &mut String) {
    use fmt::Write;
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
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
            self.eat(b':', "expected ':' after object key")?;
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
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
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
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(s);
                    }
                }
            }
        }
    }

    /// Parses the four hex digits after `\u` (the `u` already consumed),
    /// combining surrogate pairs. Leaves `pos` one past the last digit
    /// consumed.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        if (0xd800..0xdc00).contains(&unit) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xdc00..0xe000).contains(&low) {
                    let c = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(unit).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    /// Consumes a run of ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Scans one number by the RFC 8259 grammar before handing the text to
    /// `f64::from_str`, which alone would also take `01`, `1.` and `1.e5`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(self.err("invalid number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }
}

/// Convenience: an object from key/value pairs (the shape every protocol
/// response uses).
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse(" 42 ").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            Json::parse("\"hi\\n\\u0041\"").unwrap(),
            Json::Str("hi\nA".into())
        );
    }

    #[test]
    fn parses_nested_structures_and_accessors() {
        let v = Json::parse(r#"{"req":"point","id":7,"pts":[{"sets":64,"ways":2}],"on":true}"#)
            .unwrap();
        assert_eq!(v.get("req").and_then(Json::as_str), Some("point"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("on").and_then(Json::as_bool), Some(true));
        let pts = v.get("pts").and_then(Json::as_arr).unwrap();
        assert_eq!(pts[0].get("sets").and_then(Json::as_u64), Some(64));
        assert!(v.get("missing").is_none());
        assert!(v.get("id").unwrap().as_str().is_none());
    }

    #[test]
    fn round_trips_through_render() {
        let cases = [
            r#"{"a":1,"b":[true,null,"x\"y\\z"],"c":{"d":-2.5}}"#,
            r#"[]"#,
            r#"{}"#,
            r#"{"s":"tab\there \u00e9"}"#,
        ];
        for case in cases {
            let parsed = Json::parse(case).unwrap();
            let rendered = parsed.render();
            assert_eq!(Json::parse(&rendered).unwrap(), parsed, "{case}");
        }
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("😀".into()));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn malformed_inputs_are_typed_errors_never_panics() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{'a':1}",
            "\"unterminated",
            "01x",
            "nul",
            "truefalse",
            "1 2",
            "\"\\q\"",
            "\"\\u12g4\"",
            "-",
            "\u{1}",
            "{\"a\":1,}",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(
            Json::parse(&deep).unwrap_err().msg,
            "nesting too deep",
            "adversarial nesting is rejected, not recursed into"
        );
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn u64_accessor_rejects_inexact_values() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for bad in [
            "01", "-01", "00", "1.", "1.e5", "-", "-.5", ".5", "1e", "1e+", "+1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} is not a JSON number");
        }
        for (good, n) in [
            ("0", 0.0),
            ("-0.5", -0.5),
            ("10", 10.0),
            ("1E+2", 100.0),
            ("2e-1", 0.2),
        ] {
            assert_eq!(Json::parse(good).unwrap(), Json::Num(n), "{good}");
        }
        // 2^53 + 1 parses to 2^53; neither is an exact wire integer.
        let above = Json::parse("9007199254740993").unwrap();
        assert_eq!(above.as_u64(), None);
        assert_eq!(Json::Num(9_007_199_254_740_992.0).as_u64(), None);
        assert_eq!(
            Json::Num(9_007_199_254_740_991.0).as_u64(),
            Some(9_007_199_254_740_991)
        );
    }

    #[test]
    fn obj_builder_and_number_rendering() {
        let v = obj([("a", Json::Num(1.0)), ("b", Json::Str("x".into()))]);
        assert_eq!(v.render(), r#"{"a":1,"b":"x"}"#);
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(0.1).render(), "0.1");
        // Control characters render as escapes that parse back.
        let s = Json::Str("\u{0007}".into());
        assert_eq!(Json::parse(&s.render()).unwrap(), s);
    }
}
