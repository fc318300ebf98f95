//! Minimal JSON / NDJSON parser — the inverse of [`crate::ndjson`].
//!
//! The emission side hand-rolls flat JSON lines (no serde in the offline
//! build); this module reads them back so tools (`obsctl`, CI gates) can
//! consume telemetry artifacts and bench reports. It parses the full
//! JSON grammar (objects, arrays, strings, numbers, booleans, null) but
//! is tuned for round-tripping what the workspace emits:
//!
//! * object key order is preserved (a `Vec`, not a map),
//! * integer tokens stay integers (`U64` when non-negative and in range,
//!   `I64` when negative) so re-emission is byte-identical,
//! * the canonical non-finite spellings `"NaN"` / `"Infinity"` /
//!   `"-Infinity"` parse back to [`JsonValue::F64`], matching what
//!   [`JsonValue`]'s `Display` writes for those values.
//!
//! # Examples
//!
//! ```
//! use canti_obs::parse::{parse_json, Json};
//!
//! let j = parse_json(r#"{"seq":0,"name":"batch","fields":{"jobs":12}}"#).unwrap();
//! assert_eq!(j.get("name").and_then(Json::as_str), Some("batch"));
//! assert_eq!(j.get("fields").and_then(|f| f.get("jobs")).and_then(Json::as_u64), Some(12));
//! ```

use std::fmt;

use crate::ndjson::JsonValue;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A scalar (integer, float or string) in the emission-side
    /// representation, so it re-serializes byte-identically.
    Value(JsonValue),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with key order preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match; `None` elsewhere).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (also accepts in-range `I64` / integral `F64`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Value(JsonValue::U64(v)) => Some(*v),
            Self::Value(JsonValue::I64(v)) => u64::try_from(*v).ok(),
            Self::Value(JsonValue::F64(v)) if v.fract() == 0.0 && *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (any numeric scalar).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Value(JsonValue::U64(v)) => Some(*v as f64),
            Self::Value(JsonValue::I64(v)) => Some(*v as f64),
            Self::Value(JsonValue::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Value(JsonValue::Str(s)) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Re-serializes compactly, matching [`crate::ndjson`]'s emission for
    /// every shape the workspace writes (scalar handling included), so
    /// `emit(parse(line)) == line` for telemetry NDJSON lines.
    #[must_use]
    pub fn emit(&self) -> String {
        match self {
            Self::Null => "null".to_owned(),
            Self::Bool(b) => b.to_string(),
            Self::Value(v) => v.to_string(),
            Self::Array(items) => {
                let inner: Vec<String> = items.iter().map(Self::emit).collect();
                format!("[{}]", inner.join(","))
            }
            Self::Object(pairs) => {
                let inner: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("{}:{}", crate::ndjson::escape(k), v.emit()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}', found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{kw}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Value(self.string_scalar()?)),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(self.err(format!("unexpected {:?}", other.map(|c| c as char)))),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.raw_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Object(pairs)),
                other => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err(format!(
                        "expected ',' or '}}' in object, found {:?}",
                        other.map(|c| c as char)
                    )));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Array(items)),
                other => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err(format!(
                        "expected ',' or ']' in array, found {:?}",
                        other.map(|c| c as char)
                    )));
                }
            }
        }
    }

    /// A string literal mapped to a scalar: the canonical non-finite
    /// spellings become `F64`, everything else stays `Str`.
    fn string_scalar(&mut self) -> Result<JsonValue, ParseError> {
        let s = self.raw_string()?;
        Ok(match s.as_str() {
            JsonValue::NAN => JsonValue::F64(f64::NAN),
            JsonValue::INF => JsonValue::F64(f64::INFINITY),
            JsonValue::NEG_INF => JsonValue::F64(f64::NEG_INFINITY),
            _ => JsonValue::from(s),
        })
    }

    fn raw_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // surrogate pair support for completeness
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            self.eat_keyword("\\u")?;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                    }
                    other => {
                        return Err(
                            self.err(format!("invalid escape {:?}", other.map(|c| c as char)))
                        )
                    }
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // re-assemble UTF-8 multibyte sequences
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid utf-8 start byte")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated utf-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8 sequence"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number token is ascii");
        let value = if is_float {
            JsonValue::F64(
                text.parse::<f64>()
                    .map_err(|e| self.err(format!("bad float '{text}': {e}")))?,
            )
        } else if let Some(stripped) = text.strip_prefix('-') {
            // negative integer: I64, falling back to F64 out of range
            match text.parse::<i64>() {
                Ok(v) => JsonValue::I64(v),
                Err(_) => JsonValue::F64(
                    stripped
                        .parse::<f64>()
                        .map(|v| -v)
                        .map_err(|e| self.err(format!("bad number '{text}': {e}")))?,
                ),
            }
        } else {
            match text.parse::<u64>() {
                Ok(v) => JsonValue::U64(v),
                Err(_) => JsonValue::F64(
                    text.parse::<f64>()
                        .map_err(|e| self.err(format!("bad number '{text}': {e}")))?,
                ),
            }
        };
        Ok(Json::Value(value))
    }
}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first problem.
pub fn parse_json(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(value)
}

/// Parses NDJSON: one JSON document per non-empty line.
///
/// # Errors
///
/// Fails on the first malformed line, reporting its 1-based line number.
pub fn parse_ndjson(input: &str) -> Result<Vec<Json>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_json(line).map_err(|e| ParseError {
            offset: e.offset,
            reason: format!("line {}: {}", i + 1, e.reason),
        })?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndjson;

    #[test]
    fn scalars_parse_to_emission_types() {
        assert_eq!(parse_json("42").unwrap(), Json::Value(JsonValue::U64(42)));
        assert_eq!(parse_json("-7").unwrap(), Json::Value(JsonValue::I64(-7)));
        assert_eq!(parse_json("1.5").unwrap(), Json::Value(JsonValue::F64(1.5)));
        assert_eq!(parse_json("1e3").unwrap(), Json::Value(JsonValue::F64(1e3)));
        assert_eq!(
            parse_json("\"hi\"").unwrap(),
            Json::Value(JsonValue::Str("hi".into()))
        );
        assert_eq!(parse_json("true").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("null").unwrap(), Json::Null);
    }

    #[test]
    fn canonical_non_finite_strings_become_floats() {
        match parse_json("\"NaN\"").unwrap() {
            Json::Value(JsonValue::F64(v)) => assert!(v.is_nan()),
            other => panic!("expected NaN, got {other:?}"),
        }
        assert_eq!(
            parse_json("\"Infinity\"").unwrap(),
            Json::Value(JsonValue::F64(f64::INFINITY))
        );
        assert_eq!(
            parse_json("\"-Infinity\"").unwrap(),
            Json::Value(JsonValue::F64(f64::NEG_INFINITY))
        );
        // non-canonical spellings stay strings
        assert_eq!(
            parse_json("\"nan\"").unwrap(),
            Json::Value(JsonValue::Str("nan".into()))
        );
    }

    #[test]
    fn objects_preserve_key_order() {
        let j = parse_json(r#"{"z":1,"a":2}"#).unwrap();
        let pairs = j.as_object().unwrap();
        assert_eq!(pairs[0].0, "z");
        assert_eq!(pairs[1].0, "a");
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}漢";
        let encoded = ndjson::escape(original);
        let parsed = parse_json(&encoded).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        assert_eq!(parsed.emit(), encoded);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let parsed = parse_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(parsed.as_str(), Some("😀"));
    }

    #[test]
    fn trace_event_line_round_trips() {
        let line = "{\"seq\":3,\"t_ns\":120,\"kind\":\"span_end\",\"name\":\"job\",\
                    \"fields\":{\"dur_ns\":120,\"x\":1.5,\"s\":\"v\"}}";
        let j = parse_json(line).unwrap();
        assert_eq!(j.emit(), line);
        assert_eq!(j.get("seq").and_then(Json::as_u64), Some(3));
        assert_eq!(
            j.get("fields")
                .and_then(|f| f.get("dur_ns"))
                .and_then(Json::as_u64),
            Some(120)
        );
    }

    #[test]
    fn arrays_and_nesting() {
        let line = r#"{"rows":[["1","2"],["3","4"]],"timings":[{"name":"solve","p50_ns":10}]}"#;
        let j = parse_json(line).unwrap();
        assert_eq!(
            j.get("rows").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(j.emit(), line);
    }

    #[test]
    fn whitespace_tolerant_but_rejects_garbage() {
        assert!(parse_json("  { \"a\" : [ 1 , 2 ] }  ").is_ok());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn ndjson_multi_line() {
        let docs = parse_ndjson("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(docs.len(), 2);
        let err = parse_ndjson("{\"a\":1}\nnot json\n").unwrap_err();
        assert!(err.reason.contains("line 2"), "{err}");
    }
}
