//! Minimal hand-rolled JSON emission (the offline build has no serde).
//!
//! Only what NDJSON telemetry lines need: flat objects of scalar values
//! plus one nested `fields` object for trace events. Every form writes
//! into any [`fmt::Write`] sink ([`write_escaped`], [`write_object`],
//! [`JsonValue::write_to`], which is also its `Display`); [`escape`] and
//! [`object`] are those writers aimed at a fresh `String`.

use std::borrow::Cow;
use std::fmt::{self, Write};

/// A JSON scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (emitted with enough digits to round-trip).
    F64(f64),
    /// String (escaped on emission). A `&'static str` is borrowed, so
    /// a literal value costs no allocation; runtime text is owned.
    Str(Cow<'static, str>),
}

impl JsonValue {
    /// The canonical quoted spellings non-finite floats serialize as
    /// (JSON numbers cannot express them). [`crate::parse`] maps these
    /// exact strings back to `F64`, so emit → parse → emit is stable.
    pub const NAN: &'static str = "NaN";
    /// Canonical spelling of `f64::INFINITY` — see [`Self::NAN`].
    pub const INF: &'static str = "Infinity";
    /// Canonical spelling of `f64::NEG_INFINITY` — see [`Self::NAN`].
    pub const NEG_INF: &'static str = "-Infinity";

    /// Writes the value's JSON spelling into `out` (what `Display`
    /// prints).
    ///
    /// # Errors
    ///
    /// Only what `out` itself reports.
    pub fn write_to<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            Self::U64(v) => write!(out, "{v}"),
            Self::I64(v) => write!(out, "{v}"),
            Self::F64(v) if v.is_finite() => write!(out, "{v:?}"),
            Self::F64(v) if v.is_nan() => write_escaped(out, Self::NAN),
            Self::F64(v) if *v > 0.0 => write_escaped(out, Self::INF),
            Self::F64(_) => write_escaped(out, Self::NEG_INF),
            Self::Str(s) => write_escaped(out, s),
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

impl From<&'static str> for JsonValue {
    fn from(v: &'static str) -> Self {
        Self::Str(Cow::Borrowed(v))
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        Self::Str(Cow::Owned(v))
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}

/// Writes `s` into `out` as a quoted JSON string literal.
///
/// # Errors
///
/// Only what `out` itself reports.
pub fn write_escaped<W: Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // unescaped runs go out in one piece
    let mut run = 0;
    for (i, c) in s.char_indices() {
        if !matches!(c, '"' | '\\') && c >= ' ' {
            continue;
        }
        out.write_str(&s[run..i])?;
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c => write!(out, "\\u{:04x}", c as u32)?,
        }
        run = i + c.len_utf8();
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Escapes a string as a quoted JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = write_escaped(&mut out, s);
    out
}

/// Writes a flat JSON object from `(key, value)` pairs (single line)
/// into `out`.
///
/// # Errors
///
/// Only what `out` itself reports.
pub fn write_object<W: Write + ?Sized>(out: &mut W, pairs: &[(&str, JsonValue)]) -> fmt::Result {
    out.write_char('{')?;
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_escaped(out, k)?;
        out.write_char(':')?;
        v.write_to(out)?;
    }
    out.write_char('}')
}

/// Renders a flat JSON object from `(key, value)` pairs (single line).
#[must_use]
pub fn object(pairs: &[(&str, JsonValue)]) -> String {
    let mut out = String::new();
    let _ = write_object(&mut out, pairs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("é\u{1f}ü\"z"), "\"é\\u001fü\\\"z\"");
        let mut sink = String::from("prefix:");
        write_escaped(&mut sink, "tab\there").unwrap();
        assert_eq!(sink, "prefix:\"tab\\there\"");
    }

    #[test]
    fn object_rendering() {
        let s = object(&[
            ("a", JsonValue::U64(1)),
            ("b", JsonValue::Str("x".into())),
            ("c", JsonValue::F64(1.5)),
            ("d", JsonValue::I64(-2)),
        ]);
        assert_eq!(s, "{\"a\":1,\"b\":\"x\",\"c\":1.5,\"d\":-2}");
    }

    #[test]
    fn non_finite_floats_use_the_canonical_spellings() {
        assert_eq!(JsonValue::F64(f64::NAN).to_string(), "\"NaN\"");
        assert_eq!(JsonValue::F64(f64::INFINITY).to_string(), "\"Infinity\"");
        assert_eq!(
            JsonValue::F64(f64::NEG_INFINITY).to_string(),
            "\"-Infinity\""
        );
    }
}
