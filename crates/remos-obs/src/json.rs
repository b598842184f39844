//! The workspace's one JSON implementation: a [`Value`] tree, a strict
//! parser and a compact/pretty writer.
//!
//! Documents are read with [`Value::parse`] and then taken apart with
//! the typed accessors ([`Value::field`], [`Value::opt_field`],
//! [`Value::list`], [`Value::as_u64`], …), whose errors name the path to the offending
//! value (`flows[1].size_bytes: expected a non-negative integer, found
//! -3`). Documents are written by building a tree ([`Value::object`]
//! plus the `From` conversions) and formatting it: `{}` is compact,
//! `{:#}` is indented two spaces per level.
//!
//! Integers are kept as integers, so a `u64` digest or a nanosecond
//! timestamp above 2^53 survives a round trip exactly. A float always
//! reads back as the same bits; a non-finite float has no JSON spelling
//! and is written as `null`. Object members keep insertion order.

use std::fmt;

/// Arrays and objects may nest this deep; deeper input is rejected so a
/// hostile document cannot overflow the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number written without a fraction or exponent.
    Int(i128),
    /// Any other number; always finite when it came from the parser.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

/// Why a document could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// The text is not JSON.
    Syntax {
        /// Byte offset of the first offending byte.
        offset: usize,
        /// What was wrong there.
        message: &'static str,
    },
    /// The JSON is well formed but not what the reader needs.
    Shape {
        /// Path from the document root to the value (`links[2].mbps`);
        /// empty for the root itself.
        path: String,
        /// What was expected and what was found.
        message: String,
    },
}

impl Error {
    /// The same error seen from one level up: `parent` (an object key
    /// or an `[index]`) is prepended to the path.
    pub fn under(self, parent: impl fmt::Display) -> Error {
        match self {
            Error::Shape { path, message } => {
                let dot = if path.is_empty() || path.starts_with('[') { "" } else { "." };
                Error::Shape { path: format!("{parent}{dot}{path}"), message }
            }
            syntax => syntax,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { offset, message } => write!(f, "{message} at byte {offset}"),
            Error::Shape { path, message } if path.is_empty() => f.write_str(message),
            Error::Shape { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for Error {}

static NULL: Value = Value::Null;

impl Value {
    /// Parse one document; anything but whitespace after it is an error.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    /// An object from `(key, value)` pairs, in the order given.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The error for a value that is not `what` ("a string", "an array").
    pub fn expected(&self, what: &str) -> Error {
        let found = match self {
            Value::Array(_) => "an array".to_string(),
            Value::Object(_) => "an object".to_string(),
            scalar => scalar.to_string(),
        };
        Error::Shape { path: String::new(), message: format!("expected {what}, found {found}") }
    }

    /// The members of an object.
    pub fn as_object(&self) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(members) => Ok(members),
            other => Err(other.expected("an object")),
        }
    }

    /// Member `key` of an object, or `None` when it has no such member.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Read member `key` of an object with `read`. A missing member
    /// reads as `null`, so a required one fails in `read` either way.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let members = self.as_object()?;
        let member = members.iter().find(|(k, _)| k == key).map_or(&NULL, |(_, v)| v);
        read(member).map_err(|e| e.under(key))
    }

    /// Read every element of an array with `read`.
    pub fn list<'a, T>(
        &'a self,
        read: impl Fn(&'a Value) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let Value::Array(items) = self else { return Err(self.expected("an array")) };
        items
            .iter()
            .enumerate()
            .map(|(i, v)| read(v).map_err(|e| e.under(format_args!("[{i}]"))))
            .collect()
    }

    /// Like [`Value::field`], for a member that may be absent or `null`
    /// (both read as `None`).
    pub fn opt_field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Result<T, Error>,
    ) -> Result<Option<T>, Error> {
        self.field(key, |v| match v {
            Value::Null => Ok(None),
            v => read(v).map(Some),
        })
    }

    /// A string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(other.expected("a string")),
        }
    }

    /// An integer in `0..=u64::MAX`.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
        .ok_or_else(|| self.expected("a non-negative integer"))
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(x) => Ok(*x),
            other => Err(other.expected("a number")),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v.into())
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v.into())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i128)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Write `s` as a quoted JSON string. Only `"`, `\` and the C0 control
/// characters are escaped (the latter as `\u00XX`).
pub fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

impl Value {
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pretty = f.alternate();
        let newline = |f: &mut fmt::Formatter<'_>, depth: usize| {
            if pretty {
                write!(f, "\n{:width$}", "", width = 2 * depth)
            } else {
                Ok(())
            }
        };
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            // `{:?}` prints the shortest digits that parse back to the
            // same bits, and always marks the number as a float.
            Value::Float(x) if x.is_finite() => write!(f, "{x:?}"),
            Value::Float(_) => f.write_str("null"),
            Value::String(s) => write_string(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    newline(f, depth + 1)?;
                    item.write(f, depth + 1)?;
                }
                if !items.is_empty() {
                    newline(f, depth)?;
                }
                f.write_str("]")
            }
            Value::Object(members) => {
                f.write_str("{")?;
                for (i, (key, item)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    newline(f, depth + 1)?;
                    write_string(f, key)?;
                    f.write_str(if pretty { ": " } else { ":" })?;
                    item.write(f, depth + 1)?;
                }
                if !members.is_empty() {
                    newline(f, depth)?;
                }
                f.write_str("}")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> Error {
        Error::Syntax { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.members(b'}', |p| {
                    if p.peek() != Some(b'"') {
                        return Err(p.err("expected a string key"));
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected ':'"));
                    }
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// The comma-separated body of an array or object up to and
    /// including `close`; `one` reads a single element or member.
    fn members(
        &mut self,
        close: u8,
        mut one: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            one(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or a closing bracket"));
            }
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn digits(&mut self) -> Result<(), Error> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        let mut integer = true;
        if self.eat(b'.') {
            integer = false;
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            integer = false;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()?;
        }
        let literal = &self.text[start..self.pos];
        if integer {
            if let Ok(i) = literal.parse() {
                return Ok(Value::Int(i));
            }
        }
        match literal.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(Error::Syntax { offset: start, message: "number out of range" }),
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let code = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so a run of other bytes always ends
            // on a character boundary.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
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
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// The character an escape sequence stands for (after its `\`).
    fn escape(&mut self) -> Result<char, Error> {
        let at = self.pos;
        let c = self.peek().ok_or_else(|| self.err("unterminated string"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
                    let low = self.hex4()?;
                    if (0xdc00..0xe000).contains(&low) {
                        code = 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                    }
                }
                // Anything still in the surrogate range was unpaired.
                char::from_u32(code)
                    .ok_or(Error::Syntax { offset: at, message: "unpaired surrogate escape" })?
            }
            _ => return Err(Error::Syntax { offset: at, message: "unknown escape" }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"name":"caf\u00e9 \"β\"\n","n":[1,-3,18446744073709551615,2.0,0.30000000000000004,1e-7],"ok":true,"none":null,"nested":{"a":[],"b":{}}}"#;

    fn round_trip(v: &Value) {
        assert_eq!(&Value::parse(&format!("{v}")).unwrap(), v, "compact");
        assert_eq!(&Value::parse(&format!("{v:#}")).unwrap(), v, "pretty");
    }

    #[test]
    fn parses_and_writes_back_the_same_document() {
        let v = Value::parse(DOC).unwrap();
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "café \"β\"\n");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get("absent"), None);
        round_trip(&v);
        // Members keep document order; the compact form has no spaces.
        assert!(format!("{v}").starts_with(r#"{"name":"caf"#));
        assert_eq!(format!("{:#}", Value::parse(r#"{"a":[1,{}],"b":[]}"#).unwrap()),
            "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": []\n}");
    }

    #[test]
    fn numbers_keep_their_kind_and_their_bits() {
        for (text, want) in [
            ("18446744073709551615", Value::Int(u64::MAX.into())),
            ("-3", Value::Int(-3)),
            ("-0", Value::Int(0)),
            ("2.0", Value::Float(2.0)),
            ("2e0", Value::Float(2.0)),
            ("-1.5E+3", Value::Float(-1500.0)),
        ] {
            assert_eq!(Value::parse(text).unwrap(), want, "{text}");
        }
        assert_eq!(Value::from(u64::MAX).as_u64().unwrap(), u64::MAX);
        assert!(Value::Int(-3).as_u64().is_err());
        assert!(Value::Float(3.0).as_u64().is_err());
        let sum = Value::from(0.1 + 0.2);
        let back = Value::parse(&sum.to_string()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        // A float stays a float even when its value is integral, and an
        // integer too large for any integer type still reads as a number.
        assert_eq!(Value::from(2.0).to_string(), "2.0");
        round_trip(&Value::from(2.0));
        round_trip(&Value::from(1e300));
        round_trip(&Value::from(f64::MIN_POSITIVE));
        assert!(matches!(Value::parse(&"9".repeat(60)).unwrap(), Value::Float(_)));
        assert_eq!(Value::from(f64::INFINITY).to_string(), "null");
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_round_trip_including_controls_and_non_ascii() {
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        for s in [all_controls.as_str(), "\u{7f}", "naïve ✓ 𝄞", "\"\\/", ""] {
            round_trip(&Value::from(s));
            round_trip(&Value::object([(s, Value::from(s))]));
        }
        assert_eq!(Value::from("a\nb").to_string(), r#""a\u000ab""#);
        let escapes = Value::parse(r#""\"\\\/\b\f\n\r\t\u0041\ud834\udd1e""#).unwrap();
        assert_eq!(escapes.as_str().unwrap(), "\"\\/\u{8}\u{c}\n\r\tA𝄞");
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in [
            "", " ", "nul", "tru", "[1,]", "[1 2]", "{\"a\"}", "{\"a\":}", "{a:1}", "{\"a\":1,}",
            "01", "-", "+1", "1.", ".5", "1e", "1e+", "1e999", "-1e999", "0x10", "NaN",
            "\"abc", "\"\\x\"", "\"\\u12\"", "\"\\u+123\"", "\"\\uD800\"", "\"\\uD800\\u0041\"",
            "\"\\uDC00\"", "\"\\uD800\\uD800\"", "\"a\nb\"", "\"\\", "1 2", "{} x", "[]]", "\u{feff}1",
        ] {
            assert!(matches!(Value::parse(bad), Err(Error::Syntax { .. })), "{bad:?}");
        }
        assert_eq!(
            Value::parse("[1, 2] x"),
            Err(Error::Syntax { offset: 7, message: "trailing data" })
        );
        assert_eq!(Value::parse("[1e999]").unwrap_err().to_string(), "number out of range at byte 1");
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&deep(MAX_DEPTH + 1)).is_err());
        assert!(Value::parse(&"[".repeat(10_000)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(10_000)).is_err());
    }

    #[test]
    fn every_prefix_and_every_single_byte_corruption_returns() {
        for end in (0..DOC.len()).filter(|&i| DOC.is_char_boundary(i)) {
            assert!(Value::parse(&DOC[..end]).is_err(), "prefix of {end} bytes parsed");
        }
        // Overwrite each byte with each of a few hostile bytes; whatever
        // is still UTF-8 must parse or fail cleanly, and what parses
        // must survive its own round trip.
        for at in 0..DOC.len() {
            for with in [b'"', b'\\', b'{', b']', b',', b'0', b'e', b'-', 0, 0x7f, 0xc3] {
                let mut bytes = DOC.as_bytes().to_vec();
                bytes[at] = with;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    if let Ok(v) = Value::parse(text) {
                        round_trip(&v);
                    }
                }
            }
        }
    }

    #[test]
    fn shape_errors_name_the_path() {
        let v = Value::parse(r#"{"flows":[{"size":1},{"size":-3}],"name":7}"#).unwrap();
        let sizes = v.field("flows", |f| f.list(|x| x.field("size", Value::as_u64)));
        assert_eq!(
            sizes.unwrap_err().to_string(),
            "flows[1].size: expected a non-negative integer, found -3"
        );
        assert_eq!(
            v.field("name", Value::as_str).unwrap_err().to_string(),
            "name: expected a string, found 7"
        );
        // Absent and null read the same; a scalar has no fields.
        assert_eq!(v.opt_field("gone", Value::as_f64), Ok(None));
        assert_eq!(v.opt_field("name", Value::as_u64), Ok(Some(7)));
        assert_eq!(
            v.field("gone", Value::as_f64).unwrap_err().to_string(),
            "gone: expected a number, found null"
        );
        assert_eq!(
            Value::Int(1).field("x", Value::as_str).unwrap_err().to_string(),
            "expected an object, found 1"
        );
        assert_eq!(
            v.list(Value::as_str).unwrap_err().to_string(),
            "expected an array, found an object"
        );
    }

    #[test]
    fn builders_cover_the_writer_side() {
        let doc = Value::object([
            ("n", Value::from(3usize)),
            ("digest", u64::MAX.into()),
            ("maybe", None::<f64>.into()),
            ("some", Some("x").into()),
            ("list", [1u32, 2].into_iter().collect()),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"n":3,"digest":18446744073709551615,"maybe":null,"some":"x","list":[1,2]}"#
        );
        round_trip(&doc);
    }
}
