//! A minimal JSON value, writer, and parser.
//!
//! Replaces `serde`/`serde_json` for this workspace's needs: serializing
//! report and spec types, parsing them back, and building ad-hoc JSON blocks
//! with the [`json!`] macro. Structs and unit enums get their
//! [`ToJson`]/[`FromJson`] impls from the [`impl_json_struct!`] and
//! [`impl_json_enum!`] macros; types with tricky shapes (skipped fields,
//! newtype ids, data-carrying enum variants) write the two impls by hand.
//!
//! ```
//! use entmatcher_support::json::{FromJson, Json, ToJson};
//!
//! let v = entmatcher_support::json!({ "name": "dbp15k", "f1": [0.51, 0.62] });
//! let text = v.dump();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back["f1"][1].as_f64(), Some(0.62));
//! ```

use std::collections::HashMap;
use std::fmt;

/// A parsed or constructed JSON document.
///
/// Integers are kept exact in [`Json::Int`], so a `u64` seed or counter
/// above 2^53 reads back unchanged; every other number is an `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number with a fraction or exponent, or an integer literal beyond
    /// `i128`.
    Num(f64),
    /// An integer: the integer types' image, and every integer literal that
    /// fits.
    Int(i128),
    Str(String),
    Arr(Vec<Json>),
    Obj(Map),
}

/// An insertion-ordered JSON object (stable key order keeps report files
/// diffable across runs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Json)>,
}

impl Map {
    pub fn new() -> Self {
        Map::default()
    }

    /// Inserts (or replaces) `key`, converting `value` through [`ToJson`].
    pub fn insert(&mut self, key: impl Into<String>, value: impl ToJson) {
        let key = key.into();
        let value = value.to_json();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Conversion into a [`Json`] value. Infallible by design: every report type
/// in the workspace has a total JSON image.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// Conversion out of a [`Json`] value.
///
/// Containers treat `Null` as their empty value (`Vec` → `[]`, `Option` →
/// `None`), which is also how missing object fields are decoded — the same
/// behavior `#[serde(default)]` provided on optional collection fields.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// A parse or decode error, carrying a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl JsonError {
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

static NULL: Json = Json::Null;

impl Json {
    /// Parses a JSON document from text.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Compact single-line serialization.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        write_value(self, None, 0, &mut out);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(2), 0, &mut out);
        out
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Any number, integers rounded to the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup (`None` when `self` is not an object or lacks
    /// the key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Decodes an object field, treating a missing key as `Null` so that
    /// container fields default to empty (see [`FromJson`]).
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self {
            Json::Obj(m) => T::from_json(m.get(key).unwrap_or(&NULL))
                .map_err(|e| JsonError(format!("field '{key}': {}", e.0))),
            other => Err(JsonError(format!(
                "expected object with field '{key}', got {}",
                kind(other)
            ))),
        }
    }
}

/// `value["key"]` — returns `Null` for missing keys or non-objects, like
/// `serde_json`'s `Index` impl.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[3]` — returns `Null` out of bounds or on non-arrays.
impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, idx: usize) -> &Json {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dump())
    }
}

/// Scalar comparisons (`value["key"] == "name"`, `value == true`), on both
/// `Json` and `&Json` so indexed lookups compare directly.
macro_rules! impl_scalar_eq {
    ($ty:ty, $eq:expr) => {
        impl PartialEq<$ty> for Json {
            fn eq(&self, other: &$ty) -> bool {
                $eq(self, other)
            }
        }
        impl PartialEq<$ty> for &Json {
            fn eq(&self, other: &$ty) -> bool {
                (*self).eq(other)
            }
        }
    };
}

impl_scalar_eq!(bool, |v: &Json, o: &bool| v.as_bool() == Some(*o));
impl_scalar_eq!(f64, |v: &Json, o: &f64| v.as_f64() == Some(*o));
impl_scalar_eq!(i64, |v: &Json, o: &i64| i64::from_json(v) == Ok(*o));
impl_scalar_eq!(&str, |v: &Json, o: &&str| v.as_str() == Some(*o));
impl_scalar_eq!(String, |v: &Json, o: &String| v.as_str() == Some(o));

fn kind(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) | Json::Int(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_number(*n, out),
        Json::Int(i) => {
            use fmt::Write;
            let _ = write!(out, "{i}");
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Json::Obj(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/Inf; serialize as null like serde_json's lossy mode.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
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
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a \uXXXX low half must follow.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid surrogate pair"));
                                }
                                char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            // hex4 advanced past the digits; compensate for
                            // the shared `self.pos += 1` below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a full UTF-8 scalar (input is a valid &str).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // An integer literal stays exact; one beyond i128 falls back to f64,
        // as a float written without a fraction (1e300 prints 301 digits)
        // must read back.
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

// ---------------------------------------------------------------------------
// Module-level helpers (serde_json-shaped entry points)
// ---------------------------------------------------------------------------

/// Converts any [`ToJson`] value into a [`Json`] tree.
pub fn to_value<T: ToJson + ?Sized>(v: &T) -> Json {
    v.to_json()
}

/// Compact serialization of any [`ToJson`] value.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().dump()
}

/// Pretty serialization of any [`ToJson`] value.
pub fn to_string_pretty<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().pretty()
}

/// Parses text straight into a [`FromJson`] type.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

// ---------------------------------------------------------------------------
// ToJson / FromJson impls for std types
// ---------------------------------------------------------------------------

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError(format!("expected bool, got {}", kind(v))))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError(format!("expected string, got {}", kind(v))))
    }
}

macro_rules! float_json_impls {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                v.as_f64()
                    .map(|n| n as $ty)
                    .ok_or_else(|| JsonError(format!("expected number, got {}", kind(v))))
            }
        }
    )+};
}

float_json_impls!(f32, f64);

macro_rules! int_json_impls {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = match *v {
                    Json::Int(i) => i,
                    // `3.0` and `3e0` name an integer too; a float beyond
                    // i128 saturates and fails the range check below.
                    Json::Num(n) if n.fract() == 0.0 => n as i128,
                    Json::Num(n) => return Err(JsonError(format!("expected integer, got {n}"))),
                    _ => return Err(JsonError(format!("expected number, got {}", kind(v)))),
                };
                <$ty>::try_from(n).map_err(|_| {
                    JsonError(format!("integer {v} out of range for {}", stringify!($ty)))
                })
            }
        }
    )+};
}

int_json_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            // Missing/null collection fields decode as empty (serde's
            // `#[serde(default)]` behavior, applied uniformly).
            Json::Null => Ok(Vec::new()),
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError(format!("expected array, got {}", kind(other)))),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            _ => Err(JsonError(format!(
                "expected 2-element array, got {}",
                kind(v)
            ))),
        }
    }
}

impl<T: ToJson> ToJson for HashMap<String, T> {
    fn to_json(&self) -> Json {
        // Sort keys so hash iteration order never leaks into output files.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        let mut map = Map::new();
        for k in keys {
            map.insert(k.clone(), &self[k]);
        }
        Json::Obj(map)
    }
}

impl<T: FromJson> FromJson for HashMap<String, T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(HashMap::new()),
            Json::Obj(m) => m
                .iter()
                .map(|(k, val)| Ok((k.to_owned(), T::from_json(val)?)))
                .collect(),
            other => Err(JsonError(format!("expected object, got {}", kind(other)))),
        }
    }
}

impl ToJson for Map {
    fn to_json(&self) -> Json {
        Json::Obj(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Builds a [`Json`] value from a literal-ish expression.
///
/// Object values and array elements are arbitrary expressions converted via
/// [`ToJson`]; nest objects by nesting `json!` calls:
///
/// ```
/// use entmatcher_support::json;
/// let v = json!({ "rows": vec![1, 2, 3], "inner": json!({ "ok": true }) });
/// assert_eq!(v.dump(), r#"{"rows":[1,2,3],"inner":{"ok":true}}"#);
/// ```
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::json::Json::Null
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::json::Map::new();
        $( map.insert($key, &$value); )*
        $crate::json::Json::Obj(map)
    }};
    ([ $($value:expr),* $(,)? ]) => {
        $crate::json::Json::Arr(vec![ $( $crate::json::to_value(&$value) ),* ])
    };
    ($other:expr) => {
        $crate::json::to_value(&$other)
    };
}

/// Implements [`ToJson`] and [`FromJson`] for a plain struct, mapping every
/// listed field to an object key of the same name (the replacement for
/// `#[derive(Serialize, Deserialize)]`).
///
/// The `to_only` form emits just [`ToJson`], for types that are serialized
/// but never parsed back (e.g. report rows holding `&'static str`).
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::impl_json_struct!(to_only $ty { $($field),+ });
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> ::core::result::Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $( $field: v.field(stringify!($field))?, )+
                })
            }
        }
    };
    (to_only $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let mut map = $crate::json::Map::new();
                $( map.insert(stringify!($field), &self.$field); )+
                $crate::json::Json::Obj(map)
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum of unit variants, encoded
/// as the variant name string — serde's external tagging for unit variants.
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(
                    match self {
                        $( Self::$variant => stringify!($variant), )+
                    }
                    .to_owned(),
                )
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> ::core::result::Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $( Some(stringify!($variant)) => Ok(Self::$variant), )+
                    Some(other) => Err($crate::json::JsonError::new(format!(
                        "unknown {} variant '{other}'",
                        stringify!($ty)
                    ))),
                    None => Err($crate::json::JsonError::new(format!(
                        "expected {} variant string",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-3", "2.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.dump(), text);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":-0.125}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.dump(), text);
        // Pretty output reparses to the same tree.
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn index_chains() {
        let v = Json::parse(r#"{"GCN":{"rows":[{"f1":[0.5,0.75]}]}}"#).unwrap();
        assert_eq!(v["GCN"]["rows"][0]["f1"][1].as_f64(), Some(0.75));
        assert!(v["missing"]["nope"][9].is_null());
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""tab\there \"q\" é 😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "tab\there \"q\" é 😀");
        let round = Json::parse(&v.dump()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(3.0).dump(), "3");
        assert_eq!(Json::Num(3.5).dump(), "3.5");
        assert_eq!(Json::Num(-0.0).dump(), "0");
        assert_eq!(json!(7usize).dump(), "7");
    }

    #[test]
    fn integers_round_trip_exactly_over_their_whole_range() {
        fn round_trip<T: ToJson + FromJson + PartialEq + fmt::Debug>(v: T, text: &str) {
            assert_eq!(to_string(&v), text);
            assert_eq!(from_str::<T>(text).unwrap(), v);
        }
        round_trip(u64::MAX - 1, "18446744073709551614");
        round_trip((1u64 << 53) + 1, "9007199254740993");
        round_trip(i64::MIN, "-9223372036854775808");
        round_trip(i64::MAX, "9223372036854775807");
        round_trip(usize::MAX, &usize::MAX.to_string());
        // Integral floats still decode, and every number answers as_f64.
        assert_eq!(from_str::<u32>("3.0"), Ok(3));
        assert_eq!(from_str::<u64>("1e3"), Ok(1000));
        assert_eq!(
            Json::parse("9007199254740993").unwrap().as_f64(),
            Some(9007199254740992.0)
        );
        assert!(Json::parse("7").unwrap() == 7.0);
        assert!(Json::parse("-7").unwrap() == -7i64);
    }

    #[test]
    fn out_of_range_integers_are_errors() {
        for (text, ok) in [
            ("18446744073709551615", true),
            ("18446744073709551616", false),
            ("-1", false),
            ("1e20", false),
            ("1e400", false),
            ("100000000000000000000000000000000000000000", false),
        ] {
            assert_eq!(from_str::<u64>(text).is_ok(), ok, "u64 from {text}");
        }
        assert!(from_str::<i64>("-9223372036854775809").is_err());
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<i8>("-129").is_err());
        assert!(from_str::<u32>("2.5").is_err());
        let err = from_str::<u64>("1e20").unwrap_err();
        assert_eq!(err.0, "integer 100000000000000000000 out of range for u64");
    }

    #[test]
    fn number_output_is_unchanged_for_floats_and_integers_up_to_2_53() {
        // The f64 writer's cases, now reached by integers through Int.
        for (v, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (9.0e15 - 1.0, "8999999999999999"),
            (9.0e15, "9000000000000000"),
            (9007199254740992.0, "9007199254740992"),
            (1e20, "100000000000000000000"),
            (0.1, "0.1"),
            (-2.5e-8, "-0.000000025"),
        ] {
            assert_eq!(Json::Num(v).dump(), text);
            assert_eq!(Json::parse(text).unwrap().as_f64(), Some(v));
            if v.fract() == 0.0 && v.abs() <= 9007199254740992.0 {
                assert_eq!(json!(v as i64).dump(), text);
            }
        }
        // A float written without a fraction reads back as the same float.
        let big = 1e300;
        assert_eq!(from_str::<f64>(&Json::Num(big).dump()), Ok(big));
    }

    #[test]
    fn json_macro_shapes() {
        let rows = vec![json!({ "x": 1 }), json!({ "x": 2 })];
        let v = json!({ "name": "t", "rows": rows, "ok": true, "none": Json::Null });
        assert_eq!(
            v.dump(),
            r#"{"name":"t","rows":[{"x":1},{"x":2}],"ok":true,"none":null}"#
        );
        assert_eq!(json!([1, 2, 3]).dump(), "[1,2,3]");
        assert_eq!(json!(null).dump(), "null");
    }

    #[test]
    fn vec_and_option_null_defaults() {
        let empty: Vec<u32> = FromJson::from_json(&Json::Null).unwrap();
        assert!(empty.is_empty());
        let none: Option<usize> = FromJson::from_json(&Json::Null).unwrap();
        assert!(none.is_none());
        // Missing fields behave the same through `field`.
        let obj = Json::parse(r#"{"present":[1]}"#).unwrap();
        let present: Vec<u32> = obj.field("present").unwrap();
        assert_eq!(present, vec![1]);
        let absent: Vec<u32> = obj.field("absent").unwrap();
        assert!(absent.is_empty());
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        score: f64,
        tags: Vec<String>,
    }
    crate::impl_json_struct!(Demo { name, score, tags });

    #[derive(Debug, PartialEq)]
    enum Kind {
        Alpha,
        Beta,
    }
    crate::impl_json_enum!(Kind { Alpha, Beta });

    #[test]
    fn struct_and_enum_macros_roundtrip() {
        let d = Demo {
            name: "x".into(),
            score: 0.5,
            tags: vec!["a".into()],
        };
        let back: Demo = from_str(&to_string(&d)).unwrap();
        assert_eq!(back, d);

        let k: Kind = from_str(&to_string(&Kind::Beta)).unwrap();
        assert_eq!(k, Kind::Beta);
        assert!(from_str::<Kind>("\"Gamma\"").is_err());
    }

    #[test]
    fn surrogate_escapes_are_validated() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".into())
        );
        // A high half must be followed by an escaped low half.
        for bad in [
            "\"\\ud800\\u0041\"",
            "\"\\ud800\\ud800\"",
            "\"\\ud800u dc00\"",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("01x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
    }
}
