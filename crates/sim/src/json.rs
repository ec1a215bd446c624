//! Hand-rolled, dependency-free JSON: a value tree, a writer, and a strict
//! parser.
//!
//! The telemetry layer (see `docs/OBSERVABILITY.md`) serializes
//! [`RunReport`](crate::report::RunReport)s and bench reports to disk so
//! results can be diffed, regressed, and plotted across PRs.  Pulling in
//! `serde` is not an option in this workspace (hermetic, zero external
//! dependencies), so this module implements the small JSON subset we need:
//!
//! * [`Json`] — an ordered value tree (object keys keep insertion order, so
//!   serialized reports are byte-stable and golden-file friendly);
//! * [`Json::render`] / [`Json::render_pretty`] — compact and 2-space
//!   indented writers;
//! * [`Json::parse`] — a recursive-descent parser used by the round-trip
//!   tests, the CLI, the `radio-node` stdin service, and any tool that
//!   wants to read reports back.  Nesting is capped at [`MAX_DEPTH`] so
//!   hostile input gets a [`JsonError`] instead of overflowing the stack.
//!
//! Numbers are split into [`Json::Int`] (exact `i64`), [`Json::UInt`]
//! (exact `u64` above `i64::MAX`) and [`Json::Num`] (`f64`); non-finite
//! floats serialize as `null` since JSON has no representation for them.
//!
//! ```
//! use radio_sim::json::Json;
//!
//! let report = Json::object([
//!     ("schema_version", Json::from(1i64)),
//!     ("rounds", Json::from(17i64)),
//!     ("completed", Json::from(true)),
//! ]);
//! let text = report.render();
//! assert_eq!(text, r#"{"schema_version":1,"rounds":17,"completed":true}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("rounds").and_then(Json::as_i64), Some(17));
//! ```

/// Deepest array/object nesting [`Json::parse`] accepts.  Every document
/// this workspace writes nests a handful of levels; the cap bounds the
/// parser's recursion (and the value tree's recursive drop) on untrusted
/// input.
pub const MAX_DEPTH: usize = 128;

/// A JSON value with insertion-ordered object fields.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64`, serialized without a decimal point.
    Int(i64),
    /// An integer above `i64::MAX` (up to `u64::MAX`), serialized without
    /// a decimal point.  [`Json::from`] and [`Json::parse`] use it only
    /// where [`Json::Int`] cannot hold the value, so every integer in
    /// `i64::MIN..=u64::MAX` has one representation and round-trips
    /// exactly.
    UInt(u64),
    /// A double-precision float.  Non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(v as i64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        i64::try_from(v).map(Json::Int).unwrap_or(Json::UInt(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}
impl<T> From<Option<T>> for Json
where
    Json: From<T>,
{
    fn from(v: Option<T>) -> Json {
        v.map(Json::from).unwrap_or(Json::Null)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(fields: I) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array by converting each element.
    pub fn array<T, I: IntoIterator<Item = T>>(items: I) -> Json
    where
        Json: From<T>,
    {
        Json::Arr(items.into_iter().map(Json::from).collect())
    }

    /// Field lookup on an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (accepts every number variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as object fields.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with 2-space indentation and a trailing newline — the
    /// format used for reports written to disk.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    // Rust's Display for f64 is the shortest representation
                    // that round-trips, which is exactly what we want.
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }

    /// Parses `text` as a single JSON document (trailing garbage rejected,
    /// nesting deeper than [`MAX_DEPTH`] rejected).
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
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure: byte offset into the input plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or } in object")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 leaves pos past the digits; compensate the
                            // unconditional advance below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // at char boundaries is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
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
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Bool(false), "false"),
            (Json::Int(-42), "-42"),
            (Json::Num(1.5), "1.5"),
            (Json::Str("hi".into()), "\"hi\""),
        ] {
            assert_eq!(v.render(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn nested_structure_round_trips() {
        let v = Json::object([
            ("a", Json::array([1i64, 2, 3])),
            ("b", Json::object([("nested", Json::from("x"))])),
            ("c", Json::Null),
            ("d", Json::from(0.25)),
        ]);
        let compact = v.render();
        assert_eq!(Json::parse(&compact).unwrap(), v);
        let pretty = v.render_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"a\": [\n"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "quote\" back\\slash \n\t\r ctrl\u{0001} unicode: π 🛰";
        let v = Json::Str(nasty.into());
        let s = v.render();
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    #[test]
    fn surrogate_pair_parses() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn float_precision_survives() {
        let x = 0.1 + 0.2; // famously not 0.3
        let v = Json::Num(x);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back.as_f64(), Some(x));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn int_vs_float_distinction() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Num(7.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        // Integer too large for u64 falls back to f64.
        let big = Json::parse("99999999999999999999999").unwrap();
        assert!(matches!(big, Json::Num(_)));
    }

    #[test]
    fn integers_round_trip_exactly_across_the_u64_range() {
        let edges = [
            i64::MIN as i128,
            -1,
            0,
            i64::MAX as i128,
            1 << 63,
            u64::MAX as i128,
        ];
        for v in edges {
            let json = match u64::try_from(v) {
                Ok(u) => Json::from(u),
                Err(_) => Json::from(v as i64),
            };
            let text = json.render();
            assert_eq!(text, v.to_string(), "no float rendering");
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, json, "{text}: one representation per integer");
            assert_eq!(back.as_u64().map(i128::from), (v >= 0).then_some(v));
            assert_eq!(
                back.as_i64().map(i128::from),
                i64::try_from(v).ok().map(i128::from)
            );
        }
        assert_eq!(Json::from(u64::MAX), Json::UInt(u64::MAX));
        assert_eq!(Json::from(i64::MAX as u64), Json::Int(i64::MAX));
        assert!(Json::parse("18446744073709551616")
            .unwrap()
            .as_u64()
            .is_none());
    }

    #[test]
    fn object_field_order_preserved() {
        let text = r#"{"z":1,"a":2,"m":3}"#;
        let v = Json::parse(text).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(v.render(), text);
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "nul", "1 2"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.offset <= bad.len(), "offset in range for {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let at_limit = nested(MAX_DEPTH, open, close).replace(":}", ":null}");
            assert!(Json::parse(&at_limit).is_ok(), "{open}: depth {MAX_DEPTH}");
            let past = nested(MAX_DEPTH + 1, open, close).replace(":}", ":null}");
            let e = Json::parse(&past).unwrap_err();
            assert!(e.msg.contains("nesting deeper than"), "{e}");
        }
        // A hostile line far past the cap fails fast instead of overflowing
        // the stack.
        let e = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"i":3,"f":2.5,"s":"x","b":true,"a":[1],"n":null}"#).unwrap();
        assert_eq!(v.get("i").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("i").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("n").unwrap().is_null());
        assert!(v.get("missing").is_none());
    }
}
