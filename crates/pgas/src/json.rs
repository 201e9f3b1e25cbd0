//! Minimal JSON document model: build, serialize, parse.
//!
//! The workspace has no serde (the build environment is offline), so the
//! machine-readable reports ([`crate::PipelineReport::to_json`]) and the
//! Chrome-trace exporter ([`crate::trace::chrome_trace_json`]) are written
//! against this small [`Value`] type instead. Object key order is
//! preserved, which keeps report schemas stable and diffs readable. The
//! parser accepts standard JSON (it exists so tests can round-trip what the
//! writers emit, and so downstream tooling written against this crate can
//! read reports back).

use std::fmt;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. Integers up to 2^53 survive the f64 representation
    /// exactly, which covers every counter this crate emits.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Append `key: value` to an object. Panics on non-objects.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        match self {
            Value::Obj(pairs) => pairs.push((key.into(), value.into())),
            _ => panic!("Value::set on a non-object"),
        }
        self
    }

    /// Member lookup on objects; `None` elsewhere or when absent.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys in order; empty elsewhere.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer payload, if this is a number with an exact u64 value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize without insignificant whitespace.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(*n, out),
            Value::Str(s) => write_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must be a single value plus whitespace).
    /// Arrays and objects may nest at most 128 deep; deeper is a
    /// [`ParseError`], not a stack overflow.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/inf; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest-round-trip float formatting, always with a
        // decimal point or exponent so it reads back as the same f64.
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
            // DEL and the Unicode line separators join the C0 range in the
            // `\uXXXX` escape: U+2028/U+2029 are legal raw in JSON but not
            // in JavaScript string literals, and raw DEL trips terminal and
            // log-pipeline filters — escaping them keeps emitted documents
            // safe to embed anywhere.
            c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting the parser accepts. It recurses once per
/// level and documents arrive from outside the process (`hipmer serve`
/// request bodies), so unbounded nesting is a stack overflow — an abort, not
/// an error — at the sender's choosing. The deepest document this workspace
/// writes nests 5 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            pos: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one container, refusing to go deeper than [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-decode UTF-8 starting at the byte we just consumed.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let Some(slice) = self.bytes.get(start..end) else {
                        return Err(self.err("truncated UTF-8 sequence"));
                    };
                    let Ok(s) = std::str::from_utf8(slice) else {
                        return Err(self.err("invalid UTF-8 in string"));
                    };
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let Some(slice) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        let Ok(s) = std::str::from_utf8(slice) else {
            return Err(self.err("invalid \\u escape"));
        };
        let Ok(v) = u32::from_str_radix(s, 16) else {
            return Err(self.err("invalid \\u escape"));
        };
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_write_and_lookup() {
        let mut doc = Value::obj();
        doc.set("name", "contig/traverse")
            .set("count", 42u64)
            .set("frac", 0.125)
            .set("ok", true)
            .set("items", Value::Arr(vec![Value::Num(1.0), Value::Null]));
        let text = doc.to_json();
        assert_eq!(
            text,
            r#"{"name":"contig/traverse","count":42,"frac":0.125,"ok":true,"items":[1,null]}"#
        );
        assert_eq!(doc.get("count").and_then(Value::as_u64), Some(42));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.keys(), vec!["name", "count", "frac", "ok", "items"]);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut doc = Value::obj();
        doc.set("text", "line\nbreak \"quoted\" \\ tab\t end")
            .set("big", 9_007_199_254_740_992.0)
            .set("tiny", 1.0e-7)
            .set("neg", -3.5)
            .set("unicode", "κ-mer ≤ 51");
        let text = doc.to_json();
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        // Writer output is canonical: parse→write is a fixpoint.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn parse_accepts_standard_json() {
        let v = Value::parse(r#" { "a" : [ 1 , 2.5 , -3e2 , true , false , null , "Aé😀" ] } "#)
            .unwrap();
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 7);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(arr[6].as_str(), Some("Aé😀"));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        // Unbounded recursion would abort the whole process on these.
        for unit in ["[", "{\"a\":"] {
            let err = Value::parse(&unit.repeat(200_000)).unwrap_err();
            assert!(err.msg.contains("nesting deeper"), "{err}");
            assert_eq!(err.pos, unit.len() * MAX_DEPTH);
        }
        // Exactly at the cap still parses; one more level does not.
        let nest = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nest(MAX_DEPTH + 1)).is_err());
        // Depth counts open containers, not containers seen.
        let wide = format!("[{}[]]", "[],".repeat(10 * MAX_DEPTH));
        assert!(Value::parse(&wide).is_ok());
    }

    #[test]
    fn integers_survive_exactly() {
        for n in [0u64, 1, 1 << 40, (1 << 53) - 1] {
            let text = Value::from(n).to_json();
            assert_eq!(Value::parse(&text).unwrap().as_u64(), Some(n));
            assert!(!text.contains('.'), "{text}");
        }
    }

    /// xorshift64* — a tiny deterministic PRNG for the property test below
    /// (no external proptest dependency).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn any_string_survives_serialize_parse_round_trip() {
        // Property test over adversarial strings: every `char` drawn from
        // ranges chosen to hit the escaping edge cases — C0 controls, DEL,
        // quote/backslash, surrogate-pair territory (astral planes), the
        // U+2028/U+2029 line separators, and plain ASCII.
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        for len in 0..200usize {
            let mut s = String::new();
            for _ in 0..len {
                let c = match rng.next() % 8 {
                    0 => char::from_u32((rng.next() % 0x20) as u32).unwrap(),
                    1 => ['"', '\\', '/', '\u{7f}'][(rng.next() % 4) as usize],
                    2 => '\u{2028}',
                    3 => '\u{2029}',
                    4 => char::from_u32(0x1_F600 + (rng.next() % 80) as u32).unwrap(),
                    5 => char::from_u32(0x0400 + (rng.next() % 0x100) as u32).unwrap(),
                    _ => char::from_u32(0x20 + (rng.next() % 0x5f) as u32).unwrap(),
                };
                s.push(c);
            }
            let text = Value::from(s.clone()).to_json();
            let parsed =
                Value::parse(&text).unwrap_or_else(|e| panic!("invalid JSON for {s:?}: {e}"));
            assert_eq!(parsed.as_str(), Some(s.as_str()), "text was {text}");
            // Keys must survive too (exercises object-path escaping).
            let mut obj = Value::obj();
            obj.set(s.clone(), 1u64);
            let doc = Value::parse(&obj.to_json()).unwrap();
            assert_eq!(doc.get(&s).and_then(Value::as_u64), Some(1));
        }
    }

    #[test]
    fn del_and_line_separators_are_escaped() {
        let text = Value::from("a\u{7f}b\u{2028}c\u{2029}d").to_json();
        assert_eq!(text, "\"a\\u007fb\\u2028c\\u2029d\"");
    }
}
