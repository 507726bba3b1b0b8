//! The workspace's one JSON implementation: a linear-time pull
//! [`Scanner`], the [`JsonValue`] tree [`parse`] builds on it, and the
//! append-style writers every crate serializes through.
//!
//! This crate is the zero-dependency leaf under core, store, server,
//! client and bench, so the trial-event lines, store records, wire
//! frames, telemetry and `BENCH_*.json` artifacts all share one string
//! lexer, one number lexer, one escaper and one `f64` writer:
//!
//! * **Closed line schemas** (trial events, store records) pull tokens
//!   straight off the [`Scanner`] through [`Scanner::object`] — no
//!   intermediate tree on the per-record path, and no `String` for a
//!   token that is only parsed: [`Scanner::str_token`] lends the literal
//!   (a knob token, a `kind`, a status) out of the line.
//! * **Open documents** come two ways. The wire's per-round messages are
//!   pulled like a line schema, through [`Scanner::open_object`] (a
//!   repeated key is refused) with [`Scanner::skip`] for the members a
//!   reader does not know; the same `skip` is how an envelope checks a
//!   whole frame and hands a payload on as its source text. Everything
//!   read once in a while (metrics, traces, bench artifacts, the wire's
//!   per-session messages) goes through [`parse`] and reads members with
//!   the typed by-key accessors ([`JsonValue::str`], [`JsonValue::u64`],
//!   …), whose `Err(String)` names the offending key. `skip` and `parse`
//!   accept exactly the same documents.
//! * **Writers** append into a caller's `String`. Finite numbers print
//!   in Rust's shortest-roundtrip form, so a value read back is
//!   bit-identical and re-serializing a parsed document reproduces it
//!   byte for byte; non-finite numbers, which JSON cannot carry, print
//!   as `null`.
//!
//! Dialect: RFC 8259 documents, read leniently where the old per-crate
//! lexers were (raw control characters inside strings and Rust-style
//! number spellings such as `1.` or `+1` are accepted), strictly where
//! it protects a reader (duplicate keys, trailing bytes, nesting deeper
//! than [`MAX_DEPTH`]). A `\uXXXX` surrogate half decodes to U+FFFD; the
//! writers never emit one (non-ASCII text is written raw).

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts; deeper input is an
/// error instead of a stack overflow in whoever parses outside bytes.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// Every JSON number, kept as `f64` (telemetry integers are all
    /// exactly representable: sequence numbers, counters, iterations).
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    /// Object members in document order (serialization is order-stable).
    Obj(Vec<(String, JsonValue)>),
}

fn to_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

impl JsonValue {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, rejecting fractions.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(to_u64)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an array of numbers.
    pub fn as_f64_array(&self) -> Option<Vec<f64>> {
        self.as_array()?.iter().map(JsonValue::as_f64).collect()
    }

    /// Required member `key` converted by `conv`; the error names the
    /// key and says whether it was absent or of the wrong type.
    fn member<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        conv: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing \"{key}\""))?;
        conv(v).ok_or_else(|| format!("\"{key}\" is not {what}"))
    }

    /// Optional member: absent or `null` is `None`, a wrong type is an
    /// error.
    fn opt_member<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        conv: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => conv(v).map(Some).ok_or_else(|| format!("\"{key}\" is not {what}")),
        }
    }

    /// Required string member.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.member(key, "a string", JsonValue::as_str)
    }

    /// Required non-negative integer member.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.member(key, "a non-negative integer", JsonValue::as_u64)
    }

    /// Required number member.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.member(key, "a number", JsonValue::as_f64)
    }

    /// Required boolean member.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.member(key, "a boolean", JsonValue::as_bool)
    }

    /// Required array member.
    pub fn array(&self, key: &str) -> Result<&[JsonValue], String> {
        self.member(key, "an array", JsonValue::as_array)
    }

    /// Required object member, as its `(key, value)` list.
    pub fn object(&self, key: &str) -> Result<&[(String, JsonValue)], String> {
        self.member(key, "an object", |v| match v {
            JsonValue::Obj(members) => Some(members.as_slice()),
            _ => None,
        })
    }

    /// Required array-of-numbers member.
    pub fn f64_array(&self, key: &str) -> Result<Vec<f64>, String> {
        self.member(key, "an array of numbers", JsonValue::as_f64_array)
    }

    /// Optional string member (absent or `null` is `None`).
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        self.opt_member(key, "a string", JsonValue::as_str)
    }

    /// Optional non-negative integer member.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.opt_member(key, "a non-negative integer", JsonValue::as_u64)
    }

    /// Optional number member.
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.opt_member(key, "a number", JsonValue::as_f64)
    }

    /// Optional array member; absent or `null` reads as empty.
    pub fn opt_array(&self, key: &str) -> Result<&[JsonValue], String> {
        Ok(self.opt_member(key, "an array", JsonValue::as_array)?.unwrap_or(&[]))
    }
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Appends `s` escaped for embedding between JSON quotes: the plain
/// runs between escapes in whole slices (every byte that needs an escape
/// is ASCII, so every slice boundary is a character boundary).
pub fn write_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `s` as a quoted JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    write_escaped(out, s);
    out.push('"');
}

/// Appends an `f64` losslessly (shortest round-trip form); non-finite
/// values, which JSON cannot carry, become `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends an integer.
pub fn write_u64(out: &mut String, n: u64) {
    let _ = write!(out, "{n}");
}

/// Appends `null`, or the value rendered by `some`.
pub fn write_opt<T>(out: &mut String, v: Option<T>, some: impl FnOnce(&mut String, T)) {
    match v {
        Some(v) => some(out, v),
        None => out.push_str("null"),
    }
}

/// Appends `[a,b,c]`, rendering each item with `item`.
pub fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Appends `{"k":v,…}`, rendering each value with `value`.
pub fn write_object<K: AsRef<str>, V>(
    out: &mut String,
    members: impl IntoIterator<Item = (K, V)>,
    mut value: impl FnMut(&mut String, V),
) {
    out.push('{');
    for (i, (k, v)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k.as_ref());
        out.push(':');
        value(out, v);
    }
    out.push('}');
}

/// Appends a number array `[a,b,c]`.
pub fn write_f64_array(out: &mut String, vs: &[f64]) {
    write_array(out, vs, |out, v| write_f64(out, *v));
}

/// [`write_escaped`] into a fresh `String`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// [`write_f64`] into a fresh `String`.
pub fn format_f64(v: f64) -> String {
    let mut out = String::new();
    write_f64(&mut out, v);
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A pull scanner over one JSON text. Every method skips leading
/// whitespace, consumes exactly one token or value, and runs in time
/// linear in the bytes it consumes. Cloning one is a checkpoint: a reader
/// that may have to give a value up tries it on the clone.
#[derive(Clone)]
pub struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Scanner<'a> {
    /// Starts scanning `text` from its first byte.
    pub fn new(text: &'a str) -> Self {
        Scanner { text, pos: 0, depth: 0 }
    }

    /// Next non-whitespace byte, without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Consumes `b` if it is the next token, returning whether it was.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Consumes the literal `null` if it is next, returning whether it
    /// was — how closed schemas read their nullable numbers.
    pub fn null(&mut self) -> bool {
        self.literal("null")
    }

    fn literal(&mut self, lit: &str) -> bool {
        self.peek();
        let hit = self.text[self.pos..].starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    /// Parses a number as `f64` with Rust's shortest-roundtrip parser,
    /// so values printed by [`write_f64`] survive bit-exactly.
    pub fn number(&mut self) -> Result<f64, String> {
        self.peek();
        let rest = &self.text.as_bytes()[self.pos..];
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .unwrap_or(rest.len());
        let token = &self.text[self.pos..self.pos + len];
        let v = token.parse().map_err(|_| format!("bad number {token:?} at byte {}", self.pos))?;
        self.pos += len;
        Ok(v)
    }

    /// Parses a non-negative integer, rejecting fractions.
    pub fn u64(&mut self) -> Result<u64, String> {
        let at = self.pos;
        let n = self.number()?;
        to_u64(n).ok_or_else(|| format!("expected a non-negative integer at byte {at}, got {n}"))
    }

    /// Parses a string literal.
    pub fn string(&mut self) -> Result<String, String> {
        self.str_token().map(Cow::into_owned)
    }

    /// The string lexer: borrows the literal when it has no escapes —
    /// how a reader takes a token it only parses (a knob token, a status,
    /// a method name) without a `String` for it — otherwise copies the
    /// plain runs between escapes in whole slices. `"` and `\` are ASCII,
    /// so every slice boundary is a character boundary of the (already
    /// valid) UTF-8 input.
    pub fn str_token(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            let stop = bytes[self.pos..]
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'))
                .ok_or("unterminated string")?;
            self.pos += stop;
            let plain = &self.text[run..self.pos];
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(if out.is_empty() {
                    Cow::Borrowed(plain)
                } else {
                    out.push_str(plain);
                    Cow::Owned(out)
                });
            }
            out.push_str(plain);
            out.push(self.escape_sequence()?);
            run = self.pos;
        }
    }

    /// Decodes one escape, positioned on its backslash.
    fn escape_sequence(&mut self) -> Result<char, String> {
        let e = *self.text.as_bytes().get(self.pos + 1).ok_or("unterminated escape")?;
        self.pos += 2;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            // A surrogate half is not a character: it reads as U+FFFD.
            b'u' => char::from_u32(self.hex4()?).unwrap_or('\u{fffd}'),
            other => return Err(format!("bad escape \\{}", other as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// Parses `[ … ]`, calling `item` positioned on each element.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.sequence(b'[', b']', item)
    }

    /// Parses `{ … }`, calling `member` with each key, positioned on
    /// that key's value. A closed schema rejects unknown keys there.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&str, &mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.sequence(b'{', b'}', |sc| {
            let key = sc.str_token()?;
            sc.expect(b':')?;
            member(&key, sc)
        })
    }

    /// [`Scanner::object`] for an open document: a repeated key is
    /// refused, so a reader that skips the members it does not know
    /// accepts exactly the objects [`parse`] accepts.
    pub fn open_object(
        &mut self,
        mut member: impl FnMut(&str, &mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut keys: Vec<Cow<'a, str>> = Vec::new();
        self.sequence(b'{', b'}', |sc| {
            let key = sc.str_token()?;
            sc.expect(b':')?;
            member(&key, sc)?;
            keys.push(key);
            Ok(())
        })?;
        keys.sort_unstable();
        match keys.windows(2).find(|w| w[0] == w[1]) {
            Some(dup) => Err(format!("duplicate key {:?}", dup[0])),
            None => Ok(()),
        }
    }

    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        if !self.eat(close) {
            loop {
                element(self)?;
                if !self.eat(b',') {
                    self.expect(close)?;
                    break;
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Parses `[ … ]` into a `Vec`, one `item` per element, returned
    /// without growth slack (callers keep these: points, metrics,
    /// configurations).
    pub fn vec<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut xs = Vec::new();
        self.array(|sc| item(sc).map(|x| xs.push(x)))?;
        xs.shrink_to_fit();
        Ok(xs)
    }

    /// Parses a flat array of numbers.
    pub fn f64_array(&mut self) -> Result<Vec<f64>, String> {
        self.vec(Scanner::number)
    }

    /// Consumes one value of any type, checked as [`Scanner::value`]
    /// checks it, and returns its source text instead of a tree — how an
    /// envelope hands its payload to the payload's own reader, and how
    /// that reader passes over a member it does not know.
    pub fn skip(&mut self) -> Result<&'a str, String> {
        let first = self.peek().ok_or("unexpected end of input")?;
        let start = self.pos;
        match first {
            b'{' => self.open_object(|_, sc| sc.skip().map(drop))?,
            b'[' => self.array(|sc| sc.skip().map(drop))?,
            b'"' => drop(self.str_token()?),
            b't' if self.literal("true") => {}
            b'f' if self.literal("false") => {}
            b'n' if self.literal("null") => {}
            b't' | b'f' | b'n' => return Err(format!("invalid literal at byte {}", self.pos)),
            _ => drop(self.number()?),
        }
        Ok(&self.text[start..self.pos])
    }

    /// Parses any value into a tree, rejecting duplicate object keys.
    pub fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => {
                let mut members: Vec<(String, JsonValue)> = Vec::new();
                self.open_object(|key, sc| sc.value().map(|v| members.push((key.to_string(), v))))?;
                Ok(JsonValue::Obj(members))
            }
            b'[' => {
                let mut items = Vec::new();
                self.array(|sc| sc.value().map(|v| items.push(v)))?;
                Ok(JsonValue::Arr(items))
            }
            b'"' => self.string().map(JsonValue::Str),
            b't' if self.literal("true") => Ok(JsonValue::Bool(true)),
            b'f' if self.literal("false") => Ok(JsonValue::Bool(false)),
            b'n' if self.literal("null") => Ok(JsonValue::Null),
            b't' | b'f' | b'n' => Err(format!("invalid literal at byte {}", self.pos)),
            _ => self.number().map(JsonValue::Num),
        }
    }

    /// Succeeds when only whitespace remains.
    pub fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing bytes at byte {}", self.pos)),
        }
    }
}

/// Parses one complete JSON document, rejecting trailing bytes.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut sc = Scanner::new(text);
    let value = sc.value()?;
    sc.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn string(doc: &str) -> Result<String, String> {
        parse(doc).map(|v| v.as_str().expect("a string document").to_string())
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":1,"b":[1.5,"x",null],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&JsonValue::Bool(true)));
        match v.get("b").unwrap() {
            JsonValue::Arr(items) => {
                assert_eq!(items[0].as_f64(), Some(1.5));
                assert_eq!(items[1].as_str(), Some("x"));
                assert_eq!(items[2], JsonValue::Null);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Whitespace anywhere between tokens, empty containers, and the
        // bench artifacts' non-ASCII names.
        let v =
            parse(" {\"a\" : [ ] ,\n\"b\":{ },\t\"name\": \"µbench \\\"q\\\"\", \"x\": null}\r\n")
                .unwrap();
        assert_eq!(v.array("a").unwrap().len(), 0);
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(vec![])));
        assert_eq!(v.str("name"), Ok("µbench \"q\""));
        assert_eq!(v.get("x"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            r#"{"a":}"#,
            r#"{"a":1"#,
            r#"{"a" 1}"#,
            "{a:1}",
            "[1,]",
            "[1 2]",
            r#"{"a":1,}"#,
            r#"{"a": [1, 2,]}"#,
            "nul",
            "truth",
            r#"{"a":1}x"#,
            "{} trailing",
            r#"{"a":1,"a":2}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line\nquote\"back\\slash\ttab";
        let doc = format!("{{\"k\":\"{}\"}}", escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(s));
    }

    #[test]
    fn f64_formatting_round_trips() {
        for v in [0.0, 1.5, -2.25, 0.1, 1e-9, 123456.789, f64::MAX] {
            let s = format_f64(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "{s}");
        }
        assert_eq!(format_f64(f64::NAN), "null");
    }

    #[test]
    fn integer_validation_rejects_fractions() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Scanner::new(" 42 ").u64(), Ok(42));
        for bad in ["3.5", "-1", "1e30"] {
            assert!(Scanner::new(bad).u64().is_err(), "{bad} is not a u64");
        }
    }

    /// The one dialect, pinned: what the merged lexer accepts (with the
    /// value it yields) and what it rejects.
    #[test]
    fn dialect_table() {
        // Every RFC 8259 escape; core's old lexer rejected `\/ \b \f`.
        assert_eq!(string(r#""\" \\ \/ \b \f \n \r \t""#).unwrap(), "\" \\ / \u{8} \u{c} \n \r \t");
        assert_eq!(string(r#""\u00e9\u0041""#).unwrap(), "éA");
        // Surrogate halves decode to U+FFFD each; core used to reject.
        assert_eq!(string(r#""\ud800""#).unwrap(), "\u{fffd}");
        assert_eq!(string(r#""\ude00x\ud83d\ude00""#).unwrap(), "\u{fffd}x\u{fffd}\u{fffd}");
        // Raw multi-byte UTF-8 and raw control characters pass through.
        assert_eq!(string("\"µ→😀 \u{1}\"").unwrap(), "µ→😀 \u{1}");
        for bad in
            [r#""\x""#, r#""\u12""#, r#""\u+123""#, r#""\u12g4""#, r#""\"#, r#""abc"#, "\"\\"]
        {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }

        // Numbers: anything Rust's f64 parser takes out of [0-9+-.eE].
        for (doc, want) in
            [("0", 0.0), ("-1.5e3", -1500.0), ("1.", 1.0), ("+1", 1.0), ("1E2", 100.0)]
        {
            assert_eq!(parse(doc).unwrap(), JsonValue::Num(want), "{doc}");
        }
        for bad in ["NaN", "inf", "-", ".", "1e", "--1", "0x10", "1_000"] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }

        // Duplicate keys (at any depth) and trailing bytes.
        assert!(parse(r#"{"a":{"k":1,"j":2,"k":3}}"#).unwrap_err().contains("duplicate key \"k\""));
        assert!(parse("{} x").unwrap_err().contains("trailing bytes"));

        // Nesting is bounded: outside bytes cannot overflow the stack.
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        assert!(parse(&"[".repeat(1 << 20)).is_err());

        // The writers' bytes: escapes, shortest-roundtrip numbers, and
        // `null` for what JSON cannot carry.
        let mut out = String::new();
        write_str(&mut out, "q\"b\\n\nr\rt\tc\u{1}é/");
        write_f64_array(&mut out, &[0.1, -2.0, 1e21, f64::NAN, f64::INFINITY]);
        write_array(&mut out, ["i1", "f0.5"], write_str);
        assert_eq!(
            out,
            r#""q\"b\\n\nr\rt\tc\u0001é/"[0.1,-2,1000000000000000000000,null,null]["i1","f0.5"]"#
        );
    }

    /// A closed schema on the pull scanner, the way the trial-event and
    /// store-record readers are written: unknown keys and trailing
    /// bytes are the schema's to reject, and it can.
    #[test]
    fn pull_scanner_reads_a_closed_schema() {
        fn read(line: &str) -> Result<(String, Option<f64>, Vec<f64>), String> {
            let mut sc = Scanner::new(line);
            let (mut name, mut score, mut point) = (String::new(), None, Vec::new());
            sc.object(|key, sc| {
                match key {
                    "name" => name = sc.string()?,
                    "score" => score = if sc.null() { None } else { Some(sc.number()?) },
                    "point" => point = sc.f64_array()?,
                    other => return Err(format!("unknown key {other:?}")),
                }
                Ok(())
            })?;
            sc.end()?;
            Ok((name, score, point))
        }
        assert_eq!(
            read(r#" { "point" : [ 0.25 , 1 ] , "name" : "a\tb" , "score" : null } "#),
            Ok(("a\tb".to_string(), None, vec![0.25, 1.0]))
        );
        assert_eq!(read(r#"{"name":"x","score":-2.5}"#), Ok(("x".to_string(), Some(-2.5), vec![])));
        assert!(read(r#"{"name":"x","extra":1}"#).unwrap_err().contains("unknown key"));
        assert!(read(r#"{"name":"x"}garbage"#).unwrap_err().contains("trailing"));
        for bad in [r#"{"score":nul}"#, r#"{"score":NaN}"#, r#"{"point":[1,"a"]}"#, "[]", "42"] {
            assert!(read(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn typed_accessors_name_the_key_and_the_fault() {
        let v = parse(r#"{"s":"x","n":7,"f":1.5,"z":null,"a":[1,2],"t":["p"],"o":{"k":true}}"#)
            .unwrap();
        assert_eq!((v.str("s"), v.u64("n"), v.f64("f")), (Ok("x"), Ok(7), Ok(1.5)));
        assert_eq!(v.f64_array("a"), Ok(vec![1.0, 2.0]));
        assert_eq!(v.object("o").unwrap()[0].1.as_bool(), Some(true));
        assert_eq!(v.get("o").unwrap().bool("k"), Ok(true));
        assert_eq!(v.str("gone"), Err("missing \"gone\"".to_string()));
        assert_eq!(v.str("n"), Err("\"n\" is not a string".to_string()));
        assert_eq!(v.u64("f"), Err("\"f\" is not a non-negative integer".to_string()));
        assert!(v.f64_array("t").is_err() && v.array("o").is_err());
        // Optional members: absent and null are None, a wrong type is not.
        assert_eq!(
            (v.opt_f64("gone"), v.opt_f64("z"), v.opt_f64("n")),
            (Ok(None), Ok(None), Ok(Some(7.0)))
        );
        assert_eq!((v.opt_u64("n"), v.opt_str("s")), (Ok(Some(7)), Ok(Some("x"))));
        assert!(v.opt_f64("s").is_err() && v.opt_u64("f").is_err() && v.opt_str("n").is_err());
        assert_eq!((v.opt_array("gone").unwrap().len(), v.opt_array("a").unwrap().len()), (0, 2));
        assert!(v.opt_array("s").is_err());
    }

    /// Serializes a tree with the public writers (the workspace has no
    /// other use for a tree writer).
    fn write_value(out: &mut String, v: &JsonValue) {
        match v {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_f64(out, *n),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Arr(items) => write_array(out, items, write_value),
            JsonValue::Obj(members) => {
                write_object(out, members.iter().map(|(k, v)| (k, v)), write_value)
            }
        }
    }

    fn word(words: &mut dyn Iterator<Item = u64>) -> u64 {
        words.next().expect("enough words")
    }

    fn random_text(words: &mut dyn Iterator<Item = u64>) -> String {
        const ALPHABET: [char; 12] =
            ['a', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '→', '😀'];
        (0..word(words) % 9).map(|_| ALPHABET[(word(words) % 12) as usize]).collect()
    }

    /// A random tree drawn from `words`: awkward strings, finite
    /// numbers of every magnitude, nesting up to `depth`.
    fn random_value(words: &mut dyn Iterator<Item = u64>, depth: u32) -> JsonValue {
        match word(words) % if depth == 0 { 4 } else { 6 } {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(word(words) & 1 == 1),
            2 => {
                let n = f64::from_bits(word(words));
                JsonValue::Num(if n.is_finite() { n } else { 0.1 })
            }
            3 => JsonValue::Str(random_text(words)),
            4 => {
                let n = word(words) % 4;
                JsonValue::Arr((0..n).map(|_| random_value(words, depth - 1)).collect())
            }
            _ => {
                let (n, prefix) = (word(words) % 4, random_text(words));
                let member = |i| (format!("{prefix}{i}"), random_value(words, depth - 1));
                JsonValue::Obj((0..n).map(member).collect())
            }
        }
    }

    /// `skip` over a whole document, the way an envelope walks a frame.
    fn skip_document(text: &str) -> Result<&str, String> {
        let mut sc = Scanner::new(text);
        let span = sc.skip()?;
        sc.end().map(|()| span)
    }

    /// `skip` is `value` without the tree: the same documents, the same
    /// refusals (with the same words), and the span is the value's text.
    #[test]
    fn skip_accepts_exactly_what_value_accepts() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let (deep, too_deep) = (nest(MAX_DEPTH), nest(MAX_DEPTH + 1));
        for doc in [
            r#"{"a":1,"b":[1.5,"x",null],"c":{"d":true,"e":false}}"#,
            " [ ] ",
            r#""q\"\u00e9""#,
            "-1.5e3",
            "1.",
            "+1",
            "1e999",
            &deep,
            "",
            "{",
            r#"{"a":}"#,
            "[1,]",
            "[1 2]",
            "nul",
            "truth",
            r#"{"a":1}x"#,
            r#"{"a":1,"a":2}"#,
            r#"{"a":{"k":1,"j":2,"k":3}}"#,
            r#"{"i\u0064":1,"id":2}"#,
            r#""\x""#,
            r#""abc"#,
            "NaN",
            "--1",
            "1e",
            ".",
            &too_deep,
        ] {
            assert_eq!(skip_document(doc).map(drop), parse(doc).map(drop), "{doc}");
        }
        let mut sc = Scanner::new(r#" [ {"k": [1, "two"]} , 3 ] "#);
        sc.array(|sc| {
            let span = sc.skip()?;
            assert!(span == r#"{"k": [1, "two"]}"# || span == "3", "{span}");
            Ok(())
        })
        .unwrap();
        // A clone is a checkpoint: the original has not moved.
        let mut sc = Scanner::new("[1,2]");
        assert!(sc.clone().u64().is_err());
        assert_eq!(sc.f64_array(), Ok(vec![1.0, 2.0]));
    }

    proptest! {
        #[test]
        fn skip_agrees_with_parse_on_mangled_documents(
            words in proptest::collection::vec(any::<u64>(), 4096)
        ) {
            let mut words = words.into_iter();
            let mut text = String::new();
            write_value(&mut text, &random_value(&mut words, 4));
            prop_assert_eq!(skip_document(&text), Ok(text.as_str()));
            // One byte replaced, dropped or doubled, anywhere.
            let mut bytes = text.clone().into_bytes();
            let at = (word(&mut words) % bytes.len() as u64) as usize;
            match word(&mut words) % 3 {
                0 => bytes[at] = b"{}[]\",:e-0\\ x"[(word(&mut words) % 13) as usize],
                1 => drop(bytes.remove(at)),
                _ => bytes.insert(at, bytes[at]),
            }
            if let Ok(mangled) = String::from_utf8(bytes) {
                let (skipped, parsed) = (skip_document(&mangled), parse(&mangled));
                prop_assert_eq!(skipped.map(drop), parsed.map(drop), "{}", mangled);
            }
        }

        #[test]
        fn parse_inverts_write(words in proptest::collection::vec(any::<u64>(), 4096)) {
            let v = random_value(&mut words.into_iter(), 4);
            let mut text = String::new();
            write_value(&mut text, &v);
            let parsed = parse(&text).unwrap();
            prop_assert_eq!(&parsed, &v);
            // Re-serializing a parsed document reproduces it byte for byte.
            let mut again = String::new();
            write_value(&mut again, &parsed);
            prop_assert_eq!(again, text);
        }

        #[test]
        fn finite_f64_round_trips_bit_exactly(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                let text = format_f64(v);
                prop_assert_eq!(Scanner::new(&text).number().unwrap().to_bits(), bits, "{}", text);
            } else {
                prop_assert_eq!(format_f64(v), "null");
            }
        }
    }

    /// The linear-time pin: an `export_history` reply at the wire's
    /// frame cap (`MAX_FRAME`, 4 MiB), escapes and multi-byte text
    /// included. The per-crate lexer this one replaced re-validated the
    /// whole remaining document for every plain character — ~10¹³ byte
    /// checks here — and did not finish.
    #[test]
    fn a_frame_sized_string_document_parses_in_linear_time() {
        const FRAME: usize = 4 * 1024 * 1024;
        let line = "{\"session\":\"ycsb_a/llamatune/smac/s1\",\"score\":1234.5,\"note\":\"µ\"}\n";
        let jsonl = line.repeat(FRAME / (line.len() + 12));
        let mut doc = String::from("{\"jsonl\":");
        write_str(&mut doc, &jsonl);
        doc.push('}');
        assert!(doc.len() > FRAME * 9 / 10 && doc.len() <= FRAME, "{} bytes", doc.len());
        let started = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.str("jsonl"), Ok(jsonl.as_str()));
        assert!(started.elapsed().as_secs() < 20, "took {:?}", started.elapsed());
    }
}
