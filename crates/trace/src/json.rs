//! The workspace's one JSON codec: a strict parser and the two scalar
//! writers every JSON document in the workspace is built from.
//!
//! Three committed formats go through it: the trace export
//! ([`Trace::to_json_with_metrics`](crate::Trace::to_json_with_metrics)),
//! the `topk-lint --json` report and the `BENCH_<target>.json` bench
//! reports. Each keeps its own byte layout — CI compares them byte for
//! byte — so this module offers the pieces rather than a pretty-printer:
//! [`string`] and [`number`] write scalars, and [`parse`] plus the
//! [`Value`] accessors read a document back for strict verification.
//!
//! The parser keeps object members in document order (the schemas
//! commit to key order), rejects trailing bytes, and keeps every number
//! as its raw text, so `u64` checks are exact and an `f64` written by
//! [`number`] reads back bit for bit. Repeated keys are kept as written
//! (trace schema v1 has them: the `standing_ingest` and `fault_injected`
//! events carry a payload field `kind` beside the event's own `kind`);
//! [`Value::as_map`] and [`Value::with_keys`] reject them where a
//! format needs distinct names. The workspace
//! builds offline, so there is no serde; this is std-only.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its raw (validated, finite) text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order (repeated keys kept).
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    fn mismatch(&self, what: &str, expected: &str) -> String {
        format!("{what}: expected {expected}, got {}", self.type_name())
    }

    /// The value as a `u64`; only plain non-negative integer text
    /// qualifies (`3`, not `3.0` or `3e0`). `what` names the value in
    /// the error.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: `{raw}` is not a non-negative integer")),
            other => Err(other.mismatch(what, "number")),
        }
    }

    /// The value as an `f64` (exactly the bits its text denotes).
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Num(raw) => raw
                .parse()
                .map_err(|_| format!("{what}: `{raw}` is not a number")),
            other => Err(other.mismatch(what, "number")),
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.mismatch(what, "boolean")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(other.mismatch(what, "string")),
        }
    }

    /// The value's array elements.
    pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(other.mismatch(what, "array")),
        }
    }

    /// The value's object members, in document order.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Obj(members) => Ok(members),
            other => Err(other.mismatch(what, "object")),
        }
    }

    /// The value's object members, which must have distinct keys: a
    /// name → value map.
    pub fn as_map(&self, what: &str) -> Result<&[(String, Value)], String> {
        let members = self.as_object(what)?;
        for (i, (key, _)) in members.iter().enumerate() {
            if members[..i].iter().any(|(k, _)| k == key) {
                return Err(format!("{what}: repeated key `{key}`"));
            }
        }
        Ok(members)
    }

    /// The value's object members, which must be exactly `keys` in
    /// exactly that order; `members[i].1` is then the value of
    /// `keys[i]`.
    pub fn with_keys(&self, keys: &[&str], what: &str) -> Result<&[(String, Value)], String> {
        let members = self.as_object(what)?;
        let got: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
        if got != keys {
            return Err(format!(
                "{what}: keys are {got:?}, schema requires {keys:?} in that order"
            ));
        }
        Ok(members)
    }
}

/// `s` as a JSON string literal: `"` and `\` escaped, `\n`, `\r`, `\t`
/// as short escapes, other control characters as `\u00XX`, and
/// everything else (non-ASCII included) verbatim.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `value` as a JSON number: Rust's shortest round-trip decimal (`{}`
/// never uses an exponent, and integral values print without a
/// fraction), except that `-0.0` prints as `0`. Only finite values have
/// a JSON form.
pub fn number(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else {
        value.to_string()
    }
}

/// Parses one JSON document. Whitespace may surround it; anything else
/// after it is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(parser.err("trailing bytes after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.text.as_bytes().get(self.pos),
            Some(b' ' | b'\t' | b'\n' | b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut members: Vec<(String, Value)> = Vec::new();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    if p.peek() != Some(b':') {
                        return Err(p.err("expected `:`"));
                    }
                    p.pos += 1;
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses `item (, item)*` up to the `close` byte; the opening
    /// bracket is already consumed.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.err("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, String> {
        let rest = &self.text[self.pos..];
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(rest.len());
        let raw = &rest[..len];
        if !raw.parse::<f64>().is_ok_and(f64::is_finite) {
            return Err(self.err(&format!("`{raw}` is not a finite number")));
        }
        self.pos += len;
        Ok(Value::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let Some(at) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') else {
                return Err(self.err("unterminated string"));
            };
            out.push_str(&rest[..at]);
            self.pos += at + 1;
            match rest.as_bytes()[at] {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// One escape, the backslash already consumed.
    fn escape(&mut self) -> Result<char, String> {
        let byte = self.text.as_bytes().get(self.pos).copied();
        self.pos += 1;
        Ok(match byte {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            // `string` escapes only control characters this way, so
            // surrogate pairs are not decoded: non-BMP text is literal.
            Some(b'u') => {
                let c = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err("invalid \\u escape"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("invalid escape")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\t\r\u{1}é"), "\"\\t\\r\\u0001é\"");
    }

    #[test]
    fn gauge_formatting_is_integral_when_exact() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(-2.0), "-2");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(-0.0), "0");
        assert_eq!(number(1e15), "1000000000000000");
        assert_eq!(number(1e-9), "0.000000001");
    }

    #[test]
    fn documents_parse_in_order_with_raw_numbers() {
        let value = parse(" {\"b\": [1, -2.5e3, true, null], \"a\": \"\\u00e9😀\"} ").unwrap();
        let members = value.with_keys(&["b", "a"], "doc").unwrap();
        let items = members[0].1.as_array("b").unwrap();
        assert_eq!(items[0].as_u64("b[0]"), Ok(1));
        assert_eq!(items[1], Value::Num("-2.5e3".to_string()));
        assert!(items[1].as_u64("b[1]").is_err());
        assert_eq!(items[2], Value::Bool(true));
        assert_eq!(items[3], Value::Null);
        assert_eq!(members[1].1.as_str("a"), Ok("é😀"));
        assert!(value.with_keys(&["a", "b"], "doc").is_err());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        let valid = "{\"a\": [1, 2], \"b\": \"x\"}";
        assert!(parse(valid).is_ok());
        for bad in [
            "",
            "{\"a\": [1, 2], \"b\": \"x\"}x",
            "{\"a\": [1, 2], \"b\": \"x\"} {}",
            "{\"a\": [1, 2], \"b\": \"x\"",
            "{\"a\": [1, 2",
            "{\"a\": [1, 2], \"b\": \"x",
            "[1,]",
            "\"\\q\"",
            "\"\\ud800\"",
            "1e999",
            "\"raw\ncontrol\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Repeated keys parse (trace schema v1 has them) but are not a
        // map, and never match an exact key list.
        let repeated = parse("{\"a\": 1, \"b\": 2, \"a\": 3}").unwrap();
        assert_eq!(repeated.as_object("doc").map(<[_]>::len), Ok(3));
        assert!(repeated
            .as_map("doc")
            .unwrap_err()
            .contains("repeated key `a`"));
        assert!(repeated.with_keys(&["a", "b"], "doc").is_err());
        assert!(parse(valid).unwrap().as_map("doc").is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_string_survives_escape_then_parse(
            chars in proptest::collection::vec((0u32..4, 0u32..0x11_0000), 0..=24)
        ) {
            // Mix control characters, JSON metacharacters, ASCII and any
            // Unicode scalar value.
            let s: String = chars
                .into_iter()
                .map(|(class, raw)| match class {
                    0 => char::from_u32(raw % 0x20).unwrap_or(' '),
                    1 => ['"', '\\', '/', '\u{7f}'][raw as usize % 4],
                    2 => char::from_u32(raw % 0x80).unwrap_or(' '),
                    _ => char::from_u32(raw).unwrap_or('\u{fffd}'),
                })
                .collect();
            prop_assert_eq!(parse(&string(&s)), Ok(Value::Str(s)));
        }

        #[test]
        fn any_finite_f64_survives_write_then_parse(bits in 0u64..=u64::MAX) {
            // Non-finite bit patterns are mapped onto the finite value
            // with the same mantissa.
            let mut value = f64::from_bits(bits);
            if !value.is_finite() {
                value = f64::from_bits(bits & !(0x7ff << 52));
            }
            let back = parse(&number(value)).unwrap().as_f64("value").unwrap();
            // `-0.0` is written `0` (the one non-bit-exact case).
            let expected = if value == 0.0 { 0.0 } else { value };
            prop_assert_eq!(back.to_bits(), expected.to_bits());
        }
    }
}
