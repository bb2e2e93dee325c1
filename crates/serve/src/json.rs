//! A minimal JSON value type with parser and writer.
//!
//! The build environment is offline and the workspace is std-only, so the
//! wire format is implemented here rather than pulled from serde. The
//! subset is exactly RFC 8259 minus some numeric edge cases: numbers are
//! held as `f64` (integers round-trip exactly up to 2^53, far beyond any
//! counter this service transmits), and object keys keep insertion order so
//! emitted responses are stable for tests and humans. Nesting is capped at
//! [`MAX_DEPTH`], because every frame a client sends is parsed here.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Objects keep insertion order (pairs, not a map) for stable output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Move a member's value out of an object (first match), leaving
    /// `null` in its place.
    pub(crate) fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as u64 (floor), if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object payload as a map view (last duplicate wins), if an object.
    pub fn as_map(&self) -> Option<BTreeMap<&str, &Json>> {
        match self {
            Json::Obj(pairs) => Some(pairs.iter().map(|(k, v)| (k.as_str(), v)).collect()),
            _ => None,
        }
    }

    /// Serialize to a compact string.
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Parse a complete JSON document (trailing whitespace allowed).
    /// Arrays and objects nested deeper than [`MAX_DEPTH`] are an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(JsonError::at(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

/// Convenience conversions for building responses.
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Explanation.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> JsonError {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else if n.is_finite() {
                out.push_str(&format!("{n}"));
            } else {
                out.push_str("null"); // NaN/inf have no JSON spelling
            }
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

/// Write `s` as a JSON string literal. Bytes that need no escape are
/// copied a whole run at a time; the escape set is `\"`, `\\`, `\n`, `\r`,
/// `\t`, and `\u00xx` for the other bytes below 0x20. Everything else,
/// non-ASCII included, passes through as is.
fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `run..i` sits on char boundaries.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The protocol's
/// deepest document, a `stats` response, nests five levels; the cap keeps
/// a hostile frame of brackets from overflowing the parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected `{lit}`")))
    }
}

/// Parse one value at `pos`; `depth` counts the arrays and objects that
/// enclose it.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(JsonError::at(*pos, "unexpected end of input"));
    };
    if matches!(b, b'[' | b'{') && depth >= MAX_DEPTH {
        return Err(JsonError::at(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    match b {
        b'n' => expect(bytes, pos, "null").map(|_| Json::Null),
        b't' => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        b'f' => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        b'"' => parse_string(text, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at(*pos, "expected `,` or `]`")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(text, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(JsonError::at(*pos, "expected `,` or `}`")),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(text, pos),
        other => Err(JsonError::at(
            *pos,
            format!("unexpected byte 0x{other:02x}"),
        )),
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    // The scan stopped at the first non-ASCII byte, so this is a boundary.
    let text = &text[start..*pos];
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonError::at(start, format!("bad number `{text}`")))
}

/// Parse a string literal at `pos`. Runs between escapes are sliced
/// straight out of `text`: the delimiters `"` and `\` are ASCII, so every
/// run starts and ends on a char boundary and needs no UTF-8 check.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::at(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(&text[run..*pos]);
        let Some(&b) = bytes.get(*pos) else {
            return Err(JsonError::at(*pos, "unterminated string"));
        };
        *pos += 1;
        if b == b'"' {
            return Ok(out);
        }
        let Some(&esc) = bytes.get(*pos) else {
            return Err(JsonError::at(*pos, "dangling escape"));
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => out.push(parse_unicode_escape(text, pos)?),
            other => {
                return Err(JsonError::at(
                    *pos,
                    format!("unsupported escape `\\{}`", other as char),
                ))
            }
        }
    }
}

/// Decode the four hex digits after `\u` at `pos`, joining a following
/// `\uDC00`–`\uDFFF` onto a high surrogate. Lone surrogates decode to
/// U+FFFD.
fn parse_unicode_escape(text: &str, pos: &mut usize) -> Result<char, JsonError> {
    let bytes = text.as_bytes();
    let hex = text
        .get(*pos..*pos + 4)
        .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
    let mut cp = u32::from_str_radix(hex, 16)
        .map_err(|_| JsonError::at(*pos, format!("bad \\u escape `{hex}`")))?;
    *pos += 4;
    if (0xD800..0xDC00).contains(&cp)
        && bytes.get(*pos) == Some(&b'\\')
        && bytes.get(*pos + 1) == Some(&b'u')
    {
        let lo_hex = text
            .get(*pos + 2..*pos + 6)
            .ok_or_else(|| JsonError::at(*pos, "truncated surrogate"))?;
        let lo =
            u32::from_str_radix(lo_hex, 16).map_err(|_| JsonError::at(*pos, "bad surrogate"))?;
        if (0xDC00..0xE000).contains(&lo) {
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            *pos += 6;
        }
    }
    Ok(char::from_u32(cp).unwrap_or('\u{FFFD}'))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The char-at-a-time encoder the run-based one replaced: the oracle
    /// for its wire bytes.
    fn reference_write_string(s: &str, out: &mut String) {
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
    }

    /// The char-at-a-time decoder the run-based one replaced: the oracle
    /// for its values and error offsets.
    fn reference_parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError::at(*pos, "expected string"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = bytes.get(*pos) else {
                return Err(JsonError::at(*pos, "unterminated string"));
            };
            match b {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    let Some(&esc) = bytes.get(*pos) else {
                        return Err(JsonError::at(*pos, "dangling escape"));
                    };
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = bytes
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
                            let mut cp = u32::from_str_radix(hex, 16).map_err(|_| {
                                JsonError::at(*pos, format!("bad \\u escape `{hex}`"))
                            })?;
                            *pos += 4;
                            if (0xD800..0xDC00).contains(&cp)
                                && bytes.get(*pos) == Some(&b'\\')
                                && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                let lo_hex = bytes
                                    .get(*pos + 2..*pos + 6)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| JsonError::at(*pos, "truncated surrogate"))?;
                                let lo = u32::from_str_radix(lo_hex, 16)
                                    .map_err(|_| JsonError::at(*pos, "bad surrogate"))?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    *pos += 6;
                                }
                            }
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(JsonError::at(
                                *pos,
                                format!("unsupported escape `\\{}`", other as char),
                            ))
                        }
                    }
                }
                _ => {
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(JsonError::at(*pos, "invalid utf-8")),
                    };
                    let chunk = bytes
                        .get(*pos..*pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| JsonError::at(*pos, "invalid utf-8"))?;
                    out.push_str(chunk);
                    *pos += len;
                }
            }
        }
    }

    /// A seeded xorshift64 stream: the property tests are deterministic.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    /// A random string mixing plain ASCII, the escaped bytes, every byte
    /// 0x00–0x1F, 0x7F, and 2-, 3- and 4-byte UTF-8.
    fn random_text(rng: &mut Rng) -> String {
        const PIECES: &[&str] = &[
            "\tmovl\t$1, %eax\n",
            "abc",
            " ",
            "\"",
            "\\",
            "\u{7f}",
            "\u{e9}",
            "\u{7ff}",
            "\u{20ac}",
            "\u{4e2d}",
            "\u{fffd}",
            "\u{1f600}",
            "\u{10ffff}",
        ];
        let mut s = String::new();
        for _ in 0..rng.below(40) {
            if rng.below(4) == 0 {
                s.push(char::from(rng.below(0x20) as u8));
            } else {
                s.push_str(rng.pick(PIECES));
            }
        }
        s
    }

    #[test]
    fn encoder_matches_reference_and_round_trips() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut all_bytes = String::new();
        for b in 0u8..0x80 {
            all_bytes.push(char::from(b));
        }
        let mut cases = vec![String::new(), all_bytes];
        cases.extend((0..2000).map(|_| random_text(&mut rng)));
        for s in cases {
            let mut fast = String::new();
            write_string(&s, &mut fast);
            let mut reference = String::new();
            reference_write_string(&s, &mut reference);
            assert_eq!(fast, reference, "encoder diverges on {s:?}");
            assert_eq!(Json::parse(&fast), Ok(Json::Str(s.clone())), "{fast:?}");
        }
    }

    #[test]
    fn decoder_matches_reference_on_escaped_and_malformed_input() {
        const FRAGMENTS: &[&str] = &[
            "plain text",
            "\u{e9}\u{20ac}\u{1f600}",
            "\u{1}\u{1f}\u{7f}",
            "\t",
            "\\\"",
            "\\\\",
            "\\/",
            "\\b",
            "\\f",
            "\\n",
            "\\r",
            "\\t",
            "\\u0041",
            "\\u00e9",
            "\\u001F",
            "\\ud83d\\ude00",
            "\\uD834\\uDD1E",
            "\\uDBFF\\uDFFF",
            "\\ud83d",
            "\\ude00",
            "\\ud83d\\u0041",
            "\\ud83d\\uZZZZ",
            "\\ud83d\\u12",
            "\\ud83d\\u00\u{e9}",
            "\\u12",
            "\\uZZ12",
            "\\u+041",
            "\\u00\u{e9}",
            "\\x",
            "\\\u{e9}",
            "\\",
        ];
        const ENDINGS: &[&str] = &["\"", "\"", "", "\\", "\" trailing", "\\u"];
        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        for _ in 0..5000 {
            let mut input = String::from("\"");
            for _ in 0..rng.below(6) {
                input.push_str(rng.pick(FRAGMENTS));
            }
            input.push_str(rng.pick(ENDINGS));
            let (mut fast_pos, mut reference_pos) = (0, 0);
            let fast = parse_string(&input, &mut fast_pos);
            let reference = reference_parse_string(input.as_bytes(), &mut reference_pos);
            assert_eq!(fast, reference, "decoder diverges on {input:?}");
            if fast.is_ok() {
                assert_eq!(fast_pos, reference_pos, "end offset on {input:?}");
            }
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(Json::parse(&objects).unwrap_err().offset, 5 * MAX_DEPTH);
        // Far below the frame cap, far above any stack's worth of frames.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn roundtrip_basic() {
        let v = Json::obj(vec![
            ("s", Json::from("hi\n\"there\"")),
            ("n", Json::from(42u64)),
            ("f", Json::from(1.5)),
            ("b", Json::from(true)),
            ("z", Json::Null),
            ("a", Json::Arr(vec![Json::from(1u64), Json::from("x")])),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parse_whitespace_and_nesting() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""\u0041\t\\\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "A\t\\é😀");
    }

    #[test]
    fn integers_exact() {
        let v = Json::parse("9007199254740991").unwrap();
        assert_eq!(v.to_string(), "9007199254740991");
        assert_eq!(v.as_u64(), Some(9007199254740991));
    }

    #[test]
    fn errors() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn control_chars_escaped_on_write() {
        let s = Json::Str("\u{1}".to_string()).to_string();
        assert_eq!(s, "\"\\u0001\"");
        assert_eq!(Json::parse(&s).unwrap().as_str().unwrap(), "\u{1}");
    }
}
