//! The workspace's one JSON reader: a typed [`Json`] value, its parser,
//! the string [`escape`] every emitter shares, and a compact `Display`.
//!
//! Every request line, spec document, peer reply and schema check goes
//! through [`Json::parse`], so the grammar is decided in one place: RFC
//! 8259 values, no leading zeros, surrogate pairs decoded, duplicate
//! object keys rejected, and nesting bounded by [`MAX_DEPTH`].
//!
//! A value borrows from the text it was parsed from: numbers are their
//! source tokens and strings without escapes are slices, so parsing
//! allocates little beyond the arrays and objects. Re-emitting a parsed
//! document with `Display` reproduces the emitters' output byte for byte
//! — which is what lets a server echo a request `id` verbatim and a
//! client compare a reply's `result` with a direct emitter call — and
//! [`Json::as_u64`] / [`Json::as_f64`] convert on demand.
//!
//! The module lives in `osarch-cpu` because the spec codec
//! ([`crate::ArchSpec::from_json`]) is an inherent method here and this
//! crate cannot depend on `osarch-core`; every crate that reads JSON
//! already depends on this one.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Deepest nesting [`Json::parse`] accepts, counting the outermost
/// value as level 1. The deepest documents the workspace writes nest 7
/// levels (`bench-json`, and a `metrics` reply: envelope → `result` →
/// `ops` → row → `latency_us` → `buckets` → `[index, count]`); the bound
/// leaves twice that, which keeps recursion shallow on any thread's
/// stack while a bracket bomb far under the request-size cap is refused
/// after a few bytes.
pub const MAX_DEPTH: usize = 16;

/// One parsed JSON value, borrowing from the parsed text.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number: its source token.
    Number(&'a str),
    /// A string, escapes decoded.
    String(Cow<'a, str>),
    /// An array.
    Array(Vec<Json<'a>>),
    /// An object's members in document order; keys are unique.
    Object(Vec<(Cow<'a, str>, Json<'a>)>),
}

/// Why [`Json::parse`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Not JSON: the byte offset of the first offending byte.
    Syntax(usize),
    /// Nested deeper than [`MAX_DEPTH`]: the offset of the opening
    /// bracket that crossed the bound.
    TooDeep(usize),
    /// An object repeats a key.
    DuplicateKey(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax(at) => write!(f, "invalid JSON at byte {at}"),
            Error::TooDeep(at) => {
                write!(f, "JSON nested deeper than {MAX_DEPTH} levels at byte {at}")
            }
            Error::DuplicateKey(key) => write!(f, "duplicate field {key:?}"),
        }
    }
}

impl std::error::Error for Error {}

impl<'a> Json<'a> {
    /// Parse `text` as exactly one JSON value, surrounded only by
    /// whitespace.
    ///
    /// # Errors
    ///
    /// Returns where the text stops being JSON, where it nests deeper
    /// than [`MAX_DEPTH`], or which object key it repeats.
    pub fn parse(text: &'a str) -> Result<Json<'a>, Error> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(1)?;
        parser.skip_ws();
        if parser.pos == parser.bytes.len() {
            Ok(value)
        } else {
            Err(Error::Syntax(parser.pos))
        }
    }

    /// The member `key` of an object (`None` for any other value).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a dotted path of object keys (`"totals.requests"`).
    #[must_use]
    pub fn at(&self, path: &str) -> Option<&Json<'a>> {
        path.split('.').try_fold(self, Json::get)
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is written as one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64` (infinite when the token overflows).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The JSON type name, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

/// Compact JSON: no whitespace, strings through [`escape`], numbers as
/// their source tokens.
impl fmt::Display for Json<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(token) => f.write_str(token),
            Json::String(s) => write_string(f, s),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Object(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Escape a string for a JSON string literal (quotes not included):
/// `"`, `\` and every C0 control; everything else passes through.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(&mut out, s).expect("writing to a String cannot fail");
    out
}

fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(out, s)?;
    out.write_char('"')
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Objects up to this size are checked for repeated keys pairwise;
/// larger ones by sorting, so a hostile line of thousands of keys costs
/// `n log n`, not `n²`.
const PAIRWISE_KEYS: usize = 16;

fn duplicate_key<'m>(members: &'m [(Cow<'_, str>, Json<'_>)]) -> Option<&'m str> {
    if members.len() <= PAIRWISE_KEYS {
        return members
            .iter()
            .enumerate()
            .find(|(i, (key, _))| members[..*i].iter().any(|(k, _)| k == key))
            .map(|(_, (key, _))| key.as_ref());
    }
    let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_ref()).collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), Error> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::Syntax(self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json<'a>, Error> {
        match self.bytes.get(self.pos) {
            Some(b'{' | b'[') if depth > MAX_DEPTH => Err(Error::TooDeep(self.pos)),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::Syntax(self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::Syntax(self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, Error> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(Error::Syntax(self.pos)),
            }
        }
        if let Some(key) = duplicate_key(&members) {
            return Err(Error::DuplicateKey(key.to_string()));
        }
        Ok(Json::Object(members))
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(Error::Syntax(self.pos)),
            }
        }
    }

    /// Read a string literal: a slice of the text when it holds no
    /// escape, decoded into an owned string otherwise.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"')?;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                        None => Cow::Borrowed(tail),
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(Error::Syntax(self.pos)),
                    });
                    self.pos += 1;
                    run = self.pos;
                }
                Some(0x00..=0x1f) | None => return Err(Error::Syntax(self.pos)),
                // Only ASCII bytes are matched above, so `run..pos`
                // always splits the text on character boundaries.
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decode `\uXXXX` (with `pos` on the `u`), joining a surrogate pair
    /// written as two escapes. Leaves `pos` on the last hex digit.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let high = self.hex4()?;
        let code = match high {
            0xd800..=0xdbff => {
                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                    return Err(Error::Syntax(self.pos + 1));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(Error::Syntax(self.pos - 3));
                }
                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
            }
            code => code,
        };
        char::from_u32(code).ok_or(Error::Syntax(self.pos - 3))
    }

    /// Read the four hex digits after the `u` at `pos`, leaving `pos` on
    /// the last of them.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or(Error::Syntax(self.pos + 1))?;
        let mut code = 0;
        for &d in digits {
            code = code * 16 + char::from(d).to_digit(16).expect("checked hex digit");
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json<'a>, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        match self.bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(Error::Syntax(self.pos)),
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            self.required_digits()?;
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.required_digits()?;
        }
        Ok(Json::Number(&self.text[start..self.pos]))
    }

    fn digits(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
    }

    fn required_digits(&mut self) -> Result<(), Error> {
        let begin = self.pos;
        self.digits();
        if self.pos > begin {
            Ok(())
        } else {
            Err(Error::Syntax(self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json<'_> {
        Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"))
    }

    #[test]
    fn compact_documents_round_trip_byte_for_byte() {
        for doc in [
            "null",
            "[]",
            "{}",
            "-0",
            "1.50",
            "-1.5e+3",
            "[1,[2,[3]],{\"a\":{\"b\":[true,false,null]}}]",
            "{\"s\":\"q\\\"b\\\\s\\n\\r\\t\\u0001 π\",\"n\":0.5e-1}",
        ] {
            assert_eq!(parse(doc).to_string(), doc);
        }
    }

    #[test]
    fn whitespace_is_dropped_on_display() {
        let value = parse(" { \"a\" : [ 1 , 2 ] ,\n\"b\":\t\"x\" } ");
        assert_eq!(value.to_string(), "{\"a\":[1,2],\"b\":\"x\"}");
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for good in ["0", "-0", "10", "0.5", "1e9", "1E+2", "-2.5e-3"] {
            assert_eq!(parse(good), Json::Number(good));
        }
        for bad in [
            "007", "-01", "25.", ".5", "-", "1e", "1e+", "+1", "0x10", "1.e3",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn numbers_convert_on_demand() {
        assert_eq!(parse("42").as_u64(), Some(42));
        assert_eq!(parse("4.2").as_u64(), None);
        assert_eq!(parse("-1").as_u64(), None);
        assert_eq!(parse("4.2").as_f64(), Some(4.2));
        assert_eq!(parse("1e400").as_f64(), Some(f64::INFINITY));
        assert_eq!(parse("\"1\"").as_u64(), None);
    }

    #[test]
    fn escapes_decode_including_surrogate_pairs() {
        assert_eq!(
            parse("\"\\u0041\\/\\b\\f\\ud83d\\ude00\""),
            Json::String("A/\u{8}\u{c}😀".into())
        );
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\u12\"",
            "\"\\x\"",
            "\"tab\there\"",
            "\"open",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected_at_every_size() {
        assert_eq!(
            Json::parse("{\"op\":\"ping\",\"op\":\"shutdown\"}"),
            Err(Error::DuplicateKey("op".to_string()))
        );
        let wide: Vec<String> = (0..40).map(|i| format!("\"k{i}\":{i}")).collect();
        let unique = format!("{{{}}}", wide.join(","));
        assert!(Json::parse(&unique).is_ok());
        let repeated = format!("{{{},\"k7\":0}}", wide.join(","));
        assert_eq!(
            Json::parse(&repeated),
            Err(Error::DuplicateKey("k7".to_string()))
        );
        // The same key in sibling objects is not a repeat.
        assert!(Json::parse("[{\"a\":1},{\"a\":2}]").is_ok());
    }

    #[test]
    fn nesting_is_bounded() {
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(Json::parse(&over), Err(Error::TooDeep(MAX_DEPTH)));
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(matches!(Json::parse(&objects), Err(Error::TooDeep(_))));
    }

    #[test]
    fn paths_read_nested_objects() {
        let doc = parse("{\"totals\":{\"requests\":3},\"window\":{\"requests\":9}}");
        assert_eq!(doc.at("totals.requests").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.at("totals.errors"), None);
        assert_eq!(doc.at("window.requests.x"), None);
        assert_eq!(doc.get("totals").map(Json::kind), Some("object"));
    }

    #[test]
    fn escape_covers_every_control_character() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).expect("C0 control");
            let escaped = escape(&c.to_string());
            assert!(escaped.starts_with('\\'), "U+{code:04X}");
            assert_eq!(
                parse(&format!("\"{escaped}\"")),
                Json::String(c.to_string().into())
            );
        }
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("π … ok"), "π … ok");
    }
}
