//! `lightrw::json` — the one place in the workspace that knows JSON text.
//!
//! The read half is a recursive-descent reader over RFC 8259 — objects,
//! arrays, numbers, strings with the full escape set, booleans and null —
//! into a small [`Value`] tree, with line-numbered errors. It reads
//! request bodies off the network ([`crate::jobspec::parse_job`] behind
//! `POST /jobs`, DESIGN.md §13), so it is total: any input is an `Ok` or
//! an `Err`, and nesting is capped at [`MAX_DEPTH`] so the recursion
//! depth is a constant, not something a peer chooses.
//!
//! The write half is [`escape`] and nothing else. Everything the system
//! emits has a fixed shape and is written with `format!` where it is
//! produced (the `path` line writer is the serving hot path, and `/stats`
//! and the `done` line are byte-pinned); the one thing those sites cannot
//! get right by construction is a string they interpolate, and that goes
//! through [`escape`]. [`parse`] reads everything [`escape`] writes:
//! `parse(&format!("\"{}\"", escape(s)))` is `s` for every `&str`.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`parse`] accepts. A trace is
/// four levels deep (document, `jobs` array, job, `program` object).
pub const MAX_DEPTH: usize = 32;

/// A JSON value (objects keep insertion order and duplicate keys).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first field named `key`, when this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The text, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Checked integer extraction: the value as an integer in `0..=max`.
    /// Negatives, fractions and out-of-range values are errors — worded
    /// to follow the field's name — never silent truncations. Numbers
    /// travel through `f64`, so a `max` above 2^53 admits values that
    /// were rounded on the way in.
    pub fn as_uint(&self, max: u64) -> Result<u64, String> {
        let Value::Number(n) = *self else {
            return Err("must be a number".into());
        };
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= max as f64 {
            Ok(n as u64)
        } else {
            Err(format!("must be an integer in 0..={max} (got {n})"))
        }
    }
}

/// Parse one JSON document. `what` names it in the error for trailing
/// content (`"the job object"`); every error carries its line number.
pub fn parse(text: &str, what: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let root = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err(&format!("trailing content after {what}")));
    }
    Ok(root)
}

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The JSON body of every error response the front door writes.
pub fn error_body(msg: &str) -> String {
    format!("{{\"error\": \"{}\"}}\n", escape(msg))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        format!("trace line {line}: {msg}")
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Read an array or object one level down, refusing the level past
    /// [`MAX_DEPTH`]: `value` recurses through here and nowhere else, so
    /// the cap bounds the stack whatever the input.
    fn nested(&mut self, read: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = read(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Number)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        // Accumulate raw bytes: unescaped spans are copied verbatim (the
        // input is a &str, so they are valid UTF-8 already) and escapes
        // only ever insert whole encoded characters, so the final
        // from_utf8 cannot fail.
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(String::from_utf8(out).expect("copied valid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek().ok_or_else(|| self.err("bad escape"))? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("unsupported string escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    self.pos += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    /// The character a `\u` escape stands for: a code point of the basic
    /// plane, or a high surrogate followed by a `\u`-escaped low one
    /// (RFC 8259 §7). Entered with `pos` on the `u`, left with it on the
    /// escape's last digit.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        // A surrogate that found no partner is still one here.
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate in \\u escape"))
    }

    /// The four hex digits after `pos`, which moves onto the last.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.bytes.get(self.pos + 1..self.pos + 5);
        let code = digits
            .and_then(|d| {
                d.iter()
                    .try_fold(0, |code, &b| Some(code * 16 + (b as char).to_digit(16)?))
            })
            .ok_or_else(|| self.err("\\u escape needs four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(text: &str) -> Result<Value, String> {
        parse(text, "the document")
    }

    #[test]
    fn reads_values_and_reports_errors_by_line() {
        let doc =
            read("{\"a\": [1, -2.5e1, true, null], \"b\": {\"c\": \"d\"}, \"a\": 0}").unwrap();
        let a = [1.0, -25.0].map(Value::Number).into_iter();
        let a = Value::Array(a.chain([Value::Bool(true), Value::Null]).collect());
        assert_eq!(doc.get("a"), Some(&a), "the first of two fields wins");
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        assert_eq!((doc.get("c"), a.get("a"), a.as_str()), (None, None, None));
        for (bad, needle) in [
            ("[1,\n 2\n 3]", "trace line 3: expected ',' or ']' in array"),
            ("{\"a\" 1}", "trace line 1: expected ':'"),
            (
                "[1] [2]",
                "trace line 1: trailing content after the document",
            ),
            ("tru", "expected true"),
            ("1.2.3", "malformed number"),
            ("\"abc", "unterminated string"),
            ("\"\\x41\"", "unsupported string escape"),
        ] {
            let err = read(bad).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn json_escape_covers_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\t\r"), "x\\ny\\t\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(error_body("no \"x\""), "{\"error\": \"no \\\"x\\\"\"}\n");
    }

    #[test]
    fn reads_the_full_escape_set() {
        // Each escape decodes to the character RFC 8259 §7 assigns it;
        // `escape` writes no surrogate pair, so the proptest reads none.
        let s = read(r#""\" \\ \/ \b \f \n \r \t \u0041 \u20AC \ud83d\ude00 \uD834\uDD1E""#);
        let want = "\" \\ / \u{8} \u{c} \n \r \t A \u{20ac} \u{1f600} \u{1d11e}";
        assert_eq!(s.unwrap().as_str(), Some(want));
        for (bad, needle) in [
            (r#""\u12g4""#, "four hex digits"),
            (r#""\u+123""#, "four hex digits"),
            (r#""\u12"#, "four hex digits"),
            (r#""\ud83d""#, "unpaired surrogate"),
            (r#""\ud83d\u0041""#, "unpaired surrogate"),
            (r#""\ude00""#, "unpaired surrogate"),
            (r#""\ud83d\u12""#, "four hex digits"),
        ] {
            let err = read(bad).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn the_nesting_cap_is_exact_and_bounds_the_stack() {
        // Runs on a test thread's default 2 MiB stack: the depth a
        // document reaches is the constant's, whatever its length.
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let nest = |depth| format!("{}1{}", open.repeat(depth), close.repeat(depth));
            read(&nest(MAX_DEPTH)).unwrap();
            let err = read(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err, "trace line 1: nesting deeper than 32 levels");
            // The bodies that took the server down: as large as
            // `MAX_BODY` lets them be, never closed.
            let body = open.repeat(crate::http::wire::MAX_BODY / open.len());
            assert!(read(&body).unwrap_err().contains("nesting deeper"));
        }
        // Depth is what is open, not what has been seen.
        read(&format!("[{}[]]", "[[]],".repeat(10 * MAX_DEPTH))).unwrap();
    }

    /// A character of each class the escaper and the reader tell apart:
    /// controls, ASCII (quote and backslash included), the basic plane
    /// and the planes beyond it.
    fn any_char((class, code): (u8, u32)) -> char {
        let span = [0x20, 0x80, 0x1_0000, 0x11_0000][class as usize];
        char::from_u32(code % span).unwrap_or('\u{fffd}')
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
            let _ = read(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn mangled_traces_never_panic(cut in 0usize..176, flip in 0usize..176, val in 0u8..=255) {
            // Start from a valid trace and damage it: truncate at `cut`,
            // then overwrite the byte at `flip`.
            let mut bytes = b"{\"threads\": 2, \"graph\": \"g\\u00e9\\n.bin\", \"jobs\": [\n  \
                {\"tenant\": 0, \"queries\": 4, \"length\": 5, \"deadline\": 1.5e0},\n  \
                {\"tenant\": 1, \"queries\": 2, \"program\": {\"kind\": \"ppr\"}}]}"
                .to_vec();
            proptest::prop_assert!(read(std::str::from_utf8(&bytes).unwrap()).is_ok());
            bytes.truncate(cut.min(bytes.len()));
            if flip < bytes.len() {
                bytes[flip] = val;
            }
            let _ = crate::jobspec::parse_trace(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn everything_escape_writes_reads_back(
            chars in proptest::collection::vec((0u8..4, 0u32..=0x10_FFFF), 0..48),
        ) {
            let s: String = chars.into_iter().map(any_char).collect();
            let read_back = read(&format!("\"{}\"", escape(&s)));
            proptest::prop_assert_eq!(read_back, Ok(Value::String(s)));
        }
    }
}
