//! Minimal dependency-free JSON support: escaping helpers for the emitters in
//! this crate and a small recursive-descent parser used to validate that the
//! documents we emit (metrics snapshots, query traces) are well-formed and
//! round-trip structurally.

use std::collections::BTreeMap;

/// Escape a string for embedding inside a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Format a float as a JSON number; non-finite values map to `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value. Numbers are kept as `f64` (integers are exact up to
/// 2^53, far beyond anything the test suites emit); object keys are stored in
/// a [`BTreeMap`], so structural comparison ignores key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order not preserved).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a JSON document. Returns `None` on any syntax error, trailing
    /// garbage or arrays and objects nested more than 128 deep — this is a validator for
    /// our own emitters, not a general lenient reader.
    pub fn parse(s: &str) -> Option<Json> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Look up a key in an object; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// How many arrays and objects [`Json::parse`] nests before it gives up: the
/// parser recurses once per level, so an unbounded depth would let a document
/// overflow the stack. Every document this workspace writes nests a few deep.
const MAX_DEPTH: usize = 128;

/// Parse one value that sits inside `depth` arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'{' => parse_obj(b, pos, depth + 1),
        b'[' => parse_arr(b, pos, depth + 1),
        b'"' => parse_str(b, pos).map(Json::Str),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        _ => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Option<Json> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).ok()?;
    let text = Some(text).filter(|t| is_json_number(t))?;
    text.parse().ok().map(Json::Num)
}

/// Whether `s` is a number as JSON spells it, which `f64::parse` alone is not
/// (it takes `+1`, `01`, `1.` and `.5`):
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn is_json_number(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s);
    let (mantissa, exp) = s.split_once(['e', 'E']).unwrap_or((s, "0"));
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
    let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
    let digits = |d: &str| !d.is_empty() && d.bytes().all(|c| c.is_ascii_digit());
    digits(int) && (int == "0" || !int.starts_with('0')) && digits(frac) && digits(exp)
}

fn parse_str(b: &[u8], pos: &mut usize) -> Option<String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        // exactly four hex digits (`from_str_radix` alone
                        // would take a sign)
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return None;
                        }
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // copy the run up to the next `"` or `\` as one slice: both
                // stop bytes are ASCII, so on the `&str` input every cut is a
                // char boundary and each byte is validated once
                let start = *pos;
                while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).ok()?);
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if *b.get(*pos)? == b']' {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Option<Json> {
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if *b.get(*pos)? == b'}' {
        *pos += 1;
        return Some(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if *b.get(*pos)? != b'"' {
            return None;
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if *b.get(*pos)? != b':' {
            return None;
        }
        *pos += 1;
        map.insert(key, parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(map));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5e1}}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::Bool(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-25.0));
    }

    #[test]
    fn rejects_trailing_garbage_and_syntax_errors() {
        assert!(Json::parse("{} extra").is_none());
        assert!(Json::parse("{\"a\": }").is_none());
        assert!(Json::parse("[1, 2").is_none());
        assert!(Json::parse("nope").is_none());
        // numbers follow the JSON grammar, and `\u` takes exactly four hex digits
        for bad in [
            "+1", "01", "-01", "1.", ".5", "-", "1e", "1e+", "--1", "1.e3", "0x1",
        ] {
            assert!(Json::parse(bad).is_none(), "{bad}");
        }
        for bad in [r#""\u+041""#, r#""\u041""#, r#""\u 041""#, r#""\u-041""#] {
            assert!(Json::parse(bad).is_none(), "{bad}");
        }
        for (good, v) in [
            ("0", 0.0),
            ("-0.5", -0.5),
            ("10", 10.0),
            ("1E+2", 100.0),
            ("2e-1", 0.2),
        ] {
            assert_eq!(
                Json::parse(good).and_then(|j| j.as_f64()),
                Some(v),
                "{good}"
            );
        }
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn nesting_past_the_cap_is_refused_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_some());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_none());
        assert!(Json::parse(&"[".repeat(100_000)).is_none());
        assert!(Json::parse(&nested(100_000)).is_none());
        let objects = format!("{}1{}", r#"{"k":"#.repeat(100_000), "}".repeat(100_000));
        assert!(Json::parse(&objects).is_none());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        // a long mixed ASCII / two-, three- and four-byte UTF-8 string too
        let long = "ascii é € 🦀 \"q\" \\ ".repeat(4_000);
        for raw in ["quote\" slash\\ tab\t nl\n unicode\u{1}", long.as_str()] {
            let doc = format!("{{\"k\": \"{}\"}}", escape(raw));
            let v = Json::parse(&doc).expect("parses");
            assert_eq!(v.get("k").unwrap().as_str(), Some(raw));
        }
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(2.5), "2.5");
    }
}
