//! A minimal JSON value model: hand-rolled writer and recursive-descent
//! parser, in the same no-dependency spirit as the table file format.
//!
//! Only what the run reports need: objects keep insertion order, numbers
//! are `f64` written with Rust's shortest-round-trip formatting, strings
//! escape the JSON control set. The parser accepts any standard JSON
//! document (it is not limited to report files), with nesting capped at
//! [`MAX_DEPTH`] so hostile input cannot overflow the stack.
//!
//! Non-finite `f64` values have no JSON number syntax; the writer emits
//! them as the strings `"NaN"`, `"Infinity"`, `"-Infinity"` (the Chrome
//! trace viewer and the `check_report` gate both load these), and
//! [`Json::as_f64`] maps those strings back, so numeric round-trips
//! survive non-finite values instead of degrading to `null`.

/// Maximum nesting depth the parser accepts before erroring out.
pub const MAX_DEPTH: usize = 512;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number — or one of the writer's
    /// non-finite sentinel strings (`"NaN"`, `"Infinity"`, `"-Infinity"`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation (stable, diff-friendly).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description (with byte offset) of the first
    /// syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// `f64` → JSON number. `{:?}` is Rust's shortest round-trip formatting;
/// non-finite values (not valid JSON numbers) become sentinel strings
/// that [`Json::as_f64`] maps back.
fn write_num(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"Infinity\"");
    } else {
        out.push_str("\"-Infinity\"");
    }
}

fn write_str(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = &bytes[*pos..];
                let s = unsafe { std::str::from_utf8_unchecked(rest) };
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_compound_values() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("exp \"quoted\"\n".into())),
            ("n".into(), Json::Num(42.0)),
            ("err".into(), Json::Num(3.25e-3)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "xs".into(),
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Num(-2.5),
                    Json::Str("µm".into()),
                ]),
            ),
        ]);
        for text in [doc.to_json(), doc.to_json_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "from {text}");
        }
    }

    #[test]
    fn parses_standard_documents() {
        let v = Json::parse(r#" { "a" : [ 1 , 2.5e2 , null ] , "b" : { } } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(250.0)
        );
        assert_eq!(v.get("b").unwrap().as_object().unwrap().len(), 0);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for v in [0.0, -1.5, 1e-300, 6.02e23, 0.1, f64::MAX, 123456789.123456] {
            let text = Json::Num(v).to_json();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(v), "{text}");
        }
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "tru", "[1] junk", ""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_finite_numbers_round_trip_as_strings() {
        assert_eq!(Json::Num(f64::NAN).to_json(), "\"NaN\"");
        assert_eq!(Json::Num(f64::INFINITY).to_json(), "\"Infinity\"");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_json(), "\"-Infinity\"");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let parsed = Json::parse(&Json::Num(v).to_json()).unwrap();
            let back = parsed.as_f64().expect("sentinel maps back to f64");
            assert!(back.is_nan() == v.is_nan() && (v.is_nan() || back == v));
        }
        // Ordinary strings do not accidentally become numbers.
        assert_eq!(Json::Str("nan".into()).as_f64(), None);
        assert_eq!(Json::Str("Inf".into()).as_f64(), None);
    }

    #[test]
    fn deep_nesting_parses_up_to_the_cap() {
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&deep).is_ok(), "100 levels are fine");
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 2),
            "]".repeat(MAX_DEPTH + 2)
        );
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.contains("nesting"), "got: {err}");
        // Objects hit the same cap.
        let obj_deep = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 2),
            "}".repeat(MAX_DEPTH + 2)
        );
        assert!(Json::parse(&obj_deep).is_err());
    }

    #[test]
    fn escaped_strings_round_trip() {
        let original = "quote\" back\\slash /slash\nnewline\ttab\r\u{8}\u{c}\u{1} µ—✓";
        let text = Json::Str(original.into()).to_json();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(original));
        // Explicit escape forms parse to the right scalars.
        assert_eq!(Json::parse(r#""Aµ\t\/""#).unwrap().as_str(), Some("Aµ\t/"));
        // A lone surrogate cannot be a char; it degrades to U+FFFD.
        assert_eq!(
            Json::parse(r#""\ud800""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
    }

    #[test]
    fn scientific_notation_shortest_repr_round_trips() {
        // Deterministic pseudo-random sweep across magnitudes: the writer's
        // shortest-repr output must re-parse to the identical bits.
        use crate::rng::UniformRng;
        let mut rng = crate::rng::SplitMix64::new(0x0b5ec4b1e5);
        for _ in 0..200 {
            let mag = (rng.next_f64() - 0.5) * 600.0; // exponents in ±300
            let v = (rng.next_f64() - 0.5) * 10f64.powf(mag.clamp(-300.0, 300.0));
            let text = Json::Num(v).to_json();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {text}");
        }
        for text in ["2.5e2", "2.5E2", "25e-1", "1e0"] {
            let v = Json::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(
                Json::parse(&Json::Num(v).to_json()).unwrap().as_f64(),
                Some(v)
            );
        }
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        for bad in [
            "",
            "{",
            "{\"a\"",
            "{\"a\":",
            "{\"a\":1",
            "{\"a\":1,",
            "[",
            "[1",
            "[1,",
            "\"abc",
            "\"abc\\",
            "\"abc\\u00",
            "tr",
            "nul",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
