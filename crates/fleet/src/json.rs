//! A minimal JSON value — parser and serializer — for the fleet's
//! manifest and telemetry artifacts.
//!
//! The workspace builds offline (no serde), so the subset the fleet needs
//! is implemented here: finite numbers, strings, bools, null, arrays, and
//! objects with **insertion-ordered** keys. Key order is preserved on
//! both ends so that artifacts render byte-identically run after run.
//!
//! Numbers round-trip exactly: integers up to 2^53 are rendered without a
//! fraction, and everything else uses Rust's shortest-round-trip float
//! formatting, which `str::parse::<f64>` inverts losslessly.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for `u64` up to 2^53).
    pub fn from_u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// An integer value for `usize` counts.
    pub fn from_usize(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => render_number(*n, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text` (whole-input; trailing garbage is
    /// an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

/// Largest integer exactly representable in an `f64`.
const MAX_EXACT_INT: f64 = 9.007_199_254_740_992e15;

fn render_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // The fleet never produces these; stay valid JSON regardless.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT {
        out.push_str(&format!("{}", n as i64));
    } else {
        // Rust's shortest round-trip formatting: parses back bit-exact.
        out.push_str(&format!("{n}"));
    }
}

fn render_string(s: &str, out: &mut String) {
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
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", want as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(other) => Err(format!("unexpected `{}` at byte {}", *other as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected `{literal}` at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("bad number `{text}` at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number `{text}` at byte {start}"));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                        let unit = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let c = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: a `\uXXXX` low half must follow.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("lone high surrogate".to_string());
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            *pos += 6;
                            let combined =
                                0x10000 + ((unit - 0xD800) << 10) + (low.wrapping_sub(0xDC00));
                            char::from_u32(combined).ok_or("bad surrogate pair")?
                        } else {
                            char::from_u32(unit).ok_or("bad \\u escape")?
                        };
                        out.push(c);
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next `"` or `\` as one
                // slice. Both delimiters are ASCII, so the run of a &str
                // input is valid UTF-8 and validating it is linear.
                let run = bytes[*pos..]
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .unwrap_or(bytes.len() - *pos);
                let text =
                    std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|e| e.to_string())?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let chunk = bytes
        .get(at..at + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
    let text = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
    u32::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape `{text}`"))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'{')?;
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
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "1.5", "\"hi\""] {
            let value = Json::parse(text).unwrap();
            assert_eq!(value.render(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 123456.789012345, f64::MAX] {
            let rendered = Json::Num(x).render();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {rendered}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from_u64(48).render(), "48");
        assert_eq!(Json::from_usize(0).render(), "0");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::parse("42").unwrap().as_usize(), Some(42));
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn nested_structures_round_trip() {
        let text =
            r#"{"key":"fig5/canteen/h12","n":3,"ok":true,"xs":[1,2.5,"s"],"sub":{"a":null}}"#;
        let value = Json::parse(text).unwrap();
        assert_eq!(value.render(), text);
        assert_eq!(
            value.get("key").and_then(Json::as_str),
            Some("fig5/canteen/h12")
        );
        assert_eq!(value.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            value.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line\nbreak \"quoted\" back\\slash tab\t漢字 \u{1}";
        let rendered = Json::str(original).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(original));
        // Escapes parse too, including surrogate pairs.
        let escaped = "\"\\u0041\\u00e9\\ud83d\\ude00\"";
        assert_eq!(Json::parse(escaped).unwrap().as_str(), Some("Aé😀"));
        assert_eq!(Json::parse(r#""Aé😀""#).unwrap().as_str(), Some("Aé😀"));
    }

    #[test]
    fn megabyte_document_round_trips() {
        // Multibyte text between escapes in every string: unescaped runs
        // are copied whole, so parsing stays linear in the input size.
        let row = |i: usize| Json::str(format!("漢字{i} \"q\" \\ \t😀é\n{}", "x".repeat(i % 7)));
        let doc = Json::Arr(
            (0..40_000)
                .map(|i| Json::Arr(vec![row(i), Json::from_usize(i)]))
                .collect(),
        );
        let text = doc.render();
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn whitespace_tolerated_garbage_rejected() {
        assert!(Json::parse("  { \"a\" : [ 1 , 2 ] }\n").is_ok());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("{\"a\"").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1e999").is_err(), "non-finite rejected");
        assert!(Json::parse("\"\\ud800 lone\"").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
