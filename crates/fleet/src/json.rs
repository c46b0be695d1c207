//! Hand-rolled JSON: an explicit writer and a minimal recursive-descent
//! parser.
//!
//! Same policy as `bb-init::preparse`: the on-disk format of a sweep is
//! an auditable artifact, so the codec is written out longhand instead
//! of pulled in via serde (DESIGN.md §4 keeps serde out of the
//! dependency tree on purpose). The writer is deterministic — object
//! keys are emitted in a fixed order by the caller and floats use fixed
//! `{:.3}` formatting — which is what makes sweep output byte-stable
//! across worker counts and comparable against saved baselines.

use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Schemas
// ---------------------------------------------------------------------

/// Schema stamp of the sweep report ([`crate::SweepReport::to_json`]).
pub const SCHEMA_FLEET: &str = "bb-fleet-v1";
/// Schema stamp of the chaos report ([`crate::ChaosReport::to_json`]).
pub const SCHEMA_CHAOS: &str = "bb-fleet-chaos-v2";
/// Schema stamp of the sweep metrics document
/// ([`crate::MetricsReport::to_json`]).
pub const SCHEMA_METRICS: &str = "bb-metrics-v1";
/// Schema stamp of `bbsim boot --profile --json` output.
pub const SCHEMA_PROFILE: &str = "bb-profile-v1";
/// Schema stamp of `bbsim boot --json` output.
pub const SCHEMA_BOOT: &str = "bbsim-boot-v1";
/// Schema stamp of the snapshot-derived `bbsim suspend --json`
/// document.
pub const SCHEMA_SNAPSHOT: &str = "bb-snapshot-v1";
/// Schema stamp of the scheduler hot-path perf baseline
/// (`BENCH_hotpath.json`, written by `cargo bench --bench hotpath`).
pub const SCHEMA_HOTPATH: &str = "bb-hotpath-v1";
/// Schema stamp of the sweep-throughput perf baseline
/// (`BENCH_sweep.json`, written by `cargo bench --bench sweep`).
pub const SCHEMA_SWEEP: &str = "bb-sweep-v1";
/// Schema stamp of every `bbsim serve` wire envelope (requests are
/// plain NDJSON; every response carries this stamp first).
pub const SCHEMA_SERVE: &str = "bb-serve-v1";
/// Schema stamp of the service observability document
/// ([`crate::ServiceStats::to_json`]).
pub const SCHEMA_SERVE_STATS: &str = "bb-serve-stats-v1";

/// Opens a top-level JSON document with its version stamp. Every
/// emitter in the workspace goes through this helper, so the `"schema"`
/// field is always present, always first, and always spelled the same
/// way.
pub fn open_document(schema: &str) -> String {
    format!("{{\n  \"schema\": \"{}\",\n", escape(schema))
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Escapes `s` as the *contents* of a JSON string (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Appends `items` as a JSON array in the layout every report document
/// uses: each item on its own line at `indent` spaces, comma-separated,
/// and the closing bracket on its own line two spaces shallower (`[]`
/// when empty). `write` renders one item.
pub fn array<T>(
    out: &mut String,
    indent: usize,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    let mut empty = true;
    for item in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent));
        write(out, item);
    }
    if !empty {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent - 2));
    }
    out.push(']');
}

/// Formats a nanosecond quantity as milliseconds with fixed `{:.3}`
/// precision — the one float format the sweep codec uses, so output is
/// reproducible byte for byte.
pub fn ms(ns: f64) -> String {
    format!("{:.3}", ns / 1e6)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// A parsed JSON value. Objects keep insertion order (no hashing), so
/// round-tripping is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64; the sweep codec never exceeds 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What was expected or found.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace emits (the chaos report) nests 9 levels; the bound
/// keeps a hostile `[[[[…` line from overflowing the parsing thread's
/// stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error, and
/// so is nesting deeper than 128 arrays/objects.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(pos: usize, msg: &str) -> JsonError {
    JsonError {
        pos,
        msg: msg.to_owned(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected {:?}", b as char)))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(
            *pos,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected {lit}")))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad utf-8"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, "invalid number"))
}

/// Decodes the string at `pos`. Each run of plain characters up to the
/// next quote or backslash is copied in one step, so decoding is linear
/// in the string's length.
fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        // A run starts after a quote or an escape and stops before a
        // quote, a backslash or the end of the `&str` that `bytes` came
        // from, so this check never fails on input from `parse`.
        let plain = std::str::from_utf8(&bytes[*pos..*pos + run])
            .map_err(|e| err(*pos + e.valid_up_to(), "bad utf-8"))?;
        out.push_str(plain);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
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
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| err(*pos, "bad \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_document_stamps_the_schema_first() {
        let doc = format!("{}  \"x\": 1\n}}\n", open_document(SCHEMA_FLEET));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("bb-fleet-v1"));
        let Json::Obj(fields) = &v else { panic!() };
        assert_eq!(fields[0].0, "schema", "schema must be the first key");
    }

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn ms_formatting_is_fixed_precision() {
        assert_eq!(ms(8_614_474_000.0), "8614.474");
        assert_eq!(ms(0.0), "0.000");
        assert_eq!(ms(1_500.0), "0.002"); // rounds
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn roundtrips_escaped_strings() {
        let original = "quote\" slash\\ newline\n tab\t";
        let doc = format!("{{\"k\": \"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(original));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
        let e = parse("[1, nope]").unwrap_err();
        assert!(e.pos > 0);
    }

    #[test]
    fn nesting_is_bounded() {
        for (open, close) in [("[", "]"), ("{\"k\": ", "}")] {
            let nested = |depth: usize| format!("{}0{}", open.repeat(depth), close.repeat(depth));
            assert!(parse(&nested(MAX_DEPTH)).is_ok(), "{open} at the bound");
            let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(e.msg, "nesting deeper than 128 levels");
            assert_eq!(
                e.pos,
                MAX_DEPTH * open.len(),
                "the first opener past the bound"
            );
        }
        // A hostile line far past the bound errors instead of
        // overflowing the stack.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // A decoder that re-validated the rest of the input before each
        // plain character took 11 s on this string, in release, on a
        // 2-vCPU x86-64 VM.
        let body = "0123456789abcdefghijk\u{e9}\u{20ac}\u{1f600}\\n".repeat(256 * 1024 / 32);
        assert_eq!(body.len(), 256 * 1024);
        let doc = format!("\"{body}\"");
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(v.as_str().map(str::len), Some(body.len() - 256 * 1024 / 32));
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "a 256 KiB string took {elapsed:?}"
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse("\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}"));
        // Raw multi-byte characters pass through too.
        assert_eq!(parse("\"\u{e9}\"").unwrap().as_str(), Some("\u{e9}"));
    }
}
