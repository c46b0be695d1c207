//! The wire decoders never panic: whatever a client sends over a
//! `bbsim serve` socket, [`parse_json`] and [`parse_request`] return
//! `Ok` or `Err`. The feeds:
//!
//! 1. arbitrary bytes, decoded lossily to UTF-8 (a socket line is read
//!    as text);
//! 2. token sequences drawn from JSON punctuation, quotes, backslashes,
//!    `\u` escapes, numbers, literals, and the request keys and values;
//! 3. request keys paired with those values ahead of a valid submit
//!    envelope, which reach the request and job-field decoders that
//!    random tokens almost never get past the JSON parser to;
//! 4. runs of `[` / `{"k": ` openers up to 100,000 deep, which must be
//!    refused past the nesting bound instead of overflowing the stack.
//!
//! String decoding is also held to an oracle: a quoted body of plain
//! characters, quotes, backslashes, raw control characters and every
//! kind of escape must decode to the same string, or fail with the same
//! message at the same byte, as [`reference_parse_str`], the
//! character-at-a-time decoder `parse_json` shipped with first. And
//! [`escape`] must round-trip any string through `parse_json`.

use proptest::prelude::*;

use booting_booster::fleet::json::escape;
use booting_booster::fleet::{parse_json, Json, JsonError};
use booting_booster::serve::parse_request;

/// Punctuation, whitespace, quotes, backslashes, and escapes (valid,
/// truncated, surrogate, non-hex, multi-byte).
#[rustfmt::skip]
const SYNTAX: &[&str] = &[
    "{", "}", "[", "]", ":", ",", " ", "\n", "\"", "\\", "\\\"", "\\n",
    "\\u", "\\u00", "\\u0041", "\\ud800", "\\uzzzz", "\u{e9}",
    "0", "7", "-", ".", "e", "+", "nul",
];

/// Values: numbers (negative, fractional, huge, overflowing),
/// literals, containers, and strings (methods, kinds, junk).
#[rustfmt::skip]
const VALUES: &[&str] = &[
    "0", "7", "-1", "-0", "2.5", "1e999", "4294967296", "1000000000000000",
    "true", "false", "null", "[]", "{}", "[1, \"x\"]",
    "\"submit\"", "\"poll\"", "\"wait\"", "\"cancel\"", "\"stats\"", "\"shutdown\"",
    "\"sweep\"", "\"chaos\"", "\"suspend\"", "\"all\"", "\"always\"", "\"banana\"", "\"\"",
];

/// Request envelope keys and job keys.
#[rustfmt::skip]
const KEYS: &[&str] = &[
    "id", "method", "ticket", "job", "kind", "profiles", "scenario", "features", "restart",
    "services", "cores", "seed", "seeds", "deadline_ms", "fork", "dedup", "metrics", "plans",
    "plan_seed", "corruption", "corruption_seed", "restart_sec_ms", "burst",
];

/// One fragment of the token feed.
fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..SYNTAX.len()).prop_map(|i| SYNTAX[i].to_string()),
        (0..VALUES.len()).prop_map(|i| VALUES[i].to_string()),
        (0..KEYS.len()).prop_map(|i| format!("\"{}\": ", KEYS[i])),
    ]
}

/// One `"key": value, ` object member.
fn member() -> impl Strategy<Value = String> {
    (0..KEYS.len(), 0..VALUES.len()).prop_map(|(k, v)| format!("\"{}\": {}, ", KEYS[k], VALUES[v]))
}

/// One line through both decoders; each must return, not panic.
fn decode(line: &str) {
    let _ = parse_json(line);
    let _ = parse_request(line);
}

/// String-body fragments that decode: plain characters of every UTF-8
/// width, raw control characters, and valid escapes.
#[rustfmt::skip]
const PLAIN: &[&str] = &[
    "a", "Z", " ", "0", "/", "~", "\u{7f}",
    "\u{e9}", "\u{3b1}", "\u{20ac}", "\u{4e2d}", "\u{1f600}", "\u{10ffff}",
    "\u{0}", "\u{1}", "\t", "\n", "\r", "\u{1f}",
    "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t",
    "\\u0041", "\\u00e9", "\\u20AC", "\\uFFFF", "\\u0000",
];

/// Fragments that end the string or break it: a raw quote, a raw
/// backslash (which escapes whatever follows), and escapes that are
/// truncated, non-hex, signed, split across a multi-byte character,
/// lone surrogates, or unknown.
#[rustfmt::skip]
const HOSTILE: &[&str] = &[
    "\"", "\\",
    "\\u", "\\u0", "\\u00", "\\u004",
    "\\uzzzz", "\\u00g0", "\\u+041", "\\u-041", "\\u00\u{e9}",
    "\\ud800", "\\udfff", "\\ud83d\\ude00",
    "\\x", "\\'", "\\0", "\\ ", "\\\u{e9}",
];

/// Any scalar value, each UTF-8 width (control characters included)
/// about equally likely; a surrogate draw becomes U+FFFD.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x80,
        0x80u32..0x800,
        0x800u32..0x1_0000,
        0x1_0000u32..0x11_0000
    ]
    .prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
}

/// A run of plain fragments and arbitrary characters.
fn plain_run(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            (0..PLAIN.len()).prop_map(|i| PLAIN[i].to_string()),
            any_char().prop_map(String::from),
        ],
        len,
    )
    .prop_map(|parts| parts.concat())
}

/// A string body: a plain run, then (three times in four) one hostile
/// fragment and a shorter plain run, so decoding fails at every kind of
/// place as well as succeeding on long bodies.
fn body() -> impl Strategy<Value = String> {
    (
        plain_run(0..32),
        prop::option::of(0..HOSTILE.len()),
        plain_run(0..4),
    )
        .prop_map(|(head, hostile, tail)| match hostile {
            Some(i) => format!("{head}{}{tail}", HOSTILE[i]),
            None => head,
        })
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

/// The oracle: `parse_json`'s first string decoder, verbatim. It steps
/// one character at a time and re-validates the rest of the input as
/// UTF-8 before each plain character, so it is quadratic in the input.
fn reference_parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
            Some(_) => {
                // Advance one full UTF-8 character.
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "bad utf-8"))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// A whole document that opens with a quote, through the oracle: the
/// string, then nothing but whitespace, as `parse_json` requires.
fn reference_parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let s = reference_parse_str(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(Json::Str(s))
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..1024)) {
        decode(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_sequences_never_panic(tokens in prop::collection::vec(token(), 0..48)) {
        decode(&tokens.concat());
    }

    /// The first occurrence of a key wins, so random members placed
    /// ahead of the envelope's own override its method and job kind.
    #[test]
    fn request_fields_never_panic(
        top in prop::collection::vec(member(), 0..4),
        job in prop::collection::vec(member(), 0..8),
    ) {
        let line = format!(
            "{{{}\"method\": \"submit\", \"job\": {{{}\"kind\": \"sweep\"}}}}",
            top.concat(),
            job.concat()
        );
        decode(&line);
    }

    /// Deep runs decode to an error past the 128-level bound, and
    /// balanced nesting within it still parses.
    #[test]
    fn deep_nesting_is_refused_not_overflowed(
        depth in prop_oneof![0usize..=160, 0usize..=100_000],
        object in any::<bool>(),
        closed in any::<bool>(),
    ) {
        let (open, close) = if object { ("{\"k\": ", "}") } else { ("[", "]") };
        let mut line = open.repeat(depth);
        if closed {
            line.push('0');
            line.push_str(&close.repeat(depth));
        }
        decode(&line);
        prop_assert_eq!(parse_json(&line).is_ok(), closed && depth <= 128);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Same string, or same error message at the same byte. An
    /// unescaped quote in the body ends the string early, so the
    /// trailing-characters check is compared too.
    #[test]
    fn string_decoder_matches_reference(body in body()) {
        let doc = format!("\"{body}\"");
        prop_assert_eq!(parse_json(&doc), reference_parse(&doc));
    }

    #[test]
    fn escaped_strings_round_trip(chars in prop::collection::vec(any_char(), 0..64)) {
        let s: String = chars.into_iter().collect();
        prop_assert_eq!(parse_json(&format!("\"{}\"", escape(&s))), Ok(Json::Str(s)));
    }
}
