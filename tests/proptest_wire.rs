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

use proptest::prelude::*;

use booting_booster::fleet::parse_json;
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
