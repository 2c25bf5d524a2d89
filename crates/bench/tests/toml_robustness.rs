//! Robustness of the scenario TOML reader against hostile input.
//!
//! Scenario specs come from outside the process, so [`toml::parse`] must
//! answer every input with a value or a line-numbered error: it never
//! panics (or overflows its stack), and every `Err` starts with `line `.
//! The inputs are arbitrary strings, TOML-flavoured token soup, and the
//! committed specs under `scenarios/` with random bytes inserted, deleted
//! or replaced — all drawn from the case's seed.

use bench::scenario::{default_scenarios_dir, spec_files, toml};
use proptest::prelude::*;

/// Deterministic splitmix64 step for drawing inputs from a case seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, bound: usize) -> usize {
    (next(state) % bound as u64) as usize
}

fn assert_line_numbered(input: &str) -> Result<(), TestCaseError> {
    if let Err(err) = toml::parse(input) {
        prop_assert!(
            err.starts_with("line "),
            "unnumbered error {err:?} for {input:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any Unicode scalar values, biased towards ASCII so the parser gets
    /// past its first token often enough to matter.
    #[test]
    fn arbitrary_strings_never_panic(seed in 0u64..u64::MAX, len in 0usize..300) {
        let mut state = seed;
        let input: String = (0..len)
            .map(|_| {
                let raw = if below(&mut state, 4) == 0 { next(&mut state) % 0x11_0000 } else { next(&mut state) % 0x80 };
                char::from_u32(raw as u32).unwrap_or('\u{FFFD}')
            })
            .collect();
        assert_line_numbered(&input)?;
    }

    /// Sequences of the reader's own tokens: near-misses of valid TOML.
    #[test]
    fn toml_token_soup_never_panics(seed in 0u64..u64::MAX, len in 0usize..120) {
        const TOKENS: &[&str] = &[
            " ", "\t", "\n", "\r\n", "#", "=", ".", ",", "\"", "'", "\\", "[", "]", "[[", "]]",
            "{", "}", "a", "b-c", "_", "0", "-1", "+2", "1_000", "3.5", "1e9", "-", "e", "true",
            "false", "tru", "é", "\\é", "\\n", "\\u0041",
        ];
        let mut state = seed;
        let input: String = (0..len).map(|_| TOKENS[below(&mut state, TOKENS.len())]).collect();
        assert_line_numbered(&input)?;
    }

    /// The committed specs with one to eight random byte edits each.
    #[test]
    fn mutated_committed_specs_never_panic(seed in 0u64..u64::MAX, edits in 1usize..9) {
        let files = spec_files(&default_scenarios_dir()).expect("scenarios/ exists");
        let mut state = seed;
        let mut bytes = std::fs::read(&files[below(&mut state, files.len())]).expect("readable spec");
        for _ in 0..edits {
            let at = below(&mut state, bytes.len() + 1);
            let byte = next(&mut state) as u8;
            match below(&mut state, 3) {
                0 => bytes.insert(at, byte),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ if at < bytes.len() => bytes[at] = byte,
                _ => bytes.push(byte),
            }
        }
        assert_line_numbered(&String::from_utf8_lossy(&bytes))?;
    }
}
