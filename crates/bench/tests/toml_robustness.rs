//! Robustness of the scenario TOML reader against hostile input.
//!
//! Scenario specs come from outside the process, so [`toml::parse`] must
//! answer every input with a value or a line-numbered error: it never
//! panics (or overflows its stack), and every `Err` starts with the line
//! number. The inputs are arbitrary strings, TOML-flavoured token soup, and
//! the committed specs under `scenarios/` with random bytes inserted,
//! deleted or replaced — all drawn from the case's seed.
//!
//! Past the syntax, every numeric key of every committed spec and perfbench
//! workload is set to hostile values in turn; loading and building the spec
//! never panics, and every error cites `path:line: key:` with the key that
//! is written on that line.

use bench::scenario::{default_scenarios_dir, load_spec, spec_files, toml};
use proptest::prelude::*;
use std::path::Path;

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
        let line = err
            .split_once(": ")
            .and_then(|(line, _)| line.parse::<usize>().ok());
        prop_assert!(
            line.is_some_and(|line| (1..=input.lines().count().max(1)).contains(&line)),
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

/// The values each numeric key is set to: negative, zero, fractional, huge,
/// infinite (`1e400`), past `u64::MAX`, and not a number at all.
const HOSTILE: [&str; 7] = [
    "-1",
    "0",
    "0.5",
    "1e300",
    "1e400",
    "18446744073709551616",
    "\"x\"",
];

#[test]
fn hostile_values_of_every_numeric_key_are_errors_citing_their_key() {
    let workloads = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perfbench/workloads");
    let mut files = spec_files(&default_scenarios_dir()).expect("scenarios/ exists");
    files.extend(spec_files(&workloads).expect("perfbench/workloads/ exists"));
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hostile_values");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let (mut mutants, mut rejected) = (0, 0);
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable spec");
        let lines: Vec<&str> = text.lines().collect();
        for (index, line) in lines.iter().enumerate() {
            let Some((key, value)) = line.split_once(" = ") else {
                continue;
            };
            if !value.starts_with(|c: char| c.is_ascii_digit() || c == '-') {
                continue;
            }
            for hostile in HOSTILE {
                let mut mutated = lines.clone();
                let replaced = format!("{key} = {hostile}");
                mutated[index] = &replaced;
                let path = dir.join(file.file_name().expect("a file"));
                std::fs::write(&path, mutated.join("\n")).expect("writable scratch");
                mutants += 1;
                let Err(err) = load_spec(&path).and_then(|spec| spec.build()) else {
                    continue;
                };
                rejected += 1;
                // `path:line: key: message`, with `key` written on `line`.
                let rest = err.strip_prefix(&format!("{}:", path.display()));
                let cited = rest.and_then(|rest| {
                    let (line, rest) = rest.split_once(": ")?;
                    let (key, _) = rest.split_once(": ")?;
                    let written = mutated.get(line.parse::<usize>().ok()?.checked_sub(1)?)?;
                    written.starts_with(&format!("{key} = ")).then_some(())
                });
                assert!(cited.is_some(), "{}: `{replaced}`: {err}", file.display());
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("scratch directory");
    // Every committed spec has numeric keys, and most hostile values are
    // rejected.
    assert!(
        mutants > 300 && rejected * 2 > mutants,
        "{rejected}/{mutants}"
    );
}
