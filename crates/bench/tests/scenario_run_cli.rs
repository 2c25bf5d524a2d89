//! The `scenario_run` binary's argument handling.

use std::process::Command;

#[test]
fn a_mistyped_option_is_rejected_with_the_usage_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_scenario_run"))
        .args(["--chek", "scenarios/staged_defense.toml"])
        .output()
        .expect("scenario_run starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option `--chek`"), "{stderr}");
    assert!(
        stderr.contains("usage: scenario_run [--check] [--out DIR] [PATH ...]"),
        "{stderr}"
    );
}
