//! `envy-cli`'s command line: an option the command does not read, an
//! option missing its value or an unknown command exits 2 with the usage
//! before any work, instead of running with defaults.

use std::process::Command;

fn assert_refused(line: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_envy-cli"))
        .args(line.split_whitespace())
        .output()
        .expect("spawn envy-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
    assert!(out.stdout.is_empty(), "{line}: did work");
    assert!(stderr.contains("usage: envy-cli"), "{line}: {stderr}");
}

#[test]
fn option_the_command_does_not_read_is_refused() {
    assert_refused("tpca --rat 5000");
    assert_refused("info --anything");
    assert_refused("cleaning --txns 10");
    // Valid for a sibling command, not for this one.
    assert_refused("kv-get --value hello");
    assert_refused("bench-serve --shutdown=1");
}

#[test]
fn option_missing_its_value_is_refused() {
    assert_refused("tpca --txns");
    assert_refused("trace --rate 100 --last");
}

#[test]
fn unknown_command_is_refused() {
    assert_refused("tpac");
    assert_refused("");
}
