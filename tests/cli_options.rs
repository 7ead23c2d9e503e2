//! `envy-cli`'s command line: an option the command does not read, an
//! option missing its value or an unknown command exits 2 with the usage
//! before any work, instead of running with defaults; a value out of its
//! option's range exits 1 with a message naming the option, instead of
//! panicking or running forever.

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

/// `line` exits 1 before any work, and its message names `option`.
fn assert_out_of_range(line: &str, option: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_envy-cli"))
        .args(line.split_whitespace())
        .output()
        .expect("spawn envy-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
    assert!(out.stdout.is_empty(), "{line}: did work");
    assert!(stderr.contains(option), "{line}: {stderr}");
}

#[test]
fn out_of_range_numbers_are_refused() {
    // Left unchecked, each of these panics, or (`--txns 0`: run until a
    // duration bench-serve never sets) never ends, or (`--clients 0`)
    // silently runs one client.
    assert_out_of_range("bench-serve --shards 0", "--shards");
    assert_out_of_range("bench-serve --txns 0", "--txns");
    assert_out_of_range("bench-serve --clients 0", "--clients");
    assert_out_of_range("bench-serve --txn-slots 0", "--txn-slots");
    assert_out_of_range("cleaning --segments 0", "--segments");
    assert_out_of_range("cleaning --pages 0", "--pages");
    assert_out_of_range("cleaning --util 0", "--util");
    assert_out_of_range("cleaning --util 1.5", "--util");
    assert_out_of_range("tpca --util 0", "--util");
    assert_out_of_range("tpca --util 1.5", "--util");
    assert_out_of_range("tpca --rate 0", "--rate");
    assert_out_of_range("tpca --rate inf", "--rate");
    assert_out_of_range("stats --txns 0", "--txns");
}
