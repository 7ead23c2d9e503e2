//! `envy-served`'s command line keeps the contract of `envy-cli` and
//! `envy-bench`: an unknown option, a value it cannot parse or one out
//! of range exits 2 with the usage before any work; `--help` prints the
//! usage and exits 0.

use std::process::{Command, Output};

/// Run `envy-served` with `line`. Every line also names a Unix socket
/// and a zero-second run, so a line wrongly accepted ends at once
/// instead of serving on the default TCP port.
fn served(line: &str) -> Output {
    let sock = std::env::temp_dir().join(format!("envy-served-cli-{}.sock", std::process::id()));
    Command::new(env!("CARGO_BIN_EXE_envy-served"))
        .args(line.split_whitespace())
        .arg("--unix")
        .arg(&sock)
        .args(["--duration-secs", "0"])
        .output()
        .expect("spawn envy-served")
}

#[test]
fn usage_errors_exit_2_before_any_work() {
    for line in [
        "--bogus",
        "--queue 0",
        "--batch 0",
        "--trace 8",
        "--scale huge",
        "--shards x",
    ] {
        let out = served(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line}: did work");
        assert!(stderr.contains("USAGE:"), "{line}: {stderr}");
    }
}

#[test]
fn help_exits_0() {
    let out = served("--help");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
}
