//! `envy-bench`'s command line: a mistyped flag, a value that does not
//! parse or an unknown experiment exits with status 2 and the usage
//! before any work, instead of running with defaults and writing a
//! report.

use std::process::Command;

/// `envy-bench <line>`, run in a fresh directory, must exit 2 with the
/// usage, print no results and leave no `results/` behind.
fn assert_refused(line: &str) {
    let case = line.replace([' ', '-', '='], "_");
    let dir = std::env::temp_dir().join(format!("envy-cli-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_envy-bench"))
        .args(line.split_whitespace())
        .current_dir(&dir)
        .output()
        .expect("spawn envy-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
    assert!(out.stdout.is_empty(), "{line}: printed results");
    assert!(
        stderr.contains("experiments:\n  table_fig01\n"),
        "{line}: {stderr}"
    );
    assert!(!dir.join("results").exists(), "{line}: wrote results/");
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

#[test]
fn unknown_flag_is_refused() {
    assert_refused("table_fig01 --txn=5");
    assert_refused("table_fig01 --jbos 2");
    assert_refused("table_fig01 --quick=1");
    assert_refused("table_fig01 --paper");
}

#[test]
fn unparsable_value_is_refused() {
    assert_refused("table_fig01 --txns=5k");
    assert_refused("table_fig01 --txns");
}

#[test]
fn unknown_experiment_is_refused() {
    assert_refused("table_fig1");
    assert_refused("table_fig01 table_fig12");
    assert_refused("--quick");
}
