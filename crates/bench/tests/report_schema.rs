//! Schema check for the committed benchmark reports: every
//! `results/BENCH_*.json` must parse as JSON, carry the fields the
//! tooling relies on — in particular `report_version`, so report
//! consumers can detect shape changes — come from a full run and name
//! an `envy-bench` experiment, every experiment must have its committed
//! results and be run by `run_experiments.sh`, reports that measure the
//! same window must agree, and a `--quick` run must not be able to write
//! a report. Run directly by `ci.sh`.

use envy_bench::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn results_dir() -> PathBuf {
    repo_dir().join("results")
}

/// The experiments `envy-bench` dispatches, read from the usage it
/// prints when run without one.
fn experiments() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_envy-bench")).output();
    let usage = String::from_utf8(out.expect("spawn envy-bench").stderr).unwrap();
    let lines = usage.lines().skip_while(|l| *l != "experiments:").skip(1);
    let names: Vec<String> = lines
        .map_while(|l| l.strip_prefix("  ").map(String::from))
        .collect();
    assert!(names.len() >= 20, "usage lists only {names:?}");
    names
}

#[test]
fn every_experiment_has_committed_results() {
    let committed = |file: &str| results_dir().join(file).is_file();
    for name in experiments() {
        let (report, table) = (format!("BENCH_{name}.json"), format!("{name}.txt"));
        assert!(committed(&report), "{report} not committed");
        assert!(committed(&table), "{table} not committed");
    }
}

/// `run_experiments.sh` is the one command that regenerates `results/`,
/// so it must run every experiment the binary has.
#[test]
fn run_experiments_names_every_experiment() {
    let script = std::fs::read_to_string(repo_dir().join("run_experiments.sh"))
        .expect("run_experiments.sh exists");
    let names: Vec<&str> = script
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .collect();
    for name in experiments() {
        assert!(
            names.contains(&name.as_str()),
            "run_experiments.sh does not run {name}"
        );
    }
}

/// The committed report `results/BENCH_<bench>.json`, parsed.
fn committed_report(bench: &str) -> Value {
    let file = format!("BENCH_{bench}.json");
    let text = std::fs::read_to_string(results_dir().join(&file))
        .unwrap_or_else(|e| panic!("{file}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{file}: parse error: {e}"))
}

/// `metrics[key]` of the point labelled `label` in `report`.
fn point_metric(report: &Value, label: &str, key: &str) -> f64 {
    let points = report.get("points").and_then(Value::as_array);
    points
        .expect("points array")
        .iter()
        .find(|p| p.get("label").and_then(Value::as_str) == Some(label))
        .unwrap_or_else(|| panic!("missing point {label:?}"))
        .get("metrics")
        .and_then(|m| m.get(key))
        .and_then(Value::as_number)
        .unwrap_or_else(|| panic!("point {label:?} missing metric {key:?}"))
}

/// Figure 14's 80 % row and Figure 13's 40 000 TPS row fork the same
/// 80 %-utilization base and run the same window at the same rate and
/// seed, so their cleaning costs are one number.
#[test]
fn fig13_and_fig14_agree_at_80_percent() {
    let fig13 = point_metric(
        &committed_report("fig13_throughput"),
        "40000 TPS",
        "cleaning_cost",
    );
    let fig14 = point_metric(
        &committed_report("fig14_utilization"),
        "80%",
        "cleaning_cost",
    );
    assert_eq!(fig13.to_bits(), fig14.to_bits(), "{fig13} vs {fig14}");
}

#[test]
fn every_committed_report_parses_and_is_versioned() {
    let (dir, experiments) = (results_dir(), experiments());
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("results/ exists") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable report");
        let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        let version = doc
            .get("report_version")
            .unwrap_or_else(|| panic!("{name}: missing report_version"))
            .as_number()
            .unwrap_or_else(|| panic!("{name}: non-numeric report_version"));
        assert!(
            version >= 1.0,
            "{name}: report_version {version} out of range"
        );
        let bench = doc
            .get("bench")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{name}: missing bench name"));
        assert_eq!(
            name,
            format!("BENCH_{bench}.json"),
            "{name}: bench field must match the file name"
        );
        assert!(
            experiments.iter().any(|e| e == bench),
            "{name}: envy-bench has no experiment {bench:?}"
        );
        assert_eq!(
            doc.get("quick"),
            Some(&Value::Bool(false)),
            "{name}: a committed report must come from a full run"
        );
        let points = doc
            .get("points")
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{name}: missing points array"));
        assert!(!points.is_empty(), "{name}: no points");
        for p in points {
            assert!(
                p.get("label").and_then(Value::as_str).is_some(),
                "{name}: point without a label"
            );
            assert!(p.get("metrics").is_some(), "{name}: point without metrics");
        }
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} reports found in results/");
}

/// Run `table_fig01` (instant) in `dir` and return the names of the
/// files it left under `dir/results`.
fn reports_written_by_table_fig01(dir: &Path, args: &[&str]) -> Vec<String> {
    std::fs::create_dir_all(dir).expect("scratch directory");
    let status = Command::new(env!("CARGO_BIN_EXE_envy-bench"))
        .arg("table_fig01")
        .args(args)
        .current_dir(dir)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn table_fig01");
    assert!(status.success());
    let mut names: Vec<String> = std::fs::read_dir(dir.join("results"))
        .expect("the run wrote results/")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// A full run writes the report a commit may carry; a `--quick` run
/// writes only the git-ignored `ci_smoke_` twin, so no smoke run can
/// replace a committed report.
#[test]
fn quick_run_cannot_write_a_committed_report() {
    let scratch = std::env::temp_dir().join(format!("envy-report-dest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let full = scratch.join("full");
    assert_eq!(
        reports_written_by_table_fig01(&full, &[]),
        ["BENCH_table_fig01.json"]
    );
    let text = std::fs::read_to_string(full.join("results/BENCH_table_fig01.json")).unwrap();
    assert_eq!(
        parse(&text).unwrap().get("quick"),
        Some(&Value::Bool(false))
    );

    let quick = scratch.join("quick");
    assert_eq!(
        reports_written_by_table_fig01(&quick, &["--quick"]),
        ["ci_smoke_BENCH_table_fig01.json"]
    );

    std::fs::remove_dir_all(&scratch).expect("remove scratch directory");
}

/// The YCSB report carries a fixed point set the docs and EXPERIMENTS.md
/// quote: the wire anchor (must have matched), every mix at 1 and 8
/// shards with throughput + tail latencies, and the wear-under-skew
/// rows with a lifetime projection.
#[test]
fn ext_ycsb_report_carries_anchor_mixes_and_wear_rows() {
    let report = committed_report("ext_ycsb");
    let metric = |label: &str, key: &str| point_metric(&report, label, key);
    assert_eq!(
        metric("anchor", "anchor_match"),
        1.0,
        "the socket-vs-monolithic anchor must have matched"
    );
    assert!(metric("anchor", "anchor_aborted") > 0.0);
    for mix in ["A", "B", "C", "D", "E"] {
        for shards in [1.0, 8.0] {
            let label = format!("{mix} x{shards:.0}");
            assert_eq!(metric(&label, "shards"), shards);
            assert!(metric(&label, "wall_tps") > 0.0, "{label}: zero throughput");
            for pct in ["p50_us", "p99_us", "p999_us"] {
                assert!(metric(&label, pct) > 0.0, "{label}: missing {pct}");
            }
        }
    }
    for row in ["wear/uniform", "wear/zipfian"] {
        assert!(
            metric(row, "pages_flushed") > 0.0,
            "{row}: no flush traffic"
        );
        assert!(metric(row, "flushes_per_op") > 0.0);
        let days = metric(row, "lifetime_days");
        assert!(
            days.is_finite() && days > 0.0,
            "{row}: lifetime projection must be finite, got {days}"
        );
    }
}
