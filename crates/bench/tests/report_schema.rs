//! Schema check for the committed benchmark reports: every
//! `results/BENCH_*.json` must parse as JSON, carry the fields the
//! tooling relies on — in particular `report_version`, so report
//! consumers can detect shape changes — come from a full run and name
//! an `envy-bench` experiment, every experiment must have its committed
//! results, and a `--quick` run must not be able to write a report. Run
//! directly by `ci.sh`.

use envy_bench::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
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
        // calib_saturation is an internal calibration: JSON only.
        let json_only = name == "calib_saturation";
        assert!(json_only || committed(&table), "{table} not committed");
    }
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
            bench.ends_with("_paper") || experiments.iter().any(|e| e == bench),
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
    let text = std::fs::read_to_string(results_dir().join("BENCH_ext_ycsb.json"))
        .expect("results/BENCH_ext_ycsb.json committed");
    let doc = parse(&text).expect("well-formed report");
    let points = doc
        .get("points")
        .and_then(Value::as_array)
        .expect("points array");
    let metric = |label: &str, key: &str| -> f64 {
        points
            .iter()
            .find(|p| p.get("label").and_then(Value::as_str) == Some(label))
            .unwrap_or_else(|| panic!("missing point {label:?}"))
            .get("metrics")
            .and_then(|m| m.get(key))
            .and_then(Value::as_number)
            .unwrap_or_else(|| panic!("point {label:?} missing metric {key:?}"))
    };
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
