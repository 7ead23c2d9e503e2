//! The benchmark checking itself: `BENCHMARK.json` as the binary sees it,
//! the `--quick` smoke test and the `--repeat` spread check. Both modes
//! run every workload in a child process of its own, exactly as the
//! driver does.

use crate::probe::median;
use crate::workloads::WORKLOADS;
use crate::Options;
use envy_bench::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// The share of the parent's median a later change may lose
    /// (end-to-end metrics only).
    pub bound: f64,
}

/// `BENCHMARK.json`, compiled into the binary so the metric names, units
/// and bounds it prints can never drift from the file the driver reads.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn embedded() -> Spec {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .to_vec()
        };
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    bound: m.get("bound").and_then(Value::as_number).unwrap_or(0.0),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_number)
                .expect("run_seconds") as u64,
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// What one child run printed on its last line.
struct Outcome {
    correct: bool,
    failed: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

/// Run one workload in a child process and parse its result line.
fn child(workload: &str, seed: u64, options: &Options, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|e| {
        format!(
            "no result line ({e}); exit {:?}; stderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    let Some(Value::Object(map)) = doc.get("metrics") else {
        return Err("result line has no metrics object".to_string());
    };
    let metrics = map
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_number()?;
            Some((name.clone(), (value, m.get("unit")?.as_str()?.to_string())))
        })
        .collect();
    let correct = doc.get("correct") == Some(&Value::Bool(true));
    if correct != out.status.success() {
        return Err(format!(
            "correct={correct} but exit code {:?}",
            out.status.code()
        ));
    }
    Ok(Outcome {
        correct,
        failed: doc.get("failed").and_then(Value::as_number).unwrap_or(-1.0) as u64,
        metrics,
    })
}

/// `--quick`: every workload, both modes, at a tenth of the size; every
/// declared metric must come out under its name with its unit and every
/// correctness check must pass.
pub fn quick(options: &Options) -> bool {
    let spec = Spec::embedded();
    let mut ok = spec.workloads == WORKLOADS;
    if !ok {
        eprintln!(
            "BENCHMARK.json workloads {:?} != {WORKLOADS:?}",
            spec.workloads
        );
    }
    for workload in WORKLOADS {
        for (trace, declared) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let mode = if trace { "traced" } else { "end-to-end" };
            let verdict = child(workload, options.seed, options, trace).and_then(|o| {
                for m in declared {
                    match o.metrics.get(&m.name) {
                        Some((_, unit)) if *unit == m.unit => {}
                        Some((_, unit)) => {
                            return Err(format!("{} has unit {unit}, not {}", m.name, m.unit))
                        }
                        None => return Err(format!("{} is missing", m.name)),
                    }
                }
                if o.metrics.len() != declared.len() {
                    return Err("undeclared metrics printed".to_string());
                }
                if !trace {
                    if let Some((name, _)) = o.metrics.iter().find(|(_, (v, _))| *v <= 0.0) {
                        return Err(format!("{name} is not positive"));
                    }
                }
                if !o.correct || o.failed != 0 {
                    return Err(format!("correct={} failed={}", o.correct, o.failed));
                }
                Ok(o.metrics.len())
            });
            match verdict {
                Ok(n) => println!("ok    {workload:<15} {mode:<10} {n} metrics"),
                Err(e) => {
                    ok = false;
                    println!("FAIL  {workload:<15} {mode:<10} {e}");
                }
            }
        }
    }
    ok
}

/// Quartile spread as the driver computes it: the distance between the
/// first and third quartile (Python's `statistics.quantiles(v, n=4)`,
/// exclusive method) as a share of the median.
fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(0.75) - at(0.25)) / median(&v)
}

/// `--repeat N`: N sets of `--runs` end-to-end runs of every workload,
/// run *i* of every set on seed `base + i`. Fails if the set medians of
/// any metric differ by more than its bound, if a single run strays more
/// than a tenth from its set median on `ops_per_s` or `p50_us`, or if a
/// simulated-domain metric differs between two runs on the same seed.
pub fn repeat(sets: usize, options: &Options) -> bool {
    let spec = Spec::embedded();
    let mut ok = true;
    println!(
        "{:<15} {:<22} {:>12} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "set-diff", "run-dev", "iqr/med", "bound"
    );
    for workload in WORKLOADS {
        // runs[set][run] = metrics of that run
        let mut runs: Vec<Vec<BTreeMap<String, (f64, String)>>> = Vec::new();
        for _ in 0..sets {
            let mut set = Vec::new();
            for run in 0..options.runs {
                match child(workload, options.seed + run as u64, options, false) {
                    Ok(o) if o.correct => set.push(o.metrics),
                    Ok(_) => {
                        ok = false;
                        println!("{workload}: run {run} was not correct");
                    }
                    Err(e) => {
                        ok = false;
                        println!("{workload}: run {run}: {e}");
                    }
                }
            }
            runs.push(set);
        }
        for m in &spec.end_to_end {
            let values: Vec<Vec<f64>> = runs
                .iter()
                .map(|set| set.iter().filter_map(|r| Some(r.get(&m.name)?.0)).collect())
                .collect();
            if values.iter().any(Vec::is_empty) {
                continue;
            }
            let medians: Vec<f64> = values.iter().map(|v| median(v)).collect();
            let (lo, hi) = medians
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
            let set_diff = (hi - lo) / lo;
            let run_dev = values
                .iter()
                .zip(&medians)
                .flat_map(|(v, med)| v.iter().map(move |x| (x - med).abs() / med))
                .fold(0.0, f64::max);
            let spread = values
                .iter()
                .map(|v| quartile_spread(v))
                .fold(0.0, f64::max);
            let simulated = matches!(
                m.name.as_str(),
                "flash_programs_per_op" | "sim_cleaning_cost" | "sim_tps"
            );
            let mut verdict = Vec::new();
            if set_diff > m.bound {
                verdict.push("set medians differ by more than the bound");
            }
            if matches!(m.name.as_str(), "ops_per_s" | "p50_us") && run_dev > 0.1 {
                verdict.push("a run strays more than a tenth from its set median");
            }
            if simulated && values.iter().any(|v| *v != values[0]) {
                verdict.push("simulated metric not identical on the same seed");
            }
            ok &= verdict.is_empty();
            println!(
                "{:<15} {:<22} {:>12.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%  {}",
                workload,
                m.name,
                median(&medians),
                100.0 * set_diff,
                100.0 * run_dev,
                100.0 * spread,
                100.0 * m.bound,
                if verdict.is_empty() {
                    "ok".to_string()
                } else {
                    verdict.join("; ")
                },
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_binary_runs() {
        let spec = Spec::embedded();
        assert_eq!(spec.workloads, WORKLOADS);
        assert!((1..=60).contains(&spec.run_seconds));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(matches!(setup, Some(m) if m.unit == "s"));
        for m in &spec.end_to_end {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        assert!(!spec.per_layer.is_empty() && spec.per_layer.len() <= 128);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
