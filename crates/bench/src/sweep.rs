//! Shared sweep execution for the figure-regeneration experiments.
//!
//! Every figure or ablation experiment evaluates a list of independent
//! points (arrival rates, utilizations, policies, …) and renders the
//! results as a table. This module factors that shape out: a
//! [`SweepSpec`] names the sweep and lists its points, and a per-point
//! closure produces the table rows and JSON metrics for one point.
//!
//! Points run on a scoped [`std::thread`] pool of the caller's size
//! (`envy-bench`'s `--jobs N`, default: available cores; `1` reproduces
//! a fully sequential run).
//! Each point builds its state from fixed seeds or from a shared
//! immutable baseline (see `EnvyStore::fork`), so results are
//! independent of execution order; collection is in point order, which
//! makes the emitted text table and CSV **byte-identical** across any
//! `--jobs` value.
//!
//! Every run also records a machine-readable report — point labels,
//! per-point metrics, wall-clock seconds and the number of jobs used —
//! at `results/BENCH_<name>.json`; a `--quick` run writes
//! `results/ci_smoke_BENCH_<name>.json` instead (see [`write_report`]).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Version of the `BENCH_<name>.json` report schema. Bumped when the
/// report shape changes; the CI schema check requires every committed
/// report to carry it.
pub const REPORT_VERSION: u64 = 1;

/// What one sweep point produced: table rows (in order) plus named
/// metrics for the JSON report.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Progress label, printed to stderr when the point completes and
    /// recorded in the JSON report.
    pub label: String,
    /// Rows this point contributes to the table, in order. Most points
    /// contribute exactly one row.
    pub rows: Vec<Vec<String>>,
    /// Named scalar metrics recorded in the JSON report.
    pub metrics: Vec<(&'static str, f64)>,
}

impl PointResult {
    /// A single-row result with no metrics yet.
    pub fn row(label: impl Into<String>, row: Vec<String>) -> PointResult {
        PointResult {
            label: label.into(),
            rows: vec![row],
            metrics: Vec::new(),
        }
    }

    /// Attach a named metric (builder-style).
    #[must_use]
    pub fn metric(mut self, name: &'static str, value: f64) -> PointResult {
        self.metrics.push((name, value));
        self
    }
}

/// A declarative sweep: a benchmark name (for the JSON report) and the
/// list of points to evaluate.
pub struct SweepSpec<'a, P> {
    name: &'a str,
    points: Vec<P>,
}

/// The collected results of a sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// All table rows, in point order.
    pub rows: Vec<Vec<String>>,
    /// Per-point `(label, metrics)` in point order.
    pub points: Vec<(String, Vec<(&'static str, f64)>)>,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time spent evaluating the points.
    pub wall_seconds: f64,
}

impl<'a, P: Sync> SweepSpec<'a, P> {
    /// Declare a sweep.
    pub fn new(name: &'a str, points: Vec<P>) -> SweepSpec<'a, P> {
        SweepSpec { name, points }
    }

    /// Evaluate every point with `jobs` worker threads and write the
    /// JSON report under `results/` (`quick` chooses the file, see
    /// [`write_report`]).
    ///
    /// The closure receives `(point index, point)` and must derive all
    /// randomness from fixed or per-point seeds (see [`point_seed`]) so
    /// its result does not depend on execution order.
    pub fn run<F>(self, quick: bool, jobs: usize, run_point: F) -> SweepOutcome
    where
        F: Fn(usize, &P) -> PointResult + Sync,
    {
        let outcome = self.run_with_jobs(jobs, run_point);
        write_report(
            self.name,
            quick,
            outcome.jobs,
            outcome.wall_seconds,
            &outcome.points,
            &[],
        );
        outcome
    }

    /// Evaluate every point with an explicit worker count, without
    /// writing a report (used by tests and embedders).
    pub fn run_with_jobs<F>(&self, jobs: usize, run_point: F) -> SweepOutcome
    where
        F: Fn(usize, &P) -> PointResult + Sync,
    {
        let start = Instant::now();
        let n = self.points.len();
        let jobs = jobs.clamp(1, n.max(1));
        let mut slots: Vec<Option<PointResult>> = (0..n).map(|_| None).collect();
        if jobs == 1 {
            for (i, (point, slot)) in self.points.iter().zip(&mut slots).enumerate() {
                let result = run_point(i, point);
                eprintln!("  done {}", result.label);
                *slot = Some(result);
            }
        } else {
            // Work-stealing over an atomic index: each worker claims the
            // next unevaluated point. Workers return (index, result)
            // pairs; results are then placed back in point order, so the
            // output is identical to the sequential run.
            let next = AtomicUsize::new(0);
            let points = &self.points;
            let run_point = &run_point;
            let completed = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                let result = run_point(i, &points[i]);
                                eprintln!("  done {}", result.label);
                                local.push((i, result));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("sweep worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (i, result) in completed {
                slots[i] = Some(result);
            }
        }
        let results: Vec<PointResult> = slots
            .into_iter()
            .map(|r| r.expect("every point evaluated"))
            .collect();
        SweepOutcome {
            rows: results.iter().flat_map(|r| r.rows.clone()).collect(),
            points: results.into_iter().map(|r| (r.label, r.metrics)).collect(),
            jobs,
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    }
}

/// Derive an independent per-point seed from a sweep's base seed.
///
/// SplitMix64-style mixing: nearby indices give unrelated seeds, and the
/// result depends only on `(base, index)` — never on execution order.
pub fn point_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Write a run's report: `results/BENCH_<name>.json`, or
/// `results/ci_smoke_BENCH_<name>.json` (git-ignored) when `quick`, so a
/// smoke run can never replace a committed full-run report.
/// `report_file` is the only place a report path is formed.
///
/// Each `extras` pair is spliced in as a top-level `"key": value`, where
/// `value` must already be valid JSON (see [`time_series_json`] and
/// [`trace_json`]) — how observability-oriented experiments embed a sampled
/// time series or a trace excerpt alongside the point metrics.
///
/// The path written, or why nothing was, goes to stderr: a run whose
/// report cannot be saved still stands on the tables it printed.
pub fn write_report(
    name: &str,
    quick: bool,
    jobs: usize,
    wall_seconds: f64,
    points: &[(String, Vec<(&'static str, f64)>)],
    extras: &[(&str, String)],
) {
    let path = report_file(name, quick);
    let json = render_report(name, quick, jobs, wall_seconds, points, extras);
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => eprintln!("  report: {}", path.display()),
        Err(e) => eprintln!("  warning: could not write report: {e}"),
    }
}

/// The report path for a run of experiment `name`.
fn report_file(name: &str, quick: bool) -> PathBuf {
    let prefix = if quick { "ci_smoke_" } else { "" };
    PathBuf::from("results").join(format!("{prefix}BENCH_{name}.json"))
}

/// Render the report document (see [`write_report`]). Public so
/// tests can pin the rendered bytes without writing into `results/`.
pub fn render_report(
    name: &str,
    quick: bool,
    jobs: usize,
    wall_seconds: f64,
    points: &[(String, Vec<(&'static str, f64)>)],
    extras: &[(&str, String)],
) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"report_version\": {REPORT_VERSION},\n"));
    json.push_str(&format!("  \"bench\": {},\n", json_string(name)));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!(
        "  \"wall_seconds\": {},\n",
        json_number(wall_seconds)
    ));
    for (key, value) in extras {
        json.push_str(&format!("  {}: {value},\n", json_string(key)));
    }
    json.push_str("  \"points\": [\n");
    for (i, (label, metrics)) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"label\": {}, \"metrics\": {{",
            json_string(label)
        ));
        for (j, (name, value)) in metrics.iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("{}: {}", json_string(name), json_number(*value)));
        }
        json.push_str("}}");
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    json
}

/// Serialize a sampled [`envy_sim::stats::TimeSeries`] as a JSON object:
/// window, column names, and one `[end_us, values...]` row per sample.
pub fn time_series_json(series: &envy_sim::stats::TimeSeries) -> String {
    let mut json = String::from("{");
    json.push_str(&format!(
        "\"window_us\": {}, \"columns\": [",
        json_number(series.window().as_nanos() as f64 / 1_000.0)
    ));
    for (i, col) in series.columns().iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&json_string(col));
    }
    json.push_str("], \"rows\": [");
    for (i, (end, values)) in series.rows().iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "[{}",
            json_number(end.as_nanos() as f64 / 1_000.0)
        ));
        for v in values {
            json.push_str(&format!(", {}", json_number(*v)));
        }
        json.push(']');
    }
    json.push_str("]}");
    json
}

/// Serialize the most recent `last_n` records of a trace ring as a JSON
/// array of `{"at_us", "seq", "event"}` objects (the event rendered in
/// its compact display form).
pub fn trace_json(trace: &envy_core::TraceRing, last_n: usize) -> String {
    let mut json = String::from("[");
    for (i, rec) in trace.last(last_n).enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "{{\"at_us\": {}, \"seq\": {}, \"event\": {}}}",
            json_number(rec.at.as_nanos() as f64 / 1_000.0),
            rec.seq,
            json_string(&rec.event.to_string())
        ));
    }
    json.push(']');
    json
}

/// JSON string literal (quotes, escapes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal (`null` for non-finite values, which JSON cannot
/// represent).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_seed_varies_by_index_not_order() {
        let a: Vec<u64> = (0..8).map(|i| point_seed(99, i)).collect();
        let b: Vec<u64> = (0..8).rev().map(|i| point_seed(99, i)).rev().collect();
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(distinct.len(), a.len());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn sequential_and_parallel_results_match() {
        let spec = SweepSpec::new("unit", (0u64..7).collect());
        let run = |i: usize, p: &u64| {
            PointResult::row(
                format!("p{p}"),
                vec![p.to_string(), point_seed(1, i as u64).to_string()],
            )
            .metric("value", *p as f64)
        };
        let seq = spec.run_with_jobs(1, run);
        let par = spec.run_with_jobs(4, run);
        assert_eq!(seq.rows, par.rows);
        assert_eq!(seq.points, par.points);
        assert_eq!(seq.jobs, 1);
        assert_eq!(par.jobs, 4);
        let wide = spec.run_with_jobs(64, run);
        assert_eq!(wide.points, seq.points);
        assert_eq!(wide.jobs, 7, "more workers than points: one per point");
    }

    #[test]
    fn report_path_depends_on_quick() {
        for (quick, file) in [(false, "BENCH_x.json"), (true, "ci_smoke_BENCH_x.json")] {
            assert_eq!(report_file("x", quick), PathBuf::from("results").join(file));
        }
    }
}
