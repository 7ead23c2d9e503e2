//! Extension: latency percentiles and controller telemetry.
//!
//! Figure 15 reports only *average* read/write latency per request rate.
//! With sub-bucketed histograms the same sweep yields the distribution
//! tails — p50/p95/p99/p999 — which show what the average hides: past
//! saturation even p999 writes stay at SRAM speed, and the jump in the
//! Figure-15 mean comes entirely from a sub-0.1% population of enormous
//! buffer-full stalls (visible in the max column). An average alone
//! cannot distinguish that from a uniform slowdown. The run also
//! exercises the full observability layer: the saturated point is rerun
//! with tracing and the periodic sampler enabled, and the report embeds
//! its time series, a trace excerpt, and the per-segment wear spread.

use crate::{emit_rows, Args};
use envy_bench::{time_series_json, timed_system_for, trace_json, PointResult, SweepSpec};
use envy_sim::time::Ns;
use envy_workload::run_timed;

/// Report keys of the read and write latency percentiles, in
/// `percentiles()` order (p50, p95, p99, p999).
const PERCENTILE_KEYS: [[&str; 4]; 2] = [
    ["read_p50_ns", "read_p95_ns", "read_p99_ns", "read_p999_ns"],
    [
        "write_p50_ns",
        "write_p95_ns",
        "write_p99_ns",
        "write_p999_ns",
    ],
];

pub fn run(args: &Args) {
    let started = std::time::Instant::now();
    let txns = args.u64("txns", if args.quick { 8_000 } else { 250_000 });
    let warmup = txns / 10;
    let (base, driver) = timed_system_for(0.8);
    let rates = vec![5_000u64, 20_000, 40_000, 60_000, 80_000];
    let saturated = *rates.last().expect("rates nonempty");
    let spec = SweepSpec::new("ext_observability", rates);
    let outcome = spec.run_with_jobs(args.jobs, |_, &rate| {
        let mut store = base.fork();
        let result =
            run_timed(&mut store, &driver, rate as f64, warmup, txns, 42).expect("timed run");
        // Percentiles are over the whole fork's histogram (warmup
        // included) — the warmup runs at the same rate, so the tails are
        // representative.
        let r = store.stats().read_latency.percentiles().expect("reads ran");
        let w = store
            .stats()
            .write_latency
            .percentiles()
            .expect("writes ran");
        let w_mean = store.stats().write_latency.mean();
        let w_max = store.stats().write_latency.max().expect("writes ran");
        let mut row = vec![rate.to_string()];
        row.extend(r.iter().map(ToString::to_string));
        row.extend(w.iter().map(ToString::to_string));
        row.push(w_mean.to_string());
        row.push(w_max.to_string());
        row.push(format!("{:.0}", result.achieved_tps));
        let mut point = PointResult::row(format!("{rate} TPS"), row)
            .metric("offered_tps", rate as f64)
            .metric("achieved_tps", result.achieved_tps)
            .metric("write_mean_ns", w_mean.as_nanos() as f64)
            .metric("write_max_ns", w_max.as_nanos() as f64);
        for (keys, vals) in PERCENTILE_KEYS.iter().zip([r, w]) {
            for (&key, v) in keys.iter().zip(vals) {
                point.metrics.push((key, v.as_nanos() as f64));
            }
        }
        point
    });

    // Rerun the saturated point with the full observability layer on:
    // trace ring, periodic sampler, and a post-run wear snapshot.
    let mut store = base.fork();
    store.enable_trace(65_536);
    store.enable_sampler(Ns::from_millis(10), 4_096);
    run_timed(&mut store, &driver, saturated as f64, warmup, txns, 42).expect("timed run");
    let wear = store.engine().segment_report();
    let series = store.time_series().expect("sampler enabled");
    let extras = [
        ("time_series", time_series_json(series)),
        ("trace_tail", trace_json(store.trace(), 64)),
    ];
    let mut points = outcome.points.clone();
    if let Some((_, metrics)) = points.last_mut() {
        metrics.push(("wear_spread_cycles", wear.wear_spread() as f64));
        metrics.push(("wear_mean_cycles", wear.mean_erase_cycles));
        metrics.push(("trace_events", store.trace().total_emitted() as f64));
    }
    args.write_report("ext_observability", outcome.jobs, started, &points, &extras);

    emit_rows(
        "Extension (observability)",
        "latency percentiles vs transaction request rate (TPC-A)",
        &[
            "offered TPS",
            "read p50",
            "read p95",
            "read p99",
            "read p999",
            "write p50",
            "write p95",
            "write p99",
            "write p999",
            "write mean",
            "write max",
            "achieved TPS",
        ],
        &outcome.rows,
    );
    println!();
    println!(
        "saturated point ({saturated} TPS): wear spread {} cycles (mean {:.1}), \
         {} trace events, {} sampler windows",
        wear.wear_spread(),
        wear.mean_erase_cycles,
        store.trace().total_emitted(),
        series.rows().len(),
    );
}
