//! Figure 13: throughput for increasing request rates.
//!
//! TPC-A transactions arrive with exponential inter-arrival times at
//! increasing offered rates; achieved throughput tracks the offered rate
//! until the cleaning system saturates (the paper's 2 GB system peaks
//! around 30 000 TPS), then plateaus.

use crate::{emit_rows, Args};
use envy_bench::{timed_system_for, PointResult};
use envy_sim::report::fmt_f64;
use envy_workload::run_timed;

pub fn run(args: &Args) {
    let txns = args.u64("txns", if args.quick { 10_000 } else { 250_000 });
    let warmup = txns / 10;
    // Build, prefill and churn the baseline once; every rate forks it.
    let (base, driver) = timed_system_for(0.8);
    let rates = vec![
        5_000u64, 10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000, 80_000,
    ];
    let outcome = args.sweep("fig13_throughput", rates, |_, &rate| {
        let mut store = base.fork();
        let result =
            run_timed(&mut store, &driver, rate as f64, warmup, txns, 42).expect("timed run");
        PointResult::row(
            format!("{rate} TPS"),
            vec![
                rate.to_string(),
                fmt_f64(result.achieved_tps),
                fmt_f64(result.flushes_per_sec),
                fmt_f64(result.cleaning_cost),
            ],
        )
        .metric("offered_tps", rate as f64)
        .metric("achieved_tps", result.achieved_tps)
        .metric("flushes_per_sec", result.flushes_per_sec)
        .metric("cleaning_cost", result.cleaning_cost)
    });
    emit_rows(
        "Figure 13",
        "achieved throughput vs transaction request rate (TPC-A)",
        &["offered TPS", "achieved TPS", "flushes/s", "cleaning cost"],
        &outcome.rows,
    );
}
