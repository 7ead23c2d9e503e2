//! Figure 15: I/O latency for increasing request rates.
//!
//! Average read and write latencies stay nearly constant (the paper:
//! ~180 ns reads, ~200 ns writes) until the request rate approaches the
//! system's maximum throughput; past saturation, writes must wait for
//! buffer slots — one flush program plus its share of cleaning — and the
//! average write latency jumps by more than an order of magnitude while
//! reads stay fast.

use crate::{emit_rows, Args};
use envy_bench::{timed_system_for, PointResult};
use envy_sim::time::Ns;
use envy_workload::run_timed;

pub fn run(args: &Args) {
    let txns = args.u64("txns", if args.quick { 8_000 } else { 250_000 });
    let warmup = txns / 10;
    // Build, prefill and churn the baseline once; every rate forks it.
    let (base, driver) = timed_system_for(0.8);
    let rates = vec![
        5_000u64, 10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000, 80_000,
    ];
    let outcome = args.sweep("fig15_latency", rates, |_, &rate| {
        let mut store = base.fork();
        let result =
            run_timed(&mut store, &driver, rate as f64, warmup, txns, 42).expect("timed run");
        PointResult::row(
            format!("{rate} TPS"),
            vec![
                rate.to_string(),
                format_latency(result.read_latency),
                format_latency(result.write_latency),
                format!("{:.0}", result.achieved_tps),
            ],
        )
        .metric("offered_tps", rate as f64)
        .metric("read_latency_ns", result.read_latency.as_nanos() as f64)
        .metric("write_latency_ns", result.write_latency.as_nanos() as f64)
        .metric("achieved_tps", result.achieved_tps)
    });
    emit_rows(
        "Figure 15",
        "average I/O latency vs transaction request rate (TPC-A)",
        &[
            "offered TPS",
            "read latency",
            "write latency",
            "achieved TPS",
        ],
        &outcome.rows,
    );
}

fn format_latency(l: Ns) -> String {
    l.to_string()
}
