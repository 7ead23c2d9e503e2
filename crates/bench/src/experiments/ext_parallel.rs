//! §6 hardware extension: parallel program/erase operations.
//!
//! "An obvious example is to perform multiple program and erase
//! operations at the same time to different banks of Flash memory. …
//! With the cleaner executing 4 to 8 concurrent programming operations,
//! the average time to flush a page can drop from 4µs to less than 1µs."
//!
//! This sweep runs the saturated TPC-A workload with 1–8 concurrent
//! background operations and reports achieved throughput and the
//! effective per-flush background time.

use crate::{emit_rows, Args};
use envy_bench::{churn_to_steady_state_for, timed_config_for, timed_driver, PointResult};
use envy_sim::report::fmt_f64;
use envy_workload::run_timed;

pub fn run(args: &Args) {
    let txns = args.u64("txns", if args.quick { 8_000 } else { 250_000 });
    // Figure 13's top row, past the 1-way system's saturation (~67 k).
    let rate = args.u64("rate", 80_000) as f64;
    let levels = vec![1u32, 2, 4, 8];
    let outcome = args.sweep("ext_parallel", levels, |_, &parallel| {
        // The parallel-ops setting changes the device config, so each
        // point builds (and churns) its own system.
        let config = timed_config_for(0.8).with_parallel_ops(parallel);
        let driver = timed_driver(&config);
        let mut store = envy_core::EnvyStore::new(config).expect("config valid");
        store.prefill().expect("prefill");
        churn_to_steady_state_for(&mut store, &driver);
        let result = run_timed(&mut store, &driver, rate, txns / 10, txns, 42).expect("timed run");
        let stats = store.stats();
        let flush_time_us = stats.time_flush.as_micros_f64() / stats.pages_flushed.get() as f64;
        PointResult::row(
            format!("parallel={parallel}"),
            vec![
                parallel.to_string(),
                fmt_f64(result.achieved_tps),
                fmt_f64(flush_time_us),
                result.write_latency.to_string(),
            ],
        )
        .metric("parallel_ops", f64::from(parallel))
        .metric("achieved_tps", result.achieved_tps)
        .metric("effective_us_per_flush", flush_time_us)
        .metric("write_latency_ns", result.write_latency.as_nanos() as f64)
    });
    emit_rows(
        "Section 6",
        "parallel program/erase extension at saturating load (80% utilization)",
        &[
            "parallel ops",
            "achieved TPS",
            "effective us/flush",
            "write latency",
        ],
        &outcome.rows,
    );
}
