//! Figure 14: throughput for various levels of Flash utilization.
//!
//! As the live-data fraction rises, cleaning cost u/(1-u) grows and more
//! bandwidth goes to cleaning; past ~80 % utilization throughput drops
//! steeply — the paper's rationale for capping the array at 80 %.

use crate::{emit_rows, Args};
use envy_bench::{timed_system_for, PointResult};
use envy_sim::report::fmt_f64;
use envy_workload::run_timed;

pub fn run(args: &Args) {
    let txns = args.u64("txns", if args.quick { 8_000 } else { 250_000 });
    let warmup = txns / 10;
    let rates = [10_000u64, 20_000, 30_000, 40_000];
    let utils = vec![10u32, 20, 30, 40, 50, 60, 70, 80, 90, 95];
    let outcome = args.sweep("fig14_utilization", utils, |_, &util_pct| {
        // One baseline per utilization point, forked for each rate.
        let (base, driver) = timed_system_for(util_pct as f64 / 100.0);
        let mut row = vec![format!("{util_pct}%")];
        let mut result = PointResult::row(format!("{util_pct}%"), Vec::new());
        let mut last_cost = 0.0;
        for rate in rates {
            let mut store = base.fork();
            let r =
                run_timed(&mut store, &driver, rate as f64, warmup, txns, 42).expect("timed run");
            row.push(fmt_f64(r.achieved_tps));
            last_cost = r.cleaning_cost;
            result.metrics.push((
                match rate {
                    10_000 => "achieved_tps_at_10k",
                    20_000 => "achieved_tps_at_20k",
                    30_000 => "achieved_tps_at_30k",
                    _ => "achieved_tps_at_40k",
                },
                r.achieved_tps,
            ));
        }
        row.push(fmt_f64(last_cost));
        result.rows = vec![row];
        result.metric("cleaning_cost", last_cost)
    });
    emit_rows(
        "Figure 14",
        "achieved throughput vs flash array utilization (TPC-A)",
        &[
            "utilization",
            "10k TPS",
            "20k TPS",
            "30k TPS",
            "40k TPS",
            "cleaning cost",
        ],
        &outcome.rows,
    );
}
