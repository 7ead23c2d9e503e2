//! §5.5 estimated eNVy lifetime.
//!
//! Paper: at 10 000 TPS the simulator reports 10 376 pages flushed per
//! second at a cleaning cost of 1.97, giving
//! `2 GB/256 B × 1M cycles / (10 376 × 2.97 × 86 400)` = 3 151 days
//! (8.63 years) of continuous use.

use crate::Args;
use envy_bench::{emit, timed_system_for};
use envy_core::lifetime_days;
use envy_sim::report::{fmt_f64, Table};
use envy_workload::run_timed;

pub fn run(args: &Args) {
    let start = std::time::Instant::now();
    let txns = args.u64("txns", if args.quick { 10_000 } else { 200_000 });
    let rate = args.u64("rate", 10_000) as f64;
    let (mut store, driver) = timed_system_for(0.8);
    let result = run_timed(&mut store, &driver, rate, txns / 10, txns, 42).expect("timed run");

    // Project flushes/txn and cleaning cost onto the offered rate, as
    // §5.5 does.
    let flushes_per_txn = result.flushes_per_sec / result.achieved_tps;
    let projected_flush_rate = flushes_per_txn * rate;
    let days = lifetime_days(
        store.config().geometry.total_pages(),
        1_000_000,
        projected_flush_rate,
        result.cleaning_cost,
    );

    let mut table = Table::new(&["quantity", "measured", "paper"]);
    table.row(&[
        "pages flushed/s".into(),
        fmt_f64(projected_flush_rate),
        "10376".into(),
    ]);
    table.row(&[
        "cleaning cost".into(),
        fmt_f64(result.cleaning_cost),
        "1.97".into(),
    ]);
    table.row(&["lifetime (days)".into(), fmt_f64(days), "3151".into()]);
    table.row(&[
        "lifetime (years)".into(),
        fmt_f64(days / 365.25),
        "8.63".into(),
    ]);
    emit(
        "Section 5.5",
        &format!("estimated lifetime at {rate} TPS on the 2 GB array (1M-cycle parts)"),
        &table,
    );
    let points = vec![(
        format!("{rate} TPS"),
        vec![
            ("pages_flushed_per_sec", projected_flush_rate),
            ("cleaning_cost", result.cleaning_cost),
            ("lifetime_days", days),
            ("lifetime_years", days / 365.25),
        ],
    )];
    args.write_report("lifetime_55", 1, start, &points, &[]);
}
