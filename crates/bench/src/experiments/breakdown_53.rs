//! §5.3 time breakdown: where the storage system's busy time goes at
//! high load and 80 % utilization.
//!
//! Paper: "At a utilization of 80% and a transaction rate of 30,000 TPS,
//! the eNVy system is almost never idle. Under these conditions,
//! approximately 40% of the time is servicing reads. Most of the
//! remaining time is spent either cleaning (30%), flushing (15%), or
//! erasing (15%)."

use crate::Args;
use envy_bench::{emit, timed_system_for};
use envy_sim::report::Table;
use envy_workload::run_timed;

pub fn run(args: &Args) {
    let start = std::time::Instant::now();
    let txns = args.u64("txns", if args.quick { 10_000 } else { 200_000 });
    let rate = args.u64("rate", 30_000) as f64;
    let (mut store, driver) = timed_system_for(0.8);
    let result = run_timed(&mut store, &driver, rate, txns / 10, txns, 42).expect("timed run");
    let b = store
        .stats()
        .breakdown()
        .expect("timed run produces busy time");
    let mut table = Table::new(&["activity", "fraction of busy time", "paper"]);
    let pct = |f: f64| format!("{:.1}%", f * 100.0);
    table.row(&["reads".into(), pct(b.reads), "~40%".into()]);
    table.row(&["writes".into(), pct(b.writes), "(in reads/writes)".into()]);
    table.row(&["cleaning".into(), pct(b.cleaning), "~30%".into()]);
    table.row(&["flushing".into(), pct(b.flushing), "~15%".into()]);
    table.row(&["erasing".into(), pct(b.erasing), "~15%".into()]);
    table.row(&[
        "suspension back-off".into(),
        pct(b.suspended),
        "(not separated)".into(),
    ]);
    emit(
        "Section 5.3",
        &format!(
            "controller busy-time breakdown at {rate} TPS, 80% utilization (achieved {:.0} TPS)",
            result.achieved_tps
        ),
        &table,
    );
    let points = vec![(
        format!("{rate} TPS"),
        vec![
            ("achieved_tps", result.achieved_tps),
            ("reads", b.reads),
            ("writes", b.writes),
            ("cleaning", b.cleaning),
            ("flushing", b.flushing),
            ("erasing", b.erasing),
            ("suspended", b.suspended),
        ],
    )];
    args.write_report("breakdown_53", 1, start, &points, &[]);
}
