//! Internal calibration: sensitivity of the saturation point to the
//! suspend/resume back-off ("waits a few microseconds", §3.4). Each gap
//! is offered Figure 13's top rate, past saturation, so the achieved
//! rate is the peak.

use crate::Args;
use envy_bench::{churn_to_steady_state_for, timed_config_for, timed_driver, PointResult};
use envy_sim::time::Ns;
use envy_workload::run_timed;

pub fn run(args: &Args) {
    let txns = args.u64("txns", if args.quick { 8_000 } else { 250_000 });
    let gaps = vec![0u64, 1, 2, 4];
    let outcome = args.sweep("calib_saturation", gaps, |_, &gap_us| {
        // The resume gap changes the device config, so each point builds
        // (and churns) its own system.
        let mut config = timed_config_for(0.8);
        config.resume_gap = Ns::from_micros(gap_us);
        let driver = timed_driver(&config);
        let mut store = envy_core::EnvyStore::new(config).unwrap();
        store.prefill().unwrap();
        churn_to_steady_state_for(&mut store, &driver);
        let r = run_timed(&mut store, &driver, 80_000.0, txns / 10, txns, 42).unwrap();
        let suspensions_per_txn = store.stats().suspensions.get() as f64 / (txns as f64 * 1.1);
        PointResult::row(
            format!("gap={gap_us}us"),
            vec![format!(
                "resume_gap={gap_us}us  peak TPS={:.0}  suspensions/txn={:.1}",
                r.achieved_tps, suspensions_per_txn
            )],
        )
        .metric("resume_gap_us", gap_us as f64)
        .metric("peak_tps", r.achieved_tps)
        .metric("suspensions_per_txn", suspensions_per_txn)
    });
    for row in &outcome.rows {
        println!("{}", row[0]);
    }
}
