//! Ablation: the MMU mapping cache (§5.1).
//!
//! "A memory-management unit (MMU) acts as a cache of recently used
//! mappings to make this translation faster." Without it, every host
//! access pays an extra SRAM page-table lookup. The sweep runs TPC-A
//! with different cache sizes and reports hit rate and mean read latency.

use crate::{emit_rows, Args};
use envy_bench::{timed_config_for, timed_driver, PointResult};
use envy_core::EnvyStore;
use envy_workload::run_timed;

pub fn run(args: &Args) {
    let txns = args.u64("txns", if args.quick { 6_000 } else { 200_000 });
    let sizes = vec![0usize, 64, 512, 4096, 32_768];
    let outcome = args.sweep("abl_mmu", sizes, |_, &entries| {
        // The cache size changes the device config, so each point builds
        // its own system; `run_timed`'s warmup window covers settling.
        let config = timed_config_for(0.8).with_mmu_entries(entries);
        let driver = timed_driver(&config);
        let mut store = EnvyStore::new(config).expect("valid config");
        store.prefill().expect("prefill");
        let result =
            run_timed(&mut store, &driver, 10_000.0, txns / 10, txns, 42).expect("timed run");
        let hit_rate = store.engine().mmu().hit_rate();
        PointResult::row(
            format!("mmu={entries}"),
            vec![
                entries.to_string(),
                format!("{:.1}%", hit_rate * 100.0),
                result.read_latency.to_string(),
                result.write_latency.to_string(),
            ],
        )
        .metric("mmu_entries", entries as f64)
        .metric("hit_rate", hit_rate)
        .metric("read_latency_ns", result.read_latency.as_nanos() as f64)
        .metric("write_latency_ns", result.write_latency.as_nanos() as f64)
    });
    emit_rows(
        "Ablation: MMU mapping-cache size",
        "TPC-A at 10k TPS; a miss costs one SRAM page-table access (§5.1)",
        &["mmu entries", "hit rate", "read latency", "write latency"],
        &outcome.rows,
    );
}
