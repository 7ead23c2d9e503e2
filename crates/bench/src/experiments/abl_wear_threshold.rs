//! Ablation: the wear-leveling threshold (§4.3 uses 100 cycles).
//!
//! A lower threshold keeps wear more even (longer array life) at the
//! price of extra swap copies; `off` shows the unlevelled spread.

use crate::{emit_rows, Args};
use envy_bench::PointResult;
use envy_core::{EnvyConfig, EnvyStore, PolicyKind};
use envy_sim::dist::Bimodal;
use envy_sim::report::fmt_f64;
use envy_sim::rng::Rng;

pub fn run(args: &Args) {
    let writes: u64 = if args.quick { 300_000 } else { 1_000_000 };
    let thresholds = vec![u64::MAX, 200, 100, 50, 10];
    let outcome = args.sweep("abl_wear_threshold", thresholds, |_, &threshold| {
        let config = EnvyConfig::scaled(4, 16, 256, 256)
            .with_store_data(false)
            .with_policy(PolicyKind::LocalityGathering)
            .with_buffer_pages(64)
            .with_wear_threshold(threshold);
        let mut store = EnvyStore::new(config).expect("valid config");
        store.prefill().expect("prefill");
        // Extremely hot small region: the worst case for wear.
        let dist = Bimodal::from_spec(store.config().logical_pages, 5, 95);
        let mut rng = Rng::seed_from(3);
        for _ in 0..writes {
            store
                .write(dist.sample(&mut rng) * 256, &[0])
                .expect("write");
        }
        let flash = store.engine().flash();
        let stats = store.stats();
        let label = if threshold == u64::MAX {
            "off".to_string()
        } else {
            threshold.to_string()
        };
        let spread = flash.max_erase_cycles() - flash.min_erase_cycles();
        let swap_programs_per_flush =
            stats.wear_programs.get() as f64 / stats.pages_flushed.get() as f64;
        PointResult::row(
            format!("threshold={label}"),
            vec![
                label,
                spread.to_string(),
                flash.max_erase_cycles().to_string(),
                stats.wear_swaps.get().to_string(),
                fmt_f64(swap_programs_per_flush),
            ],
        )
        .metric("cycle_spread", spread as f64)
        .metric("max_cycles", flash.max_erase_cycles() as f64)
        .metric("swaps", stats.wear_swaps.get() as f64)
        .metric("swap_programs_per_flush", swap_programs_per_flush)
    });
    emit_rows(
        "Ablation: wear-leveling threshold",
        "5/95 hot/cold writes; lifetime is set by max cycles (§4.3, §5.5)",
        &[
            "threshold",
            "cycle spread",
            "max cycles",
            "swaps",
            "swap programs / flush",
        ],
        &outcome.rows,
    );
}
