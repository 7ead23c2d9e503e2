//! Ablation: SRAM write-buffer size (§5.1 sizes it at one segment).
//!
//! A larger FIFO buffer absorbs more re-writes to hot pages before they
//! are flushed, cutting Flash traffic (flushes per transaction) — at SRAM
//! cost. Run on the synthetic hot/cold stream where the effect is
//! clearest.

use crate::{emit_rows, Args};
use envy_bench::PointResult;
use envy_core::{EnvyConfig, EnvyStore, PolicyKind};
use envy_sim::dist::Bimodal;
use envy_sim::report::fmt_f64;
use envy_sim::rng::Rng;

pub fn run(args: &Args) {
    let writes: u64 = if args.quick { 200_000 } else { 600_000 };
    let sizes = vec![16usize, 64, 256, 1024, 4096];
    let outcome = args.sweep("abl_buffer_size", sizes, |_, &buffer| {
        let config = EnvyConfig::scaled(8, 64, 512, 256)
            .with_store_data(false)
            .with_policy(PolicyKind::paper_default())
            .with_buffer_pages(buffer);
        let mut store = EnvyStore::new(config).expect("valid config");
        store.prefill().expect("prefill");
        let dist = Bimodal::from_spec(store.config().logical_pages, 10, 90);
        let mut rng = Rng::seed_from(7);
        for _ in 0..writes / 2 {
            store
                .write(dist.sample(&mut rng) * 256, &[0])
                .expect("write");
        }
        let flushed0 = store.stats().pages_flushed.get();
        for _ in 0..writes / 2 {
            store
                .write(dist.sample(&mut rng) * 256, &[0])
                .expect("write");
        }
        let flushed = store.stats().pages_flushed.get() - flushed0;
        let flushes_per_write = flushed as f64 / (writes / 2) as f64;
        PointResult::row(
            format!("buffer={buffer}"),
            vec![
                buffer.to_string(),
                fmt_f64(flushes_per_write),
                fmt_f64(store.stats().cleaning_cost()),
                (buffer * 256 / 1024).to_string(),
            ],
        )
        .metric("buffer_pages", buffer as f64)
        .metric("flushes_per_write", flushes_per_write)
        .metric("cleaning_cost", store.stats().cleaning_cost())
    });
    emit_rows(
        "Ablation: write-buffer size",
        "hot/cold 10/90 page writes, 64 segments, 80% utilization",
        &["buffer pages", "flushes/write", "cleaning cost", "sram KB"],
        &outcome.rows,
    );
}
