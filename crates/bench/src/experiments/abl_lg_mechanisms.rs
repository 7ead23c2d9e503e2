//! Ablation: the two mechanisms inside locality gathering (§4.3).
//!
//! "Care must be taken to prevent flushes from the SRAM write buffer from
//! destroying locality. When a page is placed into the SRAM buffer, we
//! record which segment it comes from. When it is flushed, it is written
//! back to the same segment." — flush-to-origin. The second mechanism is
//! the free-space redistribution that equalizes (frequency × cost).
//!
//! This sweep disables each in turn under a skewed write stream.

use crate::{emit_rows, Args};
use envy_bench::{locality_label, PointResult};
use envy_core::{EnvyConfig, EnvyStore, PolicyKind};
use envy_sim::dist::Bimodal;
use envy_sim::report::fmt_f64;
use envy_sim::rng::Rng;

fn measure(locality: (u32, u32), redistribute: bool, to_origin: bool, writes: u64) -> f64 {
    let mut config = EnvyConfig::scaled(8, 64, 256, 256)
        .with_store_data(false)
        .with_policy(PolicyKind::LocalityGathering);
    config.lg_redistribute = redistribute;
    config.lg_flush_to_origin = to_origin;
    let mut store = EnvyStore::new(config).expect("valid config");
    store.prefill().expect("prefill");
    let dist = Bimodal::from_spec(store.config().logical_pages, locality.0, locality.1);
    let mut rng = Rng::seed_from(17);
    for _ in 0..writes / 2 {
        store
            .write(dist.sample(&mut rng) * 256, &[0])
            .expect("write");
    }
    let f0 = store.stats().pages_flushed.get();
    let c0 = store.stats().clean_programs.get();
    for _ in 0..writes / 2 {
        store
            .write(dist.sample(&mut rng) * 256, &[0])
            .expect("write");
    }
    let flushed = store.stats().pages_flushed.get() - f0;
    let programs = store.stats().clean_programs.get() - c0;
    programs as f64 / flushed as f64
}

pub fn run(args: &Args) {
    let writes: u64 = if args.quick { 300_000 } else { 800_000 };
    let localities = vec![(50u32, 50u32), (20, 80), (5, 95)];
    let outcome = args.sweep("abl_lg_mechanisms", localities, |_, &locality| {
        let full = measure(locality, true, true, writes);
        let no_redistribution = measure(locality, false, true, writes);
        let no_flush_to_origin = measure(locality, true, false, writes);
        let neither = measure(locality, false, false, writes);
        PointResult::row(
            locality_label(locality),
            vec![
                locality_label(locality),
                fmt_f64(full),
                fmt_f64(no_redistribution),
                fmt_f64(no_flush_to_origin),
                fmt_f64(neither),
            ],
        )
        .metric("full_lg", full)
        .metric("no_redistribution", no_redistribution)
        .metric("no_flush_to_origin", no_flush_to_origin)
        .metric("neither", neither)
    });
    emit_rows(
        "Ablation: locality-gathering mechanisms",
        "cleaning cost with redistribution / flush-to-origin disabled (§4.3)",
        &[
            "locality",
            "full LG",
            "no redistribution",
            "no flush-to-origin",
            "neither",
        ],
        &outcome.rows,
    );
}
