#![warn(missing_docs)]
//! Shared harness utilities for the `envy-bench` figure-regeneration
//! binary.
//!
//! Every experiment in `src/experiments/` (run as `envy-bench <name>`)
//! regenerates one table or figure of the paper's evaluation section and
//! prints both an aligned text table and a CSV block. The binary parses
//! the command line once and hands each experiment its flags; nothing in
//! this library reads the command line. `--quick` selects a scaled-down
//! run (fewer writes / transactions); the default parameters match
//! EXPERIMENTS.md.

pub mod json;
pub mod sweep;

use envy_core::{EnvyConfig, EnvyStore};
use envy_sim::report::Table;
use envy_workload::{AnalyticTpca, TpcaScale};

pub use sweep::{
    point_seed, render_report, time_series_json, trace_json, write_report, PointResult,
    SweepOutcome, SweepSpec, REPORT_VERSION,
};

/// The timed TPC-A configuration: the paper's 2 GB array when `paper`
/// (`--paper`), otherwise a 256 MB scaled version (same geometry ratios:
/// 128 segments, 8 banks, one-segment write buffer, and an erase time
/// scaled with the segment size so erase work per reclaimed page matches
/// the paper's hardware), at the given utilization.
pub fn timed_config_for(paper: bool, utilization: f64) -> EnvyConfig {
    let mut config = if paper {
        EnvyConfig::paper_2gb()
    } else {
        let mut c = EnvyConfig::scaled(8, 128, 8192, 256).with_store_data(false);
        // Erase reclaims pages-per-segment pages; keep erase time per
        // reclaimed page equal to the paper's 50 ms / 65 536.
        c.timings.erase = envy_sim::time::Ns::from_nanos(
            50_000_000u64 * c.geometry.pages_per_segment() as u64 / 65_536,
        );
        c
    };
    config.word_bytes = 8; // 64-bit host bus (Figure 11)
    config.with_utilization(utilization)
}

/// The TPC-A driver for a configuration, with the database scaled to
/// fill the logical space.
pub fn timed_driver(config: &EnvyConfig) -> AnalyticTpca {
    AnalyticTpca::new(TpcaScale::fit_bytes(config.logical_bytes()))
}

/// Churn the store (untimed) to cleaning steady state: overwrite uniform
/// account records until the initial free space has been consumed twice
/// (2.5 times at the paper's 2 GB, where the measured windows are
/// comparatively shorter), so a timed window runs at steady-state
/// cleaning — the paper measures a long-running system, not a freshly
/// formatted one. `paper` selects the 2 GB churn multiple.
pub fn churn_to_steady_state_for(paper: bool, store: &mut EnvyStore, driver: &AnalyticTpca) {
    let total = store.config().geometry.total_pages();
    let free = total - store.config().logical_pages;
    let churn = if paper { free * 5 / 2 } else { free * 2 };
    let mut rng = envy_sim::rng::Rng::seed_from(0xC0FFEE);
    let accounts = driver.layout().scale.accounts();
    for _ in 0..churn {
        let id = rng.below(accounts);
        let addr = driver.layout().account_addr(id);
        store.write(addr, &[0u8; 8]).expect("churn write");
    }
}

/// Build the timed TPC-A system ([`timed_config_for`]), prefilled at
/// `utilization` and churned to cleaning steady state
/// ([`churn_to_steady_state_for`]).
///
/// Sweeps that vary only workload parameters should build this once and
/// [`EnvyStore::fork`] it per point instead of rebuilding.
pub fn timed_system_for(paper: bool, utilization: f64) -> (EnvyStore, AnalyticTpca) {
    let config = timed_config_for(paper, utilization);
    let driver = timed_driver(&config);
    let mut store = EnvyStore::new(config).expect("config is valid");
    store.prefill().expect("prefill fits");
    churn_to_steady_state_for(paper, &mut store, &driver);
    if let Some(capacity) = trace_capacity_env() {
        store.enable_trace(capacity);
    }
    (store, driver)
}

/// The `ENVY_TRACE` environment variable: when set, [`timed_system_for`]
/// enables controller tracing on the baseline store with the given ring
/// capacity (or 65 536 records for non-numeric values like `1`).
/// Tracing is behavior-neutral, so a benchmark's output must be
/// byte-identical with and without it — CI smoke-checks exactly that.
pub fn trace_capacity_env() -> Option<usize> {
    let v = std::env::var("ENVY_TRACE").ok()?;
    if v.is_empty() || v == "0" {
        return None;
    }
    Some(v.parse().ok().filter(|&n| n > 1).unwrap_or(65_536))
}

/// Print a figure's results: header line, aligned table, CSV block.
pub fn emit(figure: &str, caption: &str, table: &Table) {
    println!("== {figure}: {caption} ==");
    println!();
    print!("{}", table.render());
    println!();
    println!("-- csv --");
    print!("{}", table.to_csv());
    println!("-- end --");
}

/// The localities of reference on Figure 8's x-axis.
pub const LOCALITIES: [(u32, u32); 6] = [(50, 50), (40, 60), (30, 70), (20, 80), (10, 90), (5, 95)];

/// Format a locality pair the way the paper labels it.
pub fn locality_label(l: (u32, u32)) -> String {
    format!("{}/{}", l.0, l.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_labels() {
        assert_eq!(locality_label((10, 90)), "10/90");
        assert_eq!(LOCALITIES.len(), 6);
    }
}
