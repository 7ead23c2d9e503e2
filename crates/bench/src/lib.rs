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
use envy_workload::{churn_to_steady_state, AnalyticTpca, TpcaScale};

pub use sweep::{
    point_seed, render_report, time_series_json, trace_json, write_report, PointResult,
    SweepOutcome, SweepSpec, REPORT_VERSION,
};

/// The timed TPC-A configuration: the paper's 2 GB array when `paper`
/// (`--paper`), otherwise a 256 MB scaled version
/// ([`EnvyConfig::scaled_timing`]: same geometry ratios — 128 segments,
/// 8 banks, one-segment write buffer — and the paper's erase work per
/// reclaimed page), at the given utilization.
pub fn timed_config_for(paper: bool, utilization: f64) -> EnvyConfig {
    let config = if paper {
        let mut c = EnvyConfig::paper_2gb();
        c.word_bytes = 8; // 64-bit host bus (Figure 11)
        c
    } else {
        EnvyConfig::scaled_timing(8, 128, 8192, 256)
    };
    config.with_utilization(utilization)
}

/// The TPC-A driver for a configuration, with the database scaled to
/// fill the logical space.
pub fn timed_driver(config: &EnvyConfig) -> AnalyticTpca {
    AnalyticTpca::new(TpcaScale::fit_bytes(config.logical_bytes()))
}

/// Churn the store to cleaning steady state with uniform account
/// overwrites ([`churn_to_steady_state`]), consuming the initial free
/// space twice — 2.5 times at the paper's 2 GB (`paper`), where the
/// measured windows are comparatively shorter.
pub fn churn_to_steady_state_for(paper: bool, store: &mut EnvyStore, driver: &AnalyticTpca) {
    let k = if paper { 2.5 } else { 2.0 };
    let (layout, seed) = (driver.layout(), 0xC0FFEE);
    let accounts = layout.scale.accounts();
    churn_to_steady_state(store, seed, k, accounts, |id| layout.account_addr(id))
        .expect("churn write");
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
    (store, driver)
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
