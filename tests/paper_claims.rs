//! Regression tests for the paper's headline claims, at test-sized
//! scales. Each test names the claim it pins down; EXPERIMENTS.md holds
//! the full-scale numbers. These are deliberately loose bounds — they
//! guard the *shape* of each result against regressions, not exact
//! values.

use envy::core::{lifetime_days, EnvyConfig, EnvyStore, PolicyKind};
use envy::sim::time::Ns;
use envy::workload::{churn_to_steady_state, run_timed, AnalyticTpca, CleaningStudy, TpcaScale};

fn quick_study(policy: PolicyKind, locality: (u32, u32)) -> f64 {
    CleaningStudy::sized(64, 128, policy, locality)
        .run()
        .expect("study runs")
        .cleaning_cost
}

/// §4.2 / Figure 8: greedy degrades as locality of reference rises.
#[test]
fn claim_greedy_degrades_with_locality() {
    let uniform = quick_study(PolicyKind::Greedy, (50, 50));
    let skewed = quick_study(PolicyKind::Greedy, (5, 95));
    assert!(skewed > uniform * 1.3, "greedy: {uniform} -> {skewed}");
}

/// §4.3 / Figure 8: locality gathering is pinned near cost 4 under
/// uniform traffic (the 80%-utilization fixed point) and improves
/// substantially under high locality.
#[test]
fn claim_locality_gathering_shape() {
    let uniform = quick_study(PolicyKind::LocalityGathering, (50, 50));
    let skewed = quick_study(PolicyKind::LocalityGathering, (5, 95));
    assert!(
        (3.3..5.2).contains(&uniform),
        "LG uniform cost {uniform} should sit near 4"
    );
    assert!(skewed < uniform * 0.6, "LG: {uniform} -> {skewed}");
}

/// §4.4 / Figure 8: the hybrid tracks greedy under uniform traffic and
/// stays at or near pure locality gathering under skew. Tested at the
/// paper's geometry (128 segments, 16-segment partitions).
#[test]
fn claim_hybrid_is_best_of_both() {
    let study = |policy, locality| {
        CleaningStudy::sized(128, 128, policy, locality)
            .run()
            .expect("study runs")
            .cleaning_cost
    };
    for locality in [(50u32, 50u32), (20, 80), (5, 95)] {
        let hybrid = study(
            PolicyKind::Hybrid {
                segments_per_partition: 16,
            },
            locality,
        );
        let lg = study(PolicyKind::LocalityGathering, locality);
        // Allow a modest margin at extreme skew, where Figure 9 shows
        // the smallest partitions can edge ahead.
        assert!(
            hybrid < lg * 1.25,
            "hybrid {hybrid} should stay competitive with LG {lg} at {locality:?}"
        );
    }
    let hybrid_uniform = study(
        PolicyKind::Hybrid {
            segments_per_partition: 16,
        },
        (50, 50),
    );
    let greedy_uniform = study(PolicyKind::Greedy, (50, 50));
    assert!(
        hybrid_uniform < greedy_uniform * 1.5,
        "hybrid {hybrid_uniform} should stay close to greedy {greedy_uniform} at uniform"
    );
}

/// Figure 9: partition sizes of 1 (pure LG) and the full array (pure
/// FIFO) are both worse overall than a mid-sized partition.
#[test]
fn claim_partition_size_sweet_spot() {
    let at = |k: u32, loc: (u32, u32)| {
        quick_study(
            PolicyKind::Hybrid {
                segments_per_partition: k,
            },
            loc,
        )
    };
    // Mid-size wins under skew vs full-array FIFO…
    assert!(at(8, (5, 95)) < at(63, (5, 95)));
    // …and under uniform vs single-segment LG.
    assert!(at(8, (50, 50)) < at(1, (50, 50)));
}

/// Figure 6: cleaning cost explodes past 80 % utilization (the paper's
/// reason for the 80 % cap).
#[test]
fn claim_cost_knee_past_80_percent() {
    let mut low = CleaningStudy::sized(32, 128, PolicyKind::Fifo, (50, 50));
    low.utilization = 0.5;
    let mut high = CleaningStudy::sized(32, 128, PolicyKind::Fifo, (50, 50));
    high.utilization = 0.92;
    let low = low.run().unwrap().cleaning_cost;
    let high = high.run().unwrap().cleaning_cost;
    assert!(high > low * 5.0, "cost knee: {low} -> {high}");
}

fn timed_tpca() -> (EnvyStore, AnalyticTpca) {
    let config = EnvyConfig::scaled_timing(8, 64, 1024, 256).with_utilization(0.8);
    let driver = AnalyticTpca::new(TpcaScale::fit_bytes(config.logical_bytes()));
    let mut store = EnvyStore::new(config).unwrap();
    churn(&mut store, &driver);
    (store, driver)
}

/// Prefill, then churn to cleaning steady state with account overwrites.
fn churn(store: &mut EnvyStore, driver: &AnalyticTpca) {
    store.prefill().unwrap();
    let accounts = driver.layout().scale.accounts();
    churn_to_steady_state(store, 1, 2.0, accounts, |id| {
        driver.layout().account_addr(id)
    })
    .unwrap();
}

/// §5.4 / Figure 15: unloaded read latency is SRAM-class (~180 ns) and
/// write latency about the same, despite Flash programs being 4 µs and
/// erases 50 ms.
#[test]
fn claim_unloaded_latencies_are_memory_class() {
    let (mut store, driver) = timed_tpca();
    let r = run_timed(&mut store, &driver, 2_000.0, 500, 5_000, 42).unwrap();
    assert!(
        r.read_latency >= Ns::from_nanos(160) && r.read_latency <= Ns::from_nanos(300),
        "read latency {}",
        r.read_latency
    );
    assert!(
        r.write_latency <= Ns::from_nanos(500),
        "write latency {}",
        r.write_latency
    );
}

/// §5.2/§5.5: TPC-A flushes about one page per transaction (the account
/// record page; teller and branch pages are absorbed by the buffer).
#[test]
fn claim_one_flush_per_transaction() {
    let (mut store, driver) = timed_tpca();
    let r = run_timed(&mut store, &driver, 5_000.0, 500, 8_000, 42).unwrap();
    let per_txn = r.flushes_per_sec / r.achieved_tps;
    assert!(
        (0.8..1.3).contains(&per_txn),
        "flushes per transaction {per_txn}"
    );
}

/// Figure 13: offered load below saturation is achieved 1:1.
#[test]
fn claim_linear_throughput_below_saturation() {
    let (mut store, driver) = timed_tpca();
    let r = run_timed(&mut store, &driver, 10_000.0, 500, 10_000, 42).unwrap();
    assert!(
        (r.achieved_tps - 10_000.0).abs() / 10_000.0 < 0.05,
        "achieved {} at offered 10k",
        r.achieved_tps
    );
}

/// §5.5: the lifetime formula at the paper's measured rates gives the
/// paper's 8.63 years.
#[test]
fn claim_lifetime_formula_matches_paper() {
    let pages = 2u64 * 1024 * 1024 * 1024 / 256;
    let days = lifetime_days(pages, 1_000_000, 10_376.0, 1.97);
    assert!((days / 365.25 - 8.63).abs() < 0.05, "{days} days");
}

/// §6: parallel background operations raise the saturated throughput.
#[test]
fn claim_parallel_ops_help_at_saturation() {
    let run_with = |parallel: u32| {
        let (store0, driver) = timed_tpca();
        let config = store0.config().clone().with_parallel_ops(parallel);
        drop(store0);
        let mut store = EnvyStore::new(config).unwrap();
        churn(&mut store, &driver);
        // 160 kTPS saturates the 1-way system (~78 kTPS ceiling with
        // bank-independent suspension) while 8-way reaches ~137 kTPS.
        run_timed(&mut store, &driver, 160_000.0, 1_000, 12_000, 42)
            .unwrap()
            .achieved_tps
    };
    let base = run_with(1);
    let parallel = run_with(8);
    assert!(
        parallel > base * 1.05,
        "8-way {parallel} should beat 1-way {base} at saturating load"
    );
}
