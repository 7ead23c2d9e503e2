//! Ablation: a drifting hot spot.
//!
//! The paper evaluates locality gathering on *stationary* bimodal
//! distributions (§4.3), where the initial sequential layout already
//! groups hot pages. This ablation moves the hot region across the
//! logical space mid-run and measures how each policy's cleaning cost
//! recovers — testing the adaptive part of the algorithm (frequency
//! estimates, redistribution) rather than the initial placement.

use crate::{emit_rows, Args};
use envy_bench::PointResult;
use envy_core::{EnvyConfig, EnvyStore, PolicyKind};
use envy_sim::report::fmt_f64;
use envy_sim::rng::Rng;

/// 10/90 bimodal with a configurable hot-region start.
fn sample(rng: &mut Rng, n: u64, hot_start: u64) -> u64 {
    let hot_len = n / 10;
    if rng.chance(0.9) {
        (hot_start + rng.below(hot_len)) % n
    } else {
        rng.below(n)
    }
}

fn measure(policy: PolicyKind, writes: u64) -> (f64, f64, f64) {
    let config = EnvyConfig::scaled(8, 64, 256, 256)
        .with_store_data(false)
        .with_policy(policy);
    let mut store = EnvyStore::new(config).expect("valid config");
    store.prefill().expect("prefill");
    let n = store.config().logical_pages;
    let mut rng = Rng::seed_from(23);
    let mut cost_between = |store: &mut EnvyStore, hot: u64, w: u64| {
        let f0 = store.stats().pages_flushed.get();
        let c0 = store.stats().clean_programs.get();
        for _ in 0..w {
            store
                .write(sample(&mut rng, n, hot) * 256, &[0])
                .expect("write");
        }
        let df = store.stats().pages_flushed.get() - f0;
        let dc = store.stats().clean_programs.get() - c0;
        if df == 0 {
            0.0
        } else {
            dc as f64 / df as f64
        }
    };
    // Phase 1: hot spot at the front (warm + measure).
    cost_between(&mut store, 0, writes);
    let settled = cost_between(&mut store, 0, writes / 2);
    // Phase 2: hot spot jumps to the middle of the cold region; measure
    // immediately after the jump (transient) and after re-converging.
    let jump = n / 2;
    let transient = cost_between(&mut store, jump, writes / 2);
    cost_between(&mut store, jump, writes);
    let recovered = cost_between(&mut store, jump, writes / 2);
    (settled, transient, recovered)
}

pub fn run(args: &Args) {
    let writes: u64 = if args.quick { 200_000 } else { 500_000 };
    let policies: Vec<(&'static str, PolicyKind)> = vec![
        ("greedy", PolicyKind::Greedy),
        ("locality-gathering", PolicyKind::LocalityGathering),
        (
            "hybrid-8",
            PolicyKind::Hybrid {
                segments_per_partition: 8,
            },
        ),
    ];
    let outcome = args.sweep("abl_drifting_hotspot", policies, |_, &(name, policy)| {
        let (settled, transient, recovered) = measure(policy, writes);
        PointResult::row(
            name,
            vec![
                name.to_string(),
                fmt_f64(settled),
                fmt_f64(transient),
                fmt_f64(recovered),
            ],
        )
        .metric("settled_cost", settled)
        .metric("transient_cost", transient)
        .metric("recovered_cost", recovered)
    });
    emit_rows(
        "Ablation: drifting hot spot",
        "10/90 writes; the hot region jumps to the middle of the cold data mid-run",
        &[
            "policy",
            "settled cost",
            "right after hot-spot jump",
            "after re-convergence",
        ],
        &outcome.rows,
    );
}
