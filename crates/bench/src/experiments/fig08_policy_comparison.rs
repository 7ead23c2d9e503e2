//! Figure 8: comparison of cleaning algorithms.
//!
//! Cleaning cost vs locality of reference (50/50 → 5/95) for the greedy
//! method, locality gathering, and the hybrid approach with 16-segment
//! partitions, on a 128-segment array at 80 % utilization.
//!
//! Paper shape: greedy is cheapest at uniform but degrades as locality
//! rises; locality gathering is pinned at cost 4 under uniform traffic
//! and improves with locality; the hybrid tracks greedy at uniform and
//! locality gathering at high skew, beating pure LG everywhere.

use crate::{emit_rows, Args};
use envy_bench::{locality_label, PointResult, LOCALITIES};
use envy_core::PolicyKind;
use envy_sim::report::fmt_f64;
use envy_workload::CleaningStudy;

pub fn run(args: &Args) {
    let pps = if args.quick { 128 } else { 512 };
    let policies: [(&'static str, PolicyKind); 3] = [
        ("greedy", PolicyKind::Greedy),
        ("locality-gathering", PolicyKind::LocalityGathering),
        (
            "hybrid-16",
            PolicyKind::Hybrid {
                segments_per_partition: 16,
            },
        ),
    ];
    let outcome = args.sweep(
        "fig08_policy_comparison",
        LOCALITIES.to_vec(),
        |_, &locality| {
            let mut row = vec![locality_label(locality)];
            let mut result = PointResult::row(locality_label(locality), Vec::new());
            for (name, policy) in policies {
                let mut study = CleaningStudy::sized(128, pps, policy, locality);
                // Locality gathering's frequency estimates converge slowly
                // across 127 single-segment partitions; give it extra
                // warmup.
                if policy == PolicyKind::LocalityGathering && !args.quick {
                    study.warmup_writes *= 3;
                }
                let out = study.run().expect("study must run");
                row.push(fmt_f64(out.cleaning_cost));
                result.metrics.push((name, out.cleaning_cost));
            }
            result.rows = vec![row];
            result
        },
    );
    emit_rows(
        "Figure 8",
        "cleaning cost vs locality of reference, 128 segments, 80% utilization",
        &["locality", "greedy", "locality-gathering", "hybrid-16"],
        &outcome.rows,
    );
}
