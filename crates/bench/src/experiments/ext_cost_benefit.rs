//! Extension: the Sprite LFS cost-benefit cleaner as a baseline.
//!
//! §4.1 explains why eNVy does not use Sprite LFS's policy (few, large,
//! hardware-defined segments; no seek costs; per-page age tracking too
//! expensive). This sweep adds a cost-benefit victim selector
//! (`age × (1−u) / 2u`, segment-granularity age) to the Figure 8
//! comparison so that design decision can be quantified: cost-benefit
//! improves on greedy under skew, but the hybrid — which exploits eNVy's
//! freedom to write to many segments in quick succession — still wins.

use crate::{emit_rows, Args};
use envy_bench::{locality_label, PointResult, LOCALITIES};
use envy_core::PolicyKind;
use envy_sim::report::fmt_f64;
use envy_workload::CleaningStudy;

pub fn run(args: &Args) {
    let pps = if args.quick { 128 } else { 512 };
    let policies: [(&'static str, PolicyKind); 3] = [
        ("greedy", PolicyKind::Greedy),
        ("cost-benefit", PolicyKind::CostBenefit),
        (
            "hybrid-16",
            PolicyKind::Hybrid {
                segments_per_partition: 16,
            },
        ),
    ];
    let outcome = args.sweep("ext_cost_benefit", LOCALITIES.to_vec(), |_, &locality| {
        let mut row = vec![locality_label(locality)];
        let mut result = PointResult::row(locality_label(locality), Vec::new());
        for (name, policy) in policies {
            let out = CleaningStudy::sized(128, pps, policy, locality)
                .run()
                .expect("study must run");
            row.push(fmt_f64(out.cleaning_cost));
            result.metrics.push((name, out.cleaning_cost));
        }
        result.rows = vec![row];
        result
    });
    emit_rows(
        "Extension: cost-benefit baseline",
        "Sprite LFS cost-benefit victim selection vs the paper's policies (§4.1)",
        &["locality", "greedy", "cost-benefit", "hybrid-16"],
        &outcome.rows,
    );
}
